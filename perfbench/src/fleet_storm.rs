//! `fleet_storm`: the `fleet_sharded` scenario shape through
//! `core::shardsim` — 8 AZ shards on one worker, closed-form network.
//! Ramp, a churn wave, a staggered price storm that revokes every spot
//! host, then the return to spot.
//!
//! Stresses `simcore::queue`, the `core::controller` handlers, cloudsim
//! billing, and `simcore::shard` windows and fast-forward. Never touches
//! the fluid solver, the daemon or the archive.
//!
//! Known defect, counted and not avoided: on some seeds a VM stays
//! `Running` on a host the platform has already terminated (not revoked).
//! No live instance holds it, so the storm cannot revoke it and the
//! storm's revocations fall short of the fleet. Each such VM is counted
//! in `failed`; a shortfall it does not explain fails the run.

use std::time::Instant;

use spotcheck_cloudsim::cloud::CloudConfig;
use spotcheck_cloudsim::faults::FaultPlan;
use spotcheck_cloudsim::instance::InstanceState;
use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::policy::MappingPolicy;
use spotcheck_core::shardsim::{FleetScript, FleetShard, FleetShardSpec, ShardedFleetSim};
use spotcheck_core::types::VmStatus;
use spotcheck_migrate::mechanisms::MechanismKind;
use spotcheck_nestedvm::vm::NestedVmId;
use spotcheck_simcore::digest::Digest64;
use spotcheck_simcore::metrics;
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::series::StepSeries;
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_spotmarket::market::MarketId;
use spotcheck_spotmarket::trace::PriceTrace;
use spotcheck_workloads::WorkloadKind;

use crate::{Cx, PassOut, Size, Workload};

/// Outcome digests at full size, one per seed (see `--digest`).
const PINS: &[(u64, u64)] = &[
    (1, 0xeaa19cd52a658bfe),
    (2, 0x97f863280def6356),
    (3, 0x82a86d45528d8202),
    (4, 0x2459b922543543c2),
    (5, 0x62edc4d580053aaf),
    (6, 0x4dc40bad4405b6b9),
    (7, 0xbfb708e2c50398d3),
    (8, 0xf7d04e1fc558b4bc),
    (9, 0x6543c4c8871ae770),
    (10, 0x95f140f407a39994),
    (11, 0xec565fe26e2a366e),
    (12, 0x620c60ab94174f0e),
    (13, 0xa0c6f18a3295d563),
    (14, 0x1e9d6bafd7446a88),
    (15, 0x88579a6172410412),
    (16, 0x362cad07844e3e86),
];

const CROSS_SHARD_LATENCY: SimDuration = SimDuration::from_secs(60);
const GOSSIP_PERIOD: SimDuration = SimDuration::from_hours(6);

pub struct FleetStorm {
    shards: u16,
    customers: usize,
    vms_per_customer: usize,
    days: u64,
    churn_day: u64,
    storm_day: u64,
    stagger: SimDuration,
}

impl FleetStorm {
    pub fn new(size: Size) -> Self {
        match size {
            // 8 shards x 16 customers x 60 VMs = 7,680 nested VMs, 28 days:
            // about 0.5 s a pass. With 10 customers x 100 VMs the orphan
            // defect above showed on none of seeds 1-16; with 16 customers
            // it shows on 9 of them.
            Size::Full => FleetStorm {
                shards: 8,
                customers: 16,
                vms_per_customer: 60,
                days: 28,
                churn_day: 10,
                storm_day: 14,
                stagger: SimDuration::from_hours(3),
            },
            // 8 shards x 2 customers x 25 VMs = 400 VMs, 7 days.
            Size::Tiny => FleetStorm {
                shards: 8,
                customers: 2,
                vms_per_customer: 25,
                days: 7,
                churn_day: 2,
                storm_day: 3,
                stagger: SimDuration::from_hours(3),
            },
        }
    }

    fn fleet_size(&self) -> u64 {
        (self.shards as usize * self.customers * self.vms_per_customer) as u64
    }

    /// One zone's m3.medium trace: an hourly walk below the on-demand bid
    /// with a two-hour storm far above it, staggered per shard.
    fn zone_trace(&self, zone: &str, shard: u16, root: &SimRng) -> PriceTrace {
        const ON_DEMAND: f64 = 0.070;
        const STORM_PRICE: f64 = 0.900;
        let storm_at = SimTime::from_days(self.storm_day) + self.stagger * shard as u64;
        let storm_end = storm_at + SimDuration::from_hours(2);
        let mut rng = root.fork_named(zone);
        let mut price = 0.014;
        let mut points: Vec<(SimTime, f64)> = Vec::new();
        for h in 0..self.days * 24 {
            let t = SimTime::from_secs(h * 3600);
            if t >= storm_at && t < storm_end {
                if points.last().map(|&(_, p)| p) != Some(STORM_PRICE) {
                    points.push((t, STORM_PRICE));
                }
                continue;
            }
            price = (price + (rng.gen_range(0, 9) as f64 - 4.0) * 5e-4).clamp(0.010, 0.020);
            points.push((t, price));
        }
        PriceTrace::new(
            MarketId::new("m3.medium", zone),
            ON_DEMAND,
            StepSeries::from_points(points),
        )
    }
}

/// Simulated phase boundaries: (span name, end of phase).
fn phases(w: &FleetStorm) -> [(&'static str, SimTime); 4] {
    let storm = SimTime::from_days(w.storm_day);
    [
        ("shardsim.ramp", SimTime::from_days(1)),
        ("shardsim.steady", storm),
        ("shardsim.storm", storm + SimDuration::from_days(1)),
        ("shardsim.recover", SimTime::from_days(w.days)),
    ]
}

impl Workload for FleetStorm {
    type State = ShardedFleetSim;
    const SETUP_EVERY_PASS: bool = true;

    fn setup(&self, cx: &mut Cx) -> ShardedFleetSim {
        let open = cx.tr.begin("shardsim.build");
        let root = SimRng::seed(cx.seed).fork_named("fleet_storm");
        let specs: Vec<FleetShardSpec> = (0..self.shards)
            .map(|s| {
                let zone = format!("az{s:02}");
                let mut shard_rng = root.fork_named(&zone);
                let config_seed = shard_rng.next_u64();
                let cloud_seed = shard_rng.next_u64();
                let fault_seed = shard_rng.next_u64();
                FleetShardSpec {
                    traces: vec![self.zone_trace(&zone, s, &root)],
                    config: SpotCheckConfig {
                        zone: zone.clone(),
                        mapping: MappingPolicy::OneM,
                        mechanism: MechanismKind::SpotCheckLazy,
                        seed: config_seed,
                        ..SpotCheckConfig::default()
                    },
                    cloud: CloudConfig {
                        seed: cloud_seed,
                        faults: FaultPlan::none()
                            .with_transient_errors(0.001 + (fault_seed % 997) as f64 * 1e-6),
                        ..CloudConfig::default()
                    },
                    script: FleetScript {
                        customers: self.customers,
                        vms_per_customer: self.vms_per_customer,
                        ramp_gap: SimDuration::from_secs(300),
                        churn_at: Some(SimTime::from_days(self.churn_day)),
                        churn_every: 20,
                        churn_replace_delay: SimDuration::from_hours(1),
                        workload: WorkloadKind::TpcW,
                    },
                }
            })
            .collect();
        let sim = ShardedFleetSim::new(specs, CROSS_SHARD_LATENCY, GOSSIP_PERIOD);
        cx.tr.end(open);
        sim
    }

    fn pass(&self, sim: &mut ShardedFleetSim, cx: &mut Cx) -> PassOut {
        metrics::reset_peak_queue_depth();
        let events0 = metrics::events();
        let pass = cx.tr.begin("pass");
        let t0 = Instant::now();
        for (name, end) in phases(self) {
            let open = cx.tr.begin(name);
            sim.run_until(end);
            cx.tr.end(open);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        cx.tr.end(pass);
        let events = metrics::events() - events0;
        let peak_depth = metrics::peak_queue_depth();

        let horizon = SimTime::from_days(self.days);
        let mut d = Digest64::new();
        let (mut revocations, mut migrations, mut returns, mut lost) = (0u64, 0u64, 0u64, 0u64);
        for shard in sim.shards() {
            let c = shard.controller();
            let avail = c.availability_report(horizon);
            let cost = c.cost_report(horizon);
            let counters = c.journal().counters();
            revocations += avail.revocations;
            migrations += avail.migrations;
            returns += counters.returns_completed;
            lost += counters.vms_lost;
            for v in [
                avail.revocations,
                avail.migrations,
                avail.lost_vms,
                counters.returns_completed,
                counters.rereplications_completed,
                shard.churned_vms() as u64,
                shard.tracked_vms() as u64,
                shard.advisories_seen(),
            ] {
                d.write_u64(v);
            }
            d.write_f64(avail.unavailability);
            d.write_f64(avail.degradation);
            d.write_f64(cost.cost_per_vm_hr);
        }
        let steps = sim.total_steps();
        for v in [
            steps,
            sim.messages_delivered(),
            sim.epoch_windows(),
            sim.journal_dropped(),
        ] {
            d.write_u64(v);
        }
        let fleet = self.fleet_size();
        cx.checks
            .expect(lost == 0, || format!("fleet_storm: {lost} VMs lost"));
        // Every VM the fleet script requested is one operation; an
        // orphaned VM is a failed one.
        let mut orphans = 0u64;
        for (i, shard) in sim.shards().enumerate() {
            let orphaned = orphaned_vms(shard);
            cx.checks
                .ok(shard.tracked_vms() as u64 - orphaned.len() as u64);
            for vm in orphaned {
                orphans += 1;
                cx.checks.known_defect(format!(
                    "fleet_storm: shard {i} VM {vm} is running on a terminated host"
                ));
            }
        }
        // Spot prices stay below the bid outside the storm, so every
        // revocation is the storm's, and it must reach every VM that a
        // live host holds.
        cx.checks.expect(
            revocations <= fleet && fleet - revocations <= orphans,
            || {
                format!(
                    "fleet_storm: {revocations} revocations, fleet is {fleet}, {orphans} orphaned"
                )
            },
        );
        cx.checks.digest(d.finish(), cx.seed, cx.size, PINS);

        let windows = sim.epoch_windows().max(1) as f64;
        PassOut {
            wall_s,
            samples: Vec::new(),
            scalars: vec![
                ("shardsim.steps", steps as f64),
                ("shardsim.steps_per_s", steps as f64 / wall_s),
                ("shardsim.epochs", sim.epochs() as f64),
                ("shardsim.epochs_ff", sim.epochs_fast_forwarded() as f64),
                (
                    "shardsim.ff_ratio",
                    sim.epochs_fast_forwarded() as f64 / windows,
                ),
                ("shardsim.messages", sim.messages_delivered() as f64),
                ("queue.peak_depth", peak_depth as f64),
                ("sim.events", events as f64),
                ("controller.revocations", revocations as f64),
                ("controller.migrations", migrations as f64),
                ("controller.returns", returns as f64),
                ("journal.dropped", sim.journal_dropped() as f64),
            ],
        }
    }
}

/// VMs the controller reports running on a host the platform has
/// already terminated.
fn orphaned_vms(shard: &FleetShard) -> Vec<u64> {
    let c = shard.controller();
    (0..shard.tracked_vms() as u64)
        .filter(|&id| {
            c.vm(NestedVmId(id)).is_ok_and(|v| {
                v.status == VmStatus::Running
                    && v.host.map_or(true, |h| {
                        c.cloud()
                            .instance(h)
                            .map_or(true, |i| i.state == InstanceState::Terminated)
                    })
            })
        })
        .collect()
}
