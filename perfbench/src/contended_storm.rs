//! `contended_storm`: a flat `SpotCheckSim` with the fluid network
//! model and every contention defense on
//! (`ContentionConfig::enabled_defended()`). 120 VMs are admitted, then
//! one price spike revokes them all, so commits, re-replications and
//! lazy restores share the fluid network. The cost grows steeply with
//! the storm (200 VMs took 2.7-3.3 s, 400 took 21 s), so the storm is
//! kept small enough for a run to hold dozens of passes.
//!
//! The only part where `simcore::fluid` and `controller::contention`
//! run.

use std::time::Instant;

use spotcheck_core::config::{ContentionConfig, SpotCheckConfig};
use spotcheck_core::driver::SpotCheckSim;
use spotcheck_core::policy::MappingPolicy;
use spotcheck_migrate::mechanisms::MechanismKind;
use spotcheck_simcore::digest::Digest64;
use spotcheck_simcore::metrics;
use spotcheck_simcore::series::StepSeries;
use spotcheck_simcore::time::SimTime;
use spotcheck_spotmarket::market::MarketId;
use spotcheck_spotmarket::trace::PriceTrace;
use spotcheck_workloads::WorkloadKind;

use crate::{Cx, PassOut, Size, Workload};

/// Outcome digests at full size, one per seed (see `--digest`).
const PINS: &[(u64, u64)] = &[
    (1, 0x7f29922827177786),
    (2, 0x0a065b5b4b44f61d),
    (3, 0x2a2da0fe728e6d7d),
    (4, 0xd3a4090a6d34636b),
    (5, 0x046d4a4819a218a0),
    (6, 0x4f89b77a06a0e1ea),
    (7, 0x3333b54c155ed71f),
    (8, 0x3b0dac472bad7615),
    (9, 0xb7c4878f498c943c),
    (10, 0x5b7d60606038fb25),
    (11, 0xa0b1391480d05ad1),
    (12, 0x2a32d118d9bf8eda),
    (13, 0xf7891425fd2543f5),
    (14, 0x02469865e73c1b7f),
    (15, 0x02ffb6f570154322),
    (16, 0x45b9725c91027c83),
];

const STORM_AT: SimTime = SimTime::from_secs(3_600);
const HORIZON: SimTime = SimTime::from_secs(10_800);

pub struct ContendedStorm {
    vms: usize,
}

impl ContendedStorm {
    pub fn new(size: Size) -> Self {
        ContendedStorm {
            vms: match size {
                Size::Full => 120,
                Size::Tiny => 20,
            },
        }
    }
}

fn storm_trace() -> PriceTrace {
    let s = StepSeries::from_points(vec![
        (SimTime::ZERO, 0.014),
        (STORM_AT, 0.90),
        (SimTime::from_secs(90_000), 0.014),
    ]);
    PriceTrace::new(MarketId::new("m3.medium", "us-east-1a"), 0.070, s)
}

impl Workload for ContendedStorm {
    type State = SpotCheckSim;
    const SETUP_EVERY_PASS: bool = true;

    fn setup(&self, cx: &mut Cx) -> SpotCheckSim {
        let cfg = SpotCheckConfig {
            zone: "us-east-1a".to_string(),
            mapping: MappingPolicy::OneM,
            mechanism: MechanismKind::SpotCheckLazy,
            contention: ContentionConfig::enabled_defended(),
            seed: cx.seed,
            ..SpotCheckConfig::default()
        };
        SpotCheckSim::new(vec![storm_trace()], cfg)
    }

    fn pass(&self, sim: &mut SpotCheckSim, cx: &mut Cx) -> PassOut {
        metrics::reset_peak_queue_depth();
        let events0 = metrics::events();
        let pass = cx.tr.begin("pass");
        let t0 = Instant::now();
        for (name, end) in [("contention.ramp", STORM_AT), ("contention.storm", HORIZON)] {
            let open = cx.tr.begin(name);
            if name == "contention.ramp" {
                for _ in 0..self.vms {
                    let customer = sim.create_customer();
                    sim.request_server(customer, WorkloadKind::TpcW);
                }
            }
            sim.run_until(end);
            cx.tr.end(open);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        cx.tr.end(pass);
        let events = metrics::events() - events0;
        let peak_depth = metrics::peak_queue_depth();

        let avail = sim.availability_report();
        let cost = sim.cost_report();
        let viol = sim.violation_report();
        let counters = *sim.journal().counters();
        let steps = sim.engine().steps();
        let mut d = Digest64::new();
        for (_, v) in counters.pairs() {
            d.write_u64(v);
        }
        for v in [avail.revocations, avail.migrations, avail.lost_vms, steps] {
            d.write_u64(v);
        }
        d.write_f64(avail.unavailability);
        d.write_f64(avail.degradation);
        d.write_f64(cost.cost_per_vm_hr);
        let n = self.vms as u64;
        // Every requested VM is one operation; a lost VM is a failed one.
        cx.checks.ok(n.saturating_sub(avail.lost_vms));
        cx.checks.expect(avail.lost_vms == 0, || {
            format!("contended_storm: {} VMs lost", avail.lost_vms)
        });
        cx.checks.expect(avail.revocations == n, || {
            format!(
                "contended_storm: storm revoked {} VMs, fleet is {n}",
                avail.revocations
            )
        });
        cx.checks.digest(d.finish(), cx.seed, cx.size, PINS);

        PassOut {
            wall_s,
            samples: Vec::new(),
            scalars: vec![
                ("contention.steps_per_s", steps as f64 / wall_s),
                ("contention.violations", viol.violations as f64),
                ("queue.peak_depth", peak_depth as f64),
                ("sim.events", events as f64),
                ("controller.revocations", avail.revocations as f64),
                ("controller.migrations", avail.migrations as f64),
                ("controller.returns", counters.returns_completed as f64),
                ("journal.dropped", sim.journal().dropped() as f64),
            ],
        }
    }
}
