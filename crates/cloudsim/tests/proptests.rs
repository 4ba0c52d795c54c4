//! Randomized invariant tests for the cloud platform: lifecycle and billing
//! invariants under arbitrary operation sequences, driven by seeded
//! [`SimRng`] streams so every case is reproducible.

use spotcheck_cloudsim::billing::{on_demand_cost, spot_cost, BillingMode};
use spotcheck_cloudsim::cloud::{CloudConfig, CloudSim};
use spotcheck_cloudsim::storage::AttachState;
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::series::StepSeries;
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_spotmarket::market::{MarketId, ZoneName};
use spotcheck_spotmarket::trace::PriceTrace;

const CASES: u64 = 48;

fn f64_in(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

fn random_trace(rng: &mut SimRng) -> PriceTrace {
    let n = rng.gen_range(1, 40) as usize;
    let mut s = StepSeries::new();
    s.push(SimTime::ZERO, 0.014);
    let mut t = 0u64;
    for _ in 0..n {
        t += rng.gen_range(60, 3_600);
        s.push(SimTime::from_secs(t), f64_in(rng, 0.001, 0.5));
    }
    PriceTrace::new(MarketId::new("m3.medium", "z"), 0.07, s)
}

/// Billing is monotone in time and never negative, in both modes, for
/// arbitrary price traces.
#[test]
fn spot_billing_monotone_and_nonnegative() {
    let mut rng = SimRng::seed(0xB111);
    for case in 0..CASES {
        let trace = random_trace(&mut rng);
        let bid = f64_in(&mut rng, 0.01, 1.0);
        for mode in [BillingMode::Continuous, BillingMode::HourlySpot2014] {
            let mut prev = 0.0;
            for h in 0..8u64 {
                let c = spot_cost(
                    &trace,
                    SimTime::ZERO,
                    SimTime::from_hours(h),
                    bid,
                    false,
                    mode,
                );
                assert!(
                    c >= prev - 1e-12,
                    "case {case} {mode:?}: cost shrank {prev} -> {c}"
                );
                assert!(c >= 0.0, "case {case}");
                prev = c;
            }
        }
    }
}

/// The bid cap holds: cost never exceeds bid x hours, and on-demand
/// continuous billing is exactly price x hours.
#[test]
fn billing_caps() {
    let mut rng = SimRng::seed(0xCA9);
    for case in 0..CASES {
        let trace = random_trace(&mut rng);
        let bid = f64_in(&mut rng, 0.01, 0.2);
        let hours = rng.gen_range(1, 24);
        let end = SimTime::from_hours(hours);
        let c = spot_cost(&trace, SimTime::ZERO, end, bid, false, BillingMode::Continuous);
        assert!(c <= bid * hours as f64 + 1e-9, "case {case}: cost {c} > bid cap");
        let od = on_demand_cost(0.07, SimTime::ZERO, end, BillingMode::Continuous);
        assert!((od - 0.07 * hours as f64).abs() < 1e-9, "case {case}");
    }
}

/// Arbitrary interleavings of volume attach/detach requests never
/// corrupt the attachment state machine: a volume is attached to at
/// most one instance, and completed ops leave consistent state.
#[test]
fn volume_state_machine_is_consistent() {
    let mut rng = SimRng::seed(0x70_1CE);
    for case in 0..CASES {
        let n_ops = rng.gen_range(1, 40) as usize;
        let trace = PriceTrace::new(
            MarketId::new("m3.medium", "z"),
            0.07,
            StepSeries::from_points(vec![(SimTime::ZERO, 0.014)]),
        );
        let mut cloud = CloudSim::new(vec![trace], CloudConfig::default());
        let zone = ZoneName::new("z");
        // Two instances and one volume.
        let mut now = SimTime::ZERO;
        let (a, op, ready) = cloud.request_on_demand("m3.medium", &zone, now).unwrap();
        cloud.complete_op(op, ready).unwrap();
        now = ready;
        let (b, op, ready) = cloud.request_on_demand("m3.medium", &zone, now).unwrap();
        cloud.complete_op(op, ready.max(now)).unwrap();
        now = ready.max(now);
        let vol = cloud.create_volume(8.0);

        let mut pending: Option<(spotcheck_cloudsim::ids::OpId, SimTime)> = None;
        for _ in 0..n_ops {
            let code = rng.gen_range(0, 4) as u8;
            now += SimDuration::from_secs(30);
            // Complete any due op first.
            if let Some((op, ready)) = pending {
                if now >= ready {
                    let _ = cloud.complete_op(op, now);
                    pending = None;
                }
            }
            if pending.is_some() {
                continue;
            }
            let target = if code % 2 == 0 { a } else { b };
            let result = if code < 2 {
                cloud.attach_volume(vol, target, now)
            } else {
                cloud.detach_volume(vol, now)
            };
            if let Ok(p) = result {
                pending = Some(p);
            }
            // Invariant: the volume references at most one instance, and
            // that instance's volume list is consistent with Attached
            // state.
            let state = cloud.volume(vol).unwrap().state;
            if let AttachState::Attached(inst) = state {
                let listed = cloud.instance(inst).unwrap().volumes.contains(&vol);
                assert!(listed, "case {case}: attached volume missing from instance list");
            }
            for inst in [a, b] {
                let listed = cloud.instance(inst).unwrap().volumes.contains(&vol);
                if listed {
                    assert_eq!(state.instance(), Some(inst), "case {case}");
                }
            }
        }
    }
}

/// Spot instances are never billed above their bid even across spikes.
#[test]
fn instance_cost_respects_bid() {
    let mut rng = SimRng::seed(0x51D);
    for case in 0..CASES {
        let trace = random_trace(&mut rng);
        let mut cloud = CloudSim::new(vec![trace], CloudConfig::default());
        let zone = ZoneName::new("z");
        let bid = 0.07;
        let (id, op, ready) = match cloud.request_spot("m3.medium", &zone, bid, SimTime::ZERO) {
            Ok(x) => x,
            Err(_) => continue, // price already above bid at t=0
        };
        if cloud.complete_op(op, ready).is_err() {
            continue;
        }
        let until = ready + SimDuration::from_hours(12);
        let cost = cloud.instance_cost(id, until).unwrap();
        let hours = until.since(ready).as_hours_f64();
        assert!(cost <= bid * hours + 1e-9, "case {case}: cost {cost} over bid cap");
        assert!(cost >= 0.0, "case {case}");
    }
}

/// The from-scratch reference for `CloudSim::native_cost`: the left fold
/// of `instance_cost` over every instance, in id order.
fn scratch_native_cost(cloud: &CloudSim, until: SimTime) -> f64 {
    let mut total = 0.0;
    for inst in cloud.instances() {
        total += cloud.instance_cost(inst.id, until).unwrap_or(0.0);
    }
    total
}

/// A trace in `market` whose first change point is at `first`.
fn market_trace(rng: &mut SimRng, type_name: &str, first: SimTime) -> PriceTrace {
    let mut s = StepSeries::new();
    let mut t = first;
    for _ in 0..rng.gen_range(20, 120) {
        s.push(t, f64_in(rng, 0.005, 0.3));
        t += SimDuration::from_secs(rng.gen_range(60, 3_600));
    }
    PriceTrace::new(MarketId::new(type_name, "z"), 0.5, s)
}

/// The billing ledger behind `native_cost` is bit-exact against the
/// from-scratch fold at every report, under random lifecycles (spot and
/// on-demand, revoked, user-terminated, spot boots that lose their price
/// race) and reports at
/// repeated, increasing and earlier instants, in both billing modes.
#[test]
fn native_cost_ledger_matches_scratch_fold() {
    let types = ["m3.medium", "m3.large", "m3.xlarge"];
    let zone = ZoneName::new("z");
    let mut rng = SimRng::seed(0x1ED6E2);
    let mut reports = 0u64;
    for case in 0..CASES {
        for billing in [BillingMode::Continuous, BillingMode::HourlySpot2014] {
            // The third market's trace starts late, so spot requests there
            // fail until it does.
            let traces = vec![
                market_trace(&mut rng, types[0], SimTime::ZERO),
                market_trace(&mut rng, types[1], SimTime::ZERO),
                market_trace(&mut rng, types[2], SimTime::from_hours(3)),
            ];
            let markets: Vec<MarketId> = traces.iter().map(|t| t.market.clone()).collect();
            let config = CloudConfig {
                billing,
                seed: case,
                ..CloudConfig::default()
            };
            let mut cloud = CloudSim::new(traces, config);
            let mut ops = Vec::new();
            let mut warnings = Vec::new();
            let mut now = SimTime::ZERO;
            for _ in 0..rng.gen_range(20, 80) {
                // Zero-length steps make repeated report instants.
                now += SimDuration::from_secs(rng.gen_range(0, 4) * rng.gen_range(0, 1_800));
                ops.retain(|&(op, ready)| {
                    ready > now || {
                        let _ = cloud.complete_op(op, now);
                        false
                    }
                });
                for m in &markets {
                    warnings.extend(cloud.apply_price_change(m, now));
                }
                warnings.retain(|w| {
                    w.terminate_at > now || {
                        let _ = cloud.force_terminate(w.instance, now);
                        false
                    }
                });
                let ty = types[rng.gen_range(0, 3) as usize];
                match rng.gen_range(0, 5) {
                    0 => {
                        let bid = f64_in(&mut rng, 0.01, 0.35);
                        if let Ok((_, op, ready)) = cloud.request_spot(ty, &zone, bid, now) {
                            ops.push((op, ready));
                        }
                    }
                    1 => {
                        if let Ok((_, op, ready)) = cloud.request_on_demand(ty, &zone, now) {
                            ops.push((op, ready));
                        }
                    }
                    2 => {
                        let live: Vec<_> = cloud
                            .instances()
                            .filter(|i| i.is_usable())
                            .map(|i| i.id)
                            .collect();
                        if !live.is_empty() {
                            let id = live[rng.gen_range(0, live.len() as u64) as usize];
                            if let Ok((op, ready)) = cloud.terminate(id, now) {
                                ops.push((op, ready));
                            }
                        }
                    }
                    _ => {}
                }
                let back = SimDuration::from_secs(rng.gen_range(0, 20_000));
                let ahead = SimDuration::from_secs(rng.gen_range(0, 20_000));
                let queries = [
                    now,
                    now,
                    SimTime::from_micros(now.as_micros().saturating_sub(back.as_micros())),
                    now + ahead,
                    now,
                ];
                for until in queries.iter().take(rng.gen_range(1, 6) as usize) {
                    let got = cloud.native_cost(*until);
                    let want = scratch_native_cost(&cloud, *until);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "case {case} {billing:?} until {until}: ledger {got} != scratch {want}"
                    );
                    reports += 1;
                }
            }
        }
    }
    assert!(reports > 1_000, "only {reports} reports compared");
}
