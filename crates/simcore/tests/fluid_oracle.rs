//! Differential oracle for the fluid max-min solver.
//!
//! [`oracle_max_min_rates`] is the original `HashMap`-based progressive
//! filling, kept verbatim (only the capacity read goes through the public
//! [`Network::capacity`]). The production solver in `simcore::fluid` must
//! reproduce it **bit for bit**: the same filling iterations, the same
//! freeze order and the same floating-point operations in the same order.
//! Every comparison below is on `f64::to_bits`, so a reordered sum or a
//! hoisted division shows up as a failure, not as a tolerance question.
//!
//! Inputs come from seeded [`SimRng`] streams, so every case is
//! reproducible from the case number printed on failure.

use std::collections::HashMap;

use spotcheck_simcore::fluid::{max_min_rates, FlowId, FlowSpec, FluidSim, LinkId, Network};
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::time::{SimDuration, MICROS_PER_SEC};

/// The original progressive-filling solver, kept as the reference.
fn oracle_max_min_rates(network: &Network, flows: &[FlowSpec]) -> Vec<f64> {
    let n = flows.len();
    let mut rates = vec![0.0f64; n];
    if n == 0 {
        return rates;
    }
    let mut frozen = vec![false; n];
    let mut remaining_cap: Vec<f64> = (0..network.len())
        .map(|l| network.capacity(LinkId(l)))
        .collect();

    for (i, f) in flows.iter().enumerate() {
        if f.route.is_empty() {
            rates[i] = f.rate_cap_bps.unwrap_or(f64::INFINITY);
            frozen[i] = true;
        }
    }

    loop {
        let mut link_weight: HashMap<usize, f64> = HashMap::new();
        let mut any_active = false;
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            any_active = true;
            for l in &f.route {
                *link_weight.entry(l.0).or_insert(0.0) += f.weight;
            }
        }
        if !any_active {
            break;
        }

        let mut best: Option<(f64, Freeze)> = None;
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let route_unit = f
                .route
                .iter()
                .map(|l| remaining_cap[l.0] / link_weight[&l.0])
                .fold(f64::INFINITY, f64::min);
            let fair_rate = f.weight * route_unit;
            let (candidate_rate, how) = match f.rate_cap_bps {
                Some(cap) if cap < fair_rate => (cap, Freeze::ByCap(i)),
                _ => (fair_rate, Freeze::ByLink),
            };
            let unit = candidate_rate / f.weight;
            if best.as_ref().map_or(true, |(u, _)| unit < *u) {
                best = Some((unit, how));
            }
        }
        let Some((unit, how)) = best else {
            break;
        };

        match how {
            Freeze::ByCap(i) => {
                let cap = flows[i].rate_cap_bps.unwrap_or(0.0);
                rates[i] = cap;
                frozen[i] = true;
                for l in &flows[i].route {
                    remaining_cap[l.0] = (remaining_cap[l.0] - cap).max(0.0);
                }
            }
            Freeze::ByLink => {
                let mut usage: HashMap<usize, f64> = HashMap::new();
                for (i, f) in flows.iter().enumerate() {
                    if frozen[i] {
                        continue;
                    }
                    let r = f.weight * unit;
                    rates[i] = r;
                    for l in &f.route {
                        *usage.entry(l.0).or_insert(0.0) += r;
                    }
                }
                let mut saturated: Vec<usize> = Vec::new();
                for (&l, &u) in &usage {
                    if u >= remaining_cap[l] * (1.0 - 1e-9) {
                        saturated.push(l);
                    }
                }
                for (i, f) in flows.iter().enumerate() {
                    if frozen[i] {
                        continue;
                    }
                    if f.route.iter().any(|l| saturated.contains(&l.0)) {
                        frozen[i] = true;
                        for l in &f.route {
                            remaining_cap[l.0] = (remaining_cap[l.0] - rates[i]).max(0.0);
                        }
                    }
                }
                if saturated.is_empty() {
                    for (i, f) in flows.iter().enumerate() {
                        if frozen[i] {
                            continue;
                        }
                        frozen[i] = true;
                        for l in &f.route {
                            remaining_cap[l.0] = (remaining_cap[l.0] - rates[i]).max(0.0);
                        }
                    }
                }
            }
        }
    }
    rates
}

enum Freeze {
    ByCap(usize),
    ByLink,
}

fn f64_in(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// Bit equality, except that any two NaNs match: Rust leaves the sign and
/// payload of a NaN result unspecified, so they may differ between two
/// compilations of the same operations.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_bits_eq(case: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{case}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            same_bits(*g, *w),
            "{case}: flow {i}: solver {g:e} ({:#x}) != oracle {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// The `fluid_props.rs` generator: 2-6 links (about one in eight dead),
/// flows over 1-3 links with optional caps and weights 0.5-4.0, some
/// infinite, some route-less, and now and then a route that crosses the
/// same link twice.
fn props_case(rng: &mut SimRng) -> (Network, Vec<FlowSpec>) {
    let mut net = Network::new();
    let n_links = rng.gen_range(2, 7) as usize;
    let links: Vec<LinkId> = (0..n_links)
        .map(|_| {
            if rng.gen_bool(0.125) {
                net.add_link(0.0)
            } else {
                net.add_link(f64_in(rng, 1e6, 1e9))
            }
        })
        .collect();
    let n = rng.gen_range(1, 16) as usize;
    let flows = (0..n)
        .map(|_| {
            let bytes = if rng.gen_bool(0.2) {
                f64::INFINITY
            } else {
                f64_in(rng, 1e5, 1e8)
            };
            let route = if rng.gen_bool(0.08) {
                Vec::new()
            } else {
                let hops = rng.gen_range(1, 4.min(links.len() as u64 + 1)) as usize;
                let mut route = Vec::with_capacity(hops + 1);
                while route.len() < hops {
                    let l = links[rng.gen_range(0, links.len() as u64) as usize];
                    if !route.contains(&l) {
                        route.push(l);
                    }
                }
                if rng.gen_bool(0.1) {
                    let again = route[rng.gen_range(0, route.len() as u64) as usize];
                    route.push(again);
                }
                route
            };
            let mut f = FlowSpec::new(route, bytes);
            if rng.gen_bool(0.4) {
                f = f.with_cap(f64_in(rng, 1e5, 1e8));
            }
            if rng.gen_bool(0.3) {
                f = f.with_weight(f64_in(rng, 0.5, 4.0));
            }
            f
        })
        .collect();
    (net, flows)
}

/// The fleet-contention shape: one shared AZ uplink, 100+ host NICs of
/// which most are dead (revoked hosts keep their link at capacity zero),
/// a few backup servers with a NIC and a disk each, capped checkpoint
/// streams, weight-4 fallback flushes, commits and restores.
fn contention_case(rng: &mut SimRng) -> (Network, Vec<FlowSpec>) {
    let mut net = Network::new();
    let az = net.add_link(f64_in(rng, 5e8, 1.25e9));
    let n_hosts = rng.gen_range(100, 241) as usize;
    let hosts: Vec<(LinkId, bool)> = (0..n_hosts)
        .map(|_| {
            let alive = rng.gen_bool(0.15);
            (net.add_link(if alive { 1.25e8 } else { 0.0 }), alive)
        })
        .collect();
    let live: Vec<LinkId> = hosts.iter().filter(|h| h.1).map(|h| h.0).collect();
    let n_backups = rng.gen_range(1, 5) as usize;
    let backups: Vec<(LinkId, LinkId)> = (0..n_backups)
        .map(|_| {
            let nic = net.add_link(1.25e8);
            let disk = net.add_link(f64_in(rng, 8e7, 2e8));
            (nic, disk)
        })
        .collect();
    let n = rng.gen_range(1, 160) as usize;
    let flows = (0..n)
        .map(|_| {
            // Mostly live hosts; a few flows stranded on a dead NIC.
            let h = if live.is_empty() || rng.gen_bool(0.05) {
                hosts[rng.gen_range(0, hosts.len() as u64) as usize].0
            } else {
                live[rng.gen_range(0, live.len() as u64) as usize]
            };
            let (bn, bd) = backups[rng.gen_range(0, backups.len() as u64) as usize];
            match rng.gen_range(0, 5) {
                // Checkpoint stream, capped.
                0 | 1 => FlowSpec::new(vec![h, az, bn, bd], f64::INFINITY)
                    .with_cap(f64_in(rng, 1e6, 8e6)),
                // Final commit, sometimes boosted to a fallback flush.
                2 => {
                    let f = FlowSpec::new(vec![h, az, bn, bd], f64_in(rng, 1e6, 4e9));
                    if rng.gen_bool(0.3) {
                        f.with_weight(4.0)
                    } else {
                        f
                    }
                }
                // Lazy restore read from the backup to a destination host.
                3 => FlowSpec::new(vec![bd, bn, az, h], f64_in(rng, 1e7, 4e9)),
                // Host-to-host transfer (re-replication / return).
                _ => {
                    let d = live
                        .get(rng.gen_range(0, live.len().max(1) as u64) as usize)
                        .copied()
                        .unwrap_or(h);
                    FlowSpec::new(vec![h, az, d], f64_in(rng, 1e7, 4e9))
                }
            }
        })
        .collect();
    (net, flows)
}

/// Values drawn from small sets, so exact ties between candidate
/// increments are common: the first flow in input order must win each one,
/// and the capacity charges must land in the same order.
fn tie_case(rng: &mut SimRng) -> (Network, Vec<FlowSpec>) {
    let pick = |rng: &mut SimRng, xs: &[f64]| xs[rng.gen_range(0, xs.len() as u64) as usize];
    let mut net = Network::new();
    let n_links = rng.gen_range(1, 5) as usize;
    let links: Vec<LinkId> = (0..n_links)
        .map(|_| net.add_link(pick(rng, &[0.0, 3e7, 6e7, 1e8, 1.2e8])))
        .collect();
    let n = rng.gen_range(1, 12) as usize;
    let flows = (0..n)
        .map(|_| {
            let hops = rng.gen_range(1, links.len() as u64 + 1) as usize;
            let route = (0..hops)
                .map(|_| links[rng.gen_range(0, links.len() as u64) as usize])
                .collect();
            let mut f = FlowSpec::new(route, 1e9);
            if rng.gen_bool(0.5) {
                f = f.with_cap(pick(rng, &[0.0, 1e7, 2e7, 3e7, 5e7]));
            }
            f.with_weight(pick(rng, &[1.0, 2.0, 4.0]))
        })
        .collect();
    (net, flows)
}

/// Specs that `FluidSim::add_flow` refuses but the free function accepts:
/// zero, huge, tiny, infinite and NaN weights and caps. The two solvers
/// must still agree bit for bit, NaN payloads included, which drives the
/// degenerate "nothing saturated" branch.
fn hostile_case(rng: &mut SimRng) -> (Network, Vec<FlowSpec>) {
    let pick = |rng: &mut SimRng, xs: &[f64]| xs[rng.gen_range(0, xs.len() as u64) as usize];
    let mut net = Network::new();
    let n_links = rng.gen_range(1, 4) as usize;
    let links: Vec<LinkId> = (0..n_links)
        .map(|_| net.add_link(pick(rng, &[0.0, 1e-300, 1.0, 1e8, 1e300])))
        .collect();
    let n = rng.gen_range(1, 8) as usize;
    let flows = (0..n)
        .map(|_| {
            let hops = rng.gen_range(0, links.len() as u64 + 1) as usize;
            let route = (0..hops)
                .map(|_| links[rng.gen_range(0, links.len() as u64) as usize])
                .collect();
            FlowSpec {
                route,
                remaining_bytes: 1e9,
                rate_cap_bps: if rng.gen_bool(0.5) {
                    Some(pick(
                        rng,
                        &[f64::NAN, -1.0, 0.0, 1e-300, 1e8, f64::INFINITY],
                    ))
                } else {
                    None
                },
                weight: pick(rng, &[f64::NAN, 0.0, 1e-300, 1.0, 1e300, f64::INFINITY]),
            }
        })
        .collect();
    (net, flows)
}

#[test]
fn solver_matches_oracle_on_ties_and_hostile_specs() {
    let mut rng = SimRng::seed(0x7_1E5);
    for case in 0..1_000 {
        let (net, flows) = if case % 2 == 0 {
            tie_case(&mut rng)
        } else {
            hostile_case(&mut rng)
        };
        let got = max_min_rates(&net, &flows);
        let want = oracle_max_min_rates(&net, &flows);
        assert_bits_eq(&format!("tie/hostile case {case}"), &got, &want);
    }
}

#[test]
fn solver_matches_oracle_on_props_generator() {
    let mut rng = SimRng::seed(0x0_4AC1E);
    for case in 0..1_000 {
        let (net, flows) = props_case(&mut rng);
        let got = max_min_rates(&net, &flows);
        let want = oracle_max_min_rates(&net, &flows);
        assert_bits_eq(&format!("props case {case}"), &got, &want);
    }
}

#[test]
fn solver_matches_oracle_on_contention_shape() {
    let mut rng = SimRng::seed(0xC0_7E57);
    for case in 0..1_000 {
        let (net, flows) = contention_case(&mut rng);
        let got = max_min_rates(&net, &flows);
        let want = oracle_max_min_rates(&net, &flows);
        assert_bits_eq(&format!("contention case {case}"), &got, &want);
    }
}

/// What [`FluidSim::time_to_next_completion`] must return for `rates`.
fn oracle_next_completion(specs: &[(FlowId, FlowSpec)], rates: &[f64]) -> Option<SimDuration> {
    let mut best: Option<f64> = None;
    for ((_, spec), &rate) in specs.iter().zip(rates) {
        if spec.remaining_bytes.is_finite() && rate > 0.0 {
            let t = spec.remaining_bytes / rate;
            if best.map_or(true, |b| t < b) {
                best = Some(t);
            }
        }
    }
    best.map(|t| {
        let micros = (t * MICROS_PER_SEC as f64).ceil();
        if micros >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration::from_micros((micros as u64).max(1))
        }
    })
}

/// Checks every observable of `sim` against the oracle run on the live
/// specs the test has been tracking (`model`, id order).
fn check_sim(case: &str, sim: &mut FluidSim, model: &mut [(FlowId, FlowSpec)]) {
    // `link_load` recomputes stale rates, so it is called before `rate`.
    let n_links = sim.network().len();
    let loads: Vec<f64> = (0..n_links).map(|l| sim.link_load(LinkId(l))).collect();
    for (id, spec) in model.iter_mut() {
        spec.remaining_bytes = sim.remaining(*id).expect("live flow is known");
    }
    let specs: Vec<FlowSpec> = model.iter().map(|(_, s)| s.clone()).collect();
    let want = oracle_max_min_rates(sim.network(), &specs);
    let got: Vec<f64> = model
        .iter()
        .map(|(id, _)| sim.rate(*id).expect("live flow has a rate"))
        .collect();
    assert_bits_eq(case, &got, &want);
    for (l, load) in loads.iter().enumerate() {
        let link = LinkId(l);
        let want_load: f64 = model
            .iter()
            .zip(&want)
            .filter(|((_, s), _)| s.route.contains(&link))
            .map(|(_, r)| *r)
            .sum();
        assert_eq!(
            load.to_bits(),
            want_load.to_bits(),
            "{case}: link {l} load {load:e} != oracle {want_load:e}"
        );
    }
    assert_eq!(
        sim.time_to_next_completion(),
        oracle_next_completion(model, &want),
        "{case}: next completion"
    );
    assert_eq!(sim.active_flows(), model.len(), "{case}: flow count");
}

#[test]
fn fluid_sim_op_sequences_match_oracle() {
    let mut rng = SimRng::seed(0x5E9_0E4CE);
    for case in 0..60 {
        let (net, pool) = if case % 2 == 0 {
            props_case(&mut rng)
        } else {
            contention_case(&mut rng)
        };
        let mut sim = FluidSim::new(net);
        let mut model: Vec<(FlowId, FlowSpec)> = Vec::new();
        let ops = rng.gen_range(20, 80);
        for op in 0..ops {
            let what = rng.gen_range(0, 10);
            let label = format!("case {case} op {op} (kind {what})");
            match what {
                0..=3 => {
                    let spec = pool[rng.gen_range(0, pool.len() as u64) as usize].clone();
                    let id = sim.add_flow(spec.clone());
                    model.push((id, spec));
                }
                4 if !model.is_empty() => {
                    let k = rng.gen_range(0, model.len() as u64) as usize;
                    let (id, _) = model.remove(k);
                    assert!(sim.remove_flow(id).is_some(), "{label}: remove");
                    assert_eq!(sim.remove_flow(id), None, "{label}: double remove");
                }
                5 if !model.is_empty() => {
                    let k = rng.gen_range(0, model.len() as u64) as usize;
                    let w = if rng.gen_bool(0.5) {
                        4.0
                    } else {
                        f64_in(&mut rng, 0.5, 4.0)
                    };
                    assert!(sim.set_weight(model[k].0, w), "{label}: set_weight");
                    model[k].1.weight = w;
                }
                6 => {
                    let n = sim.network().len();
                    if n > 0 {
                        let l = LinkId(rng.gen_range(0, n as u64) as usize);
                        let cap = if rng.gen_bool(0.3) {
                            0.0
                        } else {
                            f64_in(&mut rng, 1e6, 1e9)
                        };
                        sim.network_mut().set_capacity(l, cap);
                    }
                }
                7 => {
                    // A new link mid-run, as the controller adds host NICs.
                    sim.network_mut().add_link(f64_in(&mut rng, 1e6, 1e9));
                }
                _ => {
                    let dt = SimDuration::from_micros(rng.gen_range(0, 30_000_000));
                    let adv = sim.advance(dt);
                    model.retain(|(id, _)| !adv.completed.contains(id));
                }
            }
            check_sim(&label, &mut sim, &mut model);
        }
    }
}
