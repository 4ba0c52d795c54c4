//! Micro-benchmarks of the simulation core: event-queue throughput and the
//! fluid max-min-fair solver, on the shared `std::time` harness.
//!
//! ```text
//! cargo bench -p spotcheck-bench --bench engine             # everything
//! cargo bench -p spotcheck-bench --bench engine max_min     # filtered
//! ```
//!
//! The `max_min_contention/*` rows have the fleet-contention shape: one AZ
//! uplink, one NIC per host, capped checkpoint streams and a few weight-4
//! fallback flushes. The `fluid_recompute_dead/*` rows price one
//! `FluidSim::recompute_rates` over the same 30 live flows while the
//! network carries 100 or 100,000 dead host NICs: a recompute should cost
//! the same at both sizes.

use spotcheck_simcore::fluid::{max_min_rates, FlowSpec, FluidSim, LinkId, Network};
use spotcheck_simcore::queue::EventQueue;
use spotcheck_simcore::time::{SimDuration, SimTime};

mod common;
use common::{bench, Report};

/// A contention-shaped flow set: `streams` capped checkpoint streams from
/// distinct hosts plus `flushes` weight-4 commits, all crossing the AZ
/// uplink into one backup server's NIC and disk. The network first gains
/// `dead` zero-capacity host NICs that no flow uses.
fn contention(streams: usize, flushes: usize, dead: usize) -> (Network, Vec<FlowSpec>) {
    let mut net = Network::new();
    for _ in 0..dead {
        net.add_link(0.0);
    }
    let az = net.add_link(1.25e9);
    let nic = net.add_link(1.25e8);
    let disk = net.add_link(1.6e8);
    let hosts: Vec<LinkId> = (0..streams + flushes)
        .map(|_| net.add_link(1.25e8))
        .collect();
    let mut flows: Vec<FlowSpec> = hosts[..streams]
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            FlowSpec::new(vec![h, az, nic, disk], f64::INFINITY)
                .with_cap(2e6 + (i % 7) as f64 * 5e5)
        })
        .collect();
    flows.extend(
        hosts[streams..]
            .iter()
            .map(|&h| FlowSpec::new(vec![h, az, nic, disk], 4e9).with_weight(4.0)),
    );
    (net, flows)
}

fn main() {
    let filter = common::filter_arg();
    let wanted = |name: &str| name.contains(filter.as_str());
    let mut reports: Vec<Report> = Vec::new();

    for n in [1_000usize, 100_000] {
        let name = format!("event_queue_push_pop/{n}");
        if wanted(&name) {
            reports.push(bench(name, || {
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.push(SimTime::from_micros(((i * 7919) % n) as u64), i);
                }
                let mut acc = 0usize;
                while let Some((_, e)) = q.pop() {
                    acc = acc.wrapping_add(e);
                }
                acc
            }));
        }
    }

    for n in [10usize, 100, 500] {
        let name = format!("max_min_rates/{n}");
        if wanted(&name) {
            let mut net = Network::new();
            let l1 = net.add_link(125e6);
            let l2 = net.add_link(110e6);
            let flows: Vec<FlowSpec> = (0..n)
                .map(|i| FlowSpec::new(vec![l1, l2], 1e9).with_cap(1e6 + (i as f64) * 1e5))
                .collect();
            reports.push(bench(name, || max_min_rates(&net, &flows)));
        }
    }

    for streams in [30usize, 120] {
        let name = format!("max_min_contention/{streams}");
        if wanted(&name) {
            let (net, flows) = contention(streams, 4, 0);
            reports.push(bench(name, || max_min_rates(&net, &flows)));
        }
    }

    for dead in [100usize, 100_000] {
        let name = format!("fluid_recompute_dead/{dead}");
        if wanted(&name) {
            let (net, flows) = contention(26, 4, dead);
            let mut sim = FluidSim::new(net);
            for f in flows {
                sim.add_flow(f);
            }
            reports.push(bench(name, || {
                sim.recompute_rates();
                sim.active_flows()
            }));
        }
    }

    if wanted("fluid_drain_100_flows") {
        reports.push(bench("fluid_drain_100_flows", || {
            let mut net = Network::new();
            let l = net.add_link(125e6);
            let mut sim = FluidSim::new(net);
            for i in 0..100 {
                sim.add_flow(FlowSpec::new(vec![l], 1e6 * (i + 1) as f64));
            }
            sim.advance(SimDuration::from_secs(3_600));
            sim.active_flows()
        }));
    }

    common::print_reports(&reports);
}
