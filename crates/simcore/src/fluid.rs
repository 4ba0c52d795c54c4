//! Fluid (flow-level) bandwidth model.
//!
//! Checkpoint streams, migration transfers, and restore reads are modeled as
//! *flows* traversing capacity-limited *links* (a host NIC, the backup
//! server's NIC, its disk). Rates are allocated by **max-min fairness with
//! per-flow rate caps**, computed by the classic progressive-filling
//! algorithm. A [`FluidSim`] advances the flow set through time, returning
//! exact completion instants (piecewise-constant rates integrate exactly).
//!
//! This is the substrate on which the paper's Figures 7-9 phenomena emerge:
//! VM-to-backup checkpoint streams saturating the backup NIC past ~35 VMs,
//! and concurrent lazy restores contending on the backup's disk read path.

use crate::time::{SimDuration, SimTime, MICROS_PER_SEC};

/// Identifies a link within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Identifies a flow within a [`FluidSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A capacity-limited resource (NIC, disk channel, ...).
#[derive(Debug, Clone)]
pub struct Link {
    /// Capacity in bytes per second.
    pub capacity_bps: f64,
}

/// A topology of links.
#[derive(Debug, Clone, Default)]
pub struct Network {
    links: Vec<Link>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds a link with the given capacity in bytes/second and returns its id.
    ///
    /// A zero capacity is legal and models a dead resource (e.g. a crashed
    /// backup server): flows routed through it are allocated rate zero and
    /// stall rather than panicking the engine.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not finite and non-negative.
    pub fn add_link(&mut self, capacity_bps: f64) -> LinkId {
        assert!(
            capacity_bps.is_finite() && capacity_bps >= 0.0,
            "link capacity must be finite and non-negative, got {capacity_bps}"
        );
        self.links.push(Link { capacity_bps });
        LinkId(self.links.len() - 1)
    }

    /// Returns the capacity of `link` in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.links[link.0].capacity_bps
    }

    /// Updates the capacity of `link`. Setting zero marks the resource dead
    /// (its flows stall at rate zero) — used by fault plans that crash a
    /// server mid-transfer.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or the capacity is not finite and
    /// non-negative.
    pub fn set_capacity(&mut self, link: LinkId, capacity_bps: f64) {
        assert!(
            capacity_bps.is_finite() && capacity_bps >= 0.0,
            "link capacity must be finite and non-negative, got {capacity_bps}"
        );
        self.links[link.0].capacity_bps = capacity_bps;
    }

    /// Returns the number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns true if the network has no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

/// A flow demand: a route through links plus an optional per-flow rate cap.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Links the flow traverses (a flow is limited by every link on its
    /// route).
    pub route: Vec<LinkId>,
    /// Bytes remaining to transfer. Use `f64::INFINITY` for an open-ended
    /// stream (e.g. a continuous checkpoint stream whose demand is governed
    /// externally).
    pub remaining_bytes: f64,
    /// Optional per-flow rate cap in bytes/second (e.g. `tc` throttling on
    /// the backup server).
    pub rate_cap_bps: Option<f64>,
    /// Relative weight for the fair share (default 1.0).
    pub weight: f64,
}

impl FlowSpec {
    /// Creates a flow of `bytes` over `route` with weight 1 and no cap.
    pub fn new(route: Vec<LinkId>, bytes: f64) -> Self {
        FlowSpec {
            route,
            remaining_bytes: bytes,
            rate_cap_bps: None,
            weight: 1.0,
        }
    }

    /// Sets a per-flow rate cap in bytes/second.
    pub fn with_cap(mut self, cap_bps: f64) -> Self {
        self.rate_cap_bps = Some(cap_bps);
        self
    }

    /// Sets the fair-share weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "flow weight must be positive, got {weight}"
        );
        self.weight = weight;
        self
    }
}

/// A live flow of a [`FluidSim`].
#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    spec: FlowSpec,
    rate_bps: f64,
}

impl AsRef<FlowSpec> for FlowSpec {
    fn as_ref(&self) -> &FlowSpec {
        self
    }
}

impl AsRef<FlowSpec> for Flow {
    fn as_ref(&self) -> &FlowSpec {
        &self.spec
    }
}

/// Computes weighted max-min fair rates for `flows` over `network` by
/// progressive filling.
///
/// Returns one rate per input flow, in input order. Flows with empty routes
/// are limited only by their cap (infinite if uncapped).
pub fn max_min_rates(network: &Network, flows: &[FlowSpec]) -> Vec<f64> {
    let mut solver = Solver::default();
    solver.solve(network, flows);
    solver.rates
}

/// Reusable scratch state for progressive filling.
///
/// Every per-link vector is indexed by [`LinkId`] and grows with the
/// network, but a solve initialises and scans only the links on the routes
/// it is given: a link belongs to the current solve when its `stamp` equals
/// `epoch`. A solve therefore does no hashing and, once the vectors have
/// grown, no allocation, and its cost does not depend on how many (dead)
/// links the network has accumulated.
#[derive(Debug, Default)]
struct Solver {
    epoch: u64,
    stamp: Vec<u64>,
    /// The links on this solve's routes, in first-touch order.
    links: Vec<usize>,
    /// Capacity not yet charged to frozen flows.
    cap: Vec<f64>,
    /// Total weight of the active flows crossing each link.
    weight: Vec<f64>,
    /// `cap / weight`: the per-unit-weight increment each link supports.
    unit: Vec<f64>,
    /// Rate the active flows would draw at the chosen increment.
    usage: Vec<f64>,
    saturated: Vec<bool>,
    /// Total allocated rate per link (see [`Solver::tally_loads`]).
    load: Vec<f64>,
    /// Indices of the flows not yet frozen, in input order.
    active: Vec<usize>,
    /// One rate per input flow.
    rates: Vec<f64>,
}

enum Freeze {
    /// The active flow at this position in `Solver::active` freezes at its
    /// cap.
    ByCap(usize),
    ByLink,
}

impl Solver {
    /// Computes the max-min fair rates of `flows` into `self.rates`.
    fn solve<F: AsRef<FlowSpec>>(&mut self, network: &Network, flows: &[F]) {
        let m = network.links.len();
        if self.stamp.len() < m {
            self.stamp.resize(m, 0);
            self.cap.resize(m, 0.0);
            self.weight.resize(m, 0.0);
            self.unit.resize(m, 0.0);
            self.usage.resize(m, 0.0);
            self.saturated.resize(m, false);
            self.load.resize(m, 0.0);
        }
        self.epoch += 1;
        self.links.clear();
        self.active.clear();
        self.rates.clear();
        self.rates.resize(flows.len(), 0.0);

        // Freeze route-less flows at their cap immediately (they consume no
        // shared capacity); every other flow starts active, and its links
        // start at full capacity.
        for (i, f) in flows.iter().enumerate() {
            let f = f.as_ref();
            if f.route.is_empty() {
                self.rates[i] = f.rate_cap_bps.unwrap_or(f64::INFINITY);
                continue;
            }
            self.active.push(i);
            for l in &f.route {
                if self.stamp[l.0] != self.epoch {
                    self.stamp[l.0] = self.epoch;
                    self.links.push(l.0);
                    self.cap[l.0] = network.links[l.0].capacity_bps;
                }
            }
        }

        while !self.active.is_empty() {
            for &l in &self.links {
                self.weight[l] = 0.0;
            }
            for &i in &self.active {
                let f = flows[i].as_ref();
                for l in &f.route {
                    self.weight[l.0] += f.weight;
                }
            }
            for &l in &self.links {
                self.unit[l] = self.cap[l] / self.weight[l];
            }

            // The flow-level share is weight * the least unit on the route;
            // a capped flow may freeze earlier at its cap. Track the smallest
            // unit increment across flows (the first flow wins ties): for
            // link-limited flows that is candidate_rate / weight; for
            // cap-limited flows, cap / weight.
            let mut best: Option<(f64, Freeze)> = None;
            for (k, &i) in self.active.iter().enumerate() {
                let f = flows[i].as_ref();
                let route_unit = f
                    .route
                    .iter()
                    .map(|l| self.unit[l.0])
                    .fold(f64::INFINITY, f64::min);
                let fair_rate = f.weight * route_unit;
                let (candidate_rate, how) = match f.rate_cap_bps {
                    Some(cap) if cap < fair_rate => (cap, Freeze::ByCap(k)),
                    _ => (fair_rate, Freeze::ByLink),
                };
                let unit = candidate_rate / f.weight;
                if best.as_ref().map_or(true, |(u, _)| unit < *u) {
                    best = Some((unit, how));
                }
            }
            // `active` is non-empty, so the first flow always sets `best`.
            let Some((unit, how)) = best else { break };

            match how {
                Freeze::ByCap(k) => {
                    // Freeze exactly the cap-limited flow at its cap, charge
                    // its route, and continue filling the rest.
                    let i = self.active.remove(k);
                    let f = flows[i].as_ref();
                    let cap = f.rate_cap_bps.unwrap_or(0.0);
                    self.rates[i] = cap;
                    for l in &f.route {
                        self.cap[l.0] = (self.cap[l.0] - cap).max(0.0);
                    }
                }
                Freeze::ByLink => {
                    // Give every active flow `weight * unit`, then freeze
                    // those crossing a now-saturated link and charge their
                    // usage. If no link saturated (a degenerate numeric
                    // case), freeze everything at the current fair rate to
                    // guarantee termination.
                    for &l in &self.links {
                        self.usage[l] = 0.0;
                    }
                    for &i in &self.active {
                        let f = flows[i].as_ref();
                        let r = f.weight * unit;
                        self.rates[i] = r;
                        for l in &f.route {
                            self.usage[l.0] += r;
                        }
                    }
                    let mut any_saturated = false;
                    for &i in &self.active {
                        for l in &flows[i].as_ref().route {
                            let s = self.usage[l.0] >= self.cap[l.0] * (1.0 - 1e-9);
                            self.saturated[l.0] = s;
                            any_saturated |= s;
                        }
                    }
                    let Solver {
                        active,
                        cap,
                        saturated,
                        rates,
                        ..
                    } = self;
                    active.retain(|&i| {
                        let route = &flows[i].as_ref().route;
                        let freeze = !any_saturated || route.iter().any(|l| saturated[l.0]);
                        if freeze {
                            for l in route {
                                cap[l.0] = (cap[l.0] - rates[i]).max(0.0);
                            }
                        }
                        !freeze
                    });
                }
            }
        }
    }

    /// Fills `load` with the total rate on each link of the last solve's
    /// routes, summing in input order. A flow counts once per link even if
    /// its route repeats the link.
    fn tally_loads<F: AsRef<FlowSpec>>(&mut self, flows: &[F]) {
        for &l in &self.links {
            self.load[l] = EMPTY_SUM;
        }
        for (f, &r) in flows.iter().zip(&self.rates) {
            let route = &f.as_ref().route;
            for (k, l) in route.iter().enumerate() {
                if !route[..k].contains(l) {
                    self.load[l.0] += r;
                }
            }
        }
    }

    /// The load [`Solver::tally_loads`] recorded for `link`.
    fn link_load(&self, link: LinkId) -> f64 {
        match self.stamp.get(link.0) {
            Some(&s) if s == self.epoch => self.load[link.0],
            _ => EMPTY_SUM,
        }
    }
}

/// An empty sum of rates. `Iterator::sum` over `f64` folds from negative
/// zero, and link loads keep that bit pattern.
const EMPTY_SUM: f64 = -0.0;

/// Outcome of advancing a [`FluidSim`].
#[derive(Debug, Clone, PartialEq)]
pub struct Advance {
    /// The instant the simulation advanced to.
    pub now: SimTime,
    /// Flows that completed during this advance, in completion order.
    pub completed: Vec<FlowId>,
}

/// A flow-level simulator: tracks a mutable set of flows, allocates max-min
/// fair rates, and advances time to flow completions.
pub struct FluidSim {
    network: Network,
    /// Live flows in id order: ids are handed out in increasing order, so
    /// new flows append and lookups binary-search.
    flows: Vec<Flow>,
    solver: Solver,
    next_id: u64,
    now: SimTime,
    rates_valid: bool,
}

impl FluidSim {
    /// Creates a simulator over `network` starting at time zero.
    pub fn new(network: Network) -> Self {
        FluidSim {
            network,
            flows: Vec::new(),
            solver: Solver::default(),
            next_id: 0,
            now: SimTime::ZERO,
            rates_valid: false,
        }
    }

    fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.index(id).map(|k| &self.flows[k])
    }

    fn index(&self, id: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&id, |f| f.id).ok()
    }

    /// Returns the current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the underlying network (to adjust capacities).
    pub fn network_mut(&mut self) -> &mut Network {
        self.rates_valid = false;
        &mut self.network
    }

    /// Read-only access to the network (to inspect capacities).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Changes the fair-share weight of a live flow (e.g. boosting a
    /// deadline-critical transfer). Returns false if the flow is unknown.
    pub fn set_weight(&mut self, id: FlowId, weight: f64) -> bool {
        assert!(
            weight.is_finite() && weight > 0.0,
            "flow weight must be positive, got {weight}"
        );
        let Some(k) = self.index(id) else {
            return false;
        };
        self.flows[k].spec.weight = weight;
        self.rates_valid = false;
        true
    }

    /// Adds a flow and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not finite and positive, the cap is negative
    /// or NaN, or the byte count is NaN: any of these would allocate NaN or
    /// negative rates.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(
            spec.weight.is_finite() && spec.weight > 0.0,
            "flow weight must be positive, got {}",
            spec.weight
        );
        if let Some(cap) = spec.rate_cap_bps {
            assert!(cap >= 0.0, "flow rate cap must be non-negative, got {cap}");
        }
        assert!(!spec.remaining_bytes.is_nan(), "flow bytes must not be NaN");
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.push(Flow {
            id,
            spec,
            rate_bps: 0.0,
        });
        self.rates_valid = false;
        id
    }

    /// Removes a flow before completion (e.g. a migration aborted); returns
    /// the bytes it still had outstanding, or `None` if unknown.
    pub fn remove_flow(&mut self, id: FlowId) -> Option<f64> {
        let flow = self.flows.remove(self.index(id)?);
        self.rates_valid = false;
        Some(flow.spec.remaining_bytes)
    }

    /// Returns the remaining bytes of a flow, if it exists.
    pub fn remaining(&self, id: FlowId) -> Option<f64> {
        self.flow(id).map(|f| f.spec.remaining_bytes)
    }

    /// Returns the route of a flow, if it exists.
    pub fn route(&self, id: FlowId) -> Option<&[LinkId]> {
        self.flow(id).map(|f| f.spec.route.as_slice())
    }

    /// Returns the current allocated rate of a flow in bytes/second, if it
    /// exists. Rates are only meaningful after an [`FluidSim::advance`] or
    /// [`FluidSim::recompute_rates`].
    pub fn rate(&self, id: FlowId) -> Option<f64> {
        self.flow(id).map(|f| f.rate_bps)
    }

    /// Returns the number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Returns the total rate currently allocated across `link` in
    /// bytes/second (recomputing stale rates first). Used for
    /// contention-aware placement: a hot link carries a high load relative
    /// to its capacity.
    pub fn link_load(&mut self, link: LinkId) -> f64 {
        if !self.rates_valid {
            self.recompute_rates();
        }
        self.solver.link_load(link)
    }

    /// Recomputes max-min fair rates for the current flow set.
    pub fn recompute_rates(&mut self) {
        // Each recomputation is one fluid-simulation event (counted for the
        // experiment harness's throughput accounting).
        crate::metrics::add(1);
        self.solver.solve(&self.network, &self.flows);
        for (f, &rate) in self.flows.iter_mut().zip(&self.solver.rates) {
            f.rate_bps = rate;
        }
        self.solver.tally_loads(&self.flows);
        self.rates_valid = true;
    }

    /// Returns the duration until the next flow completes at current rates,
    /// or `None` if no finite-size flow is progressing.
    pub fn time_to_next_completion(&mut self) -> Option<SimDuration> {
        if !self.rates_valid {
            self.recompute_rates();
        }
        let mut best: Option<f64> = None;
        for f in &self.flows {
            if f.spec.remaining_bytes.is_finite() && f.rate_bps > 0.0 {
                let t = f.spec.remaining_bytes / f.rate_bps;
                if best.map_or(true, |b| t < b) {
                    best = Some(t);
                }
            }
        }
        // Round *up* to the microsecond grid (minimum one microsecond):
        // rounding down could return a zero step while bytes remain, and a
        // zero step makes no progress.
        best.map(|t| {
            let micros = (t * MICROS_PER_SEC as f64).ceil();
            if micros >= u64::MAX as f64 {
                SimDuration::MAX
            } else {
                SimDuration::from_micros((micros as u64).max(1))
            }
        })
    }

    /// Advances time by exactly `dt`, transferring bytes at current fair
    /// rates, completing flows that finish within `dt`.
    ///
    /// Rates are recomputed each time a flow completes, so the advance is
    /// exact (piecewise-constant rate integration).
    pub fn advance(&mut self, dt: SimDuration) -> Advance {
        let target = self.now + dt;
        let mut completed = Vec::new();
        loop {
            if !self.rates_valid {
                self.recompute_rates();
            }
            let remaining = target.since(self.now);
            if remaining.is_zero() {
                break;
            }
            let next = self.time_to_next_completion();
            let step = match next {
                Some(t) if t <= remaining => t,
                _ => remaining,
            };
            // A zero-length completion step still completes flows below.
            self.transfer_for(step);
            self.now += step;
            // Harvest completions: a flow whose residue cannot sustain even
            // one microsecond of transfer at its current rate is done (the
            // epsilon absorbs the microsecond-grid rounding above).
            let before = completed.len();
            self.flows.retain(|f| {
                let eps = (f.rate_bps * 1e-6).max(1e-6);
                let done = f.spec.remaining_bytes.is_finite() && f.spec.remaining_bytes <= eps;
                if done {
                    completed.push(f.id);
                }
                !done
            });
            if completed.len() > before {
                self.rates_valid = false;
            } else if step == remaining {
                break;
            } else if step.is_zero() {
                // No completion and no progress possible: avoid spinning.
                break;
            }
        }
        Advance {
            now: self.now,
            completed,
        }
    }

    /// Runs until all finite flows complete or `horizon` is reached.
    pub fn run_until_drained(&mut self, horizon: SimTime) -> Advance {
        let dt = horizon.saturating_since(self.now);
        self.advance(dt)
    }

    /// Advances until every finite flow completes (infinite streams keep
    /// flowing), returning each completion with its instant, in order.
    ///
    /// Returns immediately if no finite flow is making progress.
    pub fn drain_completions(&mut self) -> Vec<(SimTime, FlowId)> {
        let mut out = Vec::new();
        // Each iteration completes at least one flow (the step is rounded
        // up to cover the residue); the guard is a defensive backstop.
        let mut guard = self.flows.len() * 2 + 16;
        while let Some(dt) = self.time_to_next_completion() {
            let adv = self.advance(dt);
            for id in adv.completed {
                out.push((adv.now, id));
            }
            guard -= 1;
            if guard == 0 {
                break;
            }
        }
        out
    }

    fn transfer_for(&mut self, dt: SimDuration) {
        let secs = dt.as_secs_f64();
        for f in &mut self.flows {
            if f.spec.remaining_bytes.is_finite() {
                f.spec.remaining_bytes = (f.spec.remaining_bytes - f.rate_bps * secs).max(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1e6;

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = Network::new();
        let l = net.add_link(100.0 * MB);
        let rates = max_min_rates(&net, &[FlowSpec::new(vec![l], 1.0 * MB)]);
        assert!((rates[0] - 100.0 * MB).abs() < 1.0);
    }

    #[test]
    fn equal_flows_share_equally() {
        let mut net = Network::new();
        let l = net.add_link(90.0 * MB);
        let flows: Vec<FlowSpec> = (0..3).map(|_| FlowSpec::new(vec![l], MB)).collect();
        let rates = max_min_rates(&net, &flows);
        for r in rates {
            assert!((r - 30.0 * MB).abs() < 1.0);
        }
    }

    #[test]
    fn cap_limited_flow_frees_capacity_for_others() {
        let mut net = Network::new();
        let l = net.add_link(100.0 * MB);
        let flows = vec![
            FlowSpec::new(vec![l], MB).with_cap(10.0 * MB),
            FlowSpec::new(vec![l], MB),
        ];
        let rates = max_min_rates(&net, &flows);
        assert!((rates[0] - 10.0 * MB).abs() < 1.0);
        assert!((rates[1] - 90.0 * MB).abs() < 1.0);
    }

    #[test]
    fn weights_bias_shares() {
        let mut net = Network::new();
        let l = net.add_link(90.0 * MB);
        let flows = vec![
            FlowSpec::new(vec![l], MB).with_weight(2.0),
            FlowSpec::new(vec![l], MB).with_weight(1.0),
        ];
        let rates = max_min_rates(&net, &flows);
        assert!((rates[0] - 60.0 * MB).abs() < 1.0);
        assert!((rates[1] - 30.0 * MB).abs() < 1.0);
    }

    #[test]
    fn multi_link_bottleneck_is_respected() {
        // Flow A crosses fast+slow; flow B crosses fast only. A is limited
        // by slow; B then takes the rest of fast.
        let mut net = Network::new();
        let fast = net.add_link(100.0 * MB);
        let slow = net.add_link(20.0 * MB);
        let flows = vec![
            FlowSpec::new(vec![fast, slow], MB),
            FlowSpec::new(vec![fast], MB),
        ];
        let rates = max_min_rates(&net, &flows);
        assert!((rates[0] - 20.0 * MB).abs() < 1.0, "rates={rates:?}");
        assert!((rates[1] - 80.0 * MB).abs() < 1.0, "rates={rates:?}");
    }

    #[test]
    fn routeless_flow_is_cap_only() {
        let net = Network::new();
        let rates = max_min_rates(&net, &[FlowSpec::new(vec![], MB).with_cap(5.0 * MB)]);
        assert_eq!(rates[0], 5.0 * MB);
    }

    #[test]
    fn fluid_sim_completes_in_exact_time() {
        let mut net = Network::new();
        let l = net.add_link(10.0 * MB);
        let mut sim = FluidSim::new(net);
        let f = sim.add_flow(FlowSpec::new(vec![l], 20.0 * MB));
        let adv = sim.advance(SimDuration::from_secs(5));
        assert_eq!(adv.completed, vec![f]);
        // 20 MB at 10 MB/s -> completes at t=2s; sim then idles to 5s.
        assert_eq!(adv.now, SimTime::from_secs(5));
        assert_eq!(sim.active_flows(), 0);
    }

    #[test]
    fn fluid_sim_rate_reallocation_after_completion() {
        // Two equal flows: the first finishes, the second then doubles its
        // rate. 10 MB each at 10 MB/s total: both run at 5 MB/s; after 2s,
        // both have transferred 10... actually both complete at the same
        // time. Use unequal sizes instead.
        let mut net = Network::new();
        let l = net.add_link(10.0 * MB);
        let mut sim = FluidSim::new(net);
        let small = sim.add_flow(FlowSpec::new(vec![l], 5.0 * MB));
        let big = sim.add_flow(FlowSpec::new(vec![l], 15.0 * MB));
        // Phase 1: both at 5 MB/s. small done at t=1s. big has 10 MB left.
        // Phase 2: big at 10 MB/s, done at t=2s.
        let adv = sim.advance(SimDuration::from_secs(10));
        assert_eq!(adv.completed, vec![small, big]);
        assert_eq!(sim.now(), SimTime::from_secs(10));
        // Verify the completion happened at t=2s by re-running with a 2s
        // horizon.
        let mut net = Network::new();
        let l = net.add_link(10.0 * MB);
        let mut sim = FluidSim::new(net);
        sim.add_flow(FlowSpec::new(vec![l], 5.0 * MB));
        let big = sim.add_flow(FlowSpec::new(vec![l], 15.0 * MB));
        let adv = sim.advance(SimDuration::from_secs(2));
        assert!(adv.completed.contains(&big));
    }

    #[test]
    fn infinite_stream_consumes_share_but_never_completes() {
        let mut net = Network::new();
        let l = net.add_link(10.0 * MB);
        let mut sim = FluidSim::new(net);
        let stream = sim.add_flow(FlowSpec::new(vec![l], f64::INFINITY));
        let finite = sim.add_flow(FlowSpec::new(vec![l], 5.0 * MB));
        // Finite flow gets 5 MB/s -> completes at t=1s.
        let adv = sim.advance(SimDuration::from_secs(1));
        assert_eq!(adv.completed, vec![finite]);
        assert_eq!(sim.active_flows(), 1);
        assert!(sim.remaining(stream).unwrap().is_infinite());
        // Stream now gets the whole link.
        sim.recompute_rates();
        assert!((sim.rate(stream).unwrap() - 10.0 * MB).abs() < 1.0);
    }

    #[test]
    fn remove_flow_returns_outstanding_bytes() {
        let mut net = Network::new();
        let l = net.add_link(10.0 * MB);
        let mut sim = FluidSim::new(net);
        let f = sim.add_flow(FlowSpec::new(vec![l], 10.0 * MB));
        sim.advance(SimDuration::from_millis(500));
        let left = sim.remove_flow(f).unwrap();
        assert!((left - 5.0 * MB).abs() < 1.0, "left={left}");
        assert_eq!(sim.remove_flow(f), None);
    }

    #[test]
    fn backup_nic_saturation_shape() {
        // The Figure-7 phenomenon in miniature: per-VM checkpoint streams
        // capped at 3.2 MB/s over a 125 MB/s backup NIC. Up to 39 VMs each
        // stream runs at its cap; at 50 VMs the fair share drops below cap.
        for (vms, expect_capped) in [(10usize, true), (39, true), (50, false)] {
            let mut net = Network::new();
            let nic = net.add_link(125.0 * MB);
            let flows: Vec<FlowSpec> = (0..vms)
                .map(|_| FlowSpec::new(vec![nic], f64::INFINITY).with_cap(3.2 * MB))
                .collect();
            let rates = max_min_rates(&net, &flows);
            let per_vm = rates[0];
            if expect_capped {
                assert!(
                    (per_vm - 3.2 * MB).abs() < 1.0,
                    "{vms} VMs: expected capped rate, got {per_vm}"
                );
            } else {
                assert!(
                    per_vm < 3.2 * MB,
                    "{vms} VMs: expected saturated rate below cap, got {per_vm}"
                );
                assert!((per_vm - 125.0 * MB / vms as f64).abs() < 1.0);
            }
        }
    }

    #[test]
    fn zero_capacity_link_stalls_flows_without_panicking() {
        let mut net = Network::new();
        let dead = net.add_link(0.0);
        let rates = max_min_rates(&net, &[FlowSpec::new(vec![dead], MB)]);
        assert_eq!(rates[0], 0.0);

        let mut net = Network::new();
        let dead = net.add_link(0.0);
        let mut sim = FluidSim::new(net);
        let f = sim.add_flow(FlowSpec::new(vec![dead], MB));
        // A stalled flow makes no progress and never reports a completion.
        assert_eq!(sim.time_to_next_completion(), None);
        let adv = sim.advance(SimDuration::from_secs(10));
        assert!(adv.completed.is_empty());
        assert_eq!(sim.remaining(f), Some(MB));
    }

    #[test]
    fn crashing_a_link_mid_transfer_stalls_then_recovers() {
        let mut net = Network::new();
        let l = net.add_link(10.0 * MB);
        let mut sim = FluidSim::new(net);
        let f = sim.add_flow(FlowSpec::new(vec![l], 10.0 * MB));
        sim.advance(SimDuration::from_millis(500));
        // Server dies with 5 MB outstanding.
        sim.network_mut().set_capacity(l, 0.0);
        let adv = sim.advance(SimDuration::from_secs(5));
        assert!(adv.completed.is_empty());
        assert!((sim.remaining(f).unwrap() - 5.0 * MB).abs() < 1.0);
        // Server returns; the transfer finishes.
        sim.network_mut().set_capacity(l, 10.0 * MB);
        let adv = sim.advance(SimDuration::from_secs(1));
        assert_eq!(adv.completed, vec![f]);
    }

    #[test]
    fn link_load_tracks_allocated_rates() {
        let mut net = Network::new();
        let hot = net.add_link(10.0 * MB);
        let cold = net.add_link(10.0 * MB);
        let mut sim = FluidSim::new(net);
        sim.add_flow(FlowSpec::new(vec![hot], f64::INFINITY).with_cap(3.0 * MB));
        sim.add_flow(FlowSpec::new(vec![hot], f64::INFINITY).with_cap(4.0 * MB));
        assert!((sim.link_load(hot) - 7.0 * MB).abs() < 1.0);
        assert_eq!(sim.link_load(cold), 0.0);
    }

    #[test]
    fn empty_flow_set_is_harmless() {
        let mut sim = FluidSim::new(Network::new());
        assert_eq!(sim.time_to_next_completion(), None);
        let adv = sim.advance(SimDuration::from_secs(1));
        assert!(adv.completed.is_empty());
        assert_eq!(adv.now, SimTime::from_secs(1));
    }

    /// A flow built as a struct literal, bypassing the builder's checks.
    fn literal(weight: f64, cap: Option<f64>, bytes: f64) -> FlowSpec {
        FlowSpec {
            route: vec![LinkId(0)],
            remaining_bytes: bytes,
            rate_cap_bps: cap,
            weight,
        }
    }

    fn one_link_sim() -> FluidSim {
        let mut net = Network::new();
        net.add_link(MB);
        FluidSim::new(net)
    }

    #[test]
    #[should_panic(expected = "flow weight must be positive")]
    fn add_flow_rejects_zero_weight() {
        one_link_sim().add_flow(literal(0.0, None, MB));
    }

    #[test]
    #[should_panic(expected = "flow weight must be positive")]
    fn add_flow_rejects_nan_weight() {
        one_link_sim().add_flow(literal(f64::NAN, None, MB));
    }

    #[test]
    #[should_panic(expected = "flow weight must be positive")]
    fn add_flow_rejects_infinite_weight() {
        one_link_sim().add_flow(literal(f64::INFINITY, None, MB));
    }

    #[test]
    #[should_panic(expected = "flow rate cap must be non-negative")]
    fn add_flow_rejects_negative_cap() {
        one_link_sim().add_flow(literal(1.0, Some(-1.0), MB));
    }

    #[test]
    #[should_panic(expected = "flow rate cap must be non-negative")]
    fn add_flow_rejects_nan_cap() {
        one_link_sim().add_flow(literal(1.0, Some(f64::NAN), MB));
    }

    #[test]
    #[should_panic(expected = "flow bytes must not be NaN")]
    fn add_flow_rejects_nan_bytes() {
        one_link_sim().add_flow(literal(1.0, None, f64::NAN));
    }

    #[test]
    fn link_load_counts_a_repeated_link_once() {
        let mut net = Network::new();
        let l = net.add_link(10.0 * MB);
        let mut sim = FluidSim::new(net);
        sim.add_flow(FlowSpec::new(vec![l, l], f64::INFINITY));
        // The route charges the link twice, so the flow gets half of it,
        // but the load counts that flow once.
        assert_eq!(sim.link_load(l), 5.0 * MB);
    }

    #[test]
    fn recompute_cost_ignores_links_off_live_routes() {
        // Thousands of dead links (revoked hosts' NICs) stay in the network;
        // a solve touches only the links on live routes.
        let mut net = Network::new();
        for _ in 0..5_000 {
            net.add_link(0.0);
        }
        let l = net.add_link(10.0 * MB);
        let mut sim = FluidSim::new(net);
        sim.add_flow(FlowSpec::new(vec![l], f64::INFINITY));
        sim.recompute_rates();
        assert_eq!(sim.solver.links, vec![l.0]);
        assert_eq!(sim.link_load(LinkId(0)).to_bits(), EMPTY_SUM.to_bits());
        assert_eq!(sim.link_load(l), 10.0 * MB);
    }

    #[test]
    fn advance_zero_duration_is_noop() {
        let mut net = Network::new();
        let l = net.add_link(MB);
        let mut sim = FluidSim::new(net);
        sim.add_flow(FlowSpec::new(vec![l], MB));
        let adv = sim.advance(SimDuration::ZERO);
        assert!(adv.completed.is_empty());
        assert_eq!(adv.now, SimTime::ZERO);
    }
}
