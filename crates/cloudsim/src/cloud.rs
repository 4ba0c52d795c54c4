//! The native IaaS platform simulator.
//!
//! [`CloudSim`] is a *passive* state machine: every method takes the
//! current [`SimTime`] explicitly, asynchronous operations return an
//! [`OpId`] plus the instant at which they will be ready, and the driver
//! (SpotCheck's controller simulation) schedules a callback and then calls
//! [`CloudSim::complete_op`]. Price changes likewise are pulled by the
//! driver via [`CloudSim::next_price_change_after`] and pushed back in via
//! [`CloudSim::apply_price_change`], which returns the revocation warnings
//! the platform issues — the 120-second termination notice of paper §3.2.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, PoisonError};

use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::slab::IdMap;
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_spotmarket::archive::TraceCursor;
use spotcheck_spotmarket::market::{MarketId, ZoneName};
use spotcheck_spotmarket::trace::PriceTrace;

use crate::billing::{on_demand_cost, spot_cost, BillingMode};
use crate::error::CloudError;
use crate::faults::{FaultEvent, FaultImpact, FaultPlan};
use crate::ids::{EniId, InstanceId, OpId, PrivateIp, VolumeId};
use crate::instance::{Contract, Instance, InstanceState};
use crate::latency::{CloudOp, LatencyModel};
use crate::ledger::{Fold, Ledger, Slot};
use crate::storage::{AttachState, Eni, SubnetId, Volume, Vpc};
use crate::types::{instance_catalog, InstanceSpec};

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Warning the platform gives before forcibly terminating a revoked
    /// spot instance. EC2: 120 seconds (§3.2).
    pub warning_period: SimDuration,
    /// Billing rules.
    pub billing: BillingMode,
    /// Probability that an on-demand request fails for lack of capacity
    /// (rare in practice; used for failure-injection tests of hot spares).
    pub on_demand_stockout_prob: f64,
    /// RNG seed for latency sampling and stockout draws.
    pub seed: u64,
    /// Fault-injection plan (inert by default).
    pub faults: FaultPlan,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            warning_period: SimDuration::from_secs(120),
            billing: BillingMode::Continuous,
            on_demand_stockout_prob: 0.0,
            seed: 0,
            faults: FaultPlan::none(),
        }
    }
}

/// What a completed asynchronous operation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notification {
    /// The instance booted and is running.
    InstanceStarted {
        /// The instance.
        instance: InstanceId,
    },
    /// A spot instance's boot raced a price spike and was not fulfilled.
    SpotStartFailed {
        /// The instance (now terminated, never billed).
        instance: InstanceId,
    },
    /// The instance crash-stopped under fault injection: no warning was
    /// given, its memory is lost, and its volumes and ENIs were released.
    InstanceCrashed {
        /// The instance.
        instance: InstanceId,
    },
    /// The instance finished terminating.
    InstanceTerminated {
        /// The instance.
        instance: InstanceId,
        /// True if the platform revoked it.
        revoked: bool,
    },
    /// The volume is attached.
    VolumeAttached {
        /// The volume.
        volume: VolumeId,
        /// The instance it attached to.
        instance: InstanceId,
    },
    /// The volume attach raced the instance's termination and was rolled
    /// back; the volume is available again.
    VolumeAttachFailed {
        /// The volume.
        volume: VolumeId,
    },
    /// The volume is detached and available.
    VolumeDetached {
        /// The volume.
        volume: VolumeId,
    },
    /// The interface is attached.
    EniAttached {
        /// The interface.
        eni: EniId,
        /// The instance it attached to.
        instance: InstanceId,
    },
    /// The ENI attach raced the instance's termination and was rolled back.
    EniAttachFailed {
        /// The interface.
        eni: EniId,
    },
    /// The interface is detached and available.
    EniDetached {
        /// The interface.
        eni: EniId,
    },
}

impl Notification {
    /// Stable lowercase name of the notification variant (used in
    /// journals).
    pub fn kind(&self) -> &'static str {
        match self {
            Notification::InstanceStarted { .. } => "instance_started",
            Notification::SpotStartFailed { .. } => "spot_start_failed",
            Notification::InstanceCrashed { .. } => "instance_crashed",
            Notification::InstanceTerminated { .. } => "instance_terminated",
            Notification::VolumeAttached { .. } => "volume_attached",
            Notification::VolumeAttachFailed { .. } => "volume_attach_failed",
            Notification::VolumeDetached { .. } => "volume_detached",
            Notification::EniAttached { .. } => "eni_attached",
            Notification::EniAttachFailed { .. } => "eni_attach_failed",
            Notification::EniDetached { .. } => "eni_detached",
        }
    }
}

/// A spot-revocation warning: the platform will forcibly terminate
/// `instance` at `terminate_at` unless it is relinquished first.
#[derive(Debug, Clone, PartialEq)]
pub struct RevocationWarning {
    /// The doomed instance.
    pub instance: InstanceId,
    /// Its market.
    pub market: MarketId,
    /// Forced-termination deadline (warning time + warning period).
    pub terminate_at: SimTime,
}

#[derive(Debug, Clone)]
enum OpKind {
    StartInstance(InstanceId),
    TerminateInstance(InstanceId),
    AttachVolume(VolumeId, InstanceId),
    DetachVolume(VolumeId),
    AttachEni(EniId, InstanceId),
    DetachEni(EniId),
}

#[derive(Debug, Clone)]
struct PendingOp {
    kind: OpKind,
    ready_at: SimTime,
}

/// One loaded spot market: its price trace plus a [`TraceCursor`] so the
/// hot per-market lookups (`spot_price`, price-change re-arms) walk
/// forward with the simulation clock instead of binary-searching the
/// whole series every call.
#[derive(Debug)]
struct MarketEntry {
    trace: PriceTrace,
    cursor: TraceCursor,
}

/// The simulated native IaaS platform.
pub struct CloudSim {
    config: CloudConfig,
    catalog: BTreeMap<String, InstanceSpec>,
    /// Loaded markets sorted by id, so a market's index is a stable,
    /// allocation-free handle (see `CloudSim::market_index_of`).
    markets: Vec<MarketEntry>,
    instances: IdMap<InstanceId, Instance>,
    /// Instances currently in `Running` state, in id order. Terminated
    /// instances stay in `instances` forever (billing history), so fault
    /// and revocation paths index the live subset instead of scanning.
    running: BTreeSet<InstanceId>,
    /// Running spot instances per market, in id order — the candidate set
    /// a price change can revoke.
    spot_running: BTreeMap<MarketId, BTreeSet<InstanceId>>,
    volumes: BTreeMap<VolumeId, Volume>,
    enis: BTreeMap<EniId, Eni>,
    vpc: Vpc,
    ops: BTreeMap<OpId, PendingOp>,
    latency: LatencyModel,
    rng: SimRng,
    /// Dedicated stream for transient-error draws, so enabling fault
    /// injection never perturbs latency or stockout sampling.
    fault_rng: SimRng,
    /// Index of the next undelivered entry in `config.faults.schedule`.
    fault_cursor: usize,
    /// Active control-plane latency spike: `(until, factor)`.
    latency_spike: Option<(SimTime, f64)>,
    next_instance: u64,
    next_volume: u64,
    next_eni: u64,
    next_op: u64,
    /// Billing cache behind [`CloudSim::native_cost`]: derived state, kept
    /// out of [`CloudSim::state_digest`] (see `ledger.rs`).
    ledger: Mutex<Ledger>,
}

impl CloudSim {
    /// Creates a platform loaded with the given market price traces.
    pub fn new(traces: Vec<PriceTrace>, config: CloudConfig) -> Self {
        let catalog = instance_catalog()
            .into_iter()
            .map(|s| (s.type_name.as_str().to_string(), s))
            .collect();
        let rng = SimRng::seed(config.seed).fork_named("cloudsim");
        let fault_rng = SimRng::seed(config.seed).fork_named("faults");
        // Through a map so a market loaded twice keeps its last trace.
        let by_id: BTreeMap<MarketId, PriceTrace> =
            traces.into_iter().map(|t| (t.market.clone(), t)).collect();
        CloudSim {
            config,
            catalog,
            markets: by_id
                .into_values()
                .map(|trace| MarketEntry {
                    trace,
                    cursor: TraceCursor::new(),
                })
                .collect(),
            instances: IdMap::new(),
            running: BTreeSet::new(),
            spot_running: BTreeMap::new(),
            volumes: BTreeMap::new(),
            enis: BTreeMap::new(),
            vpc: Vpc::new(),
            ops: BTreeMap::new(),
            latency: LatencyModel::table1(),
            rng,
            fault_rng,
            fault_cursor: 0,
            latency_spike: None,
            next_instance: 0,
            next_volume: 0,
            next_eni: 0,
            next_op: 0,
            ledger: Mutex::default(),
        }
    }

    /// Returns the platform configuration.
    pub fn config(&self) -> &CloudConfig {
        &self.config
    }

    /// Returns the instance-type spec, if the type exists.
    pub fn spec(&self, type_name: &str) -> Option<&InstanceSpec> {
        self.catalog.get(type_name)
    }

    /// Returns the loaded spot markets, in id order.
    pub fn markets(&self) -> impl Iterator<Item = &MarketId> {
        self.markets.iter().map(|e| &e.trace.market)
    }

    /// Index of the market a spot instance buys from, found without
    /// building a `MarketId` (`MarketId` orders by type, then zone).
    fn market_index_of(&self, inst: &Instance) -> Option<usize> {
        if !inst.contract.is_spot() {
            return None;
        }
        self.markets
            .binary_search_by(|e| {
                let m = &e.trace.market;
                m.type_name
                    .cmp(&inst.spec.type_name)
                    .then_with(|| m.zone.cmp(&inst.zone))
            })
            .ok()
    }

    fn market_entry(&self, market: &MarketId) -> Option<&MarketEntry> {
        let i = self
            .markets
            .binary_search_by(|e| e.trace.market.cmp(market))
            .ok()?;
        Some(&self.markets[i])
    }

    /// Returns the price trace of a market, if loaded.
    pub fn market_trace(&self, market: &MarketId) -> Option<&PriceTrace> {
        self.market_entry(market).map(|e| &e.trace)
    }

    /// Returns the current spot price in a market (cursor-accelerated;
    /// identical to `trace.price_at(now)`).
    pub fn spot_price(&self, market: &MarketId, now: SimTime) -> Option<f64> {
        let e = self.market_entry(market)?;
        e.cursor.price_at(&e.trace, now)
    }

    /// Returns the first price change in `market` strictly after `now`
    /// (cursor-accelerated; identical to
    /// `trace.prices.next_change_after(now)`).
    pub fn next_change_after(&self, market: &MarketId, now: SimTime) -> Option<(SimTime, f64)> {
        let e = self.market_entry(market)?;
        e.cursor.next_change_after(&e.trace, now)
    }

    /// Returns the earliest price change strictly after `now` across all
    /// markets (for the driver's event scheduling).
    pub fn next_price_change_after(&self, now: SimTime) -> Option<(SimTime, MarketId)> {
        self.markets
            .iter()
            .filter_map(|e| {
                e.cursor
                    .next_change_after(&e.trace, now)
                    .map(|(at, _)| (at, &e.trace.market))
            })
            .min_by_key(|(at, _)| *at)
            .map(|(at, id)| (at, id.clone()))
    }

    /// Syncs the running-instance indexes with `id`'s current state. Call
    /// after any mutation of an instance's `state`.
    fn note_state(&mut self, id: InstanceId) {
        let (is_running, market) = self
            .instances
            .get(&id)
            .map(|i| (matches!(i.state, InstanceState::Running), i.market()))
            .unwrap_or((false, None));
        if is_running {
            self.running.insert(id);
        } else {
            self.running.remove(&id);
        }
        if let Some(m) = market {
            let set = self.spot_running.entry(m).or_default();
            if is_running {
                set.insert(id);
            } else {
                set.remove(&id);
            }
        }
    }

    /// Returns a shared view of an instance.
    pub fn instance(&self, id: InstanceId) -> Result<&Instance, CloudError> {
        self.instances
            .get(&id)
            .ok_or(CloudError::UnknownInstance(id))
    }

    /// Returns a shared view of a volume.
    pub fn volume(&self, id: VolumeId) -> Result<&Volume, CloudError> {
        self.volumes.get(&id).ok_or(CloudError::UnknownVolume(id))
    }

    /// Returns a shared view of an ENI.
    pub fn eni(&self, id: EniId) -> Result<&Eni, CloudError> {
        self.enis.get(&id).ok_or(CloudError::UnknownEni(id))
    }

    fn fresh_op(&mut self, kind: OpKind, op: CloudOp, now: SimTime) -> (OpId, SimTime) {
        let id = OpId(self.next_op);
        self.next_op += 1;
        let mut delay = self.latency.sample(op, &mut self.rng);
        if let Some((until, factor)) = self.latency_spike {
            if now < until {
                delay = delay.mul_f64(factor);
            } else {
                self.latency_spike = None;
            }
        }
        let ready_at = now + delay;
        self.ops.insert(id, PendingOp { kind, ready_at });
        (id, ready_at)
    }

    /// Draws the transient-API-error dice for one control-plane call.
    ///
    /// Gated on the probability so fault-free configurations consume no
    /// randomness and replay identically.
    fn transient_gate(&mut self) -> Result<(), CloudError> {
        if self.config.faults.transient_error_prob > 0.0
            && self.fault_rng.next_f64() < self.config.faults.transient_error_prob
        {
            return Err(CloudError::ApiUnavailable);
        }
        Ok(())
    }

    /// Returns the next scheduled fault not yet handed to the driver, and
    /// advances the cursor past it.
    ///
    /// The driver arms the first fault at bootstrap and re-arms the next
    /// one each time a fault fires — the same pull model as
    /// [`CloudSim::next_price_change_after`].
    pub fn next_scheduled_fault(&mut self) -> Option<(SimTime, FaultEvent)> {
        let entry = self.config.faults.schedule.get(self.fault_cursor).cloned();
        if entry.is_some() {
            self.fault_cursor += 1;
        }
        entry
    }

    /// Applies a scheduled fault at `now` and reports its impact.
    ///
    /// Crash-stops terminate the instance immediately (no warning, memory
    /// lost, billing stops, volumes and ENIs released). Storms issue
    /// revocation warnings for every running spot instance in the market.
    /// Latency spikes affect subsequent operation latencies. Backup-server
    /// failures are relayed for the controller to apply to its pool.
    pub fn apply_fault(&mut self, event: &FaultEvent, now: SimTime) -> FaultImpact {
        let mut impact = FaultImpact::default();
        match event {
            FaultEvent::InstanceCrash { pick } => {
                // `self.running` holds exactly the Running instances, in id
                // order — the same victim list the old full scan produced.
                let running: Vec<InstanceId> = self.running.iter().copied().collect();
                if running.is_empty() {
                    return impact;
                }
                let victim = running[(pick % running.len() as u64) as usize];
                let Some(inst) = self.instances.get_mut(&victim) else {
                    return impact;
                };
                inst.state = InstanceState::Terminated;
                inst.terminated_at = Some(now);
                inst.revoked = true;
                let vols = std::mem::take(&mut inst.volumes);
                let enis = std::mem::take(&mut inst.enis);
                for v in vols {
                    if let Some(vol) = self.volumes.get_mut(&v) {
                        vol.state = AttachState::Available;
                    }
                }
                for e in enis {
                    if let Some(eni) = self.enis.get_mut(&e) {
                        eni.state = AttachState::Available;
                    }
                }
                self.note_state(victim);
                impact
                    .notifications
                    .push(Notification::InstanceCrashed { instance: victim });
            }
            FaultEvent::BackupFailure { pick } => {
                impact.backup_pick = Some(*pick);
            }
            FaultEvent::RevocationStorm { market } => {
                let terminate_at = now + self.config.warning_period;
                // Same id-order walk as the old full scan, restricted to the
                // market's running spot instances via the index. The full
                // predicate is re-checked against the instance itself.
                let ids: Vec<InstanceId> = self
                    .spot_running
                    .get(market)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default();
                for id in ids {
                    let Some(inst) = self.instances.get_mut(&id) else {
                        continue;
                    };
                    if inst.in_market(market) && matches!(inst.state, InstanceState::Running) {
                        inst.state = InstanceState::RevocationPending { terminate_at };
                        impact.warnings.push(RevocationWarning {
                            instance: id,
                            market: market.clone(),
                            terminate_at,
                        });
                        self.note_state(id);
                    }
                }
            }
            FaultEvent::LatencySpike { factor, duration } => {
                self.latency_spike = Some((now + *duration, *factor));
            }
        }
        impact
    }

    /// Requests a spot instance at `bid` $/hr.
    ///
    /// Returns the new instance id plus the boot operation and its ready
    /// time.
    ///
    /// # Errors
    ///
    /// Fails if the type or market is unknown or the bid is below the
    /// current spot price.
    pub fn request_spot(
        &mut self,
        type_name: &str,
        zone: &ZoneName,
        bid: f64,
        now: SimTime,
    ) -> Result<(InstanceId, OpId, SimTime), CloudError> {
        self.transient_gate()?;
        let spec = self
            .catalog
            .get(type_name)
            .ok_or_else(|| CloudError::UnknownType(type_name.to_string()))?
            .clone();
        let market = MarketId::new(type_name, zone.as_str());
        let price = self
            .spot_price(&market, now)
            .ok_or_else(|| CloudError::UnknownMarket(market.to_string()))?;
        if price > bid {
            return Err(CloudError::BidBelowPrice { bid, price });
        }
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        self.instances.insert(
            id,
            Instance {
                id,
                spec,
                zone: zone.clone(),
                contract: Contract::Spot { bid },
                state: InstanceState::Pending,
                requested_at: now,
                started_at: None,
                terminated_at: None,
                revoked: false,
                enis: Vec::new(),
                volumes: Vec::new(),
            },
        );
        let (op, ready) = self.fresh_op(OpKind::StartInstance(id), CloudOp::StartSpot, now);
        Ok((id, op, ready))
    }

    /// Requests an on-demand instance.
    ///
    /// # Errors
    ///
    /// Fails if the type is unknown or (rarely, per configuration) capacity
    /// is unavailable.
    pub fn request_on_demand(
        &mut self,
        type_name: &str,
        zone: &ZoneName,
        now: SimTime,
    ) -> Result<(InstanceId, OpId, SimTime), CloudError> {
        self.transient_gate()?;
        let spec = self
            .catalog
            .get(type_name)
            .ok_or_else(|| CloudError::UnknownType(type_name.to_string()))?
            .clone();
        if self.config.on_demand_stockout_prob > 0.0
            && self.rng.next_f64() < self.config.on_demand_stockout_prob
        {
            return Err(CloudError::CapacityUnavailable);
        }
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        self.instances.insert(
            id,
            Instance {
                id,
                spec,
                zone: zone.clone(),
                contract: Contract::OnDemand,
                state: InstanceState::Pending,
                requested_at: now,
                started_at: None,
                terminated_at: None,
                revoked: false,
                enis: Vec::new(),
                volumes: Vec::new(),
            },
        );
        let (op, ready) = self.fresh_op(OpKind::StartInstance(id), CloudOp::StartOnDemand, now);
        Ok((id, op, ready))
    }

    /// User-initiated termination. Billing stops now; the instance reports
    /// terminated when the operation completes.
    ///
    /// # Errors
    ///
    /// Fails if the instance is unknown or not in a terminable state.
    pub fn terminate(
        &mut self,
        id: InstanceId,
        now: SimTime,
    ) -> Result<(OpId, SimTime), CloudError> {
        self.transient_gate()?;
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(CloudError::UnknownInstance(id))?;
        if !inst.is_usable() && !matches!(inst.state, InstanceState::Pending) {
            return Err(CloudError::InvalidState(format!(
                "instance {id} cannot be terminated from {:?}",
                inst.state
            )));
        }
        inst.state = InstanceState::ShuttingDown;
        inst.terminated_at = Some(now);
        self.note_state(id);
        let (op, ready) = self.fresh_op(OpKind::TerminateInstance(id), CloudOp::Terminate, now);
        Ok((op, ready))
    }

    /// Applies a price change in `market` at `now`: every running spot
    /// instance whose bid is now below the price receives a revocation
    /// warning (EC2's two-minute termination notice).
    ///
    /// The driver must call [`CloudSim::force_terminate`] for each returned
    /// warning at its `terminate_at` (unless the instance was relinquished
    /// earlier).
    pub fn apply_price_change(&mut self, market: &MarketId, now: SimTime) -> Vec<RevocationWarning> {
        let Some(price) = self.spot_price(market, now) else {
            return Vec::new();
        };
        let terminate_at = now + self.config.warning_period;
        let mut warnings = Vec::new();
        // Walk only the market's running spot instances (id order, matching
        // the old full scan) instead of every instance ever created — price
        // ticks are the hottest cloud-side path in a long fleet run.
        let ids: Vec<InstanceId> = self
            .spot_running
            .get(market)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for id in ids {
            let Some(inst) = self.instances.get_mut(&id) else {
                continue;
            };
            if inst.in_market(market)
                && matches!(inst.state, InstanceState::Running)
                && inst.contract.bid().is_some_and(|bid| bid < price)
            {
                inst.state = InstanceState::RevocationPending { terminate_at };
                warnings.push(RevocationWarning {
                    instance: id,
                    market: market.clone(),
                    terminate_at,
                });
                self.note_state(id);
            }
        }
        warnings
    }

    /// Forcibly terminates a revoked instance at its warning deadline.
    /// Attached volumes and ENIs are released back to `Available`.
    ///
    /// Returns `Ok(false)` without effect if the instance was already
    /// relinquished or terminated (the race is benign); `Ok(true)` if the
    /// platform reclaimed it here.
    pub fn force_terminate(&mut self, id: InstanceId, now: SimTime) -> Result<bool, CloudError> {
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(CloudError::UnknownInstance(id))?;
        match inst.state {
            InstanceState::RevocationPending { .. } => {
                inst.state = InstanceState::Terminated;
                inst.terminated_at = Some(now);
                inst.revoked = true;
                let vols = std::mem::take(&mut inst.volumes);
                let enis = std::mem::take(&mut inst.enis);
                for v in vols {
                    if let Some(vol) = self.volumes.get_mut(&v) {
                        vol.state = AttachState::Available;
                    }
                }
                for e in enis {
                    if let Some(eni) = self.enis.get_mut(&e) {
                        eni.state = AttachState::Available;
                    }
                }
                self.note_state(id);
                Ok(true)
            }
            InstanceState::ShuttingDown | InstanceState::Terminated => Ok(false),
            _ => Err(CloudError::InvalidState(format!(
                "force_terminate on instance {id} in {:?}",
                inst.state
            ))),
        }
    }

    /// Creates an EBS volume (control-plane create is effectively instant
    /// relative to Table 1 scales).
    pub fn create_volume(&mut self, size_gib: f64) -> VolumeId {
        let id = VolumeId(self.next_volume);
        self.next_volume += 1;
        self.volumes.insert(
            id,
            Volume {
                id,
                size_gib,
                state: AttachState::Available,
            },
        );
        id
    }

    /// Begins attaching a volume to an instance.
    ///
    /// # Errors
    ///
    /// Fails if either id is unknown, the volume is not available, or the
    /// instance is not usable.
    pub fn attach_volume(
        &mut self,
        volume: VolumeId,
        instance: InstanceId,
        now: SimTime,
    ) -> Result<(OpId, SimTime), CloudError> {
        self.transient_gate()?;
        let inst = self
            .instances
            .get(&instance)
            .ok_or(CloudError::UnknownInstance(instance))?;
        if !inst.is_usable() {
            return Err(CloudError::InvalidState(format!(
                "attach_volume: instance {instance} is {:?}",
                inst.state
            )));
        }
        let vol = self
            .volumes
            .get_mut(&volume)
            .ok_or(CloudError::UnknownVolume(volume))?;
        if vol.state != AttachState::Available {
            return Err(CloudError::InvalidState(format!(
                "attach_volume: volume {volume} is {:?}",
                vol.state
            )));
        }
        vol.state = AttachState::Attaching(instance);
        Ok(self.fresh_op(OpKind::AttachVolume(volume, instance), CloudOp::AttachEbs, now))
    }

    /// Begins detaching a volume from its instance.
    ///
    /// # Errors
    ///
    /// Fails if the volume is unknown or not attached.
    pub fn detach_volume(
        &mut self,
        volume: VolumeId,
        now: SimTime,
    ) -> Result<(OpId, SimTime), CloudError> {
        self.transient_gate()?;
        let vol = self
            .volumes
            .get_mut(&volume)
            .ok_or(CloudError::UnknownVolume(volume))?;
        let AttachState::Attached(inst) = vol.state else {
            return Err(CloudError::InvalidState(format!(
                "detach_volume: volume {volume} is {:?}",
                vol.state
            )));
        };
        vol.state = AttachState::Detaching(inst);
        Ok(self.fresh_op(OpKind::DetachVolume(volume), CloudOp::DetachEbs, now))
    }

    /// Creates an ENI, optionally with a private IP already assigned.
    pub fn create_eni(&mut self, ip: Option<PrivateIp>) -> EniId {
        let id = EniId(self.next_eni);
        self.next_eni += 1;
        self.enis.insert(
            id,
            Eni {
                id,
                ip,
                state: AttachState::Available,
            },
        );
        id
    }

    /// Begins attaching an ENI to an instance.
    ///
    /// # Errors
    ///
    /// Fails if either id is unknown, the ENI is busy, or the instance is
    /// not usable.
    pub fn attach_eni(
        &mut self,
        eni: EniId,
        instance: InstanceId,
        now: SimTime,
    ) -> Result<(OpId, SimTime), CloudError> {
        self.transient_gate()?;
        let inst = self
            .instances
            .get(&instance)
            .ok_or(CloudError::UnknownInstance(instance))?;
        if !inst.is_usable() {
            return Err(CloudError::InvalidState(format!(
                "attach_eni: instance {instance} is {:?}",
                inst.state
            )));
        }
        let e = self.enis.get_mut(&eni).ok_or(CloudError::UnknownEni(eni))?;
        if e.state != AttachState::Available {
            return Err(CloudError::InvalidState(format!(
                "attach_eni: ENI {eni} is {:?}",
                e.state
            )));
        }
        e.state = AttachState::Attaching(instance);
        Ok(self.fresh_op(OpKind::AttachEni(eni, instance), CloudOp::AttachNic, now))
    }

    /// Begins detaching an ENI from its instance.
    ///
    /// # Errors
    ///
    /// Fails if the ENI is unknown or not attached.
    pub fn detach_eni(&mut self, eni: EniId, now: SimTime) -> Result<(OpId, SimTime), CloudError> {
        self.transient_gate()?;
        let e = self.enis.get_mut(&eni).ok_or(CloudError::UnknownEni(eni))?;
        let AttachState::Attached(inst) = e.state else {
            return Err(CloudError::InvalidState(format!(
                "detach_eni: ENI {eni} is {:?}",
                e.state
            )));
        };
        e.state = AttachState::Detaching(inst);
        Ok(self.fresh_op(OpKind::DetachEni(eni), CloudOp::DetachNic, now))
    }

    /// Assigns a private IP to an available or attached ENI (a fast VPC
    /// control-plane call, modeled as instant).
    ///
    /// # Errors
    ///
    /// Fails if the ENI is unknown.
    pub fn assign_ip(&mut self, eni: EniId, ip: PrivateIp) -> Result<(), CloudError> {
        let e = self.enis.get_mut(&eni).ok_or(CloudError::UnknownEni(eni))?;
        e.ip = Some(ip);
        Ok(())
    }

    /// Removes the private IP from an ENI.
    ///
    /// # Errors
    ///
    /// Fails if the ENI is unknown.
    pub fn unassign_ip(&mut self, eni: EniId) -> Result<Option<PrivateIp>, CloudError> {
        let e = self.enis.get_mut(&eni).ok_or(CloudError::UnknownEni(eni))?;
        Ok(e.ip.take())
    }

    /// Creates a customer subnet in the derivative cloud's VPC.
    pub fn create_subnet(&mut self) -> SubnetId {
        self.vpc.create_subnet()
    }

    /// Allocates a private IP in a subnet.
    pub fn allocate_ip(&mut self, subnet: SubnetId) -> PrivateIp {
        self.vpc.allocate_ip(subnet)
    }

    /// Completes a pending operation at `now` and applies its effect.
    ///
    /// # Errors
    ///
    /// Fails if the op is unknown/duplicated or `now` precedes the op's
    /// ready time.
    pub fn complete_op(&mut self, op: OpId, now: SimTime) -> Result<Notification, CloudError> {
        let pending = self.ops.remove(&op).ok_or(CloudError::UnknownOp(op))?;
        if now < pending.ready_at {
            // Put it back; completing early is a driver bug.
            let ready_at = pending.ready_at;
            self.ops.insert(op, pending);
            return Err(CloudError::InvalidState(format!(
                "op {op} completed at {now} before ready time {ready_at}"
            )));
        }
        match pending.kind {
            OpKind::StartInstance(id) => {
                let market_price = {
                    let inst = self.instances.get(&id).ok_or(CloudError::UnknownInstance(id))?;
                    self.market_index_of(inst).and_then(|i| {
                        let e = &self.markets[i];
                        e.cursor.price_at(&e.trace, now)
                    })
                };
                let inst = self
                    .instances
                    .get_mut(&id)
                    .ok_or(CloudError::UnknownInstance(id))?;
                if !matches!(inst.state, InstanceState::Pending) {
                    return Err(CloudError::InvalidState(format!(
                        "start completion for instance {id} in {:?}",
                        inst.state
                    )));
                }
                // A spot boot races the market: if the price rose above the
                // bid during boot, the request is not fulfilled.
                if let (Contract::Spot { bid }, Some(price)) = (inst.contract, market_price) {
                    if price > bid {
                        inst.state = InstanceState::Terminated;
                        inst.terminated_at = Some(now);
                        inst.revoked = true;
                        return Ok(Notification::SpotStartFailed { instance: id });
                    }
                }
                inst.state = InstanceState::Running;
                inst.started_at = Some(now);
                self.note_state(id);
                Ok(Notification::InstanceStarted { instance: id })
            }
            OpKind::TerminateInstance(id) => {
                let inst = self
                    .instances
                    .get_mut(&id)
                    .ok_or(CloudError::UnknownInstance(id))?;
                let revoked = inst.revoked;
                inst.state = InstanceState::Terminated;
                let vols = std::mem::take(&mut inst.volumes);
                let enis = std::mem::take(&mut inst.enis);
                for v in vols {
                    if let Some(vol) = self.volumes.get_mut(&v) {
                        vol.state = AttachState::Available;
                    }
                }
                for e in enis {
                    if let Some(eni) = self.enis.get_mut(&e) {
                        eni.state = AttachState::Available;
                    }
                }
                self.note_state(id);
                Ok(Notification::InstanceTerminated {
                    instance: id,
                    revoked,
                })
            }
            OpKind::AttachVolume(vid, iid) => {
                let vol = self
                    .volumes
                    .get_mut(&vid)
                    .ok_or(CloudError::UnknownVolume(vid))?;
                match self.instances.get_mut(&iid) {
                    Some(inst) if inst.is_usable() => {
                        vol.state = AttachState::Attached(iid);
                        inst.volumes.push(vid);
                        Ok(Notification::VolumeAttached {
                            volume: vid,
                            instance: iid,
                        })
                    }
                    _ => {
                        vol.state = AttachState::Available;
                        Ok(Notification::VolumeAttachFailed { volume: vid })
                    }
                }
            }
            OpKind::DetachVolume(vid) => {
                let vol = self
                    .volumes
                    .get_mut(&vid)
                    .ok_or(CloudError::UnknownVolume(vid))?;
                if let AttachState::Detaching(iid) = vol.state {
                    if let Some(inst) = self.instances.get_mut(&iid) {
                        inst.volumes.retain(|v| *v != vid);
                    }
                }
                vol.state = AttachState::Available;
                Ok(Notification::VolumeDetached { volume: vid })
            }
            OpKind::AttachEni(eid, iid) => {
                let eni = self.enis.get_mut(&eid).ok_or(CloudError::UnknownEni(eid))?;
                match self.instances.get_mut(&iid) {
                    Some(inst) if inst.is_usable() => {
                        eni.state = AttachState::Attached(iid);
                        inst.enis.push(eid);
                        Ok(Notification::EniAttached {
                            eni: eid,
                            instance: iid,
                        })
                    }
                    _ => {
                        eni.state = AttachState::Available;
                        Ok(Notification::EniAttachFailed { eni: eid })
                    }
                }
            }
            OpKind::DetachEni(eid) => {
                let eni = self.enis.get_mut(&eid).ok_or(CloudError::UnknownEni(eid))?;
                if let AttachState::Detaching(iid) = eni.state {
                    if let Some(inst) = self.instances.get_mut(&iid) {
                        inst.enis.retain(|e| *e != eid);
                    }
                }
                eni.state = AttachState::Available;
                Ok(Notification::EniDetached { eni: eid })
            }
        }
    }

    /// Computes the accrued cost of an instance from its start through
    /// `until` (or its termination, whichever is earlier).
    ///
    /// Instances that never started cost nothing.
    ///
    /// # Errors
    ///
    /// Fails if the instance (or its spot market trace) is unknown.
    pub fn instance_cost(&self, id: InstanceId, until: SimTime) -> Result<f64, CloudError> {
        self.cost_of(self.instance(id)?, until)
    }

    fn cost_of(&self, inst: &Instance, until: SimTime) -> Result<f64, CloudError> {
        let Some(start) = inst.started_at else {
            return Ok(0.0);
        };
        let end = inst.terminated_at.unwrap_or(until).min(until);
        if end <= start {
            return Ok(0.0);
        }
        match inst.contract {
            Contract::OnDemand => Ok(on_demand_cost(
                inst.spec.on_demand_price,
                start,
                end,
                self.config.billing,
            )),
            Contract::Spot { bid } => {
                let entry = self
                    .market_index_of(inst)
                    .map(|i| &self.markets[i])
                    .ok_or_else(|| {
                        CloudError::UnknownMarket(format!("{}@{}", inst.spec.type_name, inst.zone))
                    })?;
                Ok(spot_cost(
                    &entry.trace,
                    start,
                    end,
                    bid,
                    inst.revoked,
                    self.config.billing,
                ))
            }
        }
    }

    /// The accrued cost of every instance ever created, from its start
    /// through `until` (or its termination), summed in id order: the left
    /// fold of [`CloudSim::instance_cost`] over [`CloudSim::instances`],
    /// with an unknown spot market billed 0.
    ///
    /// Served through the billing ledger (`ledger.rs`): after the first
    /// report, a report costs the price changes since the previous one
    /// plus one slot read per instance, and its result is bit-identical
    /// to the from-scratch fold.
    pub fn native_cost(&self, until: SimTime) -> f64 {
        // A poisoned ledger is still sound: every slot is written whole,
        // and each slot is correct for every report it is used for.
        let mut ledger = self.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        let mut total = 0.0;
        for inst in self.instances.values() {
            total += self.ledger_cost(ledger.slot(inst.id.0), inst, until);
        }
        total
    }

    /// One instance's cost at `until` through its ledger slot.
    fn ledger_cost(&self, slot: &mut Slot, inst: &Instance, until: SimTime) -> f64 {
        let settled = inst.is_terminated() && inst.terminated_at.is_some_and(|t| t <= until);
        // The billed window of a started Continuous-mode spot instance.
        let window = match (inst.started_at, inst.contract, self.config.billing) {
            (Some(start), Contract::Spot { bid }, BillingMode::Continuous) => {
                let end = inst.terminated_at.unwrap_or(until).min(until);
                (end > start).then_some((bid, start, end))
            }
            _ => None,
        };
        let fold = match (*slot, window) {
            (Slot::Final(cost), _) if settled => return cost,
            (Slot::Fold(f), Some(w)) if f.reaches(w.2) => Some((f, w)),
            (Slot::Scratch, Some(w)) => self
                .market_index_of(inst)
                .and_then(|i| Fold::new(i as u32, self.markets[i].trace.prices.points(), w.1))
                .map(|f| (f, w)),
            // Anything else, including a report before a memo's
            // termination or a fold's cursor, is computed from scratch
            // and leaves the slot as it is.
            _ => None,
        };
        let cost = match fold {
            Some((mut f, (bid, start, end))) => {
                let points = self.markets[f.market as usize].trace.prices.points();
                let cost = f.cost(points, bid, start, end);
                *slot = Slot::Fold(f);
                cost
            }
            None => self.cost_of(inst, until).unwrap_or(0.0),
        };
        if settled {
            *slot = Slot::Final(cost);
        }
        cost
    }

    /// Iterates over all instances.
    pub fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.instances.values()
    }

    /// A 64-bit digest of the platform's dynamic state (instances, pending
    /// operations, attachments, fault cursor, RNG streams).
    ///
    /// Two platforms that processed the same call sequence digest
    /// identically; the engine folds this into its snapshot signature so a
    /// restore that diverged anywhere in the platform is rejected rather
    /// than silently trusted.
    pub fn state_digest(&self) -> u64 {
        let mut d = spotcheck_simcore::digest::Digest64::new();
        d.write_usize(self.instances.len());
        for inst in self.instances.values() {
            d.write_u64(inst.id.0);
            d.write_str(&format!("{:?}", inst.state));
            d.write_bool(inst.revoked);
            d.write_u64(inst.started_at.map(|t| t.as_micros()).unwrap_or(u64::MAX));
            d.write_u64(inst.terminated_at.map(|t| t.as_micros()).unwrap_or(u64::MAX));
            d.write_usize(inst.enis.len());
            d.write_usize(inst.volumes.len());
        }
        d.write_usize(self.running.len());
        for (m, set) in &self.spot_running {
            d.write_str(&m.to_string());
            d.write_usize(set.len());
        }
        d.write_usize(self.volumes.len());
        d.write_usize(self.enis.len());
        d.write_usize(self.ops.len());
        for (op, pending) in &self.ops {
            d.write_u64(op.0);
            d.write_u64(pending.ready_at.as_micros());
        }
        d.write_usize(self.fault_cursor);
        for w in self.rng.state_words() {
            d.write_u64(w);
        }
        for w in self.fault_rng.state_words() {
            d.write_u64(w);
        }
        d.write_u64(self.next_instance);
        d.write_u64(self.next_volume);
        d.write_u64(self.next_eni);
        d.write_u64(self.next_op);
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcheck_simcore::series::StepSeries;

    fn zone() -> ZoneName {
        ZoneName::new("us-east-1a")
    }

    /// A trace with a spike in [1000, 2000) seconds.
    fn spiky_trace() -> PriceTrace {
        let s = StepSeries::from_points(vec![
            (SimTime::ZERO, 0.02),
            (SimTime::from_secs(1_000), 0.50),
            (SimTime::from_secs(2_000), 0.02),
        ]);
        PriceTrace::new(MarketId::new("m3.medium", "us-east-1a"), 0.07, s)
    }

    fn cloud() -> CloudSim {
        CloudSim::new(vec![spiky_trace()], CloudConfig::default())
    }

    fn boot_spot(cloud: &mut CloudSim, bid: f64, now: SimTime) -> InstanceId {
        let (id, op, ready) = cloud
            .request_spot("m3.medium", &zone(), bid, now)
            .expect("spot request");
        let n = cloud.complete_op(op, ready).expect("boot completes");
        assert_eq!(n, Notification::InstanceStarted { instance: id });
        id
    }

    #[test]
    fn spot_request_rejected_when_bid_below_price() {
        let mut c = cloud();
        let err = c
            .request_spot("m3.medium", &zone(), 0.01, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, CloudError::BidBelowPrice { .. }));
        // During the spike, an od-level bid is also rejected.
        let err = c
            .request_spot("m3.medium", &zone(), 0.07, SimTime::from_secs(1_500))
            .unwrap_err();
        assert!(matches!(err, CloudError::BidBelowPrice { .. }));
    }

    #[test]
    fn spot_boot_and_revocation_flow() {
        let mut c = cloud();
        let id = boot_spot(&mut c, 0.07, SimTime::ZERO);
        assert!(c.instance(id).unwrap().is_usable());

        // The price spikes above the bid at t=1000s.
        let market = MarketId::new("m3.medium", "us-east-1a");
        let warnings = c.apply_price_change(&market, SimTime::from_secs(1_000));
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].instance, id);
        assert_eq!(
            warnings[0].terminate_at,
            SimTime::from_secs(1_000) + SimDuration::from_secs(120)
        );
        // The instance is still usable during the warning window.
        assert!(c.instance(id).unwrap().is_usable());

        // The platform reclaims it at the deadline.
        let reclaimed = c.force_terminate(id, warnings[0].terminate_at).unwrap();
        assert!(reclaimed);
        let inst = c.instance(id).unwrap();
        assert!(inst.is_terminated());
        assert!(inst.revoked);
    }

    #[test]
    fn relinquish_before_deadline_avoids_forced_termination() {
        let mut c = cloud();
        let id = boot_spot(&mut c, 0.07, SimTime::ZERO);
        let market = MarketId::new("m3.medium", "us-east-1a");
        let warnings = c.apply_price_change(&market, SimTime::from_secs(1_000));
        // SpotCheck migrates off and relinquishes at t=1030.
        let (op, ready) = c.terminate(id, SimTime::from_secs(1_030)).unwrap();
        c.complete_op(op, ready).unwrap();
        // The platform's forced termination then finds nothing to do.
        let reclaimed = c.force_terminate(id, warnings[0].terminate_at).unwrap();
        assert!(!reclaimed);
        assert!(!c.instance(id).unwrap().revoked);
    }

    #[test]
    fn on_demand_instances_never_get_warnings() {
        let mut c = cloud();
        let (id, op, ready) = c
            .request_on_demand("m3.medium", &zone(), SimTime::ZERO)
            .unwrap();
        c.complete_op(op, ready).unwrap();
        let market = MarketId::new("m3.medium", "us-east-1a");
        let warnings = c.apply_price_change(&market, SimTime::from_secs(1_000));
        assert!(warnings.is_empty());
        assert!(c.instance(id).unwrap().is_usable());
    }

    #[test]
    fn spot_boot_races_price_spike() {
        let mut c = cloud();
        // Request just before the spike: price is 0.02, bid 0.07 accepted.
        let (id, op, ready) = c
            .request_spot("m3.medium", &zone(), 0.07, SimTime::from_secs(990))
            .unwrap();
        // Boot latency (>=100s) lands inside the spike window.
        assert!(ready > SimTime::from_secs(1_000));
        let n = c.complete_op(op, ready).unwrap();
        assert_eq!(n, Notification::SpotStartFailed { instance: id });
        assert!(c.instance(id).unwrap().is_terminated());
        // Never started -> never billed.
        assert_eq!(c.instance_cost(id, SimTime::from_hours(1)).unwrap(), 0.0);
    }

    #[test]
    fn volume_lifecycle_and_migration_reattach() {
        let mut c = cloud();
        let a = boot_spot(&mut c, 0.07, SimTime::ZERO);
        let v = c.create_volume(8.0);
        let t0 = SimTime::from_secs(300);
        let (op, ready) = c.attach_volume(v, a, t0).unwrap();
        assert_eq!(
            c.complete_op(op, ready).unwrap(),
            Notification::VolumeAttached {
                volume: v,
                instance: a
            }
        );
        assert_eq!(c.instance(a).unwrap().volumes, vec![v]);
        // Detach (e.g. during a migration)...
        let (op, ready) = c.detach_volume(v, ready).unwrap();
        assert_eq!(
            c.complete_op(op, ready).unwrap(),
            Notification::VolumeDetached { volume: v }
        );
        assert!(c.instance(a).unwrap().volumes.is_empty());
        // ...and reattach to a new instance.
        let b = boot_spot(&mut c, 0.07, SimTime::ZERO);
        let (op, ready) = c.attach_volume(v, b, ready).unwrap();
        assert!(matches!(
            c.complete_op(op, ready).unwrap(),
            Notification::VolumeAttached { .. }
        ));
        assert_eq!(c.volume(v).unwrap().state, AttachState::Attached(b));
    }

    #[test]
    fn attach_races_termination_and_rolls_back() {
        let mut c = cloud();
        let a = boot_spot(&mut c, 0.07, SimTime::ZERO);
        let v = c.create_volume(8.0);
        let (op, ready) = c.attach_volume(v, a, SimTime::from_secs(300)).unwrap();
        // The instance is revoked and reclaimed before the attach lands.
        let market = MarketId::new("m3.medium", "us-east-1a");
        c.apply_price_change(&market, SimTime::from_secs(1_000));
        c.force_terminate(a, SimTime::from_secs(1_120)).unwrap();
        let n = c.complete_op(op, ready.max(SimTime::from_secs(1_121))).unwrap();
        assert_eq!(n, Notification::VolumeAttachFailed { volume: v });
        assert_eq!(c.volume(v).unwrap().state, AttachState::Available);
    }

    #[test]
    fn eni_lifecycle_with_ip_reassignment() {
        let mut c = cloud();
        let a = boot_spot(&mut c, 0.07, SimTime::ZERO);
        let b = boot_spot(&mut c, 0.07, SimTime::ZERO);
        let subnet = c.create_subnet();
        let ip = c.allocate_ip(subnet);
        let e1 = c.create_eni(Some(ip));
        let t0 = SimTime::from_secs(300);
        let (op, ready) = c.attach_eni(e1, a, t0).unwrap();
        c.complete_op(op, ready).unwrap();
        // Migration: unassign the IP from e1, detach it, create a new ENI on
        // the destination with the same IP (paper §3.4 / Figure 4).
        assert_eq!(c.unassign_ip(e1).unwrap(), Some(ip));
        let (op, ready) = c.detach_eni(e1, ready).unwrap();
        c.complete_op(op, ready).unwrap();
        let e2 = c.create_eni(None);
        c.assign_ip(e2, ip).unwrap();
        let (op, ready) = c.attach_eni(e2, b, ready).unwrap();
        assert_eq!(
            c.complete_op(op, ready).unwrap(),
            Notification::EniAttached { eni: e2, instance: b }
        );
        assert_eq!(c.eni(e2).unwrap().ip, Some(ip));
        assert_eq!(c.instance(b).unwrap().enis, vec![e2]);
    }

    #[test]
    fn forced_termination_releases_resources() {
        let mut c = cloud();
        let a = boot_spot(&mut c, 0.07, SimTime::ZERO);
        let v = c.create_volume(8.0);
        let e = c.create_eni(None);
        let t0 = SimTime::from_secs(100);
        let (op, ready) = c.attach_volume(v, a, t0).unwrap();
        c.complete_op(op, ready).unwrap();
        let (op, ready) = c.attach_eni(e, a, t0).unwrap();
        c.complete_op(op, ready).unwrap();
        let market = MarketId::new("m3.medium", "us-east-1a");
        c.apply_price_change(&market, SimTime::from_secs(1_000));
        c.force_terminate(a, SimTime::from_secs(1_120)).unwrap();
        assert_eq!(c.volume(v).unwrap().state, AttachState::Available);
        assert_eq!(c.eni(e).unwrap().state, AttachState::Available);
    }

    #[test]
    fn cost_accrues_only_while_started() {
        let mut c = cloud();
        let id = boot_spot(&mut c, 0.07, SimTime::ZERO);
        let started = c.instance(id).unwrap().started_at.unwrap();
        // One hour after start at price 0.02... except the spike window
        // [1000,2000) at 0.50 overlaps. Compute expected by integration.
        let until = started + SimDuration::from_hours(1);
        let cost = c.instance_cost(id, until).unwrap();
        // Billing caps the charged price at the bid: the spike window
        // [1000, 2000) bills at 0.07, not 0.50.
        let trace = spiky_trace();
        let expected = trace.mean_capped_price(0.07, started, until).unwrap() * 1.0;
        assert!((cost - expected).abs() < 1e-9);
        assert!(cost < trace.mean_price(started, until).unwrap());
    }

    #[test]
    fn completing_op_early_or_twice_fails() {
        let mut c = cloud();
        let (_, op, ready) = c
            .request_spot("m3.medium", &zone(), 0.07, SimTime::ZERO)
            .unwrap();
        let err = c.complete_op(op, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, CloudError::InvalidState(_)));
        c.complete_op(op, ready).unwrap();
        let err = c.complete_op(op, ready).unwrap_err();
        assert!(matches!(err, CloudError::UnknownOp(_)));
    }

    #[test]
    fn stockout_probability_surfaces_capacity_errors() {
        let mut config = CloudConfig {
            on_demand_stockout_prob: 1.0,
            ..CloudConfig::default()
        };
        config.seed = 7;
        let mut c = CloudSim::new(vec![spiky_trace()], config);
        let err = c
            .request_on_demand("m3.medium", &zone(), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, CloudError::CapacityUnavailable);
    }

    #[test]
    fn next_price_change_scans_markets() {
        let c = cloud();
        let (at, market) = c.next_price_change_after(SimTime::ZERO).unwrap();
        assert_eq!(at, SimTime::from_secs(1_000));
        assert_eq!(market, MarketId::new("m3.medium", "us-east-1a"));
        assert!(c.next_price_change_after(SimTime::from_secs(2_000)).is_none());
    }

    #[test]
    fn instances_find_their_market_across_types_and_zones() {
        // Markets sort by type, then zone; the allocation-free lookup by
        // an instance's own type and zone must find each one.
        let mut traces = Vec::new();
        for (i, ty) in ["m3.large", "m3.medium"].into_iter().enumerate() {
            for (j, z) in ["us-east-1a", "us-east-1b"].into_iter().enumerate() {
                let price = 0.01 + 0.01 * (2 * i + j) as f64;
                let s = StepSeries::from_points(vec![(SimTime::ZERO, price)]);
                traces.push(PriceTrace::new(MarketId::new(ty, z), 0.2, s));
            }
        }
        traces.reverse();
        let mut c = CloudSim::new(traces, CloudConfig::default());
        let until = SimTime::from_hours(2);
        for (i, ty) in ["m3.large", "m3.medium"].into_iter().enumerate() {
            for (j, z) in ["us-east-1a", "us-east-1b"].into_iter().enumerate() {
                let zone = ZoneName::new(z);
                let (id, op, ready) = c.request_spot(ty, &zone, 1.0, SimTime::ZERO).unwrap();
                c.complete_op(op, ready).unwrap();
                let price = 0.01 + 0.01 * (2 * i + j) as f64;
                let want = price * until.since(ready).as_hours_f64();
                let got = c.instance_cost(id, until).unwrap();
                assert!((got - want).abs() < 1e-12, "{ty}@{z}: {got} != {want}");
            }
        }
    }

    #[test]
    fn transient_errors_surface_and_clear() {
        let config = CloudConfig {
            faults: FaultPlan::none().with_transient_errors(1.0),
            ..CloudConfig::default()
        };
        let mut c = CloudSim::new(vec![spiky_trace()], config);
        let err = c
            .request_spot("m3.medium", &zone(), 0.07, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, CloudError::ApiUnavailable);
        // Clearing the probability restores normal service (same CloudSim).
        c.config.faults.transient_error_prob = 0.0;
        assert!(c.request_spot("m3.medium", &zone(), 0.07, SimTime::ZERO).is_ok());
    }

    #[test]
    fn crash_stop_terminates_without_warning_and_releases_resources() {
        let plan = FaultPlan::none().at(
            SimTime::from_secs(500),
            FaultEvent::InstanceCrash { pick: 0 },
        );
        let config = CloudConfig {
            faults: plan,
            ..CloudConfig::default()
        };
        let mut c = CloudSim::new(vec![spiky_trace()], config);
        let a = boot_spot(&mut c, 0.07, SimTime::ZERO);
        let v = c.create_volume(8.0);
        let (op, ready) = c.attach_volume(v, a, SimTime::from_secs(100)).unwrap();
        c.complete_op(op, ready).unwrap();

        let (at, fault) = c.next_scheduled_fault().unwrap();
        assert_eq!(at, SimTime::from_secs(500));
        let impact = c.apply_fault(&fault, at);
        assert_eq!(
            impact.notifications,
            vec![Notification::InstanceCrashed { instance: a }]
        );
        let inst = c.instance(a).unwrap();
        assert!(inst.is_terminated());
        assert!(inst.revoked, "crash stops billing like a revocation");
        assert_eq!(c.volume(v).unwrap().state, AttachState::Available);
        assert!(c.next_scheduled_fault().is_none());
    }

    #[test]
    fn crash_with_no_running_instances_is_a_no_op() {
        let mut c = cloud();
        let impact = c.apply_fault(&FaultEvent::InstanceCrash { pick: 3 }, SimTime::ZERO);
        assert!(impact.is_empty());
    }

    #[test]
    fn revocation_storm_warns_every_spot_instance_in_market() {
        let mut c = cloud();
        let a = boot_spot(&mut c, 0.07, SimTime::ZERO);
        let b = boot_spot(&mut c, 5.0, SimTime::ZERO);
        let (od, op, ready) = c
            .request_on_demand("m3.medium", &zone(), SimTime::ZERO)
            .unwrap();
        c.complete_op(op, ready).unwrap();
        let market = MarketId::new("m3.medium", "us-east-1a");
        let impact = c.apply_fault(
            &FaultEvent::RevocationStorm { market },
            SimTime::from_secs(500),
        );
        // Both spot instances are warned regardless of bid; on-demand is not.
        let mut warned: Vec<InstanceId> = impact.warnings.iter().map(|w| w.instance).collect();
        warned.sort();
        assert_eq!(warned, vec![a, b]);
        assert_eq!(
            impact.warnings[0].terminate_at,
            SimTime::from_secs(500) + SimDuration::from_secs(120)
        );
        assert!(c.instance(od).unwrap().is_usable());
        for w in &impact.warnings {
            assert!(c.force_terminate(w.instance, w.terminate_at).unwrap());
        }
    }

    #[test]
    fn latency_spike_slows_ops_then_expires() {
        let mut c = cloud();
        let baseline = {
            // Sample the undisturbed boot latency from a twin platform.
            let mut twin = cloud();
            let (_, _, ready) = twin
                .request_spot("m3.medium", &zone(), 0.07, SimTime::ZERO)
                .unwrap();
            ready.since(SimTime::ZERO)
        };
        c.apply_fault(
            &FaultEvent::LatencySpike {
                factor: 10.0,
                duration: SimDuration::from_secs(1_000),
            },
            SimTime::ZERO,
        );
        let (_, _, ready) = c
            .request_spot("m3.medium", &zone(), 0.07, SimTime::ZERO)
            .unwrap();
        assert_eq!(ready.since(SimTime::ZERO), baseline.mul_f64(10.0));
        // After the window the multiplier is gone: latencies are back in
        // the model's normal range (boot latencies are minutes, not hours).
        let later = SimTime::from_secs(2_000);
        let (_, _, ready) = c.request_spot("m3.medium", &zone(), 0.07, later).unwrap();
        assert!(ready.since(later) < baseline.mul_f64(10.0));
    }

    #[test]
    fn backup_failure_relays_pick() {
        let mut c = cloud();
        let impact = c.apply_fault(&FaultEvent::BackupFailure { pick: 42 }, SimTime::ZERO);
        assert_eq!(impact.backup_pick, Some(42));
        assert!(impact.warnings.is_empty() && impact.notifications.is_empty());
    }

    #[test]
    fn unknown_ids_error_cleanly() {
        let mut c = cloud();
        assert!(c.instance(InstanceId(99)).is_err());
        assert!(c.volume(VolumeId(99)).is_err());
        assert!(c.eni(EniId(99)).is_err());
        assert!(c.detach_volume(VolumeId(99), SimTime::ZERO).is_err());
        assert!(c.terminate(InstanceId(99), SimTime::ZERO).is_err());
        assert!(c
            .request_spot("x9.mega", &zone(), 1.0, SimTime::ZERO)
            .is_err());
    }
}
