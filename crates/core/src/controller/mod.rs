//! The SpotCheck controller (paper §5), decomposed into subsystems.
//!
//! The controller interfaces between customers and the native IaaS
//! platform: it provisions nested VMs on the cheapest suitable spot
//! servers (slicing larger servers when per-slot prices favor it), assigns
//! backup servers, reacts to revocation warnings by orchestrating
//! bounded-time migrations to on-demand servers (using hot spares when
//! configured), moves each VM's private IP and EBS volume to the
//! destination, and migrates VMs back to their home spot pool when spikes
//! abate.
//!
//! The controller is a passive state machine driven by [`Event`]s: every
//! handler takes the current time and returns follow-up events for the
//! driver to schedule. This mirrors the paper's centralized controller
//! design ("maintains a global and consistent view of SpotCheck's state").
//!
//! # Architecture
//!
//! The implementation is split into focused subsystem modules, each an
//! `impl Controller` block over the same flat state database (the paper's
//! controller keeps one global view; so does ours):
//!
//! - [`effects`] — the typed effect bus: every platform mutation and
//!   every scheduled follow-up event funnels through an `eff_*` method
//!   that executes the effect synchronously (preserving the platform's
//!   seeded latency-draw order) and journals it.
//! - [`pools`] — host/spare pool management and host termination.
//! - [`provision`] — VM provisioning, placement, and the slicing ladder.
//! - [`migration`] — the bounded-time migration orchestrator around the
//!   explicit typed state machine [`MigrationFsm`].
//! - [`replication`] — backup assignment and epoch-guarded re-replication.
//! - [`recovery`] — crash taxonomy, forced termination, and warnings.
//! - [`returns`] — return-to-spot live migrations.
//!
//! Every subsystem threads the structured [`Journal`]
//! (see [`crate::journal`]) so a run's internal activity can be queried
//! and dumped after the fact.

mod contention;
mod effects;
mod fsm;
mod migration;
mod pools;
mod provision;
mod recovery;
mod replication;
mod returns;

pub use fsm::{IllegalTransition, MigPhase, MigrationFsm};

use std::collections::{BTreeMap, BTreeSet};

use spotcheck_backup::pool::{BackupPool, BackupServerId};
use spotcheck_cloudsim::cloud::CloudSim;
use spotcheck_cloudsim::error::CloudError;
use spotcheck_cloudsim::ids::{InstanceId, OpId, PrivateIp, VolumeId};
use spotcheck_cloudsim::instance::InstanceState;
use spotcheck_cloudsim::cloud::Notification;
use spotcheck_nestedvm::vm::{NestedVmId, NestedVmSpec};
use spotcheck_simcore::slab::IdMap;
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_spotmarket::market::MarketId;
use spotcheck_workloads::WorkloadKind;

use crate::accounting::{Accounting, AvailabilityReport};
use crate::config::SpotCheckConfig;
use crate::events::Event;
use crate::journal::{Journal, Record, Subsystem};
use crate::retry::MarketHealth;
use crate::types::{Customer, CustomerId, MigrationId, VmRecord, VmStatus};

use contention::FleetNet;
use effects::OpCtx;
use migration::Migration;
use pools::HostInfo;
use returns::ReturnState;

/// Scheduled follow-up events returned by controller handlers.
pub type Outbox = Vec<(SimTime, Event)>;

/// Controller errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerError {
    /// Unknown customer.
    UnknownCustomer(CustomerId),
    /// Unknown nested VM.
    UnknownVm(NestedVmId),
    /// Underlying cloud error.
    Cloud(CloudError),
    /// The request cannot be satisfied right now.
    Unsatisfiable(String),
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::UnknownCustomer(c) => write!(f, "unknown customer {c}"),
            ControllerError::UnknownVm(v) => write!(f, "unknown nested VM {v}"),
            ControllerError::Cloud(e) => write!(f, "cloud error: {e}"),
            ControllerError::Unsatisfiable(s) => write!(f, "unsatisfiable: {s}"),
        }
    }
}

impl std::error::Error for ControllerError {}

impl From<CloudError> for ControllerError {
    fn from(e: CloudError) -> Self {
        ControllerError::Cloud(e)
    }
}

/// Cost summary of a run.
#[derive(Debug, Clone, Copy)]
pub struct CostReport {
    /// Dollars spent on native instances (hosts, spares, destinations).
    pub native_cost: f64,
    /// Dollars spent on backup servers.
    pub backup_cost: f64,
    /// Total dollars.
    pub total: f64,
    /// Sum of tracked VM-hours.
    pub vm_hours: f64,
    /// Average $/VM-hr.
    pub cost_per_vm_hr: f64,
}

/// The SpotCheck controller.
pub struct Controller {
    cfg: SpotCheckConfig,
    cloud: CloudSim,
    vm_spec: NestedVmSpec,
    hosts: IdMap<InstanceId, HostInfo>,
    customers: IdMap<CustomerId, Customer>,
    vms: IdMap<NestedVmId, VmRecord>,
    backups: BackupPool,
    backup_birth: IdMap<BackupServerId, SimTime>,
    backup_death: IdMap<BackupServerId, SimTime>,
    spares: Vec<InstanceId>,
    op_ctx: IdMap<OpId, OpCtx>,
    host_waiters: IdMap<InstanceId, Vec<NestedVmId>>,
    provision_pending: IdMap<NestedVmId, u8>,
    migrations: IdMap<MigrationId, Migration>,
    /// Restore-gate duration (skeleton or full-image read) per migration.
    restore_gates: IdMap<MigrationId, SimDuration>,
    returns: IdMap<NestedVmId, ReturnState>,
    degraded_epoch: IdMap<NestedVmId, u32>,
    /// VMs whose backup server holds an incomplete image (re-replication
    /// in flight). Value is the epoch guarding the pending
    /// [`Event::ReplicationDone`].
    pending_rerepl: IdMap<NestedVmId, u32>,
    repl_epoch: u32,
    /// Failed host-acquisition attempts per still-provisioning VM, for
    /// backoff on the retry.
    provision_attempts: IdMap<NestedVmId, u32>,
    /// Hosts with at least one free nested-VM slot (`hv.fits(vm_spec)`),
    /// kept exactly in sync with the hypervisor occupancy so the first-fit
    /// placement scan touches only usable hosts instead of the whole
    /// fleet. Iteration order (ascending id) matches the full scan's.
    free_slot_hosts: BTreeSet<InstanceId>,
    /// VMs currently placed on an on-demand host — the candidates of the
    /// return-to-spot sweep. A superset is safe (the sweep re-checks the
    /// full predicate); emptiness means the sweep can be skipped.
    od_hosted: BTreeSet<NestedVmId>,
    /// Per spot market: how many VMs homed there are protected by each
    /// backup server. Keys with a positive count reproduce the `avoid`
    /// list of the same-pool spreading scan without walking every VM.
    market_backup_refs: BTreeMap<MarketId, BTreeMap<BackupServerId, u32>>,
    market_health: MarketHealth,
    /// The fleet's shared-bandwidth fluid model (None: transfers keep
    /// their closed-form i.i.d. durations).
    net: Option<FleetNet>,
    accounting: Accounting,
    journal: Journal,
    next_customer: u64,
    next_vm: u64,
    next_migration: u64,
}

impl Controller {
    /// Creates a controller over a cloud platform.
    pub fn new(cloud: CloudSim, cfg: SpotCheckConfig) -> Self {
        let backups = BackupPool::new(cfg.backup.clone());
        let market_health = MarketHealth::new(cfg.resilience.health.clone());
        let net = cfg
            .contention
            .enabled
            .then(|| FleetNet::new(&cfg.contention));
        Controller {
            cfg,
            cloud,
            vm_spec: NestedVmSpec::medium(),
            hosts: IdMap::new(),
            customers: IdMap::new(),
            vms: IdMap::new(),
            backups,
            backup_birth: IdMap::new(),
            backup_death: IdMap::new(),
            spares: Vec::new(),
            op_ctx: IdMap::new(),
            host_waiters: IdMap::new(),
            provision_pending: IdMap::new(),
            migrations: IdMap::new(),
            restore_gates: IdMap::new(),
            returns: IdMap::new(),
            degraded_epoch: IdMap::new(),
            pending_rerepl: IdMap::new(),
            repl_epoch: 0,
            provision_attempts: IdMap::new(),
            free_slot_hosts: BTreeSet::new(),
            od_hosted: BTreeSet::new(),
            market_backup_refs: BTreeMap::new(),
            market_health,
            net,
            accounting: Accounting::new(),
            journal: Journal::new(),
            next_customer: 0,
            next_vm: 0,
            next_migration: 0,
        }
    }

    /// Shared view of the cloud platform.
    pub fn cloud(&self) -> &CloudSim {
        &self.cloud
    }

    /// Returns the configuration.
    pub fn config(&self) -> &SpotCheckConfig {
        &self.cfg
    }

    /// The structured event journal of this run (always on).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Returns a VM's record.
    pub fn vm(&self, id: NestedVmId) -> Result<&VmRecord, ControllerError> {
        self.vms.get(&id).ok_or(ControllerError::UnknownVm(id))
    }

    /// Number of in-flight migrations.
    pub fn active_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// Currently idle hot spares.
    pub fn idle_spares(&self) -> usize {
        self.spares.len()
    }

    /// Hosts currently in the free-slot placement index (spot hosts with
    /// spare nested-VM capacity). This is the per-shard aggregate the
    /// sharded fleet gossips across shards — each shard answers the
    /// fleet-wide free-capacity query for its own slice only.
    pub fn free_slot_host_count(&self) -> usize {
        self.free_slot_hosts.len()
    }

    /// Bootstraps the deployment: schedules the first price-change event of
    /// every market and boots the configured hot spares.
    pub fn bootstrap(&mut self, now: SimTime) -> Outbox {
        let mut out = Vec::new();
        let markets: Vec<MarketId> = self.cloud.markets().cloned().collect();
        for m in markets {
            if let Some((t, _)) = self.cloud.next_change_after(&m, now) {
                self.schedule(Subsystem::Controller, now, t, Event::PriceChange(m), &mut out);
            }
        }
        for _ in 0..self.cfg.hot_spares {
            self.request_spare(now, &mut out);
        }
        // Arm the platform's first scheduled fault, if any; each delivery
        // re-arms the next (mirrors the price-change cursor).
        if let Some((t, f)) = self.cloud.next_scheduled_fault() {
            self.schedule(Subsystem::Controller, now, t.max(now), Event::Fault(f), &mut out);
        }
        out
    }

    /// Registers a new customer, carving them a VPC subnet.
    pub fn create_customer(&mut self) -> CustomerId {
        let id = CustomerId(self.next_customer);
        self.next_customer += 1;
        let subnet = self.cloud.create_subnet();
        self.customers.insert(
            id,
            Customer {
                id,
                subnet,
                vms: Vec::new(),
            },
        );
        id
    }

    /// Handles a customer's request for a (medium) nested VM. Returns the
    /// VM id immediately; provisioning proceeds asynchronously.
    pub fn request_server(
        &mut self,
        customer: CustomerId,
        workload: WorkloadKind,
        now: SimTime,
    ) -> Result<(NestedVmId, Outbox), ControllerError> {
        self.request_server_opts(customer, workload, false, now)
    }

    /// Like [`Controller::request_server`], with the stateless flag: a
    /// stateless VM is never assigned a backup server and is live-migrated
    /// on revocation (§4.2 — replicated tiers tolerate failures, so the
    /// backup cost can be skipped).
    pub fn request_server_opts(
        &mut self,
        customer: CustomerId,
        workload: WorkloadKind,
        stateless: bool,
        now: SimTime,
    ) -> Result<(NestedVmId, Outbox), ControllerError> {
        let subnet = self
            .customers
            .get(&customer)
            .ok_or(ControllerError::UnknownCustomer(customer))?
            .subnet;
        let id = NestedVmId(self.next_vm);
        self.next_vm += 1;
        let ip = self.cloud.allocate_ip(subnet);
        let volume = self.cloud.create_volume(8.0);
        self.vms.insert(
            id,
            VmRecord {
                id,
                customer,
                workload,
                stateless,
                ip,
                volume,
                eni: None,
                host: None,
                home_market: None,
                backup: None,
                status: VmStatus::Provisioning,
                requested_at: now,
                first_running_at: None,
                checkpoint_acked_at: None,
            },
        );
        self.customers
            .get_mut(&customer)
            .expect("customer exists")
            .vms
            .push(id);
        let mut out = Vec::new();
        self.schedule(Subsystem::Controller, now, now, Event::ProvisionVm(id), &mut out);
        Ok((id, out))
    }

    /// Releases a nested VM back to SpotCheck.
    pub fn release_server(
        &mut self,
        vm: NestedVmId,
        now: SimTime,
    ) -> Result<Outbox, ControllerError> {
        if !self.vms.contains_key(&vm) {
            return Err(ControllerError::UnknownVm(vm));
        }
        let mut out = Vec::new();
        self.net_catch_up(now, &mut out);
        self.set_status(Subsystem::Controller, vm, VmStatus::Released, now);
        self.backup_refs_sub(vm);
        let host = {
            let record = self.vms.get_mut(&vm).expect("checked above");
            let host = record.host.take();
            if let Some(b) = record.backup.take() {
                let _ = self.backups.release(vm);
                let _ = b;
            }
            host
        };
        self.note_vm_placement(vm);
        self.net_refresh_stream(vm);
        if let Some(h) = host {
            if let Some(info) = self.hosts.get_mut(&h) {
                let _ = info.hv.evict(vm);
                let empty = info.hv.resident_count() == 0;
                self.note_host_slots(h);
                if empty {
                    self.terminate_host(h, now, &mut out);
                }
            }
        }
        self.net_rearm(now, &mut out);
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Hot-path index maintenance
    //
    // Three derived indexes keep the per-event scans O(candidates) at
    // fleet scale. Each is re-derived from the authoritative record by a
    // `note_*`/`backup_refs_*` call at every mutation site, so the scans
    // they replace stay byte-identical to walking the full maps.
    // ------------------------------------------------------------------

    /// Re-derives `free_slot_hosts` membership for `host`. Call after any
    /// change to the host's hypervisor occupancy or to its presence in
    /// `hosts`.
    pub(super) fn note_host_slots(&mut self, host: InstanceId) {
        let fits = self
            .hosts
            .get(&host)
            .map(|info| info.hv.fits(&self.vm_spec))
            .unwrap_or(false);
        if fits {
            self.free_slot_hosts.insert(host);
        } else {
            self.free_slot_hosts.remove(&host);
        }
    }

    /// Re-derives `od_hosted` membership for `vm`. Call after any change
    /// to the VM's `host` field.
    pub(super) fn note_vm_placement(&mut self, vm: NestedVmId) {
        let on_od = self
            .vms
            .get(&vm)
            .and_then(|r| r.host)
            .and_then(|h| self.hosts.get(&h))
            .map(|info| info.market.is_none())
            .unwrap_or(false);
        if on_od {
            self.od_hosted.insert(vm);
        } else {
            self.od_hosted.remove(&vm);
        }
    }

    /// Drops `vm`'s (home market, backup server) pair from
    /// `market_backup_refs`. Call *before* mutating either field.
    pub(super) fn backup_refs_sub(&mut self, vm: NestedVmId) {
        let Some(r) = self.vms.get(&vm) else { return };
        let (Some(m), Some(s)) = (r.home_market.clone(), r.backup) else {
            return;
        };
        if let Some(counts) = self.market_backup_refs.get_mut(&m) {
            if let Some(c) = counts.get_mut(&s) {
                *c -= 1;
                if *c == 0 {
                    counts.remove(&s);
                }
            }
        }
    }

    /// Records `vm`'s (home market, backup server) pair in
    /// `market_backup_refs`. Call *after* mutating either field.
    pub(super) fn backup_refs_add(&mut self, vm: NestedVmId) {
        let Some(r) = self.vms.get(&vm) else { return };
        let (Some(m), Some(s)) = (r.home_market.clone(), r.backup) else {
            return;
        };
        *self
            .market_backup_refs
            .entry(m)
            .or_default()
            .entry(s)
            .or_insert(0) += 1;
    }

    /// The main event dispatcher.
    pub fn handle_event(&mut self, event: Event, now: SimTime) -> Outbox {
        let mut out = Vec::new();
        // Sync the fluid network to `now` first (dispatching any flow
        // completions as events at `now`), so every handler mutates the
        // flow set against an up-to-date model.
        self.net_catch_up(now, &mut out);
        match event {
            Event::PriceChange(market) => self.on_price_change(&market, now, &mut out),
            Event::CloudOp(op) => self.on_cloud_op(op, now, &mut out),
            Event::ForcedTermination(instance) => {
                self.on_forced_termination(instance, now, &mut out)
            }
            Event::ProvisionVm(vm) => self.on_provision(vm, now, &mut out),
            Event::CommitStart(mig) => self.on_commit_start(mig, now, &mut out),
            Event::PauseStart(mig) => self.on_pause_start(mig, now),
            Event::CommitDone(mig) => self.on_commit_done(mig, now, &mut out),
            Event::RestoreDone(mig) => self.on_mig_gate_done(mig, now, &mut out),
            Event::DegradedEnd { vm, epoch } => self.on_degraded_end(vm, epoch, now),
            Event::ReturnTransferDone(vm) => self.on_return_transfer_done(vm, now, &mut out),
            Event::Fault(f) => self.on_fault(&f, now, &mut out),
            Event::ReplicationDone { vm, epoch } => self.on_replication_done(vm, epoch, now),
            // Stateless alarm: the catch-up above already harvested the
            // completions this wake was armed for.
            Event::FlowWake => {}
            Event::RetryTerminate { instance, attempt } => {
                self.on_retry_terminate(instance, attempt, now, &mut out)
            }
        }
        // Re-arm the next flow-completion alarm (and check fallback
        // deadlines) against whatever the handler changed.
        self.net_rearm(now, &mut out);
        out
    }

    // ------------------------------------------------------------------
    // Price dynamics
    // ------------------------------------------------------------------

    fn on_price_change(&mut self, market: &MarketId, now: SimTime, out: &mut Outbox) {
        // Re-arm the next change event for this market. The cursor-backed
        // accessor walks forward from the previous change instead of
        // re-searching the whole series on every tick.
        if let Some((t, _)) = self.cloud.next_change_after(market, now) {
            self.schedule(
                Subsystem::Controller,
                now,
                t,
                Event::PriceChange(market.clone()),
                out,
            );
        }
        // Revocation dynamics: warnings for spot instances whose bid is now
        // under water.
        let warnings = self.cloud.apply_price_change(market, now);
        for w in warnings {
            self.schedule(
                Subsystem::Controller,
                now,
                w.terminate_at,
                Event::ForcedTermination(w.instance),
                out,
            );
            self.on_warning(w.instance, w.terminate_at, now, out);
        }
        // Proactive dynamics (k>1 bids with proactive monitoring, §4.3):
        // when the price crosses the on-demand threshold but stays below
        // the bid, live-migrate away before any warning can arrive.
        if let Some(od) = self
            .cloud
            .spec(market.type_name.as_str())
            .map(|s| s.on_demand_price)
        {
            let threshold = self.cfg.bidding.proactive_threshold(od);
            let price = self.cloud.spot_price(market, now);
            let bid = self.cfg.bidding.bid(od);
            if let (Some(th), Some(p)) = (threshold, price) {
                if p > th && p <= bid {
                    let hosts_in_market: Vec<InstanceId> = self
                        .hosts
                        .iter()
                        .filter(|(id, info)| {
                            info.market.as_ref() == Some(market)
                                && self
                                    .cloud
                                    .instance(*id)
                                    .map(|i| matches!(i.state, InstanceState::Running))
                                    .unwrap_or(false)
                        })
                        .map(|(id, _)| id)
                        .collect();
                    for host in hosts_in_market {
                        self.start_proactive_evacuation(host, now, out);
                    }
                }
            }
        }
        // Allocation dynamics: if this market is now cheaper than
        // on-demand, bring home VMs that fled to on-demand.
        if self.cfg.return_to_spot {
            let price = self.cloud.spot_price(market, now);
            let od = self
                .cloud
                .spec(market.type_name.as_str())
                .map(|s| s.on_demand_price);
            if let (Some(p), Some(od)) = (price, od) {
                if p < od {
                    // `od_hosted` holds exactly the VMs placed on on-demand
                    // hosts, in id order — the same order the full scan over
                    // `vms` visited them — and the full predicate is
                    // re-checked, so the candidate list is identical.
                    let candidates: Vec<NestedVmId> = self
                        .od_hosted
                        .iter()
                        .copied()
                        .filter(|id| {
                            self.vms
                                .get(id)
                                .map(|r| {
                                    r.status == VmStatus::Running
                                        && r.home_market.as_ref() == Some(market)
                                        && !self.returns.contains_key(&r.id)
                                        && r.host
                                            .and_then(|h| self.hosts.get(&h))
                                            .map(|i| i.market.is_none())
                                            .unwrap_or(false)
                                })
                                .unwrap_or(false)
                        })
                        .collect();
                    for vm in candidates {
                        self.start_return(vm, market.clone(), now, out);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Cloud-op completion dispatch
    // ------------------------------------------------------------------

    fn on_cloud_op(&mut self, op: OpId, now: SimTime, out: &mut Outbox) {
        let Some(ctx) = self.op_ctx.remove(&op) else {
            return;
        };
        let notif = match self.cloud.complete_op(op, now) {
            Ok(n) => n,
            Err(_) => {
                self.journal.record(
                    now,
                    Subsystem::Controller,
                    Record::OpDelivered {
                        purpose: ctx.kind(),
                        outcome: "error",
                    },
                );
                return;
            }
        };
        self.journal.record(
            now,
            Subsystem::Controller,
            Record::OpDelivered {
                purpose: ctx.kind(),
                outcome: notif.kind(),
            },
        );
        match (ctx, notif) {
            (OpCtx::HostBoot, Notification::InstanceStarted { instance }) => {
                self.on_host_boot(instance, now, out);
            }
            (OpCtx::HostBoot, Notification::SpotStartFailed { instance }) => {
                self.on_host_boot_failed(instance, now, out);
            }
            (OpCtx::SpareBoot, Notification::InstanceStarted { instance }) => {
                self.on_spare_ready(instance);
            }
            (OpCtx::DestBoot(mig), Notification::InstanceStarted { instance }) => {
                self.on_dest_boot(mig, instance, now, out);
            }
            (OpCtx::ProvisionAttach(vm), n) => self.on_provision_attach(vm, &n, now, out),
            (OpCtx::MigDetach(mig), _) => self.on_mig_gate_done(mig, now, out),
            (OpCtx::MigAttach(mig), n) => match n {
                Notification::EniAttachFailed { .. } | Notification::VolumeAttachFailed { .. } => {
                    // The on-demand destination cannot be revoked; a failure
                    // here means the driver terminated it externally. Drop
                    // the gate so the migration can still complete.
                    self.on_mig_gate_done(mig, now, out);
                }
                _ => self.on_mig_gate_done(mig, now, out),
            },
            (OpCtx::ReturnBoot(vm), Notification::InstanceStarted { instance }) => {
                self.on_return_boot(vm, instance, now, out);
            }
            (OpCtx::ReturnBoot(vm), Notification::SpotStartFailed { .. }) => {
                self.on_return_boot_failed(vm, now);
            }
            (OpCtx::ReturnDetach(vm), _) => self.on_return_detach(vm, now, out),
            (OpCtx::ReturnAttach(vm), _) => self.on_return_attach(vm, now),
            (OpCtx::Terminate, _) => {}
            // Remaining combinations (e.g. a boot op completing after its
            // purpose evaporated) are benign.
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Reporting (read-only: all inspection methods take `&self`)
    // ------------------------------------------------------------------

    /// Availability/degradation report across all VMs, reading clocks at
    /// `now` without mutating them.
    pub fn availability_report(&self, now: SimTime) -> AvailabilityReport {
        self.accounting.report(now)
    }

    /// Cost report at `now`.
    pub fn cost_report(&self, now: SimTime) -> CostReport {
        let native = self.cloud.native_cost(now);
        let mut backup = 0.0;
        for (id, birth) in self.backup_birth.iter() {
            // A failed backup server stops billing at its death.
            let end = self
                .backup_death
                .get(&id)
                .copied()
                .unwrap_or(now)
                .min(now);
            backup += self.cfg.backup.hourly_price * end.saturating_since(*birth).as_hours_f64();
        }
        let mut vm_hours = 0.0;
        for r in self.vms.values() {
            if let Some(start) = r.first_running_at {
                vm_hours += now.saturating_since(start).as_hours_f64();
            }
        }
        let total = native + backup;
        CostReport {
            native_cost: native,
            backup_cost: backup,
            total,
            vm_hours,
            cost_per_vm_hr: if vm_hours > 0.0 { total / vm_hours } else { 0.0 },
        }
    }

    /// Number of VMs currently in each status (for tests/diagnostics).
    pub fn status_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for r in self.vms.values() {
            *counts.entry(r.status.as_str()).or_insert(0) += 1;
        }
        counts
    }

    /// Markets whose health circuit is currently open (diagnostics).
    pub fn open_markets(&self, now: SimTime) -> Vec<MarketId> {
        self.market_health.open_markets(now)
    }

    /// VMs currently awaiting a re-replication push (diagnostics).
    pub fn pending_rereplications(&self) -> usize {
        self.pending_rerepl.len()
    }

    /// Exclusive access to the journal (for configuring a spill sink or
    /// flushing it; recording stays internal to the subsystems).
    pub fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// Toggles the return-to-spot allocation policy at runtime.
    ///
    /// The flag is only consulted at each price-change event, so flipping
    /// it between events is deterministic: a replayed run that flips it at
    /// the same simulation instant sees identical sweeps.
    pub fn set_return_to_spot(&mut self, enabled: bool) {
        self.cfg.return_to_spot = enabled;
    }

    /// A 64-bit digest enumerating the controller's dynamic state at
    /// `now`: every VM record, host occupancy, pools, migration/return
    /// machinery, journal counters, accounting clocks, and the platform's
    /// own [`CloudSim::state_digest`].
    ///
    /// Two controllers that processed the same event sequence digest
    /// identically, so the engine uses this as the snapshot signature that
    /// proves a replayed cold start converged to the original state.
    pub fn state_signature(&self, now: SimTime) -> u64 {
        let mut d = spotcheck_simcore::digest::Digest64::new();
        d.write_u64(now.as_micros());
        d.write_u64(self.next_customer);
        d.write_u64(self.next_vm);
        d.write_u64(self.next_migration);
        d.write_u64(u64::from(self.repl_epoch));
        d.write_usize(self.customers.len());
        d.write_usize(self.vms.len());
        for r in self.vms.values() {
            d.write_u64(r.id.0);
            d.write_u64(r.customer.0);
            d.write_str(r.status.as_str());
            d.write_bool(r.stateless);
            d.write_u64(r.host.map(|h| h.0).unwrap_or(u64::MAX));
            d.write_u64(r.backup.map(|b| b.0).unwrap_or(u64::MAX));
            d.write_str(r.home_market.as_ref().map(|m| m.type_name.as_str()).unwrap_or(""));
            d.write_u64(r.first_running_at.map(|t| t.as_micros()).unwrap_or(u64::MAX));
            d.write_u64(
                r.checkpoint_acked_at
                    .map(|t| t.as_micros())
                    .unwrap_or(u64::MAX),
            );
        }
        d.write_usize(self.hosts.len());
        for (id, info) in self.hosts.iter() {
            d.write_u64(id.0);
            d.write_usize(info.hv.resident_count());
            d.write_str(info.market.as_ref().map(|m| m.type_name.as_str()).unwrap_or(""));
        }
        d.write_usize(self.spares.len());
        for s in &self.spares {
            d.write_u64(s.0);
        }
        d.write_usize(self.backups.server_count());
        d.write_usize(self.backups.protected_count());
        d.write_usize(self.op_ctx.len());
        d.write_usize(self.migrations.len());
        d.write_usize(self.returns.len());
        d.write_usize(self.degraded_epoch.len());
        d.write_usize(self.pending_rerepl.len());
        d.write_usize(self.provision_pending.len());
        d.write_usize(self.free_slot_hosts.len());
        d.write_usize(self.od_hosted.len());
        for (k, v) in self.journal.counters().pairs() {
            d.write_str(k);
            d.write_u64(v);
        }
        let avail = self.accounting.report(now);
        d.write_usize(avail.vms);
        d.write_f64(avail.unavailability);
        d.write_f64(avail.degradation);
        d.write_u64(avail.total_downtime.as_micros());
        d.write_u64(avail.total_unprotected.as_micros());
        d.write_u64(avail.revocations);
        d.write_u64(avail.migrations);
        d.write_u64(avail.lost_vms);
        d.write_u64(self.cloud.state_digest());
        d.finish()
    }

    /// The private IP of a VM (stable across migrations).
    pub fn vm_ip(&self, vm: NestedVmId) -> Option<PrivateIp> {
        self.vms.get(&vm).map(|r| r.ip)
    }

    /// The EBS volume of a VM.
    pub fn vm_volume(&self, vm: NestedVmId) -> Option<VolumeId> {
        self.vms.get(&vm).map(|r| r.volume)
    }
}
