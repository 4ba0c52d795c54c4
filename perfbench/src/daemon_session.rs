//! `daemon_session`: `spotcheckd` served in-process through
//! `Daemon::handle_line`, `advance_to`, `write_snapshot` and `resume`,
//! with a real snapshot directory and journal sink, but no socket and no
//! wall-clock pacing.
//!
//! Each pacing tick advances the engine one tick, then serves one line
//! from each of two closed-loop clients back to back, the way
//! `Daemon::run` serves the lines that are ready between ticks. An
//! operator sends `GET metrics` every few ticks; snapshots are periodic;
//! the session ends with a cold-start `Daemon::resume` from the newest
//! snapshot plus the journal-sink tail, verified against the live
//! engine's state signature.
//!
//! Traffic mix. The session this workload was sized from served 9,000
//! requests: 784 scrapes, 6,589 commands and so 1,627 `status` calls.
//! Hence a client sends `status` 20% of the time (1,627 of 8,216 client
//! requests) and the operator scrapes once per 10 client requests (784
//! of 8,216 is one per 10.5), i.e. every 5 ticks. No source splits the
//! commands; the split here is invented: a client creates a customer
//! with 10% chance until it has 8 (a customer owns many VMs, as in
//! `examples/daemon_client.rs`), and otherwise provisions 50% and
//! releases 30% of the time, so its fleet grows to its cap of 100 VMs
//! early in the session and then churns at the cap. The instances a
//! scrape walks therefore grow with session time, not with the seed.
//!
//! The only user of the service JSON path, `Engine::apply`, the journal
//! sink and snapshot restore. It mixes reads (scrapes) with writes
//! (commands).
//!
//! Known defect, counted and not avoided: `Engine::replay` steps to each
//! command's instant before applying it, which fires same-instant events
//! the live run had not processed yet. Two clients in one tick hit this,
//! so the restore fails its signature check. It is counted in `failed`.

use std::path::PathBuf;
use std::time::Instant;

use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::engine::{Engine, Scenario};
use spotcheck_core::sim::standard_traces;
use spotcheck_core::snapshot::Snapshot;
use spotcheck_service::{latest_snapshot, read_command_tail, Daemon, DaemonConfig};
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::time::{SimDuration, SimTime};

use crate::{Cx, PassOut, Size, Workload};

/// Seed of the session's spot-market traces.
const MARKET_SEED: u64 = 42;

pub struct DaemonSession {
    days: u64,
    ticks: u64,
    tick: SimDuration,
    scrape_every: u64,
    snapshot_every: u64,
    max_vms: usize,
}

impl DaemonSession {
    pub fn new(size: Size) -> Self {
        match size {
            // 1,500 ten-minute ticks (about 10 days): 3,000 client
            // requests, 300 scrapes, a snapshot every 300 ticks.
            Size::Full => DaemonSession {
                days: 12,
                ticks: 1_500,
                tick: SimDuration::from_secs(600),
                scrape_every: 5,
                snapshot_every: 300,
                max_vms: 100,
            },
            Size::Tiny => DaemonSession {
                days: 2,
                ticks: 120,
                tick: SimDuration::from_secs(600),
                scrape_every: 8,
                snapshot_every: 50,
                max_vms: 8,
            },
        }
    }
}

pub struct Session {
    daemon: Daemon,
    scenario: Scenario,
    config: DaemonConfig,
    dir: PathBuf,
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    CreateCustomer,
    Provision,
    Release,
    Status,
}

impl Op {
    fn sample(self) -> &'static str {
        match self {
            Op::CreateCustomer => "service.create_customer",
            Op::Provision => "service.provision",
            Op::Release => "service.release",
            Op::Status => "service.status",
        }
    }
}

/// A closed-loop client: its next request depends on earlier replies.
struct Client {
    rng: SimRng,
    customers: Vec<u64>,
    vms: Vec<u64>,
    pending_release: Option<u64>,
}

impl Client {
    fn next(&mut self, max_vms: usize) -> (Op, String) {
        self.pending_release = None;
        let r = self.rng.gen_range(0, 100);
        let op = if self.customers.is_empty() || (r < 10 && self.customers.len() < 8) {
            Op::CreateCustomer
        } else if r < 50 {
            if self.vms.len() < max_vms {
                Op::Provision
            } else {
                Op::Release
            }
        } else if r < 80 {
            if self.vms.is_empty() {
                Op::Provision
            } else {
                Op::Release
            }
        } else {
            Op::Status
        };
        let line = match op {
            Op::CreateCustomer => "{\"op\": \"create_customer\"}".to_string(),
            Op::Provision => {
                let i = self.rng.gen_range(0, self.customers.len() as u64) as usize;
                format!(
                    "{{\"op\": \"provision\", \"customer\": {}}}",
                    self.customers[i]
                )
            }
            Op::Release => {
                let i = self.rng.gen_range(0, self.vms.len() as u64) as usize;
                let vm = self.vms.swap_remove(i);
                self.pending_release = Some(vm);
                format!("{{\"op\": \"release\", \"vm\": {vm}}}")
            }
            Op::Status => "{\"op\": \"status\"}".to_string(),
        };
        (op, line)
    }

    /// Reads the reply; returns false if the request failed.
    fn observe(&mut self, op: Op, reply: &str) -> bool {
        let Ok(m) = spotcheck_service::json::parse_object(reply) else {
            return false;
        };
        if m.get("ok").and_then(|v| v.as_bool()) != Some(true) {
            return false;
        }
        let id = |k: &str| m.get(k).and_then(|v| v.as_u64());
        match op {
            Op::CreateCustomer => id("customer").map(|c| self.customers.push(c)).is_some(),
            Op::Provision => id("vm").map(|v| self.vms.push(v)).is_some(),
            Op::Release => id("released") == self.pending_release,
            Op::Status => true,
        }
    }
}

/// True for the restore failure the known replay defect produces.
fn is_known_replay_defect(msg: &str) -> bool {
    msg.contains("state signature diverged") || msg.contains("step count diverged")
}

impl Workload for DaemonSession {
    type State = Session;
    const SETUP_EVERY_PASS: bool = true;

    fn setup(&self, cx: &mut Cx) -> Session {
        let dir = cx.work.join(format!("daemon-{}", cx.pass));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create daemon scratch dir");
        let horizon = SimDuration::from_days(self.days);
        // The markets are the same for every seed, so the seed varies the
        // clients (and the platform's draws), not how many revocations
        // the session meets: that keeps the work per pass alike across
        // seeds.
        let scenario = Scenario::new(
            standard_traces("us-east-1a", horizon, MARKET_SEED),
            SpotCheckConfig {
                seed: cx.seed,
                ..SpotCheckConfig::default()
            },
        );
        let config = DaemonConfig {
            accel: 1.0,
            horizon: SimTime::from_days(self.days),
            snapshot_dir: Some(dir.join("snapshots")),
            snapshot_every: horizon,
            journal_sink: Some(dir.join("journal.jsonl")),
        };
        let daemon = Daemon::new(scenario.clone(), config.clone()).expect("daemon starts");
        Session {
            daemon,
            scenario,
            config,
            dir,
        }
    }

    fn pass(&self, s: &mut Session, cx: &mut Cx) -> PassOut {
        let root = SimRng::seed(cx.seed).fork_named("daemon_session");
        let mut clients: Vec<Client> = (0..2)
            .map(|i| Client {
                rng: root.fork_named(&format!("client{i}")),
                customers: Vec::new(),
                vms: Vec::new(),
                pending_release: None,
            })
            .collect();
        let mut out = PassOut::default();
        let mut bad_replies = 0u64;
        let mut requests = 0u64;
        let mut snapshot_errors = Vec::new();
        let scenario = s.scenario.clone();
        let config = s.config.clone();

        let pass = cx.tr.begin("pass");
        let t0 = Instant::now();
        let mut now = s.daemon.engine().now();
        for tick in 1..=self.ticks {
            now += self.tick;
            let open = cx.tr.begin("engine.advance");
            s.daemon.advance_to(now);
            cx.tr.end(open);
            for client in clients.iter_mut() {
                let (op, line) = client.next(self.max_vms);
                let open = cx.tr.begin(op.sample());
                let t = Instant::now();
                let reply = s.daemon.handle_line(&line);
                let us = t.elapsed().as_secs_f64() * 1e6;
                cx.tr.end(open);
                requests += 1;
                if !client.observe(op, &reply) {
                    bad_replies += 1;
                }
                out.samples.push((op.sample(), us));
                if op != Op::Status {
                    out.samples.push(("service.cmd", us));
                }
            }
            if tick % self.scrape_every == 0 {
                let open = cx.tr.begin("service.scrape");
                let t = Instant::now();
                let reply = s.daemon.handle_line("GET metrics");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                cx.tr.end(open);
                requests += 1;
                if !reply.starts_with("{\"ok\": true") {
                    bad_replies += 1;
                }
                out.samples.push(("service.scrape", ms));
            }
            if tick % self.snapshot_every == 0 {
                let open = cx.tr.begin("snapshot.write");
                let r = s.daemon.write_snapshot();
                cx.tr.end(open);
                if let Err(e) = r {
                    snapshot_errors.push(e.to_string());
                }
            }
        }
        let open = cx.tr.begin("journal.flush");
        let flushed = s.daemon.flush();
        cx.tr.end(open);
        let restore = cx.tr.begin("snapshot.restore");
        let t_restore = Instant::now();
        let resumed = Daemon::resume(scenario, config);
        let restore_s = t_restore.elapsed().as_secs_f64();
        cx.tr.end(restore);
        out.wall_s = t0.elapsed().as_secs_f64();
        cx.tr.end(pass);

        // Output checks (outside the timed phase).
        let c = &mut cx.checks;
        c.ok(requests - bad_replies);
        for _ in 0..bad_replies {
            c.expect(false, || {
                "daemon_session: a request was refused".to_string()
            });
        }
        c.expect(snapshot_errors.is_empty(), || {
            format!("daemon_session: snapshot write failed: {snapshot_errors:?}")
        });
        c.expect(flushed.is_ok(), || {
            "daemon_session: journal flush failed".to_string()
        });
        let live = s.daemon.engine().state_signature();
        match resumed.map_err(|e| e.to_string()).map(|mut d| {
            d.advance_to(now);
            d.engine().state_signature()
        }) {
            Ok(sig) => {
                c.expect(sig == live, || {
                    format!("daemon_session: resumed signature {sig:016x} != live {live:016x}")
                });
            }
            Err(e) if is_known_replay_defect(&e) => c.known_defect(format!("daemon_session: {e}")),
            Err(e) => {
                c.expect(false, || format!("daemon_session: resume failed: {e}"));
            }
        }

        // Probes outside the timed phase: the steps of the restore the
        // pass timed as one call, and what one scrape pays in each
        // report at the session's final state.
        if cx.tr.on {
            resume_steps(&s.scenario, &s.config, cx);
            for _ in 0..3 {
                let engine = s.daemon.engine();
                let open = cx.tr.begin("billing.cost_report");
                std::hint::black_box(engine.cost_report());
                cx.tr.end(open);
                let open = cx.tr.begin("controller.availability_report");
                std::hint::black_box(engine.availability_report());
                cx.tr.end(open);
            }
        }

        let engine = s.daemon.engine();
        let snap_dir = s
            .config
            .snapshot_dir
            .as_ref()
            .expect("snapshot dir configured");
        let (snap_bytes, snap_cmds) = match latest_snapshot(snap_dir) {
            Ok(Some(p)) => (
                std::fs::metadata(&p).map_or(0, |m| m.len()),
                Snapshot::read(&p).map_or(0, |snap| snap.commands.len()),
            ),
            _ => (0, 0),
        };
        let scrapes = out
            .samples
            .iter()
            .filter(|(n, _)| *n == "service.scrape")
            .count();
        let avail = engine.availability_report();
        out.scalars = vec![
            ("engine.steps", engine.steps() as f64),
            ("journal.spilled", engine.journal().spilled() as f64),
            ("journal.dropped", engine.journal().dropped() as f64),
            ("snapshot.bytes", snap_bytes as f64),
            ("snapshot.commands", snap_cmds as f64),
            ("snapshot.restore_s", restore_s),
            ("service.scrapes", scrapes as f64),
            ("controller.revocations", avail.revocations as f64),
            ("controller.migrations", avail.migrations as f64),
            (
                "controller.returns",
                engine.journal().counters().returns_completed as f64,
            ),
        ];
        out
    }
}

/// The steps of `Daemon::resume`, each in its own span: newest
/// snapshot, journal-sink tail, replay, tail replay. Their results are
/// dropped; the timed `Daemon::resume` is the one that is checked.
fn resume_steps(scenario: &Scenario, config: &DaemonConfig, cx: &mut Cx) {
    let dir = config
        .snapshot_dir
        .as_ref()
        .expect("snapshot dir configured");
    let sink = config
        .journal_sink
        .as_ref()
        .expect("journal sink configured");
    let open = cx.tr.begin("snapshot.read");
    let snap = latest_snapshot(dir)
        .and_then(|p| p.ok_or_else(|| std::io::Error::other("no snapshot written")))
        .and_then(|p| Snapshot::read(&p));
    cx.tr.end(open);
    let Ok(snap) = snap else { return };
    let open = cx.tr.begin("journal.tail_read");
    let tail = read_command_tail(sink, snap.commands.len() as u64);
    cx.tr.end(open);
    let open = cx.tr.begin("snapshot.replay");
    let engine = Engine::restore(scenario, &snap);
    cx.tr.end(open);
    if let (Ok(mut engine), Ok(tail)) = (engine, tail) {
        let open = cx.tr.begin("journal.tail_replay");
        let _ = tail.iter().try_for_each(|cmd| engine.replay(cmd));
        cx.tr.end(open);
    }
}
