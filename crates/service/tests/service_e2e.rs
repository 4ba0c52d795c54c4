//! End-to-end resumability: a daemon-style run with mid-run command
//! injection, a periodic snapshot, and a journal spill sink must be
//! reconstructible — kill the process, cold-start from the snapshot plus
//! the sink's replay tail, and converge on a final state *byte-identical*
//! to the uninterrupted run, under both queue backends.

use std::path::PathBuf;

use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::engine::{Command, CommandOutcome, Engine, Scenario};
use spotcheck_core::sim::standard_traces;
use spotcheck_core::snapshot::Snapshot;
use spotcheck_core::types::CustomerId;
use spotcheck_service::{latest_snapshot, read_command_tail, Daemon, DaemonConfig};
use spotcheck_simcore::queue::QueueBackend;
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_workloads::WorkloadKind;

fn scratch_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("spotcheck-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn quick_scenario() -> Scenario {
    Scenario::new(
        standard_traces("us-east-1a", SimDuration::from_days(2), 42),
        SpotCheckConfig::default(),
    )
}

fn create_customer(engine: &mut Engine) -> CustomerId {
    match engine.apply(Command::CreateCustomer) {
        Ok(CommandOutcome::Customer(c)) => c,
        other => panic!("unexpected outcome {other:?}"),
    }
}

/// Drives the "live" half of the scenario on `engine`: commands injected
/// at t=0, 6 h (before the snapshot instant) and 18 h (after it, i.e. in
/// the replay tail), interleaved with stepping. Returns the snapshot
/// taken at the 12 h mark.
fn drive_live_run(engine: &mut Engine, snapshot_path: &std::path::Path) -> Snapshot {
    let c = create_customer(engine);
    engine
        .apply(Command::Provision {
            customer: c,
            workload: WorkloadKind::TpcW,
            stateless: false,
        })
        .expect("provision at t=0");
    engine.step_until(SimTime::from_hours(6));
    engine
        .apply(Command::Provision {
            customer: c,
            workload: WorkloadKind::SpecJbb,
            stateless: true,
        })
        .expect("provision at 6h");
    engine.step_until(SimTime::from_hours(12));
    let snap = engine.snapshot();
    snap.write_atomic(snapshot_path).expect("write snapshot");
    // Life continues after the snapshot: these land only in the sink.
    engine.step_until(SimTime::from_hours(18));
    engine
        .apply(Command::SetReturnToSpot { enabled: false })
        .expect("policy change at 18h");
    engine
        .apply(Command::Provision {
            customer: c,
            workload: WorkloadKind::TpcW,
            stateless: false,
        })
        .expect("provision at 18h");
    engine.step_until(SimTime::from_days(2));
    snap
}

fn cold_start_matches_uninterrupted(backend: QueueBackend) {
    let dir = scratch_dir(&format!("cold-{}", backend.label()));
    let sink = dir.join("journal.jsonl");
    let snap_path = dir.join("snapshot-00000000000043200000000.txt");
    let scenario = quick_scenario();

    // The run that gets "killed" — except we let it finish so its final
    // state is the reference the cold start must reproduce.
    let mut live = scenario.build_with_backend(backend);
    live.journal_mut().set_sink(&sink).expect("open sink");
    let snap = drive_live_run(&mut live, &snap_path);
    live.journal_mut().flush_sink().expect("flush sink");
    let want_signature = live.state_signature();
    let want_journal = live.journal().to_json();
    let want_steps = live.steps();

    // Cold start: newest snapshot + the sink's command tail.
    let found = latest_snapshot(&dir)
        .expect("scan snapshot dir")
        .expect("a snapshot exists");
    let parsed = Snapshot::read(&found).expect("read snapshot");
    assert_eq!(parsed, snap, "snapshot file roundtrips");

    let tail = read_command_tail(&sink, parsed.commands.len() as u64).expect("read tail");
    assert_eq!(tail.len(), 2, "policy change + provision landed after the snapshot");

    let mut revived = Engine::restore_with_backend(&scenario, &parsed, backend).expect("restore");
    for cmd in &tail {
        revived.replay(cmd).expect("replay tail");
    }
    revived.step_until(SimTime::from_days(2));

    assert_eq!(revived.steps(), want_steps);
    assert_eq!(revived.state_signature(), want_signature);
    assert_eq!(revived.journal().to_json(), want_journal);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_start_is_byte_identical_wheel() {
    cold_start_matches_uninterrupted(QueueBackend::Wheel);
}

#[test]
fn cold_start_is_byte_identical_heap() {
    cold_start_matches_uninterrupted(QueueBackend::Heap);
}

#[test]
fn restoring_under_the_other_backend_also_converges() {
    let dir = scratch_dir("cross-backend");
    let sink = dir.join("journal.jsonl");
    let snap_path = dir.join("snapshot-1.txt");
    let scenario = quick_scenario();

    let mut live = scenario.build_with_backend(QueueBackend::Wheel);
    live.journal_mut().set_sink(&sink).expect("open sink");
    drive_live_run(&mut live, &snap_path);
    let want = live.state_signature();

    let parsed = Snapshot::read(&snap_path).expect("read snapshot");
    let tail = read_command_tail(&sink, parsed.commands.len() as u64).expect("read tail");
    let mut revived =
        Engine::restore_with_backend(&scenario, &parsed, QueueBackend::Heap).expect("restore");
    for cmd in &tail {
        revived.replay(cmd).expect("replay tail");
    }
    revived.step_until(SimTime::from_days(2));
    assert_eq!(revived.state_signature(), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_resume_reconstructs_the_interrupted_state() {
    let dir = scratch_dir("daemon-resume");
    let sink = dir.join("journal.jsonl");
    let scenario = quick_scenario();
    let config = DaemonConfig {
        accel: 1e9,
        horizon: SimTime::from_days(2),
        snapshot_dir: Some(dir.clone()),
        snapshot_every: SimDuration::from_hours(6),
        journal_sink: Some(sink.clone()),
    };

    // A "daemon" run driven directly (no socket): snapshot mid-run, then
    // more commands, then the process dies without a final snapshot.
    let (want_signature, want_now) = {
        let mut daemon = Daemon::new(scenario.clone(), config.clone()).expect("daemon");
        assert!(daemon.handle_line(r#"{"op": "create_customer"}"#).contains("\"ok\": true"));
        assert!(daemon
            .handle_line(r#"{"op": "provision", "customer": 0, "workload": "tpcw"}"#)
            .contains("\"vm\": 0"));
        daemon.advance_to(SimTime::from_hours(12));
        daemon.write_snapshot().expect("periodic snapshot");
        daemon.advance_to(SimTime::from_hours(18));
        assert!(daemon
            .handle_line(r#"{"op": "provision", "customer": 0, "workload": "specjbb", "stateless": true}"#)
            .contains("\"ok\": true"));
        // Simulate a crash: flush the sink (the OS would have the data),
        // but take no further snapshot.
        daemon.flush().expect("flush sink");
        (daemon.engine().state_signature(), daemon.engine().now())
    };

    let revived = Daemon::resume(scenario, config).expect("resume");
    assert_eq!(revived.engine().now(), want_now);
    assert_eq!(revived.engine().state_signature(), want_signature);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_round_trips_without_a_socket() {
    let scenario = quick_scenario();
    let mut daemon = Daemon::new(scenario, DaemonConfig::default()).expect("daemon");

    let status = daemon.handle_line(r#"{"op": "status"}"#);
    assert!(status.contains("\"ok\": true"), "{status}");
    assert!(status.contains("\"now_secs\": 0"), "{status}");

    assert!(daemon
        .handle_line(r#"{"op": "create_customer"}"#)
        .contains("\"customer\": 0"));
    assert!(daemon
        .handle_line(r#"{"op": "provision", "customer": 0}"#)
        .contains("\"vm\": 0"));
    let metrics = daemon.handle_line("GET metrics");
    assert!(metrics.contains("\"availability_pct\""), "{metrics}");
    assert!(metrics.contains("\"counters\""), "{metrics}");
    assert!(!metrics.contains('\n'), "metrics must be one line");
    assert!(daemon
        .handle_line(r#"{"op": "policy", "return_to_spot": false}"#)
        .contains("\"return_to_spot\": false"));
    assert!(daemon
        .handle_line(r#"{"op": "release", "vm": 404}"#)
        .contains("\"ok\": false"));
    assert!(daemon
        .handle_line(r#"{"op": "snapshot"}"#)
        .contains("no snapshot dir"));
    assert!(daemon.handle_line("not json").contains("\"ok\": false"));
    assert!(daemon
        .handle_line(r#"{"op": "warp"}"#)
        .contains("unknown op"));
    assert!(!daemon.shutdown_requested());
    assert!(daemon
        .handle_line(r#"{"op": "shutdown"}"#)
        .contains("\"shutting_down\": true"));
    assert!(daemon.shutdown_requested());
}

/// Two commands in one instant: the first provision schedules its first
/// event at that instant, and the second command is applied before that
/// event runs. Resume must replay both at the recorded step count — from
/// the snapshot's command log and from the sink tail — instead of firing
/// the pending event first.
#[test]
fn same_instant_commands_resume_to_the_live_signature() {
    let dir = scratch_dir("same-instant");
    let scenario = quick_scenario();
    let config = DaemonConfig {
        accel: 1.0,
        horizon: SimTime::from_days(2),
        snapshot_dir: Some(dir.join("snapshots")),
        snapshot_every: SimDuration::from_days(2),
        journal_sink: Some(dir.join("journal.jsonl")),
    };
    let provision = r#"{"op": "provision", "customer": 0, "workload": "tpcw"}"#;
    let (want_signature, want_now) = {
        let mut daemon = Daemon::new(scenario.clone(), config.clone()).expect("daemon");
        assert!(daemon.handle_line(r#"{"op": "create_customer"}"#).contains("\"ok\": true"));
        daemon.advance_to(SimTime::from_hours(1));
        assert!(daemon.handle_line(provision).contains("\"vm\": 0"));
        assert!(daemon.handle_line(provision).contains("\"vm\": 1"));
        // The snapshot is taken with the provisions' events still pending.
        daemon.write_snapshot().expect("snapshot");
        daemon.advance_to(SimTime::from_hours(3));
        assert!(daemon.handle_line(provision).contains("\"vm\": 2"));
        assert!(daemon.handle_line(r#"{"op": "release", "vm": 0}"#).contains("\"ok\": true"));
        daemon.flush().expect("flush sink");
        (daemon.engine().state_signature(), daemon.engine().now())
    };

    let mut revived = Daemon::resume(scenario, config).expect("resume");
    assert_eq!(revived.engine().now(), want_now);
    assert_eq!(revived.engine().state_signature(), want_signature);
    // Advancing to the instant it resumed at leaves the pending events
    // pending, as in the live run.
    revived.advance_to(want_now);
    assert_eq!(revived.engine().state_signature(), want_signature);
    std::fs::remove_dir_all(&dir).ok();
}

/// A sink line written before command records carried their step count
/// is refused with its line number, not replayed at a guessed position.
#[test]
fn sink_command_without_step_is_a_line_numbered_error() {
    let dir = scratch_dir("old-sink");
    let sink = dir.join("journal.jsonl");
    std::fs::write(
        &sink,
        "{\"t\": 0.0, \"subsystem\": \"controller\", \"kind\": \"command\", \
         \"seq\": 0, \"cmd\": \"create_customer\", \"a\": 0, \"b\": 0, \"c\": 0}\n",
    )
    .expect("write sink");
    let err = read_command_tail(&sink, 0).expect_err("old line refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("sink line 1: bad `step`"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every sink line is checked against the JSON grammar, not only command
/// lines past the snapshot: a malformed entry of another kind, even one
/// written before the snapshot's seq, is a line-numbered error with the
/// parser's message.
#[test]
fn malformed_non_command_sink_line_is_a_line_numbered_error() {
    let dir = scratch_dir("bad-entry");
    let sink = dir.join("journal.jsonl");
    let command = "{\"t\": 0.0, \"subsystem\": \"controller\", \"kind\": \"command\", \
                   \"seq\": 0, \"step\": 0, \"cmd\": \"create_customer\", \"a\": 0, \"b\": 0, \"c\": 0}";
    let entry = "{\"t\": 1.0, \"subsystem\": \"controller\", \"kind\": \"revocation_warning\"";
    let cases = [
        (
            format!("{entry}, \"vm\": [1]}}"),
            "sink line 2: unsupported value starting `[` at byte 74",
        ),
        (
            format!("{entry}, \"vm\": 1}} x"),
            "sink line 2: trailing `x` at byte 77",
        ),
        (
            format!("{entry}, \"vm\": 1e}}"),
            "sink line 2: bad number `1e`",
        ),
        (
            format!("{entry}, \"vm\": \"a\\q\"}}"),
            "sink line 2: bad escape `\\q` at byte 77",
        ),
        (
            format!("{entry}, \"vm\": tru}}"),
            "sink line 2: bad literal (expected `true`)",
        ),
        (
            entry.to_string(),
            "sink line 2: expected `}`, found end of input",
        ),
    ];
    for (bad, want) in cases {
        std::fs::write(&sink, format!("{command}\n{bad}\n")).expect("write sink");
        let err = read_command_tail(&sink, 1).expect_err("malformed line refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), want, "line {bad:?}");
    }
    // The same lines, well formed, are skipped.
    std::fs::write(&sink, format!("{command}\n{entry}, \"vm\": 1}}\n")).expect("write sink");
    assert!(read_command_tail(&sink, 1).expect("valid sink").is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Drives a two-client session for a simulated day (two commands per
/// ten-minute tick, snapshots every 6 h), scraping `GET metrics` every
/// tick or only at the end, and returns the final metrics line.
fn scripted_session(dir: &std::path::Path, scrape_every_tick: bool) -> (String, DaemonConfig) {
    let config = DaemonConfig {
        accel: 1.0,
        horizon: SimTime::from_days(2),
        snapshot_dir: Some(dir.join("snapshots")),
        snapshot_every: SimDuration::from_days(2),
        journal_sink: Some(dir.join("journal.jsonl")),
    };
    let mut daemon = Daemon::new(quick_scenario(), config.clone()).expect("daemon");
    assert!(daemon.handle_line(r#"{"op": "create_customer"}"#).contains("\"ok\": true"));
    let mut vms = 0u64;
    for tick in 1..=144u64 {
        daemon.advance_to(SimTime::from_secs(tick * 600));
        for client in 0..2u64 {
            let line = if (tick + client) % 3 == 0 && vms > 4 {
                format!(r#"{{"op": "release", "vm": {}}}"#, (tick * 7 + client) % vms)
            } else {
                vms += 1;
                r#"{"op": "provision", "customer": 0}"#.to_string()
            };
            assert!(daemon.handle_line(&line).starts_with("{\"ok\""), "{line}");
        }
        if scrape_every_tick {
            assert!(daemon.handle_line("GET metrics").starts_with("{\"ok\": true"));
        }
        if tick % 36 == 0 {
            daemon.write_snapshot().expect("snapshot");
        }
    }
    daemon.flush().expect("flush sink");
    (daemon.handle_line("GET metrics"), config)
}

/// The billing ledger is a cache: how often a session scrapes, and
/// whether the daemon was resumed from disk, must not change a byte of
/// the final `metrics` line.
#[test]
fn metrics_line_is_independent_of_scrape_cadence_and_resume() {
    let every_dir = scratch_dir("scrape-every-tick");
    let end_dir = scratch_dir("scrape-at-end");
    let (every_tick, config) = scripted_session(&every_dir, true);
    let (at_end, _) = scripted_session(&end_dir, false);
    assert!(every_tick.contains("\"native_cost\""), "{every_tick}");
    assert_eq!(every_tick, at_end);
    let mut resumed = Daemon::resume(quick_scenario(), config).expect("resume");
    assert_eq!(resumed.handle_line("GET metrics"), every_tick);
    std::fs::remove_dir_all(&every_dir).ok();
    std::fs::remove_dir_all(&end_dir).ok();
}
