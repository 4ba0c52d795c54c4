//! Turning a run into metrics: the end-to-end set (untraced run), the
//! per-layer set (traced run), the human-readable lines, and the final
//! JSON line. Also the self-test and the digest printer.

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::trace::Span;
use crate::{measure, Cx, RunData, Size, WORKLOADS};

/// End-to-end metrics: (name, unit). Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")];

/// Where a per-layer metric comes from. Each part of a workload has a
/// representative pass, its fastest traced one; "the representative
/// passes" are those of every part.
#[derive(Clone, Copy)]
enum Src {
    /// Seconds summed over spans of this name in the representative
    /// passes (set-up spans: per set-up in the fastest traced burst).
    Span(&'static str),
    /// Median milliseconds of one span of this name.
    SpanMedianMs(&'static str),
    /// A per-pass value summed over the representative passes.
    Scalar(&'static str),
    /// The largest of a per-pass value over the representative passes.
    ScalarMax(&'static str),
    /// Quantile of a pooled sample.
    Q(&'static str, f64),
    /// A per-pass value divided by a span's seconds, both summed over
    /// the representative passes.
    PerSpanSec(&'static str, &'static str),
    /// Fastest untraced pass of the named part (0 if the workload does
    /// not run it).
    PartWall(&'static str),
    /// Walls of the representative passes, summed.
    TracedWall,
    /// Those walls minus their passes' top-level spans.
    Residual,
    /// Sum of each part's fastest traced pass / the same of untraced ones.
    Overhead,
    Nproc,
    Parallelism,
    SpinMs,
}

/// Per-layer metrics: (name, unit, source). Every workload reports all
/// of them; a layer a workload does not touch reads 0.
const PER_LAYER: &[(&str, &str, Src)] = &[
    ("trace.wall_s", "s", Src::TracedWall),
    ("residual_s", "s", Src::Residual),
    ("trace.overhead", "ratio", Src::Overhead),
    ("host.nproc", "count", Src::Nproc),
    ("host.parallelism", "ratio", Src::Parallelism),
    ("host.spin_ms", "ms", Src::SpinMs),
    // each part's fastest untraced pass
    ("fleet_storm.wall_s", "s", Src::PartWall("fleet_storm")),
    (
        "contended_storm.wall_s",
        "s",
        Src::PartWall("contended_storm"),
    ),
    (
        "daemon_session.wall_s",
        "s",
        Src::PartWall("daemon_session"),
    ),
    ("trace_grid.wall_s", "s", Src::PartWall("trace_grid")),
    // core::shardsim, simcore::shard (fleet_storm)
    ("shardsim.build_s", "s", Src::Span("shardsim.build")),
    ("shardsim.ramp_s", "s", Src::Span("shardsim.ramp")),
    ("shardsim.steady_s", "s", Src::Span("shardsim.steady")),
    ("shardsim.storm_s", "s", Src::Span("shardsim.storm")),
    ("shardsim.recover_s", "s", Src::Span("shardsim.recover")),
    ("shardsim.steps", "count", Src::Scalar("shardsim.steps")),
    (
        "shardsim.steps_per_s",
        "1/s",
        Src::Scalar("shardsim.steps_per_s"),
    ),
    ("shardsim.epochs", "count", Src::Scalar("shardsim.epochs")),
    (
        "shardsim.epochs_ff",
        "count",
        Src::Scalar("shardsim.epochs_ff"),
    ),
    (
        "shardsim.ff_ratio",
        "ratio",
        Src::Scalar("shardsim.ff_ratio"),
    ),
    (
        "shardsim.messages",
        "count",
        Src::Scalar("shardsim.messages"),
    ),
    // simcore::queue, simcore::metrics
    (
        "queue.peak_depth",
        "count",
        Src::ScalarMax("queue.peak_depth"),
    ),
    ("sim.events", "count", Src::Scalar("sim.events")),
    // core::controller, journal (checks)
    (
        "controller.revocations",
        "count",
        Src::Scalar("controller.revocations"),
    ),
    (
        "controller.migrations",
        "count",
        Src::Scalar("controller.migrations"),
    ),
    (
        "controller.returns",
        "count",
        Src::Scalar("controller.returns"),
    ),
    ("journal.dropped", "count", Src::Scalar("journal.dropped")),
    // simcore::fluid, controller::contention (contended_storm)
    ("contention.ramp_s", "s", Src::Span("contention.ramp")),
    ("contention.storm_s", "s", Src::Span("contention.storm")),
    (
        "contention.steps_per_s",
        "1/s",
        Src::Scalar("contention.steps_per_s"),
    ),
    (
        "contention.violations",
        "count",
        Src::Scalar("contention.violations"),
    ),
    // service (daemon_session)
    ("service.cmd_p50_us", "us", Src::Q("service.cmd", 0.50)),
    ("service.cmd_p99_us", "us", Src::Q("service.cmd", 0.99)),
    (
        "service.create_customer_p50_us",
        "us",
        Src::Q("service.create_customer", 0.50),
    ),
    (
        "service.create_customer_p99_us",
        "us",
        Src::Q("service.create_customer", 0.99),
    ),
    (
        "service.provision_p50_us",
        "us",
        Src::Q("service.provision", 0.50),
    ),
    (
        "service.provision_p99_us",
        "us",
        Src::Q("service.provision", 0.99),
    ),
    (
        "service.release_p50_us",
        "us",
        Src::Q("service.release", 0.50),
    ),
    (
        "service.release_p99_us",
        "us",
        Src::Q("service.release", 0.99),
    ),
    (
        "service.status_p50_us",
        "us",
        Src::Q("service.status", 0.50),
    ),
    (
        "service.status_p99_us",
        "us",
        Src::Q("service.status", 0.99),
    ),
    (
        "service.scrape_p50_ms",
        "ms",
        Src::Q("service.scrape", 0.50),
    ),
    (
        "service.scrape_p90_ms",
        "ms",
        Src::Q("service.scrape", 0.90),
    ),
    ("service.scrapes", "count", Src::Scalar("service.scrapes")),
    // core::engine
    ("engine.advance_s", "s", Src::Span("engine.advance")),
    ("engine.steps", "count", Src::Scalar("engine.steps")),
    // cloudsim::billing, controller reports (probed at session end)
    (
        "billing.cost_report_ms",
        "ms",
        Src::SpanMedianMs("billing.cost_report"),
    ),
    (
        "controller.availability_report_ms",
        "ms",
        Src::SpanMedianMs("controller.availability_report"),
    ),
    // core::snapshot
    (
        "snapshot.write_ms",
        "ms",
        Src::SpanMedianMs("snapshot.write"),
    ),
    ("snapshot.bytes", "bytes", Src::Scalar("snapshot.bytes")),
    (
        "snapshot.commands",
        "count",
        Src::Scalar("snapshot.commands"),
    ),
    ("snapshot.read_ms", "ms", Src::SpanMedianMs("snapshot.read")),
    ("snapshot.replay_s", "s", Src::Span("snapshot.replay")),
    (
        "snapshot.replay_cmds_per_s",
        "1/s",
        Src::PerSpanSec("snapshot.commands", "snapshot.replay"),
    ),
    ("snapshot.restore_s", "s", Src::Span("snapshot.restore")),
    // core::journal
    (
        "journal.tail_read_ms",
        "ms",
        Src::SpanMedianMs("journal.tail_read"),
    ),
    ("journal.flush_ms", "ms", Src::SpanMedianMs("journal.flush")),
    ("journal.spilled", "count", Src::Scalar("journal.spilled")),
    // spotmarket generator and archive (trace_grid)
    ("generator.fleet_s", "s", Src::Span("generator.fleet")),
    ("archive.write_s", "s", Src::Span("archive.write")),
    ("archive.load_s", "s", Src::Span("archive.load")),
    ("archive.points", "count", Src::Scalar("archive.points")),
    ("archive.bytes", "bytes", Src::Scalar("archive.bytes")),
    (
        "archive.load_mpts_per_s",
        "Mpts/s",
        Src::Scalar("archive.load_mpts_per_s"),
    ),
    // core::sim, TraceCursor (trace_grid)
    (
        "sim.policy_cell_p50_ms",
        "ms",
        Src::Q("sim.policy_cell", 0.50),
    ),
    (
        "sim.policy_cell_p99_ms",
        "ms",
        Src::Q("sim.policy_cell", 0.99),
    ),
    ("sim.cells", "count", Src::Scalar("sim.cells")),
    ("sim.grid_s", "s", Src::Span("sim.grid")),
];

/// Nearest-rank quantile of unsorted values (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples of one name pooled over every pass of a run.
fn pooled(data: &RunData, name: &str) -> Vec<f64> {
    data.passes
        .iter()
        .flat_map(|p| {
            p.out
                .samples
                .iter()
                .filter(|(k, _)| *k == name)
                .map(|(_, v)| *v)
        })
        .collect()
}

fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// Pass walls of part `k`, of traced or of untraced passes.
fn walls(data: &RunData, k: usize, traced: bool) -> Vec<f64> {
    data.passes
        .iter()
        .filter(|p| p.part == k && p.traced == traced)
        .map(|p| p.out.wall_s)
        .collect()
}

/// Each part's fastest pass (traced or untraced), summed over the parts.
fn fastest_sum(data: &RunData, traced: bool) -> f64 {
    (0..data.parts.len())
        .map(|k| fastest(&walls(data, k, traced)))
        .sum()
}

/// The untraced end-to-end metrics of a run.
pub fn end_to_end(data: &RunData) -> Vec<(&'static str, &'static str, f64)> {
    // Timings are the fastest set-up burst and, per part, the fastest
    // pass. The work of a pass is fixed by the seed, and on a shared host
    // other tenants only ever slow it: the same pass ran 1.7x slower for
    // stretches of seconds while a fixed integer spin did not move, so
    // the mean and median follow the share of slow stretches in the run,
    // while the fastest pass follows the program. Each part's fastest
    // pass is taken on its own, so each needs a fast stretch only as
    // long as its own pass.
    let values = [
        fastest(&data.setups),
        fastest_sum(data, false),
        data.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect()
}

/// Per-pass sums of a span name: (run id, seconds).
fn span_sums(spans: &[Span], name: &str) -> Vec<(u32, f64)> {
    let mut sums: Vec<(u32, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        match sums.iter_mut().find(|(p, _)| *p == s.pass) {
            Some((_, acc)) => *acc += s.secs(),
            None => sums.push((s.pass, s.secs())),
        }
    }
    sums
}

/// Per-burst span sums divided by the burst's set-ups.
fn per_setup(data: &RunData, sums: &[(u32, f64)]) -> Vec<f64> {
    sums.iter()
        .filter_map(|&(id, secs)| {
            let burst = id.checked_sub(crate::SETUP_RUN_ID)? as usize;
            Some(secs / *data.setup_reps.get(burst)? as f64)
        })
        .collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(data: &RunData, cx: &Cx) -> Vec<(&'static str, &'static str, f64)> {
    let spans = cx.tr.spans();
    let part_of = |id: u32| data.passes.get(id as usize).map(|p| p.part);
    // The representative pass of each part: its fastest traced pass, as
    // the end-to-end wall_s takes each part's fastest untraced one.
    let pass_sums = span_sums(spans, "pass");
    let reps: Vec<(u32, f64)> = (0..data.parts.len())
        .filter_map(|k| {
            pass_sums
                .iter()
                .filter(|(id, _)| part_of(*id) == Some(k))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .copied()
        })
        .collect();
    let is_rep = |id: u32| reps.iter().any(|(r, _)| *r == id);
    let rep_wall: f64 = reps.iter().map(|(_, w)| w).sum();
    let children: f64 = spans
        .iter()
        .filter(|s| {
            s.parent
                .is_some_and(|p| spans[p].name == "pass" && is_rep(spans[p].pass))
        })
        .map(Span::secs)
        .sum();
    let scalars = |n: &str| -> Vec<f64> {
        reps.iter()
            .filter_map(|(id, _)| data.passes.get(*id as usize))
            .filter_map(|p| p.out.scalars.iter().find(|(k, _)| *k == n))
            .map(|(_, v)| *v)
            .collect()
    };
    let scalar = |n: &str| scalars(n).iter().sum::<f64>();
    // Seconds of a span in the representative passes; set-up spans, which
    // no pass holds, are per set-up in the fastest burst, as setup_s is.
    let span_secs = |n: &str| {
        let sums = span_sums(spans, n);
        let in_reps: Vec<f64> = sums
            .iter()
            .filter(|(id, _)| is_rep(*id))
            .map(|(_, s)| *s)
            .collect();
        if in_reps.is_empty() {
            fastest(&per_setup(data, &sums))
        } else {
            in_reps.iter().sum()
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, src)| {
            let v = match src {
                Src::Span(n) => span_secs(n),
                Src::SpanMedianMs(n) => {
                    let ms: Vec<f64> = spans
                        .iter()
                        .filter(|s| s.name == n)
                        .map(|s| s.secs() * 1e3)
                        .collect();
                    median(&ms)
                }
                Src::Scalar(n) => scalar(n),
                Src::ScalarMax(n) => scalars(n).into_iter().fold(0.0, f64::max),
                Src::PerSpanSec(n, d) => {
                    let secs = span_secs(d);
                    if secs > 0.0 {
                        scalar(n) / secs
                    } else {
                        0.0
                    }
                }
                Src::Q(n, q) => quantile(&pooled(data, n), q),
                Src::PartWall(n) => data
                    .parts
                    .iter()
                    .position(|p| *p == n)
                    .map_or(0.0, |k| fastest(&walls(data, k, false))),
                Src::TracedWall => rep_wall,
                Src::Residual => rep_wall - children,
                Src::Overhead => {
                    let (on, off) = (fastest_sum(data, true), fastest_sum(data, false));
                    if off > 0.0 {
                        on / off
                    } else {
                        0.0
                    }
                }
                Src::Nproc => data.host.nproc as f64,
                Src::Parallelism => data.host.parallelism,
                Src::SpinMs => data.host.spin_ms,
            };
            (name, unit, v)
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The final JSON line.
fn result_line(cx: &Cx, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        cx.checks.correct(),
        cx.checks.tally().attempted.max(1),
        cx.checks.tally().failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    s.push_str("}}");
    s
}

/// Human-readable lines for a run, ending with the end-to-end and (if
/// traced) per-layer metrics by name and unit.
fn describe(
    name: &str,
    seed: u64,
    data: &RunData,
    cx: &Cx,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut s = String::new();
    let h = &data.host;
    let _ = writeln!(
        s,
        "workload {name}  seed {seed}  parts {}  passes {}  set-ups {}",
        data.parts.join(" "),
        data.passes.len(),
        data.setups.len()
    );
    let _ = writeln!(
        s,
        "host: nproc {}  effective parallelism {:.2}  spin {:.1} ms",
        h.nproc, h.parallelism, h.spin_ms
    );
    for (k, part) in data.parts.iter().enumerate() {
        let all: Vec<f64> = data
            .passes
            .iter()
            .filter(|p| p.part == k)
            .map(|p| p.out.wall_s)
            .collect();
        let _ = writeln!(
            s,
            "{part} pass walls: fastest {:.4} s  median {:.4} s  mean {:.4} s  ({} passes)",
            fastest(&all),
            median(&all),
            all.iter().sum::<f64>() / all.len().max(1) as f64,
            all.len()
        );
        let walls: Vec<String> = all.iter().map(|w| format!("{w:.4}")).collect();
        let _ = writeln!(s, "{part} pass walls (s): {}", walls.join(" "));
    }
    let _ = writeln!(
        s,
        "set-up bursts: {}  median {:.6} s  fastest {:.6} s  slowest {:.6} s",
        data.setups.len(),
        median(&data.setups),
        quantile(&data.setups, 0.0),
        quantile(&data.setups, 1.0)
    );
    let c = &cx.checks;
    let t = c.tally();
    let fail_frac = t.failed as f64 / t.attempted.max(1) as f64;
    let _ = writeln!(
        s,
        "fail_frac {fail_frac:.6} ({} failed of {} attempted in a pass; {} from known defects)",
        t.failed, t.attempted, t.known
    );
    for e in &c.errors {
        let _ = writeln!(s, "check FAILED: {e}");
    }
    for k in c.known.iter().take(3) {
        let _ = writeln!(s, "known defect counted: {k}");
    }
    if data.parts.contains(&"daemon_session") {
        daemon_lines(&mut s, data);
    }
    for (n, u, v) in metrics {
        let _ = writeln!(s, "  {n:<36} {v:>16.6} {u}");
    }
    s
}

/// The daemon workload's service-level figures by their own names.
fn daemon_lines(s: &mut String, data: &RunData) {
    let cmds = pooled(data, "service.cmd");
    let scrapes = pooled(data, "service.scrape");
    let restores: Vec<f64> = data
        .passes
        .iter()
        .filter_map(|p| {
            p.out
                .scalars
                .iter()
                .find(|(k, _)| *k == "snapshot.restore_s")
                .map(|(_, v)| *v)
        })
        .collect();
    let beyond = |n: usize, q: f64| n - (n as f64 * q).ceil() as usize;
    let _ = writeln!(
        s,
        "cmd_p50_us {:.2}  cmd_p99_us {:.2}  ({} commands, {} beyond p99)",
        quantile(&cmds, 0.5),
        quantile(&cmds, 0.99),
        cmds.len(),
        beyond(cmds.len(), 0.99)
    );
    let _ = writeln!(
        s,
        "scrape_p50_ms {:.3}  scrape_p90_ms {:.3}  ({} scrapes, {} beyond p90)",
        quantile(&scrapes, 0.5),
        quantile(&scrapes, 0.9),
        scrapes.len(),
        beyond(scrapes.len(), 0.9)
    );
    let _ = writeln!(
        s,
        "restore_s {:.4} (median of {} restores)",
        median(&restores),
        restores.len()
    );
}

/// Prints a run's description and its final JSON line; writes the spans
/// of a traced run to `.bench_spans/`.
pub fn emit(name: &str, seed: u64, trace: bool, data: &RunData, cx: &Cx) {
    let metrics = if trace {
        per_layer(data, cx)
    } else {
        end_to_end(data)
    };
    print!("{}", describe(name, seed, data, cx, &metrics));
    if trace {
        let dir = std::path::Path::new(".bench_spans");
        let path = dir.join(format!("{name}-seed{seed}.jsonl"));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, cx.tr.to_jsonl(name)))
        {
            Ok(()) => println!(
                "spans: {} written to {}",
                cx.tr.spans().len(),
                path.display()
            ),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    println!("{}", result_line(cx, &metrics));
}

/// Metric names `BENCHMARK.json` lists: (end-to-end, per-layer).
fn listed_names() -> Option<(Vec<String>, Vec<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).ok()?;
    let names = |section: &str| -> Vec<String> {
        section
            .split("\"name\"")
            .skip(1)
            .filter_map(|chunk| chunk.split('"').nth(1).map(str::to_string))
            .collect()
    };
    let (_, rest) = text.split_once("\"end_to_end\"")?;
    let (e2e, layers) = rest.split_once("\"per_layer\"")?;
    Some((names(e2e), names(layers)))
}

/// Every workload at tiny size, untraced and traced: prints every metric
/// with its unit, and fails on any check other than the counted known
/// defect, or on a metric `BENCHMARK.json` lists that a run did not print.
pub fn self_test() -> ExitCode {
    let mut ok = true;
    let listed = listed_names();
    if listed.is_none() {
        println!("self-test: BENCHMARK.json not found; metric names not cross-checked");
    }
    for (name, _) in WORKLOADS {
        for trace in [false, true] {
            let (data, cx) = match measure(name, Size::Tiny, 7, 0.0, trace) {
                Ok(r) => r,
                Err(e) => {
                    println!("self-test: {name}: {e}");
                    ok = false;
                    continue;
                }
            };
            emit(name, 7, trace, &data, &cx);
            if let Some((e2e, layers)) = &listed {
                let (expected, printed): (&Vec<String>, Vec<&str>) = if trace {
                    (layers, PER_LAYER.iter().map(|m| m.0).collect())
                } else {
                    (e2e, END_TO_END.iter().map(|m| m.0).collect())
                };
                let listed: Vec<&str> = expected.iter().map(String::as_str).collect();
                if listed != printed {
                    println!("self-test: {name}: BENCHMARK.json lists {listed:?}, the run printed {printed:?}");
                    ok = false;
                }
            }
            if !cx.checks.correct() {
                println!("self-test: {name} (trace {}): checks failed", trace as u8);
                ok = false;
            }
            // A set-up span must time one set-up, not a burst of them.
            if data.parts.contains(&"fleet_storm") && trace {
                let build = per_layer(&data, &cx)
                    .iter()
                    .find(|m| m.0 == "shardsim.build_s")
                    .map_or(0.0, |m| m.2);
                let setup = fastest(&data.setups);
                if !(build > 0.0 && build < setup * 1.5) {
                    println!(
                        "self-test: shardsim.build_s {build:.6} s is not one set-up ({setup:.6} s)"
                    );
                    ok = false;
                }
            }
        }
    }
    println!("self-test: {}", if ok { "PASS" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs two full-size passes of part `name` and prints the outcome
/// digest (the value the part's `PINS` table records for the seed).
pub fn print_digest(name: &str, seed: u64) -> Result<(), String> {
    let (_, cx) = measure(name, Size::Full, seed, 0.0, false)?;
    match (cx.checks.digest_of(0), cx.checks.correct()) {
        (Some(d), true) => {
            println!("({seed}, 0x{d:016x}),");
            Ok(())
        }
        (Some(_), false) => Err(format!("{name}: checks failed: {:?}", cx.checks.errors)),
        (None, _) => Err(format!("{name} pins no outcome digest")),
    }
}
