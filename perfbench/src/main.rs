//! The repository benchmark: workloads driven in one process through the
//! program's public functions. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --self-test
//! perfbench --digest NAME --seed N
//! ```
//!
//! A workload is one or more parts. A run sets up, then repeats rounds
//! (one whole pass of every part) until `--seconds` have elapsed, and
//! reports the fastest set-up and the sum of each part's fastest pass. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`).

mod checks;
mod contended_storm;
mod daemon_session;
mod fleet_storm;
mod host;
mod report;
mod trace;
mod trace_grid;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use checks::Checks;
use trace::Tracer;

/// Input size: `Full` for measurement, `Tiny` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// What a workload's code sees: the seed, size, scratch directory, the
/// span recorder, and the output-check tally.
pub struct Cx {
    pub seed: u64,
    pub size: Size,
    pub work: PathBuf,
    pub tr: Tracer,
    pub checks: Checks,
    /// Run id of the current pass (stamped on spans).
    pub pass: u32,
}

/// What one timed pass returns. `wall_s` covers the pass's timed phase
/// only; output checks run after it.
#[derive(Default)]
pub struct PassOut {
    pub wall_s: f64,
    /// Named latency samples pooled across passes (per-layer
    /// percentiles), in the unit the metric is reported in.
    pub samples: Vec<(&'static str, f64)>,
    /// Named per-pass values (counts, rates).
    pub scalars: Vec<(&'static str, f64)>,
}

/// One part of a benchmark workload: a complete piece of work whose
/// pass is timed on its own.
pub trait Workload {
    type State;
    /// True if every pass needs freshly built state (a pass consumes it).
    const SETUP_EVERY_PASS: bool;
    /// Builds inputs and program state; timed as `setup_s`.
    fn setup(&self, cx: &mut Cx) -> Self::State;
    /// Runs one timed pass over `state`, then checks its outputs.
    fn pass(&self, state: &mut Self::State, cx: &mut Cx) -> PassOut;
}

/// A part with its state, behind one object-safe interface so that a
/// workload can hold parts of different types.
pub trait Part {
    fn name(&self) -> &'static str;
    /// Drops the part's state (outside any timing).
    fn clear(&mut self);
    /// Builds the part's state.
    fn setup(&mut self, cx: &mut Cx);
    /// Runs one timed pass. State that is missing, or that the last pass
    /// consumed, is first rebuilt untimed and untraced.
    fn pass(&mut self, cx: &mut Cx) -> PassOut;
}

struct Slot<W: Workload> {
    name: &'static str,
    w: W,
    state: Option<W::State>,
    /// True until a pass has used the state.
    fresh: bool,
}

impl<W: Workload> Part for Slot<W> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn clear(&mut self) {
        drop(self.state.take());
    }

    fn setup(&mut self, cx: &mut Cx) {
        self.state = Some(self.w.setup(cx));
        self.fresh = true;
    }

    fn pass(&mut self, cx: &mut Cx) -> PassOut {
        if self.state.is_none() || (W::SETUP_EVERY_PASS && !self.fresh) {
            self.clear();
            let on = std::mem::replace(&mut cx.tr.on, false);
            self.setup(cx);
            cx.tr.on = on;
        }
        self.fresh = false;
        let state = self.state.as_mut().expect("set up above");
        self.w.pass(state, cx)
    }
}

fn slot<W: Workload + 'static>(name: &'static str, w: W) -> Box<dyn Part> {
    Box::new(Slot {
        name,
        w,
        state: None,
        fresh: false,
    })
}

/// Set-ups are timed in bursts spread over the run, so that `setup_s`
/// samples the host as often as the passes do. A burst repeats the
/// set-up of every part until it has taken `BURST_S` (at least once) and
/// yields one sample, its mean set-up time; `setup_s` is the fastest
/// sample. Burst `k` is due once `k / SETUP_BURSTS` of the run has
/// elapsed and bursts have taken at most `BURST_SHARE` of it, so a slow
/// set-up gets fewer bursts rather than crowding out the passes.
const BURST_S: f64 = 0.3;
const SETUP_BURSTS: usize = 12;
const BURST_SHARE: f64 = 0.25;
/// Bursts and rounds every run makes at least (two rounds, so a traced
/// run always has a traced and an untraced pass of every part).
const MIN_BURSTS: usize = 2;
const MIN_ROUNDS: usize = 2;
/// Rounds whose latency samples are kept. A cap keeps the benchmark's
/// own memory, and so `peak_rss_mb`, from growing with the number of
/// rounds a run happens to fit in.
const SAMPLE_ROUNDS: usize = 8;
/// Run ids of set-up bursts start here (passes count from 0).
pub const SETUP_RUN_ID: u32 = 1_000_000;

/// One timed pass of one part.
pub struct PassRec {
    /// Index of the part in the workload.
    pub part: usize,
    pub traced: bool,
    pub out: PassOut,
}

/// Everything measured in one run.
pub struct RunData {
    /// Names of the workload's parts.
    pub parts: Vec<&'static str>,
    /// Mean set-up seconds of each burst.
    pub setups: Vec<f64>,
    /// Set-ups each burst made (its spans sum over all of them).
    pub setup_reps: Vec<u32>,
    /// Every pass in run order; a pass's run id is its index here.
    pub passes: Vec<PassRec>,
    pub host: host::HostInfo,
    /// `VmHWM` in MiB after the first set-up burst and the first round.
    pub peak_rss_mb: f64,
}

/// Runs one burst of set-ups of every part and records its mean set-up
/// time and its repetitions; the parts keep the state the last set-up
/// built. All of a burst's spans carry its run id.
fn setup_burst(parts: &mut [Box<dyn Part>], cx: &mut Cx, data: &mut RunData, trace: bool) {
    let mut busy = 0.0;
    let mut reps = 0;
    cx.pass = SETUP_RUN_ID + data.setups.len() as u32;
    cx.tr.set_pass(cx.pass);
    while reps == 0 || busy < BURST_S {
        parts.iter_mut().for_each(|p| p.clear());
        cx.tr.on = trace;
        let t0 = Instant::now();
        for p in parts.iter_mut() {
            p.setup(cx);
        }
        busy += t0.elapsed().as_secs_f64();
        cx.tr.on = false;
        reps += 1;
    }
    data.setups.push(busy / reps as f64);
    data.setup_reps.push(reps);
}

/// Probes the host, then interleaves set-up bursts and rounds (one pass
/// of every part, in order) until `seconds` have elapsed.
pub fn run_workload(
    parts: &mut [Box<dyn Part>],
    cx: &mut Cx,
    seconds: f64,
    trace: bool,
) -> RunData {
    let mut data = RunData {
        parts: parts.iter().map(|p| p.name()).collect(),
        setups: Vec::new(),
        setup_reps: Vec::new(),
        passes: Vec::new(),
        host: host::probe(),
        peak_rss_mb: 0.0,
    };
    cx.checks.set_parts(parts.len());
    let mut burst_s = 0.0;
    let t_run = Instant::now();
    let mut round = 0usize;
    loop {
        let elapsed = t_run.elapsed().as_secs_f64();
        let bursts = data.setups.len();
        let over = elapsed >= seconds;
        if over && round >= MIN_ROUNDS && bursts >= MIN_BURSTS {
            break;
        }
        let burst_due = if over {
            bursts < MIN_BURSTS
        } else {
            bursts < SETUP_BURSTS
                && elapsed >= seconds * bursts as f64 / SETUP_BURSTS as f64
                && burst_s <= BURST_SHARE * elapsed
        };
        if burst_due {
            let t0 = Instant::now();
            setup_burst(parts, cx, &mut data, trace);
            burst_s += t0.elapsed().as_secs_f64();
        }
        // In a traced run, rounds alternate untraced/traced so the
        // tracing overhead is measured in the same run.
        let traced = trace && round % 2 == 1;
        for (k, part) in parts.iter_mut().enumerate() {
            cx.pass = data.passes.len() as u32;
            cx.tr.set_pass(cx.pass);
            cx.checks.set_part(k);
            cx.tr.on = traced;
            let mut out = part.pass(cx);
            cx.tr.on = false;
            cx.checks.end_pass(cx.pass);
            if round >= SAMPLE_ROUNDS {
                out.samples = Vec::new();
            }
            data.passes.push(PassRec {
                part: k,
                traced,
                out,
            });
        }
        // Later rounds only add heap fragmentation, which would tie the
        // figure to how many rounds the host's speed let the run fit.
        if round == 0 {
            data.peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
        }
        round += 1;
    }
    data
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

enum Mode {
    Run,
    SelfTest,
    Digest,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        mode: Mode::Run,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: not an integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds: not a number".to_string())?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: want 0 or 1".to_string()),
                }
            }
            "--self-test" => args.mode = Mode::SelfTest,
            "--digest" => {
                args.mode = Mode::Digest;
                args.workload = value("--digest")?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// The benchmark's workloads and their parts, in pass order.
pub const WORKLOADS: [(&str, &[&str]); 2] = [
    (
        "event_driven",
        &["fleet_storm", "contended_storm", "daemon_session"],
    ),
    ("trace_grid", &["trace_grid"]),
];

/// The parts `name` runs: a workload's parts, or one part by its own name.
fn parts(name: &str, size: Size) -> Option<Vec<Box<dyn Part>>> {
    let names = WORKLOADS
        .iter()
        .find(|(w, _)| *w == name)
        .map_or(vec![name], |(_, parts)| parts.to_vec());
    names
        .into_iter()
        .map(|p| match p {
            "fleet_storm" => Some(slot("fleet_storm", fleet_storm::FleetStorm::new(size))),
            "contended_storm" => Some(slot(
                "contended_storm",
                contended_storm::ContendedStorm::new(size),
            )),
            "daemon_session" => Some(slot(
                "daemon_session",
                daemon_session::DaemonSession::new(size),
            )),
            "trace_grid" => Some(slot("trace_grid", trace_grid::TraceGrid::new(size))),
            _ => None,
        })
        .collect()
}

/// Scratch space inside the current directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(tag: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Runs `name` and returns the run data plus the checks tally and spans.
fn measure(
    name: &str,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(RunData, Cx), String> {
    spotcheck_simcore::parallel::set_max_threads(1);
    spotcheck_core::shardsim::ShardedFleetSim::set_workers(1);
    let work = WorkDir::create(name).map_err(|e| format!("cannot create scratch dir: {e}"))?;
    let mut cx = Cx {
        seed,
        size,
        work: work.0.clone(),
        tr: Tracer::new(),
        checks: Checks::default(),
        pass: 0,
    };
    let Some(mut parts) = parts(name, size) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!(
            "unknown workload `{name}` (want one of {names:?}, or one of their parts)"
        ));
    };
    let data = run_workload(&mut parts, &mut cx, seconds, trace);
    Ok((data, cx))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match args.mode {
        Mode::SelfTest => report::self_test(),
        Mode::Digest => match report::print_digest(&args.workload, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Mode::Run => {
            if args.workload.is_empty() {
                eprintln!("perfbench: --workload is required");
                return ExitCode::FAILURE;
            }
            match measure(
                &args.workload,
                Size::Full,
                args.seed,
                args.seconds,
                args.trace,
            ) {
                Ok((data, cx)) => {
                    report::emit(&args.workload, args.seed, args.trace, &data, &cx);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
