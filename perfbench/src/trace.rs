//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into the program's public functions: each has a name, start and end
//! (nanoseconds since the recorder was created), the index of its parent
//! span, and the pass ("run id") it belongs to. Nothing is written until
//! the benchmark exits. With tracing off every call is a branch on a
//! bool, so the untraced run that yields the end-to-end numbers does no
//! recording work.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The recorder. `on` is toggled per pass by the runner.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the run id stamped on spans opened from now on.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96);
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"workload\": \"{workload}\", \"run\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                sp.pass, sp.name, sp.start_ns, sp.end_ns
            );
        }
        s
    }
}
