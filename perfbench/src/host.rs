//! Per-run host diagnostics: reported next to the metrics so host drift
//! can be told apart from a regression. None of them is an end-to-end
//! metric.

use std::hint::black_box;
use std::time::Instant;

/// A fixed amount of integer work (xorshift steps).
fn spin(rounds: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

const SPIN_ROUNDS: u64 = 40_000_000;

/// Wall seconds of one fixed spin on this thread.
fn spin_secs() -> f64 {
    let t0 = Instant::now();
    black_box(spin(black_box(SPIN_ROUNDS)));
    t0.elapsed().as_secs_f64()
}

pub struct HostInfo {
    /// `available_parallelism()`: what the OS reports.
    pub nproc: usize,
    /// Measured: 2 x (one spin alone) / (two spins at once, slowest).
    /// 2.0 means two cores really run in parallel, 1.0 means one.
    pub parallelism: f64,
    /// Milliseconds of the fixed single-thread spin (host speed).
    pub spin_ms: f64,
}

pub fn probe() -> HostInfo {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let one = spin_secs();
    let two = std::thread::scope(|s| {
        let a = s.spawn(spin_secs);
        let b = s.spawn(spin_secs);
        let (a, b) = (
            a.join().expect("spin thread"),
            b.join().expect("spin thread"),
        );
        a.max(b)
    });
    HostInfo {
        nproc,
        parallelism: 2.0 * one / two,
        spin_ms: one * 1e3,
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
