//! The timing harness shared by the `harness = false` benches: named
//! benchmarks, warmup, and median-of-samples reporting, on `std::time`
//! alone (the build environment carries no external crates).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of timed samples per benchmark (the median is reported).
const SAMPLES: usize = 15;
/// Minimum wall-clock per sample; iterations are batched up to this.
const MIN_SAMPLE: Duration = Duration::from_millis(20);

pub struct Report {
    name: String,
    median_ns: f64,
    min_ns: f64,
    iters_per_sample: u64,
}

/// The benchmark-name filter given on the command line (empty: run all).
pub fn filter_arg() -> String {
    let filter = std::env::args().nth(1).unwrap_or_default();
    if filter == "--bench" {
        String::new()
    } else {
        filter
    }
}

/// Times `f`, batching iterations so each sample runs at least
/// [`MIN_SAMPLE`], and returns per-iteration medians.
pub fn bench<R>(name: impl Into<String>, mut f: impl FnMut() -> R) -> Report {
    // Warmup + calibration: how many iterations fill MIN_SAMPLE?
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= MIN_SAMPLE {
            break;
        }
        let grow = if elapsed.is_zero() {
            16
        } else {
            ((MIN_SAMPLE.as_secs_f64() / elapsed.as_secs_f64()).ceil() as u64).clamp(2, 64)
        };
        iters = iters.saturating_mul(grow);
    }
    let mut per_iter_ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    Report {
        name: name.into(),
        median_ns: per_iter_ns[per_iter_ns.len() / 2],
        min_ns: per_iter_ns[0],
        iters_per_sample: iters,
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Prints the reports as a table.
pub fn print_reports(reports: &[Report]) {
    println!(
        "{:<28} {:>12} {:>12} {:>8}",
        "benchmark", "median/iter", "min/iter", "batch"
    );
    println!("{}", "-".repeat(64));
    for r in reports {
        println!(
            "{:<28} {:>12} {:>12} {:>8}",
            r.name,
            fmt_ns(r.median_ns),
            fmt_ns(r.min_ns),
            r.iters_per_sample
        );
    }
}
