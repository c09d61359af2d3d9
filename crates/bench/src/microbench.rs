//! A tiny timing harness for the `benches/` targets.
//!
//! The benches were originally criterion targets; the workspace now builds
//! without external dependencies, so they are plain `harness = false`
//! binaries using this helper: warm up, run a fixed number of timed
//! iterations, and print min/mean per-iteration wall time (min is the
//! stable statistic on a noisy machine). Run with `cargo bench`.

use std::hint::black_box;
use std::time::Instant;

/// One benchmark measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Timed iterations.
    pub iters: u32,
    /// Minimum per-iteration wall time (ms).
    pub min_ms: f64,
    /// Mean per-iteration wall time (ms).
    pub mean_ms: f64,
}

/// Times `f` over `iters` iterations (plus one warm-up) and prints an
/// aligned result row under `label`.
pub fn bench<T, F: FnMut() -> T>(label: &str, iters: u32, mut f: F) -> Measurement {
    assert!(iters > 0, "need at least one iteration");
    black_box(f()); // warm-up: page in code paths and caches
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        total += ms;
        min = min.min(ms);
    }
    let m = Measurement {
        iters,
        min_ms: min,
        mean_ms: total / iters as f64,
    };
    println!(
        "{label:<60} {:>10.4} ms min {:>10.4} ms mean  ({iters} iters)",
        m.min_ms, m.mean_ms
    );
    m
}

/// Prints a group header.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the timing tests sleep a known interval to check the measurement"
)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_plausible_times() {
        let m = bench("spin", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(m.iters, 3);
        assert!(m.min_ms >= 1.0, "sleep mis-measured: {m:?}");
        assert!(m.mean_ms >= m.min_ms);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iters_rejected() {
        let _ = bench("nope", 0, || ());
    }
}
