//! Instrumentation for the parallel-performance experiments (E3).

use std::time::{Duration, Instant};

/// Cumulative per-worker counters captured from a
/// [`crate::WorkerPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of workers.
    pub workers: usize,
    /// Per-worker cumulative busy time in nanoseconds.
    pub busy_nanos: Vec<u64>,
    /// Per-worker completed task counts.
    pub tasks_done: Vec<u64>,
}

impl PoolStats {
    /// Total busy time across workers (ns).
    pub fn total_busy_nanos(&self) -> u64 {
        self.busy_nanos.iter().sum()
    }

    /// Total tasks completed.
    // lint: allow(unreached) — the completed-task count the unit tests of crates/parworker/src/pool.rs check after every batch
    pub fn total_tasks(&self) -> u64 {
        self.tasks_done.iter().sum()
    }

    /// Load imbalance: max over mean of per-worker busy time (1.0 =
    /// perfectly balanced). Returns 1.0 when nothing ran.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_busy_nanos();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.workers as f64;
        let max = *self.busy_nanos.iter().max().expect("non-empty") as f64;
        max / mean
    }
}

/// A single row of the speedup table: one configuration's timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupRow {
    /// Worker count of this configuration.
    pub workers: usize,
    /// Wall-clock time of the measured region.
    pub wall: Duration,
    /// Speedup relative to the 1-worker baseline.
    pub speedup: f64,
    /// Parallel efficiency: speedup / workers.
    pub efficiency: f64,
}

impl SpeedupRow {
    /// Builds a row from a measurement and its serial baseline.
    pub fn new(workers: usize, wall: Duration, baseline: Duration) -> Self {
        let speedup = if wall.as_nanos() == 0 {
            f64::INFINITY
        } else {
            baseline.as_secs_f64() / wall.as_secs_f64()
        };
        Self {
            workers,
            wall,
            speedup,
            efficiency: speedup / workers as f64,
        }
    }
}

/// Renders a speedup table in the style of the predecessor papers'
/// response-time tables.
pub fn render_speedup_table(rows: &[SpeedupRow]) -> String {
    let mut out = String::from("workers  wall_ms   speedup  efficiency\n");
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<9.1} {:<8.2} {:.2}\n",
            r.workers,
            r.wall.as_secs_f64() * 1e3,
            r.speedup,
            r.efficiency
        ));
    }
    out
}

/// A simple region stopwatch used across the harness binaries.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing.
    #[expect(
        clippy::disallowed_methods,
        reason = "the Stopwatch is the telemetry primitive the clock ban funnels callers into"
    )]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed milliseconds (convenience for report rows).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_imbalance() {
        let s = PoolStats {
            workers: 2,
            busy_nanos: vec![100, 300],
            tasks_done: vec![1, 3],
        };
        assert_eq!(s.total_busy_nanos(), 400);
        assert_eq!(s.total_tasks(), 4);
        assert!((s.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn balanced_pool_has_unit_imbalance() {
        let s = PoolStats {
            workers: 4,
            busy_nanos: vec![50; 4],
            tasks_done: vec![2; 4],
        };
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_pool_reports_neutral_imbalance() {
        let s = PoolStats {
            workers: 4,
            busy_nanos: vec![0; 4],
            tasks_done: vec![0; 4],
        };
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn speedup_row_math() {
        let r = SpeedupRow::new(4, Duration::from_millis(25), Duration::from_millis(100));
        assert!((r.speedup - 4.0).abs() < 1e-9);
        assert!((r.efficiency - 1.0).abs() < 1e-9);
        let r2 = SpeedupRow::new(4, Duration::from_millis(50), Duration::from_millis(100));
        assert!((r2.efficiency - 0.5).abs() < 1e-9);
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![
            SpeedupRow::new(1, Duration::from_millis(100), Duration::from_millis(100)),
            SpeedupRow::new(2, Duration::from_millis(55), Duration::from_millis(100)),
        ];
        let t = render_speedup_table(&rows);
        assert!(t.contains("workers"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn stopwatch_measures_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        assert!(sw.elapsed_ms() >= 4.0);
    }
}
