//! The benchmark's clock and process counters — the only place a clock is
//! read, so the repository's `wall-clock` lint has exactly one site to
//! audit. Times are nanoseconds since the first read.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    // lint: allow(wall-clock) — benchmark timing code; nothing measured here feeds back into a simulation or a search
    let now = Instant::now();
    now.duration_since(*EPOCH.get_or_init(|| now)).as_nanos() as u64
}

/// Seconds elapsed since `start_ns`.
pub fn secs_since(start_ns: u64) -> f64 {
    (now_ns() - start_ns) as f64 / 1e9
}

/// Linux reports process CPU time in ticks of 1/100 s (`USER_HZ`, fixed by
/// the kernel ABI on every architecture this runs on).
const TICK_MS: f64 = 10.0;

/// CPU milliseconds (user + system, every thread) this process has used,
/// from `/proc/self/stat`. `None` off Linux.
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, so utime/stime (fields 14/15) are 11 and 12
    // counting from the field after it.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * TICK_MS)
}

/// Peak resident set size of this process in MiB (`VmHWM`). `None` off
/// Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One-minute load average, from `/proc/loadavg`.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}
