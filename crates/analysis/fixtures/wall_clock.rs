// Golden fixture: the wall-clock rule (non-bench scope).
// Lines are pinned by tests/fixtures.rs — edit with care.

use std::time::Instant;

fn violating() -> Instant {
    Instant::now()
}

fn violating_system_time() {
    let _ = std::time::SystemTime::now();
}

fn allowed_escape() -> Instant {
    // lint: allow(wall-clock) — fixture copy of the telemetry stopwatch
    Instant::now()
}

fn lookalike(deadline: Instant, now: Instant) -> bool {
    // Consuming an Instant someone else captured is fine; only the
    // `Instant::now` read itself is the violation.
    now >= deadline
}

fn trailing_allow_covers_its_own_line_only() -> (Instant, Instant) {
    let a = Instant::now(); // lint: allow(wall-clock) — fixture: a trailing allow
    let b = Instant::now();
    (a, b)
}
