// Golden fixture: the thread-spawn rule (non-parworker scope).
// Lines are pinned by tests/fixtures.rs — edit with care.

fn violating() {
    let handle = std::thread::spawn(|| 42);
    let _ = handle.join();
}

fn allowed_escape() {
    // lint: allow(thread-spawn) — fixture copy of a sanctioned helper thread
    std::thread::spawn(|| ()).join().unwrap();
}

// A lookalike: defining a spawn wrapper is not spawning.
fn spawn(work: impl FnOnce()) {
    work();
}

fn lookalike_not_a_call() {
    // An identifier named spawn without a call is not spawning either.
    let spawn = 7;
    let _ = spawn;
}
