// Golden fixture: the unused-allow and invalid-allow meta-rules.
// Lines are pinned by tests/fixtures.rs — edit with care.

fn stale_allow() -> u32 {
    // lint: allow(wall-clock) — nothing on the next line reads a clock
    1 + 1
}

fn unknown_rule() {
    // lint: allow(clock-wall) — the rule name is misspelled
    let _ = 2;
}

fn missing_reason() {
    // lint: allow(thread-spawn)
    let _ = std::thread::spawn(|| ());
}

fn lookalike_prose() {
    // Mentioning lint rules in prose, like wall-clock or allow lists,
    // is not a directive; only `lint:`-prefixed comments are parsed.
    let _ = 3;
}
