// Golden fixture: the unused-allow and invalid-allow meta-rules.
// Lines are pinned by tests/fixtures.rs — edit with care.

fn stale_allow() -> u32 {
    // lint: allow(panic) — nothing on the next line panics
    1 + 1
}

fn unknown_rule() {
    // lint: allow(alloc-free) — the rule name is misspelled
    let _ = 2;
}

fn missing_reason() {
    // lint: allow(panic)
    let _ = None::<u8>.unwrap();
}

fn lookalike_prose() {
    // Mentioning lint rules in prose, like panic or allow lists,
    // is not a directive; only `lint:`-prefixed comments are parsed.
    let _ = 3;
}

pub struct Scheduler;
impl Scheduler {
    pub fn round(&mut self) {
        missing_reason();
    }
}
