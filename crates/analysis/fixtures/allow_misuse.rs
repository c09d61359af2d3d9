// Golden fixture: the unused-allow and invalid-allow meta-rules.
// Lines are pinned by tests/fixtures.rs — edit with care.

fn stale_allow() -> u32 {
    // lint: allow(no-alloc) — nothing on the next line allocates
    1 + 1
}

fn unknown_rule() {
    // lint: allow(alloc-free) — the rule name is misspelled
    let _ = 2;
}
// lint: no_alloc
fn missing_reason() {
    // lint: allow(no-alloc)
    let _: Vec<u8> = Vec::new();
}

fn lookalike_prose() {
    // Mentioning lint rules in prose, like no-alloc or allow lists,
    // is not a directive; only `lint:`-prefixed comments are parsed.
    let _ = 3;
}
