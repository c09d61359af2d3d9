// Golden fixture: the hash-container rule (deterministic scope).
// Lines are pinned by tests/fixtures.rs — edit with care.

use std::collections::HashMap;

fn violating() -> HashMap<u32, f64> {
    HashMap::default()
}

fn allowed_escape(x: u32) -> bool {
    // lint: allow(hash-container) — membership test only; iteration order never observed
    let seen: std::collections::HashSet<u32> = Default::default();
    seen.contains(&x)
}

fn lookalike_btree() -> std::collections::BTreeMap<u32, f64> {
    // BTreeMap is the sanctioned ordered container — no finding.
    std::collections::BTreeMap::new()
}

fn lookalike_in_text() -> &'static str {
    // The word HashMap inside a comment or string is not a use of one.
    "prefer BTreeMap over HashMap in deterministic code"
}
