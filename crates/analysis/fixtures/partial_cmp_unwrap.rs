// Golden fixture: the partial-cmp-unwrap rule.
// Lines are pinned by tests/fixtures.rs — edit with care.

fn violating(xs: &[f64]) -> f64 {
    *xs.iter()
        .max_by(|a, b| a.partial_cmp(b).unwrap())
        .unwrap()
}

fn allowed_escape(a: f64, b: f64) -> std::cmp::Ordering {
    // lint: allow(partial-cmp-unwrap) — inputs are validated finite at the API boundary
    a.partial_cmp(&b).unwrap()
}

struct Wrapper(f64);

impl PartialOrd for Wrapper {
    // A lookalike: the PartialOrd impl itself must not trip the rule.
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl PartialEq for Wrapper {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

fn lookalike_total(a: f64, b: f64) -> std::cmp::Ordering {
    a.total_cmp(&b)
}

fn lookalike_handled(a: f64, b: f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b)
}
