// Golden fixture: the no-alloc fence.
// Lines are pinned by tests/fixtures.rs — edit with care.

// lint: no_alloc
fn violating(n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let doubled: Vec<f64> = out.iter().map(|x| x * 2.0).collect();
    out.extend(doubled);
    out
}

// lint: no_alloc
fn hot_loop_clean(buf: &mut Vec<f64>, n: usize) {
    // clear + push into a pre-reserved arena is the sanctioned pattern.
    buf.clear();
    for i in 0..n {
        buf.push(i as f64);
    }
}

// lint: no_alloc
fn allowed_escape() -> Vec<f64> {
    // lint: allow(no-alloc) — cold path: runs once at arena construction
    vec![0.0; 8]
}

fn lookalike_unfenced(n: usize) -> Vec<f64> {
    // No fence above this fn — allocation is fine here.
    let mut v = Vec::with_capacity(n);
    v.push(1.0);
    v
}
