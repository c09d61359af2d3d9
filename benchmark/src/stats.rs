//! Order statistics for the report: nearest-rank percentiles, the
//! "ten samples beyond" rule, and medians over repetitions.

/// The nearest-rank percentile of `samples` (`p` in (0, 100]): the value
/// at rank `ceil(p/100 · n)` of the ascending order. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p)?.checked_sub(1)?])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// A percentile is reported only when at least ten samples lie beyond it,
/// so a tail figure never rests on a handful of outliers.
pub fn has_ten_beyond(n: usize, p: f64) -> bool {
    rank(n, p).is_some_and(|r| n - r >= 10)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Checks the arithmetic above on hand-worked cases; `selftest` and the
/// unit tests both run it.
pub fn self_check() -> Result<(), String> {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let expect = |what: &str, got: Option<f64>, want: Option<f64>| {
        (got == want)
            .then_some(())
            .ok_or(format!("{what}: got {got:?}, want {want:?}"))
    };
    expect("p50 of 1..=10", percentile(&v, 50.0), Some(5.0))?;
    expect("p90 of 1..=10", percentile(&v, 90.0), Some(9.0))?;
    expect("p91 of 1..=10", percentile(&v, 91.0), Some(10.0))?;
    expect("p100 of 1..=10", percentile(&v, 100.0), Some(10.0))?;
    expect("p50 of one", percentile(&[7.0], 50.0), Some(7.0))?;
    expect("p50 of none", percentile(&[], 50.0), None)?;
    expect(
        "unsorted p50",
        percentile(&[9.0, 1.0, 5.0], 50.0),
        Some(5.0),
    )?;
    expect("median even", median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5))?;
    expect("median odd", median(&[3.0, 1.0, 2.0]), Some(2.0))?;
    // p90 of 100 samples sits at rank 90: exactly ten beyond. One sample
    // fewer leaves nine.
    for (n, p, want) in [
        (100, 90.0, true),
        (99, 90.0, false),
        (20, 50.0, true),
        (19, 50.0, false),
        (0, 50.0, false),
    ] {
        if has_ten_beyond(n, p) != want {
            return Err(format!("has_ten_beyond({n}, {p}) should be {want}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn percentile_and_ten_beyond_arithmetic() {
        super::self_check().unwrap();
    }
}
