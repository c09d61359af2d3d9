//! Parent selection operators.
//!
//! The paper fixes roulette-wheel selection for the NS-based GA ("the GA
//! population selection strategy will be by roulette wheel selection",
//! §III-B); the baselines' GA selects the same way.

use rand::Rng;

/// A roulette wheel (fitness-proportionate selection) over arbitrary
/// non-negative scores, built once per generation and spun once per
/// parent: building it validates and sums the scores, so a spin reads
/// only the scores its ticket walks past.
///
/// Scores may be any finite non-negative values (fitness for the baseline
/// GA, novelty for Algorithm 1). When every score is zero — common in the
/// first generations of a fire-prediction run, where most scenarios score
/// J = 0 — selection degrades gracefully to uniform, which matches how the
/// ESS implementations seed their searches.
#[derive(Debug)]
pub struct RouletteWheel<'a> {
    scores: &'a [f64],
    /// The scores summed in index order.
    total: f64,
}

impl<'a> RouletteWheel<'a> {
    /// The wheel over `scores`.
    ///
    /// # Panics
    /// Panics on an empty slice or on negative/non-finite scores.
    pub fn new(scores: &'a [f64]) -> Self {
        assert!(!scores.is_empty(), "roulette over an empty slice");
        let mut total = 0.0;
        for &s in scores {
            assert!(
                s.is_finite() && s >= 0.0,
                "roulette scores must be finite and non-negative"
            );
            total += s;
        }
        Self { scores, total }
    }

    /// One spin: the index of the selected entry. An all-zero wheel draws
    /// an index uniformly; otherwise one `f64` ticket in `[0, total)` walks
    /// the scores in index order.
    pub fn spin<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        debug_assert_eq!(
            self.total.to_bits(),
            self.scores.iter().fold(0.0, |t, &s| t + s).to_bits(),
            "the wheel's total is its scores summed in index order"
        );
        if self.total <= 0.0 {
            return rng.random_range(0..self.scores.len());
        }
        let mut ticket = rng.random::<f64>() * self.total;
        for (i, &s) in self.scores.iter().enumerate() {
            ticket -= s;
            if ticket <= 0.0 {
                return i;
            }
        }
        self.scores.len() - 1 // numeric edge: the ticket fell off the wheel's end
    }
}

/// Elitist replacement shared by the engines: keeps the `capacity` entries
/// with the highest scores out of the concatenation of two score slices,
/// returning indices into the virtual concatenation `[a, b]`.
///
/// Ties resolve in favour of `a` (the incumbent population), making
/// replacement stable — important for reproducibility across platforms.
pub fn elitist_merge_indices(a: &[f64], b: &[f64], capacity: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..a.len() + b.len()).collect();
    let score = |i: usize| if i < a.len() { a[i] } else { b[i - a.len()] };
    idx.sort_by(|&x, &y| score(y).total_cmp(&score(x)).then(x.cmp(&y)));
    idx.truncate(capacity);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roulette_prefers_high_scores() {
        let mut rng = StdRng::seed_from_u64(3);
        let scores = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        let wheel = RouletteWheel::new(&scores);
        for _ in 0..10_000 {
            counts[wheel.spin(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-score entry must never win");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((7.0..11.5).contains(&ratio), "expected ≈9×, got {ratio}");
    }

    #[test]
    fn roulette_uniform_when_all_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let scores = [0.0, 0.0, 0.0, 0.0];
        let mut counts = [0usize; 4];
        let wheel = RouletteWheel::new(&scores);
        for _ in 0..8_000 {
            counts[wheel.spin(&mut rng)] += 1;
        }
        for c in counts {
            assert!(c > 1_600, "uniform fallback skewed: {counts:?}");
        }
    }

    #[test]
    fn roulette_single_entry() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(RouletteWheel::new(&[0.7]).spin(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn roulette_rejects_negative() {
        let _ = RouletteWheel::new(&[0.5, -0.1]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn roulette_rejects_an_empty_wheel() {
        let _ = RouletteWheel::new(&[]);
    }

    #[test]
    fn elitist_merge_keeps_top() {
        let a = [0.5, 0.1];
        let b = [0.9, 0.3, 0.05];
        let kept = elitist_merge_indices(&a, &b, 3);
        // Scores by index: a0=0.5 a1=0.1 b→2:0.9 3:0.3 4:0.05
        assert_eq!(kept, vec![2, 0, 3]);
    }

    #[test]
    fn elitist_merge_tie_prefers_incumbent() {
        let a = [0.5];
        let b = [0.5];
        assert_eq!(elitist_merge_indices(&a, &b, 1), vec![0]);
    }

    #[test]
    fn elitist_merge_capacity_bounds() {
        let kept = elitist_merge_indices(&[1.0], &[2.0], 10);
        assert_eq!(kept.len(), 2);
    }
}
