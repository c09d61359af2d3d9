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

/// The elitist order of one generation's members, sorted in a buffer the
/// caller keeps: best score first, equal scores by ascending index —
/// exactly the order a stable sort by descending `total_cmp` gives.
///
/// Each member is one packed integer key, its score's order-preserving
/// bits inverted above its index, so the sort compares integers and
/// needs no stability: no two keys are equal.
#[derive(Debug, Clone, Default)]
pub struct ElitistRanking {
    keys: Vec<u128>,
}

impl ElitistRanking {
    /// Ranks `scores`, member `i` being the `i`-th score.
    pub fn rank(&mut self, scores: impl IntoIterator<Item = f64>) {
        let scores = scores.into_iter();
        self.keys.clear();
        self.keys.reserve(scores.size_hint().0);
        for (score, index) in scores.zip(0u32..) {
            let descending = !crate::total_order_bits(score);
            self.keys
                .push(u128::from(descending) << 32 | u128::from(index));
        }
        self.keys.sort_unstable();
    }

    /// The member indices, best first.
    pub fn order(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.keys.iter().map(|&key| key as u32 as usize)
    }

    /// Moves the ranked entries of `column` (its first one per ranked
    /// member; any after them stay put) into rank order: entry `r`
    /// afterwards is the one that stood at the `r`-th index of
    /// [`ElitistRanking::order`]. `spare` is the scratch the move goes
    /// through; it is left empty, keeping its allocation.
    ///
    /// # Panics
    /// Panics when `column` holds fewer entries than were ranked.
    pub fn permute<T: Default>(&self, column: &mut [T], spare: &mut Vec<T>) {
        spare.clear();
        spare.extend(self.order().map(|i| std::mem::take(&mut column[i])));
        column[..spare.len()].swap_with_slice(spare);
        spare.clear();
    }
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

    /// The member indices of `scores`, best first.
    fn ranked(scores: &[f64]) -> Vec<usize> {
        let mut ranking = ElitistRanking::default();
        ranking.rank(scores.iter().copied());
        ranking.order().collect()
    }

    #[test]
    fn ranking_puts_the_best_first() {
        assert_eq!(ranked(&[0.5, 0.1, 0.9, 0.3, 0.05]), vec![2, 0, 3, 1, 4]);
    }

    #[test]
    fn ranking_tie_prefers_the_lower_index() {
        assert_eq!(ranked(&[0.5, 0.5]), vec![0, 1]);
    }

    #[test]
    fn ranking_is_the_stable_descending_sort_and_permutes_columns() {
        let scores = [0.5, -0.0, 0.9, 0.0, 0.5, f64::MIN, 0.9];
        let mut stable: Vec<usize> = (0..scores.len()).collect();
        stable.sort_by(|&x, &y| scores[y].total_cmp(&scores[x]));
        let mut ranking = ElitistRanking::default();
        ranking.rank(scores);
        assert_eq!(ranking.order().collect::<Vec<_>>(), stable);
        // One entry past the ranked ones, which stays put.
        let mut column: Vec<Vec<usize>> = (0..=scores.len()).map(|i| vec![i]).collect();
        ranking.permute(&mut column, &mut Vec::new());
        let moved: Vec<usize> = column.iter().map(|v| v[0]).collect();
        assert_eq!(moved, [&stable[..], &[scores.len()]].concat());
    }
}
