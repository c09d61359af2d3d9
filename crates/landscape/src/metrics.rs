//! Map-comparison metrics — the fitness function of the ESS family.

use crate::firemap::{FireLine, IgnitionMap};
use std::ops::Range;

/// Cell-level contingency counts behind a Jaccard evaluation.
///
/// Useful for the report harness: the ESS literature frequently discusses
/// over-prediction (cells predicted burned that did not burn) separately
/// from under-prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JaccardBreakdown {
    /// Burned in both maps (the intersection).
    pub hits: usize,
    /// Burned only in the prediction (over-prediction).
    pub false_alarms: usize,
    /// Burned only in the reference (under-prediction).
    pub misses: usize,
    /// Cells excluded because they were burned before the simulation started.
    pub excluded: usize,
}

impl JaccardBreakdown {
    /// The Jaccard index |A∩B| / |A∪B| implied by these counts.
    ///
    /// When both maps are empty after exclusion the union is empty; the
    /// prediction is trivially perfect, so this returns 1.0 (matching the
    /// ESS convention that a no-growth step predicted as no-growth scores 1).
    pub fn index(&self) -> f64 {
        self.index_with_real_total(self.hits + self.misses)
    }

    /// [`JaccardBreakdown::index`] of a whole raster from counts taken over
    /// part of it, when the prediction burns nothing outside that part and
    /// the whole raster holds `real_new` cells of `real ∧ ¬preburn`: each
    /// of those is either one of the hits counted here or a miss
    /// (somewhere), so the union is `real_new` plus the false alarms — the
    /// same two integers, hence the same `f64`, a full-raster tally divides.
    pub fn index_with_real_total(&self, real_new: usize) -> f64 {
        let union = real_new + self.false_alarms;
        if union == 0 {
            1.0
        } else {
            self.hits as f64 / union as f64
        }
    }
}

/// Fitness function of the ESS systems — Eq. (3) of the paper:
///
/// ```text
/// fitness(A, B) = |A ∩ B| / |A ∪ B|
/// ```
///
/// where `A` is the real burned map and `B` the simulated/predicted map,
/// **both with the cells already burned before the simulation removed**
/// ("previously burned cells are not considered in order to avoid skewed
/// results", §III-B). `preburn` may be `None` when nothing was burned before
/// the step (e.g. the very first instant).
///
/// Returns a value in `[0, 1]`: 1 is a perfect prediction, 0 the worst.
///
/// This is the definition, over two whole rasters; the stack scores an
/// evaluation from the counts its run keeps as it writes
/// (`firelib::BurnCount`) and the stages from the level histogram of a
/// probability map, which visit only burned cells; both are held against
/// this.
///
/// # Panics
/// Panics when the maps (or mask) differ in shape.
pub fn jaccard(real: &FireLine, predicted: &FireLine, preburn: Option<&FireLine>) -> f64 {
    jaccard_breakdown(real, predicted, preburn).index()
}

/// Like [`jaccard`] but returns the full contingency counts.
pub fn jaccard_breakdown(
    real: &FireLine,
    predicted: &FireLine,
    preburn: Option<&FireLine>,
) -> JaccardBreakdown {
    assert!(
        real.mask().same_shape(predicted.mask()),
        "jaccard: real and predicted maps differ in shape"
    );
    let n = real.mask().len();
    tally_ranges(
        real.mask().as_slice(),
        predicted.mask().as_slice(),
        |&burned| burned,
        preburn_slice(real, preburn),
        std::iter::once(0..n),
    )
}

/// The preburn mask as a slice, shape-checked against `real`.
fn preburn_slice<'a>(real: &FireLine, preburn: Option<&'a FireLine>) -> Option<&'a [bool]> {
    preburn.map(|p| {
        assert!(
            real.mask().same_shape(p.mask()),
            "jaccard: preburn mask differs in shape"
        );
        p.mask().as_slice()
    })
}

/// The Eq. (3) contingency counts over the cells of `ranges` only — the
/// one tally behind the whole-raster Jaccards, and the oracle a counted
/// run (`firelib::BurnCount`) is held to. `real`, `predicted` and
/// `preburn` are row-major rasters of one shape; `burned` reads a
/// predicted cell (a mask bit, or an arrival time against an instant);
/// `ranges` are index ranges into them and must not overlap, or the
/// shared cells count twice. The whole raster is the single range
/// `0..len`; a caller that knows the prediction is unburned outside a few
/// spans passes those and accounts for the rest itself (every `real ∧
/// ¬preburn` cell out there is a miss).
///
/// # Panics
/// Panics when a range reaches past any of the rasters.
pub fn tally_ranges<P>(
    real: &[bool],
    predicted: &[P],
    burned: impl Fn(&P) -> bool,
    preburn: Option<&[bool]>,
    ranges: impl IntoIterator<Item = Range<usize>>,
) -> JaccardBreakdown {
    let (mut hits, mut false_alarms, mut misses, mut excluded) = (0usize, 0usize, 0usize, 0usize);
    // Branches, not arithmetic on the flags: fire rasters are long runs of
    // one state, which the predictor eats (branchless arithmetic measured
    // 1.4–2× slower on a megacell raster).
    let mut tally = |was_real: bool, is_burned: bool, pre: bool| {
        if pre {
            excluded += 1;
            return;
        }
        match (was_real, is_burned) {
            (true, true) => hits += 1,
            (false, true) => false_alarms += 1,
            (true, false) => misses += 1,
            (false, false) => {}
        }
    };
    for range in ranges {
        let cells = real[range.clone()].iter().zip(&predicted[range.clone()]);
        match preburn {
            Some(pre) => {
                for ((&r, p), &x) in cells.zip(&pre[range]) {
                    tally(r, burned(p), x);
                }
            }
            None => {
                for (&r, p) in cells {
                    tally(r, burned(p), false);
                }
            }
        }
    }
    JaccardBreakdown {
        hits,
        false_alarms,
        misses,
        excluded,
    }
}

/// [`jaccard`] of `real` against the fire line `simulated` implies at
/// instant `t`, computed directly from the ignition-time raster.
///
/// Equivalent to `jaccard(real, &simulated.fire_line_at(t), preburn)` but
/// streaming — no burned-mask raster is materialised. This is the
/// whole-raster form; an evaluator that knows which cells its run wrote
/// tallies only those ([`tally_ranges`] +
/// [`JaccardBreakdown::index_with_real_total`]), or counts them as the run
/// writes them, and gets the same `f64`.
///
/// # Panics
/// Panics when the rasters differ in shape.
pub fn jaccard_at_time(
    real: &FireLine,
    simulated: &IgnitionMap,
    t: f64,
    preburn: Option<&FireLine>,
) -> f64 {
    assert!(
        real.mask().same_shape(simulated.grid()),
        "jaccard: real map and ignition raster differ in shape"
    );
    let n = real.mask().len();
    tally_ranges(
        real.mask().as_slice(),
        simulated.grid().as_slice(),
        |&arrival| arrival <= t,
        preburn_slice(real, preburn),
        std::iter::once(0..n),
    )
    .index()
}

/// Interquartile range (Q3 − Q1) using the nearest-rank method.
///
/// This is the population-spread statistic used by ESSIM-DE's dynamic
/// tuning metric (\[22\] in the paper): a collapsing IQR of the population
/// fitness signals premature convergence.
pub fn iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = |frac: f64| -> f64 {
        let pos = frac * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    };
    q(0.75) - q(0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fl(rows: usize, cols: usize, cells: &[(usize, usize)]) -> FireLine {
        FireLine::from_cells(rows, cols, cells)
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let a = fl(3, 3, &[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(jaccard(&a, &a.clone(), None), 1.0);
    }

    #[test]
    fn disjoint_prediction_scores_zero() {
        let a = fl(2, 2, &[(0, 0)]);
        let b = fl(2, 2, &[(1, 1)]);
        assert_eq!(jaccard(&a, &b, None), 0.0);
    }

    #[test]
    fn half_overlap() {
        // A = {a,b}, B = {b,c}: |A∩B| = 1, |A∪B| = 3.
        let a = fl(2, 2, &[(0, 0), (0, 1)]);
        let b = fl(2, 2, &[(0, 1), (1, 0)]);
        assert!((jaccard(&a, &b, None) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn preburn_cells_are_excluded() {
        // Both maps burn the preburned cell; without exclusion J would be
        // 1/1 = 1. With exclusion the remaining maps are empty → 1.0 too,
        // so craft a case where exclusion changes the score:
        let real = fl(2, 2, &[(0, 0), (1, 1)]);
        let pred = fl(2, 2, &[(0, 0)]);
        let pre = fl(2, 2, &[(0, 0)]);
        // Excluding (0,0): real = {(1,1)}, pred = {} → J = 0.
        assert_eq!(jaccard(&real, &pred, Some(&pre)), 0.0);
        // Without exclusion J = 1/2.
        assert_eq!(jaccard(&real, &pred, None), 0.5);
    }

    #[test]
    fn empty_union_is_perfect() {
        let a = fl(2, 2, &[]);
        assert_eq!(jaccard(&a, &a.clone(), None), 1.0);
    }

    #[test]
    fn breakdown_counts() {
        let real = fl(2, 3, &[(0, 0), (0, 1), (1, 2)]);
        let pred = fl(2, 3, &[(0, 1), (1, 0), (1, 2)]);
        let b = jaccard_breakdown(&real, &pred, None);
        assert_eq!(b.hits, 2);
        assert_eq!(b.misses, 1);
        assert_eq!(b.false_alarms, 1);
        assert_eq!(b.excluded, 0);
        assert!((b.index() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_at_time_matches_materialised_fire_line() {
        use crate::firemap::UNIGNITED;
        let times = crate::Grid::from_vec(2, 3, vec![0.0, 5.0, UNIGNITED, 2.0, 7.0, 9.0]);
        let map = IgnitionMap::from_grid(times);
        let real = fl(2, 3, &[(0, 0), (0, 1), (1, 2)]);
        let pre = fl(2, 3, &[(0, 0)]);
        for t in [0.0, 2.0, 5.0, 8.0, 100.0] {
            let line = map.fire_line_at(t);
            assert_eq!(
                jaccard_at_time(&real, &map, t, None),
                jaccard(&real, &line, None),
                "t = {t}"
            );
            assert_eq!(
                jaccard_at_time(&real, &map, t, Some(&pre)),
                jaccard(&real, &line, Some(&pre)),
                "t = {t} with preburn"
            );
        }
    }

    #[test]
    fn iqr_linear_interpolation() {
        let v = [1.0, 2.0, 3.0, 4.0];
        // positions: q1 at 0.75 -> 1.75, q3 at 2.25 -> 3.25 → IQR 1.5
        assert!((iqr(&v) - 1.5).abs() < 1e-12);
        assert_eq!(iqr(&[1.0]), 0.0);
    }
}
