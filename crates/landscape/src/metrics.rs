//! Map-comparison metrics — the fitness function of the ESS family.

use crate::firemap::{pack, pieces, FireLine, IgnitionMap, WORD_CELLS};
use std::ops::Range;

/// Cell-level contingency counts behind a Jaccard evaluation.
///
/// Useful for the report harness: the ESS literature frequently discusses
/// over-prediction (cells predicted burned that did not burn) separately
/// from under-prediction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
/// This is the definition, over two whole rasters, tallied a word of 64
/// cells at a time by popcount; the stack scores an
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
        real.same_shape(predicted),
        "jaccard: real and predicted maps differ in shape"
    );
    check_preburn(real, preburn);
    let mut tally = JaccardBreakdown::default();
    for (w, (&r, &p)) in real.words().iter().zip(predicted.words()).enumerate() {
        tally_word(&mut tally, r, p, preburn.map_or(0, |x| x.words()[w]));
    }
    tally
}

/// Panics unless `preburn` (when given) has `real`'s shape.
fn check_preburn(real: &FireLine, preburn: Option<&FireLine>) {
    if let Some(p) = preburn {
        assert!(real.same_shape(p), "jaccard: preburn mask differs in shape");
    }
}

/// Adds one word of cells to `b`'s counts: `real`, `predicted` and `pre`
/// hold a bit per cell, and every bit of a cell outside the tally is zero
/// in all three.
#[inline]
fn tally_word(b: &mut JaccardBreakdown, real: u64, predicted: u64, pre: u64) {
    let ones = |w: u64| w.count_ones() as usize;
    b.hits += ones(real & predicted & !pre);
    b.false_alarms += ones(!real & predicted & !pre);
    b.misses += ones(real & !predicted & !pre);
    b.excluded += ones(pre);
}

/// The Eq. (3) contingency counts over the cells of `ranges` only — the
/// one tally behind [`jaccard_at_time`], and the oracle a counted run
/// (`firelib::BurnCount`) is held to. `predicted` is a row-major raster
/// of `real`'s (and `preburn`'s) shape, `burned` reads one of its cells
/// (an arrival time against an instant, say); `ranges` are index ranges
/// into them and must not overlap, or the shared cells count twice. The
/// whole raster is the single range `0..len`; a caller that knows the
/// prediction is unburned outside a few spans passes those and accounts
/// for the rest itself (every `real ∧ ¬preburn` cell out there is a miss).
/// Each range is tallied a word of the lines at a time, its predicted
/// cells packed into a word of their own.
///
/// # Panics
/// Panics when the shapes differ or a range reaches past the rasters.
pub fn tally_ranges<P>(
    real: &FireLine,
    predicted: &[P],
    burned: impl Fn(&P) -> bool,
    preburn: Option<&FireLine>,
    ranges: impl IntoIterator<Item = Range<usize>>,
) -> JaccardBreakdown {
    assert_eq!(
        real.len(),
        predicted.len(),
        "jaccard: real map and predicted raster differ in size"
    );
    check_preburn(real, preburn);
    let mut tally = JaccardBreakdown::default();
    for (w, piece) in ranges.into_iter().flat_map(pieces::<WORD_CELLS>) {
        let shift = piece.start % WORD_CELLS;
        let cells = &predicted[piece];
        // A whole word is a fixed-length chunk: vector compares.
        let p = match <&[P; WORD_CELLS]>::try_from(cells) {
            Ok(word) => pack(word, &burned),
            Err(_) => pack(cells, &burned) << shift,
        };
        let valid = (u64::MAX >> (WORD_CELLS - cells.len())) << shift;
        let pre = preburn.map_or(0, |x| x.words()[w] & valid);
        tally_word(&mut tally, real.words()[w] & valid, p, pre);
    }
    tally
}

/// [`jaccard`] of `real` against the fire line `simulated` implies at
/// instant `t`, computed directly from the ignition-time raster.
///
/// Equivalent to `jaccard(real, &simulated.fire_line_at(t), preburn)` but
/// streaming — no fire line is materialised. This is the whole-raster
/// form; an evaluator that knows which cells its run wrote tallies only
/// those ([`tally_ranges`] + [`JaccardBreakdown::index_with_real_total`]),
/// or counts them as the run writes them, and gets the same `f64`.
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
        (real.rows(), real.cols()) == simulated.grid().shape(),
        "jaccard: real map and ignition raster differ in shape"
    );
    let n = real.len();
    tally_ranges(
        real,
        simulated.grid().as_slice(),
        |&arrival| arrival <= t,
        preburn,
        std::iter::once(0..n),
    )
    .index()
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
}
