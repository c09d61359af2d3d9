//! Ignition-probability matrices — the Statistical Stage's data structure.
//!
//! The SS block of Figs. 1–3 "aggregates the resulting maps into a matrix in
//! which each cell represents the probability of ignition of that region".
//! [`ProbabilityMap`] is that matrix; thresholding it at the Key Ignition
//! Value (`Kign`) yields the predicted fire line (Fig. 2).
//!
//! The matrix is a *fold over burned cells*, not a raster product: each
//! aggregated run raises counts only where it burned
//! ([`ProbabilityMap::accumulate_ranges`] takes the cells the run wrote,
//! and how many identical runs it stands for), and the map keeps the
//! union of those stretches as its cover. Everything
//! outside the cover is count 0 by construction, so the Calibration and
//! Prediction stages read the map through one walk of the cover
//! ([`ProbabilityMap::histogram_into`]) that bins the cells by count — at
//! most `samples + 1` buckets — and every threshold's Eq. (3) is then
//! integer arithmetic over the buckets
//! ([`LevelHistogram::breakdown_where`]). The cost of a map, and of every
//! question asked of it, follows the fire, not `rows × cols`. The dense
//! [`ProbabilityMap::accumulate`] and [`ProbabilityMap::threshold`] remain
//! as the whole-raster convenience the tests hold the fold against.

use crate::firemap::FireLine;
use crate::grid::Grid;
use crate::metrics::JaccardBreakdown;
use std::ops::Range;

/// Per-cell ignition frequency over a set of overlapping simulations.
/// Two maps are equal when they hold the same counts of the same number of
/// runs, however they were fed.
#[derive(Debug, Clone)]
pub struct ProbabilityMap {
    counts: Grid<u32>,
    samples: u32,
    /// The cover: ascending, disjoint, non-touching index ranges holding
    /// every cell with a non-zero count — the union, over the runs, of the
    /// burned stretch of each range a run reported.
    cover: Vec<Range<usize>>,
    /// Merge scratch, kept for its capacity: the burned stretches of the
    /// run being accumulated, and the cover being built from them.
    incoming: Vec<Range<usize>>,
    merged: Vec<Range<usize>>,
}

impl PartialEq for ProbabilityMap {
    fn eq(&self, other: &Self) -> bool {
        self.samples == other.samples && self.counts == other.counts
    }
}

/// Ignition frequency of a cell `count` of `samples` runs burned; 0 when
/// nothing has been aggregated yet. The one expression behind every
/// probability in this module, so a per-bucket comparison against a
/// threshold is the per-cell comparison.
#[inline]
fn frequency(count: usize, samples: usize) -> f64 {
    if samples == 0 {
        0.0
    } else {
        count as f64 / samples as f64
    }
}

impl ProbabilityMap {
    /// An empty accumulator for maps of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            counts: Grid::filled(rows, cols, 0),
            samples: 0,
            cover: Vec::new(),
            incoming: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Empties the map for another fold of the same shape: the map
    /// [`ProbabilityMap::new`] gives, at the cost of the cover — every
    /// non-zero count lies in it — not of the raster. The buffers keep
    /// their storage.
    pub fn clear(&mut self) {
        let counts = self.counts.as_mut_slice();
        for range in self.cover.drain(..) {
            counts[range].fill(0);
        }
        self.samples = 0;
    }

    /// Number of aggregated fire lines.
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.counts.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.counts.cols()
    }

    /// Accumulates one simulated fire line (one scenario's burned map) by
    /// a walk of the whole mask — [`ProbabilityMap::accumulate_ranges`]
    /// over the single range that is the raster.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, line: &FireLine) {
        assert!(
            self.counts.same_shape(line.mask()),
            "probability map: fire line shape mismatch"
        );
        let mask = line.mask().as_slice();
        self.accumulate_ranges(mask, |&burned| burned, std::iter::once(0..mask.len()), 1);
    }

    /// Accumulates `runs` identical runs from the cells one of them wrote:
    /// `predicted` is the run's row-major raster (a mask, or arrival times
    /// read against an instant by `burned`), `ranges` the index ranges
    /// outside which it burned nothing — for an arena run,
    /// `SimArena::written_ranges`. Only those cells are visited, so a run
    /// costs what it burned, and a result set member that repeats `k`
    /// times is one visit with `runs = k`: counts and samples are integer
    /// sums, so that is the map `k` single folds give. The ranges must not
    /// overlap, or the shared cells count twice.
    ///
    /// # Panics
    /// Panics when the raster is not the map's size or a range reaches
    /// past it.
    pub fn accumulate_ranges<P>(
        &mut self,
        predicted: &[P],
        burned: impl Fn(&P) -> bool,
        ranges: impl IntoIterator<Item = Range<usize>>,
        runs: u32,
    ) {
        assert_eq!(
            predicted.len(),
            self.counts.len(),
            "probability map: raster size mismatch"
        );
        self.samples += runs;
        let counts = self.counts.as_mut_slice();
        self.incoming.clear();
        for range in ranges {
            let cells = counts[range.clone()]
                .iter_mut()
                .zip(&predicted[range.clone()]);
            let mut stretch: Option<(usize, usize)> = None;
            for (i, (count, p)) in cells.enumerate() {
                if burned(p) {
                    *count += runs;
                    stretch = Some((stretch.map_or(i, |(first, _)| first), i));
                }
            }
            if let Some((first, last)) = stretch {
                self.incoming
                    .push(range.start + first..range.start + last + 1);
            }
        }
        // An arena reports its row spans in order, so this is sorted
        // already; another caller's ranges may come in any order.
        self.incoming.sort_unstable_by_key(|r| r.start);
        self.merge_incoming();
    }

    /// Replaces the cover with its union with `incoming` (both ascending).
    fn merge_incoming(&mut self) {
        self.merged.clear();
        let (mut held, mut new) = (
            self.cover.iter().peekable(),
            self.incoming.iter().peekable(),
        );
        loop {
            let next = match (held.peek(), new.peek()) {
                (Some(h), Some(n)) if h.start <= n.start => held.next(),
                (_, Some(_)) => new.next(),
                (_, None) => held.next(),
            };
            let Some(next) = next else { break };
            match self.merged.last_mut() {
                Some(last) if next.start <= last.end => last.end = last.end.max(next.end),
                _ => self.merged.push(next.clone()),
            }
        }
        std::mem::swap(&mut self.cover, &mut self.merged);
    }

    /// The map's cover: ascending, disjoint index ranges outside which
    /// every cell has probability 0. They are what the aggregated runs
    /// reported, narrowed to where each burned, so their total length is
    /// at most the number of cells those runs wrote.
    pub fn touched_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.cover.iter().cloned()
    }

    /// Ignition probability of `(row, col)` ∈ `[0, 1]`; 0 when no samples
    /// have been accumulated yet.
    #[inline]
    pub fn probability(&self, row: usize, col: usize) -> f64 {
        frequency(self.counts.at(row, col) as usize, self.samples as usize)
    }

    /// Applies the Key Ignition Value: a cell is predicted burned when its
    /// ignition probability is **greater than or equal to** `kign`.
    ///
    /// `kign` is clamped to `[0, 1]`. With `kign = 0` every cell burns (any
    /// probability ≥ 0); raising `kign` monotonically shrinks the predicted
    /// area, which the calibration stage exploits. This materialises a
    /// whole raster; the stages score a threshold through
    /// [`ProbabilityMap::histogram_into`] instead.
    pub fn threshold(&self, kign: f64) -> FireLine {
        let k = kign.clamp(0.0, 1.0);
        let s = self.samples as usize;
        FireLine::from_mask(self.counts.map(|&c| frequency(c as usize, s) >= k))
    }

    /// The distinct probability levels present in the map, ascending.
    ///
    /// The calibration search only needs to test these values (plus 0):
    /// thresholding is a step function of `kign` with steps exactly at the
    /// observed levels. Read off the cover: level 0 is present iff some
    /// cell of the raster is unburned.
    pub fn distinct_levels(&self) -> Vec<f64> {
        let s = self.samples as usize;
        let mut present = vec![false; s + 1];
        let mut burned = 0;
        for range in self.touched_ranges() {
            for &c in &self.counts.as_slice()[range] {
                if c > 0 {
                    present[c as usize] = true;
                    burned += 1;
                }
            }
        }
        present[0] = burned < self.counts.len();
        let levels = present.iter().enumerate().filter(|(_, &p)| p);
        levels.map(|(c, _)| frequency(c, s)).collect()
    }

    /// Bins the map against an observation in one walk of the cover:
    /// `hist` ends up with one bucket per count `0..=samples`,
    /// holding how many cells have that count and, outside the pre-burn
    /// exclusion, how many of them reality burned and did not. The cells
    /// no run burned are never visited — bucket 0 is what the
    /// observation's whole-raster counts leave over. `hist`'s storage is
    /// reused.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn histogram_into(&self, observed: &Observed<'_>, hist: &mut LevelHistogram) {
        assert!(
            self.counts.same_shape(observed.real.mask()),
            "probability map: observed fire line shape mismatch"
        );
        hist.buckets.clear();
        hist.buckets
            .resize(self.samples as usize + 1, LevelBucket::default());
        hist.real_new = observed.real_new;
        hist.preburned = observed.preburned;
        hist.visited = 0;
        let counts = self.counts.as_slice();
        let real = observed.real.mask().as_slice();
        let preburn = observed.preburn.map(|p| p.mask().as_slice());
        let buckets = &mut hist.buckets;
        let mut bin = |count: u32, was_real: bool, pre: bool| {
            if count == 0 {
                return;
            }
            let bucket = &mut buckets[count as usize];
            bucket.cells += 1;
            match (pre, was_real) {
                (true, _) => {}
                (false, true) => bucket.hits += 1,
                (false, false) => bucket.false_alarms += 1,
            }
        };
        for range in self.touched_ranges() {
            hist.visited += range.len();
            let cells = counts[range.clone()].iter().zip(&real[range.clone()]);
            match preburn {
                Some(pre) => {
                    for ((&c, &r), &x) in cells.zip(&pre[range]) {
                        bin(c, r, x);
                    }
                }
                None => {
                    for (&c, &r) in cells {
                        bin(c, r, false);
                    }
                }
            }
        }
        let mut rest = LevelBucket {
            cells: counts.len(),
            hits: observed.real_new,
            false_alarms: counts.len() - observed.preburned - observed.real_new,
        };
        for b in &hist.buckets[1..] {
            rest.cells -= b.cells;
            rest.hits -= b.hits;
            rest.false_alarms -= b.false_alarms;
        }
        hist.buckets[0] = rest;
    }
}

/// What a thresholded map is scored against with Eq. (3): the real fire
/// line, the pre-burn exclusion, and the two whole-raster counts that let
/// the scoring visit only the cells a prediction burns — every `real ∧
/// ¬preburn` cell elsewhere is a miss, and needs no visit to be counted.
#[derive(Debug, Clone, Copy)]
pub struct Observed<'a> {
    real: &'a FireLine,
    preburn: Option<&'a FireLine>,
    /// Cells of `real ∧ ¬preburn` — what Eq. (3) can hit or miss.
    real_new: usize,
    /// Cells of `preburn` — what Eq. (3) leaves out.
    preburned: usize,
}

impl<'a> Observed<'a> {
    /// Takes the two counts by scanning both rasters.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn scan(real: &'a FireLine, preburn: Option<&'a FireLine>) -> Self {
        let Some(pre) = preburn else {
            return Self::counted(real, None, real.burned_area(), 0);
        };
        assert!(
            real.mask().same_shape(pre.mask()),
            "observed: preburn mask differs in shape"
        );
        // Byte-wide partial sums over blocks too short to overflow them —
        // the shape that compiles to vector adds (an order of magnitude
        // faster than a filtered count on a megacell raster).
        const BLOCK: usize = u8::MAX as usize;
        let blocks = real.mask().as_slice().chunks(BLOCK);
        let (mut real_new, mut preburned) = (0, 0);
        for (real, pre) in blocks.zip(pre.mask().as_slice().chunks(BLOCK)) {
            let (mut new, mut old) = (0u8, 0u8);
            for (&r, &p) in real.iter().zip(pre) {
                new += u8::from(r & !p);
                old += u8::from(p);
            }
            real_new += usize::from(new);
            preburned += usize::from(old);
        }
        Self::counted(real, preburn, real_new, preburned)
    }

    /// Cells of `real ∧ ¬preburn` — what Eq. (3) can hit or miss.
    pub fn real_new(&self) -> usize {
        self.real_new
    }

    /// Cells of `preburn` — what Eq. (3) leaves out.
    pub fn preburned(&self) -> usize {
        self.preburned
    }

    /// Takes the two counts from a caller that already holds them (a step
    /// context counts them once per case): `real_new` cells of `real ∧
    /// ¬preburn`, `preburned` cells of `preburn`.
    pub fn counted(
        real: &'a FireLine,
        preburn: Option<&'a FireLine>,
        real_new: usize,
        preburned: usize,
    ) -> Self {
        Self {
            real,
            preburn,
            real_new,
            preburned,
        }
    }
}

/// The cells of a map some fixed number of runs burned, split by what
/// reality did there.
#[derive(Debug, Clone, Copy, Default)]
struct LevelBucket {
    /// Cells with this count, pre-burned ones included: the level exists
    /// in the map iff this is non-zero.
    cells: usize,
    /// Of those outside the pre-burn exclusion, the cells reality burned.
    hits: usize,
    /// Of those outside the pre-burn exclusion, the cells it did not.
    false_alarms: usize,
}

/// A [`ProbabilityMap`] binned against an observation
/// ([`ProbabilityMap::histogram_into`]): one bucket per ignition count
/// `0..=samples` (start from `LevelHistogram::default()`; refilling one
/// reuses its storage). A threshold burns whole buckets, so the Eq. (3)
/// score of *any* threshold is a sum over at most `samples + 1` integers —
/// the same integers, hence the same `f64`, as thresholding the raster and
/// tallying it cell by cell.
#[derive(Debug, Clone, Default)]
pub struct LevelHistogram {
    buckets: Vec<LevelBucket>,
    real_new: usize,
    preburned: usize,
    visited: usize,
}

impl LevelHistogram {
    /// Number of runs the binned map aggregated.
    pub fn samples(&self) -> usize {
        self.buckets.len().saturating_sub(1)
    }

    /// Cells the binning walk visited — the map's cover, not the raster.
    pub fn visited(&self) -> usize {
        self.visited
    }

    /// The Eq. (3) contingency counts of the prediction made of the
    /// buckets whose ignition probability `burns` accepts — what
    /// `jaccard_breakdown` tallies over the thresholded raster.
    pub fn breakdown_where(&self, burns: impl Fn(f64) -> bool) -> JaccardBreakdown {
        let s = self.samples();
        let predicted = self.buckets.iter().enumerate();
        let predicted = predicted.filter(|&(c, _)| burns(frequency(c, s)));
        let (hits, false_alarms) = predicted.fold((0, 0), |(hits, false_alarms), (_, b)| {
            (hits + b.hits, false_alarms + b.false_alarms)
        });
        JaccardBreakdown {
            hits,
            false_alarms,
            misses: self.real_new - hits,
            excluded: self.preburned,
        }
    }

    /// The map's distinct probability levels, ascending, each with the
    /// Eq. (3) fitness of thresholding the map exactly there — the exact
    /// `SKign` search space. The prediction at a level is every bucket
    /// from it upwards: a running suffix sum.
    pub fn levels(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let s = self.samples();
        // Every bucket burns at the lowest level; each level passed takes
        // its own bucket out of the prediction.
        let mut above = self.breakdown_where(|_| true);
        self.buckets.iter().enumerate().filter_map(move |(c, b)| {
            let at_level = above;
            above.hits -= b.hits;
            above.false_alarms -= b.false_alarms;
            above.misses += b.hits;
            (b.cells > 0).then(|| (frequency(c, s), at_level.index()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fl(cells: &[(usize, usize)]) -> FireLine {
        FireLine::from_cells(2, 2, cells)
    }

    #[test]
    fn probabilities_are_frequencies() {
        let mut pm = ProbabilityMap::new(2, 2);
        pm.accumulate(&fl(&[(0, 0), (0, 1)]));
        pm.accumulate(&fl(&[(0, 0)]));
        pm.accumulate(&fl(&[(0, 0), (1, 1)]));
        assert_eq!(pm.samples(), 3);
        assert!((pm.probability(0, 0) - 1.0).abs() < 1e-12);
        assert!((pm.probability(0, 1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((pm.probability(1, 0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_zero_burns_everything() {
        let mut pm = ProbabilityMap::new(2, 2);
        pm.accumulate(&fl(&[(0, 0)]));
        assert_eq!(pm.threshold(0.0).burned_area(), 4);
    }

    #[test]
    fn threshold_is_monotone_decreasing_in_kign() {
        let mut pm = ProbabilityMap::new(2, 2);
        pm.accumulate(&fl(&[(0, 0), (0, 1)]));
        pm.accumulate(&fl(&[(0, 0)]));
        let a0 = pm.threshold(0.0).burned_area();
        let a1 = pm.threshold(0.4).burned_area();
        let a2 = pm.threshold(0.9).burned_area();
        let a3 = pm.threshold(1.0).burned_area();
        assert!(a0 >= a1 && a1 >= a2 && a2 >= a3);
        assert_eq!(a3, 1); // only (0,0) has p = 1
    }

    #[test]
    fn threshold_includes_equal_probability() {
        let mut pm = ProbabilityMap::new(2, 2);
        pm.accumulate(&fl(&[(0, 0)]));
        pm.accumulate(&fl(&[(0, 0), (0, 1)]));
        // p(0,1) = 0.5; threshold at exactly 0.5 keeps it.
        assert!(pm.threshold(0.5).is_burned(0, 1));
        assert!(!pm.threshold(0.51).is_burned(0, 1));
    }

    #[test]
    fn empty_map_thresholds_empty_above_zero() {
        let pm = ProbabilityMap::new(2, 2);
        assert_eq!(pm.threshold(0.1).burned_area(), 0);
        assert_eq!(pm.probability(1, 1), 0.0);
    }

    #[test]
    fn distinct_levels_sorted_and_deduped() {
        let mut pm = ProbabilityMap::new(2, 2);
        pm.accumulate(&fl(&[(0, 0), (0, 1)]));
        pm.accumulate(&fl(&[(0, 0)]));
        let levels = pm.distinct_levels();
        assert_eq!(levels, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let mut pm = ProbabilityMap::new(2, 2);
        pm.accumulate(&FireLine::empty(3, 3));
    }

    #[test]
    fn ranges_feed_the_same_map_as_whole_lines_and_record_the_spans() {
        // 3×4 raster; one run burned cells 1, 2 (row 0) and 6 (row 1), and
        // reports the range 1..7 — crossing a row boundary — plus a lone cell.
        let times = [9.0, 1.0, 2.0, 9.0, 9.0, 9.0, 3.0, 9.0, 9.0, 9.0, 9.0, 4.0];
        let mut fed = ProbabilityMap::new(3, 4);
        fed.accumulate_ranges(&times, |&t| t <= 5.0, [1..7, 11..12], 1);
        let mut dense = ProbabilityMap::new(3, 4);
        dense.accumulate(&FireLine::from_cells(
            3,
            4,
            &[(0, 1), (0, 2), (1, 2), (2, 3)],
        ));
        assert_eq!(fed, dense);
        let touched: Vec<_> = fed.touched_ranges().collect();
        assert_eq!(touched, [1..7, 11..12]);
        assert_eq!(fed.distinct_levels(), vec![0.0, 1.0]);
    }

    #[test]
    fn a_cleared_map_is_a_new_one_and_folds_like_one() {
        let times = [9.0, 1.0, 2.0, 9.0, 9.0, 9.0, 3.0, 9.0, 9.0, 9.0, 9.0, 4.0];
        let mut pm = ProbabilityMap::new(3, 4);
        pm.accumulate_ranges(&times, |&t| t <= 5.0, [1..7, 11..12], 3);
        pm.accumulate(&FireLine::from_cells(3, 4, &[(2, 0)]));
        pm.clear();
        assert_eq!(pm, ProbabilityMap::new(3, 4));
        assert_eq!(pm.touched_ranges().count(), 0);
        assert_eq!(pm.distinct_levels(), vec![0.0]);
        pm.accumulate_ranges(&times, |&t| t <= 2.5, [0..6, 9..12], 2);
        let mut fresh = ProbabilityMap::new(3, 4);
        fresh.accumulate_ranges(&times, |&t| t <= 2.5, [0..6, 9..12], 2);
        assert_eq!(pm, fresh);
        assert!(pm.touched_ranges().eq(fresh.touched_ranges()));
    }

    #[test]
    fn level_zero_is_present_only_while_a_cell_is_unburned() {
        let mut pm = ProbabilityMap::new(2, 2);
        assert_eq!(pm.distinct_levels(), vec![0.0]);
        pm.accumulate(&fl(&[(0, 0), (0, 1), (1, 0), (1, 1)]));
        assert_eq!(pm.distinct_levels(), vec![1.0]);
        pm.accumulate(&fl(&[(0, 0)]));
        assert_eq!(pm.distinct_levels(), vec![0.5, 1.0]);
    }

    #[test]
    fn histogram_buckets_split_levels_by_what_reality_did() {
        // Counts: (0,0) = 2, (0,1) = 1, the rest 0. Reality burned (0,0)
        // and (1,1); (0,1) is pre-burned.
        let mut pm = ProbabilityMap::new(2, 2);
        pm.accumulate(&fl(&[(0, 0), (0, 1)]));
        pm.accumulate(&fl(&[(0, 0)]));
        let (real, pre) = (fl(&[(0, 0), (0, 1), (1, 1)]), fl(&[(0, 1)]));
        let mut hist = LevelHistogram::default();
        pm.histogram_into(&Observed::scan(&real, Some(&pre)), &mut hist);
        assert_eq!((hist.samples(), hist.visited()), (2, 2));
        // Kign 1 predicts {(0,0)}: one hit, (1,1) missed.
        let at_one = hist.breakdown_where(|p| p >= 1.0);
        assert_eq!((at_one.hits, at_one.false_alarms, at_one.misses), (1, 0, 1));
        // Kign 0 predicts everything, from the counts alone: (1,0) is the
        // one false alarm, (0,1) the one excluded cell.
        let at_zero = hist.breakdown_where(|p| p >= 0.0);
        assert_eq!((at_zero.hits, at_zero.false_alarms), (2, 1));
        assert_eq!((at_zero.misses, at_zero.excluded), (0, 1));
        let levels: Vec<_> = hist.levels().collect();
        assert_eq!(levels, [(0.0, 2.0 / 3.0), (0.5, 0.5), (1.0, 0.5)]);
    }
}
