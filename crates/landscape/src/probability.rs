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
//! ([`LevelHistogram::breakdown_where`]).
//!
//! The counts follow the fire too: they live in chunks of 1 024 cells of
//! the row-major index (4 KiB, one page), and a chunk exists only once a
//! fold has burned one of its cells. The fold, the clear and the cover
//! walks take each range one chunk piece at a time, so they pay one
//! directory read per piece, not per cell, and an absent chunk reads as
//! zeros. No raster-sized count grid is ever
//! allocated or zeroed: a map over an `archipelago_xl` raster (1.2 M
//! cells) is a 9.4 kB directory plus a page for each chunk its fires
//! reached. The cost of a map, and of every question asked of it, follows
//! the fire, not `rows × cols`. The dense [`ProbabilityMap::accumulate`]
//! and [`ProbabilityMap::threshold`] remain as the whole-raster
//! convenience the tests hold the fold against.

use crate::firemap::{pieces, FireLine, WORD_CELLS};
use crate::metrics::JaccardBreakdown;
use std::ops::Range;

/// Cells in one chunk of a [`ProbabilityMap`]'s counts: 1 024 `u32`s, one
/// 4 KiB page.
const CHUNK_CELLS: usize = 1024;

/// The counts of cells `CHUNK_CELLS c .. CHUNK_CELLS (c + 1)` of the
/// row-major index.
type Chunk = [u32; CHUNK_CELLS];

/// Per-cell ignition frequency over a set of overlapping simulations.
/// Two maps are equal when they hold the same counts of the same number of
/// runs, however they were fed — whichever chunks each happens to hold.
#[derive(Debug, Clone)]
pub struct ProbabilityMap {
    rows: usize,
    cols: usize,
    /// The directory, one slot per chunk of the raster (the last one may
    /// reach past its end): a chunk is allocated when a fold first burns
    /// one of its cells and kept for the map's life, so a cleared map
    /// folds the same fires again without allocating. An absent chunk is
    /// all zeros.
    chunks: Vec<Option<Box<Chunk>>>,
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
        // An absent chunk is zeros, so it equals a held chunk of zeros.
        let zeros = |c: &Option<Box<Chunk>>| c.as_ref().is_none_or(|c| c.iter().all(|&n| n == 0));
        let mut chunks = self.chunks.iter().zip(&other.chunks);
        (self.rows, self.cols, self.samples) == (other.rows, other.cols, other.samples)
            && chunks.all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => a == b,
                _ => zeros(a) && zeros(b),
            })
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
    /// An empty accumulator for maps of the given shape: the chunk
    /// directory, and no chunk.
    ///
    /// # Panics
    /// Panics if either dimension is zero, as [`crate::Grid`] does.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be non-zero");
        Self {
            rows,
            cols,
            chunks: vec![None; (rows * cols).div_ceil(CHUNK_CELLS)],
            samples: 0,
            cover: Vec::new(),
            incoming: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Empties the map for another fold of the same shape: the map
    /// [`ProbabilityMap::new`] gives, at the cost of the cover — every
    /// non-zero count lies in it — not of the raster. The chunks and the
    /// buffers keep their storage.
    pub fn clear(&mut self) {
        for (c, piece) in self.cover.drain(..).flat_map(pieces::<CHUNK_CELLS>) {
            if let Some(chunk) = &mut self.chunks[c] {
                chunk[within(c, piece)].fill(0);
            }
        }
        self.samples = 0;
    }

    /// Number of aggregated fire lines.
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of cells, `rows × cols`.
    fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// The count of the cell at row-major index `idx`.
    fn count(&self, idx: usize) -> u32 {
        let chunk = self.chunks[idx / CHUNK_CELLS].as_deref();
        chunk.map_or(0, |counts| counts[idx % CHUNK_CELLS])
    }

    /// Accumulates one simulated fire line (one scenario's burned map) by
    /// a walk of its set bits: the map
    /// [`ProbabilityMap::accumulate_ranges`] gives over the single range
    /// that is the raster.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, line: &FireLine) {
        assert!(
            (line.rows(), line.cols()) == (self.rows, self.cols),
            "probability map: fire line shape mismatch"
        );
        self.samples += 1;
        let mut stretch: Option<(usize, usize)> = None;
        for idx in line.burned_indices() {
            let chunk = self.chunks[idx / CHUNK_CELLS].get_or_insert_with(zeroed);
            chunk[idx % CHUNK_CELLS] += 1;
            stretch = Some((stretch.map_or(idx, |(first, _)| first), idx));
        }
        self.incoming.clear();
        self.incoming
            .extend(stretch.map(|(first, last)| first..last + 1));
        self.merge_incoming();
    }

    /// Accumulates `runs` identical runs from the cells one of them wrote:
    /// `predicted` is the run's row-major raster (a mask, or arrival times
    /// read against an instant by `burned`), `ranges` the index ranges
    /// outside which it burned nothing — for an arena run,
    /// `SimArena::written_ranges`. Only those cells are visited, one chunk
    /// piece at a time, so a run costs what it burned, and a piece that
    /// burned nothing adds no chunk. A result set member that repeats `k`
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
            self.len(),
            "probability map: raster size mismatch"
        );
        self.samples += runs;
        self.incoming.clear();
        for range in ranges {
            let mut stretch: Option<(usize, usize)> = None;
            for (c, piece) in pieces::<CHUNK_CELLS>(range) {
                let cells = &predicted[piece.clone()];
                let Some(first) = cells.iter().position(&burned) else {
                    continue;
                };
                let chunk = self.chunks[c].get_or_insert_with(zeroed);
                let mut last = first;
                let counts = chunk[within(c, piece.clone())].iter_mut().zip(cells);
                for (i, (count, p)) in counts.enumerate().skip(first) {
                    if burned(p) {
                        *count += runs;
                        last = i;
                    }
                }
                let first = stretch.map_or(piece.start + first, |(first, _)| first);
                stretch = Some((first, piece.start + last));
            }
            if let Some((first, last)) = stretch {
                self.incoming.push(first..last + 1);
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

    /// The cover cut at chunk boundaries, each piece with its counts. The
    /// pieces of absent chunks are left out: their counts are all 0.
    fn cover_counts(&self) -> impl Iterator<Item = (Range<usize>, &[u32])> + '_ {
        let cut = self.cover.iter().cloned().flat_map(pieces::<CHUNK_CELLS>);
        cut.filter_map(|(c, piece)| {
            let chunk = self.chunks[c].as_deref()?;
            Some((piece.clone(), &chunk[within(c, piece)]))
        })
    }

    /// Ignition probability of `(row, col)` ∈ `[0, 1]`; 0 when no samples
    /// have been accumulated yet.
    ///
    /// # Panics
    /// Panics when the cell is outside the map.
    #[inline]
    pub fn probability(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "probability map: cell out of bounds"
        );
        let count = self.count(row * self.cols + col);
        frequency(count as usize, self.samples as usize)
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
        FireLine::from_fn(self.rows, self.cols, |r, c| {
            frequency(self.count(r * self.cols + c) as usize, s) >= k
        })
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
        for (_, counts) in self.cover_counts() {
            for &c in counts {
                if c > 0 {
                    present[c as usize] = true;
                    burned += 1;
                }
            }
        }
        present[0] = burned < self.len();
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
            (observed.real.rows(), observed.real.cols()) == (self.rows, self.cols),
            "probability map: observed fire line shape mismatch"
        );
        hist.buckets.clear();
        hist.buckets
            .resize(self.samples as usize + 1, LevelBucket::default());
        hist.real_new = observed.real_new;
        hist.preburned = observed.preburned;
        let real = observed.real.words();
        let preburn = observed.preburn.map(FireLine::words);
        let buckets = &mut hist.buckets;
        hist.visited = self.cover.iter().map(Range::len).sum();
        for (piece, counts) in self.cover_counts() {
            for (w, word) in pieces::<WORD_CELLS>(piece.clone()) {
                // Each line's bits of the word, shifted down as its cells
                // go by.
                let shift = word.start % WORD_CELLS;
                let mut r = real[w] >> shift;
                let mut x = preburn.map_or(0, |p| p[w]) >> shift;
                for &count in &counts[word.start - piece.start..word.end - piece.start] {
                    if count != 0 {
                        let bucket = &mut buckets[count as usize];
                        bucket.cells += 1;
                        match (x & 1 != 0, r & 1 != 0) {
                            (true, _) => {}
                            (false, true) => bucket.hits += 1,
                            (false, false) => bucket.false_alarms += 1,
                        }
                    }
                    (r, x) = (r >> 1, x >> 1);
                }
            }
        }
        let mut rest = LevelBucket {
            cells: self.len(),
            hits: observed.real_new,
            false_alarms: self.len() - observed.preburned - observed.real_new,
        };
        for b in &hist.buckets[1..] {
            rest.cells -= b.cells;
            rest.hits -= b.hits;
            rest.false_alarms -= b.false_alarms;
        }
        hist.buckets[0] = rest;
    }
}

/// A chunk of zero counts.
fn zeroed() -> Box<Chunk> {
    Box::new([0; CHUNK_CELLS])
}

/// The cells `piece` of chunk `c` (which must lie in it), as indices into
/// the chunk.
fn within(c: usize, piece: Range<usize>) -> Range<usize> {
    let at = c * CHUNK_CELLS;
    piece.start - at..piece.end - at
}

/// What a thresholded map is scored against with Eq. (3): the real fire
/// line, the pre-burn exclusion (both one bit per cell), and the two
/// whole-raster counts that let the scoring visit only the cells a
/// prediction burns — every `real ∧ ¬preburn` cell elsewhere is a miss,
/// and needs no visit to be counted. [`Observed::scan`] takes the counts
/// by popcount, a word of 64 cells at a time.
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
    /// Takes the two counts from both lines' words, by popcount.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn scan(real: &'a FireLine, preburn: Option<&'a FireLine>) -> Self {
        let Some(pre) = preburn else {
            return Self::counted(real, None, real.burned_area(), 0);
        };
        assert!(
            real.same_shape(pre),
            "observed: preburn mask differs in shape"
        );
        let (mut real_new, mut preburned) = (0, 0);
        for (&r, &p) in real.words().iter().zip(pre.words()) {
            real_new += (r & !p).count_ones() as usize;
            preburned += p.count_ones() as usize;
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
    fn a_megacell_map_holds_only_the_chunks_its_fires_burn() {
        // Three 6×6 fires on a 1000×1200 raster, one astride a chunk
        // boundary, folded from whole rows as an arena reports them: the
        // rows' unburned cells add no chunk.
        let (rows, cols) = (1000, 1200);
        let mut pm = ProbabilityMap::new(rows, cols);
        let mut burned = vec![false; rows * cols];
        let mut held = std::collections::BTreeSet::new();
        for (r0, c0) in [(0, 1020), (500, 600), (994, 1194)] {
            let cells: Vec<usize> = (r0..r0 + 6)
                .flat_map(|r| (c0..c0 + 6).map(move |c| r * cols + c))
                .collect();
            cells.iter().for_each(|&i| burned[i] = true);
            held.extend(cells.iter().map(|i| i / CHUNK_CELLS));
            let spans = (r0..r0 + 6).map(|r| r * cols..(r + 1) * cols);
            pm.accumulate_ranges(&burned, |&b| b, spans, 1);
            cells.iter().for_each(|&i| burned[i] = false);
        }
        let chunks = |pm: &ProbabilityMap| -> std::collections::BTreeSet<usize> {
            let slots = pm.chunks.iter().enumerate();
            slots
                .filter_map(|(c, chunk)| chunk.as_ref().map(|_| c))
                .collect()
        };
        assert_eq!(chunks(&pm), held);
        assert!(held.len() <= 24, "{} chunks", held.len());
        // The directory and the chunks, against the 4.8 MB of a count a cell.
        let bytes = pm.chunks.len() * std::mem::size_of::<Option<Box<Chunk>>>()
            + held.len() * std::mem::size_of::<Chunk>();
        assert_eq!(pm.chunks.len(), 1172);
        assert!(bytes < 110_000, "{bytes} B");
        // A cleared map keeps its chunks and folds the same fire into them.
        pm.clear();
        pm.accumulate(&FireLine::from_cells(rows, cols, &[(500, 600)]));
        assert_eq!(chunks(&pm), held);
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
