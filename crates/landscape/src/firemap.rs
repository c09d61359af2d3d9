//! Ignition-time maps and burned-cell fire lines.

use crate::grid::Grid;
use std::ops::Range;

/// Sentinel ignition time for a cell the fire never reaches.
///
/// fireLib reports such cells as `0` in its output map (paper §III-A: "the
/// moment when that cell is reached by the fire, or zero otherwise"); we use
/// `+∞` instead so that "earlier" comparisons need no special case, and
/// translate at the IO boundary.
pub const UNIGNITED: f64 = f64::INFINITY;

/// Per-cell ignition times (minutes since the start of the simulation).
///
/// This is the raw output of one fire-simulator run for one scenario: the
/// `FS` block of Figs. 1–3 produces exactly one of these per parameter
/// vector.
#[derive(Debug, Clone, PartialEq)]
pub struct IgnitionMap {
    times: Grid<f64>,
}

impl IgnitionMap {
    /// A map where no cell has ignited yet.
    pub fn unignited(rows: usize, cols: usize) -> Self {
        Self {
            times: Grid::filled(rows, cols, UNIGNITED),
        }
    }

    /// Wraps a grid of ignition times.
    ///
    /// # Panics
    /// Panics if any time is negative or NaN — ignition times are physical
    /// instants and the propagation algorithms rely on their ordering.
    pub fn from_grid(times: Grid<f64>) -> Self {
        for (_, &t) in times.iter_cells() {
            assert!(
                !t.is_nan() && t >= 0.0,
                "ignition times must be non-negative, not NaN"
            );
        }
        Self { times }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.times.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.times.cols()
    }

    /// Ignition time of `(row, col)` ([`UNIGNITED`] when never reached).
    #[inline]
    pub fn time(&self, row: usize, col: usize) -> f64 {
        self.times.at(row, col)
    }

    /// Sets the ignition time of a cell.
    #[inline]
    pub fn set_time(&mut self, row: usize, col: usize, t: f64) {
        debug_assert!(!t.is_nan() && t >= 0.0);
        self.times.set(row, col, t);
    }

    /// Underlying grid of times.
    pub fn grid(&self) -> &Grid<f64> {
        &self.times
    }

    /// Mutable access for simulator scratch reuse.
    pub fn grid_mut(&mut self) -> &mut Grid<f64> {
        &mut self.times
    }

    /// Resets every cell to [`UNIGNITED`] in place (no reallocation).
    pub fn clear(&mut self) {
        self.times.fill(UNIGNITED);
    }

    /// The burned-cell set at instant `t`: every cell whose ignition time is
    /// `<= t`. This is how an `RFL`/`PFL` snapshot is extracted from a
    /// simulation; each word of the line is 64 comparisons.
    pub fn fire_line_at(&self, t: f64) -> FireLine {
        FireLine::from_grid(&self.times, |&it| it <= t)
    }

    /// Number of cells ignited at or before `t`.
    pub fn burned_count_at(&self, t: f64) -> usize {
        self.times.as_slice().iter().filter(|&&it| it <= t).count()
    }
}

/// Cells one word of a [`FireLine`] holds.
pub(crate) const WORD_CELLS: usize = u64::BITS as usize;

/// The word of cells `cells` (at most [`WORD_CELLS`] of them): bit `i`
/// set iff `burned(&cells[i])`.
#[inline]
pub(crate) fn pack<P>(cells: &[P], burned: impl Fn(&P) -> bool) -> u64 {
    debug_assert!(cells.len() <= WORD_CELLS);
    let bits = cells.iter().enumerate();
    bits.fold(0, |word, (i, p)| word | u64::from(burned(p)) << i)
}

/// The pieces of `range` that each lie in one block of `WIDTH` cells:
/// `(b, piece)` with `piece` inside cells `WIDTH b .. WIDTH (b + 1)`, in
/// order — a line's words (`WIDTH` = [`WORD_CELLS`]) or a probability
/// map's count chunks.
pub(crate) fn pieces<const WIDTH: usize>(
    range: Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> {
    let mut start = range.start;
    std::iter::from_fn(move || {
        (start < range.end).then(|| {
            let b = start / WIDTH;
            let piece = start..range.end.min((b + 1) * WIDTH);
            start = piece.end;
            (b, piece)
        })
    })
}

/// The words of `cells`, row-major: [`pack`] over each run of
/// [`WORD_CELLS`] cells, the tail word's bits past the last cell zero.
fn pack_all<P>(cells: &[P], burned: impl Fn(&P) -> bool) -> Vec<u64> {
    let (full, tail) = cells.as_chunks::<WORD_CELLS>();
    let mut words = Vec::with_capacity(cells.len().div_ceil(WORD_CELLS));
    // A fixed-length chunk, so each word compiles to vector compares.
    words.extend(full.iter().map(|chunk| pack(chunk, &burned)));
    if !tail.is_empty() {
        words.push(pack(tail, &burned));
    }
    words
}

/// A burned-cell set at a single time instant — the "fire line" objects
/// (`RFL_i`, `PFL_i`) exchanged between the stages of Figs. 1–3.
///
/// One bit per cell: cell `i` of the row-major raster is bit `i % 64` of
/// word `i / 64`, and the bits past the last cell are always zero. So a
/// line is an eighth of a byte mask (150 000 B on a 1.2 M-cell raster),
/// and the set operations, areas and Eq. (3) tallies work 64 cells a word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FireLine {
    rows: usize,
    cols: usize,
    words: Vec<u64>,
}

impl FireLine {
    /// An empty (nothing burned) fire line.
    ///
    /// # Panics
    /// Panics if either dimension is zero, as [`Grid`] does.
    pub fn empty(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be non-zero");
        Self {
            rows,
            cols,
            words: vec![0; (rows * cols).div_ceil(WORD_CELLS)],
        }
    }

    /// The line of the cells of `grid` that `burned` accepts.
    pub fn from_grid<P>(grid: &Grid<P>, burned: impl Fn(&P) -> bool) -> Self {
        Self {
            rows: grid.rows(),
            cols: grid.cols(),
            words: pack_all(grid.as_slice(), burned),
        }
    }

    /// The line of the cells `(row, col)` for which `f(row, col)` is true.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut line = Self::empty(rows, cols);
        for idx in 0..rows * cols {
            if f(idx / cols, idx % cols) {
                line.words[idx / WORD_CELLS] |= 1 << (idx % WORD_CELLS);
            }
        }
        line
    }

    /// Builds a fire line from a list of `(row, col)` burned cells.
    pub fn from_cells(rows: usize, cols: usize, cells: &[(usize, usize)]) -> Self {
        let mut line = Self::empty(rows, cols);
        for &(r, c) in cells {
            line.set_burned(r, c, true);
        }
        line
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
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` when the line holds no cells (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when `other` has the same shape.
    pub fn same_shape(&self, other: &FireLine) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols)
    }

    /// `true` when `(row, col)` is burned.
    #[inline]
    pub fn is_burned(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.rows && col < self.cols);
        self.bit(row * self.cols + col)
    }

    /// `true` when the cell at row-major index `idx` is burned.
    #[inline]
    pub fn bit(&self, idx: usize) -> bool {
        self.words[idx / WORD_CELLS] >> (idx % WORD_CELLS) & 1 != 0
    }

    /// The line's words: cell `i` is bit `i % 64` of word `i / 64`, and
    /// the bits past the last cell are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Marks a cell burned/unburned.
    ///
    /// # Panics
    /// Panics when `(row, col)` lies outside the raster.
    pub fn set_burned(&mut self, row: usize, col: usize, burned: bool) {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row}, {col}) outside the fire line"
        );
        let idx = row * self.cols + col;
        let (word, bit) = (&mut self.words[idx / WORD_CELLS], 1 << (idx % WORD_CELLS));
        if burned {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Number of burned cells.
    pub fn burned_area(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Row-major indices of the burned cells, ascending: the set bits,
    /// found a word at a time.
    pub fn burned_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * WORD_CELLS + bit
                })
            })
        })
    }

    /// Burned cells as `(row, col)` pairs, row-major.
    pub fn burned_cells(&self) -> Vec<(usize, usize)> {
        let cols = self.cols;
        self.burned_indices()
            .map(|i| (i / cols, i % cols))
            .collect()
    }

    /// Cell-wise union with `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn union(&self, other: &FireLine) -> FireLine {
        assert!(self.same_shape(other), "fire line shape mismatch");
        let words = self.words.iter().zip(&other.words);
        FireLine {
            words: words.map(|(a, b)| a | b).collect(),
            ..*self
        }
    }

    /// `true` when every burned cell of `self` is burned in `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn is_subset_of(&self, other: &FireLine) -> bool {
        assert!(self.same_shape(other), "fire line shape mismatch");
        let mut words = self.words.iter().zip(&other.words);
        words.all(|(a, b)| a & !b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> IgnitionMap {
        // Times:
        // 0   5   inf
        // 2   7   9
        let g = Grid::from_vec(2, 3, vec![0.0, 5.0, UNIGNITED, 2.0, 7.0, 9.0]);
        IgnitionMap::from_grid(g)
    }

    #[test]
    fn fire_line_threshold_includes_equal_times() {
        let m = sample_map();
        let fl = m.fire_line_at(5.0);
        assert!(fl.is_burned(0, 0));
        assert!(fl.is_burned(0, 1)); // exactly at t
        assert!(fl.is_burned(1, 0));
        assert!(!fl.is_burned(1, 1));
        assert!(!fl.is_burned(0, 2));
        assert_eq!(fl.burned_area(), 3);
    }

    #[test]
    fn fire_lines_grow_monotonically_with_time() {
        let m = sample_map();
        let early = m.fire_line_at(2.0);
        let late = m.fire_line_at(9.0);
        assert!(early.is_subset_of(&late));
        assert!(!late.is_subset_of(&early));
    }

    #[test]
    fn unignited_cells_never_burn() {
        let m = sample_map();
        let fl = m.fire_line_at(1e12);
        assert!(!fl.is_burned(0, 2));
        assert_eq!(m.burned_count_at(1e12), 5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_rejected() {
        let _ = IgnitionMap::from_grid(Grid::from_vec(1, 2, vec![0.0, -1.0]));
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = sample_map();
        m.clear();
        assert_eq!(m.burned_count_at(f64::MAX), 0);
    }

    #[test]
    fn from_cells_and_burned_cells_roundtrip() {
        let cells = [(0usize, 1usize), (2, 2), (1, 0)];
        let fl = FireLine::from_cells(3, 3, &cells);
        let mut got = fl.burned_cells();
        got.sort_unstable();
        let mut want = cells.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn union_covers_both() {
        let a = FireLine::from_cells(2, 2, &[(0, 0)]);
        let b = FireLine::from_cells(2, 2, &[(1, 1)]);
        let u = a.union(&b);
        assert_eq!(u.burned_area(), 2);
        assert!(a.is_subset_of(&u) && b.is_subset_of(&u));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn union_shape_mismatch_panics() {
        let a = FireLine::empty(2, 2);
        let b = FireLine::empty(2, 3);
        let _ = a.union(&b);
    }
}
