//! Ignition-time maps and burned-cell fire lines.

use crate::grid::Grid;

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
    // lint: allow(unreached) — hand-written arrival rasters for crates/landscape/tests/properties.rs
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
    /// simulation.
    pub fn fire_line_at(&self, t: f64) -> FireLine {
        FireLine {
            burned: self.times.map(|&it| it <= t),
        }
    }

    /// Number of cells ignited at or before `t`.
    pub fn burned_count_at(&self, t: f64) -> usize {
        self.times.as_slice().iter().filter(|&&it| it <= t).count()
    }
}

/// A burned-cell mask at a single time instant — the "fire line" objects
/// (`RFL_i`, `PFL_i`) exchanged between the stages of Figs. 1–3.
#[derive(Debug, Clone, PartialEq)]
pub struct FireLine {
    burned: Grid<bool>,
}

impl FireLine {
    /// An empty (nothing burned) fire line.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self {
            burned: Grid::filled(rows, cols, false),
        }
    }

    /// Wraps a burned mask.
    pub fn from_mask(burned: Grid<bool>) -> Self {
        Self { burned }
    }

    /// Builds a fire line from a list of `(row, col)` burned cells.
    pub fn from_cells(rows: usize, cols: usize, cells: &[(usize, usize)]) -> Self {
        let mut burned = Grid::filled(rows, cols, false);
        for &(r, c) in cells {
            burned.set(r, c, true);
        }
        Self { burned }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.burned.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.burned.cols()
    }

    /// `true` when `(row, col)` is burned.
    #[inline]
    pub fn is_burned(&self, row: usize, col: usize) -> bool {
        self.burned.at(row, col)
    }

    /// Marks a cell burned/unburned.
    pub fn set_burned(&mut self, row: usize, col: usize, burned: bool) {
        self.burned.set(row, col, burned);
    }

    /// The underlying mask.
    pub fn mask(&self) -> &Grid<bool> {
        &self.burned
    }

    /// Number of burned cells.
    pub fn burned_area(&self) -> usize {
        self.burned.count_true()
    }

    /// Burned cells as `(row, col)` pairs, row-major.
    pub fn burned_cells(&self) -> Vec<(usize, usize)> {
        self.burned
            .iter_cells()
            .filter_map(|((r, c), &b)| b.then_some((r, c)))
            .collect()
    }

    /// Cell-wise union with `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn union(&self, other: &FireLine) -> FireLine {
        assert!(
            self.burned.same_shape(&other.burned),
            "fire line shape mismatch"
        );
        let mut out = self.burned.clone();
        for ((r, c), &b) in other.burned.iter_cells() {
            if b {
                out.set(r, c, true);
            }
        }
        FireLine { burned: out }
    }

    /// `true` when every burned cell of `self` is burned in `other`.
    // lint: allow(unreached) — the fire-only-grows oracle of crates/firelib/tests/properties.rs and crates/landscape/tests/properties.rs
    pub fn is_subset_of(&self, other: &FireLine) -> bool {
        assert!(
            self.burned.same_shape(&other.burned),
            "fire line shape mismatch"
        );
        self.burned
            .as_slice()
            .iter()
            .zip(other.burned.as_slice())
            .all(|(&a, &b)| !a || b)
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
