//! Ignition-probability matrices — the Statistical Stage's data structure.
//!
//! The SS block of Figs. 1–3 "aggregates the resulting maps into a matrix in
//! which each cell represents the probability of ignition of that region".
//! [`ProbabilityMap`] is that matrix; thresholding it at the Key Ignition
//! Value (`Kign`) yields the predicted fire line (Fig. 2).

use crate::firemap::FireLine;
use crate::grid::Grid;

/// Per-cell ignition frequency over a set of overlapping simulations.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilityMap {
    counts: Grid<u32>,
    samples: u32,
}

impl ProbabilityMap {
    /// An empty accumulator for maps of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            counts: Grid::filled(rows, cols, 0),
            samples: 0,
        }
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

    /// Accumulates one simulated fire line (one scenario's burned map).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, line: &FireLine) {
        assert!(
            self.counts.same_shape(line.mask()),
            "probability map: fire line shape mismatch"
        );
        self.samples += 1;
        for ((r, c), &burned) in line.mask().iter_cells() {
            if burned {
                *self.counts.get_mut(r, c) += 1;
            }
        }
    }

    /// Ignition probability of `(row, col)` ∈ `[0, 1]`; 0 when no samples
    /// have been accumulated yet.
    // lint: allow(unreached) — how the unit tests of crates/ess/src/stages.rs read the Statistical Stage's matrix
    #[inline]
    pub fn probability(&self, row: usize, col: usize) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.counts.at(row, col) as f64 / self.samples as f64
        }
    }

    /// Applies the Key Ignition Value: a cell is predicted burned when its
    /// ignition probability is **greater than or equal to** `kign`.
    ///
    /// `kign` is clamped to `[0, 1]`. With `kign = 0` every cell burns (any
    /// probability ≥ 0); raising `kign` monotonically shrinks the predicted
    /// area, which the calibration stage exploits.
    pub fn threshold(&self, kign: f64) -> FireLine {
        let k = kign.clamp(0.0, 1.0);
        let s = self.samples;
        let mask = self.counts.map(|&c| {
            let p = if s == 0 { 0.0 } else { c as f64 / s as f64 };
            p >= k
        });
        FireLine::from_mask(mask)
    }

    /// The distinct probability levels present in the map, ascending.
    ///
    /// The calibration search only needs to test these values (plus 0):
    /// thresholding is a step function of `kign` with steps exactly at the
    /// observed levels.
    pub fn distinct_levels(&self) -> Vec<f64> {
        if self.samples == 0 {
            return vec![0.0];
        }
        let mut counts: Vec<u32> = self.counts.as_slice().to_vec();
        counts.sort_unstable();
        counts.dedup();
        counts
            .into_iter()
            .map(|c| c as f64 / self.samples as f64)
            .collect()
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
}
