//! The Calibration Stage (`CS-Master`, `SKign`) and the Prediction Stage
//! (`PS` / `FP`).
//!
//! "A probability map is computed to obtain a threshold value called Key
//! Ignition Value, or Kign, which best represents the fire behavior pattern
//! for the given simulation step. This value is obtained by searching for a
//! threshold value that, when applied to the probability matrix, produces
//! the best prediction in terms of the fitness function for the current
//! time step" (§II-A). The found `Kign_n` is then used by the Prediction
//! Stage of the *next* step (Fig. 2).
//!
//! Neither stage materialises a thresholded raster. A threshold burns
//! whole *levels* of the matrix — every cell some fixed number of runs
//! burned — so one walk of the cells the matrix touched bins them by level
//! against the observation ([`ProbabilityMap::histogram_into`]), and the
//! Eq. (3) score of every threshold is then a sum over at most `n + 1`
//! integers: the same integers, hence the same `f64`, as
//! [`ProbabilityMap::threshold`] followed by [`landscape::jaccard`].

use landscape::{FireLine, LevelHistogram, Observed, ProbabilityMap};

/// The result of one `SKign` search.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationOutcome {
    /// The Key Ignition Value that maximised fitness on the observed step.
    pub kign: f64,
    /// The fitness achieved at `kign`.
    pub fitness: f64,
    /// The full search curve as `(threshold, fitness)` pairs, ascending by
    /// threshold — the series behind Fig. 2 / harness `fig2-kign`.
    pub curve: Vec<(f64, f64)>,
}

/// Exhaustive `SKign` search over the distinct probability levels of the
/// matrix.
///
/// Thresholding is a step function of the threshold with steps exactly at
/// the matrix's distinct levels, so evaluating those levels (every other
/// threshold is equivalent to one of them) makes the search *exact*, not a
/// discretisation — with `n` aggregated maps there are at most `n + 1`
/// levels.
///
/// Ties favour the **highest** threshold: of two equally-fit predictions
/// the more conservative (smaller) burned area is preferred, matching the
/// behaviour of the reference implementations.
pub fn skign_search(
    matrix: &ProbabilityMap,
    observed: &FireLine,
    preburn: Option<&FireLine>,
) -> CalibrationOutcome {
    skign_search_against(matrix, &Observed::scan(observed, preburn))
}

/// [`skign_search`] against an observation whose whole-raster counts are
/// already known (a step context's are, see `StepContext::observed`): the
/// search then visits only the cells the matrix touched.
pub fn skign_search_against(
    matrix: &ProbabilityMap,
    observed: &Observed<'_>,
) -> CalibrationOutcome {
    let mut hist = LevelHistogram::default();
    matrix.histogram_into(observed, &mut hist);
    // Skip the all-cells threshold at exactly 0 (it predicts the whole map
    // burned); the smallest positive level already covers "every cell any
    // scenario burned".
    let curve: Vec<(f64, f64)> = hist.levels().filter(|&(level, _)| level > 0.0).collect();
    if curve.is_empty() {
        // Degenerate matrix (no samples or nothing burned anywhere): fall
        // back to the most conservative threshold.
        let f = hist.breakdown_where(|p| p >= 1.0).index();
        return CalibrationOutcome {
            kign: 1.0,
            fitness: f,
            curve: vec![(1.0, f)],
        };
    }
    let mut best_kign = 1.0;
    let mut best_fitness = f64::NEG_INFINITY;
    for &(level, f) in &curve {
        if f > best_fitness || (f == best_fitness && level > best_kign) {
            best_fitness = f;
            best_kign = level;
        }
    }
    CalibrationOutcome {
        kign: best_kign,
        fitness: best_fitness,
        curve,
    }
}

/// The Prediction Stage: applies the previous step's Key Ignition Value to
/// the aggregated matrix of the upcoming interval, yielding the predicted
/// fire line (`PFL`, Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionStage {
    /// The Key Ignition Value carried over from the Calibration Stage of
    /// the previous prediction step.
    pub kign: f64,
}

impl PredictionStage {
    /// Builds the stage from a calibrated `Kign`.
    pub fn new(kign: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&kign),
            "Kign is a probability threshold"
        );
        Self { kign }
    }

    /// Produces the predicted fire line from the next interval's matrix,
    /// as a raster.
    // lint: allow(unreached) — the dense oracle of the unit tests in crates/ess/src/calibration.rs
    pub fn predict(&self, matrix: &ProbabilityMap) -> FireLine {
        matrix.threshold(self.kign)
    }

    /// Scores a prediction against the later-observed reality.
    pub fn quality(
        &self,
        matrix: &ProbabilityMap,
        observed: &FireLine,
        preburn: Option<&FireLine>,
    ) -> f64 {
        self.quality_against(matrix, &Observed::scan(observed, preburn))
    }

    /// [`PredictionStage::quality`] against an observation whose
    /// whole-raster counts are already known: `Kign` is compared with each
    /// level's probability — the comparison [`ProbabilityMap::threshold`]
    /// makes per cell — and `Kign = 0` ("everything burns") is answered
    /// from the counts, not by a walk.
    pub fn quality_against(&self, matrix: &ProbabilityMap, observed: &Observed<'_>) -> f64 {
        let mut hist = LevelHistogram::default();
        matrix.histogram_into(observed, &mut hist);
        let kign = self.kign.clamp(0.0, 1.0);
        hist.breakdown_where(|p| p >= kign).index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use landscape::FireLine;

    fn fl(cells: &[(usize, usize)]) -> FireLine {
        FireLine::from_cells(4, 4, cells)
    }

    /// Three maps: cell A burns in all, B in two, C in one.
    fn matrix() -> ProbabilityMap {
        let mut pm = ProbabilityMap::new(4, 4);
        pm.accumulate(&fl(&[(0, 0), (0, 1), (0, 2)]));
        pm.accumulate(&fl(&[(0, 0), (0, 1)]));
        pm.accumulate(&fl(&[(0, 0)]));
        pm
    }

    #[test]
    fn skign_recovers_exact_reality() {
        let pm = matrix();
        // Reality = {A, B}: the 2/3 threshold reproduces it exactly.
        let observed = fl(&[(0, 0), (0, 1)]);
        let out = skign_search(&pm, &observed, None);
        assert!((out.kign - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(out.fitness, 1.0);
    }

    #[test]
    fn skign_tie_prefers_conservative_threshold() {
        // Reality exactly {A}: thresholds 1.0 predicts {A} (J=1);
        // 2/3 predicts {A,B} (J=0.5). Must pick 1.0.
        let pm = matrix();
        let out = skign_search(&pm, &fl(&[(0, 0)]), None);
        assert_eq!(out.kign, 1.0);
        assert_eq!(out.fitness, 1.0);
    }

    #[test]
    fn curve_covers_positive_levels_ascending() {
        let pm = matrix();
        let out = skign_search(&pm, &fl(&[(0, 0)]), None);
        let levels: Vec<f64> = out.curve.iter().map(|&(k, _)| k).collect();
        assert_eq!(levels.len(), 3); // 1/3, 2/3, 1 — zero excluded
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        assert!(levels.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn empty_matrix_degenerates_gracefully() {
        let pm = ProbabilityMap::new(4, 4);
        let out = skign_search(&pm, &fl(&[]), None);
        assert_eq!(out.kign, 1.0);
        assert_eq!(out.fitness, 1.0); // empty prediction vs empty reality
    }

    #[test]
    fn preburn_exclusion_flows_through() {
        let pm = matrix();
        let observed = fl(&[(0, 0), (0, 1)]);
        let pre = fl(&[(0, 0)]);
        let out = skign_search(&pm, &observed, Some(&pre));
        // Excluding A, reality = {B}: the 2/3 threshold gives {B} exactly.
        assert!((out.kign - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(out.fitness, 1.0);
    }

    #[test]
    fn prediction_stage_applies_threshold() {
        let pm = matrix();
        let ps = PredictionStage::new(0.5);
        let predicted = ps.predict(&pm);
        assert!(predicted.is_burned(0, 0));
        assert!(predicted.is_burned(0, 1)); // p = 2/3 ≥ 0.5
        assert!(!predicted.is_burned(0, 2)); // p = 1/3 < 0.5
    }

    #[test]
    fn quality_is_jaccard_of_prediction() {
        let pm = matrix();
        let ps = PredictionStage::new(0.9);
        // Threshold 0.9 predicts {A}; reality {A, B} → J = 1/2.
        let q = ps.quality(&pm, &fl(&[(0, 0), (0, 1)]), None);
        assert!((q - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probability threshold")]
    fn invalid_kign_rejected() {
        let _ = PredictionStage::new(1.5);
    }
}
