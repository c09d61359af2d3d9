//! Indexed, batched novelty scoring.
//!
//! Algorithm 1 scores ρ(x) (Eq. (1)) for every member of
//! population ∪ offspring against the full noveltySet each generation —
//! the one master-side O(n²) hot path of ESS-NS. This module is that
//! path, in two layers:
//!
//! * **Layout** — scoring runs over a flat [`BehaviourMatrix`] (one
//!   contiguous block) instead of `Vec<Vec<f64>>`;
//! * **Index** — [`PreparedIndex`] picks the kNN strategy from the data:
//!   on 1-D behaviours (the paper's Eq. (2) fitness behaviour is exactly
//!   this case) it sorts the values once per generation and finds each
//!   subject's k nearest neighbours with a two-pointer walk
//!   (O(n log n + n·k) instead of O(n²)); any other dimension gets the
//!   exhaustive pairwise scan.
//!
//! [`NoveltyEngine`] batches the per-subject scores in the master; the
//! parallel hardware belongs to scenario evaluation, not to a noveltySet
//! of a few hundred rows.
//!
//! **Bit-identity guarantee.** Both index paths return exactly
//! (`f64`-bit-equal) the values of the brute-force reference functions
//! [`crate::novelty::novelty_score`],
//! [`crate::novelty::novelty_score_external`] and
//! [`crate::novelty::local_competition_score`]. This holds by
//! construction, not by tolerance: all paths compute distances with the
//! same expressions, sum the same k-smallest multiset in ascending order
//! (the shared canonical `mean_of_k_smallest`, or the sorted walk, which
//! emits them ascending), and
//! resolve distance ties in the same `(distance, index)` order (see
//! `crates/evoalg/tests/properties.rs`). One guarded edge: the sorted-scan
//! walk needs finite behaviour values (its frontier comparisons are plain
//! `<=`), so [`PreparedIndex::new`] *rejects* non-finite 1-D descriptors
//! loudly rather than diverging silently; the exhaustive scan stays
//! NaN-tolerant and reference-identical.

use crate::matrix::BehaviourMatrix;
use crate::novelty::{beaten_fraction, behaviour_distance, mean_of_k_smallest};

/// The 1-D index state: rows sorted by `(value, index)`, their values in
/// that order (so the walk reads one contiguous slice), and the inverse
/// permutation.
struct SortedOrder {
    order: Vec<u32>,
    values: Vec<f64>,
    position: Vec<u32>,
}

/// The per-generation kNN index over one reference set: prepare once,
/// score many.
pub struct PreparedIndex<'a> {
    reference: &'a BehaviourMatrix,
    /// `Some` on the sorted-scan path, `None` on the exhaustive scan.
    sorted: Option<SortedOrder>,
}

impl<'a> PreparedIndex<'a> {
    /// Builds the index state over `reference`: the sorted order of the
    /// rows when the behaviours are 1-D (and there are any), nothing
    /// otherwise — the exhaustive scan handles every other shape.
    ///
    /// # Panics
    /// Panics when the sorted-scan path meets a non-finite behaviour
    /// value: the two-pointer walk's frontier comparisons rely on finite
    /// distances, and silently diverging from the brute-force reference
    /// (whose `total_cmp` selection tolerates NaN) would break the
    /// bit-identity contract. Finite descriptors are the engines'
    /// contract anyway (fitness is asserted finite at evaluation).
    pub fn new(reference: &'a BehaviourMatrix) -> Self {
        let sorted = (reference.dim() == 1 && !reference.is_empty()).then(|| {
            assert!(
                reference.as_flat().iter().all(|v| v.is_finite()),
                "sorted-scan requires finite behaviour values"
            );
            let rows = reference.as_flat().iter().zip(0u32..);
            let mut pairs: Vec<(f64, u32)> = rows.map(|(&v, row)| (v, row)).collect();
            // Total order (value, index): deterministic under ties.
            pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let (values, order): (Vec<f64>, Vec<u32>) = pairs.into_iter().unzip();
            let mut position = vec![0u32; reference.len()];
            for (rank, &row) in order.iter().enumerate() {
                position[row as usize] = rank as u32;
            }
            SortedOrder {
                order,
                values,
                position,
            }
        });
        PreparedIndex { reference, sorted }
    }

    /// The reference set this index was built over.
    pub fn reference(&self) -> &BehaviourMatrix {
        self.reference
    }

    /// ρ(x) of reference row `subject` against all other rows —
    /// bit-identical to [`crate::novelty::novelty_score`].
    pub fn novelty_of(&self, subject: usize, k: usize) -> f64 {
        self.novelty_of_with(subject, k, &mut Vec::new())
    }

    /// [`PreparedIndex::novelty_of`] with a caller-owned distance scratch
    /// buffer (reused across a chunk of subjects).
    pub fn novelty_of_with(&self, subject: usize, k: usize, scratch: &mut Vec<f64>) -> f64 {
        assert!(
            subject < self.reference.len(),
            "subject index out of bounds"
        );
        assert!(k > 0, "k must be positive");
        scratch.clear();
        match &self.sorted {
            Some(sorted) => {
                let n = self.reference.len();
                if n <= 1 {
                    return f64::MAX; // no neighbours: the sentinel of the reference path
                }
                let k = k.min(n - 1);
                let pos = sorted.position[subject] as usize;
                let me = sorted.values[pos];
                // The walk emits the k smallest distances in ascending
                // order: `mean_of_k_smallest`'s summation order, unsorted.
                let mut sum = 0.0;
                self.merge_nearest_1d(sorted, me, pos, pos + 1, k, |d, _| sum += d);
                sum / k as f64
            }
            None => {
                let me = self.reference.row(subject);
                for (j, row) in self.reference.rows().enumerate() {
                    if j != subject {
                        scratch.push(behaviour_distance(me, row));
                    }
                }
                mean_of_k_smallest(scratch, k)
            }
        }
    }

    /// ρ(x) for a behaviour that is *not* a reference row — bit-identical
    /// to [`crate::novelty::novelty_score_external`].
    ///
    /// # Panics
    /// Panics on a dimension mismatch against a non-empty reference (the
    /// same contract `behaviour_distance` enforces on the brute path).
    pub fn novelty_of_external(&self, behaviour: &[f64], k: usize) -> f64 {
        assert!(k > 0, "k must be positive");
        assert!(
            self.reference.is_empty() || behaviour.len() == self.reference.dim(),
            "behaviour descriptors must have equal dimension"
        );
        match &self.sorted {
            Some(sorted) => {
                let n = self.reference.len();
                let k = k.min(n);
                let x = behaviour[0];
                // First sorted rank whose value is >= x: the walk starts at
                // the insertion point, with no row excluded.
                let start = sorted.values.partition_point(|&v| v < x);
                let mut sum = 0.0;
                self.merge_nearest_1d(sorted, x, start, start, k, |d, _| sum += d);
                sum / k as f64
            }
            None => {
                let rows = self.reference.rows();
                let mut scratch: Vec<f64> =
                    rows.map(|row| behaviour_distance(behaviour, row)).collect();
                mean_of_k_smallest(&mut scratch, k)
            }
        }
    }

    /// Local-competition score of reference row `subject` — bit-identical
    /// to [`crate::novelty::local_competition_score`] — using a
    /// caller-owned neighbour scratch buffer.
    pub fn local_competition_of_with(
        &self,
        subject: usize,
        fitnesses: &[f64],
        k: usize,
        scratch: &mut Vec<(f64, usize)>,
    ) -> f64 {
        assert!(
            subject < self.reference.len(),
            "subject index out of bounds"
        );
        assert_eq!(
            self.reference.len(),
            fitnesses.len(),
            "one fitness per behaviour"
        );
        assert!(k > 0, "k must be positive");
        let n = self.reference.len();
        if n <= 1 {
            return 1.0; // no niche: trivially dominant
        }
        let k = k.min(n - 1);
        scratch.clear();
        match &self.sorted {
            Some(sorted) => {
                let me = self.reference.row(subject)[0];
                let pos = sorted.position[subject] as usize;
                let (mut left, mut right) =
                    self.merge_nearest_1d(sorted, me, pos, pos + 1, k, |d, row| {
                        scratch.push((d, row))
                    });
                // The walk emits non-decreasing distances, so the k-th
                // neighbour distance is the last one. Distance ties
                // straddling that boundary must resolve by the canonical
                // (distance, index) order, not by walk direction: pull in
                // *every* remaining candidate at exactly that distance,
                // then select and cut.
                let boundary = scratch[k - 1].0;
                while left > 0 {
                    let row = sorted.order[left - 1] as usize;
                    let d = dist_1d(me, sorted.values[left - 1]);
                    if d != boundary {
                        break;
                    }
                    scratch.push((d, row));
                    left -= 1;
                }
                while right < n {
                    let row = sorted.order[right] as usize;
                    let d = dist_1d(me, sorted.values[right]);
                    if d != boundary {
                        break;
                    }
                    scratch.push((d, row));
                    right += 1;
                }
            }
            None => {
                let me = self.reference.row(subject);
                for (j, row) in self.reference.rows().enumerate() {
                    if j != subject {
                        scratch.push((behaviour_distance(me, row), j));
                    }
                }
            }
        }
        // (distance, index) is a strict total order, so partial selection
        // of the first k determines a unique niche set — no full sort
        // needed (the tally is order-independent).
        if scratch.len() > k {
            scratch.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        beaten_fraction(&scratch[..k], fitnesses, fitnesses[subject])
    }

    /// The 1-D two-pointer neighbour walk: starting with the candidate
    /// ranks `left - 1` (downward) and `right` (upward), repeatedly takes
    /// the closer of the two frontier rows until `k` neighbours were
    /// emitted (distances come out non-decreasing). Rows at rank
    /// `left..right` are excluded — the subject itself, or nothing for an
    /// external query. Returns the final `(left, right)` frontier.
    fn merge_nearest_1d(
        &self,
        sorted: &SortedOrder,
        me: f64,
        left: usize,
        right: usize,
        k: usize,
        mut emit: impl FnMut(f64, usize),
    ) -> (usize, usize) {
        let n = self.reference.len();
        let (mut left, mut right) = (left, right);
        for _ in 0..k {
            let down = (left > 0).then(|| dist_1d(me, sorted.values[left - 1]));
            let up = (right < n).then(|| dist_1d(me, sorted.values[right]));
            match (down, up) {
                (Some(d), Some(u)) if d <= u => {
                    left -= 1;
                    emit(d, sorted.order[left] as usize);
                }
                (_, Some(u)) => {
                    emit(u, sorted.order[right] as usize);
                    right += 1;
                }
                (Some(d), None) => {
                    left -= 1;
                    emit(d, sorted.order[left] as usize);
                }
                #[expect(
                    clippy::unreachable,
                    reason = "every caller clamps k to the rows left to visit, so while fewer than k are emitted one side still has one"
                )]
                (None, None) => unreachable!("k is clamped to the neighbour count"),
            }
        }
        (left, right)
    }
}

/// 1-D behaviour distance, written as the exact expression
/// [`behaviour_distance`] evaluates for one-element descriptors (a
/// one-term square sum under a square root), so the sorted path's
/// distances are bit-equal to the brute-force path's.
#[inline]
fn dist_1d(a: f64, b: f64) -> f64 {
    ((a - b) * (a - b)).sqrt()
}

/// The batch novelty-scoring entry point: prepares the index once per
/// generation and scores every subject against it, in the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoveltyEngine;

impl NoveltyEngine {
    /// ρ(x) of reference rows `0..subjects` against the whole reference
    /// set, in subject order — Algorithm 1 lines 12–14 as one batch.
    ///
    /// `result[i]` is bit-identical to
    /// `novelty_score(i, reference_rows, k)` on either index path.
    ///
    /// # Panics
    /// Panics when `subjects > reference.len()` or `k == 0`.
    pub fn novelty_scores(
        &self,
        reference: &BehaviourMatrix,
        subjects: usize,
        k: usize,
    ) -> Vec<f64> {
        self.novelty_scores_prepared(&PreparedIndex::new(reference), subjects, k)
    }

    /// [`NoveltyEngine::novelty_scores`] over an already-prepared index —
    /// the entry point for callers that score several batches (ρ and
    /// local competition) against one generation's noveltySet without
    /// rebuilding the index each time.
    ///
    /// # Panics
    /// Panics when `subjects` exceeds the prepared reference's rows or
    /// `k == 0`.
    pub fn novelty_scores_prepared(
        &self,
        prepared: &PreparedIndex<'_>,
        subjects: usize,
        k: usize,
    ) -> Vec<f64> {
        assert!(
            subjects <= prepared.reference().len(),
            "subjects must be reference rows"
        );
        assert!(k > 0, "k must be positive");
        let mut scratch = Vec::new();
        (0..subjects)
            .map(|i| prepared.novelty_of_with(i, k, &mut scratch))
            .collect()
    }

    /// Local-competition scores of reference rows `0..subjects` over an
    /// already-prepared index, batched like
    /// [`NoveltyEngine::novelty_scores_prepared`]; `result[i]` is
    /// bit-identical to `local_competition_score(i, rows, fitnesses, k)`.
    ///
    /// # Panics
    /// Panics when `subjects` exceeds the prepared reference's rows, on a
    /// fitness-length mismatch, or `k == 0`.
    pub fn local_competition_scores_prepared(
        &self,
        prepared: &PreparedIndex<'_>,
        fitnesses: &[f64],
        subjects: usize,
        k: usize,
    ) -> Vec<f64> {
        assert!(
            subjects <= prepared.reference().len(),
            "subjects must be reference rows"
        );
        assert_eq!(
            prepared.reference().len(),
            fitnesses.len(),
            "one fitness per behaviour"
        );
        assert!(k > 0, "k must be positive");
        let mut scratch = Vec::new();
        (0..subjects)
            .map(|i| prepared.local_competition_of_with(i, fitnesses, k, &mut scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::novelty::{local_competition_score, novelty_score, novelty_score_external};

    fn matrix_1d(vals: &[f64]) -> BehaviourMatrix {
        let rows: Vec<[f64; 1]> = vals.iter().map(|&v| [v]).collect();
        BehaviourMatrix::from_rows(&rows)
    }

    /// The exhaustive scan forced onto any reference — how these tests
    /// reach the path `PreparedIndex::new` would not pick for 1-D data.
    fn exhaustive(m: &BehaviourMatrix) -> PreparedIndex<'_> {
        PreparedIndex {
            reference: m,
            sorted: None,
        }
    }

    /// Both index paths over one 1-D reference.
    fn both_paths(m: &BehaviourMatrix) -> [(&'static str, PreparedIndex<'_>); 2] {
        let picked = PreparedIndex::new(m);
        assert!(
            picked.sorted.is_some(),
            "1-D data must pick the sorted scan"
        );
        [("sorted-scan", picked), ("exhaustive", exhaustive(m))]
    }

    #[test]
    fn sorted_scan_matches_reference_on_paper_example() {
        let m = matrix_1d(&[0.5, 0.4, 0.7, 0.9]);
        let prepared = PreparedIndex::new(&m);
        assert!(prepared.sorted.is_some());
        assert!((prepared.novelty_of(0, 2) - 0.15).abs() < 1e-15);
        let rows = m.to_rows();
        for i in 0..4 {
            assert_eq!(prepared.novelty_of(i, 2), novelty_score(i, &rows, 2));
        }
    }

    #[test]
    fn brute_force_index_matches_reference_in_2d() {
        let m = BehaviourMatrix::from_rows(&[[0.1, 0.9], [0.2, 0.8], [0.9, 0.1], [0.5, 0.5]]);
        let prepared = exhaustive(&m);
        let rows = m.to_rows();
        for i in 0..4 {
            assert_eq!(prepared.novelty_of(i, 2), novelty_score(i, &rows, 2));
        }
    }

    #[test]
    fn sorted_scan_falls_back_to_brute_force_beyond_1d() {
        let m = BehaviourMatrix::from_rows(&[[0.1, 0.9], [0.2, 0.8], [0.9, 0.1]]);
        let prepared = PreparedIndex::new(&m);
        assert!(prepared.sorted.is_none());
        let rows = m.to_rows();
        for i in 0..3 {
            assert_eq!(prepared.novelty_of(i, 1), novelty_score(i, &rows, 1));
        }
    }

    #[test]
    fn external_scores_match_reference() {
        let m = matrix_1d(&[0.0, 0.25, 0.5, 1.0]);
        let rows = m.to_rows();
        for (path, prepared) in both_paths(&m) {
            for q in [-0.5, 0.0, 0.3, 0.5, 2.0] {
                assert_eq!(
                    prepared.novelty_of_external(&[q], 2),
                    novelty_score_external(&[q], &rows, 2),
                    "{path} query {q}"
                );
            }
        }
        // Empty reference: sentinel.
        let empty = BehaviourMatrix::new();
        let prepared = PreparedIndex::new(&empty);
        assert_eq!(prepared.novelty_of_external(&[0.3], 3), f64::MAX);
    }

    #[test]
    fn local_competition_matches_reference_under_heavy_ties() {
        // Duplicated behaviour values force distance ties at every k
        // boundary — the case where tie order decides the niche.
        let m = matrix_1d(&[0.5, 0.5, 0.5, 0.4, 0.6, 0.5, 0.4]);
        let fits = [0.9, 0.1, 0.5, 0.7, 0.2, 0.8, 0.3];
        let rows = m.to_rows();
        for (path, prepared) in both_paths(&m) {
            for k in 1..=7 {
                for subject in 0..rows.len() {
                    assert_eq!(
                        prepared.local_competition_of_with(subject, &fits, k, &mut Vec::new()),
                        local_competition_score(subject, &rows, &fits, k),
                        "{path} subject {subject} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_batches_match_per_subject_scores() {
        let m = matrix_1d(&[0.31, 0.7, 0.7, 0.12, 0.94, 0.7, 0.02, 0.55]);
        let fits: Vec<f64> = (0..8).map(|i| (i as f64) / 7.0).collect();
        let rows = m.to_rows();
        let engine = NoveltyEngine;
        let [(_, picked), _] = both_paths(&m);
        assert_eq!(
            engine.novelty_scores(&m, 8, 3),
            engine.novelty_scores_prepared(&picked, 8, 3)
        );
        for (path, prepared) in both_paths(&m) {
            let rho = engine.novelty_scores_prepared(&prepared, 8, 3);
            let lc = engine.local_competition_scores_prepared(&prepared, &fits, 8, 3);
            for i in 0..8 {
                assert_eq!(rho[i], novelty_score(i, &rows, 3), "{path} rho {i}");
                assert_eq!(
                    lc[i],
                    local_competition_score(i, &rows, &fits, 3),
                    "{path} lc {i}"
                );
            }
        }
    }

    #[test]
    fn single_row_reference_keeps_sentinels() {
        let m = matrix_1d(&[0.3]);
        for (_, prepared) in both_paths(&m) {
            assert_eq!(prepared.novelty_of(0, 3), f64::MAX);
            assert_eq!(
                prepared.local_competition_of_with(0, &[0.5], 3, &mut Vec::new()),
                1.0
            );
        }
    }

    #[test]
    fn brute_force_tolerates_nan_like_the_reference() {
        // NaN descriptors are out of the engines' contract, but the
        // exhaustive path must still mirror the reference's total_cmp
        // semantics.
        let m = matrix_1d(&[f64::NAN, 1.0, 2.0, 5.0]);
        let rows = m.to_rows();
        let prepared = exhaustive(&m);
        for subject in 0..4 {
            let got = prepared.novelty_of(subject, 2);
            let expected = novelty_score(subject, &rows, 2);
            assert!(got == expected || (got.is_nan() && expected.is_nan()));
        }
    }

    #[test]
    #[should_panic(expected = "finite behaviour values")]
    fn sorted_scan_rejects_nan_instead_of_diverging() {
        let m = matrix_1d(&[f64::NAN, 1.0, 2.0, 5.0]);
        let _ = PreparedIndex::new(&m);
    }
}
