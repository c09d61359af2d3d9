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
//! The sort is one `sort_unstable` of packed integer keys, a value's
//! order-preserving bits above its row, so one integer comparison is the
//! `(value, row)` comparison. The index builds in [`IndexBuffers`] that a
//! caller scoring every generation keeps (Algorithm 1 does): its keys,
//! values and positions, and the scans' scratch, are refilled in place.
//! [`PreparedIndex::novelty_scores_into`] scores every subject in one pass
//! into the caller's column, and
//! [`PreparedIndex::local_competition_scores_into`] does the same for
//! local competition; [`NoveltyEngine::novelty_scores`] is ρ's batch over
//! fresh buffers, for one-shot callers. Both run in the master's thread:
//! the parallel hardware belongs to scenario evaluation, not to a
//! noveltySet of a few hundred rows.
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
//! `crates/evoalg/tests/properties.rs`). The walk compares raw gaps, not
//! distances, and takes a distance only of the k gaps it emits: the
//! distance is monotone in the gap, so the k smallest gaps have the k
//! smallest distances, emitted in ascending order, and ρ — those k summed
//! in ascending order — is the same bits whichever exact walk finds them
//! (`IndexBuffers::walk` says why local competition is too). One guarded edge: the sorted-scan
//! walk needs finite behaviour values (its frontier comparisons are plain
//! `<=`), so [`PreparedIndex::new`] *rejects* non-finite 1-D descriptors
//! loudly rather than diverging silently; the exhaustive scan stays
//! NaN-tolerant and reference-identical.

use crate::matrix::BehaviourMatrix;
use crate::novelty::{beaten_fraction, behaviour_distance, mean_of_k_smallest};

/// The buffers a [`PreparedIndex`] builds in: the 1-D sorted order and
/// the scratch of the batch scans. A caller that scores every generation
/// keeps one and lends it to [`PreparedIndex::with_buffers`] each time
/// (taking it back with [`PreparedIndex::into_buffers`]), so a warm
/// generation refills them in place and allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct IndexBuffers {
    /// Per rank, the packed sort key: the value's order-preserving bits
    /// above its row. Sorted, so rank `r`'s row is `keys[r] as u32`.
    keys: Vec<u128>,
    /// Per rank, the value (the walk reads one contiguous slice).
    values: Vec<f64>,
    /// Per row, its rank.
    position: Vec<u32>,
    /// The exhaustive scan's distances to one subject.
    distances: Vec<f64>,
    /// The local-competition candidates of one subject.
    neighbours: Vec<(f64, usize)>,
}

impl IndexBuffers {
    /// Refills the sorted order over the 1-D `values`, one row each:
    /// ranks by `(value, row)`, the packed keys sorting as integers.
    fn sort(&mut self, values: &[f64]) {
        self.keys.clear();
        for (&v, row) in values.iter().zip(0u32..) {
            assert!(
                v.is_finite(),
                "sorted-scan requires finite behaviour values"
            );
            let bits = crate::total_order_bits(v);
            self.keys.push(u128::from(bits) << 32 | u128::from(row));
        }
        self.keys.sort_unstable();
        self.values.clear();
        self.position.clear();
        self.position.resize(values.len(), 0);
        for (&key, rank) in self.keys.iter().zip(0u32..) {
            let row = key as u32 as usize;
            self.values.push(values[row]);
            self.position[row] = rank;
        }
    }

    /// The row at sorted rank `rank`.
    fn row(&self, rank: usize) -> usize {
        self.keys[rank] as u32 as usize
    }

    /// The 1-D two-pointer neighbour walk: starting with the candidate
    /// ranks `left - 1` (downward) and `right` (upward), repeatedly takes
    /// the closer of the two frontier rows until `k` neighbours were
    /// emitted as `(distance, rank)`, distances non-decreasing. Rows at
    /// rank `left..right` are excluded — the subject itself, or nothing
    /// for an external query. Returns the final `(left, right)` frontier.
    ///
    /// The walk compares the raw gaps `me − v[left−1]` and `v[right] − me`.
    /// Both are non-negative, and the distance is monotone in them, so the
    /// k smallest gaps are rows whose distances are the k smallest, and
    /// come out in ascending order. A distance is taken only of the k gaps
    /// emitted, as `gap_distance(gap)`: the gap is `±(me − v)` exactly, so
    /// that is [`dist_1d`]`(me, v)` bit for bit. Where two gaps differ but
    /// round to one distance, the walk may emit the other row than a
    /// distance comparison would, at the same distance: ρ sums the same
    /// values, and local competition pulls in every row tied at the
    /// boundary before it selects. The side to take is selected, not
    /// branched on, so the walk does not hinge on a coin-flip prediction.
    ///
    /// Every caller clamps `k` to the rows outside `left..right`.
    fn walk(
        &self,
        me: f64,
        left: usize,
        right: usize,
        k: usize,
        mut emit: impl FnMut(f64, usize),
    ) -> (usize, usize) {
        let values = &self.values;
        let n = values.len();
        let (mut left, mut right) = (left, right);
        for _ in 0..k {
            let below = if left > 0 {
                me - values[left - 1]
            } else {
                f64::INFINITY
            };
            let above = if right < n {
                values[right] - me
            } else {
                f64::INFINITY
            };
            let down = left > 0 && below <= above;
            let gap = if down { below } else { above };
            left -= usize::from(down);
            right += usize::from(!down);
            emit(gap_distance(gap), if down { left } else { right - 1 });
        }
        (left, right)
    }

    /// ρ(x) of the row at sorted rank `pos` among `n ≥ 2` rows, with `k`
    /// already clamped to `n − 1`.
    fn novelty_at(&self, pos: usize, k: usize) -> f64 {
        let me = self.values[pos];
        // The walk emits the k smallest distances in ascending order:
        // `mean_of_k_smallest`'s summation order, unsorted.
        let mut sum = 0.0;
        self.walk(me, pos, pos + 1, k, |d, _| sum += d);
        sum / k as f64
    }
}

/// The per-generation kNN index over one reference set: prepare once,
/// score many.
pub struct PreparedIndex<'a> {
    reference: &'a BehaviourMatrix,
    /// `true` on the sorted-scan path, `false` on the exhaustive scan.
    sorted: bool,
    buffers: IndexBuffers,
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
        Self::with_buffers(reference, IndexBuffers::default())
    }

    /// [`PreparedIndex::new`] built in `buffers`, which the index keeps
    /// until [`PreparedIndex::into_buffers`] hands them back.
    ///
    /// # Panics
    /// As [`PreparedIndex::new`].
    pub fn with_buffers(reference: &'a BehaviourMatrix, mut buffers: IndexBuffers) -> Self {
        let sorted = reference.dim() == 1 && !reference.is_empty();
        if sorted {
            buffers.sort(reference.as_flat());
        }
        PreparedIndex {
            reference,
            sorted,
            buffers,
        }
    }

    /// The buffers the index was built in, for the next generation's.
    pub fn into_buffers(self) -> IndexBuffers {
        self.buffers
    }

    /// The reference set this index was built over.
    pub fn reference(&self) -> &BehaviourMatrix {
        self.reference
    }

    /// ρ(x) of reference row `subject` against all other rows —
    /// bit-identical to [`crate::novelty::novelty_score`].
    pub fn novelty_of(&self, subject: usize, k: usize) -> f64 {
        assert!(
            subject < self.reference.len(),
            "subject index out of bounds"
        );
        assert!(k > 0, "k must be positive");
        if !self.sorted {
            return exhaustive_novelty(self.reference, subject, k, &mut Vec::new());
        }
        let n = self.reference.len();
        if n <= 1 {
            return f64::MAX; // no neighbours: the sentinel of the reference path
        }
        let sorted = &self.buffers;
        sorted.novelty_at(sorted.position[subject] as usize, k.min(n - 1))
    }

    /// ρ(x) of reference rows `0..out.len()` into `out`, in one pass over
    /// the subjects — [`PreparedIndex::novelty_of`] for each, with the
    /// scratch in the index's buffers.
    ///
    /// # Panics
    /// Panics when `out` is longer than the reference or `k == 0`.
    pub fn novelty_scores_into(&mut self, k: usize, out: &mut [f64]) {
        let n = self.reference.len();
        assert!(out.len() <= n, "subjects must be reference rows");
        assert!(k > 0, "k must be positive");
        let buffers = &mut self.buffers;
        if !self.sorted {
            for (subject, rho) in out.iter_mut().enumerate() {
                *rho = exhaustive_novelty(self.reference, subject, k, &mut buffers.distances);
            }
        } else if n <= 1 {
            out.fill(f64::MAX);
        } else {
            let k = k.min(n - 1);
            for (rho, &pos) in out.iter_mut().zip(&buffers.position) {
                *rho = buffers.novelty_at(pos as usize, k);
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
        if !self.sorted {
            let rows = self.reference.rows();
            let mut scratch: Vec<f64> =
                rows.map(|row| behaviour_distance(behaviour, row)).collect();
            return mean_of_k_smallest(&mut scratch, k);
        }
        let sorted = &self.buffers;
        let k = k.min(self.reference.len());
        let x = behaviour[0];
        // First sorted rank whose value is >= x: the walk starts at the
        // insertion point, with no row excluded.
        let start = sorted.values.partition_point(|&v| v < x);
        let mut sum = 0.0;
        sorted.walk(x, start, start, k, |d, _| sum += d);
        sum / k as f64
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
        let sorted = self.sorted.then_some(&self.buffers);
        local_competition(self.reference, sorted, subject, fitnesses, k, scratch)
    }

    /// Local-competition scores of reference rows `0..out.len()` into
    /// `out` — [`PreparedIndex::local_competition_of_with`] for each, with
    /// the scratch in the index's buffers.
    ///
    /// # Panics
    /// Panics when `out` is longer than the reference, on a fitness-length
    /// mismatch, or `k == 0`.
    pub fn local_competition_scores_into(&mut self, fitnesses: &[f64], k: usize, out: &mut [f64]) {
        assert!(
            out.len() <= self.reference.len(),
            "subjects must be reference rows"
        );
        assert_eq!(
            self.reference.len(),
            fitnesses.len(),
            "one fitness per behaviour"
        );
        assert!(k > 0, "k must be positive");
        let mut scratch = std::mem::take(&mut self.buffers.neighbours);
        let sorted = self.sorted.then_some(&self.buffers);
        for (subject, lc) in out.iter_mut().enumerate() {
            *lc = local_competition(self.reference, sorted, subject, fitnesses, k, &mut scratch);
        }
        self.buffers.neighbours = scratch;
    }
}

/// ρ(x) of reference row `subject` by the exhaustive scan.
fn exhaustive_novelty(
    reference: &BehaviourMatrix,
    subject: usize,
    k: usize,
    scratch: &mut Vec<f64>,
) -> f64 {
    scratch.clear();
    let me = reference.row(subject);
    for (j, row) in reference.rows().enumerate() {
        if j != subject {
            scratch.push(behaviour_distance(me, row));
        }
    }
    mean_of_k_smallest(scratch, k)
}

/// The local-competition score of reference row `subject`: over the 1-D
/// walk of `sorted` when given, the exhaustive scan otherwise. The
/// arguments are checked by the caller.
fn local_competition(
    reference: &BehaviourMatrix,
    sorted: Option<&IndexBuffers>,
    subject: usize,
    fitnesses: &[f64],
    k: usize,
    scratch: &mut Vec<(f64, usize)>,
) -> f64 {
    let n = reference.len();
    if n <= 1 {
        return 1.0; // no niche: trivially dominant
    }
    let k = k.min(n - 1);
    scratch.clear();
    match sorted {
        Some(sorted) => {
            let me = reference.row(subject)[0];
            let pos = sorted.position[subject] as usize;
            let (mut left, mut right) = sorted.walk(me, pos, pos + 1, k, |d, rank| {
                scratch.push((d, sorted.row(rank)));
            });
            // The walk emits non-decreasing distances, so the k-th
            // neighbour distance is the last one. Distance ties
            // straddling that boundary must resolve by the canonical
            // (distance, index) order, not by walk direction: pull in
            // *every* remaining candidate at exactly that distance,
            // then select and cut.
            let boundary = scratch[k - 1].0;
            while left > 0 {
                let d = dist_1d(me, sorted.values[left - 1]);
                if d != boundary {
                    break;
                }
                scratch.push((d, sorted.row(left - 1)));
                left -= 1;
            }
            while right < n {
                let d = dist_1d(me, sorted.values[right]);
                if d != boundary {
                    break;
                }
                scratch.push((d, sorted.row(right)));
                right += 1;
            }
        }
        None => {
            let me = reference.row(subject);
            for (j, row) in reference.rows().enumerate() {
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

/// The 1-D distance of a gap `g = ±(a − b)`: `dist_1d(a, b)` bit for bit,
/// since negation is exact and `(−x)·(−x) = x·x`.
#[inline]
fn gap_distance(gap: f64) -> f64 {
    (gap * gap).sqrt()
}

/// 1-D behaviour distance, written as the exact expression
/// [`behaviour_distance`] evaluates for one-element descriptors (a
/// one-term square sum under a square root), so the sorted path's
/// distances are bit-equal to the brute-force path's.
#[inline]
fn dist_1d(a: f64, b: f64) -> f64 {
    ((a - b) * (a - b)).sqrt()
}

/// The one-shot batch novelty-scoring entry point: prepares an index in
/// fresh buffers and scores every subject against it.
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
        assert!(
            subjects <= reference.len(),
            "subjects must be reference rows"
        );
        let mut scores = vec![0.0; subjects];
        PreparedIndex::new(reference).novelty_scores_into(k, &mut scores);
        scores
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
            sorted: false,
            buffers: IndexBuffers::default(),
        }
    }

    /// Both index paths over one 1-D reference.
    fn both_paths(m: &BehaviourMatrix) -> [(&'static str, PreparedIndex<'_>); 2] {
        let picked = PreparedIndex::new(m);
        assert!(picked.sorted, "1-D data must pick the sorted scan");
        [("sorted-scan", picked), ("exhaustive", exhaustive(m))]
    }

    #[test]
    fn sorted_scan_matches_reference_on_paper_example() {
        let m = matrix_1d(&[0.5, 0.4, 0.7, 0.9]);
        let prepared = PreparedIndex::new(&m);
        assert!(prepared.sorted);
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
        assert!(!prepared.sorted);
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
        for (path, mut prepared) in both_paths(&m) {
            let (mut rho, mut lc) = (vec![0.0; 8], vec![0.0; 8]);
            prepared.novelty_scores_into(3, &mut rho);
            prepared.local_competition_scores_into(&fits, 3, &mut lc);
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
