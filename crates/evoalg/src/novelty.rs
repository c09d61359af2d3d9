//! The Novelty Search kit: behaviour distances, the novelty score ρ(x)
//! (Eq. (1) of the paper) and the archive of novel solutions.
//!
//! In the paper's formulation a solution's *behaviour* is characterised by
//! its fitness value, and the behaviour distance is the fitness difference
//! (Eq. (2)). Since the raw difference can be negative, distances here take
//! the absolute value — the standard reading of Eq. (2) as a distance
//! measure. To support the ablation experiments the behaviour is a general
//! `f64` vector with Euclidean distance; the paper's measure is the 1-D
//! case `[fitness]`.
//!
//! The per-subject functions here ([`novelty_score`],
//! [`novelty_score_external`], [`local_competition_score`]) are the
//! **brute-force reference semantics**; the batched
//! [`crate::knn::PreparedIndex`] paths reproduce them bit-identically
//! over a flat [`crate::matrix::BehaviourMatrix`]. Two canonical
//! choices make that identity hold *by construction* rather than by luck:
//! the k smallest distances are summed in ascending `total_cmp` order (so
//! any algorithm that finds the same k-smallest multiset produces the
//! same `f64` sum), and local-competition neighbours are ordered by
//! `(distance, index)` (so distance ties at the k-th-neighbour boundary
//! resolve the same way in every implementation). The reference functions
//! adopt these canonical orders themselves — a deliberate semantic choice
//! that can shift a score by an ulp (and a tied niche member) relative to
//! the earlier partial-selection order; nothing pins those last bits, and
//! with one shared reduction every scoring path in the workspace agrees
//! exactly.

use crate::matrix::BehaviourMatrix;

/// Euclidean distance between two behaviour descriptors.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn behaviour_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "behaviour descriptors must have equal dimension"
    );
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The novelty score ρ(x) of Eq. (1): the mean distance from
/// `behaviours[subject]` to its `k` nearest neighbours among the other
/// entries of `behaviours` (the paper's `noveltySet` = population ∪
/// offspring ∪ archive). The subject itself is excluded by index, not by
/// value, so genuine duplicates still count as zero-distance neighbours —
/// exactly the behaviour that drives duplicates' novelty to zero.
///
/// When fewer than `k` neighbours exist, all of them are used (`k` is
/// clamped), matching the "entire population can also be used" remark in
/// §II-C.
///
/// # Panics
/// Panics when `subject` is out of bounds or `k == 0`.
pub fn novelty_score(subject: usize, behaviours: &[Vec<f64>], k: usize) -> f64 {
    assert!(subject < behaviours.len(), "subject index out of bounds");
    assert!(k > 0, "k must be positive");
    let me = &behaviours[subject];
    let mut dists: Vec<f64> = behaviours
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != subject)
        .map(|(_, b)| behaviour_distance(me, b))
        .collect();
    mean_of_k_smallest(&mut dists, k)
}

/// ρ(x) for a behaviour that is *not* a member of the reference set (used
/// when scoring archive candidates against an external reference).
pub fn novelty_score_external(behaviour: &[f64], reference: &[Vec<f64>], k: usize) -> f64 {
    assert!(k > 0, "k must be positive");
    let mut dists: Vec<f64> = reference
        .iter()
        .map(|b| behaviour_distance(behaviour, b))
        .collect();
    mean_of_k_smallest(&mut dists, k)
}

/// Local-competition score (Lehman & Stanley's novelty search with local
/// competition, ref. \[26\] of the paper): the fraction of the subject's `k`
/// nearest behaviour-space neighbours whose fitness is strictly lower.
/// 1 means the subject out-competes its whole niche; 0 means it loses to
/// all neighbours. Used by the NSLC scoring extension.
///
/// # Panics
/// Panics on index/length mismatches or `k == 0`.
pub fn local_competition_score(
    subject: usize,
    behaviours: &[Vec<f64>],
    fitnesses: &[f64],
    k: usize,
) -> f64 {
    assert!(subject < behaviours.len(), "subject index out of bounds");
    assert_eq!(
        behaviours.len(),
        fitnesses.len(),
        "one fitness per behaviour"
    );
    assert!(k > 0, "k must be positive");
    let me = &behaviours[subject];
    let mut neighbours: Vec<(f64, usize)> = behaviours
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != subject)
        .map(|(i, b)| (behaviour_distance(me, b), i))
        .collect();
    if neighbours.is_empty() {
        return 1.0; // no niche: trivially dominant
    }
    let k = k.min(neighbours.len());
    // Canonical neighbour order: (distance, index). The index tiebreak
    // makes the chosen niche deterministic under distance ties, so every
    // kNN strategy counts the exact same neighbours.
    neighbours.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    beaten_fraction(&neighbours[..k], fitnesses, fitnesses[subject])
}

/// The local-competition tally over an already-selected niche: the
/// fraction of `niche` (as `(distance, index)` pairs) whose fitness is
/// strictly below `subject_fitness`.
pub(crate) fn beaten_fraction(
    niche: &[(f64, usize)],
    fitnesses: &[f64],
    subject_fitness: f64,
) -> f64 {
    let beaten = niche
        .iter()
        .filter(|&&(_, i)| fitnesses[i] < subject_fitness)
        .count();
    beaten as f64 / niche.len() as f64
}

/// Mean of the `k` smallest values of `dists` (clamping `k`), summed in
/// ascending `total_cmp` order — the canonical reduction every novelty
/// path shares, so that equal k-smallest multisets give bit-equal means.
pub(crate) fn mean_of_k_smallest(dists: &mut [f64], k: usize) -> f64 {
    if dists.is_empty() {
        // No reference at all: maximally novel by convention (first
        // individual ever scored). Eq. (1) is undefined here; returning the
        // supremum keeps archive seeding well-ordered.
        return f64::MAX;
    }
    let k = k.min(dists.len());
    // Partial selection of the k smallest distances, then the canonical
    // ascending summation order.
    dists.select_nth_unstable_by(k - 1, f64::total_cmp);
    dists[..k].sort_unstable_by(f64::total_cmp);
    dists[..k].iter().sum::<f64>() / k as f64
}

/// One archived novel solution. Its behaviour descriptor lives in the
/// archive's flat [`BehaviourMatrix`] (same index), not in the entry —
/// see [`NoveltyArchive::behaviour_matrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveEntry {
    /// The genome.
    pub genes: Vec<f64>,
    /// The novelty score it held when (last) offered to the archive.
    pub novelty: f64,
    /// The fitness it was recorded at (kept so local-competition scoring
    /// can compete against archived behaviours too).
    pub fitness: f64,
}

/// The archive of novel solutions (paper §II-C / Algorithm 1 line 15).
///
/// The paper fixes a **fixed-size archive managed with replacement based on
/// novelty only** ("as opposed to the pseudocode in \[29\], which uses a
/// randomized approach", §III-B): when full, a candidate with a higher
/// novelty score replaces the current minimum-novelty entry.
///
/// An offer costs what it decides. The archive caches the slot and novelty
/// of its minimum, so an offer a full archive turns away is one
/// comparison; only a replacement, the one event that can move the
/// minimum, rescans the entries.
#[derive(Debug, Clone)]
pub struct NoveltyArchive {
    capacity: usize,
    entries: Vec<ArchiveEntry>,
    /// The stored behaviour descriptors, maintained *incrementally* in the
    /// flat layout the novelty computation consumes (row `i` ↔
    /// `entries[i]`): admissions push a row, replacements overwrite one, so
    /// building each generation's noveltySet is a single bulk copy instead
    /// of a per-entry `Vec<Vec<f64>>` clone.
    behaviours: BehaviourMatrix,
    /// Slot and novelty of the entry the next replacement evicts: the
    /// first minimum by `total_cmp` ([`least_novel`]). `None` while the
    /// archive has room; set when it fills, rescanned after a replacement.
    least: Option<(usize, f64)>,
}

impl NoveltyArchive {
    /// A fixed-capacity archive with pure novelty-based replacement.
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "archive capacity must be positive");
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
            behaviours: BehaviourMatrix::new(),
            least: None,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored entries (unordered).
    pub fn entries(&self) -> &[ArchiveEntry] {
        &self.entries
    }

    /// The stored behaviour descriptors as a borrowed flat matrix (row `i`
    /// describes `entries()[i]`) — the zero-copy view the novelty paths
    /// consume; append it to a noveltySet with
    /// [`BehaviourMatrix::extend_from`] (one bulk copy).
    pub fn behaviour_matrix(&self) -> &BehaviourMatrix {
        &self.behaviours
    }

    /// Offers a candidate. Returns `true` when it entered the archive:
    ///
    /// * free space → accepted;
    /// * full → accepted iff its novelty exceeds the current minimum, which
    ///   it replaces (novelty-only replacement, §III-B). On ties the
    ///   lowest slot holding the minimum is replaced.
    ///
    /// A rejection reads no entry; an admission that fills the archive or
    /// replaces an entry scans them once for the new minimum.
    pub fn offer(&mut self, genes: &[f64], behaviour: &[f64], novelty: f64, fitness: f64) -> bool {
        assert!(novelty >= 0.0, "novelty scores are non-negative");
        let entry = || ArchiveEntry {
            genes: genes.to_vec(),
            novelty,
            fitness,
        };
        let Some((slot, least)) = self.least else {
            self.entries.push(entry());
            self.behaviours.push(behaviour);
            if self.entries.len() == self.capacity {
                self.least = least_novel(&self.entries);
            }
            return true;
        };
        debug_assert_eq!(
            self.least,
            least_novel(&self.entries),
            "the cached minimum is the scanned one"
        );
        if novelty <= least {
            return false;
        }
        self.entries[slot] = entry();
        self.behaviours.set_row(slot, behaviour);
        self.least = least_novel(&self.entries);
        true
    }
}

/// Slot and novelty of the first minimum-novelty entry by `total_cmp`
/// (`min_by` keeps the first of equal minima), `None` when empty.
fn least_novel(entries: &[ArchiveEntry]) -> Option<(usize, f64)> {
    (entries.iter().map(|e| e.novelty).enumerate()).min_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(vals: &[f64]) -> Vec<Vec<f64>> {
        vals.iter().map(|&v| vec![v]).collect()
    }

    #[test]
    fn distance_is_euclidean() {
        assert_eq!(behaviour_distance(&[0.0], &[3.0]), 3.0);
        assert!((behaviour_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn paper_example_k2() {
        // Behaviours (fitness values): subject 0.5; others at 0.4, 0.7, 0.9.
        // Two nearest: 0.4 (d=0.1) and 0.7 (d=0.2) → ρ = 0.15.
        let set = b(&[0.5, 0.4, 0.7, 0.9]);
        assert!((novelty_score(0, &set, 2) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn duplicate_has_zero_novelty_with_k1() {
        let set = b(&[0.5, 0.5, 0.9]);
        assert_eq!(novelty_score(0, &set, 1), 0.0);
    }

    #[test]
    fn k_clamped_to_reference_size() {
        let set = b(&[0.1, 0.9]);
        // Only one neighbour exists; k = 10 clamps to 1.
        assert!((novelty_score(0, &set, 10) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn isolated_subject_is_maximally_novel() {
        let set = b(&[0.3]);
        assert_eq!(novelty_score(0, &set, 3), f64::MAX);
        assert_eq!(novelty_score_external(&[0.3], &[], 3), f64::MAX);
    }

    #[test]
    fn external_score_counts_all_reference_entries() {
        let reference = b(&[0.0, 1.0]);
        // d = 0.5 to each → mean of k=2 is 0.5.
        assert!((novelty_score_external(&[0.5], &reference, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn outlier_scores_higher_than_cluster_member() {
        let set = b(&[0.50, 0.51, 0.49, 0.52, 0.95]);
        let clustered = novelty_score(0, &set, 3);
        let outlier = novelty_score(4, &set, 3);
        assert!(
            outlier > 3.0 * clustered,
            "outlier {outlier} vs cluster {clustered}"
        );
    }

    #[test]
    fn local_competition_counts_beaten_neighbours() {
        // Behaviours equally spaced; fitness rises with index. Subject 2's
        // two nearest neighbours are 1 and 3: it beats 1, loses to 3 → 0.5.
        let b = b(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        let f = [0.0, 0.25, 0.5, 0.75, 1.0];
        assert!((local_competition_score(2, &b, &f, 2) - 0.5).abs() < 1e-12);
        // The best individual dominates any niche.
        assert_eq!(local_competition_score(4, &b, &f, 2), 1.0);
        // The worst loses everywhere.
        assert_eq!(local_competition_score(0, &b, &f, 2), 0.0);
    }

    #[test]
    fn local_competition_is_local_not_global() {
        // Subject 0 is globally mediocre but locally dominant: its niche
        // (nearby behaviours) all have lower fitness, while a far-away
        // cluster is fitter.
        let b = b(&[0.10, 0.11, 0.12, 0.9, 0.91]);
        let f = [0.5, 0.1, 0.2, 0.9, 0.95];
        assert_eq!(local_competition_score(0, &b, &f, 2), 1.0);
    }

    #[test]
    fn lonely_subject_dominates_trivially() {
        assert_eq!(local_competition_score(0, &b(&[0.5]), &[0.3], 3), 1.0);
    }

    #[test]
    fn archive_respects_capacity() {
        let mut a = NoveltyArchive::new(3);
        for i in 0..10 {
            a.offer(&[i as f64], &[i as f64], i as f64, 0.5);
            assert!(a.len() <= 3);
        }
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn archive_keeps_maximal_novelty_set() {
        let mut a = NoveltyArchive::new(2);
        assert!(a.offer(&[1.0], &[1.0], 0.1, 0.5));
        assert!(a.offer(&[2.0], &[2.0], 0.5, 0.5));
        assert!(a.offer(&[3.0], &[3.0], 0.9, 0.5)); // replaces 0.1
        assert!(!a.offer(&[4.0], &[4.0], 0.2, 0.5)); // below current min (0.5)
        assert!(a.entries().iter().all(|e| e.novelty >= 0.5));
    }

    #[test]
    fn equal_novelty_does_not_replace() {
        let mut a = NoveltyArchive::new(1);
        assert!(a.offer(&[1.0], &[1.0], 0.5, 0.5));
        assert!(!a.offer(&[2.0], &[2.0], 0.5, 0.5));
        assert_eq!(a.entries()[0].genes, vec![1.0]);
    }

    #[test]
    fn behaviour_matrix_tracks_entries_incrementally() {
        let mut a = NoveltyArchive::new(2);
        a.offer(&[1.0, 2.0], &[0.7], 1.0, 0.9);
        a.offer(&[3.0, 4.0], &[0.2], 2.0, 0.1);
        assert_eq!(a.behaviour_matrix().to_rows(), vec![vec![0.7], vec![0.2]]);
        // Replacement overwrites the evicted entry's row in place.
        assert!(a.offer(&[5.0, 6.0], &[0.9], 3.0, 0.5));
        assert_eq!(a.behaviour_matrix().to_rows(), vec![vec![0.9], vec![0.2]]);
        assert_eq!(a.entries()[0].genes, vec![5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = NoveltyArchive::new(0);
    }
}
