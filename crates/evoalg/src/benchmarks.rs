//! Synthetic objective functions for the deceptiveness experiments (E5).
//!
//! §II-C argues that objective-based search fails on *deceptive* fitness
//! landscapes — "the combination of solutions of high fitness leads to
//! solutions of lower fitness and vice versa" — and that Novelty Search is
//! immune because it ignores the objective. These functions make that
//! claim testable:
//!
//! * [`sphere`] — unimodal control: objective search should win or tie;
//! * [`deceptive_trap`] — the classic fully-deceptive trap: the fitness
//!   gradient points *away* from the global optimum;
//! * [`two_peaks`] — a broad local hill hiding a narrow distant global
//!   peak, the continuous analogue of deception.
//!
//! All functions map `[0, 1]^d` genomes to a fitness in `[0, 1]`,
//! maximised, so they drop into the same engines as the fire problem.

/// Unimodal control: `1 − mean((gᵢ − 0.5)²) / 0.25`. Maximum 1 at the cube
/// centre; smooth gradient everywhere.
pub fn sphere(genes: &[f64]) -> f64 {
    assert!(!genes.is_empty());
    let mse: f64 = genes.iter().map(|&g| (g - 0.5) * (g - 0.5)).sum::<f64>() / genes.len() as f64;
    1.0 - mse / 0.25
}

/// Fully deceptive trap function over `blocks` of `block_size` pseudo-bits
/// (a gene is a 1-bit when ≥ 0.5).
///
/// Per block of size `b` with `u` ones: fitness is `b` when `u = b` (the
/// optimum) and `b − 1 − u` otherwise, so every hill-climbing step towards
/// more ones *reduces* fitness until the very last bit — the textbook
/// deceptive landscape (Goldberg). Normalised to `[0, 1]`.
///
/// # Panics
/// Panics when `genes.len()` is not a multiple of `block_size`.
pub fn deceptive_trap(genes: &[f64], block_size: usize) -> f64 {
    assert!(block_size >= 2, "trap blocks need at least 2 bits");
    assert_eq!(
        genes.len() % block_size,
        0,
        "genome length must be a multiple of the block size"
    );
    let blocks = genes.len() / block_size;
    let mut total = 0.0;
    for blk in 0..blocks {
        let ones = genes[blk * block_size..(blk + 1) * block_size]
            .iter()
            .filter(|&&g| g >= 0.5)
            .count();
        total += if ones == block_size {
            block_size as f64
        } else {
            (block_size - 1 - ones) as f64
        };
    }
    total / (blocks * block_size) as f64
}

/// Two-peaks landscape, averaged per gene: a broad hill of height
/// `local_height` at `x = 0.25` (σ = 0.15) and a narrow global peak of
/// height 1 at `x = 0.9` (σ = 0.02). With `local_height < 1` the global
/// optimum is the narrow peak, but almost all gradient information points
/// at the hill.
pub fn two_peaks(genes: &[f64], local_height: f64) -> f64 {
    assert!(!genes.is_empty());
    assert!(
        (0.0..1.0).contains(&local_height),
        "local peak must be lower than the global one"
    );
    let per_gene = |x: f64| -> f64 {
        let hill = local_height * (-((x - 0.25) / 0.15).powi(2)).exp();
        let peak = (-((x - 0.9) / 0.02).powi(2)).exp();
        hill.max(peak)
    };
    genes.iter().map(|&g| per_gene(g)).sum::<f64>() / genes.len() as f64
}

/// Twin-basin landscape: two equal Gaussian optima centred at `0.2·𝟙` and
/// `0.8·𝟙` (RMS width 0.15). Fitness cannot distinguish the basins, so an
/// objective-driven GA converges to whichever it finds first and its final
/// population covers *one* region; a search that returns multiple distant
/// solutions should cover both. This is the §II-C mechanism distilled:
/// "different solutions may be genotypically far apart in the search
/// space, but may still have acceptable fitness values that contribute to
/// the prediction".
pub fn twin_basins(genes: &[f64]) -> f64 {
    let d2 = |c: f64| genes.iter().map(|&x| (x - c) * (x - c)).sum::<f64>() / genes.len() as f64;
    let a = (-d2(0.2) / (0.15 * 0.15)).exp();
    let b = (-d2(0.8) / (0.15 * 0.15)).exp();
    a.max(b)
}

/// Which twin basins a genome belongs to: `(near 0.2·𝟙, near 0.8·𝟙)`
/// (RMS distance below 0.15).
pub fn twin_basin_membership(genes: &[f64]) -> (bool, bool) {
    let rms = |c: f64| {
        (genes.iter().map(|&x| (x - c) * (x - c)).sum::<f64>() / genes.len() as f64).sqrt()
    };
    (rms(0.2) < 0.15, rms(0.8) < 0.15)
}

/// `true` when a *result set* covers both twin basins — the coverage
/// metric of experiment E5.
pub fn covers_both_basins(set: &[Vec<f64>]) -> bool {
    let mut a = false;
    let mut b = false;
    for g in set {
        let (na, nb) = twin_basin_membership(g);
        a |= na;
        b |= nb;
    }
    a && b
}

/// `true` when a genome sits on the global optimum of the trap function
/// (all pseudo-bits set).
pub fn trap_is_optimal(genes: &[f64]) -> bool {
    genes.iter().all(|&g| g >= 0.5)
}

/// `true` when a genome has every gene within `tol` of the two-peaks global
/// optimum at 0.9.
pub fn two_peaks_is_optimal(genes: &[f64], tol: f64) -> bool {
    genes.iter().all(|&g| (g - 0.9).abs() <= tol)
}

/// A batch evaluator scoring every genome with [`sphere`] — the engine
/// tests' objective.
#[cfg(test)]
pub(crate) fn sphere_eval() -> impl FnMut(&[Vec<f64>]) -> Vec<f64> {
    |gs: &[Vec<f64>]| gs.iter().map(|g| sphere(g)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_max_at_centre() {
        assert!((sphere(&[0.5, 0.5, 0.5]) - 1.0).abs() < 1e-12);
        assert!((sphere(&[0.0, 1.0]) - 0.0).abs() < 1e-12);
        assert!(sphere(&[0.4, 0.6]) > sphere(&[0.1, 0.9]));
    }

    #[test]
    fn trap_optimum_is_all_ones() {
        let opt = vec![1.0; 8];
        assert_eq!(deceptive_trap(&opt, 4), 1.0);
        assert!(trap_is_optimal(&opt));
    }

    #[test]
    fn trap_is_deceptive() {
        // With block size 4, fitness at u ones (u < 4) is 3 − u: adding a
        // one *hurts* until the block completes.
        let zeros = vec![0.0; 4];
        let one = vec![1.0, 0.0, 0.0, 0.0];
        let three = vec![1.0, 1.0, 1.0, 0.0];
        let four = vec![1.0; 4];
        let f0 = deceptive_trap(&zeros, 4);
        let f1 = deceptive_trap(&one, 4);
        let f3 = deceptive_trap(&three, 4);
        let f4 = deceptive_trap(&four, 4);
        assert!(
            f0 > f1 && f1 > f3,
            "gradient must point to zeros: {f0} {f1} {f3}"
        );
        assert!(f4 > f0, "global optimum must beat the deceptive attractor");
    }

    #[test]
    fn trap_deceptive_attractor_is_second_best() {
        // all-zeros scores (b−1)/b per block — the best non-optimal value.
        assert!((deceptive_trap(&[0.0; 8], 4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn two_peaks_global_at_09() {
        let local = two_peaks(&[0.25], 0.6);
        let global = two_peaks(&[0.9], 0.6);
        assert!((global - 1.0).abs() < 1e-9);
        assert!((local - 0.6).abs() < 1e-9);
        assert!(global > local);
    }

    #[test]
    fn two_peaks_hill_dominates_locally() {
        // Anywhere between 0.1 and 0.5 the hill's gradient exceeds the
        // far-away peak's contribution.
        let f = |x: f64| two_peaks(&[x], 0.6);
        assert!(f(0.25) > f(0.4));
        assert!(f(0.4) > f(0.55), "{} {}", f(0.4), f(0.55));
    }

    #[test]
    fn twin_basins_symmetric_equal_peaks() {
        assert!((twin_basins(&[0.2, 0.2]) - 1.0).abs() < 1e-12);
        assert!((twin_basins(&[0.8, 0.8]) - 1.0).abs() < 1e-12);
        // The midpoint is the fitness valley.
        assert!(twin_basins(&[0.5, 0.5]) < 0.2);
    }

    #[test]
    fn twin_basin_membership_disjoint() {
        assert_eq!(twin_basin_membership(&[0.2, 0.2]), (true, false));
        assert_eq!(twin_basin_membership(&[0.8, 0.8]), (false, true));
        assert_eq!(twin_basin_membership(&[0.5, 0.5]), (false, false));
    }

    #[test]
    fn coverage_requires_both() {
        let only_a = vec![vec![0.2, 0.2], vec![0.22, 0.18]];
        let both = vec![vec![0.2, 0.2], vec![0.8, 0.8]];
        assert!(!covers_both_basins(&only_a));
        assert!(covers_both_basins(&both));
        assert!(!covers_both_basins(&[]));
    }

    #[test]
    fn optimality_predicates() {
        assert!(two_peaks_is_optimal(&[0.895, 0.905], 0.01));
        assert!(!two_peaks_is_optimal(&[0.8, 0.9], 0.01));
        assert!(!trap_is_optimal(&[1.0, 0.49]));
    }

    #[test]
    #[should_panic(expected = "multiple of the block size")]
    fn trap_rejects_ragged_genome() {
        let _ = deceptive_trap(&[0.1; 7], 4);
    }
}
