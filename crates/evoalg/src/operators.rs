//! Variation operators over normalised (`[0, 1]`) gene vectors.

use rand::Rng;

/// One-point crossover into caller-owned children: `c1` and `c2` are
/// overwritten (keeping their allocations) with the parents' genes, then
/// swap tails after a random cut point.
///
/// # Panics
/// Panics when parents differ in length or have fewer than 2 genes.
pub fn one_point_crossover_into<R: Rng + ?Sized>(
    a: &[f64],
    b: &[f64],
    c1: &mut Vec<f64>,
    c2: &mut Vec<f64>,
    rng: &mut R,
) {
    assert_eq!(a.len(), b.len(), "crossover parents must have equal length");
    assert!(a.len() >= 2, "one-point crossover needs at least two genes");
    let cut = rng.random_range(1..a.len());
    copy_genes(c1, a);
    copy_genes(c2, b);
    c1[cut..].copy_from_slice(&b[cut..]);
    c2[cut..].copy_from_slice(&a[cut..]);
}

/// Overwrites `child` with `parent`'s genes, keeping `child`'s allocation.
pub fn copy_genes(child: &mut Vec<f64>, parent: &[f64]) {
    child.clear();
    child.extend_from_slice(parent);
}

/// Uniform-reset mutation: each gene is independently resampled uniformly
/// in `[0, 1]` with probability `rate`.
pub fn uniform_mutation<R: Rng + ?Sized>(genes: &mut [f64], rate: f64, rng: &mut R) {
    assert!(
        (0.0..=1.0).contains(&rate),
        "mutation rate must be a probability"
    );
    for g in genes {
        if rng.random::<f64>() < rate {
            *g = rng.random::<f64>();
        }
    }
}

/// DE `rand/1` donor vector into `donor` (overwritten, keeping its
/// allocation): `x_r1 + f × (x_r2 − x_r3)`, clamped to `[0, 1]`.
/// `r1, r2, r3` are distinct indices into `population`, all different
/// from `target`, drawn in that order.
///
/// # Panics
/// Panics when the population has fewer than 4 members (DE's minimum).
pub fn de_rand_1_donor_into<R: Rng + ?Sized>(
    population: &[Vec<f64>],
    target: usize,
    f: f64,
    donor: &mut Vec<f64>,
    rng: &mut R,
) {
    assert!(
        population.len() >= 4,
        "DE rand/1 needs at least 4 individuals"
    );
    let mut pick = |exclude: &[usize]| -> usize {
        loop {
            let i = rng.random_range(0..population.len());
            if !exclude.contains(&i) {
                return i;
            }
        }
    };
    let r1 = pick(&[target]);
    let r2 = pick(&[target, r1]);
    let r3 = pick(&[target, r1, r2]);
    donor.clear();
    donor.extend(
        (population[r1].iter())
            .zip(&population[r2])
            .zip(&population[r3])
            .map(|((&a, &b), &c)| (a + f * (b - c)).clamp(0.0, 1.0)),
    );
}

/// DE binomial crossover in place: `trial` holds the donor and becomes
/// the trial, each gene kept from the donor with probability `cr` and
/// taken from `target` otherwise, with one guaranteed donor gene
/// (`j_rand`, drawn first; it draws no test of its own).
pub fn de_binomial_crossover_into<R: Rng + ?Sized>(
    target: &[f64],
    trial: &mut [f64],
    cr: f64,
    rng: &mut R,
) {
    assert_eq!(target.len(), trial.len(), "DE crossover length mismatch");
    assert!(
        (0.0..=1.0).contains(&cr),
        "crossover rate must be a probability"
    );
    let j_rand = rng.random_range(0..target.len());
    for (j, (gene, &t)) in trial.iter_mut().zip(target).enumerate() {
        if j != j_rand && rng.random::<f64>() >= cr {
            *gene = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn one_point_preserves_multiset_per_position() {
        let a = vec![0.1, 0.2, 0.3, 0.4];
        let b = vec![0.9, 0.8, 0.7, 0.6];
        let (mut c1, mut c2) = (Vec::new(), Vec::new());
        one_point_crossover_into(&a, &b, &mut c1, &mut c2, &mut rng());
        for i in 0..4 {
            let mut got = [c1[i], c2[i]];
            let mut want = [a[i], b[i]];
            got.sort_by(f64::total_cmp);
            want.sort_by(f64::total_cmp);
            assert_eq!(got, want);
        }
        // The cut must actually exchange a tail.
        assert_ne!(c1, a);
    }

    #[test]
    fn mutation_rate_zero_is_identity() {
        let mut genes = vec![0.25, 0.5, 0.75];
        let orig = genes.clone();
        uniform_mutation(&mut genes, 0.0, &mut rng());
        assert_eq!(genes, orig);
    }

    #[test]
    fn mutation_rate_one_changes_most_genes() {
        let mut genes = vec![0.5; 64];
        uniform_mutation(&mut genes, 1.0, &mut rng());
        let changed = genes.iter().filter(|&&g| g != 0.5).count();
        assert!(
            changed > 56,
            "expected nearly all genes resampled, got {changed}"
        );
        assert!(genes.iter().all(|g| (0.0..=1.0).contains(g)));
    }

    #[test]
    fn de_donor_in_bounds_and_distinct_sources() {
        let pop: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 6.0; 4]).collect();
        let mut r = rng();
        let mut donor = Vec::new();
        for target in 0..pop.len() {
            de_rand_1_donor_into(&pop, target, 0.8, &mut donor, &mut r);
            assert_eq!(donor.len(), 4);
            assert!(donor.iter().all(|g| (0.0..=1.0).contains(g)));
        }
    }

    #[test]
    fn de_crossover_keeps_at_least_one_donor_gene() {
        let target = vec![0.0; 8];
        let mut r = rng();
        for _ in 0..50 {
            let mut trial = vec![1.0; 8];
            de_binomial_crossover_into(&target, &mut trial, 0.0, &mut r);
            assert_eq!(trial.iter().filter(|&&g| g == 1.0).count(), 1);
        }
    }

    #[test]
    fn de_crossover_cr_one_copies_donor() {
        let mut trial = vec![1.0; 5];
        de_binomial_crossover_into(&[0.0; 5], &mut trial, 1.0, &mut rng());
        assert_eq!(trial, [1.0; 5]);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn de_requires_four_members() {
        let pop = vec![vec![0.5]; 3];
        de_rand_1_donor_into(&pop, 0, 0.5, &mut Vec::new(), &mut rng());
    }
}
