//! Scored individuals, and the random rows every search starts from.

use rand::Rng;

/// A candidate solution: a normalised gene vector plus the scores the
/// algorithms attach to it — the record Algorithm 1 reports its final
/// population in.
///
/// Genes live in `[0, 1]` and are decoded by the problem layer (for the
/// wildfire systems, [`firelib::ScenarioSpace`]-style decoding; for the
/// benchmark functions, directly). `fitness` is the objective score
/// (Eq. (3) for the fire problem); `novelty` is ρ(x) from Eq. (1), present
/// only in novelty-driven algorithms.
///
/// [`firelib::ScenarioSpace`]: https://docs.rs/firelib
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// Normalised genome.
    pub genes: Vec<f64>,
    /// Objective score (NaN until evaluated).
    pub fitness: f64,
    /// Novelty score ρ(x), when computed.
    pub novelty: f64,
    /// Local-competition score (fraction of behaviour-space neighbours
    /// out-fitted), when an NSLC-style policy computes it.
    pub local_comp: f64,
}

impl Individual {
    /// A fresh, unevaluated individual.
    pub fn new(genes: Vec<f64>) -> Self {
        Self {
            genes,
            fitness: f64::NAN,
            novelty: f64::NAN,
            local_comp: f64::NAN,
        }
    }

    /// `true` once a finite fitness has been assigned.
    pub fn is_evaluated(&self) -> bool {
        self.fitness.is_finite()
    }
}

/// The gene rows of a run: `population` uniformly random genomes of
/// `dims` genes (drawn row by row, gene by gene), then `candidates` zeroed
/// rows a generation breeds into.
pub fn random_rows<R: Rng + ?Sized>(
    population: usize,
    candidates: usize,
    dims: usize,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = (0..population)
        .map(|_| (0..dims).map(|_| rng.random::<f64>()).collect())
        .collect();
    rows.resize(population + candidates, vec![0.0; dims]);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_individual_is_unevaluated() {
        let ind = Individual::new(vec![0.5, 0.5]);
        assert!(!ind.is_evaluated());
    }

    #[test]
    fn random_rows_fill_the_unit_cube_then_zeroed_candidates() {
        let rows = random_rows(20, 3, 5, &mut StdRng::seed_from_u64(1));
        assert_eq!(rows.len(), 23);
        assert!(rows.iter().all(|g| g.len() == 5));
        assert!(rows[..20].iter().flatten().all(|g| (0.0..1.0).contains(g)));
        assert!(rows[20..].iter().flatten().all(|&g| g == 0.0));
        let again = random_rows(20, 0, 5, &mut StdRng::seed_from_u64(1));
        assert_eq!(rows[..20], again[..]);
    }
}
