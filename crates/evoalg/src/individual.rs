//! Individuals (scored genomes) and populations.

/// A candidate solution: a normalised gene vector plus the scores the
/// algorithms attach to it.
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
    /// Objective score (NaN until evaluated; engines always evaluate before
    /// reading it).
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

/// An individual's genes, so a breeding step reads parents held as
/// individuals or as bare gene vectors alike.
impl AsRef<[f64]> for Individual {
    fn as_ref(&self) -> &[f64] {
        &self.genes
    }
}

/// A population of individuals with the bookkeeping the engines share.
#[derive(Debug, Clone)]
pub struct Population {
    members: Vec<Individual>,
}

impl Population {
    /// Wraps existing members.
    pub fn from_members(members: Vec<Individual>) -> Self {
        Self { members }
    }

    /// Uniformly random population of `size` genomes with `dims` genes.
    pub fn random<R: rand::Rng + ?Sized>(size: usize, dims: usize, rng: &mut R) -> Self {
        let members = (0..size)
            .map(|_| Individual::new((0..dims).map(|_| rng.random::<f64>()).collect()))
            .collect();
        Self { members }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Immutable members.
    pub fn members(&self) -> &[Individual] {
        &self.members
    }

    /// Mutable members.
    pub fn members_mut(&mut self) -> &mut [Individual] {
        &mut self.members
    }

    /// The genomes, cloned into the shape batch evaluators take.
    pub fn genomes(&self) -> Vec<Vec<f64>> {
        self.members.iter().map(|m| m.genes.clone()).collect()
    }

    /// The members, moved out.
    pub fn into_members(self) -> Vec<Individual> {
        self.members
    }

    /// The genomes, moved out of the members.
    pub fn into_genomes(self) -> Vec<Vec<f64>> {
        self.members.into_iter().map(|m| m.genes).collect()
    }

    /// Writes `fitness[i]` into member `i`.
    ///
    /// # Panics
    /// Panics on length mismatch or non-finite fitness — a NaN score would
    /// silently poison every later comparison.
    pub fn assign_fitness(&mut self, fitness: &[f64]) {
        assert_eq!(
            fitness.len(),
            self.members.len(),
            "fitness batch length mismatch"
        );
        for (m, &f) in self.members.iter_mut().zip(fitness) {
            assert!(f.is_finite(), "fitness must be finite, got {f}");
            m.fitness = f;
        }
    }

    /// The member with the highest fitness.
    pub fn best(&self) -> Option<&Individual> {
        self.members
            .iter()
            .filter(|m| m.is_evaluated())
            .max_by(|a, b| a.fitness.total_cmp(&b.fitness))
    }

    /// All fitness values (evaluated members only).
    pub fn fitness_values(&self) -> Vec<f64> {
        self.members
            .iter()
            .filter(|m| m.is_evaluated())
            .map(|m| m.fitness)
            .collect()
    }

    /// Sorts members by descending fitness (unevaluated members sink).
    pub fn sort_by_fitness_desc(&mut self) {
        self.members.sort_by(|a, b| {
            let fa = if a.fitness.is_finite() {
                a.fitness
            } else {
                f64::NEG_INFINITY
            };
            let fb = if b.fitness.is_finite() {
                b.fitness
            } else {
                f64::NEG_INFINITY
            };
            fb.total_cmp(&fa)
        });
    }
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
    fn random_population_in_unit_cube() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = Population::random(20, 5, &mut rng);
        assert_eq!(pop.len(), 20);
        for m in pop.members() {
            assert_eq!(m.genes.len(), 5);
            assert!(m.genes.iter().all(|g| (0.0..=1.0).contains(g)));
        }
    }

    #[test]
    fn assign_and_best() {
        let mut pop = Population::from_members(vec![
            Individual::new(vec![0.1]),
            Individual::new(vec![0.2]),
            Individual::new(vec![0.3]),
        ]);
        pop.assign_fitness(&[0.5, 0.9, 0.1]);
        assert_eq!(pop.best().unwrap().genes, vec![0.2]);
        assert_eq!(pop.fitness_values(), vec![0.5, 0.9, 0.1]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_fitness_rejected() {
        let mut pop = Population::from_members(vec![Individual::new(vec![0.1])]);
        pop.assign_fitness(&[f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_batch_length_rejected() {
        let mut pop = Population::from_members(vec![Individual::new(vec![0.1])]);
        pop.assign_fitness(&[0.1, 0.2]);
    }

    #[test]
    fn sorts_are_descending() {
        let mut pop = Population::from_members(vec![
            Individual::new(vec![0.0]),
            Individual::new(vec![0.1]),
            Individual::new(vec![0.2]),
        ]);
        pop.assign_fitness(&[0.3, 0.9, 0.6]);
        pop.sort_by_fitness_desc();
        let f: Vec<f64> = pop.members().iter().map(|m| m.fitness).collect();
        assert_eq!(f, vec![0.9, 0.6, 0.3]);
    }

    #[test]
    fn determinism_for_fixed_seed() {
        let a = Population::random(10, 3, &mut StdRng::seed_from_u64(9));
        let b = Population::random(10, 3, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.genomes(), b.genomes());
    }
}
