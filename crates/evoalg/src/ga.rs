//! The fitness-driven genetic algorithm and the two steps every GA in the
//! tree shares.
//!
//! [`GaEngine`] is the metaheuristic of the original ESS and (per island)
//! of ESSIM-EA: roulette-wheel parent selection on fitness, one-point
//! crossover, uniform mutation and elitist replacement. Algorithm 1 is
//! the same GA with the search score in place of fitness, so its
//! `generateOffspring` and `replaceByNovelty` are the steps here, called
//! with another score. Both keep their population and offspring as rows
//! for the whole run, breed into the offspring rows with [`breed_into`],
//! and replace by ranking all `N + m` rows with an
//! [`crate::ElitistRanking`] and moving them into rank order: the first
//! `N` survive, and the gene vectors past them are the next generation's
//! offspring rows.

use crate::engine::{Engine, Rows, Scheme};
use crate::operators::{copy_genes, one_point_crossover_into, uniform_mutation};
use crate::selection::RouletteWheel;
use rand::rngs::StdRng;
use rand::Rng;

/// Genetic algorithm parameters (the "typical GA parameters" of
/// Algorithm 1's input list, applied to the fitness-driven baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size `N`.
    pub population_size: usize,
    /// Offspring per generation `m`.
    pub offspring: usize,
    /// Per-gene mutation probability `mR`.
    pub mutation_rate: f64,
    /// Probability a selected pair undergoes crossover `cR` (children are
    /// clones of the parents otherwise).
    pub crossover_rate: f64,
    /// RNG seed — every run is fully determined by it.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population_size: 50,
            offspring: 50,
            mutation_rate: 0.1,
            crossover_rate: 0.9,
            seed: 0,
        }
    }
}

/// The step-wise GA engine: one generation selects parents by fitness
/// roulette and breeds `m` offspring, which are evaluated; then the best
/// `N` of parents ∪ offspring survive, ties in favour of the parents
/// (the order of a stable sort by descending fitness).
pub type GaEngine = Engine<GaConfig>;

impl Scheme for GaConfig {
    fn start(&self, dims: usize) -> (usize, usize, u64) {
        assert!(
            self.population_size >= 2,
            "GA needs at least two individuals"
        );
        assert!(
            self.offspring >= 2,
            "GA needs at least two offspring per generation"
        );
        assert!(
            (0.0..=1.0).contains(&self.mutation_rate),
            "mutation rate is a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.crossover_rate),
            "crossover rate is a probability"
        );
        assert!(dims >= 2, "genome needs at least two genes");
        (self.population_size, self.offspring, self.seed)
    }

    fn breed(&self, rows: &mut Rows, rng: &mut StdRng) {
        let (parents, offspring) = rows.genes.split_at_mut(rows.population);
        breed_into(
            parents,
            &RouletteWheel::new(&rows.fitness[..rows.population]),
            offspring,
            &mut rows.spare_child,
            self.mutation_rate,
            self.crossover_rate,
            rng,
        );
    }

    fn absorb(&self, rows: &mut Rows) {
        rows.sort_by_fitness(rows.genes.len());
    }
}

/// `generateOffspring(population, m, mR, cR)` into gene vectors the
/// caller keeps: for each pair of rows of `children` (`m` rows, every one
/// overwritten in place), spin two parents off `wheel` (all-zero scores
/// select uniformly), cross them at one point with probability `cR`
/// (copy them otherwise) and mutate every gene of both children with
/// probability `mR` — two spins, the crossover test, the cut, then one
/// draw per gene. When `m` is odd, the last pair's second child is still
/// bred and mutated, into `spare`, so the draws are those of the next
/// even count.
///
/// # Panics
/// Panics when `parents` is shorter than the wheel, or on parents of
/// unequal length.
pub fn breed_into(
    parents: &[Vec<f64>],
    wheel: &RouletteWheel<'_>,
    children: &mut [Vec<f64>],
    spare: &mut Vec<f64>,
    mutation_rate: f64,
    crossover_rate: f64,
    rng: &mut StdRng,
) {
    for pair in children.chunks_mut(2) {
        let (c1, rest) = pair.split_at_mut(1);
        let c1 = &mut c1[0];
        let c2 = rest.first_mut().unwrap_or(&mut *spare);
        let pa = &parents[wheel.spin(rng)];
        let pb = &parents[wheel.spin(rng)];
        if rng.random::<f64>() < crossover_rate {
            one_point_crossover_into(pa, pb, c1, c2, rng);
        } else {
            copy_genes(c1, pa);
            copy_genes(c2, pb);
        }
        uniform_mutation(c1, mutation_rate, rng);
        uniform_mutation(c2, mutation_rate, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::sphere_eval;

    #[test]
    fn ga_improves_sphere_fitness() {
        let mut engine = GaEngine::new(
            8,
            GaConfig {
                seed: 21,
                ..GaConfig::default()
            },
        );
        let mut eval = sphere_eval();
        let start = engine.evaluate_initial(&mut eval);
        let mut last = start;
        for _ in 0..30 {
            last = engine.step(&mut eval);
        }
        assert!(
            last.best_fitness > start.best_fitness + 0.05,
            "no progress: {} → {}",
            start.best_fitness,
            last.best_fitness
        );
        assert!(last.best_fitness > 0.9);
    }

    #[test]
    fn elitism_never_regresses_best() {
        let mut engine = GaEngine::new(
            6,
            GaConfig {
                seed: 5,
                ..GaConfig::default()
            },
        );
        let mut eval = sphere_eval();
        let mut best = engine.evaluate_initial(&mut eval).best_fitness;
        for _ in 0..15 {
            let s = engine.step(&mut eval);
            assert!(s.best_fitness >= best - 1e-12, "elitism violated");
            best = s.best_fitness;
        }
    }
}
