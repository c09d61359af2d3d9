//! The fitness-driven genetic algorithm and the two steps every GA in the
//! tree shares.
//!
//! [`GaEngine`] is the metaheuristic of the original ESS and (per island)
//! of ESSIM-EA: roulette-wheel parent selection on fitness, one-point
//! crossover, uniform mutation and elitist replacement. Algorithm 1 is
//! the same GA with the search score in place of fitness, so its
//! `generateOffspring` and `replaceByNovelty` are the two functions here,
//! [`generate_offspring`] and [`replace_by_score`], called with another
//! score.

use crate::engine::{Engine, Scheme};
use crate::individual::{Individual, Population};
use crate::operators::{one_point_crossover, uniform_mutation};
use crate::selection::{elitist_merge_indices, RouletteWheel};
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
/// `N` of parents ∪ offspring survive.
pub type GaEngine = Engine<GaConfig>;

impl Scheme for GaConfig {
    fn start(&self, dims: usize) -> (usize, u64) {
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
        (self.population_size, self.seed)
    }

    fn breed(&self, population: &Population, rng: &mut StdRng) -> Vec<Vec<f64>> {
        generate_offspring(
            population,
            &population.fitness_values(),
            self.offspring,
            self.mutation_rate,
            self.crossover_rate,
            rng,
        )
        .into_genomes()
    }

    fn absorb(&self, population: &mut Population, candidates: Vec<Vec<f64>>, fitness: &[f64]) {
        let mut offspring =
            Population::from_members(candidates.into_iter().map(Individual::new).collect());
        offspring.assign_fitness(fitness);
        let parents = std::mem::replace(population, Population::from_members(Vec::new()));
        *population = replace_by_score(parents, offspring, |m| m.fitness, self.population_size);
    }
}

/// `generateOffspring(population, m, mR, cR)`: until `m` children exist,
/// spin two parents off one roulette wheel over `scores` (one score per
/// member; all-zero scores select uniformly), cross them at one point with
/// probability `cR` (clone them otherwise) and mutate every gene with
/// probability `mR`. The children are unevaluated.
///
/// # Panics
/// Panics when `scores` is empty, negative or non-finite
/// ([`RouletteWheel::new`]).
pub fn generate_offspring(
    population: &Population,
    scores: &[f64],
    m: usize,
    mutation_rate: f64,
    crossover_rate: f64,
    rng: &mut StdRng,
) -> Population {
    let parents = population.members();
    let wheel = RouletteWheel::new(scores);
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let pa = &parents[wheel.spin(rng)].genes;
        let pb = &parents[wheel.spin(rng)].genes;
        let (mut c1, mut c2) = if rng.random::<f64>() < crossover_rate {
            one_point_crossover(pa, pb, rng)
        } else {
            (pa.clone(), pb.clone())
        };
        uniform_mutation(&mut c1, mutation_rate, rng);
        uniform_mutation(&mut c2, mutation_rate, rng);
        out.push(Individual::new(c1));
        if out.len() < m {
            out.push(Individual::new(c2));
        }
    }
    Population::from_members(out)
}

/// Elitist replacement: the `n` best of `population ∪ offspring` by
/// `score`, best first, ties in favour of the incumbent population
/// ([`elitist_merge_indices`]). Survivors move out of the two populations
/// uncloned; the rest drop with them.
pub fn replace_by_score(
    population: Population,
    offspring: Population,
    score: impl Fn(&Individual) -> f64,
    n: usize,
) -> Population {
    let parent_scores: Vec<f64> = population.members().iter().map(&score).collect();
    let child_scores: Vec<f64> = offspring.members().iter().map(&score).collect();
    let kept = elitist_merge_indices(&parent_scores, &child_scores, n);
    let mut pool: Vec<Option<Individual>> = (population.into_members().into_iter())
        .chain(offspring.into_members())
        .map(Some)
        .collect();
    // The indices are distinct, so each `take` finds its member.
    let survivors: Vec<Individual> = kept.iter().filter_map(|&i| pool[i].take()).collect();
    debug_assert_eq!(survivors.len(), kept.len(), "a survivor was taken twice");
    Population::from_members(survivors)
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
