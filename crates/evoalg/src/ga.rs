//! A step-wise, fitness-driven genetic algorithm engine.
//!
//! This is the metaheuristic of the original ESS and (per island) of
//! ESSIM-EA: roulette-wheel parent selection on fitness, one-point
//! crossover, uniform mutation and elitist replacement. The engine exposes
//! one generation per [`GaEngine::step`] call so the framework layer can
//! interleave migration (islands), tuning actions and statistics
//! collection between generations.

use crate::individual::{Individual, Population};
use crate::operators::{one_point_crossover, uniform_mutation};
use crate::selection::{elitist_merge_indices, roulette};
use crate::BatchEvaluator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Per-generation statistics (feeds the tuning metrics and the E-series
/// reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenStats {
    /// Generation index (0 = the initial population).
    pub generation: u32,
    /// Best fitness in the current population.
    pub best_fitness: f64,
    /// Mean fitness.
    pub mean_fitness: f64,
    /// Interquartile range of fitness — the ESSIM-DE tuning signal.
    pub fitness_iqr: f64,
    /// Cumulative number of fitness evaluations.
    pub evaluations: u64,
}

/// The step-wise GA engine.
#[derive(Debug)]
pub struct GaEngine {
    config: GaConfig,
    dims: usize,
    population: Population,
    rng: StdRng,
    generation: u32,
    evaluations: u64,
}

impl GaEngine {
    /// Creates an engine with a random initial population; call
    /// [`GaEngine::evaluate_initial`] before the first [`GaEngine::step`].
    ///
    /// # Panics
    /// Panics on a zero population, zero offspring, or out-of-range rates.
    pub fn new(dims: usize, config: GaConfig) -> Self {
        assert!(
            config.population_size >= 2,
            "GA needs at least two individuals"
        );
        assert!(
            config.offspring >= 2,
            "GA needs at least two offspring per generation"
        );
        assert!(
            (0.0..=1.0).contains(&config.mutation_rate),
            "mutation rate is a probability"
        );
        assert!(
            (0.0..=1.0).contains(&config.crossover_rate),
            "crossover rate is a probability"
        );
        assert!(dims >= 2, "genome needs at least two genes");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let population = Population::random(config.population_size, dims, &mut rng);
        Self {
            config,
            dims,
            population,
            rng,
            generation: 0,
            evaluations: 0,
        }
    }

    /// Evaluates the initial population. Must be called once before
    /// stepping; subsequent calls re-evaluate (used after migrations).
    pub fn evaluate_initial<E: BatchEvaluator>(&mut self, evaluator: &mut E) -> GenStats {
        let fitness = evaluator.evaluate(&self.population.genomes());
        self.evaluations += fitness.len() as u64;
        self.population.assign_fitness(&fitness);
        self.stats()
    }

    /// Runs one generation: select parents by fitness roulette, produce
    /// `m` offspring, evaluate them, and keep the best `N` of parents ∪
    /// offspring (elitist replacement).
    pub fn step<E: BatchEvaluator>(&mut self, evaluator: &mut E) -> GenStats {
        assert!(
            self.population
                .members()
                .iter()
                .all(Individual::is_evaluated),
            "call evaluate_initial before step"
        );
        let offspring = self.make_offspring();
        let mut off_pop = Population::from_members(offspring);
        let fitness = evaluator.evaluate(&off_pop.genomes());
        self.evaluations += fitness.len() as u64;
        off_pop.assign_fitness(&fitness);

        // Elitist replacement over the merged pool.
        let parent_scores = self.population.fitness_values();
        let off_scores = off_pop.fitness_values();
        let keep = elitist_merge_indices(&parent_scores, &off_scores, self.config.population_size);
        let parents = std::mem::take(&mut self.population).into_members();
        let off = off_pop.into_members();
        let mut next = Vec::with_capacity(self.config.population_size);
        for i in keep {
            if i < parents.len() {
                next.push(parents[i].clone());
            } else {
                next.push(off[i - parents.len()].clone());
            }
        }
        self.population = Population::from_members(next);
        self.generation += 1;
        self.stats()
    }

    /// Generates `m` offspring via roulette selection, one-point crossover
    /// and uniform mutation (shared with the restart operator tests).
    fn make_offspring(&mut self) -> Vec<Individual> {
        let scores = self.population.fitness_values();
        let mut out = Vec::with_capacity(self.config.offspring);
        while out.len() < self.config.offspring {
            let pa = roulette(&scores, &mut self.rng);
            let pb = roulette(&scores, &mut self.rng);
            let (mut c1, mut c2) = if self.rng.random::<f64>() < self.config.crossover_rate {
                one_point_crossover(
                    &self.population.members()[pa].genes,
                    &self.population.members()[pb].genes,
                    &mut self.rng,
                )
            } else {
                (
                    self.population.members()[pa].genes.clone(),
                    self.population.members()[pb].genes.clone(),
                )
            };
            uniform_mutation(&mut c1, self.config.mutation_rate, &mut self.rng);
            uniform_mutation(&mut c2, self.config.mutation_rate, &mut self.rng);
            out.push(Individual::new(c1));
            if out.len() < self.config.offspring {
                out.push(Individual::new(c2));
            }
        }
        out
    }

    /// Reinitialises the `frac` worst members uniformly at random — the
    /// population-restart tuning operator of ESSIM-DE (\[21\]), shared here
    /// so both engines can use it. Restarted members need re-evaluation,
    /// which the next [`GaEngine::step`] will not do implicitly; call
    /// [`GaEngine::evaluate_initial`] after restarting.
    pub fn restart_worst(&mut self, frac: f64) {
        assert!(
            (0.0..=1.0).contains(&frac),
            "restart fraction is a probability"
        );
        let n = ((self.population.len() as f64) * frac).round() as usize;
        if n == 0 {
            return;
        }
        self.population.sort_by_fitness_desc();
        let len = self.population.len();
        let dims = self.dims;
        for m in &mut self.population.members_mut()[len - n..] {
            m.genes = (0..dims).map(|_| self.rng.random::<f64>()).collect();
            m.fitness = f64::NAN;
        }
    }

    /// Current population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Mutable population access (migration in the island model).
    pub fn population_mut(&mut self) -> &mut Population {
        &mut self.population
    }

    /// Generation counter.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Total evaluations so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Statistics of the current population.
    pub fn stats(&self) -> GenStats {
        let f = self.population.fitness_values();
        let (mean, _) = landscape_stats(&f);
        GenStats {
            generation: self.generation,
            best_fitness: f.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean_fitness: mean,
            fitness_iqr: iqr(&f),
            evaluations: self.evaluations,
        }
    }
}

// Small local statistics (duplicating `landscape::metrics` would drag a
// dependency into this otherwise problem-agnostic crate).
fn landscape_stats(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Interquartile range with linear interpolation (kept consistent with
/// `landscape::metrics::iqr`; duplicated deliberately, see above).
pub(crate) fn iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = |frac: f64| -> f64 {
        let pos = frac * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    };
    q(0.75) - q(0.25)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::sphere;

    fn sphere_eval() -> impl FnMut(&[Vec<f64>]) -> Vec<f64> {
        |gs: &[Vec<f64>]| gs.iter().map(|g| sphere(g)).collect()
    }

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

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut engine = GaEngine::new(
                5,
                GaConfig {
                    seed,
                    ..GaConfig::default()
                },
            );
            let mut eval = sphere_eval();
            engine.evaluate_initial(&mut eval);
            for _ in 0..10 {
                engine.step(&mut eval);
            }
            engine.population().genomes()
        };
        assert_eq!(run(33), run(33));
        assert_ne!(run(33), run(34));
    }

    #[test]
    fn evaluation_count_tracks_budget() {
        let cfg = GaConfig {
            population_size: 10,
            offspring: 20,
            seed: 1,
            ..GaConfig::default()
        };
        let mut engine = GaEngine::new(4, cfg);
        let mut eval = sphere_eval();
        engine.evaluate_initial(&mut eval);
        assert_eq!(engine.evaluations(), 10);
        engine.step(&mut eval);
        assert_eq!(engine.evaluations(), 30);
        engine.step(&mut eval);
        assert_eq!(engine.evaluations(), 50);
    }

    #[test]
    fn restart_worst_resets_tail() {
        let mut engine = GaEngine::new(
            4,
            GaConfig {
                seed: 2,
                ..GaConfig::default()
            },
        );
        let mut eval = sphere_eval();
        engine.evaluate_initial(&mut eval);
        engine.restart_worst(0.5);
        let unevaluated = engine
            .population()
            .members()
            .iter()
            .filter(|m| !m.is_evaluated())
            .count();
        assert_eq!(unevaluated, 25);
        // Re-evaluate and continue stepping without panic.
        engine.evaluate_initial(&mut eval);
        engine.step(&mut eval);
    }

    #[test]
    #[should_panic(expected = "evaluate_initial")]
    fn stepping_before_evaluation_panics() {
        let mut engine = GaEngine::new(4, GaConfig::default());
        let mut eval = sphere_eval();
        engine.step(&mut eval);
    }

    #[test]
    fn stats_report_population_summary() {
        let mut engine = GaEngine::new(
            4,
            GaConfig {
                seed: 9,
                ..GaConfig::default()
            },
        );
        let mut eval = sphere_eval();
        let s = engine.evaluate_initial(&mut eval);
        assert!(s.best_fitness >= s.mean_fitness);
        assert!(s.fitness_iqr >= 0.0);
        assert_eq!(s.generation, 0);
    }
}
