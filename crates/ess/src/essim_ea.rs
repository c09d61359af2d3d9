//! ESSIM-EA — the island-model genetic algorithm baseline (paper §II-B).
//!
//! The `island` model with a [`GaConfig`] engine per island; at
//! the end the Monitor "receives all the probability matrices generated
//! by the Masters, together with their Kign value and the associated
//! fitness … then selects the best candidate": the winning island's final
//! population is the result set.

use crate::fitness::ScenarioEvaluator;
use crate::island::Ring;
use crate::pipeline::{OptimizeOutcome, StepOptimizer};
use evoalg::GaConfig;

/// Configuration of the ESSIM-EA baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EssimEaConfig {
    /// Number of islands.
    pub islands: usize,
    /// Population size per island.
    pub island_population: usize,
    /// Offspring per generation per island.
    pub offspring: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Crossover probability.
    pub crossover_rate: f64,
    /// Generations between migrations.
    pub migration_interval: u32,
    /// Individuals sent per migration.
    pub migrants: usize,
    /// Maximum generations per prediction step.
    pub max_generations: u32,
    /// Early-stop fitness threshold (any island).
    pub fitness_threshold: f64,
}

impl Default for EssimEaConfig {
    fn default() -> Self {
        Self {
            islands: 4,
            island_population: 12,
            offspring: 12,
            mutation_rate: 0.1,
            crossover_rate: 0.9,
            migration_interval: 3,
            migrants: 2,
            max_generations: 12,
            fitness_threshold: 0.95,
        }
    }
}

/// The ESSIM-EA baseline optimizer.
#[derive(Debug, Clone)]
pub struct EssimEa {
    config: EssimEaConfig,
}

impl EssimEa {
    /// Builds the baseline with `config`.
    ///
    /// # Panics
    /// Panics on degenerate configurations (fewer than 2 islands, migrants
    /// not fewer than the island population).
    pub fn new(config: EssimEaConfig) -> Self {
        Self::ring(&config).validate();
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EssimEaConfig {
        &self.config
    }

    fn ring(config: &EssimEaConfig) -> Ring {
        Ring {
            islands: config.islands,
            island_population: config.island_population,
            migration_interval: config.migration_interval,
            migrants: config.migrants,
            max_generations: config.max_generations,
            fitness_threshold: config.fitness_threshold,
            seed_stride: 0x9E3779B97F4A7C15,
        }
    }
}

impl Default for EssimEa {
    fn default() -> Self {
        Self::new(EssimEaConfig::default())
    }
}

impl StepOptimizer for EssimEa {
    fn name(&self) -> &'static str {
        "ESSIM-EA"
    }

    fn optimize(&mut self, evaluator: &mut ScenarioEvaluator, seed: u64) -> OptimizeOutcome {
        let cfg = &self.config;
        let run = Self::ring(cfg).run(
            seed,
            evaluator,
            |island_seed| GaConfig {
                population_size: cfg.island_population,
                offspring: cfg.offspring,
                mutation_rate: cfg.mutation_rate,
                crossover_rate: cfg.crossover_rate,
                seed: island_seed,
            },
            |islands, _, best, evaluator| {
                islands
                    .iter_mut()
                    .fold(best, |best, isl| best.max(isl.step(evaluator).best_fitness))
            },
        );
        OptimizeOutcome {
            result_set: run.winner.population().genomes(),
            best_fitness: run.best_fitness,
            generations: run.generations,
            evaluations: run.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::tiny_step_evaluator;

    fn small_config() -> EssimEaConfig {
        EssimEaConfig {
            islands: 3,
            island_population: 8,
            offspring: 8,
            migration_interval: 2,
            migrants: 2,
            max_generations: 6,
            ..EssimEaConfig::default()
        }
    }

    #[test]
    fn returns_single_island_population() {
        let mut ea = EssimEa::new(small_config());
        let mut eval = tiny_step_evaluator();
        let out = ea.optimize(&mut eval, 11);
        assert_eq!(out.result_set.len(), 8);
        assert!(out.best_fitness > 0.0);
    }

    #[test]
    fn evaluations_cover_all_islands() {
        let mut ea = EssimEa::new(small_config());
        let mut eval = tiny_step_evaluator();
        let out = ea.optimize(&mut eval, 12);
        // Unless the threshold fired early, 3 islands × (8 + gens × 8).
        assert!(out.evaluations >= 3 * 8);
        assert_eq!(out.evaluations, eval.evaluation_count());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut ea = EssimEa::new(small_config());
            let mut eval = tiny_step_evaluator();
            ea.optimize(&mut eval, seed).result_set
        };
        assert_eq!(run(13), run(13));
    }

    #[test]
    #[should_panic(expected = "at least 2 islands")]
    fn single_island_rejected() {
        let _ = EssimEa::new(EssimEaConfig {
            islands: 1,
            ..EssimEaConfig::default()
        });
    }
}
