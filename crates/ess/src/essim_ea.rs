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
    /// Islands, migration and stopping rule.
    pub ring: Ring,
    /// Offspring per generation per island.
    pub offspring: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Crossover probability.
    pub crossover_rate: f64,
}

impl Default for EssimEaConfig {
    fn default() -> Self {
        Self {
            ring: Ring::default(),
            offspring: 12,
            mutation_rate: 0.1,
            crossover_rate: 0.9,
        }
    }
}

impl EssimEaConfig {
    /// The GA of the island seeded with `seed`.
    fn island(&self, seed: u64) -> GaConfig {
        GaConfig {
            population_size: self.ring.island_population,
            offspring: self.offspring,
            mutation_rate: self.mutation_rate,
            crossover_rate: self.crossover_rate,
            seed,
        }
    }
}

/// Spaces the islands' seeds (see [`Ring::run`]).
const SEED_STRIDE: u64 = 0x9E3779B97F4A7C15;

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
        config.ring.validate();
        Self { config }
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
        let run = cfg.ring.run(
            seed,
            SEED_STRIDE,
            evaluator,
            |island_seed| cfg.island(island_seed),
            |_, stats, _, best, _| stats.iter().fold(best, |best, s| best.max(s.best_fitness)),
        );
        OptimizeOutcome {
            result_set: run.winner.into_population(),
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
    use crate::island::reference::{counting_evaluator, one_at_a_time, rows_since};

    fn small_config() -> EssimEaConfig {
        EssimEaConfig {
            ring: Ring {
                islands: 3,
                island_population: 8,
                migration_interval: 2,
                migrants: 2,
                max_generations: 6,
                ..Ring::default()
            },
            offspring: 8,
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
        assert_eq!(out.evaluations, evoalg::BatchEvaluator::evaluations(&eval));
    }

    #[test]
    fn islands_evaluated_together_match_islands_stepped_one_at_a_time() {
        let ring = Ring {
            fitness_threshold: 2.0, // never reached: the whole budget runs
            ..small_config().ring
        };
        // The early stop too: the default threshold fires on some seeds.
        for cfg in [
            small_config(),
            EssimEaConfig {
                ring,
                ..small_config()
            },
        ] {
            for seed in [12, 13] {
                let (mut eval, batches) = counting_evaluator();
                let out = EssimEa::new(cfg).optimize(&mut eval, seed);
                // The rows of each wave the table has not scored: what the
                // batching ring must submit for it.
                let (mut reference, log) = counting_evaluator();
                let (mut waves, mut seen) = (Vec::new(), 0);
                let run = one_at_a_time(
                    &cfg.ring,
                    seed,
                    SEED_STRIDE,
                    &mut reference,
                    |island_seed| cfg.island(island_seed),
                    |islands, generation, best, evaluator| {
                        if generation == 0 {
                            waves.push(rows_since(&log, &mut seen));
                        }
                        let best = islands
                            .iter_mut()
                            .fold(best, |best, isl| best.max(isl.step(evaluator).best_fitness));
                        waves.push(rows_since(&log, &mut seen));
                        best
                    },
                );
                assert_eq!(out.result_set, run.winner.population());
                assert_eq!(out.best_fitness.to_bits(), run.best_fitness.to_bits());
                assert_eq!(
                    (out.generations, out.evaluations),
                    (run.generations, run.evaluations)
                );
                // One submission for the initial populations and one per
                // generation, every island's unscored rows in each — none
                // for a wave the table answers whole.
                assert_eq!(waves.len(), 1 + out.generations as usize);
                waves.retain(|&rows| rows > 0);
                assert_eq!(*batches.lock().unwrap(), waves);
            }
        }
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
            ring: Ring {
                islands: 1,
                ..Ring::default()
            },
            ..EssimEaConfig::default()
        });
    }
}
