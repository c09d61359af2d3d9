//! ESSIM-EA — the island-model genetic algorithm baseline (paper §II-B).
//!
//! "The system uses a number of islands, each of which has a Master and a
//! number of Workers; the Monitor acts as the Master process for the
//! Masters of the islands." Each island evolves its own GA population;
//! every `migration_interval` generations the islands exchange their best
//! individuals along a ring; at the end the Monitor "receives all the
//! probability matrices generated by the Masters, together with their Kign
//! value and the associated fitness … then selects the best candidate".
//!
//! Process-level note: the original runs islands as MPI process groups;
//! here each island is a [`GaEngine`] stepped round-robin by one thread,
//! with the shared scenario evaluator doing the parallel work — the
//! paper's own ESS-NS simplification argument (§III-A: the demanding part
//! is scenario evaluation) applies equally to the baseline.

use crate::fitness::ScenarioEvaluator;
use crate::pipeline::{OptimizeOutcome, StepOptimizer};
use evoalg::{GaConfig, GaEngine};
use firelib::GENE_COUNT;

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
    /// exceeding the island population).
    pub fn new(config: EssimEaConfig) -> Self {
        assert!(
            config.islands >= 2,
            "an island model needs at least 2 islands"
        );
        assert!(
            config.migrants < config.island_population,
            "migrants must be fewer than an island's population"
        );
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EssimEaConfig {
        &self.config
    }

    /// Ring migration: each island sends clones of its `migrants` best to
    /// the next island, replacing that island's worst members.
    fn migrate(islands: &mut [GaEngine], migrants: usize) {
        let n = islands.len();
        // Collect emigrants first so the exchange is simultaneous (no
        // island sees half-migrated state).
        let emigrants: Vec<Vec<evoalg::Individual>> = islands
            .iter_mut()
            .map(|isl| {
                isl.population_mut().sort_by_fitness_desc();
                isl.population().members()[..migrants].to_vec()
            })
            .collect();
        for (src, migrants_group) in emigrants.into_iter().enumerate() {
            let dst = (src + 1) % n;
            let pop = islands[dst].population_mut();
            pop.sort_by_fitness_desc();
            let len = pop.len();
            for (k, migrant) in migrants_group.into_iter().enumerate() {
                pop.members_mut()[len - 1 - k] = migrant;
            }
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
        let mut islands: Vec<GaEngine> = (0..cfg.islands)
            .map(|i| {
                GaEngine::new(
                    GENE_COUNT,
                    GaConfig {
                        population_size: cfg.island_population,
                        offspring: cfg.offspring,
                        mutation_rate: cfg.mutation_rate,
                        crossover_rate: cfg.crossover_rate,
                        seed: seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1)),
                    },
                )
            })
            .collect();
        for isl in &mut islands {
            isl.evaluate_initial(evaluator);
        }

        let mut best = f64::NEG_INFINITY;
        let mut generation = 0u32;
        while generation < cfg.max_generations && best < cfg.fitness_threshold {
            for isl in &mut islands {
                let s = isl.step(evaluator);
                best = best.max(s.best_fitness);
            }
            generation += 1;
            if cfg.migration_interval > 0 && generation.is_multiple_of(cfg.migration_interval) {
                Self::migrate(&mut islands, cfg.migrants);
            }
        }

        // Monitor stage: pick the island whose best fitness is highest and
        // emit its final population as the result set.
        let winner = islands
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.stats().best_fitness.total_cmp(&b.stats().best_fitness))
            .map(|(i, _)| i)
            // lint: allow(panic) — island count is a positive compile-time constant of the topology
            .expect("at least one island");
        let evaluations: u64 = islands.iter().map(|i| i.evaluations()).sum();
        OptimizeOutcome {
            result_set: islands[winner].population().genomes(),
            best_fitness: best,
            generations: generation,
            evaluations,
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
    fn migration_spreads_best_genomes() {
        // Build two tiny engines, make island 0 hold a known-best genome,
        // migrate, and check island 1 received it.
        let mk = |seed| {
            GaEngine::new(
                GENE_COUNT,
                GaConfig {
                    population_size: 4,
                    offspring: 4,
                    seed,
                    ..GaConfig::default()
                },
            )
        };
        let mut islands = vec![mk(1), mk(2)];
        let special = vec![0.123456; GENE_COUNT];
        let mut eval = |gs: &[Vec<f64>]| -> Vec<f64> {
            gs.iter()
                .map(|g| if g == &special { 0.99 } else { 0.01 })
                .collect()
        };
        for isl in &mut islands {
            isl.evaluate_initial(&mut eval);
        }
        islands[0].population_mut().members_mut()[0] = {
            let mut ind = evoalg::Individual::new(special.clone());
            ind.fitness = 0.99;
            ind
        };
        EssimEa::migrate(&mut islands, 1);
        assert!(
            islands[1].population().genomes().contains(&special),
            "best genome did not migrate"
        );
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
