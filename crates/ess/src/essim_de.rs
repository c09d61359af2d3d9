//! ESSIM-DE — the island-model Differential Evolution baseline with its
//! published tuning operators (paper §II-B).
//!
//! Three documented behaviours are reproduced:
//!
//! 1. **Diversity-injected result set**: "it was modified to a new version
//!    that tends toward greater diversity, where a part of the results are
//!    incorporated in the prediction process regardless of their fitness" —
//!    the result set is the best fraction of the winning island's
//!    population plus uniformly drawn members regardless of fitness.
//! 2. **Population restart operator** (\[21\]): when the best fitness
//!    stagnates for `stagnation_window` generations, the worst
//!    `restart_fraction` of each island is reinitialised.
//! 3. **IQR-based dynamic tuning** (\[22\]): when the interquartile range of
//!    an island's fitness falls below `iqr_threshold` (premature
//!    convergence signal), that island is restarted.
//!
//! Both operators can be disabled to reproduce the *untuned* ESSIM-DE that
//! the tuning papers compare against (experiment E6).

use crate::fitness::ScenarioEvaluator;
use crate::island::{restart, Ring};
use crate::pipeline::{OptimizeOutcome, StepOptimizer};
use evoalg::{DeConfig, DeEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The automatic/dynamic tuning metrics of ESSIM-DE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningConfig {
    /// Enables the stagnation-triggered population restart (\[21\]).
    pub restart_enabled: bool,
    /// Generations without best-fitness improvement before a restart.
    pub stagnation_window: u32,
    /// Fraction of the population reinitialised by a restart.
    pub restart_fraction: f64,
    /// Enables the IQR premature-convergence metric (\[22\]).
    pub iqr_enabled: bool,
    /// IQR floor below which an island is considered converged.
    pub iqr_threshold: f64,
    /// Fraction of the generation budget after which restarts stop firing:
    /// a restart spends evaluations re-seeding and needs generations to
    /// recover, so the metrics only act while recovery is possible (\[22\]
    /// tracks the IQR "throughout generations" — an early-convergence
    /// detector, not an end-of-run one).
    pub last_restart_frac: f64,
}

impl TuningConfig {
    /// Both tuning metrics off — the original (pre-tuning) ESSIM-DE.
    pub fn disabled() -> Self {
        Self {
            restart_enabled: false,
            stagnation_window: 4,
            restart_fraction: 0.35,
            iqr_enabled: false,
            iqr_threshold: 1e-3,
            last_restart_frac: 0.7,
        }
    }

    /// Both tuning metrics on with the defaults used in E6.
    pub fn enabled() -> Self {
        Self {
            restart_enabled: true,
            iqr_enabled: true,
            ..Self::disabled()
        }
    }
}

/// Configuration of the ESSIM-DE baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EssimDeConfig {
    /// Islands, migration and stopping rule.
    pub ring: Ring,
    /// DE differential weight `F`.
    pub differential_weight: f64,
    /// DE crossover probability `CR`.
    pub crossover_rate: f64,
    /// Fraction of the result set taken from the fittest members; the rest
    /// is drawn uniformly regardless of fitness (the diversity injection).
    pub elite_fraction: f64,
    /// Result-set size handed to the Statistical Stage.
    pub result_set_size: usize,
    /// Tuning metrics.
    pub tuning: TuningConfig,
}

impl Default for EssimDeConfig {
    fn default() -> Self {
        Self {
            ring: Ring::default(),
            differential_weight: 0.8,
            crossover_rate: 0.9,
            elite_fraction: 0.5,
            result_set_size: 12,
            tuning: TuningConfig::enabled(),
        }
    }
}

impl EssimDeConfig {
    /// The DE of the island seeded with `seed`.
    fn island(&self, seed: u64) -> DeConfig {
        DeConfig {
            population_size: self.ring.island_population,
            differential_weight: self.differential_weight,
            crossover_rate: self.crossover_rate,
            seed,
        }
    }

    /// Diversity-injected result set: elite members of the winning
    /// `island`'s population plus uniform draws regardless of fitness.
    fn result_set(&self, island: &mut DeEngine, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1B54A32D192ED03);
        island.sort_by_fitness();
        let pop = island.population();
        let n_elite = ((self.result_set_size as f64) * self.elite_fraction).round() as usize;
        let n_elite = n_elite.min(pop.len()).min(self.result_set_size);
        let mut result_set = pop[..n_elite].to_vec();
        while result_set.len() < self.result_set_size.min(pop.len()) {
            let pick = rng.random_range(0..pop.len());
            result_set.push(pop[pick].clone());
        }
        result_set
    }
}

/// Spaces the islands' seeds (see [`Ring::run`]).
const SEED_STRIDE: u64 = 0xA24BAED4963EE407;

/// The ESSIM-DE baseline optimizer.
#[derive(Debug, Clone)]
pub struct EssimDe {
    config: EssimDeConfig,
}

impl EssimDe {
    /// Builds the baseline with `config`.
    ///
    /// # Panics
    /// Panics on degenerate configurations.
    pub fn new(config: EssimDeConfig) -> Self {
        config.ring.validate();
        assert!(
            config.ring.island_population >= 4,
            "DE islands need at least 4 members"
        );
        assert!(
            (0.0..=1.0).contains(&config.elite_fraction),
            "elite fraction is a proportion"
        );
        assert!(config.result_set_size >= 1, "result set must be non-empty");
        Self { config }
    }
}

impl Default for EssimDe {
    fn default() -> Self {
        Self::new(EssimDeConfig::default())
    }
}

impl StepOptimizer for EssimDe {
    fn name(&self) -> &'static str {
        "ESSIM-DE"
    }

    fn optimize(&mut self, evaluator: &mut ScenarioEvaluator, seed: u64) -> OptimizeOutcome {
        let cfg = self.config;
        let tuning = cfg.tuning;
        let last_restart_gen = (cfg.ring.max_generations as f64 * tuning.last_restart_frac) as u32;
        let mut best_age = 0u32;
        let mut run = cfg.ring.run(
            seed,
            SEED_STRIDE,
            evaluator,
            |island_seed| cfg.island(island_seed),
            |islands, stats, generation, best, evaluator| {
                let restarts_allowed = generation < last_restart_gen;
                let gen_best = stats
                    .iter()
                    .fold(f64::NEG_INFINITY, |b, s| b.max(s.best_fitness));
                // IQR metric: restart every island whose fitness spread
                // collapsed early (premature convergence), as one wave.
                if tuning.iqr_enabled && restarts_allowed {
                    let converged = islands.iter_mut().zip(stats).filter_map(|(isl, s)| {
                        (s.fitness_iqr < tuning.iqr_threshold && isl.generation() > 1)
                            .then_some(isl)
                    });
                    restart(converged, tuning.restart_fraction, evaluator);
                }
                let improved = gen_best > best + 1e-12;
                best_age = if improved { 0 } else { best_age + 1 };
                // Restart metric: global stagnation.
                if tuning.restart_enabled
                    && restarts_allowed
                    && best_age >= tuning.stagnation_window
                {
                    restart(islands.iter_mut(), tuning.restart_fraction, evaluator);
                    best_age = 0;
                }
                if improved {
                    gen_best
                } else {
                    best
                }
            },
        );

        OptimizeOutcome {
            result_set: cfg.result_set(&mut run.winner, seed),
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

    fn small_ring() -> Ring {
        Ring {
            islands: 2,
            island_population: 8,
            migration_interval: 2,
            migrants: 1,
            max_generations: 6,
            ..Ring::default()
        }
    }

    fn small_config(tuning: TuningConfig) -> EssimDeConfig {
        EssimDeConfig {
            ring: small_ring(),
            result_set_size: 8,
            tuning,
            ..EssimDeConfig::default()
        }
    }

    #[test]
    fn produces_requested_result_set() {
        let mut de = EssimDe::new(small_config(TuningConfig::disabled()));
        let mut eval = tiny_step_evaluator();
        let out = de.optimize(&mut eval, 17);
        assert_eq!(out.result_set.len(), 8);
        assert!(out.best_fitness > 0.0);
    }

    #[test]
    fn tuned_variant_runs_and_spends_more_evaluations_under_stagnation() {
        // On a hard-to-improve tiny budget the tuned variant should trigger
        // restarts (hence extra evaluations) at equal generation counts.
        let full_budget = Ring {
            fitness_threshold: 2.0, // never reached
            ..small_ring()
        };
        let mut plain = EssimDe::new(EssimDeConfig {
            ring: full_budget,
            ..small_config(TuningConfig::disabled())
        });
        let mut tuned = EssimDe::new(EssimDeConfig {
            ring: full_budget,
            tuning: TuningConfig {
                restart_enabled: true,
                stagnation_window: 1,
                restart_fraction: 0.5,
                iqr_enabled: true,
                iqr_threshold: 0.5, // aggressive: trips easily
                last_restart_frac: 1.0,
            },
            ..small_config(TuningConfig::disabled())
        });
        let mut e1 = tiny_step_evaluator();
        let mut e2 = tiny_step_evaluator();
        let out_plain = plain.optimize(&mut e1, 23);
        let out_tuned = tuned.optimize(&mut e2, 23);
        assert!(
            out_tuned.evaluations > out_plain.evaluations,
            "tuning should re-evaluate restarted members ({} vs {})",
            out_tuned.evaluations,
            out_plain.evaluations
        );
    }

    #[test]
    fn islands_evaluated_together_match_islands_stepped_one_at_a_time() {
        // Tuning that trips both restart kinds (the IQR floor above any
        // early spread, a one-generation stagnation window).
        let tuning = TuningConfig {
            restart_enabled: true,
            stagnation_window: 1,
            restart_fraction: 0.5,
            iqr_enabled: true,
            iqr_threshold: 0.5,
            last_restart_frac: 1.0,
        };
        let cfg = EssimDeConfig {
            ring: Ring {
                islands: 3,
                fitness_threshold: 2.0, // never reached
                ..small_ring()
            },
            ..small_config(tuning)
        };
        for seed in [23, 24] {
            let (mut eval, batches) = counting_evaluator();
            let out = EssimDe::new(cfg).optimize(&mut eval, seed);

            // The parent's generation body: each island steps, and an
            // IQR-converged island restarts and re-evaluates at once.
            // `waves` is what a batching ring must submit instead: the
            // rows of each wave the table has not scored.
            let (mut reference, log) = counting_evaluator();
            let (mut waves, mut seen) = (Vec::new(), 0);
            let (mut iqr_restarts, mut global_restarts) = (0, 0);
            let mut best_age = 0u32;
            let mut run = one_at_a_time(
                &cfg.ring,
                seed,
                SEED_STRIDE,
                &mut reference,
                |island_seed| cfg.island(island_seed),
                |islands, generation, best, evaluator| {
                    if generation == 0 {
                        waves.push(rows_since(&log, &mut seen));
                    }
                    let mut gen_best = f64::NEG_INFINITY;
                    let (mut converged, mut stepped, mut restarted) = (0, 0, 0);
                    for isl in islands.iter_mut() {
                        let s = isl.step(evaluator);
                        stepped += rows_since(&log, &mut seen);
                        gen_best = gen_best.max(s.best_fitness);
                        if s.fitness_iqr < tuning.iqr_threshold && isl.generation() > 1 {
                            isl.restart_worst(tuning.restart_fraction);
                            isl.evaluate_initial(evaluator);
                            restarted += rows_since(&log, &mut seen);
                            converged += 1;
                        }
                    }
                    waves.push(stepped);
                    if converged > 0 {
                        waves.push(restarted);
                        iqr_restarts += 1;
                    }
                    let improved = gen_best > best + 1e-12;
                    best_age = if improved { 0 } else { best_age + 1 };
                    if best_age >= tuning.stagnation_window {
                        for isl in islands.iter_mut() {
                            isl.restart_worst(tuning.restart_fraction);
                            isl.evaluate_initial(evaluator);
                        }
                        waves.push(rows_since(&log, &mut seen));
                        global_restarts += 1;
                        best_age = 0;
                    }
                    if improved {
                        gen_best
                    } else {
                        best
                    }
                },
            );
            assert!(
                iqr_restarts > 0 && global_restarts > 0,
                "seed {seed}: both restart kinds must fire ({iqr_restarts} IQR, {global_restarts} global)"
            );
            let result_set = cfg.result_set(&mut run.winner, seed);
            assert_eq!(out.result_set, result_set, "seed {seed}");
            assert_eq!(out.best_fitness.to_bits(), run.best_fitness.to_bits());
            assert_eq!(
                (out.generations, out.evaluations),
                (run.generations, run.evaluations)
            );
            // A wave the table answers whole never reaches the backend.
            waves.retain(|&rows| rows > 0);
            assert_eq!(*batches.lock().unwrap(), waves, "seed {seed}");
        }
    }

    #[test]
    fn diversity_injection_duplicates_allowed_but_elites_first() {
        let mut de = EssimDe::new(EssimDeConfig {
            elite_fraction: 0.25,
            ..small_config(TuningConfig::disabled())
        });
        let mut eval = tiny_step_evaluator();
        let out = de.optimize(&mut eval, 31);
        assert_eq!(out.result_set.len(), 8);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut de = EssimDe::new(small_config(TuningConfig::enabled()));
            let mut eval = tiny_step_evaluator();
            de.optimize(&mut eval, seed).result_set
        };
        assert_eq!(run(41), run(41));
    }

    #[test]
    #[should_panic(expected = "migrants must be fewer")]
    fn whole_island_migration_rejected() {
        let _ = EssimDe::new(EssimDeConfig {
            ring: Ring {
                migrants: 12, // the island population: every member replaced
                ..Ring::default()
            },
            ..EssimDeConfig::default()
        });
    }
}
