//! ESS — the original Evolutionary Statistical System baseline (paper
//! §II-A, Fig. 1).
//!
//! One Master drives a fitness-guided genetic algorithm; Workers evaluate
//! scenarios; the Optimization Stage's output is **the final evolved
//! population** ("the solutions of the last generated population are used
//! to select the set of solutions to be used in the prediction stages",
//! §II-B) — exactly the design whose convergence-induced loss of diversity
//! motivates ESS-NS.

use crate::fitness::ScenarioEvaluator;
use crate::pipeline::{OptimizeOutcome, StepOptimizer};
use evoalg::{GaConfig, GaEngine};
use firelib::GENE_COUNT;

/// Configuration of the ESS baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EssConfig {
    /// Population size `N`.
    pub population_size: usize,
    /// Offspring per generation `m`.
    pub offspring: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Crossover probability.
    pub crossover_rate: f64,
    /// Maximum generations per prediction step.
    pub max_generations: u32,
    /// Early-stop fitness threshold.
    pub fitness_threshold: f64,
}

impl Default for EssConfig {
    fn default() -> Self {
        Self {
            population_size: 32,
            offspring: 32,
            mutation_rate: 0.1,
            crossover_rate: 0.9,
            max_generations: 12,
            fitness_threshold: 0.95,
        }
    }
}

/// The ESS baseline optimizer.
#[derive(Debug, Clone)]
pub struct EssClassic {
    config: EssConfig,
}

impl EssClassic {
    /// Builds the baseline with `config`.
    pub fn new(config: EssConfig) -> Self {
        Self { config }
    }
}

impl Default for EssClassic {
    fn default() -> Self {
        Self::new(EssConfig::default())
    }
}

impl StepOptimizer for EssClassic {
    fn name(&self) -> &'static str {
        "ESS"
    }

    fn optimize(&mut self, evaluator: &mut ScenarioEvaluator, seed: u64) -> OptimizeOutcome {
        let cfg = GaConfig {
            population_size: self.config.population_size,
            offspring: self.config.offspring,
            mutation_rate: self.config.mutation_rate,
            crossover_rate: self.config.crossover_rate,
            seed,
        };
        let mut engine = GaEngine::new(GENE_COUNT, cfg);
        let mut stats = engine.evaluate_initial(evaluator);
        // Both stopping conditions of the family: generation budget and
        // fitness threshold.
        while engine.generation() < self.config.max_generations
            && stats.best_fitness < self.config.fitness_threshold
        {
            stats = engine.step(evaluator);
        }
        OptimizeOutcome {
            best_fitness: stats.best_fitness,
            generations: engine.generation(),
            evaluations: engine.evaluations(),
            result_set: engine.into_population(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::tiny_step_evaluator;

    #[test]
    fn finds_a_reasonable_scenario() {
        // The landscape is sparse (a wrong fuel model scores ≈ 0), so give
        // the GA a real budget and require it to clearly beat the random
        // baseline (~0.1 at this budget on this case).
        let mut ess = EssClassic::new(EssConfig {
            population_size: 32,
            offspring: 32,
            max_generations: 15,
            ..EssConfig::default()
        });
        let mut eval = tiny_step_evaluator();
        let out = ess.optimize(&mut eval, 5);
        assert!(
            out.best_fitness > 0.25,
            "GA should find some signal, got {}",
            out.best_fitness
        );
        assert_eq!(out.result_set.len(), 32);
        assert!(out.evaluations >= 32);
    }

    #[test]
    fn early_stops_at_threshold() {
        let mut ess = EssClassic::new(EssConfig {
            population_size: 16,
            offspring: 16,
            max_generations: 50,
            fitness_threshold: 0.05, // trivially reachable
            ..EssConfig::default()
        });
        let mut eval = tiny_step_evaluator();
        let out = ess.optimize(&mut eval, 6);
        assert!(
            out.generations < 50,
            "threshold stop never fired ({} generations)",
            out.generations
        );
    }

    #[test]
    fn respects_generation_budget() {
        let mut ess = EssClassic::new(EssConfig {
            population_size: 8,
            offspring: 8,
            max_generations: 3,
            fitness_threshold: 2.0, // unreachable
            ..EssConfig::default()
        });
        let mut eval = tiny_step_evaluator();
        let out = ess.optimize(&mut eval, 7);
        assert_eq!(out.generations, 3);
        // initial N + 3 × m
        assert_eq!(out.evaluations, 8 + 3 * 8);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut ess = EssClassic::default();
            let mut eval = tiny_step_evaluator();
            ess.optimize(&mut eval, seed).result_set
        };
        assert_eq!(run(9), run(9));
    }
}
