//! Differential Evolution (`rand/1/bin`) — the per-island metaheuristic
//! of ESSIM-DE (paper §II-B), as a [`Scheme`] of the shared [`Engine`],
//! whose one-generation-per-step shape lets the framework layer interleave
//! migration and the published tuning operators (population restart
//! \[21\] and IQR-based dynamic tuning \[22\]) between generations.

use crate::engine::{Engine, Rows, Scheme};
use crate::operators::{de_binomial_crossover_into, de_rand_1_donor_into};
use rand::rngs::StdRng;

/// Differential Evolution parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeConfig {
    /// Population size (≥ 4 for `rand/1`).
    pub population_size: usize,
    /// Differential weight `F` ∈ (0, 2].
    pub differential_weight: f64,
    /// Crossover probability `CR`.
    pub crossover_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeConfig {
    fn default() -> Self {
        Self {
            population_size: 50,
            differential_weight: 0.8,
            crossover_rate: 0.9,
            seed: 0,
        }
    }
}

/// The step-wise DE engine: one generation builds, per target, a `rand/1`
/// donor and a binomial-crossover trial in the target's candidate row,
/// evaluates all trials, and greedily swaps each trial at least as fit as
/// its target into the target's row.
pub type DeEngine = Engine<DeConfig>;

impl Scheme for DeConfig {
    fn start(&self, dims: usize) -> (usize, usize, u64) {
        assert!(
            self.population_size >= 4,
            "DE rand/1 needs at least 4 individuals"
        );
        assert!(
            self.differential_weight > 0.0 && self.differential_weight <= 2.0,
            "differential weight must be in (0, 2]"
        );
        assert!(
            (0.0..=1.0).contains(&self.crossover_rate),
            "CR is a probability"
        );
        assert!(dims >= 1, "genome needs at least one gene");
        (self.population_size, self.population_size, self.seed)
    }

    fn breed(&self, rows: &mut Rows, rng: &mut StdRng) {
        let (population, trials) = rows.genes.split_at_mut(rows.population);
        for (target, trial) in trials.iter_mut().enumerate() {
            de_rand_1_donor_into(population, target, self.differential_weight, trial, rng);
            de_binomial_crossover_into(&population[target], trial, self.crossover_rate, rng);
        }
    }

    fn absorb(&self, rows: &mut Rows) {
        let (population, trials) = rows.genes.split_at_mut(rows.population);
        let (fitness, trial_fitness) = rows.fitness.split_at_mut(rows.population);
        let pairs = population
            .iter_mut()
            .zip(fitness)
            .zip(trials.iter_mut().zip(trial_fitness));
        for ((genes, f), (trial, &mut tf)) in pairs {
            // Greedy selection with >=: drifting across plateaus is what
            // lets DE escape flat fitness regions (important for J = 0
            // early fire-prediction populations).
            if tf >= *f {
                std::mem::swap(genes, trial);
                *f = tf;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::sphere_eval;

    #[test]
    fn de_converges_on_sphere() {
        let mut engine = DeEngine::new(
            6,
            DeConfig {
                seed: 77,
                ..DeConfig::default()
            },
        );
        let mut eval = sphere_eval();
        engine.evaluate_initial(&mut eval);
        let mut last = engine.stats();
        for _ in 0..60 {
            last = engine.step(&mut eval);
        }
        assert!(
            last.best_fitness > 0.98,
            "DE should solve sphere, got {}",
            last.best_fitness
        );
    }

    #[test]
    fn greedy_selection_never_regresses_any_member() {
        let mut engine = DeEngine::new(
            4,
            DeConfig {
                seed: 3,
                ..DeConfig::default()
            },
        );
        let mut eval = sphere_eval();
        engine.evaluate_initial(&mut eval);
        let before = engine.fitness().to_vec();
        engine.step(&mut eval);
        let after = engine.fitness();
        for (b, a) in before.iter().zip(after) {
            assert!(a >= b, "member regressed: {b} → {a}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_population_rejected() {
        let _ = DeEngine::new(
            3,
            DeConfig {
                population_size: 3,
                ..DeConfig::default()
            },
        );
    }
}
