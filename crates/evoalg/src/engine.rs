//! The step-wise engine core shared by the fitness-driven metaheuristics.
//!
//! [`Engine`] owns what every such engine does the same way — the seeded
//! random initial population, its evaluation, the generation and
//! evaluation counters, the population-restart operator and the
//! per-generation statistics — and exposes one generation per
//! [`Engine::step`] call so the framework layer can interleave migration
//! (islands), tuning actions and statistics collection between
//! generations. A step is [`Engine::propose`] → evaluate →
//! [`Engine::accept`]; callers that hold several engines (the island
//! model) call the two halves themselves and score every engine's
//! candidates in one batch. How a generation varies and selects is the
//! [`Scheme`]: [`crate::GaConfig`] (the GA of ESS and ESSIM-EA) and
//! [`crate::DeConfig`] (`rand/1/bin`, ESSIM-DE) are the two in the tree.

use crate::individual::{Individual, Population};
use crate::BatchEvaluator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How one generation varies and selects — the only thing the GA and DE
/// engines do differently. Implemented by the engines' parameter structs.
pub trait Scheme {
    /// Population size and RNG seed of an engine over `dims`-gene genomes.
    ///
    /// # Panics
    /// Panics on parameters the scheme cannot run with.
    fn start(&self, dims: usize) -> (usize, u64);

    /// Breeds one generation's unevaluated candidates from an evaluated
    /// `population`, drawing only from `rng`.
    fn breed(&self, population: &Population, rng: &mut StdRng) -> Vec<Vec<f64>>;

    /// Selects the next population from `population` and the bred
    /// `candidates`, `fitness[i]` being the score of `candidates[i]`.
    fn absorb(&self, population: &mut Population, candidates: Vec<Vec<f64>>, fitness: &[f64]);
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

/// A step-wise engine running the scheme `S`.
#[derive(Debug)]
pub struct Engine<S> {
    scheme: S,
    dims: usize,
    population: Population,
    rng: StdRng,
    generation: u32,
    evaluations: u64,
}

impl<S: Scheme> Engine<S> {
    /// Creates an engine with a random initial population; call
    /// [`Engine::evaluate_initial`] before the first [`Engine::step`].
    ///
    /// # Panics
    /// Panics on parameters the scheme rejects.
    pub fn new(dims: usize, scheme: S) -> Self {
        let (population_size, seed) = scheme.start(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let population = Population::random(population_size, dims, &mut rng);
        Self {
            scheme,
            dims,
            population,
            rng,
            generation: 0,
            evaluations: 0,
        }
    }

    /// Evaluates the current population: once before stepping, and again
    /// after a restart or a migration introduced unevaluated members.
    pub fn evaluate_initial<E: BatchEvaluator>(&mut self, evaluator: &mut E) -> GenStats {
        let fitness = evaluator.evaluate(&self.population.genomes());
        self.score_population(&fitness)
    }

    /// Writes `fitness[i]` into member `i` of the whole population — the
    /// second half of [`Engine::evaluate_initial`], for a caller that
    /// scored several engines' populations in one batch.
    ///
    /// # Panics
    /// Panics on a length mismatch or a non-finite fitness.
    pub fn score_population(&mut self, fitness: &[f64]) -> GenStats {
        self.population.assign_fitness(fitness);
        self.evaluations += fitness.len() as u64;
        self.stats()
    }

    /// Runs one generation of the scheme: [`Engine::propose`], one
    /// evaluation, [`Engine::accept`].
    pub fn step<E: BatchEvaluator>(&mut self, evaluator: &mut E) -> GenStats {
        let candidates = self.propose();
        let fitness = evaluator.evaluate(&candidates);
        self.accept(candidates, &fitness)
    }

    /// The first half of a generation: breeds its candidates on this
    /// engine's own stream. Score them and hand them to
    /// [`Engine::accept`] before proposing again.
    ///
    /// # Panics
    /// Panics when the population holds unevaluated members.
    pub fn propose(&mut self) -> Vec<Vec<f64>> {
        assert!(
            self.population
                .members()
                .iter()
                .all(Individual::is_evaluated),
            "call evaluate_initial before step"
        );
        self.scheme.breed(&self.population, &mut self.rng)
    }

    /// The second half of a generation: selects with the scored
    /// `candidates` of the last [`Engine::propose`] (`fitness[i]` scores
    /// `candidates[i]`) and closes the generation.
    ///
    /// # Panics
    /// Panics when `fitness` and `candidates` differ in length.
    pub fn accept(&mut self, candidates: Vec<Vec<f64>>, fitness: &[f64]) -> GenStats {
        assert_eq!(
            candidates.len(),
            fitness.len(),
            "fitness batch length mismatch"
        );
        self.evaluations += fitness.len() as u64;
        self.scheme
            .absorb(&mut self.population, candidates, fitness);
        self.generation += 1;
        self.stats()
    }

    /// Reinitialises the `frac` worst members uniformly at random — the
    /// ESSIM-DE population restart operator (\[21\]). Restarted members are
    /// unevaluated; call [`Engine::evaluate_initial`] before stepping.
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
        let mean = if f.is_empty() {
            0.0
        } else {
            f.iter().sum::<f64>() / f.len() as f64
        };
        GenStats {
            generation: self.generation,
            best_fitness: f.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean_fitness: mean,
            fitness_iqr: iqr(&f),
            evaluations: self.evaluations,
        }
    }
}

/// Interquartile range with linear interpolation (kept consistent with
/// `landscape::metrics::iqr`; duplicated deliberately — depending on it
/// would drag a dependency into this otherwise problem-agnostic crate).
fn iqr(values: &[f64]) -> f64 {
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
    use crate::benchmarks::sphere_eval;
    use crate::{DeConfig, GaConfig};

    fn ga(population_size: usize, seed: u64) -> GaConfig {
        GaConfig {
            population_size,
            offspring: 2 * population_size,
            seed,
            ..GaConfig::default()
        }
    }

    fn de(population_size: usize, seed: u64) -> DeConfig {
        DeConfig {
            population_size,
            seed,
            ..DeConfig::default()
        }
    }

    /// The engine-core behaviours, checked for one scheme; `per_step` is
    /// the evaluations a generation of `make(12, _)` spends.
    fn core_contract<S: Scheme>(make: fn(usize, u64) -> S, per_step: u64) {
        let mut eval = sphere_eval();

        // Deterministic given the seed, and the seed matters.
        let mut run = |seed: u64| {
            let mut engine = Engine::new(5, make(12, seed));
            engine.evaluate_initial(&mut eval);
            for _ in 0..10 {
                engine.step(&mut eval);
            }
            engine.population().genomes()
        };
        assert_eq!(run(33), run(33));
        assert_ne!(run(33), run(34));

        // The counters follow the batches the engine submitted.
        let mut engine = Engine::new(4, make(12, 1));
        let s = engine.evaluate_initial(&mut eval);
        assert_eq!((s.generation, s.evaluations), (0, 12));
        assert!(s.best_fitness >= s.mean_fitness && s.fitness_iqr >= 0.0);
        engine.step(&mut eval);
        let s = engine.step(&mut eval);
        assert_eq!((s.generation, s.evaluations), (2, 12 + 2 * per_step));
        assert_eq!(engine.evaluations(), s.evaluations);

        // A restart marks round(12 × 0.3) = 4 tail members unevaluated and
        // draws them afresh; re-evaluated, the engine steps on.
        engine.restart_worst(0.3);
        let members = engine.population().members();
        assert!(members[..8].iter().all(Individual::is_evaluated));
        assert!(members[8..].iter().all(|m| !m.is_evaluated()));
        engine.evaluate_initial(&mut eval);
        assert_eq!(engine.evaluations(), s.evaluations + 12);
        engine.step(&mut eval);
    }

    #[test]
    fn core_contract_holds_for_both_schemes() {
        core_contract(ga, 24);
        core_contract(de, 12);
    }

    /// Two engines scored in one shared batch per generation end where
    /// two engines stepped one at a time do: each breeds on its own
    /// stream and the fitness is a pure function of the genome.
    fn halves_in_one_batch_match_step<S: Scheme>(make: fn(usize, u64) -> S) {
        let mut eval = sphere_eval();
        let mut stepped = [Engine::new(5, make(8, 1)), Engine::new(5, make(8, 2))];
        let mut batched = [Engine::new(5, make(8, 1)), Engine::new(5, make(8, 2))];
        for e in &mut stepped {
            e.evaluate_initial(&mut eval);
        }
        let rows: Vec<Vec<f64>> = batched
            .iter()
            .flat_map(|e| e.population().genomes())
            .collect();
        let fitness = eval(&rows);
        batched[0].score_population(&fitness[..8]);
        batched[1].score_population(&fitness[8..]);
        for _ in 0..6 {
            for e in &mut stepped {
                e.step(&mut eval);
            }
            let (a, b) = (batched[0].propose(), batched[1].propose());
            let split = a.len();
            let fitness = eval(&[a.clone(), b.clone()].concat());
            batched[0].accept(a, &fitness[..split]);
            batched[1].accept(b, &fitness[split..]);
        }
        for (s, b) in stepped.iter().zip(&batched) {
            assert_eq!(s.population().genomes(), b.population().genomes());
            assert_eq!(s.stats(), b.stats());
        }
    }

    #[test]
    fn propose_and_accept_in_one_batch_match_step_for_both_schemes() {
        halves_in_one_batch_match_step(ga);
        halves_in_one_batch_match_step(de);
    }

    #[test]
    #[should_panic(expected = "evaluate_initial")]
    fn stepping_before_evaluation_panics() {
        Engine::new(4, GaConfig::default()).step(&mut sphere_eval());
    }
}
