//! `evoalg` — the evolutionary-computation substrate of the ESS-NS
//! reproduction.
//!
//! The paper's Optimization Stage is populated by metaheuristics: a classic
//! genetic algorithm (ESS), an island-model GA (ESSIM-EA), differential
//! evolution (ESSIM-DE) and the proposed novelty-search GA (ESS-NS,
//! Algorithm 1). This crate provides their shared building blocks:
//!
//! * [`individual`] — genomes (normalised `f64` gene vectors), scored
//!   individuals and populations;
//! * [`selection`] — roulette-wheel (the paper's GA selection strategy,
//!   §III-B) and tournament selection over arbitrary scores;
//! * [`operators`] — crossover (one-point, uniform, BLX-α) and mutation
//!   (uniform reset, Gaussian creep) over `[0, 1]` genes;
//! * [`ga`] — a step-wise fitness-driven GA engine (the baseline systems);
//! * [`de`] — a step-wise Differential Evolution engine (`rand/1/bin`,
//!   the ESSIM-DE metaheuristic);
//! * [`novelty`] — the Novelty Search kit: the novelty score ρ(x) of
//!   Eq. (1), behaviour distances including the paper's fitness-difference
//!   measure of Eq. (2), and the novelty [`novelty::NoveltyArchive`]
//!   (which maintains its descriptors incrementally in the flat layout);
//! * [`behaviour`] — [`behaviour::BehaviourMatrix`], the flat
//!   structure-of-arrays descriptor store every novelty path reads;
//! * [`knn`] — the batched novelty-scoring subsystem:
//!   [`knn::PreparedIndex`] (sorted-scan kNN on 1-D behaviours, the
//!   exhaustive scan otherwise — bit-identical to the reference functions
//!   by construction) and [`knn::NoveltyEngine`] (the batch driver);
//! * [`bestset`] — the bounded max-fitness memory `bestSet` that
//!   Algorithm 1 returns;
//! * [`diversity`] — population diversity statistics (E2 of the experiment
//!   index);
//! * [`benchmarks`] — deceptive and unimodal test functions used to
//!   reproduce the §II-C deceptiveness argument (E5).
//!
//! Everything is deterministic given a seed and performs no I/O; batch
//! fitness evaluation is abstracted behind [`BatchEvaluator`] so callers
//! can plug the parallel Master/Worker engine in.

pub mod behaviour;
pub mod benchmarks;
pub mod bestset;
pub mod de;
pub mod diversity;
pub mod ga;
pub mod genome;
pub mod individual;
pub mod knn;
pub mod novelty;
pub mod operators;
pub mod selection;

pub use behaviour::BehaviourMatrix;
pub use bestset::BestSet;
pub use de::{DeConfig, DeEngine};
pub use ga::{GaConfig, GaEngine, GenStats};
pub use genome::GenomeMatrix;
pub use individual::{Individual, Population};
pub use knn::{NoveltyEngine, PreparedIndex};
pub use novelty::{novelty_score, novelty_score_external, NoveltyArchive};

/// Batch fitness evaluation: maps a slice of genomes to their fitness
/// values, in order. Implemented by closures and by the parallel evaluators
/// in the `ess` crate (where the fire simulations happen).
pub trait BatchEvaluator {
    /// Evaluates every genome; `result[i]` is the fitness of `genomes[i]`.
    /// Fitness must be finite and is maximised by every engine here.
    fn evaluate(&mut self, genomes: &[Vec<f64>]) -> Vec<f64>;

    /// Number of evaluations performed so far, when the implementation
    /// tracks it (used for evaluation-budget experiments).
    fn evaluations(&self) -> u64 {
        0
    }
}

impl<F> BatchEvaluator for F
where
    F: FnMut(&[Vec<f64>]) -> Vec<f64>,
{
    fn evaluate(&mut self, genomes: &[Vec<f64>]) -> Vec<f64> {
        self(genomes)
    }
}
