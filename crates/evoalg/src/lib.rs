//! `evoalg` — the evolutionary-computation substrate of the ESS-NS
//! reproduction.
//!
//! The paper's Optimization Stage is populated by metaheuristics: a classic
//! genetic algorithm (ESS), an island-model GA (ESSIM-EA), differential
//! evolution (ESSIM-DE) and the proposed novelty-search GA (ESS-NS,
//! Algorithm 1). This crate provides their shared building blocks:
//!
//! * [`individual`] — the scored individual (Algorithm 1's reported
//!   record) and the random gene rows every search starts from;
//! * [`selection`] — the roulette wheel of parent selection (the paper's GA
//!   selection strategy, §III-B) over arbitrary scores, and the elitist
//!   merge behind every replacement;
//! * [`operators`] — one-point crossover and uniform-reset mutation over
//!   `[0, 1]` genes, and DE's `rand/1` donor and binomial crossover;
//! * [`engine`] — [`engine::Engine`], the step-wise engine core over
//!   [`engine::Rows`] kept for the whole run (population then candidates,
//!   genes beside fitness): evaluation, counters, the fitness order,
//!   restart and statistics, generic over the [`engine::Scheme`] that
//!   breeds into and selects among the rows;
//! * [`ga`] — the GA scheme ([`GaEngine`], the baseline systems) and the
//!   breeding step it shares with Algorithm 1;
//! * [`de`] — the Differential Evolution scheme (`rand/1/bin`,
//!   [`DeEngine`], the ESSIM-DE metaheuristic);
//! * [`novelty`] — the Novelty Search kit: the novelty score ρ(x) of
//!   Eq. (1), behaviour distances including the paper's fitness-difference
//!   measure of Eq. (2), and the novelty [`novelty::NoveltyArchive`]
//!   (which maintains its descriptors incrementally in the flat layout);
//! * [`matrix`] — [`matrix::RowMatrix`], the flat row-major store behind
//!   both [`GenomeMatrix`] (evaluation batches) and [`BehaviourMatrix`]
//!   (the descriptors every novelty path reads);
//! * [`knn`] — the batched novelty-scoring subsystem:
//!   [`knn::PreparedIndex`] (sorted-scan kNN on 1-D behaviours, the
//!   exhaustive scan otherwise — bit-identical to the reference functions
//!   by construction) and [`knn::NoveltyEngine`] (its one-shot ρ batch);
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

pub mod benchmarks;
pub mod bestset;
pub mod de;
pub mod diversity;
pub mod engine;
pub mod ga;
pub mod individual;
pub mod knn;
pub mod matrix;
pub mod novelty;
pub mod operators;
pub mod selection;

pub use bestset::BestSet;
pub use de::{DeConfig, DeEngine};
pub use engine::{Engine, GenStats, Scheme};
pub use ga::{GaConfig, GaEngine};
pub use individual::Individual;
pub use knn::{IndexBuffers, NoveltyEngine, PreparedIndex};
pub use matrix::{BehaviourMatrix, GenomeMatrix};
pub use novelty::{novelty_score, novelty_score_external, NoveltyArchive};
pub use selection::ElitistRanking;

/// `x`'s bits, mapped so that unsigned integer order is `f64::total_cmp`
/// order: a negative value's bits are all flipped, a positive value's
/// sign bit is set. The sorts of the master pack it into one integer key
/// with a row index, so one integer comparison is the `(value, index)`
/// comparison.
pub(crate) fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

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
