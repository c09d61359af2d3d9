//! `ess-ns` — the paper's contribution: the Evolutionary Statistical
//! System with Novelty Search (Fig. 3) and its Novelty-based Genetic
//! Algorithm with Multiple Solutions (Algorithm 1).
//!
//! The core idea (paper §III): replace the fitness-guided metaheuristic of
//! the Optimization Stage with a **novelty-driven** genetic algorithm. The
//! search is steered exclusively by the novelty score ρ(x) of Eq. (1) —
//! with the behaviour distance of Eq. (2), the fitness difference — so the
//! population *never converges*; meanwhile a bounded [`evoalg::BestSet`]
//! records the highest-fitness scenarios discovered anywhere along the
//! way, and that set (not the final population) feeds the Statistical
//! Stage. Because the recorded scenarios come from entirely different
//! regions of the search space, the aggregated ignition-probability matrix
//! captures more of the residual uncertainty.
//!
//! * [`algorithm`] — [`algorithm::NoveltyGa`], a faithful step-wise
//!   implementation of Algorithm 1 with its two stopping conditions, the
//!   novelty-only archive replacement and the novelty-elitist population
//!   replacement;
//! * [`hybrid`] — the §IV future-work variants: weighted
//!   fitness/novelty scoring (E7) and ε-inclusion of novel/random members
//!   in the result set (E9), plus genotypic behaviour descriptors for the
//!   behaviour-space ablation;
//! * [`system`] — [`system::EssNs`], the [`ess::StepOptimizer`] wiring of
//!   Algorithm 1 into the Fig. 3 prediction pipeline.

// The serve availability boundary, where a panic ends the serve loop:
// no unchecked index, and no `assert` family (banned in this crate's
// `clippy.toml`) outside unit tests.
#![deny(clippy::indexing_slicing)]
#![cfg_attr(test, allow(clippy::disallowed_macros))]

pub mod algorithm;
pub mod hybrid;
pub mod system;

pub use algorithm::{NoveltyGa, NoveltyGaConfig, NsGenStats, StopReason};
pub use hybrid::{BehaviourSpace, InclusionPolicy, ScoringPolicy};
pub use system::{EssNs, EssNsConfig};
