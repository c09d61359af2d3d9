//! `ess` — the Evolutionary Statistical System framework and the baseline
//! prediction systems the paper compares against.
//!
//! The ESS family (paper §II) are Data-Driven Methods with Multiple
//! Overlapping Solutions (DDM-MOS): at every prediction step they search
//! the scenario space with a metaheuristic, aggregate the burned maps of a
//! *set* of scenarios into an ignition-probability matrix, calibrate a Key
//! Ignition Value threshold on the known past step, and emit the
//! thresholded matrix as the next step's prediction. This crate implements
//! that machinery once, with the metaheuristic pluggable, so that ESS,
//! ESSIM-EA, ESSIM-DE and ESS-NS (in the `ess-ns` crate) are all
//! instantiations of the same [`pipeline::PredictionPipeline`]:
//!
//! * [`fitness`] — the per-step evaluation context (simulate a scenario
//!   over the last known interval, score with Eq. (3)) and the one
//!   evaluator, [`fitness::SharedScenarioPool`]: built once per process
//!   from a [`parworker::EvalBackend`] (Serial / WorkerPool / Rayon) and
//!   kept up for every step of every run; a
//!   [`fitness::ScenarioEvaluator`] is one step's view of it, answering
//!   a genome it has already scored this step from its own table;
//! * [`fusion`] — cross-session batch fusion: per-session lanes park
//!   their evaluation batches with a round coordinator, which fuses them
//!   into one mega-batch on the shared pool and scatters results back;
//! * [`stages`] — the Statistical Stage (probability-matrix aggregation,
//!   Figs. 1–2 `SS`), folding a result set's distinct members with their
//!   multiplicities;
//! * [`calibration`] — the Calibration Stage's `SKign` search (Fig. 1) and
//!   the Prediction Stage threshold application (Fig. 2);
//! * [`pipeline`] — the prediction-step driver shared by every system
//!   (the resumable [`pipeline::StepDriver`], which holds the pool its
//!   steps evaluate on, plus the batch [`pipeline::PredictionPipeline`]
//!   wrapper over it), producing per-step quality/diversity/timing
//!   reports;
//! * [`error`] — the [`ServiceError`] taxonomy every name-resolving or
//!   budget-enforcing entry point reports through;
//! * [`ess_classic`] — ESS: fitness-driven GA, result = final population;
//! * `island` — the island model the two ESSIM systems share ([`Ring`],
//!   the topology half of both configurations): seeded islands, the generation loop and its stopping rule, ring migration
//!   and the Monitor that selects the best island;
//! * [`essim_ea`] — ESSIM-EA: the island model over GA engines;
//! * [`essim_de`] — ESSIM-DE: island-model Differential Evolution with the
//!   diversity-injection result set and the published tuning operators
//!   (population restart \[21\], IQR-based dynamic tuning \[22\]);
//! * [`cases`] — synthetic controlled burn cases with a *hidden* true
//!   scenario (optionally drifting over time), standing in for the field
//!   burn maps of the original evaluations (README § "The workload
//!   corpus");
//! * [`report`] — aligned text tables and CSV writers for the experiment
//!   harness.

pub mod calibration;
pub mod cases;
pub mod error;
pub mod ess_classic;
pub mod essim_de;
pub mod essim_ea;
pub mod fitness;
pub mod fusion;
mod island;
pub mod pipeline;
pub mod report;
pub mod stages;

pub use calibration::{CalibrationOutcome, PredictionStage};
pub use cases::BurnCase;
pub use error::{BudgetReason, ServiceError};
pub use ess_classic::EssClassic;
pub use essim_de::{EssimDe, TuningConfig};
pub use essim_ea::EssimEa;
pub use fitness::{
    EvalBackend, ScenarioEvaluator, SharedScenarioPool, StepContext, DEFAULT_INLINE_THRESHOLD,
};
pub use fusion::{run_coordinator, FusionLane, LaneGuard, LaneMsg};
pub use island::Ring;
pub use pipeline::{
    OptimizeOutcome, PredictionPipeline, RunReport, StepDriver, StepOptimizer, StepReport,
};
