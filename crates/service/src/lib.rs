//! `ess-service` — prediction as a service: the session-based run API,
//! the unified system registry, and the multi-session scheduler over one
//! shared evaluation backend.
//!
//! The paper's prediction systems are *online*: each step consumes a newly
//! observed fire interval and emits the next forecast. The old public API
//! hid that behind run-to-completion calls — no progress, no cancellation,
//! no way to interleave runs. This crate is the serving layer that
//! replaces it:
//!
//! * [`systems`] — the registry mirroring `ess::cases`: the four paper
//!   systems and the `<family>/<variant>` rows the harness's ablations
//!   compare ([`systems::by_name`]), each building a budget-scalable
//!   `StepOptimizer`;
//! * [`RunSpec`] — one builder-style request type (system × case ×
//!   seed × replicates × weight × budgets: what to predict, never how to
//!   run it), JSON-serializable for the wire
//!   ([`RunSpec::to_json`]/[`RunSpec::from_json`]);
//! * [`store`] — the process-wide case store: every session, replicate
//!   and restore of one case shares a single built `BurnCase`;
//! * [`PredictionSession`] — the re-entrant step driver:
//!   [`PredictionSession::advance`] executes one prediction step and
//!   yields a [`SessionEvent`]; budgets stop runs between steps,
//!   cancellation comes for free, and a drained session is bit-identical
//!   to the old batch path (same `ess::StepDriver` underneath);
//! * [`SessionSnapshot`] — checkpoint/resume:
//!   [`PredictionSession::snapshot`] serializes a live run's
//!   deterministic coordinates through [`jsonio`], and restoring replays
//!   the driver's seed stream so the continuation is bit-identical to
//!   never having stopped;
//! * [`Scheduler`] — N concurrent sessions multiplexed over one
//!   [`ess::fitness::SharedScenarioPool`] under a pluggable
//!   [`SchedulePolicy`] ([`policy`]: round-robin, weighted fair share,
//!   deadline first), so the whole process shares a single worker pool;
//! * [`serve`](mod@serve) — the dependency-free line-delimited JSON loop
//!   `harness serve` speaks: protocol v2 ([`proto`] — versioned typed
//!   envelopes, streaming `progress` frames, snapshot/restore, bounded
//!   `advance`), the only dialect;
//! * [`jsonio`] — the hand-rolled JSON writer/reader shared with
//!   snapshots and the benchmark's result files.
//!
//! The typed client for protocol v2 lives in the sibling `ess-client`
//! crate. Failures are typed ([`ServiceError`]): unknown system, unknown
//! case, bad spec, budget exhausted — never a silent `None`.

// The serve availability boundary, where a panic ends the serve loop:
// no unchecked index, and no `assert` family (banned in this crate's
// `clippy.toml`) outside unit tests.
#![deny(clippy::indexing_slicing)]
#![cfg_attr(test, allow(clippy::disallowed_macros))]

pub mod jsonio;
pub mod policy;
pub mod proto;
pub mod scheduler;
pub mod serve;
pub mod session;
pub mod snapshot;
pub mod spec;
pub mod store;
pub mod systems;

pub use ess::error::{BudgetReason, ServiceError};
pub use policy::{PolicyKind, SchedulePolicy, SessionMeta};
pub use scheduler::{DrainSignal, Scheduler, SessionId, SessionOutcome};
pub use serve::{serve_configured, ServeSummary};
pub use session::{PredictionSession, SessionEvent, StepPlan};
pub use snapshot::SessionSnapshot;
pub use spec::{Budget, RunSpec};
