//! Re-entrant prediction sessions: the online run API.
//!
//! A [`PredictionSession`] wraps the `ess` crate's resumable
//! [`StepDriver`] together with its optimizer and a [`Budget`]. Each
//! [`PredictionSession::advance`] call executes **one**
//! prediction step (one observed fire interval consumed, one forecast
//! emitted) and yields a [`SessionEvent`], so callers can interleave many
//! runs, stream progress, stop early, or cancel between steps — none of
//! which the old run-to-completion `run()` allowed. Draining a session to
//! its terminal event is exactly the batch path (same driver, same seeds,
//! and — like every driver — a pool to evaluate on), so batch and session
//! reports are bit-identical by construction.

use crate::snapshot::SessionSnapshot;
use crate::spec::{Budget, RunSpec};
use ess::cases::BurnCase;
use ess::error::{BudgetReason, ServiceError};
use ess::fitness::SharedScenarioPool;
use ess::pipeline::{RunReport, StepDriver, StepOptimizer, StepReport};
use parworker::Stopwatch;
use std::sync::Arc;
use std::time::Instant;

/// Where a session came from: the spec that built it and which replicate
/// it is — everything a [`SessionSnapshot`] needs to rebuild the run — and
/// the registry row the spec's system resolved to.
#[derive(Debug, Clone)]
pub(crate) struct Provenance {
    /// Canonical name of the registry row (`"ESS-NS/k=3"`): what the
    /// session's reports call the system.
    pub system: &'static str,
    /// The originating request.
    pub spec: RunSpec,
    /// Replicate index within the request.
    pub replicate: usize,
}

/// What one [`PredictionSession::advance`] call produced.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// One prediction step ran to completion; the session is still live.
    StepCompleted(StepReport),
    /// Every step has run; the full report. Terminal — further `advance`
    /// calls return this same event.
    Finished(RunReport),
    /// A budget fired (or the session was cancelled) before the final
    /// step; the partial report covers the completed steps. Terminal.
    BudgetExhausted {
        /// Which budget stopped the run.
        reason: BudgetReason,
        /// Steps completed before exhaustion.
        partial: RunReport,
    },
}

impl SessionEvent {
    /// True for [`SessionEvent::Finished`] and
    /// [`SessionEvent::BudgetExhausted`].
    pub fn is_terminal(&self) -> bool {
        !matches!(self, SessionEvent::StepCompleted(_))
    }
}

/// Outcome of [`PredictionSession::plan_step`]: either the session can run
/// one step, or it settled without running one.
#[derive(Debug)]
pub enum StepPlan {
    /// The next step may run (via [`PredictionSession::step_parts`] +
    /// [`PredictionSession::complete_step`], or simply by calling
    /// [`PredictionSession::advance`]).
    Ready,
    /// The session settled without running a step — it was already
    /// terminal, had finished every step, or a budget fired first. The
    /// event is what `advance` would have returned.
    Settled(SessionEvent),
}

/// A resumable prediction run over one burn case.
pub struct PredictionSession {
    driver: StepDriver,
    optimizer: Box<dyn StepOptimizer>,
    budget: Budget,
    weight: f64,
    steps: Vec<StepReport>,
    evaluations_spent: u64,
    driven_ms: f64,
    started: Option<Instant>,
    terminal: Option<SessionEvent>,
    provenance: Option<Provenance>,
}

impl PredictionSession {
    /// Builds a session positioned before the first prediction step, its
    /// steps evaluating on `pool` (the scheduler hands every session its
    /// one pool; a standalone session gets a serial one).
    pub fn new(
        case: BurnCase,
        optimizer: Box<dyn StepOptimizer>,
        pool: Arc<SharedScenarioPool>,
        base_seed: u64,
        budget: Budget,
    ) -> Self {
        Self {
            driver: StepDriver::new(case, pool, base_seed),
            optimizer,
            budget,
            weight: 1.0,
            steps: Vec::new(),
            evaluations_spent: 0,
            driven_ms: 0.0,
            started: None,
            terminal: None,
            provenance: None,
        }
    }

    /// Rebuilds a session from checkpoint state: a driver already
    /// positioned after the completed steps, the accumulated reports, and
    /// the provenance the snapshot will need again. The deadline clock
    /// restarts on the first post-restore `advance` — wall time spent
    /// before the checkpoint is billed via `driven_ms`, not the deadline.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restored(
        driver: StepDriver,
        optimizer: Box<dyn StepOptimizer>,
        budget: Budget,
        weight: f64,
        steps: Vec<StepReport>,
        driven_ms: f64,
        provenance: Provenance,
    ) -> Self {
        let evaluations_spent = steps.iter().map(|s| s.evaluations).sum();
        Self {
            driver,
            optimizer,
            budget,
            weight,
            steps,
            evaluations_spent,
            driven_ms,
            started: None,
            terminal: None,
            provenance: Some(provenance),
        }
    }

    /// Tags the session with the spec (its registry row and replicate
    /// index) that built it, enabling [`PredictionSession::snapshot`] — and
    /// applies the spec's fair-share weight.
    pub(crate) fn set_provenance(&mut self, provenance: Provenance) {
        self.weight = provenance.spec.share_weight();
        self.provenance = Some(provenance);
    }

    /// Fair-share weight (1 unless the originating spec set one) — the
    /// knob `WeightedFairShare` scheduling reads.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Wall-clock time left before the deadline budget fires (`None`
    /// without a deadline budget; the full budget before the first
    /// `advance` starts the clock). This is what deadline-aware
    /// scheduling should order by — the raw budget misjudges urgency once
    /// sessions have started at different times.
    pub fn deadline_remaining(&self) -> Option<std::time::Duration> {
        let deadline = self.budget.deadline?;
        let elapsed = self
            .started
            .map(|s| s.elapsed())
            .unwrap_or(std::time::Duration::ZERO);
        Some(deadline.saturating_sub(elapsed))
    }

    /// Serializable checkpoint of the run so far: the originating spec,
    /// the replicate index, and every completed [`StepReport`]. Restoring
    /// the snapshot replays the driver's deterministic seed stream, so the
    /// continuation is bit-identical to never having stopped.
    ///
    /// # Errors
    /// [`ServiceError::BadSpec`] for sessions built without a [`RunSpec`]
    /// (hand-assembled via [`PredictionSession::new`]) — they have no
    /// serializable provenance to rebuild from.
    pub fn snapshot(&self) -> Result<SessionSnapshot, ServiceError> {
        let p = self.provenance.as_ref().ok_or_else(|| {
            ServiceError::BadSpec(
                "session was built without a RunSpec, so it has no serializable \
                 provenance to snapshot (build it through RunSpec::session*)"
                    .into(),
            )
        })?;
        Ok(SessionSnapshot::new(
            p.spec.clone(),
            p.replicate,
            self.steps.clone(),
            self.driven_ms,
        ))
    }

    /// The system being run: the registry row a spec-built session was
    /// resolved to (a variant's own name, not its family's), the
    /// optimizer's name for a hand-assembled one.
    pub fn system(&self) -> &'static str {
        match &self.provenance {
            Some(p) => p.system,
            None => self.optimizer.name(),
        }
    }

    /// The case being predicted.
    pub fn case_name(&self) -> &'static str {
        self.driver.case().name
    }

    /// Steps completed so far.
    pub fn steps(&self) -> &[StepReport] {
        &self.steps
    }

    /// Total steps a full run would execute.
    pub fn total_steps(&self) -> usize {
        self.driver.total_steps()
    }

    /// Scenario evaluations spent so far.
    pub fn evaluations_spent(&self) -> u64 {
        self.evaluations_spent
    }

    /// True once the session reached a terminal event (finished, budget
    /// exhausted, or cancelled).
    pub fn is_done(&self) -> bool {
        self.terminal.is_some()
    }

    /// Snapshot of the run so far (the full report once finished).
    /// `total_ms` counts time spent inside `advance` only, so multiplexed
    /// sessions are not billed for time spent waiting on their peers.
    pub fn report(&self) -> RunReport {
        RunReport {
            system: self.system(),
            case: self.driver.case().name,
            steps: self.steps.clone(),
            total_ms: self.driven_ms,
        }
    }

    /// Executes the next prediction step (or reports why it cannot run):
    ///
    /// * [`SessionEvent::StepCompleted`] — one more step ran;
    /// * [`SessionEvent::Finished`] — all steps had already run;
    /// * [`SessionEvent::BudgetExhausted`] — a budget fired first.
    ///
    /// Terminal events are sticky: once finished/exhausted/cancelled,
    /// every further call returns the same event without running anything.
    pub fn advance(&mut self) -> SessionEvent {
        match self.plan_step() {
            StepPlan::Settled(event) => event,
            StepPlan::Ready => {
                let sw = Stopwatch::start();
                match self.driver.step(self.optimizer.as_mut()) {
                    Some(step) => {
                        let elapsed = sw.elapsed_ms();
                        self.complete_step(step, elapsed)
                    }
                    // A `Ready` plan just checked `is_finished`, so the
                    // driver cannot refuse — but a typed settle keeps
                    // the serve loop panic-free instead of trusting it.
                    None => self.settle(sw, None),
                }
            }
        }
    }

    /// The pre-step half of [`PredictionSession::advance`]: replays a
    /// sticky terminal event, starts the deadline clock, settles a
    /// finished run or a fired budget — or declares the next step
    /// runnable. A fused scheduler round plans every session first, runs
    /// the `Ready` ones' steps on worker threads via
    /// [`PredictionSession::step_parts`], and books the results with
    /// [`PredictionSession::complete_step`]; `plan → run → complete` is
    /// `advance` exactly, just with the step relocated.
    pub fn plan_step(&mut self) -> StepPlan {
        if let Some(done) = &self.terminal {
            return StepPlan::Settled(done.clone());
        }
        let sw = Stopwatch::start();
        #[expect(
            clippy::disallowed_methods,
            reason = "the `deadline` stopping budget (`budget_fired`, under every policy) and \
                      deadline-first scheduling need real elapsed time; fitness results never \
                      depend on it"
        )]
        let started = *self.started.get_or_insert_with(Instant::now);

        if self.driver.is_finished() {
            return StepPlan::Settled(self.settle(sw, None));
        }
        if let Some(reason) = self.budget_fired(started) {
            return StepPlan::Settled(self.settle(sw, Some(reason)));
        }
        StepPlan::Ready
    }

    /// Disjoint mutable access to the driver and its optimizer, so a
    /// planned step can run on a worker thread (both halves are `Send`;
    /// bookkeeping stays behind on the session).
    pub fn step_parts(&mut self) -> (&mut StepDriver, &mut dyn StepOptimizer) {
        (&mut self.driver, self.optimizer.as_mut())
    }

    /// The post-step half of [`PredictionSession::advance`]: books a step
    /// executed externally (evaluation counts, report, billed time).
    /// `elapsed_ms` is the wall time the step itself took, so multiplexed
    /// sessions are still not billed for peers; it becomes the step's
    /// `wall_ms` — the driver below reads no clock, whoever ran the step
    /// timed it.
    ///
    /// A session cancelled between plan and complete keeps its terminal
    /// event and discards the step — the cancellation won the race.
    pub fn complete_step(&mut self, mut step: StepReport, elapsed_ms: f64) -> SessionEvent {
        if let Some(done) = &self.terminal {
            return done.clone();
        }
        step.wall_ms = elapsed_ms;
        self.evaluations_spent += step.evaluations;
        self.steps.push(step.clone());
        self.driven_ms += elapsed_ms;
        SessionEvent::StepCompleted(step)
    }

    /// Cancels the session between steps: the terminal event becomes
    /// [`SessionEvent::BudgetExhausted`] with [`BudgetReason::Cancelled`]
    /// and the partial report of the steps completed so far. Cancelling a
    /// session that already reached a terminal event is a no-op.
    pub fn cancel(&mut self) {
        if self.terminal.is_none() {
            let event = SessionEvent::BudgetExhausted {
                reason: BudgetReason::Cancelled,
                partial: self.report(),
            };
            self.terminal = Some(event);
        }
    }

    /// Drives the session to its terminal event — the batch path.
    ///
    /// # Errors
    /// [`ServiceError::BudgetExhausted`] when a budget (or cancellation)
    /// stopped the run before the final step.
    pub fn drain(&mut self) -> Result<RunReport, ServiceError> {
        loop {
            match self.advance() {
                SessionEvent::StepCompleted(_) => continue,
                SessionEvent::Finished(report) => return Ok(report),
                SessionEvent::BudgetExhausted { reason, partial } => {
                    return Err(ServiceError::BudgetExhausted {
                        reason,
                        partial: Box::new(partial),
                    })
                }
            }
        }
    }

    /// Checks the budgets that can stop the *next* step from starting.
    fn budget_fired(&self, started: Instant) -> Option<BudgetReason> {
        if let Some(max) = self.budget.max_steps {
            if self.steps.len() >= max {
                return Some(BudgetReason::MaxSteps);
            }
        }
        if let Some(max) = self.budget.max_evaluations {
            if self.evaluations_spent >= max {
                return Some(BudgetReason::MaxEvaluations);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if started.elapsed() >= deadline {
                return Some(BudgetReason::Deadline);
            }
        }
        None
    }

    /// Records the terminal event (`None` reason = finished) and bills the
    /// time.
    fn settle(&mut self, sw: Stopwatch, reason: Option<BudgetReason>) -> SessionEvent {
        self.driven_ms += sw.elapsed_ms();
        let event = match reason {
            None => SessionEvent::Finished(self.report()),
            Some(reason) => SessionEvent::BudgetExhausted {
                reason,
                partial: self.report(),
            },
        };
        self.terminal = Some(event.clone());
        event
    }
}

impl std::fmt::Debug for PredictionSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionSession")
            .field("system", &self.system())
            .field("case", &self.case_name())
            .field("completed", &self.steps.len())
            .field("total_steps", &self.total_steps())
            .field("done", &self.is_done())
            .finish_non_exhaustive()
    }
}
