//! The multi-session scheduler: N concurrent prediction runs multiplexed
//! fairly over **one** shared evaluation backend.
//!
//! Each submitted [`RunSpec`] becomes one [`PredictionSession`] per
//! replicate, all built on the scheduler's [`SharedScenarioPool`] — the
//! sessions share the process's worker threads.
//! [`Scheduler::round`] advances the sessions its [`SchedulePolicy`]
//! plans — by default every live session, one step each, in submission
//! order ([`crate::policy::RoundRobin`]), so no session can starve
//! another: a 12-step run and a 2-step run interleave step-by-step, and
//! the short one completes while the long one is still going. Other
//! policies (weighted fair share, deadline first) reorder or throttle the
//! rounds without changing any session's results. Cancellation between
//! steps is a plain method call because nothing blocks: the scheduler is
//! single-threaded at the session level and parallel at the scenario
//! level, exactly the paper's Master/Worker shape lifted one level up.

use crate::policy::{PolicyKind, SchedulePolicy, SessionMeta};
use crate::session::{PredictionSession, SessionEvent, StepPlan};
use crate::spec::RunSpec;
use ess::error::{BudgetReason, ServiceError};
use ess::fitness::{DynBackend, EvalBackend, ScenarioEvaluator, SharedScenarioPool};
use ess::fusion::{run_coordinator, FusionLane, LaneGuard};
use ess::pipeline::{RunReport, StepReport};
use parworker::Stopwatch;
use std::sync::Arc;

/// Scheduler-assigned session handle.
pub type SessionId = u64;

/// How a scheduled session ended.
#[derive(Debug, Clone)]
pub enum SessionOutcome {
    /// All steps ran; the full report.
    Finished(RunReport),
    /// A budget or cancellation stopped it; the partial report.
    Exhausted {
        /// Which budget fired ([`BudgetReason::Cancelled`] for explicit
        /// cancellation).
        reason: BudgetReason,
        /// Steps completed before the stop.
        partial: RunReport,
    },
}

impl SessionOutcome {
    /// The report either way (full or partial).
    pub fn report(&self) -> &RunReport {
        match self {
            SessionOutcome::Finished(r) => r,
            SessionOutcome::Exhausted { partial, .. } => partial,
        }
    }

    /// True for [`SessionOutcome::Finished`].
    pub fn is_finished(&self) -> bool {
        matches!(self, SessionOutcome::Finished(_))
    }
}

/// What a [`Scheduler::drain_controlled`] callback tells the scheduler to
/// do after each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainSignal {
    /// Keep draining.
    Continue,
    /// Cancel this session after the current round (cancelling the
    /// session the event belongs to, or any other live one, is equally
    /// valid — unknown or already-finished ids are ignored).
    Cancel(SessionId),
}

/// Policy-driven multiplexer of prediction sessions over one shared
/// scenario-evaluation pool.
pub struct Scheduler {
    pool: Arc<SharedScenarioPool>,
    policy: Box<dyn SchedulePolicy>,
    next_id: SessionId,
    live: Vec<(SessionId, PredictionSession)>,
    done: Vec<(SessionId, SessionOutcome)>,
    fused: bool,
}

impl Scheduler {
    /// A round-robin scheduler whose sessions share one pool built from
    /// `spec`.
    pub fn new(spec: EvalBackend) -> Self {
        Self::with_policy(spec, PolicyKind::RoundRobin)
    }

    /// A scheduler running `policy` over one pool built from `spec`.
    pub fn with_policy(spec: EvalBackend, policy: PolicyKind) -> Self {
        Self {
            pool: Arc::new(SharedScenarioPool::new(spec)),
            policy: policy.build(),
            next_id: 1,
            live: Vec::new(),
            done: Vec::new(),
            fused: false,
        }
    }

    /// Switches batch fusion on or off (off by default). A fused round
    /// runs every planned session's step concurrently on lane threads
    /// whose evaluation batches are fused into one mega-batch per wave on
    /// the shared pool ([`ess::fusion`]) — same events, same reports, bit
    /// for bit, but the backend sees `sessions × population` scenarios per
    /// submission instead of `population`.
    pub fn set_fused(&mut self, fused: bool) {
        self.fused = fused;
    }

    /// The shared evaluation pool.
    pub fn pool(&self) -> &Arc<SharedScenarioPool> {
        &self.pool
    }

    /// Submits every replicate of `spec` as a session on the shared pool;
    /// returns the assigned ids in replicate order.
    ///
    /// # Errors
    /// Unknown-name and bad-spec errors; nothing is enqueued on error.
    pub fn submit(&mut self, spec: &RunSpec) -> Result<Vec<SessionId>, ServiceError> {
        let sessions = spec.sessions_on(&self.pool)?;
        Ok(sessions
            .into_iter()
            .map(|s| self.submit_session(s))
            .collect())
    }

    /// Enqueues an already-built session (it should share this
    /// scheduler's pool, but any session is accepted).
    pub fn submit_session(&mut self, session: PredictionSession) -> SessionId {
        let id = self.next_id;
        self.next_id += 1;
        self.live.push((id, session));
        id
    }

    /// Cancels a live session between steps. Returns `false` when the id
    /// is unknown or the session already finished.
    pub fn cancel(&mut self, id: SessionId) -> bool {
        let Some(pos) = self.live.iter().position(|(sid, _)| *sid == id) else {
            return false;
        };
        let (id, mut session) = self.live.remove(pos);
        session.cancel();
        self.done.push((
            id,
            SessionOutcome::Exhausted {
                reason: BudgetReason::Cancelled,
                partial: session.report(),
            },
        ));
        true
    }

    /// Sessions still running.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Read access to the live sessions (id, session), submission order.
    pub fn live(&self) -> impl Iterator<Item = (SessionId, &PredictionSession)> {
        self.live.iter().map(|(id, s)| (*id, s))
    }

    /// Outcomes of every completed/cancelled session so far.
    pub fn outcomes(&self) -> &[(SessionId, SessionOutcome)] {
        &self.done
    }

    /// Removes and returns every recorded outcome. Long-running callers
    /// (the serve loop) call this after reading a drain's results so a
    /// scheduler that lives for the process does not accumulate every
    /// session's full report forever.
    pub fn take_outcomes(&mut self) -> Vec<(SessionId, SessionOutcome)> {
        std::mem::take(&mut self.done)
    }

    /// What the policy may observe about the live sessions, submission
    /// order (parallel to the internal live list).
    fn metas(&self) -> Vec<SessionMeta> {
        self.live
            .iter()
            .map(|(id, s)| SessionMeta {
                id: *id,
                completed: s.steps().len(),
                total_steps: s.total_steps(),
                evaluations_spent: s.evaluations_spent(),
                weight: s.weight(),
                deadline: s.deadline_remaining(),
            })
            .collect()
    }

    /// The policy's plan with the shared sanitation applied: out-of-range
    /// and duplicate entries are dropped, and an empty plan falls back to
    /// the oldest session — a misbehaving policy cannot stall a drain.
    fn planned_indices(&mut self) -> Vec<usize> {
        let mut plan = self.policy.plan(&self.metas());
        let mut seen = vec![false; self.live.len()];
        plan.retain(|&i| match seen.get_mut(i) {
            Some(slot) => !std::mem::replace(slot, true),
            None => false,
        });
        if plan.is_empty() {
            plan.push(0);
        }
        plan
    }

    /// Books a terminal event into [`Scheduler::outcomes`].
    fn record_outcome(&mut self, id: SessionId, event: &SessionEvent) {
        match event {
            SessionEvent::StepCompleted(_) => {}
            SessionEvent::Finished(report) => {
                self.done
                    .push((id, SessionOutcome::Finished(report.clone())));
            }
            SessionEvent::BudgetExhausted { reason, partial } => {
                self.done.push((
                    id,
                    SessionOutcome::Exhausted {
                        reason: *reason,
                        partial: partial.clone(),
                    },
                ));
            }
        }
    }

    /// Runs one scheduling round: asks the policy which live sessions to
    /// advance (by one step each, in plan order) and returns the produced
    /// events. Sessions that reach a terminal event move to
    /// [`Scheduler::outcomes`]. Out-of-range or duplicate plan entries are
    /// ignored, and an empty plan falls back to advancing the oldest
    /// session — a misbehaving policy cannot stall a drain.
    ///
    /// With [`Scheduler::set_fused`] on, the planned steps run
    /// concurrently with their evaluation batches fused — events (in plan
    /// order), reports and outcomes are bit-identical either way.
    pub fn round(&mut self) -> Vec<(SessionId, SessionEvent)> {
        if self.live.is_empty() {
            return Vec::new();
        }
        if self.fused {
            return self.round_fused();
        }
        let plan = self.planned_indices();
        let mut events = Vec::with_capacity(plan.len());
        for i in plan {
            let Some(entry) = self.live.get_mut(i) else {
                continue; // planned_indices already dropped out-of-range entries
            };
            let id = entry.0;
            let event = entry.1.advance();
            self.record_outcome(id, &event);
            events.push((id, event));
        }
        self.live.retain(|(_, s)| !s.is_done());
        events
    }

    /// The fused round: plan → fuse → scatter.
    ///
    /// 1. **Plan** every scheduled session on this thread
    ///    ([`PredictionSession::plan_step`] — sticky terminals, finished
    ///    runs and fired budgets settle immediately, exactly as `advance`
    ///    would).
    /// 2. **Fuse**: each `Ready` session's step runs on its own scoped
    ///    lane thread ([`PredictionSession::step_parts`] moves only the
    ///    driver and optimizer across; bookkeeping stays here), with a
    ///    [`FusionLane`] backend that parks each evaluation batch with the
    ///    round coordinator running on this thread. The coordinator fuses
    ///    the parked batches into one mega-batch per wave on the shared
    ///    pool and scatters the fitness vectors back, so every lane sees
    ///    private-evaluator semantics. A lane leaves the waves when its
    ///    search ends, so its stage tail overlaps its peers' searches. A
    ///    round with a single `Ready` session has nothing to fuse: that
    ///    step runs here, through the pool, exactly as `advance` runs it.
    /// 3. **Scatter** the step reports back in plan order via
    ///    [`PredictionSession::complete_step`], which books budgets on
    ///    the scheduler thread.
    fn round_fused(&mut self) -> Vec<(SessionId, SessionEvent)> {
        enum Planned {
            Settled(SessionEvent),
            Runnable { live_idx: usize, slot: usize },
        }

        let plan = self.planned_indices();
        let mut entries: Vec<(SessionId, Planned)> = Vec::with_capacity(plan.len());
        let mut runnable: Vec<usize> = Vec::new();
        for i in plan {
            let Some(entry) = self.live.get_mut(i) else {
                continue; // planned_indices already dropped out-of-range entries
            };
            let id = entry.0;
            match entry.1.plan_step() {
                StepPlan::Settled(event) => entries.push((id, Planned::Settled(event))),
                StepPlan::Ready => {
                    let slot = runnable.len();
                    entries.push((id, Planned::Runnable { live_idx: i, slot }));
                    runnable.push(i);
                }
            }
        }

        let mut stepped: Vec<Option<(StepReport, f64)>> = Vec::new();
        stepped.resize_with(runnable.len(), || None);
        if let ([only], Some(slot)) = (runnable.as_slice(), stepped.first_mut()) {
            // One runnable session has no peer to fuse with: step it here,
            // through the pool, with no lane thread and no coordinator.
            if let Some((_, session)) = self.live.get_mut(*only) {
                let (driver, optimizer) = session.step_parts();
                let sw = Stopwatch::start();
                *slot = driver.step(optimizer).map(|step| (step, sw.elapsed_ms()));
            }
        } else if !runnable.is_empty() {
            let mut slot_of: Vec<Option<usize>> = vec![None; self.live.len()];
            for (slot, &i) in runnable.iter().enumerate() {
                if let Some(entry) = slot_of.get_mut(i) {
                    *entry = Some(slot);
                }
            }
            // Disjoint mutable borrows of the runnable sessions; the
            // sessions stay in place, only their step halves cross into
            // the lane threads.
            let lanes: Vec<(usize, &mut PredictionSession)> = self
                .live
                .iter_mut()
                .enumerate()
                .filter_map(|(i, (_, s))| slot_of.get(i).copied().flatten().map(|slot| (slot, s)))
                .collect();
            let lane_count = lanes.len();
            let (tx, rx) = std::sync::mpsc::channel();
            let (report_tx, report_rx) = std::sync::mpsc::channel();
            #[expect(
                clippy::disallowed_methods,
                reason = "fused-round lanes are scoped threads joined before the round returns; \
                          evaluation still flows through the shared pool"
            )]
            std::thread::scope(|scope| {
                for (slot, session) in lanes {
                    let lane = tx.clone();
                    let reports = report_tx.clone();
                    let (driver, optimizer) = session.step_parts();
                    scope.spawn(move || {
                        // The guard rides in the lane's backend: the lane
                        // leaves the waves when its search ends and the
                        // evaluator drops — or, if the step panics or
                        // never builds one, when the closure holding the
                        // guard drops. Either way exactly one `Done`, or
                        // the peers would wait on a flush forever.
                        let done = LaneGuard::new(lane);
                        let sw = Stopwatch::start();
                        let step = driver.step_with(optimizer, move |ctx| {
                            let backend: DynBackend =
                                Box::new(FusionLane::new(Arc::clone(&ctx), done));
                            ScenarioEvaluator::with_backend(ctx, backend)
                        });
                        let elapsed = sw.elapsed_ms();
                        if let Some(step) = step {
                            let _ = reports.send((slot, step, elapsed));
                        }
                    });
                }
                drop(tx);
                drop(report_tx);
                run_coordinator(&self.pool, &rx, lane_count);
            });
            for (slot, step, elapsed) in report_rx.try_iter() {
                if let Some(entry) = stepped.get_mut(slot) {
                    *entry = Some((step, elapsed));
                }
            }
        }

        let mut events = Vec::with_capacity(entries.len());
        for (id, planned) in entries {
            let event = match planned {
                Planned::Settled(event) => event,
                Planned::Runnable { live_idx, slot } => {
                    let (step, elapsed) = stepped
                        .get_mut(slot)
                        .and_then(Option::take)
                        // lint: allow(panic) — a missing lane report only follows a lane-thread panic mid-step; amplifying it is the designed failure mode
                        .expect("a planned Ready step always produces a report");
                    match self.live.get_mut(live_idx) {
                        Some(entry) => entry.1.complete_step(step, elapsed),
                        None => continue, // live_idx came from planned_indices
                    }
                }
            };
            self.record_outcome(id, &event);
            events.push((id, event));
        }
        self.live.retain(|(_, s)| !s.is_done());
        events
    }

    /// Runs rounds until no session is live; `on_event` observes every
    /// event as it happens (step streaming for the serve protocol).
    pub fn drain_with(
        &mut self,
        mut on_event: impl FnMut(SessionId, &SessionEvent),
    ) -> &[(SessionId, SessionOutcome)] {
        self.drain_controlled(|id, event| {
            on_event(id, event);
            DrainSignal::Continue
        })
    }

    /// [`Scheduler::drain_with`] where the callback can also steer the
    /// drain: returning [`DrainSignal::Cancel`] cancels the named session
    /// after the current round (its outcome is recorded as cancelled with
    /// the steps completed so far; every other session drains normally).
    pub fn drain_controlled(
        &mut self,
        mut on_event: impl FnMut(SessionId, &SessionEvent) -> DrainSignal,
    ) -> &[(SessionId, SessionOutcome)] {
        while !self.live.is_empty() {
            let mut cancels = Vec::new();
            for (id, event) in self.round() {
                if let DrainSignal::Cancel(victim) = on_event(id, &event) {
                    cancels.push(victim);
                }
            }
            for victim in cancels {
                self.cancel(victim);
            }
        }
        &self.done
    }

    /// Runs rounds until no session is live and returns every outcome.
    pub fn drain(&mut self) -> &[(SessionId, SessionOutcome)] {
        self.drain_with(|_, _| {})
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("backend", &self.pool.name())
            .field("policy", &self.policy.name())
            .field("live", &self.live.len())
            .field("done", &self.done.len())
            .finish()
    }
}
