//! A loom-style bounded schedule explorer for the concurrency layer.
//!
//! The steal pool and the fusion coordinator are hand-written
//! synchronisation whose failure modes (lost wakeups, double-delivery,
//! deadlock) only appear under particular interleavings. This module
//! re-expresses their *semantics* as small deterministic state machines
//! ([`Model`]) and enumerates every interleaving of 2–3 virtual threads over short op scripts by DFS,
//! checking invariants at each state and at every terminal state. A
//! schedule that the OS scheduler might produce once a month is visited
//! here on every CI run.
//!
//! The models mirror the shipped implementations (the worker farm's
//! queue is `std::sync::mpsc`, which needs no model of its own):
//! - [`StealPoolModel`] — `parworker::steal` rounds: shared task bag,
//!   `pending` decremented before panic recording, first panic wins,
//!   panicking workers retire, the master observes the panic, clears the
//!   bag and poisons the pool.
//! - [`LaneGuardModel`] — the fusion coordinator and its lanes' Drop
//!   guards: a lane blocks on each parked batch until the coordinator
//!   flushes (when every still-live lane has parked one); its guard
//!   sends `Done` exactly once — when the lane releases its backend
//!   after the search and keeps running, or when it finishes or panics —
//!   so the drain loop always terminates and a lane busy after its
//!   release never holds up a peer's flush.

/// What one virtual-thread step did. `step` must be deterministic and
/// must leave the state untouched for `Blocked` / `Finished`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The thread took a step; the state changed.
    Progressed,
    /// The thread is waiting on another thread (condvar wait, full stop).
    Blocked,
    /// The thread has run its whole script.
    Finished,
}

/// A small concurrent system the explorer can enumerate.
trait Model {
    /// Cloneable snapshot of the whole system.
    type State: Clone;

    /// Display name used in violations.
    fn name(&self) -> &'static str;
    /// Number of virtual threads.
    fn threads(&self) -> usize;
    /// The state before any thread runs.
    fn initial(&self) -> Self::State;
    /// Runs one atomic step of thread `tid`.
    fn step(&self, state: &mut Self::State, tid: usize) -> Step;
    /// Invariant checked at every reachable state.
    fn check(&self, _state: &Self::State) -> Result<(), String> {
        Ok(())
    }
    /// Invariant checked at every terminal state (all threads finished).
    fn check_final(&self, state: &Self::State) -> Result<(), String>;
}

/// Exploration counters.
#[derive(Debug, Default, Clone, Copy)]
struct ExploreStats {
    /// Complete schedules (paths to a terminal state) enumerated.
    schedules: u64,
    /// Individual thread steps taken across all schedules.
    steps: u64,
}

/// An invariant failure, with the schedule that reached it.
#[derive(Debug, Clone)]
struct Violation {
    /// Which model failed.
    model: String,
    /// What went wrong.
    message: String,
    /// The thread-id sequence that reproduces it.
    schedule: Vec<usize>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} (schedule {:?})",
            self.model, self.message, self.schedule
        )
    }
}

/// Runaway guard: no scenario in this suite needs more than this many
/// steps; hitting it means a model bug, reported as a violation rather
/// than an OOM.
const STEP_BUDGET: u64 = 50_000_000;

/// Exhaustively explores every interleaving of `m`'s threads.
///
/// # Errors
/// The first [`Violation`] found: a failed `check`/`check_final`, a
/// deadlock (some thread blocked, none runnable), or a blown step budget.
fn explore<M: Model>(m: &M) -> Result<ExploreStats, Violation> {
    let mut stats = ExploreStats::default();
    let mut trace = Vec::new();
    dfs(m, &m.initial(), &mut trace, &mut stats)?;
    Ok(stats)
}

fn dfs<M: Model>(
    m: &M,
    state: &M::State,
    trace: &mut Vec<usize>,
    stats: &mut ExploreStats,
) -> Result<(), Violation> {
    let violation = |message: String, trace: &[usize]| Violation {
        model: m.name().to_string(),
        message,
        schedule: trace.to_vec(),
    };
    m.check(state).map_err(|e| violation(e, trace))?;
    let mut progressed = false;
    let mut blocked = false;
    let mut finished = 0usize;
    for tid in 0..m.threads() {
        let mut next = state.clone();
        match m.step(&mut next, tid) {
            Step::Progressed => {
                progressed = true;
                stats.steps += 1;
                if stats.steps > STEP_BUDGET {
                    return Err(violation("step budget exceeded".to_string(), trace));
                }
                trace.push(tid);
                dfs(m, &next, trace, stats)?;
                trace.pop();
            }
            Step::Blocked => blocked = true,
            Step::Finished => finished += 1,
        }
    }
    if finished == m.threads() {
        stats.schedules += 1;
        m.check_final(state).map_err(|e| violation(e, trace))?;
    } else if !progressed && blocked {
        return Err(violation(
            "deadlock: unfinished threads and none runnable".to_string(),
            trace,
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// StealPool model
// ---------------------------------------------------------------------------

/// The StealPool's publish/execute/wait round with optional task panics.
/// Thread 0 is the master; threads `1..=workers` are workers.
struct StealPoolModel {
    /// Number of worker threads.
    workers: usize,
    /// `tasks[slot]` is `true` when that task panics during execution.
    tasks: Vec<bool>,
    /// Display name for the scenario.
    scenario: &'static str,
}

/// Master progress through its script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MasterPc {
    Publish,
    Wait,
    Shutdown,
    Done,
}

/// Snapshot of one pool round.
#[derive(Debug, Clone)]
struct StealState {
    master: MasterPc,
    bag: std::collections::VecDeque<u32>,
    pending: usize,
    panic: Option<u32>,
    shutdown: bool,
    poisoned: bool,
    held: Vec<Option<u32>>,
    retired: Vec<bool>,
    completed: Vec<u32>,
}

impl Model for StealPoolModel {
    type State = StealState;

    fn name(&self) -> &'static str {
        self.scenario
    }

    fn threads(&self) -> usize {
        self.workers + 1
    }

    fn initial(&self) -> StealState {
        StealState {
            master: MasterPc::Publish,
            bag: std::collections::VecDeque::new(),
            pending: 0,
            panic: None,
            shutdown: false,
            poisoned: false,
            held: vec![None; self.workers],
            retired: vec![false; self.workers],
            completed: Vec::new(),
        }
    }

    fn step(&self, s: &mut StealState, tid: usize) -> Step {
        if tid == 0 {
            return match s.master {
                MasterPc::Publish => {
                    s.bag = (0..self.tasks.len() as u32).collect();
                    s.pending = self.tasks.len();
                    s.master = MasterPc::Wait;
                    Step::Progressed
                }
                MasterPc::Wait => {
                    // Mirrors the impl: the wait predicate is
                    // `panic.is_some() || pending == 0`, panic wins.
                    if s.panic.is_some() {
                        s.bag.clear();
                        s.poisoned = true;
                        s.master = MasterPc::Shutdown;
                        Step::Progressed
                    } else if s.pending == 0 {
                        s.master = MasterPc::Shutdown;
                        Step::Progressed
                    } else {
                        Step::Blocked
                    }
                }
                MasterPc::Shutdown => {
                    s.shutdown = true;
                    s.master = MasterPc::Done;
                    Step::Progressed
                }
                MasterPc::Done => Step::Finished,
            };
        }
        let w = tid - 1;
        if let Some(slot) = s.held[w].take() {
            // Execute the held task. The impl decrements `pending` before
            // recording a panic, and only the first panic is kept.
            s.pending -= 1;
            if self.tasks[slot as usize] {
                s.panic.get_or_insert(slot);
                s.retired[w] = true;
            } else {
                s.completed.push(slot);
            }
            return Step::Progressed;
        }
        if s.retired[w] {
            return Step::Finished;
        }
        if let Some(slot) = s.bag.pop_front() {
            s.held[w] = Some(slot);
            return Step::Progressed;
        }
        if s.shutdown {
            return Step::Finished;
        }
        Step::Blocked
    }

    fn check(&self, s: &StealState) -> Result<(), String> {
        let mut seen = Vec::new();
        for slot in &s.completed {
            if seen.contains(slot) {
                return Err(format!("task {slot} completed twice"));
            }
            seen.push(*slot);
        }
        Ok(())
    }

    fn check_final(&self, s: &StealState) -> Result<(), String> {
        let any_panic = self.tasks.iter().any(|p| *p);
        if !any_panic {
            if s.completed.len() != self.tasks.len() {
                return Err(format!(
                    "lost tasks: {} of {} completed",
                    s.completed.len(),
                    self.tasks.len()
                ));
            }
            if s.pending != 0 {
                return Err(format!("pending {} after a clean round", s.pending));
            }
            if s.poisoned {
                return Err("pool poisoned without a panic".to_string());
            }
            return Ok(());
        }
        if !s.poisoned {
            return Err("task panicked but the master never observed it".to_string());
        }
        for (slot, panics) in self.tasks.iter().enumerate() {
            if *panics && s.completed.contains(&(slot as u32)) {
                return Err(format!("panicking task {slot} reported as completed"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fusion lane-guard model
// ---------------------------------------------------------------------------

/// One scripted lane op for [`LaneGuardModel`].
#[derive(Debug, Clone, Copy)]
enum LaneOp {
    /// Park one batch with the coordinator and block until a flush
    /// scores it.
    Batch(u32),
    /// Drop the lane's backend after its search: the guard inside it
    /// sends `Done` and the lane keeps running (its stage tail). No batch
    /// may follow.
    Release,
    /// Block until lane `n` (counting lanes from 0) has run its whole
    /// script — a lane that waits on a peer.
    AwaitLane(usize),
    /// Finish cleanly — an unreleased guard drops and sends `Done`.
    Finish,
    /// Panic mid-lane — an unreleased guard *still* drops and sends
    /// `Done`; ops after the panic never run.
    Panic,
}

/// The fusion coordinator with `lanes.len()` lane threads. Thread 0 is
/// the coordinator: it flushes whenever every still-live lane has parked
/// a batch and stops once every lane has delivered its `Done` marker.
struct LaneGuardModel {
    /// Per-lane scripts; each must end with `Finish` or `Panic`.
    lanes: Vec<Vec<LaneOp>>,
    /// Display name for the scenario.
    scenario: &'static str,
}

/// A coordinator-queue message.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LaneMsg {
    Batch(u32),
    Done,
}

/// Snapshot of the fused scoring round.
#[derive(Debug, Clone)]
struct LaneState {
    pc: Vec<usize>,
    /// Lane blocked on the reply to its parked batch.
    awaiting: Vec<bool>,
    /// `Done` markers each lane's guard sent.
    done_sent: Vec<u32>,
    /// A lane parked a batch after its `Done`.
    batch_after_done: bool,
    queue: std::collections::VecDeque<(usize, LaneMsg)>,
    /// Lanes the coordinator still counts as live.
    live: usize,
    /// Parked batches awaiting the next flush: (lane, batch id).
    pending: Vec<(usize, u32)>,
    scored: Vec<u32>,
    sent: Vec<u32>,
}

impl LaneState {
    /// Scores every parked batch and wakes its lane.
    fn flush(&mut self) {
        for (lane, id) in self.pending.drain(..) {
            self.scored.push(id);
            self.awaiting[lane] = false;
        }
    }

    /// The lane's guard drops: `Done` goes out unless it already did.
    fn release(&mut self, lane: usize) {
        if self.done_sent[lane] == 0 {
            self.queue.push_back((lane, LaneMsg::Done));
        }
        self.done_sent[lane] += 1;
    }
}

impl Model for LaneGuardModel {
    type State = LaneState;

    fn name(&self) -> &'static str {
        self.scenario
    }

    fn threads(&self) -> usize {
        self.lanes.len() + 1
    }

    fn initial(&self) -> LaneState {
        let n = self.lanes.len();
        LaneState {
            pc: vec![0; n],
            awaiting: vec![false; n],
            done_sent: vec![0; n],
            batch_after_done: false,
            queue: std::collections::VecDeque::new(),
            live: n,
            pending: Vec::new(),
            scored: Vec::new(),
            sent: Vec::new(),
        }
    }

    fn step(&self, s: &mut LaneState, tid: usize) -> Step {
        if tid == 0 {
            if s.live == 0 {
                // The defensive flush after the drain loop, then exit.
                if s.pending.is_empty() {
                    return Step::Finished;
                }
                s.flush();
                return Step::Progressed;
            }
            let Some((lane, msg)) = s.queue.pop_front() else {
                return Step::Blocked;
            };
            match msg {
                LaneMsg::Batch(id) => s.pending.push((lane, id)),
                LaneMsg::Done => s.live -= 1,
            }
            if s.live > 0 && !s.pending.is_empty() && s.pending.len() == s.live {
                s.flush();
            }
            return Step::Progressed;
        }
        let lane = tid - 1;
        if s.awaiting[lane] {
            return Step::Blocked;
        }
        let Some(op) = self.lanes[lane].get(s.pc[lane]) else {
            return Step::Finished;
        };
        match *op {
            LaneOp::Batch(id) => {
                s.batch_after_done |= s.done_sent[lane] > 0;
                s.queue.push_back((lane, LaneMsg::Batch(id)));
                s.sent.push(id);
                s.awaiting[lane] = true;
                s.pc[lane] += 1;
            }
            LaneOp::Release => {
                s.release(lane);
                s.pc[lane] += 1;
            }
            LaneOp::AwaitLane(peer) => {
                if s.pc[peer] < self.lanes[peer].len() {
                    return Step::Blocked;
                }
                s.pc[lane] += 1;
            }
            LaneOp::Finish | LaneOp::Panic => {
                // A guard not yet released drops here either way.
                if s.done_sent[lane] == 0 {
                    s.release(lane);
                }
                s.pc[lane] = self.lanes[lane].len();
            }
        }
        Step::Progressed
    }

    fn check(&self, s: &LaneState) -> Result<(), String> {
        if let Some(lane) = s.done_sent.iter().position(|&n| n > 1) {
            return Err(format!(
                "lane {lane} sent {} Done markers",
                s.done_sent[lane]
            ));
        }
        if s.batch_after_done {
            return Err("a lane parked a batch after its Done".to_string());
        }
        Ok(())
    }

    fn check_final(&self, s: &LaneState) -> Result<(), String> {
        if let Some(lane) = s.done_sent.iter().position(|&n| n != 1) {
            return Err(format!(
                "lane {lane} sent {} Done markers, not one",
                s.done_sent[lane]
            ));
        }
        let mut scored = s.scored.clone();
        let mut sent = s.sent.clone();
        scored.sort_unstable();
        sent.sort_unstable();
        if scored != sent {
            return Err(format!("scored {scored:?} != sent {sent:?}"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The scenario suite
// ---------------------------------------------------------------------------

/// One explored scenario's counters.
#[derive(Debug, Clone)]
struct ModelRun {
    /// Scenario name.
    name: &'static str,
    /// Counters from the exhaustive exploration.
    stats: ExploreStats,
}

/// Explores every concurrency scenario in the suite; the whole suite is
/// sub-second.
///
/// # Errors
/// The first [`Violation`] any scenario finds.
fn verify_concurrency() -> Result<Vec<ModelRun>, Violation> {
    let mut runs = Vec::new();
    let mut run =
        |name: &'static str, stats: Result<ExploreStats, Violation>| -> Result<(), Violation> {
            runs.push(ModelRun {
                name,
                stats: stats?,
            });
            Ok(())
        };

    // StealPool, clean round: 2 workers, 4 tasks, every task completes
    // exactly once and the master's wait terminates.
    run(
        "steal/clean-round",
        explore(&StealPoolModel {
            scenario: "steal/clean-round",
            workers: 2,
            tasks: vec![false, false, false, false],
        }),
    )?;

    // StealPool, panic round: task 1 panics; the master must observe the
    // poison, the round must not deadlock, nothing completes twice.
    run(
        "steal/panic-round",
        explore(&StealPoolModel {
            scenario: "steal/panic-round",
            workers: 2,
            tasks: vec![false, true, false],
        }),
    )?;

    // StealPool, single worker with a panic: the retiring worker must not
    // strand the master.
    run(
        "steal/1-worker-panic",
        explore(&StealPoolModel {
            scenario: "steal/1-worker-panic",
            workers: 1,
            tasks: vec![true, false],
        }),
    )?;

    // Lane guard, clean: both lanes deliver batches then Done.
    run(
        "fusion/lanes-clean",
        explore(&LaneGuardModel {
            scenario: "fusion/lanes-clean",
            lanes: vec![
                vec![LaneOp::Batch(1), LaneOp::Batch(2), LaneOp::Finish],
                vec![LaneOp::Batch(3), LaneOp::Batch(4), LaneOp::Finish],
            ],
        }),
    )?;

    // Lane guard, panic: lane 1 dies after one batch — the Drop guard's
    // Done must still arrive or the coordinator drains forever.
    run(
        "fusion/lane-panics",
        explore(&LaneGuardModel {
            scenario: "fusion/lane-panics",
            lanes: vec![
                vec![LaneOp::Batch(1), LaneOp::Panic, LaneOp::Batch(2)],
                vec![LaneOp::Batch(3), LaneOp::Finish],
            ],
        }),
    )?;

    // Lane guard, release before finish: lane 0's search ends after one
    // batch and it releases its backend, then waits on lane 1 (a stage
    // tail outlasting a peer's search) and panics at the end. Lane 1's
    // second batch must still flush, and the panic must send no second
    // Done.
    run(
        "fusion/release-before-finish",
        explore(&LaneGuardModel {
            scenario: "fusion/release-before-finish",
            lanes: vec![
                vec![
                    LaneOp::Batch(1),
                    LaneOp::Release,
                    LaneOp::AwaitLane(1),
                    LaneOp::Panic,
                ],
                vec![LaneOp::Batch(2), LaneOp::Batch(3), LaneOp::Finish],
            ],
        }),
    )?;

    Ok(runs)
}

#[test]
fn every_scenario_explores_its_pinned_schedule_count() {
    // Exhaustive and deterministic: a moved count means a model changed.
    let runs = verify_concurrency().expect("no violations");
    let counts: Vec<_> = runs
        .iter()
        .map(|r| (r.name, r.stats.schedules, r.stats.steps))
        .collect();
    let want = [
        ("steal/clean-round", 128, 639),
        ("steal/panic-round", 60, 205),
        ("steal/1-worker-panic", 1, 5),
        ("fusion/lanes-clean", 64, 294),
        ("fusion/lane-panics", 16, 70),
        ("fusion/release-before-finish", 48, 214),
    ];
    assert_eq!(counts, want);
}

#[test]
fn a_lane_holding_its_guard_through_a_peer_wait_deadlocks() {
    // The release scenario without the release: lane 0 keeps its
    // guard while it waits on lane 1, whose second batch can never
    // flush (two live lanes, one parked batch).
    let err = explore(&LaneGuardModel {
        scenario: "test/held-guard",
        lanes: vec![
            vec![LaneOp::Batch(1), LaneOp::AwaitLane(1), LaneOp::Finish],
            vec![LaneOp::Batch(2), LaneOp::Batch(3), LaneOp::Finish],
        ],
    })
    .unwrap_err();
    assert!(err.message.contains("deadlock"), "{err}");
}

#[test]
fn a_batch_after_release_is_a_violation() {
    let err = explore(&LaneGuardModel {
        scenario: "test/batch-after-done",
        lanes: vec![vec![LaneOp::Release, LaneOp::Batch(1), LaneOp::Finish]],
    })
    .unwrap_err();
    assert!(err.message.contains("after its Done"), "{err}");
}

#[test]
fn explorer_detects_double_delivery() {
    // A deliberately broken queue: a take peeks instead of popping.
    struct Broken;
    #[derive(Clone)]
    struct S {
        pc: Vec<usize>,
        queue: Vec<u32>,
        got: Vec<u32>,
    }
    impl Model for Broken {
        type State = S;
        fn name(&self) -> &'static str {
            "test/broken"
        }
        fn threads(&self) -> usize {
            2
        }
        fn initial(&self) -> S {
            S {
                pc: vec![0; 2],
                queue: vec![7],
                got: Vec::new(),
            }
        }
        fn step(&self, s: &mut S, tid: usize) -> Step {
            if s.pc[tid] >= 1 {
                return Step::Finished;
            }
            if let Some(v) = s.queue.first().copied() {
                s.got.push(v); // bug: no pop
            }
            s.pc[tid] += 1;
            Step::Progressed
        }
        fn check_final(&self, s: &S) -> Result<(), String> {
            if s.got.len() > 1 {
                return Err(format!("value delivered {} times", s.got.len()));
            }
            Ok(())
        }
    }
    let err = explore(&Broken).unwrap_err();
    assert!(err.message.contains("delivered"), "{err}");
    assert_eq!(err.schedule.len(), 2);
}

#[test]
fn steal_pool_counts_match_hand_enumeration() {
    // 1 worker, 1 task: publish → take → execute → (wait) → shutdown
    // → worker sees shutdown. Exactly one schedule modulo the
    // blocked-master reorderings the explorer prunes.
    let stats = explore(&StealPoolModel {
        scenario: "test/tiny",
        workers: 1,
        tasks: vec![false],
    })
    .unwrap();
    assert_eq!(stats.schedules, 1);
}
