//! Cross-session batch fusion — the plumbing that lets one scheduler
//! round evaluate *every* planned session's pending genomes as a single
//! mega-batch on the [`SharedScenarioPool`].
//!
//! The paper's Master/Worker design amortises parallelism over large
//! scenario batches. At service scale the opposite happens: each session
//! step dispatches its own ~population-sized batch, too small for the
//! worker pool to beat serial execution. Fusion restores the large batch
//! by running the planned sessions' steps on *lanes* (one thread each)
//! whose evaluators block on a shared coordinator instead of the pool;
//! the coordinator waits until every live lane has parked a batch, fuses
//! them through [`SharedScenarioPool::evaluate_fused`] (one contiguous
//! [`GenomeMatrix`], one backend submission), and scatters the fitness
//! vectors back. Each lane therefore sees exactly the submission-order
//! semantics of a private evaluator, so a fused round is bit-identical
//! to stepping the sessions one at a time.
//!
//! Liveness invariant: a lane blocked on a reply cannot send
//! [`LaneMsg::Done`], and every lane owns exactly one [`LaneGuard`] whose
//! `Drop` sends `Done`. The guard lives inside the lane's [`FusionLane`],
//! so `Done` goes out the moment the lane's evaluator drops — which
//! `StepDriver::step_with` does as soon as the Optimization Stage
//! returns, before the Statistical/Calibration tail — and a lane whose
//! evaluator was never built, or whose thread panicked, sends it when
//! the guard is dropped with the unused closure or by unwinding. A lane
//! sends no batch after `Done`: the backend that would carry it is gone.
//! The coordinator flushes whenever all still-live lanes have parked a
//! batch and exits when no lane is live, so a lane still busy in its
//! stage tail (or waiting on anything at all) no longer counts towards
//! the flush rule and cannot hold up its peers' waves — no state where
//! both sides wait on each other. A wave the lane's evaluator answers
//! from its table parks nothing at all: the lane is simply busy until its
//! next batch or its `Done`, like a lane breeding its next generation.

use crate::fitness::{SharedScenarioPool, StepContext};
use evoalg::GenomeMatrix;
use parworker::Backend;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// What a lane can tell the coordinator.
pub enum LaneMsg {
    /// A parked evaluation batch: score `genomes` against `ctx` and send
    /// the fitness vector (row order) back through `reply`.
    Batch {
        /// Step context the batch is scored against.
        ctx: Arc<StepContext>,
        /// The lane's pending genomes, already flat.
        genomes: GenomeMatrix,
        /// Where the lane blocks for its fitness vector.
        reply: Sender<Vec<f64>>,
    },
    /// The lane will park no more batches this round (sent by
    /// [`LaneGuard`]'s `Drop` — when the lane's evaluator drops, or when
    /// its step panics or never built one).
    Done,
}

/// Sends [`LaneMsg::Done`] when dropped. Create one per lane and move it
/// into the closure that builds the lane's [`FusionLane`]: however the
/// lane ends its evaluations — evaluator dropped after the search, step
/// panicked, evaluator never even built — the coordinator learns of it
/// exactly once. Without this, a lane dying silently leaves the
/// coordinator waiting for a batch that never comes while the surviving
/// lanes block on a flush.
pub struct LaneGuard {
    lane: Sender<LaneMsg>,
}

impl LaneGuard {
    /// Arms a guard on `lane`.
    pub fn new(lane: Sender<LaneMsg>) -> Self {
        Self { lane }
    }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        // The coordinator having already exited is fine: nothing to tell.
        let _ = self.lane.send(LaneMsg::Done);
    }
}

/// The per-lane evaluation backend: parks each batch with the round's
/// coordinator and blocks until the fused results come back. Plugs into
/// `ScenarioEvaluator::with_backend`, so the whole `StepDriver` machinery
/// runs unchanged on a fused round; the step context rides along with
/// every batch. It owns the lane's [`LaneGuard`], so dropping it releases
/// the lane from the round's waves.
pub struct FusionLane {
    ctx: Arc<StepContext>,
    lane: LaneGuard,
}

impl FusionLane {
    /// A lane backend scoring everything against `ctx`, parking batches
    /// on the channel `lane` guards.
    pub fn new(ctx: Arc<StepContext>, lane: LaneGuard) -> Self {
        Self { ctx, lane }
    }
}

impl Backend<Vec<f64>, f64> for FusionLane {
    fn map(&mut self, tasks: Vec<Vec<f64>>) -> Vec<f64> {
        let genomes = GenomeMatrix::from_rows(&tasks);
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        self.lane
            .lane
            .send(LaneMsg::Batch {
                ctx: Arc::clone(&self.ctx),
                genomes,
                reply: reply_tx,
            })
            // lint: allow(panic) — the coordinator outlives every lane by scope construction; a hangup means a coordinator panic, which must propagate
            .expect("fusion coordinator hung up before the round finished");
        reply_rx
            .recv()
            // lint: allow(panic) — the coordinator replies to every parked batch or panics; dropping a reply must propagate, not deadlock
            .expect("fusion coordinator dropped a pending reply")
    }

    fn name(&self) -> String {
        "fused".into()
    }

    fn workers(&self) -> usize {
        1
    }
}

/// Runs the fusion coordinator for one round: `lanes` lanes share the
/// sending side of `rx`. Blocks until every lane has sent
/// [`LaneMsg::Done`] — call it on the scheduler thread inside the scope
/// that spawned the lane threads.
///
/// Every flush calls [`SharedScenarioPool::evaluate_fused`] with the
/// parked batches in lane-arrival order; per-lane result order is what a
/// private evaluator would produce, so fusion is invisible to the lanes.
pub fn run_coordinator(pool: &SharedScenarioPool, rx: &Receiver<LaneMsg>, lanes: usize) {
    let mut live = lanes;
    let mut pending: Vec<ParkedBatch> = Vec::new();
    while live > 0 {
        match rx.recv() {
            Ok(LaneMsg::Batch {
                ctx,
                genomes,
                reply,
            }) => pending.push((ctx, genomes, reply)),
            Ok(LaneMsg::Done) => live -= 1,
            // All senders dropped without Done — no guard was ever armed
            // for the missing lanes; nothing left to coordinate.
            Err(_) => break,
        }
        if live > 0 && !pending.is_empty() && pending.len() == live {
            flush(pool, &mut pending);
        }
    }
    // A batch-blocked lane cannot have sent Done, so this is empty on
    // every orderly exit; flush defensively rather than strand a lane.
    if !pending.is_empty() {
        flush(pool, &mut pending);
    }
}

/// A lane's batch parked at the coordinator until the round flushes.
type ParkedBatch = (Arc<StepContext>, GenomeMatrix, Sender<Vec<f64>>);

fn flush(pool: &SharedScenarioPool, pending: &mut Vec<ParkedBatch>) {
    let batches: Vec<(Arc<StepContext>, &GenomeMatrix)> = pending
        .iter()
        .map(|(ctx, genomes, _)| (Arc::clone(ctx), genomes))
        .collect();
    let results = pool.evaluate_fused(&batches);
    for ((_, _, reply), result) in pending.drain(..).zip(results) {
        // A lane whose thread died no longer listens; that is its problem.
        let _ = reply.send(result);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the lane tests run each lane on a scoped thread, as the fused round does"
)]
mod tests {
    use super::*;
    use crate::cases::tiny_test_case;
    use crate::fitness::{EvalBackend, ScenarioEvaluator};
    use crate::pipeline::{OptimizeOutcome, StepDriver, StepOptimizer};
    use evoalg::BatchEvaluator;
    use firelib::sim::centre_ignition;
    use firelib::{FireSim, Scenario, Terrain};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread::{Scope, ScopedJoinHandle};

    fn context(n: usize, wind: f64) -> Arc<StepContext> {
        let truth = Scenario {
            wind_speed_mph: wind,
            ..Scenario::reference()
        };
        let sim = Arc::new(FireSim::new(Terrain::uniform(n, n, 100.0)));
        let from = centre_ignition(n, n);
        let target = sim.simulate_fire_line(&truth, &from, 0.0, 40.0);
        Arc::new(StepContext::new(sim, from, target, 0.0, 40.0))
    }

    fn genomes(seed: u64, n: usize) -> Vec<Vec<f64>> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..firelib::GENE_COUNT)
                    .map(|_| rng.random::<f64>())
                    .collect()
            })
            .collect()
    }

    /// Stands between the lanes and the coordinator: forwards every lane
    /// message to `coordinator` and counts the parked batches. A test whose
    /// waves are all unscored asserts the count, so a wave its evaluator's
    /// table answers cannot quietly stop reaching the coordinator.
    fn tap<'scope>(
        scope: &'scope Scope<'scope, '_>,
        coordinator: Sender<LaneMsg>,
    ) -> (Sender<LaneMsg>, ScopedJoinHandle<'scope, usize>) {
        let (tx, rx) = std::sync::mpsc::channel::<LaneMsg>();
        let parked = scope.spawn(move || {
            let mut parked = 0;
            for msg in rx {
                parked += usize::from(matches!(msg, LaneMsg::Batch { .. }));
                if coordinator.send(msg).is_err() {
                    break;
                }
            }
            parked
        });
        (tx, parked)
    }

    #[test]
    fn fused_lanes_match_private_evaluation() {
        let pool = SharedScenarioPool::new(EvalBackend::WorkerPool(2));
        let contexts = [context(21, 4.0), context(27, 8.0), context(21, 12.0)];
        // Two sequential waves per lane, like a GA's parents-then-offspring
        // evaluations; every wave is new to the lane's table.
        let plans = [
            [genomes(1, 6), genomes(11, 5)],
            [genomes(2, 9), genomes(12, 7)],
            [genomes(3, 4), genomes(13, 4)],
        ];

        let (tx, rx) = std::sync::mpsc::channel();
        let mut fused: Vec<Vec<Vec<f64>>> = vec![Vec::new(); contexts.len()];
        let parked = std::thread::scope(|scope| {
            let (lanes, parked) = tap(scope, tx);
            for ((ctx, waves), slot) in contexts.iter().zip(&plans).zip(fused.iter_mut()) {
                let lane = LaneGuard::new(lanes.clone());
                scope.spawn(move || {
                    let backend = FusionLane::new(Arc::clone(ctx), lane);
                    let mut ev =
                        ScenarioEvaluator::with_backend(Arc::clone(ctx), Box::new(backend));
                    *slot = waves.iter().map(|w| ev.evaluate(w)).collect();
                });
            }
            drop(lanes);
            run_coordinator(&pool, &rx, contexts.len());
            parked.join().expect("tap thread")
        });
        assert_eq!(parked, 6, "every wave of every lane parks");

        for ((ctx, waves), got) in contexts.iter().zip(&plans).zip(fused) {
            let mut private = ScenarioEvaluator::new(Arc::clone(ctx), EvalBackend::Serial);
            let want: Vec<Vec<f64>> = waves.iter().map(|w| private.evaluate(w)).collect();
            assert_eq!(got, want, "fused lane diverged from private evaluation");
        }
    }

    #[test]
    fn coordinator_survives_lanes_with_unequal_wave_counts() {
        let pool = SharedScenarioPool::new(EvalBackend::Serial);
        let ctx = context(15, 5.0);
        let (tx, rx) = std::sync::mpsc::channel();
        let parked = std::thread::scope(|scope| {
            let (lanes, parked) = tap(scope, tx);
            for waves in [0u64, 1, 3] {
                let lane = LaneGuard::new(lanes.clone());
                let ctx = Arc::clone(&ctx);
                scope.spawn(move || {
                    let backend = FusionLane::new(Arc::clone(&ctx), lane);
                    let mut ev = ScenarioEvaluator::with_backend(ctx, Box::new(backend));
                    for w in 0..waves {
                        let batch = genomes(9 + w, 3);
                        assert_eq!(ev.evaluate(&batch).len(), batch.len());
                    }
                });
            }
            drop(lanes);
            run_coordinator(&pool, &rx, 3);
            parked.join().expect("tap thread")
        });
        assert_eq!(parked, 4, "0 + 1 + 3 waves, each parked");
    }

    /// A lane whose search ends while a peer's continues: its evaluator
    /// drops after one wave and it then waits on the peer (a stage tail
    /// that outlasts the peer's search). The peer's later waves must
    /// still flush — with the guard held to the end of the lane thread
    /// they would park forever, so the wait is bounded and fails the test
    /// instead of hanging it.
    #[test]
    fn a_released_lane_waiting_on_a_peer_does_not_stall_its_flushes() {
        let pool = SharedScenarioPool::new(EvalBackend::Serial);
        let ctx = context(15, 5.0);
        let (tx, rx) = std::sync::mpsc::channel();
        let (peer_tx, peer_rx) = std::sync::mpsc::channel::<()>();
        let lane = |lanes: &Sender<LaneMsg>| {
            let backend = FusionLane::new(Arc::clone(&ctx), LaneGuard::new(lanes.clone()));
            ScenarioEvaluator::with_backend(Arc::clone(&ctx), Box::new(backend))
        };
        let parked = std::thread::scope(|scope| {
            let (lanes, parked) = tap(scope, tx);
            let (mut early, mut late) = (lane(&lanes), lane(&lanes));
            drop(lanes);
            let waited = scope.spawn(move || {
                early.evaluate(&genomes(4, 3));
                drop(early);
                peer_rx.recv_timeout(std::time::Duration::from_secs(20))
            });
            scope.spawn(move || {
                // A new batch each wave, so each one parks and needs a flush.
                for w in 0..3 {
                    let batch = genomes(5 + w, 3);
                    assert_eq!(late.evaluate(&batch).len(), batch.len());
                }
                let _ = peer_tx.send(());
            });
            run_coordinator(&pool, &rx, 2);
            assert!(
                waited.join().expect("lane thread").is_ok(),
                "the peer's waves stalled behind a released lane"
            );
            parked.join().expect("tap thread")
        });
        assert_eq!(parked, 4, "the early lane's wave and the late lane's three");
    }

    /// A lane whose wave its evaluator's table answers whole parks nothing
    /// for it and goes straight on to its next wave: the round completes,
    /// every lane gets what a private evaluator gives it, and the
    /// coordinator sees one batch fewer.
    #[test]
    fn a_wave_the_table_answers_whole_parks_nothing_and_the_round_completes() {
        let pool = SharedScenarioPool::new(EvalBackend::WorkerPool(2));
        let ctx = context(17, 6.0);
        let (first, second) = (genomes(21, 5), genomes(22, 4));
        let reversed: Vec<Vec<f64>> = first.iter().rev().cloned().collect();
        // Lane 0's second wave is its first, reordered: table only.
        let plans = [
            vec![first.clone(), reversed, second.clone()],
            vec![second, first, genomes(23, 3)],
        ];
        let (tx, rx) = std::sync::mpsc::channel();
        let mut fused: Vec<Vec<Vec<f64>>> = vec![Vec::new(); plans.len()];
        let parked = std::thread::scope(|scope| {
            let (lanes, parked) = tap(scope, tx);
            for (waves, slot) in plans.iter().zip(fused.iter_mut()) {
                let lane = LaneGuard::new(lanes.clone());
                let ctx = Arc::clone(&ctx);
                scope.spawn(move || {
                    let backend = FusionLane::new(Arc::clone(&ctx), lane);
                    let mut ev = ScenarioEvaluator::with_backend(ctx, Box::new(backend));
                    *slot = waves.iter().map(|w| ev.evaluate(w)).collect();
                });
            }
            drop(lanes);
            run_coordinator(&pool, &rx, plans.len());
            parked.join().expect("tap thread")
        });
        assert_eq!(
            parked, 5,
            "lane 0 parks two of its three waves, lane 1 all three"
        );
        for (waves, got) in plans.iter().zip(fused) {
            let mut private = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::Serial);
            let want: Vec<Vec<f64>> = waves.iter().map(|w| private.evaluate(w)).collect();
            assert_eq!(got, want, "fused lane diverged from private evaluation");
        }
    }

    /// A search that scores nothing: what is under test is the lane
    /// guard, not the fire.
    struct Unscored;

    impl StepOptimizer for Unscored {
        fn name(&self) -> &'static str {
            "unscored"
        }

        fn optimize(&mut self, _: &mut ScenarioEvaluator, _: u64) -> OptimizeOutcome {
            OptimizeOutcome {
                result_set: vec![vec![0.5; firelib::GENE_COUNT]],
                best_fitness: 0.0,
                generations: 0,
                evaluations: 0,
            }
        }
    }

    #[test]
    fn a_lane_sends_done_exactly_once_whether_or_not_it_built_an_evaluator() {
        let case = tiny_test_case();
        let pool = Arc::new(SharedScenarioPool::new(EvalBackend::Serial));
        let (tx, rx) = std::sync::mpsc::channel();
        let fused = |built: &Arc<AtomicBool>| {
            let (guard, built) = (LaneGuard::new(tx.clone()), Arc::clone(built));
            move |ctx: Arc<StepContext>| {
                built.store(true, Ordering::SeqCst);
                let backend = FusionLane::new(Arc::clone(&ctx), guard);
                ScenarioEvaluator::with_backend(ctx, Box::new(backend))
            }
        };
        let dones =
            |rx: &Receiver<LaneMsg>| rx.try_iter().filter(|m| matches!(m, LaneMsg::Done)).count();

        // Built: the step builds its evaluator, searches, drops it.
        let built = Arc::new(AtomicBool::new(false));
        let mut driver = StepDriver::new(case.clone(), Arc::clone(&pool), 1);
        assert!(driver.step_with(&mut Unscored, fused(&built)).is_some());
        assert!(built.load(Ordering::SeqCst));
        assert_eq!(dones(&rx), 1);

        // Not built: a finished driver returns before building one.
        let built = Arc::new(AtomicBool::new(false));
        let total = driver.total_steps();
        let mut finished = StepDriver::restore(case, pool, 1, total, Some(0.5));
        assert!(finished.step_with(&mut Unscored, fused(&built)).is_none());
        assert!(!built.load(Ordering::SeqCst));
        assert_eq!(dones(&rx), 1);
        drop(tx);
        assert!(rx.try_recv().is_err(), "nothing but one Done per lane");
    }
}
