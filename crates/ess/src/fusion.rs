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
//! [`LaneMsg::Done`], and every lane thread owns a [`LaneGuard`] whose
//! `Drop` sends `Done` when the thread exits — normally or by panic, and
//! even when the step never constructed its evaluator. The coordinator
//! flushes whenever all still-live lanes have parked a batch and exits
//! when no lane is live — no state where both sides wait on each other.

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
    /// The lane is finished for this round (sent by [`LaneGuard`]'s
    /// `Drop`, so it also fires when a lane's step panics).
    Done,
}

/// Sends [`LaneMsg::Done`] when dropped. Create one at the top of each
/// lane thread: however the thread exits — step complete, step panicked,
/// evaluator never even built — the coordinator learns the lane is done.
/// Without this, a lane dying silently leaves the coordinator waiting for
/// a batch that never comes while the surviving lanes block on a flush.
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
/// every batch.
pub struct FusionLane {
    ctx: Arc<StepContext>,
    lane: Sender<LaneMsg>,
}

impl FusionLane {
    /// A lane backend scoring everything against `ctx`.
    pub fn new(ctx: Arc<StepContext>, lane: Sender<LaneMsg>) -> Self {
        Self { ctx, lane }
    }
}

impl Backend<Vec<f64>, f64> for FusionLane {
    fn map(&mut self, tasks: Vec<Vec<f64>>) -> Vec<f64> {
        let genomes = GenomeMatrix::from_rows(&tasks);
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        self.lane
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
            // All senders dropped without Done — lanes panicked before
            // constructing their backends; nothing left to coordinate.
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
mod tests {
    use super::*;
    use crate::fitness::{EvalBackend, ScenarioEvaluator};
    use evoalg::BatchEvaluator;
    use firelib::sim::centre_ignition;
    use firelib::{FireSim, Scenario, Terrain};

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

    #[test]
    fn fused_lanes_match_private_evaluation() {
        let pool = SharedScenarioPool::new(EvalBackend::WorkerPool(2));
        let contexts = [context(21, 4.0), context(27, 8.0), context(21, 12.0)];
        let batches = [genomes(1, 6), genomes(2, 9), genomes(3, 4)];

        let (tx, rx) = std::sync::mpsc::channel();
        let mut fused: Vec<Option<Vec<f64>>> = vec![None; contexts.len()];
        std::thread::scope(|scope| {
            for ((ctx, batch), slot) in contexts.iter().zip(&batches).zip(fused.iter_mut()) {
                let lane = tx.clone();
                scope.spawn(move || {
                    let _done = LaneGuard::new(lane.clone());
                    let mut ev = ScenarioEvaluator::with_backend(
                        Arc::clone(ctx),
                        Box::new(FusionLane::new(Arc::clone(ctx), lane)),
                    );
                    // Two sequential waves per lane, like a GA's
                    // parents-then-offspring evaluations.
                    let first = ev.evaluate(batch);
                    let second = ev.evaluate(batch);
                    assert_eq!(first, second, "same batch, same fitness");
                    *slot = Some(first);
                });
            }
            run_coordinator(&pool, &rx, contexts.len());
        });

        for ((ctx, batch), got) in contexts.iter().zip(&batches).zip(fused) {
            let mut private = ScenarioEvaluator::new(Arc::clone(ctx), EvalBackend::Serial);
            assert_eq!(
                got.expect("lane completed"),
                private.evaluate(batch),
                "fused lane diverged from private evaluation"
            );
        }
    }

    #[test]
    fn coordinator_survives_lanes_with_unequal_wave_counts() {
        let pool = SharedScenarioPool::new(EvalBackend::Serial);
        let ctx = context(15, 5.0);
        let batch = genomes(9, 3);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for waves in [0usize, 1, 3] {
                let lane = tx.clone();
                let ctx = Arc::clone(&ctx);
                let batch = batch.clone();
                scope.spawn(move || {
                    let _done = LaneGuard::new(lane.clone());
                    let mut ev = ScenarioEvaluator::with_backend(
                        Arc::clone(&ctx),
                        Box::new(FusionLane::new(Arc::clone(&ctx), lane)),
                    );
                    for _ in 0..waves {
                        let fits = ev.evaluate(&batch);
                        assert_eq!(fits.len(), batch.len());
                    }
                });
            }
            run_coordinator(&pool, &rx, 3);
        });
    }
}
