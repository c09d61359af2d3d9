//! Work-stealing backend — the alternative scheduling strategy the benches
//! compare against the channel-based Master/Worker farm.
//!
//! Historically this was a `rayon::ThreadPool`; the workspace now builds
//! without external dependencies, so the same scheduling behaviour is
//! reproduced on std threads: instead of the master scattering indexed
//! tasks up front, idle workers *pull* ("steal") the next task from a
//! shared bag, which adapts to irregular task mixes (e.g. scenarios whose
//! simulations differ wildly in burned area). Like the Master/Worker farm
//! — and unlike a classic rayon pool — each worker owns private mutable
//! state built once at spawn, so simulator scratch buffers are reused
//! across every `map` call with zero allocation in the hot loop.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

struct Round<T, R> {
    tasks: VecDeque<(usize, T)>,
    results: Vec<Option<R>>,
    /// Tasks handed out or queued but not yet completed this round.
    pending: usize,
    /// Payload of the first worker panic this round, re-raised in the
    /// master so a crashing work function cannot deadlock `map`.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct Shared<T, R> {
    round: Mutex<Round<T, R>>,
    /// Signalled when tasks arrive or the pool shuts down.
    work_ready: Condvar,
    /// Signalled when the last task of a round completes.
    round_done: Condvar,
}

/// A persistent self-scheduling ("work-stealing") pool with per-worker
/// state and the same ordered-map contract as [`crate::WorkerPool`].
pub struct StealPool<T, R> {
    shared: Arc<Shared<T, R>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    poisoned: bool,
}

impl<T: Send + 'static, R: Send + 'static> StealPool<T, R> {
    /// Spawns `workers` threads. `state_factory(worker_id)` builds each
    /// worker's private state; `work(&mut state, task)` evaluates one task.
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    // lint: allow(panic) — spawn failure and lock poisoning only follow OS exhaustion or a worker panic; amplifying them is the pool's designed failure mode
    pub fn new<S, F, W>(workers: usize, state_factory: F, work: W) -> Self
    where
        S: Send + 'static,
        F: Fn(usize) -> S + Send + Sync + 'static,
        W: Fn(&mut S, T) -> R + Send + Sync + 'static,
    {
        assert!(
            workers > 0,
            "a work-stealing pool needs at least one worker"
        );
        let shared = Arc::new(Shared {
            round: Mutex::new(Round {
                tasks: VecDeque::new(),
                results: Vec::new(),
                pending: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            round_done: Condvar::new(),
        });
        let work = Arc::new(work);
        let state_factory = Arc::new(state_factory);
        let mut handles = Vec::with_capacity(workers);
        for wid in 0..workers {
            let shared = Arc::clone(&shared);
            let work = Arc::clone(&work);
            let state_factory = Arc::clone(&state_factory);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("stealworker-{wid}"))
                    .spawn(move || {
                        let mut state = state_factory(wid);
                        loop {
                            // Steal the next task (or exit on shutdown).
                            let (idx, task) = {
                                let mut round =
                                    shared.round.lock().expect("steal pool lock poisoned");
                                loop {
                                    if let Some(t) = round.tasks.pop_front() {
                                        break t;
                                    }
                                    if round.shutdown {
                                        return;
                                    }
                                    round = shared
                                        .work_ready
                                        .wait(round)
                                        .expect("steal pool lock poisoned");
                                }
                            };
                            let result = catch_unwind(AssertUnwindSafe(|| work(&mut state, task)));
                            let mut round = shared.round.lock().expect("steal pool lock poisoned");
                            round.pending -= 1;
                            match result {
                                Ok(r) => {
                                    debug_assert!(round.results[idx].is_none(), "duplicate result");
                                    round.results[idx] = Some(r);
                                    if round.pending == 0 {
                                        shared.round_done.notify_all();
                                    }
                                }
                                Err(payload) => {
                                    // Record the panic for the master and
                                    // retire this worker (its state may be
                                    // corrupt after the unwind).
                                    round.panic.get_or_insert(payload);
                                    shared.round_done.notify_all();
                                    return;
                                }
                            }
                        }
                    })
                    .expect("failed to spawn steal worker"),
            );
        }
        Self {
            shared,
            handles,
            workers,
            poisoned: false,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Publishes `tasks` to the shared bag and blocks until every result is
    /// in, returning them in submission order. `&mut self` keeps rounds
    /// from interleaving.
    ///
    /// # Panics
    /// Re-raises the first panic a worker's work function raised (the pool
    /// is then poisoned and must not be reused).
    // lint: allow(panic) — lock poisoning only follows a worker panic; re-raising it here is the pool's designed failure mode
    pub fn map(&mut self, tasks: Vec<T>) -> Vec<R> {
        assert!(
            !self.poisoned,
            "steal pool poisoned by an earlier worker panic"
        );
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let mut round = self.shared.round.lock().expect("steal pool lock poisoned");
        debug_assert!(
            round.tasks.is_empty() && round.pending == 0,
            "overlapping rounds"
        );
        round.results = (0..n).map(|_| None).collect();
        round.pending = n;
        round.tasks.extend(tasks.into_iter().enumerate());
        self.shared.work_ready.notify_all();
        loop {
            if let Some(payload) = round.panic.take() {
                // Stop handing out work and propagate the worker's panic.
                round.tasks.clear();
                drop(round);
                self.poisoned = true;
                resume_unwind(payload);
            }
            if round.pending == 0 {
                break;
            }
            round = self
                .shared
                .round_done
                .wait(round)
                .expect("steal pool lock poisoned");
        }
        std::mem::take(&mut round.results)
            .into_iter()
            .map(|r| r.expect("missing result"))
            .collect()
    }
}

impl<T, R> Drop for StealPool<T, R> {
    fn drop(&mut self) {
        {
            let mut round = self.shared.round.lock().expect("steal pool lock poisoned");
            round.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_results() {
        let mut pool: StealPool<u64, u64> = StealPool::new(3, |_| (), |_, x| x * 3);
        let out = pool.map((0..50).collect());
        assert_eq!(out, (0..50).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_rounds_reuse_workers_and_state() {
        // Per-worker counters persist across rounds: totals add up.
        let mut pool: StealPool<(), usize> = StealPool::new(
            3,
            |_| 0usize,
            |count, ()| {
                *count += 1;
                *count
            },
        );
        let mut total = 0usize;
        for _ in 0..5 {
            total += pool.map(vec![(); 12]).len();
        }
        assert_eq!(total, 60);
    }

    #[test]
    fn respects_thread_count() {
        let pool: StealPool<(), ()> = StealPool::new(2, |_| (), |_, ()| ());
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn empty_input() {
        let mut pool: StealPool<u32, u32> = StealPool::new(2, |_| (), |_, x| x);
        assert!(pool.map(vec![]).is_empty());
    }

    #[test]
    fn irregular_tasks_complete() {
        let mut pool: StealPool<u64, u64> = StealPool::new(
            2,
            |_| (),
            |_, x| {
                std::thread::sleep(std::time::Duration::from_micros(x * 50));
                x
            },
        );
        let tasks: Vec<u64> = (0..20).map(|i| if i % 5 == 0 { 40 } else { 1 }).collect();
        assert_eq!(pool.map(tasks.clone()), tasks);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _: StealPool<u32, u32> = StealPool::new(0, |_| (), |_, x| x);
    }

    #[test]
    #[should_panic(expected = "task exploded")]
    fn worker_panic_propagates_to_master() {
        // A crashing work function must fail the map call, not deadlock it.
        let mut pool: StealPool<u64, u64> = StealPool::new(
            2,
            |_| (),
            |_, x| {
                assert!(x != 3, "task exploded");
                x
            },
        );
        let _ = pool.map((0..8).collect());
    }
}
