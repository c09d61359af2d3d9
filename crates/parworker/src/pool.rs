//! The persistent Master/Worker task farm.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::PoolStats;

/// A persistent Master/Worker pool.
///
/// The master (the thread calling [`WorkerPool::map`]) scatters indexed
/// tasks onto one channel whose receiver the workers share; each worker
/// owns mutable per-worker state built once by the state factory (the
/// fire-prediction systems put a simulator with reusable scratch rasters
/// there), computes results, and sends them back tagged with their index;
/// the master gathers and restores submission order. This mirrors the OS-Master / OS-Worker split of
/// Figs. 1 and 3.
///
/// Workers live until the pool is dropped, so repeated generations of an
/// evolutionary run reuse the same threads and state — no per-generation
/// spawn cost, which matters for the E3 speedup measurements.
pub struct WorkerPool<T, R> {
    task_tx: Option<Sender<(usize, T)>>,
    result_rx: Receiver<(usize, std::thread::Result<R>)>,
    handles: Vec<JoinHandle<()>>,
    busy_nanos: Arc<Vec<AtomicU64>>,
    tasks_done: Arc<Vec<AtomicU64>>,
    workers: usize,
    poisoned: bool,
}

impl<T: Send + 'static, R: Send + 'static> WorkerPool<T, R> {
    /// Spawns `workers` threads. `state_factory(worker_id)` builds each
    /// worker's private state; `work(&mut state, task)` evaluates one task.
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    #[expect(
        clippy::expect_used,
        reason = "spawn failure and channel hangup only follow OS exhaustion or a worker panic; amplifying them is the pool's designed failure mode"
    )]
    pub fn new<S, F, W>(workers: usize, state_factory: F, work: W) -> Self
    where
        S: Send + 'static,
        F: Fn(usize) -> S + Send + Sync + 'static,
        W: Fn(&mut S, T) -> R + Send + Sync + 'static,
    {
        assert!(workers > 0, "a worker pool needs at least one worker");
        let (task_tx, task_rx) = channel::<(usize, T)>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let (result_tx, result_rx) = channel::<(usize, std::thread::Result<R>)>();
        let busy_nanos: Arc<Vec<AtomicU64>> =
            Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());
        let tasks_done: Arc<Vec<AtomicU64>> =
            Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());
        let work = Arc::new(work);
        let state_factory = Arc::new(state_factory);

        let mut handles = Vec::with_capacity(workers);
        for wid in 0..workers {
            let task_rx = Arc::clone(&task_rx);
            let result_tx = result_tx.clone();
            let work = Arc::clone(&work);
            let state_factory = Arc::clone(&state_factory);
            let busy = Arc::clone(&busy_nanos);
            let done = Arc::clone(&tasks_done);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("parworker-{wid}"))
                    .spawn(move || {
                        let mut state = state_factory(wid);
                        loop {
                            // The guard drops at the end of this statement,
                            // so peers take tasks while this one runs. The
                            // loop ends when the Sender is dropped (pool
                            // shutdown) or a peer poisoned the lock.
                            let next = match task_rx.lock() {
                                Ok(rx) => rx.recv(),
                                Err(_) => break,
                            };
                            let Ok((idx, task)) = next else { break };
                            #[expect(
                                clippy::disallowed_methods,
                                reason = "per-task busy-time telemetry; never feeds back into results"
                            )]
                            let t = Instant::now();
                            // Catch panics so a crashing work function
                            // surfaces in the master instead of deadlocking
                            // its gather loop.
                            let result = catch_unwind(AssertUnwindSafe(|| work(&mut state, task)));
                            busy[wid].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            done[wid].fetch_add(1, Ordering::Relaxed);
                            let failed = result.is_err();
                            if result_tx.send((idx, result)).is_err() {
                                break; // master gone
                            }
                            if failed {
                                break; // state may be corrupt after unwind
                            }
                        }
                    })
                    .expect("failed to spawn worker thread"),
            );
        }
        Self {
            task_tx: Some(task_tx),
            result_rx,
            handles,
            busy_nanos,
            tasks_done,
            workers,
            poisoned: false,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Scatter `tasks` to the workers and gather the results in submission
    /// order. Takes `&mut self` so two concurrent `map` calls cannot
    /// interleave their result streams.
    ///
    /// # Panics
    /// Re-raises the first panic a worker's work function raised (the pool
    /// is then poisoned and must not be reused).
    #[expect(
        clippy::expect_used,
        reason = "hangup/poisoning only follow a worker panic; re-raising it here is the pool's designed failure mode"
    )]
    pub fn map(&mut self, tasks: Vec<T>) -> Vec<R> {
        assert!(
            !self.poisoned,
            "worker pool poisoned by an earlier worker panic"
        );
        let n = tasks.len();
        let tx = self.task_tx.as_ref().expect("pool already shut down");
        for (idx, task) in tasks.into_iter().enumerate() {
            tx.send((idx, task)).expect("worker pool hung up");
        }
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (idx, result) = self.result_rx.recv().expect("worker pool hung up");
            match result {
                Ok(r) => {
                    debug_assert!(slots[idx].is_none(), "duplicate result for task {idx}");
                    slots[idx] = Some(r);
                }
                Err(payload) => {
                    self.poisoned = true;
                    resume_unwind(payload);
                }
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("missing result"))
            .collect()
    }

    /// Cumulative per-worker instrumentation.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers,
            busy_nanos: self
                .busy_nanos
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            tasks_done: self
                .tasks_done
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl<T, R> Drop for WorkerPool<T, R> {
    fn drop(&mut self) {
        // Closing the task channel stops the workers' receive loops.
        self.task_tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the speed-up and busy-time tests time the pool against the clock"
)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_order() {
        let mut pool: WorkerPool<u64, u64> = WorkerPool::new(4, |_| (), |_, x| x * 2);
        let out = pool.map((0..100).collect());
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_maps_reuse_workers() {
        let mut pool: WorkerPool<u64, u64> = WorkerPool::new(2, |_| (), |_, x| x + 1);
        for round in 0..10u64 {
            let out = pool.map(vec![round, round + 1]);
            assert_eq!(out, vec![round + 1, round + 2]);
        }
        let stats = pool.stats();
        assert_eq!(stats.total_tasks(), 20);
    }

    #[test]
    fn worker_state_is_private_and_persistent() {
        // Each worker counts its own tasks in its private state; totals
        // must add up without any synchronisation in the work fn.
        let mut pool: WorkerPool<(), usize> = WorkerPool::new(
            3,
            |_| 0usize,
            |count, ()| {
                *count += 1;
                *count
            },
        );
        let results = pool.map(vec![(); 60]);
        // Private counters: the sum of the final per-worker counts equals 60.
        let stats = pool.stats();
        assert_eq!(stats.total_tasks(), 60);
        assert_eq!(results.len(), 60);
        // Every result is a positive per-worker sequence number.
        assert!(results.iter().all(|c| (1..=60).contains(c)));
    }

    #[test]
    fn state_factory_receives_worker_ids() {
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let mut pool: WorkerPool<(), ()> = WorkerPool::new(
            4,
            move |wid| {
                seen2.fetch_add(wid + 1, Ordering::SeqCst);
            },
            |_, ()| (),
        );
        let _ = pool.map(vec![(); 4]);
        // A worker that received no task may still be starting up; dropping
        // the pool joins every thread, guaranteeing all factories ran.
        drop(pool);
        // ids 0..4 → sum of (id+1) = 10.
        assert_eq!(seen.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let mut pool: WorkerPool<u32, u32> = WorkerPool::new(2, |_| (), |_, x| x);
        assert!(pool.map(vec![]).is_empty());
    }

    #[test]
    fn stats_track_busy_time() {
        let mut pool: WorkerPool<u64, u64> = WorkerPool::new(
            2,
            |_| (),
            |_, x| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                x
            },
        );
        let _ = pool.map((0..8).collect());
        let stats = pool.stats();
        assert!(
            stats.total_busy_nanos() >= 8 * 2_000_000,
            "busy time unmeasured"
        );
        assert_eq!(stats.total_tasks(), 8);
    }

    #[test]
    fn parallel_pool_beats_serial_on_coarse_tasks() {
        // 2 cores are guaranteed in CI here; use sleep-based tasks so the
        // comparison is scheduling-only and robust to load.
        let task_ms = 10u64;
        let tasks: Vec<u64> = vec![task_ms; 8];
        let work = |x: &u64| {
            std::thread::sleep(std::time::Duration::from_millis(*x));
            *x
        };
        let t = Instant::now();
        let _: Vec<u64> = tasks.iter().map(work).collect();
        let serial = t.elapsed();
        let mut pool: WorkerPool<u64, u64> = WorkerPool::new(
            2,
            |_| (),
            move |_, x| {
                std::thread::sleep(std::time::Duration::from_millis(x));
                x
            },
        );
        let t = Instant::now();
        let _ = pool.map(tasks);
        let parallel = t.elapsed();
        assert!(
            parallel < serial,
            "2-worker pool ({parallel:?}) should beat serial ({serial:?}) on sleep tasks"
        );
    }

    #[test]
    fn a_running_task_leaves_the_queue_free() {
        // Two tasks that can only finish together: each signals its
        // arrival, then waits for the other. A worker holding the
        // receiver's lock through its task keeps the peer from taking the
        // second one, and the bounded wait turns that into a panic.
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        let meet = Arc::new((Mutex::new(0u32), Condvar::new()));
        let mut pool: WorkerPool<u32, u32> = WorkerPool::new(
            2,
            |_| (),
            move |_, x| {
                let (arrived, cv) = &*meet;
                let mut n = arrived.lock().unwrap();
                *n += 1;
                cv.notify_all();
                let (n, wait) = cv
                    .wait_timeout_while(n, Duration::from_secs(5), |n| *n < 2)
                    .unwrap();
                assert!(
                    !wait.timed_out(),
                    "task {x} waited alone: the queue lock is held"
                );
                *n
            },
        );
        assert_eq!(pool.map(vec![0, 1]), vec![2, 2]);
    }

    #[test]
    fn many_more_tasks_than_workers_each_run_once_in_order() {
        let mut pool: WorkerPool<u64, u64> = WorkerPool::new(3, |_| (), |_, x| x * 3);
        let out = pool.map((0..1000).collect());
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(pool.stats().total_tasks(), 1000);
    }

    #[test]
    fn dropping_a_pool_of_parked_workers_returns() {
        let mut pool: WorkerPool<u32, u32> = WorkerPool::new(3, |_| (), |_, x| x);
        assert_eq!(pool.map(vec![1, 2, 3]), vec![1, 2, 3]);
        // Let every worker park on the empty queue before the drop.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(pool);
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("dropping the pool did not join its parked workers");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _: WorkerPool<u32, u32> = WorkerPool::new(0, |_| (), |_, x| x);
    }

    #[test]
    #[should_panic(expected = "task exploded")]
    fn worker_panic_propagates_to_master() {
        // A crashing work function must fail the map call, not deadlock it.
        let mut pool: WorkerPool<u64, u64> = WorkerPool::new(
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
