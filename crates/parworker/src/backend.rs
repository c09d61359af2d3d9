//! The unified batch-evaluation backend layer.
//!
//! Every system in the ESS family parallelises exactly one thing: mapping a
//! batch of tasks (scenarios) to results (fitness values) on a pool of
//! workers that own reusable private state (a simulator with scratch
//! rasters). This module is the single abstraction for that operation:
//!
//! * [`Backend`] — the object-safe batch-map contract. All implementations
//!   return results **in submission order** and compute each result with
//!   the same work function, so for a pure work function every backend
//!   produces bit-identical outputs for the same input batch.
//! * [`EvalBackend`] — the runtime *specification* of a backend (a plain
//!   config value: serial, Master/Worker farm of `n`, work stealing over
//!   `n`). [`EvalBackend::build`] turns a spec plus a state factory and a
//!   work function into a running [`Backend`]. Specs parse from strings
//!   (`"serial"`, `"worker-pool:4"`, `"rayon:4"`), so CLIs and config files
//!   can select backends without code changes.
//!
//! Consumers (the `ess` crate's `ScenarioEvaluator`, the bench harness)
//! hold a `Box<dyn Backend<T, R>>` and never know which strategy runs
//! underneath — swapping backends is a config edit, not a refactor.

use crate::pool::WorkerPool;
use crate::steal::StealPool;
use std::fmt;
use std::str::FromStr;

/// Object-safe batch evaluation: maps an owned task batch to results in
/// submission order. `&mut self` serialises rounds (worker state is
/// per-round exclusive).
pub trait Backend<T: Send, R: Send>: Send {
    /// Evaluates every task; `result[i]` corresponds to `tasks[i]`.
    fn map(&mut self, tasks: Vec<T>) -> Vec<R>;

    /// Human-readable backend name for reports.
    fn name(&self) -> String;

    /// Degree of parallelism (1 for serial).
    fn workers(&self) -> usize;
}

/// Boxed backends are backends (the default dynamic configuration).
impl<T: Send, R: Send> Backend<T, R> for Box<dyn Backend<T, R>> {
    fn map(&mut self, tasks: Vec<T>) -> Vec<R> {
        (**self).map(tasks)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn workers(&self) -> usize {
        1.max((**self).workers())
    }
}

/// The in-master serial backend: one private state, tasks evaluated in a
/// plain loop (the 1-worker baseline of experiment E3).
pub struct SerialBackend<S, F> {
    state: S,
    work: F,
}

impl<S, F> SerialBackend<S, F> {
    /// Builds the backend around one worker state and the work function.
    pub fn new<T, R>(state: S, work: F) -> Self
    where
        F: Fn(&mut S, T) -> R,
    {
        Self { state, work }
    }
}

impl<T, R, S, F> Backend<T, R> for SerialBackend<S, F>
where
    T: Send,
    R: Send,
    S: Send,
    F: Fn(&mut S, T) -> R + Send,
{
    fn map(&mut self, tasks: Vec<T>) -> Vec<R> {
        tasks
            .into_iter()
            .map(|t| (self.work)(&mut self.state, t))
            .collect()
    }

    fn name(&self) -> String {
        "serial".to_string()
    }

    fn workers(&self) -> usize {
        1
    }
}

impl<T: Send + 'static, R: Send + 'static> Backend<T, R> for WorkerPool<T, R> {
    fn map(&mut self, tasks: Vec<T>) -> Vec<R> {
        WorkerPool::map(self, tasks)
    }

    fn name(&self) -> String {
        format!("worker-pool({})", WorkerPool::workers(self))
    }

    fn workers(&self) -> usize {
        WorkerPool::workers(self)
    }
}

impl<T: Send + 'static, R: Send + 'static> Backend<T, R> for StealPool<T, R> {
    fn map(&mut self, tasks: Vec<T>) -> Vec<R> {
        StealPool::map(self, tasks)
    }

    fn name(&self) -> String {
        format!("rayon({})", StealPool::workers(self))
    }

    fn workers(&self) -> usize {
        StealPool::workers(self)
    }
}

/// Which execution backend evaluates batches — a plain runtime config
/// value. Build the running backend with [`EvalBackend::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalBackend {
    /// Single-threaded, in the master (the 1-worker baseline of E3).
    Serial,
    /// The persistent Master/Worker channel farm with this many workers
    /// (the paper's deployment model).
    WorkerPool(usize),
    /// The work-stealing pool with this many threads (scheduling
    /// comparison point; historically backed by the rayon crate, now the
    /// dependency-free [`StealPool`] with the same dynamic scheduling).
    Rayon(usize),
}

impl EvalBackend {
    /// Human-readable backend name for reports.
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// Degree of parallelism the spec asks for.
    pub fn workers(&self) -> usize {
        match self {
            EvalBackend::Serial => 1,
            EvalBackend::WorkerPool(n) | EvalBackend::Rayon(n) => (*n).max(1),
        }
    }

    /// Instantiates the backend: `state_factory(worker_id)` builds each
    /// worker's private state once, `work(&mut state, task)` evaluates one
    /// task. All three strategies run the *same* work function, so a pure
    /// `work` makes their outputs bit-identical.
    ///
    /// # Panics
    /// Panics when a parallel spec has zero workers.
    pub fn build<T, R, S, F, W>(self, state_factory: F, work: W) -> Box<dyn Backend<T, R>>
    where
        T: Send + 'static,
        R: Send + 'static,
        S: Send + 'static,
        F: Fn(usize) -> S + Send + Sync + 'static,
        W: Fn(&mut S, T) -> R + Send + Sync + 'static,
    {
        match self {
            EvalBackend::Serial => Box::new(SerialBackend::new(state_factory(0), work)),
            EvalBackend::WorkerPool(n) => Box::new(WorkerPool::new(n, state_factory, work)),
            EvalBackend::Rayon(n) => Box::new(StealPool::new(n, state_factory, work)),
        }
    }
}

impl fmt::Display for EvalBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalBackend::Serial => write!(f, "serial"),
            EvalBackend::WorkerPool(n) => write!(f, "worker-pool({n})"),
            EvalBackend::Rayon(n) => write!(f, "rayon({n})"),
        }
    }
}

/// Error from parsing an [`EvalBackend`] spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError(String);

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid backend '{}' (expected serial | worker-pool:N | rayon:N)",
            self.0
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for EvalBackend {
    type Err = ParseBackendError;

    /// Parses `serial`, `worker-pool:N` and `rayon:N`. The `Display` form
    /// `worker-pool(N)` / `rayon(N)` is accepted too, so backend names
    /// printed in reports round-trip back through configs.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let spec = s.trim();
        if spec.eq_ignore_ascii_case("serial") {
            return Ok(EvalBackend::Serial);
        }
        let (kind, count) = match spec.strip_suffix(')').and_then(|p| p.split_once('(')) {
            Some(pair) => pair,
            None => spec
                .split_once(':')
                .ok_or_else(|| ParseBackendError(s.into()))?,
        };
        let n: usize = count
            .trim()
            .parse()
            .map_err(|_| ParseBackendError(s.into()))?;
        if n == 0 {
            return Err(ParseBackendError(s.into()));
        }
        match kind.trim().to_ascii_lowercase().as_str() {
            "worker-pool" => Ok(EvalBackend::WorkerPool(n)),
            "rayon" => Ok(EvalBackend::Rayon(n)),
            _ => Err(ParseBackendError(s.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doubled_by(backend: EvalBackend) -> Vec<u64> {
        let mut b = backend.build(|_| (), |_: &mut (), x: u64| x * 2);
        b.map((0..40).collect())
    }

    #[test]
    fn all_backends_agree_on_a_pure_function() {
        let expected: Vec<u64> = (0..40).map(|x| x * 2).collect();
        for backend in [
            EvalBackend::Serial,
            EvalBackend::WorkerPool(3),
            EvalBackend::Rayon(3),
        ] {
            assert_eq!(doubled_by(backend), expected, "{backend} diverged");
        }
    }

    #[test]
    fn per_worker_state_is_built_per_worker() {
        // Worker ids seed the state; the result set must only contain ids
        // below the worker count.
        let mut b = EvalBackend::WorkerPool(3).build(|wid| wid, |wid: &mut usize, _: ()| *wid);
        let seen = b.map(vec![(); 64]);
        assert!(seen.iter().all(|&w| w < 3));
    }

    #[test]
    fn names_and_workers() {
        assert_eq!(EvalBackend::Serial.name(), "serial");
        assert_eq!(EvalBackend::WorkerPool(4).name(), "worker-pool(4)");
        assert_eq!(EvalBackend::Rayon(2).name(), "rayon(2)");
        assert_eq!(EvalBackend::Serial.workers(), 1);
        assert_eq!(EvalBackend::WorkerPool(4).workers(), 4);
        let built = EvalBackend::Rayon(2).build(|_| (), |_: &mut (), x: u8| x);
        assert_eq!(Backend::<u8, u8>::name(&built), "rayon(2)");
        assert_eq!(Backend::<u8, u8>::workers(&built), 2);
    }

    #[test]
    fn specs_parse_from_strings() {
        assert_eq!(
            "serial".parse::<EvalBackend>().unwrap(),
            EvalBackend::Serial
        );
        assert_eq!(
            "SERIAL".parse::<EvalBackend>().unwrap(),
            EvalBackend::Serial
        );
        assert_eq!(
            "worker-pool:4".parse::<EvalBackend>().unwrap(),
            EvalBackend::WorkerPool(4)
        );
        assert_eq!(
            "rayon:2".parse::<EvalBackend>().unwrap(),
            EvalBackend::Rayon(2)
        );
        // One spelling per backend: the retired aliases are errors.
        for rejected in [
            "pool:2",
            "master-worker:2",
            "mw:8",
            "steal:3",
            "bogus",
            "rayon:0",
            "worker-pool:x",
        ] {
            assert!(rejected.parse::<EvalBackend>().is_err(), "{rejected}");
        }
    }

    #[test]
    fn display_form_parses_back() {
        // Names printed in reports (e.g. the E3 table) are valid specs.
        for backend in [
            EvalBackend::Serial,
            EvalBackend::WorkerPool(4),
            EvalBackend::Rayon(2),
        ] {
            assert_eq!(backend.to_string().parse::<EvalBackend>().unwrap(), backend);
        }
        assert!("worker-pool()".parse::<EvalBackend>().is_err());
        assert!("(4)".parse::<EvalBackend>().is_err());
    }

    #[test]
    fn display_round_trips_through_name() {
        for backend in [
            EvalBackend::Serial,
            EvalBackend::WorkerPool(2),
            EvalBackend::Rayon(5),
        ] {
            assert_eq!(backend.to_string(), backend.name());
        }
    }
}
