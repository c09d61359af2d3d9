//! `parworker` — the parallel evaluation engine of the ESS systems, and
//! the home of the **unified batch-evaluation backend layer**.
//!
//! Every system in the ESS family parallelises the same thing: the
//! evaluation of scenarios ("the Master process only delegates the
//! simulation and evaluation of individuals to the Workers, since this is
//! the most demanding part of the prediction process", paper §III-A; "in a
//! first version, parallelism will only be implemented in the evaluation of
//! the scenarios", §III-B). The original systems use MPI processes; this
//! crate reproduces the communication patterns with OS threads and exposes
//! them behind one pluggable abstraction:
//!
//! * [`backend`] — the [`Backend`] trait (ordered batch map with
//!   per-worker state) and the [`EvalBackend`] runtime spec that builds
//!   one of the three interchangeable implementations below. This is the
//!   single seam between the metaheuristics and the hardware: algorithm
//!   code depends on the trait only, and backend choice is a config value.
//! * [`pool::WorkerPool`] — a persistent Master/Worker task farm. The
//!   master scatters indexed tasks over one `std::sync::mpsc` channel
//!   whose receiver the workers share behind a mutex; workers own
//!   per-worker mutable state (e.g. a simulator with scratch buffers),
//!   compute, and send results back; the master gathers and reorders.
//! * [`steal::StealPool`] — the same contract with work-stealing
//!   scheduling (idle workers pull from a shared bag), used to compare
//!   scheduling strategies in the benches.
//! * [`backend::SerialBackend`] — the in-master 1-worker baseline of E3.
//! * [`chunk::scoped_for_each_mut`] — StealPool's dynamic scheduling over
//!   borrowed, mutable items; its one caller is the tiled fire kernel.
//! * [`stats`] — wall-clock / busy-time instrumentation feeding the
//!   speedup experiment (E3).

pub mod backend;
pub mod chunk;
pub mod pool;
pub mod stats;
pub mod steal;

pub use backend::{Backend, EvalBackend, ParseBackendError, SerialBackend};
pub use chunk::scoped_for_each_mut;
pub use pool::WorkerPool;
pub use stats::{PoolStats, SpeedupRow, Stopwatch};
pub use steal::StealPool;
