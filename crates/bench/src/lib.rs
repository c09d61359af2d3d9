//! `ess-benches` — shared experiment machinery behind the `harness` binary
//! and the microbenchmarks.
//!
//! Every experiment in DESIGN.md §4 is a function here returning a
//! [`ess::report::TextTable`], so the harness can print it and write the
//! CSV, the benches can reuse the same workloads, and the integration
//! tests can assert on the *shape* of the results without duplicating
//! setup. The pipeline-driven experiments take a
//! [`parworker::EvalBackend`], surfaced on the harness CLI as
//! `--backend`; every backend yields bit-identical results, so backend
//! choice only moves wall time.

pub mod experiments;
pub mod microbench;
pub mod smoke;
