//! `ess-benches` — shared experiment machinery behind the `harness` binary
//! and the microbenchmarks.
//!
//! Every experiment of README § "Experiments" is a function here returning a
//! [`ess::report::TextTable`], so the harness can print it and write the
//! CSV, and `tests/paper_tables.rs` can regenerate the pinned tables
//! (under `golden/`) in-process. The pipeline-driven experiments are rows
//! of one [`experiments::Plan`], whose one pool is built from the
//! [`parworker::EvalBackend`] the harness CLI takes as `--backend`; every
//! backend yields bit-identical results, so backend choice only moves
//! wall time.

pub mod bench_row;
pub mod experiments;
pub mod microbench;
