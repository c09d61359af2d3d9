//! `essns-repro` — umbrella crate of the reproduction of
//! *"A Parallel Novelty Search Metaheuristic Applied to a Wildfire
//! Prediction System"* (Strappa, Caymes-Scutari & Bianchini, IPPS 2022).
//!
//! Re-exports every workspace crate so the examples and integration tests
//! have a single import root. Start with [`ess_ns`] (the paper's
//! contribution: Algorithm 1 and the ESS-NS system), then [`ess`] (the
//! prediction framework and baselines), [`ess_service`] (the serving
//! layer: sessions, snapshots, scheduling policies, the protocol-v2
//! serve loop), [`ess_client`] (the typed protocol-v2 client),
//! [`firelib`] (the fire simulator), [`evoalg`] (the EA substrate),
//! [`parworker`] (the Master/Worker engine) and [`landscape`] (rasters
//! and metrics).
//!
//! ```no_run
//! use essns_repro::ess::{cases, fitness::EvalBackend, pipeline::PredictionPipeline};
//! use essns_repro::ess_ns::EssNs;
//!
//! let case = cases::grass_uniform();
//! // Where scenarios are evaluated is the pipeline's choice; every backend
//! // yields bit-identical results, so this only changes wall time.
//! let pipeline = PredictionPipeline::new(EvalBackend::WorkerPool(2), 7);
//! let report = pipeline.run(&case, &mut EssNs::baseline());
//! println!("mean prediction quality: {:.3}", report.mean_quality());
//! ```

pub use ess;
pub use ess_client;
pub use ess_ns;
pub use ess_service;
pub use evoalg;
pub use firelib;
pub use landscape;
pub use parworker;
