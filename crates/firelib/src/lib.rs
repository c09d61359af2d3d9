//! `firelib` — a from-scratch Rust reimplementation of the fire behaviour
//! library used by the ESS family of wildfire prediction systems.
//!
//! The paper (§III-A) uses **fireLib**, Collin Bevins' C library implementing
//! the Rothermel (1972) surface fire spread model with Albini's (1976)
//! refinements, the 13 NFFL fuel models, and cell-to-cell minimum-travel-time
//! propagation over a raster of square cells. This crate reproduces that
//! stack:
//!
//! * [`catalog`] — fuel particles and the standard 13-model NFFL catalog
//!   (Table I, first row: "Rothermel Fuel Model, 1–13");
//! * [`combustion`] — the moisture-independent fuel-bed intermediates that
//!   fireLib precomputes once per fuel model (σ, β, Γ, ξ, wind/slope factor
//!   coefficients);
//! * [`moisture`] — the dead/live moisture regime (`M1`, `M10`, `M100`,
//!   `Mherb` of Table I);
//! * [`spread`] — no-wind/no-slope rate of spread, wind & slope factors,
//!   direction of maximum spread and elliptical eccentricity, and the
//!   spread rate at an arbitrary azimuth;
//! * [`scenario`] — the 9-parameter input vector of Table I with ranges,
//!   units, validation, uniform sampling, and a normalised gene encoding
//!   used by every metaheuristic in the workspace;
//! * [`terrain`] — the raster landscape (cell size, optional per-cell fuel /
//!   slope / aspect overrides);
//! * [`sim`] — [`sim::FireSim`], the propagation engine: given a terrain, a
//!   scenario and an initial fire line it produces the per-cell ignition-time
//!   map ("another map indicating the time instant of ignition of each
//!   cell", §III-A).
//!
//! Units follow fireLib: feet, minutes, pounds, Btu. The public API converts
//! from the paper's units (miles/hour for wind, degrees for slope) at the
//! [`scenario::Scenario`] boundary.

pub mod behave;
pub mod catalog;
pub mod combustion;
pub mod moisture;
pub mod scenario;
pub mod sim;
pub mod spread;
pub mod terrain;
pub mod workload;

pub use behave::{fire_behaviour, FireBehaviour};
pub use catalog::{FuelCatalog, FuelLife, FuelModel, FuelParticle};
pub use combustion::FuelBed;
pub use moisture::MoistureRegime;
pub use scenario::{ParamDef, Scenario, ScenarioSpace, GENE_COUNT};
pub use sim::{BurnCount, FireSim, Kernel, RunKey, Seeds, SimArena, DEFAULT_TILE};
pub use spread::{SpreadInputs, SpreadVector};
pub use terrain::Terrain;
pub use workload::{Workload, WorkloadSpec};

/// Feet per minute in one mile per hour (fireLib's wind-speed conversion).
pub const MPH_TO_FPM: f64 = 88.0;

/// Value below which fireLib treats a quantity as zero.
pub const SMIDGEN: f64 = 1e-6;
