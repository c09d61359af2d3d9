//! Raster substrate for the ESS-NS wildfire prediction reproduction.
//!
//! The fire simulator, the statistical stage and every quality metric in the
//! ESS family of systems operate on *square-cell rasters* ("the map of the
//! field as a matrix of square cells", paper §III-B). This crate provides:
//!
//! * [`Grid`] — a generic row-major raster with 8-neighbour topology;
//! * [`IgnitionMap`] — per-cell ignition times, the output of one fire
//!   simulation ("a map indicating the time instant of ignition of each
//!   cell", paper §III-A);
//! * [`FireLine`] — the burned-cell set at a given instant (the `RFL`/`PFL`
//!   objects of Figs. 1–3), one bit per cell in row-major `u64` words, so
//!   its set operations, areas and Eq. (3) tallies work 64 cells at a time;
//! * [`ProbabilityMap`] — the aggregated ignition-probability matrix built by
//!   the Statistical Stage and thresholded by the Key Ignition Value, read
//!   by the later stages through a [`LevelHistogram`]; its counts live in
//!   page-sized chunks allocated where the folded runs burned;
//! * [`metrics::jaccard`] — the fitness function of Eq. (3), excluding
//!   pre-burned cells;
//! * [`synth`] — seeded procedural raster generators (noise fields, fuel
//!   mosaics, DEM-style slope/aspect) behind the workload corpus;
//! * ASCII raster rendering for the examples and the report harness.

pub mod firemap;
pub mod geometry;
pub mod grid;
pub mod io;
pub mod metrics;
pub mod perimeter;
pub mod probability;
pub mod synth;

pub use firemap::{FireLine, IgnitionMap, UNIGNITED};
pub use geometry::NEIGHBOUR_OFFSETS;
pub use grid::Grid;
pub use metrics::{jaccard, jaccard_at_time, tally_ranges, JaccardBreakdown};
pub use perimeter::{perimeter_cells, shape_stats, ShapeStats};
pub use probability::{LevelHistogram, Observed, ProbabilityMap};
