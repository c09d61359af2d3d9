//! The workload corpus: named, seeded, reproducible burn workloads.
//!
//! The paper's experiments run on one fixed burn case; a production
//! prediction engine must ingest *any* landscape. This module is the layer
//! that opens that door: a [`WorkloadSpec`] declares a landscape family
//! (fuel mosaic, relief, wind field), an ignition plan and a hidden truth,
//! and [`WorkloadSpec::build`] expands it — via the deterministic
//! generators in [`landscape::synth`] — into a concrete [`Workload`]:
//! terrain, ignition fire line, observation instants and per-interval truth
//! scenarios. Simulating the truth produces the synthetic "real fire"
//! reference maps, so every workload runs end-to-end through the full
//! calibration → prediction pipeline exactly like the hand-built cases.
//!
//! Everything is a pure function of the spec (including its `seed`), so a
//! named workload is bit-identical across machines and PRs — which is what
//! makes the per-workload benchmark JSON comparable over time.

use crate::combustion::standard_beds;
use crate::scenario::Scenario;
use crate::sim::FireSim;
use crate::terrain::Terrain;
use landscape::{synth, FireLine, Grid};
use std::sync::Arc;

/// How fuel is laid over the raster.
#[derive(Debug, Clone, PartialEq)]
pub enum FuelPattern {
    /// No override layer: every cell takes the fuel model of the scenario
    /// under evaluation (the paper's original setting).
    FromScenario,
    /// One fixed fuel model everywhere.
    Uniform(u8),
    /// A Voronoi patch mosaic cycling through `codes` (`0` patches act as
    /// firebreaks — lakes, rock, roads).
    Mosaic { sites: usize, codes: Vec<u8> },
}

/// Terrain relief.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Relief {
    /// Flat ground (slope/aspect come from the scenario).
    Flat,
    /// Fractal hills: a noise elevation field of the given amplitude (ft)
    /// and feature size (cells), converted to per-cell slope/aspect layers.
    Hills {
        /// Peak-to-valley elevation range, in feet.
        amplitude_ft: f64,
        /// Feature size of the base noise octave, in cells.
        feature_cells: f64,
    },
}

/// Near-surface wind structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindField {
    /// The scenario's global wind everywhere.
    FromScenario,
    /// Terrain-modulated wind: the scenario's speed is multiplied by a
    /// smooth factor field in `[min_factor, max_factor]` and its direction
    /// veered by up to `±veer_deg`.
    Gusty {
        /// Smallest local speed multiplier.
        min_factor: f64,
        /// Largest local speed multiplier.
        max_factor: f64,
        /// Maximum local direction offset (degrees, either sign).
        veer_deg: f64,
        /// Feature size of the gust field, in cells.
        feature_cells: f64,
    },
}

/// How the hidden truth evolves over the burn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TruthDrift {
    /// The same scenario generated every interval.
    Static(Scenario),
    /// Wind veers and strengthens step by step (the paper's §IV stress).
    VeeringWind {
        /// Truth of the first interval.
        base: Scenario,
        /// Direction change per step (degrees).
        deg_per_step: f64,
        /// Speed change per step (mph).
        mph_per_step: f64,
    },
}

impl TruthDrift {
    /// The truth scenario of interval `step`.
    pub fn at(&self, step: usize) -> Scenario {
        match *self {
            TruthDrift::Static(s) => s,
            TruthDrift::VeeringWind {
                base,
                deg_per_step,
                mph_per_step,
            } => Scenario {
                wind_dir_deg: landscape::geometry::normalize_azimuth(
                    base.wind_dir_deg + deg_per_step * step as f64,
                ),
                wind_speed_mph: (base.wind_speed_mph + mph_per_step * step as f64).clamp(0.0, 80.0),
                ..base
            },
        }
    }
}

/// A declarative, seeded description of one workload. Expanding it with
/// [`WorkloadSpec::build`] is deterministic: same spec, same workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Corpus key (report/JSON identifier).
    pub name: &'static str,
    /// Human description.
    pub description: &'static str,
    /// Raster rows.
    pub rows: usize,
    /// Raster columns.
    pub cols: usize,
    /// Cell side length (ft).
    pub cell_ft: f64,
    /// Master seed for every procedural layer.
    pub seed: u64,
    /// Fuel layout.
    pub fuel: FuelPattern,
    /// Relief layout.
    pub relief: Relief,
    /// Wind structure.
    pub wind: WindField,
    /// Number of ignition points.
    pub ignitions: usize,
    /// Number of observed intervals (instants = `steps + 1`; the pipeline
    /// needs at least 2 intervals).
    pub steps: usize,
    /// Interval length (minutes).
    pub step_minutes: f64,
    /// Hidden truth model.
    pub truth: TruthDrift,
}

impl WorkloadSpec {
    /// Expands the spec into a concrete workload (terrain + ignition +
    /// schedule + truth).
    ///
    /// # Panics
    /// Panics when the spec is degenerate (fewer than 2 steps, zero
    /// ignitions, or a mosaic without burnable codes).
    pub fn build(&self) -> Workload {
        assert!(self.steps >= 2, "a workload needs at least 2 intervals");
        assert!(self.ignitions > 0, "a workload needs at least one ignition");
        assert!(
            self.step_minutes.is_finite() && self.step_minutes > 0.0,
            "interval length must be positive"
        );

        let mut terrain = Terrain::uniform(self.rows, self.cols, self.cell_ft);
        match &self.fuel {
            FuelPattern::FromScenario => {}
            FuelPattern::Uniform(code) => {
                terrain = terrain.with_fuel(Grid::filled(self.rows, self.cols, *code));
            }
            FuelPattern::Mosaic { sites, codes } => {
                assert!(
                    codes.iter().any(|&c| c != 0),
                    "mosaic needs at least one burnable code"
                );
                terrain = terrain.with_fuel(synth::voronoi_mosaic(
                    self.rows, self.cols, *sites, codes, self.seed,
                ));
            }
        }
        if let Relief::Hills {
            amplitude_ft,
            feature_cells,
        } = self.relief
        {
            let elev = synth::rescale(
                &synth::noise_field(self.rows, self.cols, feature_cells, 3, self.seed ^ 0x51EE7),
                0.0,
                amplitude_ft,
            );
            let (slope, aspect) = synth::slope_aspect_from_elevation(&elev, self.cell_ft);
            terrain = terrain.with_slope(slope).with_aspect(aspect);
        }
        if let WindField::Gusty {
            min_factor,
            max_factor,
            veer_deg,
            feature_cells,
        } = self.wind
        {
            let speed = synth::rescale(
                &synth::noise_field(self.rows, self.cols, feature_cells, 2, self.seed ^ 0x817D),
                min_factor,
                max_factor,
            );
            let veer = synth::rescale(
                &synth::noise_field(self.rows, self.cols, feature_cells, 2, self.seed ^ 0x7EE2),
                -veer_deg,
                veer_deg,
            );
            terrain = terrain.with_wind(speed, veer);
        }

        let truth: Vec<Scenario> = (0..self.steps).map(|i| self.truth.at(i)).collect();
        let times: Vec<f64> = (0..=self.steps)
            .map(|i| i as f64 * self.step_minutes)
            .collect();
        let terrain = Arc::new(terrain);
        let ignition = place_ignitions(&terrain, self.ignitions, truth[0].model, self.seed);
        Workload {
            name: self.name,
            description: self.description,
            terrain,
            ignition,
            times,
            truth,
        }
    }

    /// A scaled-down copy for smoke runs: the raster is capped at
    /// `max_dim` per side but never below 16 — small enough for CI, large
    /// enough that every pattern still places its ignitions (mosaic site
    /// counts shrink with the area; ignition counts are kept, so
    /// multi-front workloads stay multi-front) — and the schedule at 3
    /// intervals. Names are preserved so quick runs report under the same
    /// keys.
    // lint: allow(unreached) — the CI-sized corpus of tests/workload_corpus.rs and the shrunk-corpus rows of the kernel conformance matrix in crates/firelib/src/sim/tests/conformance.rs
    pub fn shrunk(&self, max_dim: usize) -> WorkloadSpec {
        let dim = self.rows.max(self.cols);
        if dim <= max_dim && self.steps <= 3 {
            return self.clone();
        }
        let scale = (max_dim as f64 / dim as f64).min(1.0);
        let rows = ((self.rows as f64 * scale).round() as usize).max(16);
        let cols = ((self.cols as f64 * scale).round() as usize).max(16);
        let fuel = match &self.fuel {
            FuelPattern::Mosaic { sites, codes } => FuelPattern::Mosaic {
                // Keep at least one site per code so shrinking never drops a
                // pattern's later codes (e.g. a trailing firebreak code).
                sites: ((*sites as f64 * scale * scale).round() as usize)
                    .max(4)
                    .max(codes.len()),
                codes: codes.clone(),
            },
            other => other.clone(),
        };
        WorkloadSpec {
            rows,
            cols,
            fuel,
            steps: self.steps.min(3),
            ..self.clone()
        }
    }
}

/// A concrete, expanded workload: everything a burn case needs, bundled
/// with the machinery to generate its synthetic reference fire.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Corpus key.
    pub name: &'static str,
    /// Human description.
    pub description: &'static str,
    /// The landscape, shared read-only (workers clone the `Arc`, never the
    /// rasters).
    pub terrain: Arc<Terrain>,
    /// Initial fire line (possibly multi-point).
    pub ignition: FireLine,
    /// Observation instants `t_0 < … < t_steps` (minutes).
    pub times: Vec<f64>,
    /// Hidden truth, one scenario per interval.
    pub truth: Vec<Scenario>,
}

impl Workload {
    /// A simulator over this workload's (shared) terrain.
    pub fn sim(&self) -> FireSim {
        FireSim::shared(Arc::clone(&self.terrain))
    }

    /// The synthetic "real fire" of this workload: [`reference_lines`]
    /// from its ignition under its hidden truth.
    ///
    /// # Panics
    /// Panics when `truth` does not hold one scenario per interval.
    pub fn reference_lines(&self, sim: &FireSim) -> Vec<FireLine> {
        reference_lines(sim, &self.ignition, &self.times, &self.truth)
    }

    /// Fraction of cells whose fuel bed can burn under the first truth
    /// scenario (corpus validity: must be positive, or the workload is a
    /// rock garden).
    pub fn burnable_fraction(&self) -> f64 {
        let beds = standard_beds();
        let model = self.truth[0].model;
        let total = self.terrain.rows() * self.terrain.cols();
        let mut burnable = 0usize;
        for r in 0..self.terrain.rows() {
            for c in 0..self.terrain.cols() {
                if beds[self.terrain.fuel_at(r, c, model) as usize].burnable {
                    burnable += 1;
                }
            }
        }
        burnable as f64 / total as f64
    }
}

/// The synthetic "real fire": simulates `truth[i]` over each interval
/// `times[i]..times[i + 1]` from the fire line burned so far, accumulating
/// burned state (fire never regresses, and each run's map only covers its
/// own interval's growth), and returns one reference fire line per
/// instant — `reference[0]` is `ignition`.
///
/// # Panics
/// Panics when `truth` does not hold one scenario per interval.
pub fn reference_lines(
    sim: &FireSim,
    ignition: &FireLine,
    times: &[f64],
    truth: &[Scenario],
) -> Vec<FireLine> {
    assert_eq!(truth.len(), times.len() - 1, "one scenario per interval");
    let mut lines = Vec::with_capacity(times.len());
    let mut front = ignition.clone();
    let mut arena = sim.arena();
    for (i, scenario) in truth.iter().enumerate() {
        let dt = times[i + 1] - times[i];
        let map = sim.simulate_arena(scenario, &front, times[i], dt, &mut arena);
        let grown = front.union(&map.fire_line_at(times[i + 1]));
        lines.push(std::mem::replace(&mut front, grown));
    }
    lines.push(front);
    lines
}

/// Deterministically places `count` ignition points on burnable cells,
/// scattered by the seed (stride-probing from hashed start cells, so two
/// ignitions never coincide).
fn place_ignitions(terrain: &Terrain, count: usize, truth_model: u8, seed: u64) -> FireLine {
    let beds = standard_beds();
    let rows = terrain.rows();
    let cols = terrain.cols();
    let cells = rows * cols;
    // A stride coprime with the cell count visits every cell exactly once.
    let mut stride = (cells / 2 + 7) | 1;
    while gcd(stride, cells) != 1 {
        stride += 2;
    }
    let mut line = FireLine::empty(rows, cols);
    let mut placed = 0usize;
    let mut probe = (synth::mix(seed ^ 0x1617_1710) as usize) % cells;
    let mut visited = 0usize;
    while placed < count && visited < cells {
        let (r, c) = (probe / cols, probe % cols);
        let burnable = beds[terrain.fuel_at(r, c, truth_model) as usize].burnable;
        if burnable && !line.is_burned(r, c) {
            line.set_burned(r, c, true);
            placed += 1;
            // Re-hash so successive ignitions scatter instead of clustering
            // along the probe sequence.
            probe = (synth::mix(seed.wrapping_add((placed as u64).wrapping_mul(0x9E3779B97F4A7C15)))
                as usize)
                % cells;
            visited = 0;
            continue;
        }
        probe = (probe + stride) % cells;
        visited += 1;
    }
    assert!(
        placed == count,
        "could not place {count} ignitions on burnable ground"
    );
    line
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

fn dry_grass_truth() -> Scenario {
    Scenario {
        model: 1,
        wind_speed_mph: 7.0,
        wind_dir_deg: 90.0,
        m1_pct: 5.0,
        m10_pct: 7.0,
        m100_pct: 9.0,
        mherb_pct: 90.0,
        slope_deg: 0.0,
        aspect_deg: 0.0,
    }
}

/// 32×32 uniform short grass, single ignition — the smallest end-to-end
/// workload (smoke tests, CI).
pub fn meadow_small() -> WorkloadSpec {
    WorkloadSpec {
        name: "meadow_small",
        description: "32x32 uniform short grass, single ignition, static 7 mph easterly truth",
        rows: 32,
        cols: 32,
        cell_ft: 100.0,
        seed: 0xA11CE,
        fuel: FuelPattern::FromScenario,
        relief: Relief::Flat,
        wind: WindField::FromScenario,
        ignitions: 1,
        steps: 4,
        step_minutes: 15.0,
        truth: TruthDrift::Static(dry_grass_truth()),
    }
}

/// 96×96 Voronoi fuel mosaic (grass / timber-grass / chaparral / brush /
/// timber litter), single ignition — the canonical heterogeneous-fuel
/// workload, and the per-fuel spread-cache fast path.
pub fn patchwork_mosaic() -> WorkloadSpec {
    WorkloadSpec {
        name: "patchwork_mosaic",
        description: "96x96 five-fuel Voronoi mosaic, single ignition, static truth",
        rows: 96,
        cols: 96,
        cell_ft: 100.0,
        seed: 0xB0CA2,
        fuel: FuelPattern::Mosaic {
            sites: 40,
            codes: vec![1, 2, 4, 5, 10],
        },
        relief: Relief::Flat,
        wind: WindField::FromScenario,
        ignitions: 1,
        steps: 5,
        step_minutes: 20.0,
        truth: TruthDrift::Static(Scenario {
            wind_speed_mph: 8.0,
            ..dry_grass_truth()
        }),
    }
}

/// 112×112 fractal foothills: noise elevation → per-cell slope/aspect, fuel
/// from the scenario — relief without a fuel mosaic.
pub fn ridged_foothills() -> WorkloadSpec {
    WorkloadSpec {
        name: "ridged_foothills",
        description: "112x112 fractal foothills (DEM-derived slope/aspect), single ignition",
        rows: 112,
        cols: 112,
        cell_ft: 100.0,
        seed: 0xF007,
        fuel: FuelPattern::FromScenario,
        relief: Relief::Hills {
            amplitude_ft: 1200.0,
            feature_cells: 28.0,
        },
        wind: WindField::FromScenario,
        ignitions: 1,
        steps: 5,
        step_minutes: 18.0,
        truth: TruthDrift::Static(Scenario {
            model: 2,
            wind_speed_mph: 6.0,
            wind_dir_deg: 45.0,
            ..dry_grass_truth()
        }),
    }
}

/// 96×96 gusty two-fuel mosaic: a smooth wind-speed/veer field modulates
/// the scenario wind per cell — the spatially-varying-wind workload.
pub fn gusty_channel() -> WorkloadSpec {
    WorkloadSpec {
        name: "gusty_channel",
        description: "96x96 grass/tall-grass mosaic under a gusty, veering wind field",
        rows: 96,
        cols: 96,
        cell_ft: 100.0,
        seed: 0x6057,
        fuel: FuelPattern::Mosaic {
            sites: 24,
            codes: vec![1, 3],
        },
        relief: Relief::Flat,
        wind: WindField::Gusty {
            min_factor: 0.4,
            max_factor: 1.8,
            veer_deg: 35.0,
            feature_cells: 20.0,
        },
        ignitions: 1,
        steps: 5,
        step_minutes: 15.0,
        truth: TruthDrift::Static(Scenario {
            wind_speed_mph: 9.0,
            wind_dir_deg: 180.0,
            ..dry_grass_truth()
        }),
    }
}

/// 64×64 two simultaneous ignition fronts under a veering, strengthening
/// truth — multi-ignition plus the §IV drift stress.
pub fn twin_fronts() -> WorkloadSpec {
    WorkloadSpec {
        name: "twin_fronts",
        description: "64x64 grass, two ignition fronts, wind veers 90 degrees over the burn",
        rows: 64,
        cols: 64,
        cell_ft: 100.0,
        seed: 0x271,
        fuel: FuelPattern::FromScenario,
        relief: Relief::Flat,
        wind: WindField::FromScenario,
        ignitions: 2,
        steps: 5,
        step_minutes: 12.0,
        truth: TruthDrift::VeeringWind {
            base: Scenario {
                wind_speed_mph: 6.0,
                wind_dir_deg: 0.0,
                ..dry_grass_truth()
            },
            deg_per_step: 22.5,
            mph_per_step: 1.2,
        },
    }
}

/// 80×80 mosaic threaded with unburnable patches (rock, water): fire must
/// route around firebreaks, two fronts.
pub fn firebreak_maze() -> WorkloadSpec {
    WorkloadSpec {
        name: "firebreak_maze",
        description: "80x80 fuel mosaic threaded with unburnable rock/water patches, two fronts",
        rows: 80,
        cols: 80,
        cell_ft: 100.0,
        seed: 0xBEA7,
        fuel: FuelPattern::Mosaic {
            sites: 64,
            codes: vec![1, 2, 0, 4, 1, 2, 10, 0],
        },
        relief: Relief::Flat,
        wind: WindField::FromScenario,
        ignitions: 2,
        steps: 5,
        step_minutes: 25.0,
        truth: TruthDrift::Static(Scenario {
            wind_speed_mph: 8.0,
            wind_dir_deg: 135.0,
            ..dry_grass_truth()
        }),
    }
}

/// 200×200 island archipelago: a large mosaic with water gaps and three
/// ignition fronts — the corpus performance workload (the arena speedup
/// acceptance target).
pub fn archipelago_large() -> WorkloadSpec {
    WorkloadSpec {
        name: "archipelago_large",
        description: "200x200 island fuel archipelago with water gaps, three ignition fronts",
        rows: 200,
        cols: 200,
        cell_ft: 100.0,
        seed: 0xA2C4,
        fuel: FuelPattern::Mosaic {
            sites: 150,
            codes: vec![1, 2, 4, 10, 1, 2, 0],
        },
        relief: Relief::Flat,
        wind: WindField::FromScenario,
        ignitions: 3,
        steps: 4,
        step_minutes: 30.0,
        truth: TruthDrift::Static(Scenario {
            wind_speed_mph: 10.0,
            ..dry_grass_truth()
        }),
    }
}

/// The full named corpus, smallest first.
pub fn corpus() -> Vec<WorkloadSpec> {
    vec![
        meadow_small(),
        twin_fronts(),
        firebreak_maze(),
        patchwork_mosaic(),
        gusty_channel(),
        ridged_foothills(),
        archipelago_large(),
    ]
}

// ---------------------------------------------------------------------------
// The XL tier — Cell2Fire-class landscapes (≥ 1000×1000 cells)
// ---------------------------------------------------------------------------

/// 1000×1000 ridge-and-valley terrain: fractal DEM relief expanded into
/// per-cell slope/aspect layers (the fully heterogeneous, per-cell
/// spread-table path at landscape scale), single ignition so the burn stays
/// a compact front — a run's bookkeeping follows the rows it burns, not
/// the megacell raster.
pub fn ridge_valley_xl() -> WorkloadSpec {
    WorkloadSpec {
        name: "ridge_valley_xl",
        description: "1000x1000 ridge-valley DEM relief (per-cell slope/aspect), single ignition",
        rows: 1000,
        cols: 1000,
        cell_ft: 100.0,
        seed: 0x81D6E,
        fuel: FuelPattern::FromScenario,
        relief: Relief::Hills {
            amplitude_ft: 900.0,
            feature_cells: 64.0,
        },
        wind: WindField::FromScenario,
        ignitions: 1,
        steps: 3,
        step_minutes: 30.0,
        truth: TruthDrift::Static(Scenario {
            model: 2,
            wind_speed_mph: 6.0,
            wind_dir_deg: 45.0,
            ..dry_grass_truth()
        }),
    }
}

/// 1024×1024 fuel mosaic threaded with unburnable firebreak corridors
/// (code-0 patches) under a gusty wind field: fuel + wind override layers
/// together force the fully heterogeneous per-cell spread path at
/// landscape scale, with one front routing around the breaks.
pub fn breaks_mosaic_xl() -> WorkloadSpec {
    WorkloadSpec {
        name: "breaks_mosaic_xl",
        description: "1024x1024 gusty fuel mosaic with unburnable firebreak patches, one front",
        rows: 1024,
        cols: 1024,
        cell_ft: 100.0,
        seed: 0xB2EA5,
        fuel: FuelPattern::Mosaic {
            sites: 900,
            codes: vec![1, 2, 4, 0, 1, 10, 2, 0],
        },
        relief: Relief::Flat,
        wind: WindField::Gusty {
            min_factor: 0.5,
            max_factor: 1.4,
            veer_deg: 25.0,
            feature_cells: 90.0,
        },
        ignitions: 1,
        steps: 3,
        // Short intervals keep the active front (and so the bucket
        // kernel's dirty spans) a small fraction of the 1024² raster —
        // the short-duration-burn profile the arena is sized for.
        step_minutes: 15.0,
        truth: TruthDrift::Static(Scenario {
            wind_speed_mph: 8.0,
            wind_dir_deg: 135.0,
            ..dry_grass_truth()
        }),
    }
}

/// 1000×1200 (non-square) island archipelago with water gaps and four
/// scattered ignition fronts — multi-ignition at landscape scale on a
/// rows ≠ cols raster, so any row/col mix-up in the front-bounding code
/// shows up immediately.
pub fn archipelago_xl() -> WorkloadSpec {
    WorkloadSpec {
        name: "archipelago_xl",
        description: "1000x1200 island fuel archipelago with water gaps, four ignition fronts",
        rows: 1000,
        cols: 1200,
        cell_ft: 100.0,
        seed: 0xA2C4F,
        fuel: FuelPattern::Mosaic {
            sites: 1100,
            codes: vec![1, 2, 4, 10, 1, 2, 0],
        },
        relief: Relief::Flat,
        wind: WindField::FromScenario,
        ignitions: 4,
        steps: 3,
        step_minutes: 30.0,
        truth: TruthDrift::Static(Scenario {
            wind_speed_mph: 10.0,
            ..dry_grass_truth()
        }),
    }
}

/// The XL corpus tier, kept separate from [`corpus`]: these specs expand to
/// megacell rasters, so debug-mode test sweeps iterate [`corpus`] while the
/// landscape bench (and anything release-built) opts into the XL tier
/// explicitly.
pub fn xl_corpus() -> Vec<WorkloadSpec> {
    vec![ridge_valley_xl(), breaks_mosaic_xl(), archipelago_xl()]
}

/// XL-tier workload names, in tier order.
pub fn xl_names() -> Vec<&'static str> {
    xl_corpus().into_iter().map(|w| w.name).collect()
}

/// Corpus workload names, in corpus order (XL tier excluded; see
/// [`xl_names`]).
pub fn names() -> Vec<&'static str> {
    corpus().into_iter().map(|w| w.name).collect()
}

/// Fetches one spec by name, searching the standard corpus and then the XL
/// tier.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    corpus()
        .into_iter()
        .chain(xl_corpus())
        .find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_at_least_six_distinct_workloads() {
        let names = names();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert!(names.len() >= 6, "corpus too small: {}", names.len());
        assert_eq!(dedup.len(), names.len(), "duplicate workload names");
    }

    #[test]
    fn corpus_varies_the_advertised_axes() {
        let specs = corpus();
        let mosaics = specs
            .iter()
            .filter(|s| matches!(s.fuel, FuelPattern::Mosaic { .. }))
            .count();
        let winds = specs
            .iter()
            .filter(|s| matches!(s.wind, WindField::Gusty { .. }))
            .count();
        let multi = specs.iter().filter(|s| s.ignitions > 1).count();
        let sizes: std::collections::BTreeSet<usize> = specs.iter().map(|s| s.rows).collect();
        assert!(mosaics >= 3, "need fuel-mosaic variety");
        assert!(winds >= 1, "need a spatially varying wind workload");
        assert!(multi >= 2, "need multi-ignition workloads");
        assert!(sizes.len() >= 4, "need grid-size variety: {sizes:?}");
        assert!(specs.iter().any(|s| s.rows >= 200), "need the large grid");
    }

    #[test]
    fn build_is_deterministic() {
        let a = patchwork_mosaic().build();
        let b = patchwork_mosaic().build();
        assert_eq!(a.ignition, b.ignition);
        assert_eq!(a.times, b.times);
        assert_eq!(a.truth, b.truth);
        let sim_a = a.sim();
        let sim_b = b.sim();
        assert_eq!(a.reference_lines(&sim_a), b.reference_lines(&sim_b));
    }

    #[test]
    fn ignition_counts_match_spec() {
        for spec in corpus() {
            let w = spec.build();
            assert_eq!(
                w.ignition.burned_area(),
                spec.ignitions,
                "{}: wrong ignition count",
                spec.name
            );
        }
    }

    #[test]
    fn veering_truth_drifts() {
        let w = twin_fronts().build();
        assert!(w.truth[1].wind_dir_deg > w.truth[0].wind_dir_deg);
        assert!(w.truth[1].wind_speed_mph > w.truth[0].wind_speed_mph);
    }

    #[test]
    fn shrunk_caps_dimensions_and_keeps_name() {
        let big = archipelago_large();
        let small = big.shrunk(48);
        assert_eq!(small.name, big.name);
        assert!(small.rows <= 48 && small.cols <= 48);
        assert!(small.steps <= 3);
        // Small workload still builds and burns.
        let w = small.build();
        let sim = w.sim();
        let lines = w.reference_lines(&sim);
        assert!(lines.last().unwrap().burned_area() > w.ignition.burned_area());
    }

    #[test]
    fn lookup_by_name_round_trips() {
        for spec in corpus().into_iter().chain(xl_corpus()) {
            assert_eq!(by_name(spec.name).unwrap(), spec);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn xl_tier_covers_the_landscape_axes() {
        let specs = xl_corpus();
        assert!(specs.len() >= 3, "XL tier too small: {}", specs.len());
        for s in &specs {
            assert!(
                s.rows >= 1000 && s.cols >= 1000,
                "{}: not landscape-scale ({}x{})",
                s.name,
                s.rows,
                s.cols
            );
            assert!(
                !names().contains(&s.name),
                "{}: XL name collides with the standard corpus",
                s.name
            );
        }
        assert!(
            specs
                .iter()
                .any(|s| matches!(s.relief, Relief::Hills { .. })),
            "XL tier needs a DEM-relief (per-cell) workload"
        );
        assert!(
            specs.iter().any(|s| s.rows != s.cols),
            "XL tier needs a non-square raster"
        );
        assert!(
            specs.iter().any(|s| s.ignitions >= 3),
            "XL tier needs a scattered multi-ignition workload"
        );
    }

    #[test]
    fn xl_fuel_layers_are_pinned() {
        // FNV-1a over the fuel raster, recorded from the all-sites
        // nearest-site scan the mosaics were first generated with: the
        // bucketed search must reproduce every megacell layer byte for byte
        // (goldens and digests downstream depend on it).
        let fnv = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let pinned = [
            ("ridge_valley_xl", None),
            ("breaks_mosaic_xl", Some(0x8358_4b87_71ab_b60d)),
            ("archipelago_xl", Some(0xebc6_dc9a_60d6_82b8)),
        ];
        for (spec, (name, checksum)) in xl_corpus().iter().zip(pinned) {
            assert_eq!(spec.name, name);
            let layer = match &spec.fuel {
                FuelPattern::Mosaic { sites, codes } => Some(synth::voronoi_mosaic(
                    spec.rows, spec.cols, *sites, codes, spec.seed,
                )),
                _ => None,
            };
            assert_eq!(
                layer.map(|g| fnv(g.as_slice())),
                checksum,
                "{name}: fuel layer drifted"
            );
        }
    }

    #[test]
    fn xl_specs_build_and_burn_when_shrunk() {
        // Full-size XL builds are release-bench territory; the shrunk
        // copies exercise every generator parameter in debug time.
        for spec in xl_corpus() {
            let w = spec.shrunk(96).build();
            assert_eq!(w.ignition.burned_area(), spec.ignitions, "{}", spec.name);
            let sim = w.sim();
            let lines = w.reference_lines(&sim);
            assert!(
                lines.last().unwrap().burned_area() > w.ignition.burned_area(),
                "{}: shrunk workload did not burn",
                spec.name
            );
        }
    }
}
