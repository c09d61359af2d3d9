//! Adversarial invariant drivers for the fire propagation core.
//!
//! Randomized (but seeded) terrain/scenario generation hammers the three
//! properties every consumer of `firelib` leans on:
//!
//! 1. **Physical sanity** — spread rates and the active-front bound are
//!    finite and non-negative for every valid input, including the
//!    extreme corners ([`hostile_ros_sweep`]): hurricane winds, near-cliff
//!    slopes, moistures past extinction.
//! 2. **Arrival-map sanity** — every simulated cell is either
//!    `UNIGNITED` or a finite time inside `[t0, t0 + duration]`.
//! 3. **Kernel equivalence** — every kernel is *bit-identical* to the
//!    reference heap. That is stated once, as firelib's generated kernel
//!    conformance matrix (`firelib/src/sim/tests/conformance.rs`); the
//!    drivers here audit the bucket kernel's rasters for property 2 on an
//!    arena reused dirty between draws.
//!
//! A fourth driver, [`verify_raster_shortcuts`], holds the two places the
//! serve path skips raster-proportional work against the definitions they
//! shortcut: the bucketed Voronoi mosaic against an all-sites scan, and
//! the span-bounded `StepContext::fitness_with` against the full-raster
//! Jaccard of the same arrival map.
//!
//! The monotone-pop invariant inside the kernels themselves is asserted
//! by `debug_assertions`-gated checks in `firelib::sim`, so every
//! debug-mode run of these drivers doubles as a pop-order audit.

use ess::fitness::StepContext;
use firelib::{FireSim, Kernel, Scenario, Terrain};
use landscape::{jaccard_at_time, synth, FireLine, Grid, UNIGNITED};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Counters from one driver run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirelibStats {
    /// Random landscapes simulated.
    pub terrains: u64,
    /// Raster cells audited across all landscapes.
    pub cells: u64,
    /// Extreme-scenario spread-rate samples checked.
    pub ros_samples: u64,
}

/// A random but valid scenario; ranges cover the paper's calibration
/// space and then some.
fn gen_scenario(rng: &mut StdRng) -> Scenario {
    Scenario {
        model: rng.random_range(1..14u32) as u8,
        wind_speed_mph: rng.random_range(0.0..40.0),
        wind_dir_deg: rng.random_range(0.0..360.0),
        m1_pct: rng.random_range(1.0..25.0),
        m10_pct: rng.random_range(1.0..25.0),
        m100_pct: rng.random_range(1.0..30.0),
        mherb_pct: rng.random_range(30.0..200.0),
        slope_deg: rng.random_range(0.0..45.0),
        aspect_deg: rng.random_range(0.0..360.0),
    }
}

/// A random heterogeneous terrain: each override layer is present with
/// probability ~0.7, so the shared-table fast paths and fully layered
/// per-cell tables both stay covered.
fn gen_terrain(rng: &mut StdRng) -> Terrain {
    let rows = rng.random_range(5..28usize);
    let cols = rng.random_range(5..31usize);
    let mut terrain = Terrain::uniform(rows, cols, rng.random_range(30.0..150.0));
    if rng.random_bool(0.7) {
        terrain = terrain.with_fuel(Grid::from_fn(rows, cols, |_, _| {
            rng.random_range(0..14u32) as u8
        }));
    }
    if rng.random_bool(0.7) {
        terrain = terrain.with_slope(Grid::from_fn(rows, cols, |_, _| {
            rng.random_range(0.0..50.0)
        }));
    }
    if rng.random_bool(0.7) {
        terrain = terrain.with_aspect(Grid::from_fn(rows, cols, |_, _| {
            rng.random_range(0.0..360.0)
        }));
    }
    if rng.random_bool(0.7) {
        let speed = Grid::from_fn(rows, cols, |_, _| rng.random_range(0.0..2.5));
        let dir = Grid::from_fn(rows, cols, |_, _| rng.random_range(-120.0..120.0));
        terrain = terrain.with_wind(speed, dir);
    }
    terrain
}

/// 1–3 random ignition cells.
fn gen_ignition(rng: &mut StdRng, rows: usize, cols: usize) -> FireLine {
    let n = rng.random_range(1..4usize);
    let cells: Vec<(usize, usize)> = (0..n)
        .map(|_| (rng.random_range(0..rows), rng.random_range(0..cols)))
        .collect();
    FireLine::from_cells(rows, cols, &cells)
}

/// Simulates `terrains` random landscapes, two scenario draws each, and
/// audits bound sanity and arrival-map sanity on the bucket kernel (its
/// arena deliberately reused dirty between draws).
///
/// # Errors
/// A description of the first violated invariant, with the seed index
/// that reproduces it.
pub fn verify_firelib(seed: u64, terrains: u64) -> Result<FirelibStats, String> {
    let mut stats = FirelibStats::default();
    for i in 0..terrains {
        let mut rng = StdRng::seed_from_u64(seed ^ (i.wrapping_mul(0x9E3779B97F4A7C15)));
        let terrain = gen_terrain(&mut rng);
        let (rows, cols) = (terrain.rows(), terrain.cols());
        let sim = FireSim::new(terrain);
        let mut arena = sim.arena();
        // Two draws over one arena pair: the second run inherits the
        // first's dirty spans, exactly like a worker's steady state.
        for draw in 0..2 {
            let scenario = gen_scenario(&mut rng);
            let ignition = gen_ignition(&mut rng, rows, cols);
            let t0 = rng.random_range(0.0..30.0);
            let duration = rng.random_range(5.0..180.0);
            let label = format!("terrain {i} draw {draw} (seed {seed})");

            let bound = sim.spread_rate_bound(&scenario);
            if !bound.is_finite() || bound < 0.0 {
                return Err(format!("{label}: spread_rate_bound = {bound}"));
            }
            let ros = sim.max_ros(&scenario);
            if !ros.is_finite() || ros < 0.0 {
                return Err(format!("{label}: max_ros = {ros}"));
            }

            let map = sim.simulate_arena(&scenario, &ignition, t0, duration, &mut arena);
            for (idx, &t) in map.grid().as_slice().iter().enumerate() {
                stats.cells += 1;
                if t.to_bits() == UNIGNITED.to_bits() {
                    continue;
                }
                if !t.is_finite() || t < t0 || t > t0 + duration {
                    return Err(format!(
                        "{label}: cell {idx} arrival {t} outside [{t0}, {}]",
                        t0 + duration
                    ));
                }
            }
        }
        stats.terrains += 1;
    }
    Ok(stats)
}

/// Counters from [`verify_raster_shortcuts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortcutStats {
    /// Random mosaics compared cell by cell.
    pub mosaics: u64,
    /// Cells across those mosaics.
    pub mosaic_cells: u64,
    /// Span-bounded fitness values compared bit for bit.
    pub fitness_evals: u64,
}

/// The two raster shortcuts of the serve path against their definitions,
/// `rounds` random instances each.
///
/// *Mosaic*: `synth::voronoi_mosaic` (bucketed search) must give every
/// cell the code of the site an all-sites scan picks — minimum
/// `(r − sr)² + (c − sc)²`, first site on ties — over random shapes that
/// include single-row and single-column rasters and more sites than cells.
///
/// *Fitness*: on a random landscape with random (unrelated) `from` and
/// `target` lines, `StepContext::fitness_with` — seeded from the interval's
/// resolved seeds, scored over the arena's written spans — must equal
/// `jaccard_at_time` over the whole raster of the map it left in the
/// arena, for every kernel, on one arena that is reused dirty throughout.
///
/// # Errors
/// A description of the first divergence, with the round that reproduces
/// it.
pub fn verify_raster_shortcuts(seed: u64, rounds: u64) -> Result<ShortcutStats, String> {
    let mut stats = ShortcutStats::default();
    for i in 0..rounds {
        let mut rng = StdRng::seed_from_u64(seed ^ (i.wrapping_mul(0x9E3779B97F4A7C15)));

        let (rows, cols) = match i % 4 {
            0 => (1, rng.random_range(1..90usize)),
            1 => (rng.random_range(1..90usize), 1),
            _ => (rng.random_range(1..70usize), rng.random_range(1..70usize)),
        };
        let sites = rng.random_range(1..(2 * rows * cols + 2).min(160));
        let codes: Vec<u8> = (0..rng.random_range(1..200u32)).map(|k| k as u8).collect();
        let mosaic_seed = rng.random::<u64>();
        let site_list = synth::mosaic_sites(rows, cols, sites, &codes, mosaic_seed);
        let mosaic = synth::voronoi_mosaic(rows, cols, sites, &codes, mosaic_seed);
        for ((r, c), &code) in mosaic.iter_cells() {
            let mut best = (f64::INFINITY, 0u8);
            for &(sr, sc, k) in &site_list {
                let d = (r as f64 - sr) * (r as f64 - sr) + (c as f64 - sc) * (c as f64 - sc);
                if d < best.0 {
                    best = (d, k);
                }
            }
            if code != best.1 {
                return Err(format!(
                    "round {i} (seed {seed}): {rows}x{cols} mosaic of {sites} sites gives \
                     cell ({r},{c}) code {code}, the all-sites scan {}",
                    best.1
                ));
            }
        }
        stats.mosaics += 1;
        stats.mosaic_cells += (rows * cols) as u64;

        let terrain = gen_terrain(&mut rng);
        let (rows, cols) = (terrain.rows(), terrain.cols());
        let sim = Arc::new(FireSim::new(terrain));
        let mut arena = sim.arena();
        for draw in 0..2 {
            let from = gen_ignition(&mut rng, rows, cols);
            let target =
                FireLine::from_mask(Grid::from_fn(rows, cols, |_, _| rng.random_bool(0.3)));
            let t0 = rng.random_range(0.0..30.0);
            let t1 = t0 + rng.random_range(5.0..180.0);
            let scenario = gen_scenario(&mut rng);
            for kernel in [
                Kernel::Bucket,
                Kernel::Heap,
                Kernel::Tiled {
                    tile: 8,
                    workers: 2,
                },
            ] {
                let ctx = StepContext::new(Arc::clone(&sim), from.clone(), target.clone(), t0, t1)
                    .with_kernel(kernel);
                let spans = ctx.fitness_with(&scenario, &mut arena);
                let full = jaccard_at_time(&target, arena.map(), t1, Some(&from));
                if spans.to_bits() != full.to_bits() {
                    return Err(format!(
                        "round {i} draw {draw} (seed {seed}), {kernel}: span-bounded \
                         fitness {spans} vs full-raster {full}"
                    ));
                }
                stats.fitness_evals += 1;
            }
        }
    }
    Ok(stats)
}

/// Sweeps the spread math through extreme-but-valid corners on tiny
/// uniform terrains: calm and hurricane winds, flat ground and near
/// cliffs, bone-dry and past-extinction moistures. Every rate must be
/// finite and non-negative, and the active-front bound must dominate the
/// per-cell maximum.
///
/// # Errors
/// A description of the first non-finite, negative, or bound-violating
/// sample.
pub fn hostile_ros_sweep(seed: u64, samples: u64) -> Result<FirelibStats, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = FirelibStats::default();
    const WINDS: &[f64] = &[0.0, 0.01, 7.0, 60.0, 150.0];
    const SLOPES: &[f64] = &[0.0, 0.1, 30.0, 75.0, 89.0];
    for s in 0..samples {
        let scenario = Scenario {
            model: (s % 13 + 1) as u8,
            wind_speed_mph: WINDS[(s as usize / 13) % WINDS.len()],
            wind_dir_deg: rng.random_range(0.0..360.0),
            m1_pct: rng.random_range(0.5..60.0),
            m10_pct: rng.random_range(0.5..60.0),
            m100_pct: rng.random_range(0.5..60.0),
            mherb_pct: rng.random_range(5.0..250.0),
            slope_deg: SLOPES[(s as usize / 65) % SLOPES.len()],
            aspect_deg: rng.random_range(0.0..360.0),
        };
        let sim = FireSim::new(Terrain::uniform(2, 2, rng.random_range(10.0..300.0)));
        let ros = sim.max_ros(&scenario);
        let bound = sim.spread_rate_bound(&scenario);
        stats.ros_samples += 1;
        if !ros.is_finite() || ros < 0.0 {
            return Err(format!("sample {s}: max_ros = {ros} for {scenario:?}"));
        }
        if !bound.is_finite() || bound < 0.0 {
            return Err(format!("sample {s}: bound = {bound} for {scenario:?}"));
        }
        // The window-sizing bound must dominate the exact per-cell rate
        // (allowing only float slack — the kernels tolerate exactly this
        // much via their lazy fallback).
        if ros > bound * (1.0 + 1e-9) + 1e-9 {
            return Err(format!(
                "sample {s}: max_ros {ros} exceeds bound {bound} for {scenario:?}"
            ));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_landscapes_hold_all_invariants() {
        let stats = verify_firelib(0x5EED, 12).expect("invariants hold");
        assert_eq!(stats.terrains, 12);
        assert!(stats.cells > 2_000, "{stats:?}");
    }

    #[test]
    fn hostile_corners_stay_finite() {
        let stats = hostile_ros_sweep(0x5EED, 400).expect("rates stay sane");
        assert_eq!(stats.ros_samples, 400);
    }

    #[test]
    fn raster_shortcuts_match_their_definitions() {
        let stats = verify_raster_shortcuts(0x5EED, 16).expect("shortcuts are exact");
        assert_eq!(stats.mosaics, 16);
        assert_eq!(stats.fitness_evals, 16 * 2 * 3);
    }

    #[test]
    fn drivers_are_deterministic() {
        let a = verify_firelib(7, 3).unwrap();
        let b = verify_firelib(7, 3).unwrap();
        assert_eq!(a.cells, b.cells);
    }
}
