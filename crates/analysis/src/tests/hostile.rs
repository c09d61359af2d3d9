//! The spread math at its extreme-but-valid corners.
//!
//! Every consumer of `firelib` leans on finite, non-negative spread rates
//! and an active-front bound that dominates them: the kernels size their
//! reach window from the bound. [`hostile_ros_sweep`] drives both through
//! hurricane winds, near-cliff slopes and moistures past extinction. The
//! arrival rasters those rates produce are held to their horizon by
//! firelib's kernel conformance matrix (`firelib/src/sim/tests/`).

use super::SEED;
use firelib::{FireSim, Scenario, Terrain};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sweeps the spread math through extreme-but-valid corners on tiny
/// uniform terrains: calm and hurricane winds, flat ground and near
/// cliffs, bone-dry and past-extinction moistures. Every rate must be
/// finite and non-negative, and the active-front bound must dominate the
/// per-cell maximum.
///
/// # Errors
/// A description of the first non-finite, negative, or bound-violating
/// sample.
fn hostile_ros_sweep(seed: u64, samples: u64) -> Result<u64, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut checked = 0;
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
        checked += 1;
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
    Ok(checked)
}

#[test]
fn hostile_corners_stay_finite_and_under_the_bound() {
    let checked = hostile_ros_sweep(SEED ^ 0x4444, 845).expect("rates stay sane");
    assert_eq!(checked, 845);
}
