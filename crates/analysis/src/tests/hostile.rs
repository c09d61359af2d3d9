//! The spread math at its extreme-but-valid corners.
//!
//! Every consumer of `firelib` leans on finite, non-negative spread rates:
//! the kernels turn them into traversal times and arrivals.
//! [`hostile_ros_sweep`] drives them through hurricane winds, near-cliff
//! slopes and moistures past extinction. The arrival rasters those rates
//! produce are held to their horizon by firelib's kernel conformance
//! matrix (`firelib/src/sim/tests/`).

use super::SEED;
use firelib::combustion::standard_beds;
use firelib::spread::wind_slope_max;
use firelib::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sweeps the spread math through extreme-but-valid corners: calm and
/// hurricane winds, flat ground and near cliffs, bone-dry and
/// past-extinction moistures, every NFFL model. A cell's maximum rate and
/// its rate towards each of the eight neighbours must be finite and
/// non-negative.
///
/// # Errors
/// A description of the first non-finite or negative sample.
fn hostile_ros_sweep(seed: u64, samples: u64) -> Result<u64, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let beds = standard_beds();
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
        let bed = &beds[scenario.model as usize];
        let spread = wind_slope_max(bed, &scenario.moisture(), &scenario.spread_inputs());
        checked += 1;
        let mut rates = std::iter::once(spread.ros_max).chain(spread.compass_ros());
        if let Some(ros) = rates.find(|ros| !ros.is_finite() || *ros < 0.0) {
            return Err(format!("sample {s}: rate {ros} for {scenario:?}"));
        }
    }
    Ok(checked)
}

#[test]
fn hostile_corners_stay_finite() {
    let checked = hostile_ros_sweep(SEED ^ 0x4444, 845).expect("rates stay sane");
    assert_eq!(checked, 845);
}
