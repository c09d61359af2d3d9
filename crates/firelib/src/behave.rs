//! Derived fire-behaviour outputs: reaction residence time, heat per unit
//! area, Byram's fireline intensity and flame length.
//!
//! fireLib computes these alongside the spread rate (`Fire_FlameScorch`
//! and friends); prediction systems report them to decision makers ("tools
//! for predicting the behavior of forest fires are of great interest for
//! decision-making in fire control", paper §I). They are not part of the
//! optimisation loop, but the examples and the report harness expose them
//! so a downstream user gets the full fireLib-equivalent surface.

use crate::combustion::FuelBed;
use crate::moisture::MoistureRegime;
use crate::spread::{no_wind_no_slope, wind_slope_max, SpreadInputs, SpreadVector};
use crate::SMIDGEN;

/// Fire behaviour summary at one point for one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FireBehaviour {
    /// Rate of spread at the head (ft/min).
    pub ros_head_fpm: f64,
    /// Reaction intensity (Btu/ft²/min).
    pub reaction_intensity: f64,
    /// Flame residence time (min), Anderson's `τ = 384/σ`.
    pub residence_time_min: f64,
    /// Heat per unit area (Btu/ft²): `I_R × τ`.
    pub heat_per_area: f64,
    /// Byram's fireline intensity at the head (Btu/ft/s):
    /// `I_B = H_A × ROS / 60`.
    pub byram_intensity: f64,
    /// Byram's flame length at the head (ft): `L = 0.45 × I_B^0.46`.
    pub flame_length_ft: f64,
}

/// Computes the derived behaviour numbers for a fuel bed under a moisture
/// regime and wind/slope inputs.
pub fn fire_behaviour(
    bed: &FuelBed,
    moisture: &MoistureRegime,
    inputs: &SpreadInputs,
) -> FireBehaviour {
    let vector = wind_slope_max(bed, moisture, inputs);
    let (_, rx_int) = no_wind_no_slope(bed, moisture);
    behaviour_from_vector(bed, rx_int, &vector)
}

/// The same computation when the spread vector is already available
/// (avoids re-deriving it in the per-cell reporting loops).
pub fn behaviour_from_vector(
    bed: &FuelBed,
    reaction_intensity: f64,
    vector: &SpreadVector,
) -> FireBehaviour {
    let residence = if bed.sigma > SMIDGEN {
        384.0 / bed.sigma
    } else {
        0.0
    };
    let hpa = reaction_intensity * residence;
    let byram = hpa * vector.ros_max / 60.0;
    let flame = if byram > SMIDGEN {
        0.45 * byram.powf(0.46)
    } else {
        0.0
    };
    FireBehaviour {
        ros_head_fpm: vector.ros_max,
        reaction_intensity,
        residence_time_min: residence,
        heat_per_area: hpa,
        byram_intensity: byram,
        flame_length_ft: flame,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::FuelCatalog;
    use crate::MPH_TO_FPM;

    fn bed(n: u8) -> FuelBed {
        FuelBed::new(FuelCatalog::standard().model(n).unwrap())
    }

    fn windy(mph: f64) -> SpreadInputs {
        SpreadInputs {
            wind_fpm: mph * MPH_TO_FPM,
            wind_azimuth: 0.0,
            ..SpreadInputs::calm()
        }
    }

    #[test]
    fn grass_flame_length_plausible() {
        // NFFL 1 at ~5 % moisture with a 5 mph wind: BEHAVE-style outputs
        // put flame length in the 1–6 ft band.
        let b = fire_behaviour(&bed(1), &MoistureRegime::moderate(), &windy(5.0));
        assert!(
            b.flame_length_ft > 1.0 && b.flame_length_ft < 8.0,
            "flame length {} ft",
            b.flame_length_ft
        );
        assert!(b.byram_intensity > 0.0);
    }

    #[test]
    fn chaparral_burns_hotter_than_grass() {
        // NFFL 4 carries ~20x the load of NFFL 1: far more heat per area
        // and a much longer flame.
        let g = fire_behaviour(&bed(1), &MoistureRegime::moderate(), &windy(8.0));
        let c = fire_behaviour(&bed(4), &MoistureRegime::moderate(), &windy(8.0));
        assert!(c.heat_per_area > 5.0 * g.heat_per_area);
        assert!(c.flame_length_ft > g.flame_length_ft);
    }

    #[test]
    fn residence_time_is_384_over_sigma() {
        let b1 = bed(1);
        let r = fire_behaviour(&b1, &MoistureRegime::moderate(), &SpreadInputs::calm());
        assert!((r.residence_time_min - 384.0 / 3500.0).abs() < 1e-12);
    }

    #[test]
    fn extinguished_bed_has_zero_outputs() {
        // 18 % fine dead moisture: past model 1's 12 % extinction.
        let damp = MoistureRegime::from_percent(18.0, 20.0, 22.0, 180.0, 180.0);
        let b = fire_behaviour(&bed(1), &damp, &windy(10.0));
        assert_eq!(b.byram_intensity, 0.0);
        assert_eq!(b.flame_length_ft, 0.0);
        assert_eq!(b.ros_head_fpm, 0.0);
    }

    #[test]
    fn wind_raises_intensity_via_ros() {
        let calm = fire_behaviour(&bed(1), &MoistureRegime::moderate(), &SpreadInputs::calm());
        let gale = fire_behaviour(&bed(1), &MoistureRegime::moderate(), &windy(15.0));
        // Heat per area is wind-independent; Byram's intensity scales with
        // the head ROS.
        assert!((calm.heat_per_area - gale.heat_per_area).abs() < 1e-9);
        assert!(gale.byram_intensity > 5.0 * calm.byram_intensity);
    }

    #[test]
    fn flame_length_monotone_in_intensity() {
        let mut last = 0.0;
        for mph in [0.0, 4.0, 8.0, 16.0] {
            let b = fire_behaviour(&bed(4), &MoistureRegime::moderate(), &windy(mph));
            assert!(b.flame_length_ft >= last);
            last = b.flame_length_ft;
        }
    }
}
