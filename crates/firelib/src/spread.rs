//! Rothermel spread-rate computation: no-wind/no-slope rate, wind & slope
//! factors, direction of maximum spread, elliptical eccentricity, and the
//! spread rate at an arbitrary azimuth (fireLib's `Fire_SpreadNoWindNoSlope`,
//! `Fire_SpreadWindSlopeMax` and `Fire_SpreadAtAzimuth`).

use crate::combustion::FuelBed;
use crate::moisture::MoistureRegime;
use crate::SMIDGEN;

/// Environmental inputs for one spread evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpreadInputs {
    /// Midflame wind speed (ft/min).
    pub wind_fpm: f64,
    /// Direction the wind blows **towards**, degrees clockwise from north.
    pub wind_azimuth: f64,
    /// Terrain slope as rise/reach (tan of the slope angle), ≥ 0.
    pub slope_steepness: f64,
    /// Downslope-facing direction (aspect), degrees clockwise from north.
    pub aspect_azimuth: f64,
}

impl SpreadInputs {
    /// Calm, flat conditions.
    // lint: allow(unreached) — the no-wind, no-slope input of crates/firelib/tests/properties.rs and the unit tests of crates/firelib/src/spread.rs and crates/firelib/src/behave.rs
    pub fn calm() -> Self {
        Self {
            wind_fpm: 0.0,
            wind_azimuth: 0.0,
            slope_steepness: 0.0,
            aspect_azimuth: 0.0,
        }
    }
}

/// The directional spread description of a fire front in one fuel cell:
/// Rothermel's maximum rate with Albini's elliptical shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpreadVector {
    /// No-wind, no-slope rate of spread (ft/min).
    pub ros0: f64,
    /// Maximum rate of spread (ft/min), down the wind/slope resultant.
    pub ros_max: f64,
    /// Azimuth of maximum spread, degrees clockwise from north.
    pub azimuth_max: f64,
    /// Eccentricity of the spread ellipse, `0 ≤ e < 1`.
    pub eccentricity: f64,
    /// Reaction intensity (Btu/ft²/min) — kept for the effective-wind cap
    /// and for reporting.
    pub reaction_intensity: f64,
    /// Effective wind speed (ft/min) implied by the combined factor.
    pub effective_wind_fpm: f64,
}

impl SpreadVector {
    /// A dead cell: nothing spreads.
    pub fn no_spread() -> Self {
        Self {
            ros0: 0.0,
            ros_max: 0.0,
            azimuth_max: 0.0,
            eccentricity: 0.0,
            reaction_intensity: 0.0,
            effective_wind_fpm: 0.0,
        }
    }

    /// Rate of spread (ft/min) in the direction `azimuth` (degrees clockwise
    /// from north): `ros_max × (1 − e) / (1 − e·cos(az − az_max))`
    /// (fireLib `Fire_SpreadAtAzimuth`).
    pub fn ros_at_azimuth(&self, azimuth: f64) -> f64 {
        if self.ros_max <= SMIDGEN {
            return 0.0;
        }
        let e = self.eccentricity;
        if e <= SMIDGEN {
            return self.ros_max;
        }
        let d = (azimuth - self.azimuth_max).to_radians();
        self.ros_max * (1.0 - e) / (1.0 - e * d.cos())
    }

    /// The spread rates at the eight compass azimuths (0°, 45°, …, 315°),
    /// the discretisation the cell propagation engine uses.
    pub fn compass_ros(&self) -> [f64; 8] {
        let mut out = [0.0; 8];
        for (i, v) in out.iter_mut().enumerate() {
            *v = self.ros_at_azimuth(45.0 * i as f64);
        }
        out
    }
}

/// No-wind, no-slope spread rate and reaction intensity
/// (fireLib `Fire_SpreadNoWindNoSlope`).
///
/// Returns `(ros0, reaction_intensity)` in (ft/min, Btu/ft²/min).
pub fn no_wind_no_slope(bed: &FuelBed, moisture: &MoistureRegime) -> (f64, f64) {
    if !bed.burnable {
        return (0.0, 0.0);
    }

    // Fine dead fuel moisture (load-and-ε weighted over dead particles).
    let mut wfmd = 0.0;
    for p in &bed.particles {
        if p.life.is_dead() {
            wfmd += p.load * p.epsilon * moisture.for_particle(p.life, p.savr);
        }
    }
    let fdmois = if bed.fine_dead > SMIDGEN {
        wfmd / bed.fine_dead
    } else {
        0.0
    };

    // Live extinction moisture (Albini 1976).
    let live_mext = if bed.live_mext_factor > SMIDGEN {
        let m = bed.live_mext_factor * (1.0 - fdmois / bed.mext_dead) - 0.226;
        m.max(bed.mext_dead)
    } else {
        0.0
    };

    // Per-life area-weighted moisture, moisture damping and heat sink.
    let mut life_moisture = [0.0f64; 3];
    let mut rb_qig = 0.0;
    for p in &bed.particles {
        let li = FuelBed::life_index(p.life);
        let m = moisture.for_particle(p.life, p.savr);
        life_moisture[li] += p.area_wtg * m;
        // Heat of preignition: Q_ig = 250 + 1116·M (Btu/lb).
        rb_qig += bed.life[li].area_wtg * p.area_wtg * p.epsilon * (250.0 + 1116.0 * m);
    }
    rb_qig *= bed.bulk_density;

    let mut rx_int = 0.0;
    for (li, (lf, &m)) in bed.life.iter().zip(&life_moisture).enumerate() {
        let mext = if li == 0 { bed.mext_dead } else { live_mext };
        if lf.rx_factor <= SMIDGEN {
            continue;
        }
        rx_int += lf.rx_factor * moisture_damping(m, mext);
    }

    let ros0 = if rb_qig > SMIDGEN {
        rx_int * bed.prop_flux / rb_qig
    } else {
        0.0
    };
    (ros0, rx_int)
}

/// Rothermel's moisture damping coefficient
/// `η_M = 1 − 2.59 r + 5.11 r² − 3.52 r³`, `r = min(1, M/M_x)`,
/// clamped to `[0, 1]`; zero at or beyond extinction.
pub fn moisture_damping(moisture: f64, mext: f64) -> f64 {
    if mext <= SMIDGEN {
        return 0.0;
    }
    let r = moisture / mext;
    if r >= 1.0 {
        return 0.0;
    }
    (1.0 - 2.59 * r + 5.11 * r * r - 3.52 * r * r * r).clamp(0.0, 1.0)
}

/// Combines wind and slope into the direction and magnitude of maximum
/// spread plus the ellipse eccentricity
/// (fireLib `Fire_SpreadWindSlopeMax` + eccentricity from the
/// length-to-width ratio).
pub fn wind_slope_max(
    bed: &FuelBed,
    moisture: &MoistureRegime,
    inputs: &SpreadInputs,
) -> SpreadVector {
    let (ros0, rx_int) = no_wind_no_slope(bed, moisture);
    wind_slope_from_ros0(bed, ros0, rx_int, inputs)
}

/// The wind/slope half of [`wind_slope_max`], taking a precomputed
/// `(ros0, rx_int)` pair from [`no_wind_no_slope`].
///
/// `no_wind_no_slope` iterates the bed's fuel particles and depends only
/// on the fuel code and the moisture regime — not on the cell — so a
/// per-cell sweep over a fuel mosaic can hoist it to one call per fuel
/// model and run just this function per cell (the `SimArena` SoA kernel).
/// [`wind_slope_max`] composes the two halves verbatim, so the split is
/// bit-identical by construction.
pub fn wind_slope_from_ros0(
    bed: &FuelBed,
    ros0: f64,
    rx_int: f64,
    inputs: &SpreadInputs,
) -> SpreadVector {
    if ros0 <= SMIDGEN {
        return SpreadVector::no_spread();
    }
    spread_from_factors(
        bed,
        (ros0, rx_int),
        wind_factor(bed, inputs.wind_fpm),
        slope_factor(bed, inputs.slope_steepness),
        inputs.wind_azimuth,
        crate::terrain::upslope_azimuth(inputs.aspect_azimuth),
    )
}

/// Rothermel's wind factor `φ_w = k·U^b` of `bed` at midflame wind
/// `wind_fpm` (ft/min); zero in calm air.
#[inline]
pub(crate) fn wind_factor(bed: &FuelBed, wind_fpm: f64) -> f64 {
    if wind_fpm <= SMIDGEN {
        0.0
    } else {
        bed.wind_k * wind_fpm.powf(bed.wind_b)
    }
}

/// Rothermel's slope factor `φ_s = k·tan²` of `bed` on a slope of
/// `steepness` (rise/reach); zero on the flat.
#[inline]
pub(crate) fn slope_factor(bed: &FuelBed, steepness: f64) -> f64 {
    if steepness <= SMIDGEN {
        0.0
    } else {
        bed.slope_k * steepness * steepness
    }
}

/// [`wind_slope_from_ros0`] from its factors: the hoisted `(ros0, rx_int)`
/// of `bed` (with `ros0 > SMIDGEN` — a caller answers the no-spread case
/// first), [`wind_factor`], [`slope_factor`], the wind azimuth and the
/// upslope azimuth ([`upslope_azimuth`](crate::terrain::upslope_azimuth)
/// of the aspect). Each input is the value that function computes, so a
/// caller that caches one — per fuel model, per run, per terrain — gets
/// the same vector bit for bit.
#[inline]
pub(crate) fn spread_from_factors(
    bed: &FuelBed,
    (ros0, rx_int): (f64, f64),
    phi_w: f64,
    phi_s: f64,
    wind_azimuth: f64,
    upslope: f64,
) -> SpreadVector {
    debug_assert!(ros0 > SMIDGEN, "no-spread bed reached the wind/slope math");
    // Situation analysis mirrors fireLib: combine the two virtual spread
    // vectors (slope along upslope, wind along wind_azimuth).
    let (mut ros_max, mut azimuth_max, mut phi_ew) = if phi_w <= SMIDGEN && phi_s <= SMIDGEN {
        (ros0, 0.0, 0.0)
    } else if phi_w <= SMIDGEN {
        (ros0 * (1.0 + phi_s), upslope, phi_s)
    } else if phi_s <= SMIDGEN {
        (ros0 * (1.0 + phi_w), wind_azimuth, phi_w)
    } else {
        // Both present: vector-add the slope and wind spread contributions.
        let slp_rate = ros0 * phi_s;
        let wnd_rate = ros0 * phi_w;
        let split = (wind_azimuth - upslope).to_radians();
        let x = slp_rate + wnd_rate * split.cos();
        let y = wnd_rate * split.sin();
        let rv = (x * x + y * y).sqrt();
        let ros_max = ros0 + rv;
        let phi_ew = ros_max / ros0 - 1.0;
        let mut az = upslope + y.atan2(x).to_degrees();
        az = landscape::geometry::normalize_azimuth(az);
        (ros_max, az, phi_ew)
    };

    // Effective wind speed implied by the combined factor, capped at
    // Rothermel's wind-speed limit 0.9·I_R.
    let mut eff_wind = if phi_ew > SMIDGEN && bed.wind_b > SMIDGEN {
        (phi_ew * bed.wind_e_inv).powf(1.0 / bed.wind_b)
    } else {
        0.0
    };
    let max_wind = 0.9 * rx_int;
    if eff_wind > max_wind {
        // Recompute the capped factor and maximum ROS.
        let phi_cap = if max_wind <= SMIDGEN {
            0.0
        } else {
            bed.wind_k * max_wind.powf(bed.wind_b)
        };
        eff_wind = max_wind;
        ros_max = ros0 * (1.0 + phi_cap);
        phi_ew = phi_cap;
        // Azimuth of maximum spread unchanged by the cap.
        let _ = phi_ew;
    }

    // Ellipse eccentricity from the length-to-width ratio
    // (Anderson 1983, as used by fireLib): L/W = 1 + 0.002840909·U_eff.
    let lw = 1.0 + 0.002840909 * eff_wind;
    let eccentricity = if lw > 1.0 + SMIDGEN {
        (lw * lw - 1.0).sqrt() / lw
    } else {
        0.0
    };

    azimuth_max = landscape::geometry::normalize_azimuth(azimuth_max);
    SpreadVector {
        ros0,
        ros_max,
        azimuth_max,
        eccentricity,
        reaction_intensity: rx_int,
        effective_wind_fpm: eff_wind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::FuelCatalog;

    fn bed(n: u8) -> FuelBed {
        FuelBed::new(FuelCatalog::standard().model(n).unwrap())
    }

    #[test]
    fn grass_no_wind_ros_in_plausible_range() {
        // NFFL 1 at 5 % fine dead moisture: BEHAVE reports a no-wind ROS of
        // a few ft/min (≈ 2–5). Assert the plausible band rather than one
        // decimal place, since published figures vary with rounding.
        let (ros0, rx) = no_wind_no_slope(&bed(1), &MoistureRegime::moderate());
        assert!(ros0 > 1.0 && ros0 < 10.0, "ros0 = {ros0}");
        assert!(rx > 100.0 && rx < 5000.0, "rx = {rx}");
    }

    #[test]
    fn ros_decreases_with_moisture() {
        let b = bed(1);
        let drought = MoistureRegime::from_percent(3.0, 4.0, 5.0, 70.0, 70.0);
        let dry = no_wind_no_slope(&b, &drought).0;
        let mid = no_wind_no_slope(&b, &MoistureRegime::moderate()).0;
        assert!(dry > mid, "dry {dry} vs moderate {mid}");
    }

    #[test]
    fn beyond_extinction_no_spread() {
        // Model 1 extinction is 12 %: 18 % dead moisture kills it.
        let b = bed(1);
        let damp = MoistureRegime::from_percent(18.0, 20.0, 22.0, 180.0, 180.0);
        assert!(no_wind_no_slope(&b, &damp).0 <= SMIDGEN);
        assert!(no_wind_no_slope(&b, &MoistureRegime::moderate()).0 > SMIDGEN);
    }

    #[test]
    fn moisture_damping_shape() {
        assert_eq!(moisture_damping(0.3, 0.25), 0.0); // beyond extinction
        assert!((moisture_damping(0.0, 0.25) - 1.0).abs() < 1e-12);
        let lo = moisture_damping(0.05, 0.25);
        let hi = moisture_damping(0.20, 0.25);
        assert!(lo > hi && hi > 0.0);
    }

    #[test]
    fn wind_accelerates_spread() {
        let b = bed(1);
        let m = MoistureRegime::moderate();
        let calm = wind_slope_max(&b, &m, &SpreadInputs::calm());
        let windy = wind_slope_max(
            &b,
            &m,
            &SpreadInputs {
                wind_fpm: 5.0 * crate::MPH_TO_FPM,
                wind_azimuth: 90.0,
                ..SpreadInputs::calm()
            },
        );
        assert!(
            windy.ros_max > 3.0 * calm.ros_max,
            "calm {} windy {}",
            calm.ros_max,
            windy.ros_max
        );
        assert_eq!(windy.azimuth_max, 90.0);
        assert!(windy.eccentricity > 0.0 && windy.eccentricity < 1.0);
    }

    #[test]
    fn calm_flat_fire_is_circular() {
        let v = wind_slope_max(&bed(1), &MoistureRegime::moderate(), &SpreadInputs::calm());
        assert_eq!(v.eccentricity, 0.0);
        assert!((v.ros_max - v.ros0).abs() < 1e-12);
        for az in [0.0, 90.0, 222.0] {
            assert!((v.ros_at_azimuth(az) - v.ros_max).abs() < 1e-12);
        }
    }

    #[test]
    fn head_fire_fastest_backing_fire_slowest() {
        let v = wind_slope_max(
            &bed(1),
            &MoistureRegime::moderate(),
            &SpreadInputs {
                wind_fpm: 400.0,
                wind_azimuth: 45.0,
                ..SpreadInputs::calm()
            },
        );
        let head = v.ros_at_azimuth(45.0);
        let flank = v.ros_at_azimuth(135.0);
        let back = v.ros_at_azimuth(225.0);
        assert!(head > flank && flank > back && back > 0.0);
        assert!((head - v.ros_max).abs() < 1e-9);
    }

    #[test]
    fn slope_drives_fire_upslope() {
        // Aspect 180 (south-facing) → upslope is north (0°).
        let v = wind_slope_max(
            &bed(4),
            &MoistureRegime::moderate(),
            &SpreadInputs {
                slope_steepness: (30f64).to_radians().tan(),
                aspect_azimuth: 180.0,
                ..SpreadInputs::calm()
            },
        );
        assert_eq!(v.azimuth_max, 0.0);
        assert!(v.ros_max > v.ros0);
    }

    #[test]
    fn wind_and_slope_combine_between_directions() {
        // Upslope north (aspect 180), wind blowing east: the resultant
        // azimuth must lie strictly between 0 and 90 degrees.
        let v = wind_slope_max(
            &bed(4),
            &MoistureRegime::moderate(),
            &SpreadInputs {
                wind_fpm: 300.0,
                wind_azimuth: 90.0,
                slope_steepness: 0.4,
                aspect_azimuth: 180.0,
            },
        );
        assert!(
            v.azimuth_max > 0.0 && v.azimuth_max < 90.0,
            "az = {}",
            v.azimuth_max
        );
    }

    #[test]
    fn compass_ros_matches_azimuth_queries() {
        let v = wind_slope_max(
            &bed(1),
            &MoistureRegime::moderate(),
            &SpreadInputs {
                wind_fpm: 200.0,
                wind_azimuth: 10.0,
                ..SpreadInputs::calm()
            },
        );
        let table = v.compass_ros();
        for (i, &r) in table.iter().enumerate() {
            assert!((r - v.ros_at_azimuth(45.0 * i as f64)).abs() < 1e-12);
        }
    }

    #[test]
    fn unburnable_bed_never_spreads() {
        let v = wind_slope_max(
            &bed(0),
            &MoistureRegime::moderate(),
            &SpreadInputs {
                wind_fpm: 1000.0,
                wind_azimuth: 0.0,
                ..SpreadInputs::calm()
            },
        );
        assert_eq!(v.ros_max, 0.0);
        assert_eq!(v.ros_at_azimuth(0.0), 0.0);
    }

    #[test]
    fn stronger_wind_more_eccentric() {
        let b = bed(1);
        let m = MoistureRegime::moderate();
        let mk = |mph: f64| {
            wind_slope_max(
                &b,
                &m,
                &SpreadInputs {
                    wind_fpm: mph * crate::MPH_TO_FPM,
                    wind_azimuth: 0.0,
                    ..SpreadInputs::calm()
                },
            )
            .eccentricity
        };
        assert!(mk(2.0) < mk(8.0));
        assert!(mk(8.0) < mk(20.0));
        assert!(mk(20.0) < 1.0);
    }
}
