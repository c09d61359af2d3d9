//! Fuel moisture regimes (the `M1`, `M10`, `M100`, `Mherb` rows of Table I).

use crate::catalog::FuelLife;

/// Moisture content per fuel class, as fractions of oven-dry weight.
///
/// The paper's Table I specifies dead fuel moistures `M1`, `M10`, `M100`
/// (1–60 %) and live herbaceous moisture `Mherb` (30–300 %). fireLib also
/// accepts a live woody moisture; Table I omits it, so the scenario layer
/// maps `Mherb` onto both live classes (documented substitution — the live
/// classes then behave identically, which is exact for the 8 models without
/// woody fuel and a faithful approximation for models 4, 5, 7 and 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoistureRegime {
    /// 1-hour dead fuel moisture (fraction).
    pub m1: f64,
    /// 10-hour dead fuel moisture (fraction).
    pub m10: f64,
    /// 100-hour dead fuel moisture (fraction).
    pub m100: f64,
    /// Live herbaceous moisture (fraction).
    pub herb: f64,
    /// Live woody moisture (fraction).
    pub wood: f64,
}

impl MoistureRegime {
    /// Builds a regime from percentages (the units of Table I).
    ///
    /// # Panics
    /// Panics on negative or non-finite input — moisture is a physical
    /// fraction and any negative value indicates a decoding bug upstream.
    pub fn from_percent(m1: f64, m10: f64, m100: f64, herb: f64, wood: f64) -> Self {
        for v in [m1, m10, m100, herb, wood] {
            assert!(
                v.is_finite() && v >= 0.0,
                "moisture must be a non-negative percentage"
            );
        }
        Self {
            m1: m1 / 100.0,
            m10: m10 / 100.0,
            m100: m100 / 100.0,
            herb: herb / 100.0,
            wood: wood / 100.0,
        }
    }

    /// The moisture applied to a particle of the given life class and SAV
    /// ratio, following fireLib's timelag assignment: dead particles map to
    /// the 1-/10-/100-hour classes by their SAV ratio.
    pub fn for_particle(&self, life: FuelLife, savr: f64) -> f64 {
        match life {
            FuelLife::LiveHerb => self.herb,
            FuelLife::LiveWood => self.wood,
            FuelLife::Dead => {
                // fireLib boundaries: savr > 192 → 1hr; > 48 → 10hr; else 100hr.
                if savr > 192.0 {
                    self.m1
                } else if savr > 48.0 {
                    self.m10
                } else {
                    self.m100
                }
            }
        }
    }

    /// A moderate reference regime (the fireLib demo uses 1hr ≈ 5 %).
    pub fn moderate() -> Self {
        Self::from_percent(5.0, 7.0, 9.0, 100.0, 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_conversion() {
        let m = MoistureRegime::from_percent(5.0, 7.0, 9.0, 100.0, 120.0);
        assert!((m.m1 - 0.05).abs() < 1e-12);
        assert!((m.m100 - 0.09).abs() < 1e-12);
        assert!((m.wood - 1.2).abs() < 1e-12);
    }

    #[test]
    fn timelag_class_assignment_by_savr() {
        let m = MoistureRegime::from_percent(1.0, 2.0, 3.0, 50.0, 60.0);
        assert_eq!(m.for_particle(FuelLife::Dead, 3500.0), m.m1);
        assert_eq!(m.for_particle(FuelLife::Dead, 109.0), m.m10);
        assert_eq!(m.for_particle(FuelLife::Dead, 30.0), m.m100);
        assert_eq!(m.for_particle(FuelLife::LiveHerb, 1500.0), m.herb);
        assert_eq!(m.for_particle(FuelLife::LiveWood, 1500.0), m.wood);
    }

    #[test]
    fn boundary_savr_values() {
        let m = MoistureRegime::from_percent(1.0, 2.0, 3.0, 50.0, 60.0);
        // Exactly 192 falls in the 10-hour class, exactly 48 in the 100-hour.
        assert_eq!(m.for_particle(FuelLife::Dead, 192.0), m.m10);
        assert_eq!(m.for_particle(FuelLife::Dead, 48.0), m.m100);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_moisture_rejected() {
        let _ = MoistureRegime::from_percent(-1.0, 2.0, 3.0, 50.0, 60.0);
    }
}
