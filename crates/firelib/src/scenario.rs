//! The scenario parameter space — Table I of the paper.
//!
//! A *scenario* ("a set of input parameters, also called a scenario",
//! paper §I) is the individual every metaheuristic in this workspace
//! evolves. This module defines the nine parameters with the exact ranges
//! and units of Table I, their normalised gene encoding, validation, and
//! uniform sampling.

use crate::moisture::MoistureRegime;
use crate::spread::SpreadInputs;
use crate::MPH_TO_FPM;
use rand::Rng;

/// Number of genes in the encoded scenario vector.
pub const GENE_COUNT: usize = 9;

/// Metadata for one scenario parameter — one row of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamDef {
    /// Parameter name as printed in Table I.
    pub name: &'static str,
    /// Description as printed in Table I.
    pub description: &'static str,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
    /// Unit of measurement as printed in Table I.
    pub unit: &'static str,
    /// `true` when the parameter takes integer values (the fuel model).
    pub integer: bool,
}

/// The nine rows of Table I, in the paper's order.
pub const PARAM_DEFS: [ParamDef; GENE_COUNT] = [
    ParamDef {
        name: "Model",
        description: "Rothermel Fuel Model",
        lo: 1.0,
        hi: 13.0,
        unit: "fuel model",
        integer: true,
    },
    ParamDef {
        name: "WindSpd",
        description: "Wind speed",
        lo: 0.0,
        hi: 80.0,
        unit: "miles/hour",
        integer: false,
    },
    ParamDef {
        name: "WindDir",
        description: "Wind direction",
        lo: 0.0,
        hi: 360.0,
        unit: "degrees clockwise from North",
        integer: false,
    },
    ParamDef {
        name: "M1",
        description: "Dead Fuel Moisture in 1 hour since start of fire",
        lo: 1.0,
        hi: 60.0,
        unit: "percent",
        integer: false,
    },
    ParamDef {
        name: "M10",
        description: "Dead Fuel Moisture in 10 h",
        lo: 1.0,
        hi: 60.0,
        unit: "percent",
        integer: false,
    },
    ParamDef {
        name: "M100",
        description: "Dead Fuel Moisture in 100 h",
        lo: 1.0,
        hi: 60.0,
        unit: "percent",
        integer: false,
    },
    ParamDef {
        name: "Mherb",
        description: "Live herbaceous fuel moisture",
        lo: 30.0,
        hi: 300.0,
        unit: "percent",
        integer: false,
    },
    ParamDef {
        name: "Slope",
        description: "Surface slope",
        lo: 0.0,
        hi: 81.0,
        unit: "degrees",
        integer: false,
    },
    ParamDef {
        name: "Aspect",
        description: "Direction of the surface faces",
        lo: 0.0,
        hi: 360.0,
        unit: "degrees clockwise from north",
        integer: false,
    },
];

/// One fire-environment scenario (an individual of the metaheuristics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Rothermel fuel model (1–13).
    pub model: u8,
    /// Wind speed (miles/hour).
    pub wind_speed_mph: f64,
    /// Wind direction, degrees clockwise from north (direction blown to).
    pub wind_dir_deg: f64,
    /// 1-hour dead fuel moisture (percent).
    pub m1_pct: f64,
    /// 10-hour dead fuel moisture (percent).
    pub m10_pct: f64,
    /// 100-hour dead fuel moisture (percent).
    pub m100_pct: f64,
    /// Live herbaceous fuel moisture (percent).
    pub mherb_pct: f64,
    /// Surface slope (degrees).
    pub slope_deg: f64,
    /// Aspect, degrees clockwise from north.
    pub aspect_deg: f64,
}

impl Scenario {
    /// A mild reference scenario (used by examples and as a neutral seed).
    pub fn reference() -> Self {
        Self {
            model: 1,
            wind_speed_mph: 5.0,
            wind_dir_deg: 90.0,
            m1_pct: 5.0,
            m10_pct: 7.0,
            m100_pct: 9.0,
            mherb_pct: 100.0,
            slope_deg: 0.0,
            aspect_deg: 0.0,
        }
    }

    /// The moisture regime implied by this scenario. Table I has no live
    /// woody moisture, so `Mherb` feeds both live classes (see
    /// [`MoistureRegime`] docs for why this is a faithful substitution).
    pub fn moisture(&self) -> MoistureRegime {
        MoistureRegime::from_percent(
            self.m1_pct,
            self.m10_pct,
            self.m100_pct,
            self.mherb_pct,
            self.mherb_pct,
        )
    }

    /// Wind/slope spread inputs implied by this scenario (global values; the
    /// terrain may override slope/aspect per cell).
    pub fn spread_inputs(&self) -> SpreadInputs {
        SpreadInputs {
            wind_fpm: self.wind_speed_mph * MPH_TO_FPM,
            wind_azimuth: self.wind_dir_deg,
            slope_steepness: self.slope_deg.to_radians().tan(),
            aspect_azimuth: self.aspect_deg,
        }
    }

    /// The parameter values in Table I order.
    pub fn values(&self) -> [f64; GENE_COUNT] {
        [
            self.model as f64,
            self.wind_speed_mph,
            self.wind_dir_deg,
            self.m1_pct,
            self.m10_pct,
            self.m100_pct,
            self.mherb_pct,
            self.slope_deg,
            self.aspect_deg,
        ]
    }

    /// `true` when every parameter lies inside its Table I range.
    // lint: allow(unreached) — the Table I range oracle of crates/firelib/tests/properties.rs and tests/table1_conformance.rs
    pub fn is_valid(&self) -> bool {
        self.values()
            .iter()
            .zip(&PARAM_DEFS)
            .all(|(&v, d)| v.is_finite() && v >= d.lo && v <= d.hi)
    }
}

/// The search space over scenarios: encode/decode/sample helpers shared by
/// every metaheuristic. Genes are `f64` in `[0, 1]`; gene `i` maps linearly
/// onto the range of `PARAM_DEFS[i]` (the fuel model rounds to an integer).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioSpace;

impl ScenarioSpace {
    /// Parameter metadata (Table I).
    pub fn params(&self) -> &'static [ParamDef; GENE_COUNT] {
        &PARAM_DEFS
    }

    /// Decodes a normalised gene vector into a scenario. Genes are clamped
    /// to `[0, 1]` first, so any real vector decodes to a valid scenario.
    ///
    /// # Panics
    /// Panics when `genes.len() != GENE_COUNT`.
    pub fn decode(&self, genes: &[f64]) -> Scenario {
        assert_eq!(
            genes.len(),
            GENE_COUNT,
            "scenario gene vector must have {GENE_COUNT} entries"
        );
        let g = |i: usize| -> f64 {
            let v = genes[i];
            if v.is_nan() {
                0.0
            } else {
                v.clamp(0.0, 1.0)
            }
        };
        let lerp = |i: usize| PARAM_DEFS[i].lo + g(i) * (PARAM_DEFS[i].hi - PARAM_DEFS[i].lo);
        // Model: split [0,1] into 13 equal bins → 1..=13.
        let model = (1.0 + (g(0) * 13.0).floor()).min(13.0) as u8;
        Scenario {
            model,
            wind_speed_mph: lerp(1),
            wind_dir_deg: lerp(2),
            m1_pct: lerp(3),
            m10_pct: lerp(4),
            m100_pct: lerp(5),
            mherb_pct: lerp(6),
            slope_deg: lerp(7),
            aspect_deg: lerp(8),
        }
    }

    /// Encodes a scenario into its normalised gene vector. The fuel model
    /// encodes to the centre of its bin, so `decode(encode(s))` restores the
    /// model exactly.
    // lint: allow(unreached) — builds genomes from named scenarios in tests/full_pipeline.rs and crates/firelib/tests/properties.rs
    pub fn encode(&self, s: &Scenario) -> [f64; GENE_COUNT] {
        let inv = |i: usize, v: f64| (v - PARAM_DEFS[i].lo) / (PARAM_DEFS[i].hi - PARAM_DEFS[i].lo);
        [
            (s.model as f64 - 0.5) / 13.0,
            inv(1, s.wind_speed_mph),
            inv(2, s.wind_dir_deg),
            inv(3, s.m1_pct),
            inv(4, s.m10_pct),
            inv(5, s.m100_pct),
            inv(6, s.mherb_pct),
            inv(7, s.slope_deg),
            inv(8, s.aspect_deg),
        ]
    }

    /// Uniformly samples a gene vector.
    pub fn sample_genes<R: Rng + ?Sized>(&self, rng: &mut R) -> [f64; GENE_COUNT] {
        std::array::from_fn(|_| rng.random::<f64>())
    }

    /// Uniformly samples a scenario.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Scenario {
        self.decode(&self.sample_genes(rng))
    }
}

/// Renders Table I as an aligned text table (used by the report harness to
/// regenerate the paper's Table I verbatim from the in-code definitions).
// lint: allow(unreached) — the rendering tests/table1_conformance.rs reads row by row
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:<52} {:<10} {}\n",
        "Param", "Description", "Range", "Unit"
    ));
    for d in &PARAM_DEFS {
        let range = if d.integer {
            format!("{}-{}", d.lo as i64, d.hi as i64)
        } else if d.lo == 0.0 && d.hi.fract() == 0.0 {
            format!("0-{}", d.hi as i64)
        } else if d.lo.fract() == 0.0 && d.hi.fract() == 0.0 {
            format!("{}-{}", d.lo as i64, d.hi as i64)
        } else {
            format!("{}-{}", d.lo, d.hi)
        };
        out.push_str(&format!(
            "{:<8} {:<52} {:<10} {}\n",
            d.name, d.description, range, d.unit
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table1_has_nine_rows_with_paper_ranges() {
        assert_eq!(PARAM_DEFS.len(), 9);
        assert_eq!(PARAM_DEFS[0].lo, 1.0);
        assert_eq!(PARAM_DEFS[0].hi, 13.0);
        assert_eq!(PARAM_DEFS[1].hi, 80.0); // WindSpd 0-80 mph
        assert_eq!(PARAM_DEFS[3].lo, 1.0); // M1 1-60 %
        assert_eq!(PARAM_DEFS[3].hi, 60.0);
        assert_eq!(PARAM_DEFS[6].lo, 30.0); // Mherb 30-300 %
        assert_eq!(PARAM_DEFS[6].hi, 300.0);
        assert_eq!(PARAM_DEFS[7].hi, 81.0); // Slope 0-81°
        assert_eq!(PARAM_DEFS[8].hi, 360.0);
    }

    #[test]
    fn decode_clamps_out_of_range_genes() {
        let sp = ScenarioSpace;
        let s = sp.decode(&[-1.0, 2.0, 0.5, 0.0, 1.0, 0.5, 0.5, 0.5, 0.5]);
        assert!(s.is_valid());
        assert_eq!(s.model, 1);
        assert_eq!(s.wind_speed_mph, 80.0);
    }

    #[test]
    fn nan_gene_decodes_to_lower_bound() {
        let sp = ScenarioSpace;
        let mut genes = [0.5; GENE_COUNT];
        genes[1] = f64::NAN;
        let s = sp.decode(&genes);
        assert_eq!(s.wind_speed_mph, 0.0);
        assert!(s.is_valid());
    }

    #[test]
    fn model_bins_cover_1_to_13() {
        let sp = ScenarioSpace;
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..=1000 {
            let mut genes = [0.5; GENE_COUNT];
            genes[0] = i as f64 / 1000.0;
            seen.insert(sp.decode(&genes).model);
        }
        let models: Vec<u8> = seen.into_iter().collect();
        assert_eq!(models, (1..=13).collect::<Vec<u8>>());
    }

    #[test]
    fn encode_decode_roundtrip_preserves_scenario() {
        let sp = ScenarioSpace;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let s = sp.sample(&mut rng);
            let back = sp.decode(&sp.encode(&s));
            assert_eq!(back.model, s.model);
            assert!((back.wind_speed_mph - s.wind_speed_mph).abs() < 1e-9);
            assert!((back.mherb_pct - s.mherb_pct).abs() < 1e-9);
            assert!((back.aspect_deg - s.aspect_deg).abs() < 1e-9);
        }
    }

    #[test]
    fn sampled_scenarios_are_valid() {
        let sp = ScenarioSpace;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..500 {
            assert!(sp.sample(&mut rng).is_valid());
        }
    }

    #[test]
    fn spread_inputs_unit_conversion() {
        let s = Scenario {
            wind_speed_mph: 10.0,
            slope_deg: 45.0,
            ..Scenario::reference()
        };
        let i = s.spread_inputs();
        assert!((i.wind_fpm - 880.0).abs() < 1e-9);
        assert!((i.slope_steepness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table1_render_contains_all_params() {
        let t = render_table1();
        for d in &PARAM_DEFS {
            assert!(t.contains(d.name), "missing {}", d.name);
        }
        assert!(t.contains("miles/hour"));
        assert!(t.contains("1-13"));
    }

    #[test]
    fn reference_scenario_valid() {
        assert!(Scenario::reference().is_valid());
    }
}
