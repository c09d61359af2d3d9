//! Fuel particles, fuel models and the standard NFFL catalog.
//!
//! The 13 Northern Forest Fire Laboratory (NFFL) fuel models are the
//! taxonomy referenced by Table I of the paper ("Rothermel Fuel Model,
//! 1–13"). Parameter values reproduce fireLib's
//! `Fire_FuelCatalogCreateStandard`: loads in lb/ft², surface-area-to-volume
//! ratios in ft²/ft³, fuel-bed depth in ft, extinction moisture as a
//! fraction.

/// Life category of a fuel particle (drives the moisture-damping split in
/// the Rothermel model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuelLife {
    /// Dead fuel: 1-hour, 10-hour and 100-hour timelag classes.
    Dead,
    /// Live herbaceous fuel.
    LiveHerb,
    /// Live woody fuel.
    LiveWood,
}

impl FuelLife {
    /// `true` for the dead category.
    pub fn is_dead(self) -> bool {
        matches!(self, FuelLife::Dead)
    }
}

/// One fuel particle class within a fuel bed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuelParticle {
    /// Life category.
    pub life: FuelLife,
    /// Oven-dry fuel load (lb/ft²).
    pub load: f64,
    /// Surface-area-to-volume ratio (ft²/ft³ ≡ 1/ft).
    pub savr: f64,
    /// Particle density (lb/ft³). 32 for all standard models.
    pub density: f64,
    /// Low heat content (Btu/lb). 8000 for all standard models.
    pub heat: f64,
    /// Total silica content (fraction). 0.0555 standard.
    pub si_total: f64,
    /// Effective silica content (fraction). 0.0100 standard.
    pub si_effective: f64,
}

impl FuelParticle {
    /// Standard particle with fireLib's default density, heat and silica.
    pub fn standard(life: FuelLife, load: f64, savr: f64) -> Self {
        Self {
            life,
            load,
            savr,
            density: 32.0,
            heat: 8000.0,
            si_total: 0.0555,
            si_effective: 0.0100,
        }
    }

    /// Surface area contribution per unit ground area: `load × savr / ρ`.
    pub fn surface_area(&self) -> f64 {
        if self.density <= 0.0 {
            0.0
        } else {
            self.load * self.savr / self.density
        }
    }

    /// fireLib's fine-fuel exponential weighting `exp(-138 / savr)` (dead)
    /// used in the heat-of-preignition and live-extinction computations.
    pub fn sigma_factor_dead(&self) -> f64 {
        if self.savr <= 0.0 {
            0.0
        } else {
            (-138.0 / self.savr).exp()
        }
    }

    /// Live-fuel analogue `exp(-500 / savr)`.
    pub fn sigma_factor_live(&self) -> f64 {
        if self.savr <= 0.0 {
            0.0
        } else {
            (-500.0 / self.savr).exp()
        }
    }
}

/// A fuel model: a named fuel bed composed of particle classes.
#[derive(Debug, Clone, PartialEq)]
pub struct FuelModel {
    /// Model number (1–13 for the NFFL models, 0 = no fuel).
    pub number: u8,
    /// Short name.
    pub name: &'static str,
    /// Human-readable description (as in the BEHAVE documentation).
    pub description: &'static str,
    /// Fuel bed depth (ft).
    pub depth: f64,
    /// Dead fuel moisture of extinction (fraction).
    pub mext_dead: f64,
    /// Particle classes.
    pub particles: Vec<FuelParticle>,
}

impl FuelModel {
    /// Total oven-dry load over all particles (lb/ft²).
    pub fn total_load(&self) -> f64 {
        self.particles.iter().map(|p| p.load).sum()
    }
}

/// Surface-area-to-volume ratios fireLib assigns to the timelag classes.
pub const SAVR_10HR: f64 = 109.0;
/// 100-hour dead fuel SAV ratio.
pub const SAVR_100HR: f64 = 30.0;

/// The standard fuel model catalog: entry 0 is "no fuel", entries 1–13 are
/// the NFFL models.
#[derive(Debug, Clone)]
pub struct FuelCatalog {
    models: Vec<FuelModel>,
}

impl FuelCatalog {
    /// Builds the standard 14-entry catalog (0 = NoFuel, 1–13 = NFFL),
    /// mirroring fireLib's `Fire_FuelCatalogCreateStandard`.
    pub fn standard() -> Self {
        // (number, name, description, depth, mext,
        //  1hr load, 1hr savr, 10hr load, 100hr load,
        //  herb load, herb savr, wood load, wood savr)
        type Row = (
            u8,
            &'static str,
            &'static str,
            f64,
            f64,
            f64,
            f64,
            f64,
            f64,
            f64,
            f64,
            f64,
            f64,
        );
        const ROWS: [Row; 14] = [
            (
                0,
                "NoFuel",
                "No combustible fuel",
                0.1,
                0.01,
                0.0,
                1500.0,
                0.0,
                0.0,
                0.0,
                1500.0,
                0.0,
                1500.0,
            ),
            (
                1,
                "NFFL01",
                "Short grass (1 ft)",
                1.0,
                0.12,
                0.0340,
                3500.0,
                0.0,
                0.0,
                0.0,
                1500.0,
                0.0,
                1500.0,
            ),
            (
                2,
                "NFFL02",
                "Timber (grass & understory)",
                1.0,
                0.15,
                0.0920,
                3000.0,
                0.0460,
                0.0230,
                0.0230,
                1500.0,
                0.0,
                1500.0,
            ),
            (
                3,
                "NFFL03",
                "Tall grass (2.5 ft)",
                2.5,
                0.25,
                0.1380,
                1500.0,
                0.0,
                0.0,
                0.0,
                1500.0,
                0.0,
                1500.0,
            ),
            (
                4,
                "NFFL04",
                "Chaparral (6 ft)",
                6.0,
                0.20,
                0.2300,
                2000.0,
                0.1840,
                0.0920,
                0.0,
                1500.0,
                0.2300,
                1500.0,
            ),
            (
                5,
                "NFFL05",
                "Brush (2 ft)",
                2.0,
                0.20,
                0.0460,
                2000.0,
                0.0230,
                0.0,
                0.0,
                1500.0,
                0.0920,
                1500.0,
            ),
            (
                6,
                "NFFL06",
                "Dormant brush & hardwood slash",
                2.5,
                0.25,
                0.0690,
                1750.0,
                0.1150,
                0.0920,
                0.0,
                1500.0,
                0.0,
                1500.0,
            ),
            (
                7,
                "NFFL07",
                "Southern rough",
                2.5,
                0.40,
                0.0520,
                1750.0,
                0.0860,
                0.0690,
                0.0,
                1500.0,
                0.0170,
                1550.0,
            ),
            (
                8,
                "NFFL08",
                "Closed timber litter",
                0.2,
                0.30,
                0.0690,
                2000.0,
                0.0460,
                0.1150,
                0.0,
                1500.0,
                0.0,
                1500.0,
            ),
            (
                9,
                "NFFL09",
                "Hardwood litter",
                0.2,
                0.25,
                0.1340,
                2500.0,
                0.0190,
                0.0070,
                0.0,
                1500.0,
                0.0,
                1500.0,
            ),
            (
                10,
                "NFFL10",
                "Timber (litter & understory)",
                1.0,
                0.25,
                0.1380,
                2000.0,
                0.0920,
                0.2300,
                0.0,
                1500.0,
                0.0920,
                1500.0,
            ),
            (
                11,
                "NFFL11",
                "Light logging slash",
                1.0,
                0.15,
                0.0690,
                1500.0,
                0.2070,
                0.2530,
                0.0,
                1500.0,
                0.0,
                1500.0,
            ),
            (
                12,
                "NFFL12",
                "Medium logging slash",
                2.3,
                0.20,
                0.1840,
                1500.0,
                0.6440,
                0.7590,
                0.0,
                1500.0,
                0.0,
                1500.0,
            ),
            (
                13,
                "NFFL13",
                "Heavy logging slash",
                3.0,
                0.25,
                0.3220,
                1500.0,
                1.0580,
                1.2880,
                0.0,
                1500.0,
                0.0,
                1500.0,
            ),
        ];

        let models = ROWS
            .iter()
            .map(
                |&(num, name, desc, depth, mext, l1, s1, l10, l100, lherb, sherb, lwood, swood)| {
                    let mut particles = Vec::new();
                    if l1 > 0.0 {
                        particles.push(FuelParticle::standard(FuelLife::Dead, l1, s1));
                    }
                    if l10 > 0.0 {
                        particles.push(FuelParticle::standard(FuelLife::Dead, l10, SAVR_10HR));
                    }
                    if l100 > 0.0 {
                        particles.push(FuelParticle::standard(FuelLife::Dead, l100, SAVR_100HR));
                    }
                    if lherb > 0.0 {
                        particles.push(FuelParticle::standard(FuelLife::LiveHerb, lherb, sherb));
                    }
                    if lwood > 0.0 {
                        particles.push(FuelParticle::standard(FuelLife::LiveWood, lwood, swood));
                    }
                    FuelModel {
                        number: num,
                        name,
                        description: desc,
                        depth,
                        mext_dead: mext,
                        particles,
                    }
                },
            )
            .collect();
        Self { models }
    }

    /// Number of models (14 for the standard catalog).
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` when the catalog holds no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Fetches a model by number.
    pub fn model(&self, number: u8) -> Option<&FuelModel> {
        self.models.iter().find(|m| m.number == number)
    }

    /// All models, ascending by number.
    pub fn models(&self) -> &[FuelModel] {
        &self.models
    }
}

impl Default for FuelCatalog {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_has_fourteen_models() {
        let cat = FuelCatalog::standard();
        assert_eq!(cat.len(), 14);
        for n in 0..=13u8 {
            assert!(cat.model(n).is_some(), "model {n} missing");
        }
        assert!(cat.model(14).is_none());
    }

    #[test]
    fn grass_model_is_pure_fine_dead_fuel() {
        let cat = FuelCatalog::standard();
        let m1 = cat.model(1).unwrap();
        assert_eq!(m1.particles.len(), 1);
        assert_eq!(m1.particles[0].savr, 3500.0);
        assert!(m1.particles[0].life.is_dead());
        assert!((m1.total_load() - 0.034).abs() < 1e-12);
    }

    #[test]
    fn live_fuel_models_are_2_4_5_7_10() {
        let cat = FuelCatalog::standard();
        let with_live: Vec<u8> = cat
            .models()
            .iter()
            .filter(|m| m.particles.iter().any(|p| !p.life.is_dead()))
            .map(|m| m.number)
            .collect();
        assert_eq!(with_live, vec![2, 4, 5, 7, 10]);
    }

    #[test]
    fn slash_models_have_heaviest_loads() {
        let cat = FuelCatalog::standard();
        let l12 = cat.model(12).unwrap().total_load();
        let l13 = cat.model(13).unwrap().total_load();
        let l1 = cat.model(1).unwrap().total_load();
        assert!(l13 > l12 && l12 > l1);
        assert!((l13 - (0.3220 + 1.0580 + 1.2880)).abs() < 1e-9);
    }

    #[test]
    fn extinction_moisture_matches_behave_tables() {
        let cat = FuelCatalog::standard();
        let expect = [
            (1u8, 0.12),
            (2, 0.15),
            (3, 0.25),
            (4, 0.20),
            (7, 0.40),
            (8, 0.30),
            (11, 0.15),
        ];
        for (n, mx) in expect {
            assert_eq!(cat.model(n).unwrap().mext_dead, mx, "model {n}");
        }
    }

    #[test]
    fn timelag_savr_constants() {
        let cat = FuelCatalog::standard();
        let m10 = cat.model(10).unwrap();
        let savrs: Vec<f64> = m10.particles.iter().map(|p| p.savr).collect();
        assert!(savrs.contains(&SAVR_10HR));
        assert!(savrs.contains(&SAVR_100HR));
    }

    #[test]
    fn surface_area_formula() {
        let p = FuelParticle::standard(FuelLife::Dead, 0.034, 3500.0);
        assert!((p.surface_area() - 0.034 * 3500.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn sigma_factors_monotone_in_savr() {
        let fine = FuelParticle::standard(FuelLife::Dead, 0.1, 3500.0);
        let coarse = FuelParticle::standard(FuelLife::Dead, 0.1, 30.0);
        assert!(fine.sigma_factor_dead() > coarse.sigma_factor_dead());
        assert!(fine.sigma_factor_live() > coarse.sigma_factor_live());
    }
}
