//! The raster landscape a fire burns across.

use crate::scenario::GENE_COUNT;
use landscape::geometry::normalize_azimuth;
use landscape::Grid;

/// Terrain description for the propagation engine.
///
/// The ESS systems treat fuel model, slope and aspect as *scenario*
/// parameters (they are searched by the metaheuristic, Table I), i.e. they
/// are uniform over the map unless the terrain provides per-cell overrides.
/// `Terrain` therefore stores the raster shape plus optional override
/// layers; a cell's effective value is the override when present, otherwise
/// the scenario's global value.
#[derive(Debug, Clone)]
pub struct Terrain {
    rows: usize,
    cols: usize,
    /// Side length of a (square) cell, in feet.
    cell_size_ft: f64,
    fuel_override: Option<Grid<u8>>,
    /// Slope override in degrees.
    slope_override: Option<Grid<f64>>,
    /// Aspect override in degrees clockwise from north.
    aspect_override: Option<Grid<f64>>,
    /// `tan` of the slope layer (rise/reach), cached when that layer is
    /// attached: the steepness a cell's spread ellipse reads, by the
    /// expression [`Scenario::spread_inputs`](crate::Scenario::spread_inputs)
    /// applies to a global slope.
    slope_tan: Option<Grid<f64>>,
    /// [`upslope_azimuth`] of the (normalised) aspect layer, cached when
    /// that layer is attached.
    upslope: Option<Grid<f64>>,
    /// Wind modulation, always set as a pair: a multiplier on the
    /// scenario's wind speed (terrain channelling/gusts) and an additive
    /// offset on its direction (degrees).
    wind_override: Option<(Grid<f64>, Grid<f64>)>,
    /// Bitmask of fuel codes present in the fuel layer (bit `c` set iff
    /// code `c` occurs); cached at layer attach so a run hoists the spread
    /// math of the fuel models the map holds, and builds a per-fuel table
    /// for each of them, in O(catalog), not O(cells).
    fuel_code_mask: u16,
}

impl Terrain {
    /// A uniform terrain: every cell takes fuel/slope/aspect from the
    /// scenario under evaluation.
    ///
    /// # Panics
    /// Panics when a dimension is zero, the raster holds more than
    /// `u32::MAX` cells (every kernel stores a cell index as `u32`) or the
    /// cell size is not positive.
    pub fn uniform(rows: usize, cols: usize, cell_size_ft: f64) -> Self {
        assert!(rows > 0 && cols > 0, "terrain dimensions must be non-zero");
        assert!(
            rows.checked_mul(cols)
                .is_some_and(|cells| u32::try_from(cells).is_ok()),
            "terrain of {rows}x{cols} cells exceeds u32 cell indices"
        );
        assert!(
            cell_size_ft.is_finite() && cell_size_ft > 0.0,
            "cell size must be positive"
        );
        Self {
            rows,
            cols,
            cell_size_ft,
            fuel_override: None,
            slope_override: None,
            aspect_override: None,
            slope_tan: None,
            upslope: None,
            wind_override: None,
            fuel_code_mask: 0,
        }
    }

    /// Adds a per-cell fuel-model override layer.
    ///
    /// # Panics
    /// Panics on shape mismatch or a fuel code outside 0–13.
    pub fn with_fuel(mut self, fuel: Grid<u8>) -> Self {
        assert_eq!(
            fuel.shape(),
            (self.rows, self.cols),
            "fuel layer shape mismatch"
        );
        assert!(
            fuel.as_slice().iter().all(|&f| f <= 13),
            "fuel codes must be 0..=13 (NFFL catalog)"
        );
        self.fuel_code_mask = fuel.as_slice().iter().fold(0u16, |m, &f| m | (1 << f));
        self.fuel_override = Some(fuel);
        self
    }

    /// Adds a per-cell slope override layer (degrees, `[0, 90)`).
    ///
    /// # Panics
    /// Panics on shape mismatch or out-of-range values.
    pub fn with_slope(mut self, slope_deg: Grid<f64>) -> Self {
        assert_eq!(
            slope_deg.shape(),
            (self.rows, self.cols),
            "slope layer shape mismatch"
        );
        assert!(
            slope_deg
                .as_slice()
                .iter()
                .all(|&s| (0.0..90.0).contains(&s)),
            "slope must be in [0, 90) degrees"
        );
        self.slope_tan = Some(slope_deg.map(|&s| s.to_radians().tan()));
        self.slope_override = Some(slope_deg);
        self
    }

    /// Adds a per-cell aspect override layer (degrees clockwise from north).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn with_aspect(mut self, aspect_deg: Grid<f64>) -> Self {
        assert_eq!(
            aspect_deg.shape(),
            (self.rows, self.cols),
            "aspect layer shape mismatch"
        );
        let aspect = aspect_deg.map(|&a| normalize_azimuth(a));
        self.upslope = Some(aspect.map(|&a| upslope_azimuth(a)));
        self.aspect_override = Some(aspect);
        self
    }

    /// Which genes of a scenario (Table I order,
    /// [`PARAM_DEFS`](crate::scenario::PARAM_DEFS)) this terrain's layers override
    /// on every cell: the fuel model (gene 0) under a fuel layer, the
    /// slope (gene 7) under a slope layer, the aspect (gene 8) under an
    /// aspect layer. A run never reads an overridden gene — burnability
    /// and every spread table take the layer's value instead — so two scenarios that differ only there burn alike, bit
    /// for bit. A wind layer modulates the scenario's wind rather than
    /// replacing it, and overrides nothing.
    pub fn overridden_genes(&self) -> [bool; GENE_COUNT] {
        let mut genes = [false; GENE_COUNT];
        genes[0] = self.fuel_override.is_some();
        genes[7] = self.slope_override.is_some();
        genes[8] = self.aspect_override.is_some();
        genes
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cell side length (ft).
    pub fn cell_size_ft(&self) -> f64 {
        self.cell_size_ft
    }

    /// Adds a per-cell wind modulation layer: the scenario's wind speed is
    /// multiplied by `speed_factor` and its direction shifted by
    /// `dir_offset_deg` at each cell, modelling terrain channelling and
    /// gust fields. The searched *global* wind stays meaningful — terrain
    /// only modulates it — so calibration over Table I is unaffected.
    ///
    /// # Panics
    /// Panics on shape mismatch, a negative/non-finite speed factor or a
    /// non-finite direction offset.
    pub fn with_wind(mut self, speed_factor: Grid<f64>, dir_offset_deg: Grid<f64>) -> Self {
        assert_eq!(
            speed_factor.shape(),
            (self.rows, self.cols),
            "wind speed-factor layer shape mismatch"
        );
        assert_eq!(
            dir_offset_deg.shape(),
            (self.rows, self.cols),
            "wind direction-offset layer shape mismatch"
        );
        assert!(
            speed_factor
                .as_slice()
                .iter()
                .all(|&f| f.is_finite() && f >= 0.0),
            "wind speed factors must be finite and non-negative"
        );
        assert!(
            dir_offset_deg.as_slice().iter().all(|&d| d.is_finite()),
            "wind direction offsets must be finite"
        );
        self.wind_override = Some((speed_factor, dir_offset_deg));
        self
    }

    /// `true` when any per-cell override layer is present (the simulator
    /// then computes spread per cell instead of once per scenario).
    pub fn has_overrides(&self) -> bool {
        self.fuel_override.is_some()
            || self.slope_override.is_some()
            || self.aspect_override.is_some()
            || self.wind_override.is_some()
    }

    /// `true` when the *only* per-cell layer is the fuel mosaic. Spread then
    /// depends on the cell solely through its fuel code, so the simulator
    /// caches one directional table per fuel model instead of one per cell.
    pub fn fuel_is_only_override(&self) -> bool {
        self.fuel_override.is_some()
            && self.slope_override.is_none()
            && self.aspect_override.is_none()
            && self.wind_override.is_none()
    }

    /// The fuel override layer, when present.
    pub fn fuel_layer(&self) -> Option<&Grid<u8>> {
        self.fuel_override.as_ref()
    }

    /// The slope override layer (degrees), when present. Exposed so the
    /// simulator can read a popped cell's value by flat index.
    pub fn slope_layer(&self) -> Option<&Grid<f64>> {
        self.slope_override.as_ref()
    }

    /// The aspect override layer (degrees, pre-normalized), when present.
    pub fn aspect_layer(&self) -> Option<&Grid<f64>> {
        self.aspect_override.as_ref()
    }

    /// `tan` of the slope layer, by flat index, when that layer is present.
    pub(crate) fn slope_tan_layer(&self) -> Option<&[f64]> {
        self.slope_tan.as_ref().map(Grid::as_slice)
    }

    /// The upslope azimuth of the aspect layer, by flat index, when that
    /// layer is present.
    pub(crate) fn upslope_layer(&self) -> Option<&[f64]> {
        self.upslope.as_ref().map(Grid::as_slice)
    }

    /// The wind modulation layers `(speed_factor, dir_offset_deg)`, when
    /// present.
    pub fn wind_layer(&self) -> Option<(&Grid<f64>, &Grid<f64>)> {
        self.wind_override.as_ref().map(|(f, o)| (f, o))
    }

    /// Bitmask of fuel codes the fire can encounter anywhere on the map:
    /// the layer's cached code mask when a fuel layer is present, otherwise
    /// the scenario's single global model (empty for an out-of-catalog
    /// model, which burns nowhere on a layer-less terrain). Bit `c` ↔ NFFL
    /// code `c`.
    pub fn fuel_code_mask(&self, scenario_fuel: u8) -> u16 {
        match &self.fuel_override {
            Some(_) => self.fuel_code_mask,
            None if scenario_fuel <= 13 => 1 << scenario_fuel,
            None => 0,
        }
    }

    /// Effective fuel model of a cell given the scenario's global value.
    #[inline]
    pub fn fuel_at(&self, row: usize, col: usize, scenario_fuel: u8) -> u8 {
        self.fuel_override
            .as_ref()
            .map_or(scenario_fuel, |g| g.at(row, col))
    }

    /// Effective slope (degrees) of a cell given the scenario's value.
    #[inline]
    pub fn slope_at(&self, row: usize, col: usize, scenario_slope_deg: f64) -> f64 {
        self.slope_override
            .as_ref()
            .map_or(scenario_slope_deg, |g| g.at(row, col))
    }

    /// Effective aspect (degrees) of a cell given the scenario's value.
    #[inline]
    pub fn aspect_at(&self, row: usize, col: usize, scenario_aspect_deg: f64) -> f64 {
        self.aspect_override
            .as_ref()
            .map_or(scenario_aspect_deg, |g| g.at(row, col))
    }

    /// Effective `(wind speed, wind direction)` of a cell given the
    /// scenario's global wind. Without a wind layer the scenario values pass
    /// through untouched.
    #[inline]
    pub fn wind_at(
        &self,
        row: usize,
        col: usize,
        scenario_speed: f64,
        scenario_dir_deg: f64,
    ) -> (f64, f64) {
        match &self.wind_override {
            Some((factor, offset)) => (
                scenario_speed * factor.at(row, col),
                normalize_azimuth(scenario_dir_deg + offset.at(row, col)),
            ),
            None => (scenario_speed, scenario_dir_deg),
        }
    }
}

/// The direction fire is pushed by slope: directly upslope, i.e. opposite
/// the (downslope-facing) aspect.
pub fn upslope_azimuth(aspect_deg: f64) -> f64 {
    normalize_azimuth(aspect_deg + 180.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_terrain_delegates_to_scenario() {
        let t = Terrain::uniform(4, 4, 100.0);
        assert!(!t.has_overrides());
        assert_eq!(t.fuel_at(1, 1, 7), 7);
        assert_eq!(t.slope_at(1, 1, 12.0), 12.0);
        assert_eq!(t.aspect_at(1, 1, 270.0), 270.0);
    }

    #[test]
    fn overrides_shadow_scenario_values() {
        let fuel = Grid::filled(2, 2, 4u8);
        let t = Terrain::uniform(2, 2, 50.0).with_fuel(fuel);
        assert!(t.has_overrides());
        assert_eq!(t.fuel_at(0, 0, 1), 4);
    }

    #[test]
    fn aspect_layer_is_normalized() {
        let t = Terrain::uniform(1, 1, 50.0).with_aspect(Grid::filled(1, 1, -90.0));
        assert_eq!(t.aspect_at(0, 0, 0.0), 270.0);
    }

    #[test]
    fn upslope_is_opposite_aspect() {
        assert_eq!(upslope_azimuth(180.0), 0.0);
        assert_eq!(upslope_azimuth(0.0), 180.0);
        assert_eq!(upslope_azimuth(270.0), 90.0);
    }

    #[test]
    fn wind_layer_modulates_scenario_wind() {
        let factor = Grid::from_vec(1, 2, vec![0.5, 2.0]);
        let offset = Grid::from_vec(1, 2, vec![0.0, 350.0]);
        let t = Terrain::uniform(1, 2, 50.0).with_wind(factor, offset);
        assert!(t.has_overrides());
        assert!(!t.fuel_is_only_override());
        assert_eq!(t.wind_at(0, 0, 10.0, 90.0), (5.0, 90.0));
        let (spd, dir) = t.wind_at(0, 1, 10.0, 90.0);
        assert_eq!(spd, 20.0);
        assert_eq!(dir, 80.0); // 90 + 350 wraps to 80
    }

    #[test]
    fn fuel_only_classification() {
        let t = Terrain::uniform(2, 2, 50.0).with_fuel(Grid::filled(2, 2, 3u8));
        assert!(t.fuel_is_only_override());
        let t2 = Terrain::uniform(2, 2, 50.0)
            .with_fuel(Grid::filled(2, 2, 3u8))
            .with_slope(Grid::filled(2, 2, 10.0));
        assert!(!t2.fuel_is_only_override());
        assert!(!Terrain::uniform(2, 2, 50.0).fuel_is_only_override());
    }

    #[test]
    fn cached_maxima_track_layers() {
        let t = Terrain::uniform(2, 2, 50.0);
        assert_eq!(t.fuel_code_mask(3), 1 << 3);
        assert_eq!(t.fuel_code_mask(99), 0);

        let t = Terrain::uniform(2, 2, 50.0)
            .with_fuel(Grid::from_vec(2, 2, vec![1u8, 4, 0, 1]))
            .with_slope(Grid::from_vec(2, 2, vec![5.0, 40.0, 0.0, 12.0]))
            .with_wind(
                Grid::from_vec(2, 2, vec![0.5, 2.5, 1.0, 0.0]),
                Grid::filled(2, 2, 0.0),
            );
        assert_eq!(t.fuel_code_mask(9), (1 << 0) | (1 << 1) | (1 << 4));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_wind_factor_rejected() {
        let _ = Terrain::uniform(1, 1, 50.0)
            .with_wind(Grid::filled(1, 1, -1.0), Grid::filled(1, 1, 0.0));
    }

    #[test]
    #[should_panic(expected = "offsets must be finite")]
    fn non_finite_wind_offset_rejected() {
        let _ = Terrain::uniform(1, 1, 50.0)
            .with_wind(Grid::filled(1, 1, 1.0), Grid::filled(1, 1, f64::NAN));
    }

    #[test]
    #[should_panic(expected = "0..=13")]
    fn invalid_fuel_code_rejected() {
        let _ = Terrain::uniform(1, 1, 50.0).with_fuel(Grid::filled(1, 1, 14u8));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn layer_shape_mismatch_rejected() {
        let _ = Terrain::uniform(2, 2, 50.0).with_slope(Grid::filled(1, 2, 5.0));
    }

    #[test]
    #[should_panic(expected = "exceeds u32 cell indices")]
    fn a_raster_beyond_u32_cell_indices_is_rejected() {
        // 65 536 × 65 537 = 2³² + 2¹⁶ cells; a uniform terrain allocates
        // nothing, so only the bound can stop it.
        let _ = Terrain::uniform(65_536, 65_537, 100.0);
    }

    #[test]
    fn overridden_genes_follow_the_replacing_layers() {
        let names = |t: &Terrain| -> Vec<&str> {
            let genes = t
                .overridden_genes()
                .into_iter()
                .zip(&crate::scenario::PARAM_DEFS);
            genes
                .filter(|&(over, _)| over)
                .map(|(_, d)| d.name)
                .collect()
        };
        let t = Terrain::uniform(2, 2, 50.0);
        assert!(names(&t).is_empty());
        let t = t
            .with_fuel(Grid::filled(2, 2, 3u8))
            .with_wind(Grid::filled(2, 2, 1.5), Grid::filled(2, 2, 10.0));
        assert_eq!(names(&t), ["Model"]);
        let t = t.with_slope(Grid::filled(2, 2, 10.0));
        assert_eq!(names(&t), ["Model", "Slope"]);
        let t = t.with_aspect(Grid::filled(2, 2, 90.0));
        assert_eq!(names(&t), ["Model", "Slope", "Aspect"]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_cell_size_rejected() {
        let _ = Terrain::uniform(2, 2, 0.0);
    }
}
