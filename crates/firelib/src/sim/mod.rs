//! Cell-to-cell fire propagation — the `FS` block of Figs. 1–3.
//!
//! fireLib propagates fire over a raster of square cells by repeatedly
//! sweeping the map and assigning each cell the earliest arrival time from
//! any burning neighbour until a fixpoint is reached. Because every
//! cell-to-cell traversal time is non-negative and fixed for a given
//! scenario, that fixpoint is exactly the shortest-path (minimum travel
//! time) solution, which we compute directly with a shortest-path sweep —
//! same result, deterministic, and frontier-proportional instead of
//! repeated full-map sweeps.
//!
//! Three kernels implement the sweep. They differ only in how they keep
//! the frontier; one prelude (`FireSim::run_kernel`) checks the run's
//! preconditions, resets the raster, writes the seeds, hoists the
//! per-fuel-model half of the spread math and says how a popped cell
//! resolves its spread table, for all of them. **A run costs ∝ cells
//! popped plus seeds written**: on a fully heterogeneous terrain a cell's
//! spread ellipse is built when that cell pops (its one live pop is the
//! ellipse's only reader, so nothing is cached), from what the run hoists
//! (the scenario-only wind and slope factors per fuel model, the global
//! upslope) and what the terrain caches (the `tan` of its slope layer,
//! the upslope of its aspect layer); the pop reads a rate off it only
//! towards an open neighbour that can burn, a pop that can no longer
//! improve any neighbour builds none, and a pop reads each of its eight
//! neighbours once. Where a table is shared — one on a uniform terrain,
//! one per fuel code present on a fuel-only mosaic — the run builds the
//! table's **traversal times** beside it (`dist_factor · cell_ft / ros`
//! per direction, `+∞` where nothing spreads), so an edge of the shared
//! loop costs one addition, no division; the division is the one the
//! per-edge path evaluates, so every arrival keeps its bits
//! (`traversal_times_match_the_per_edge_division`). A pop splits its
//! index into row and column with one `u32` division — a terrain holds at
//! most `u32::MAX` cells — and reads and writes arrivals by flat index.
//! What depends on the start line alone — which lit
//! cells can burn, and which of them are on the front (a neighbour still
//! to burn, so worth queueing) — is a [`Seeds`] value, resolved once per
//! fire line (once per interval of a case) rather than once per run.
//!
//! * [`Kernel::Heap`] — the reference implementation: a classic Dijkstra
//!   over a `BinaryHeap<(Reverse<Time>, u32)>` that tracks none of its
//!   writes, so the next run resets the whole raster. Simple, and kept as
//!   the oracle every other path is pinned against — which is why it has
//!   its own pop-and-relax loop.
//! * [`Kernel::Bucket`] — the landscape-scale hot path: a monotone
//!   bucket-queue (Dial-style) wavefront sweep. Arrival times live in
//!   `[t0, t0 + duration]`, so the frontier is kept in buckets keyed by
//!   quantized arrival time (O(1) push onto a bucket's chain through one
//!   flat pool) with an occupancy bitmap, so the drain jumps to the next
//!   non-empty bucket and a run pays for the buckets its fire
//!   occupies, not for the horizon; the raster keeps exact `f64` arrival
//!   times — buckets only order the frontier. **A run tracks the rows it
//!   wrote**: each write widens its row's column span, so the next run
//!   resets, and a fold reads, the rows the fire touched instead of
//!   O(rows×cols).
//! * [`Kernel::Tiled`] — the bucket kernel's levels drained by several
//!   cores at once and merged back in pop order (`Sweep::run_tiled`).
//!
//! A run from resolved [`Seeds`] can also **count as it writes**
//! ([`BurnCount`]): every kernel hands each write's old and new arrival to
//! the count, which keeps the cells that burn by an instant `t1`, split
//! by a mask — Eq. (3)'s hits and false alarms when the mask is the
//! observed target, so a scorer reads no cell after the run.
//!
//! **Why the kernels are bit-identical.** A run is a sequence of pops, and
//! three things fix everything a pop does:
//!
//! 1. *The pop order.* Every kernel pops in the strict total order of the
//!    reference heap's `(Reverse<Time>, u32)` tuples: ascending time, ties
//!    by descending cell index. The bucket queue drains each bucket
//!    in exactly that order — a run sorted once when the bucket opens,
//!    merged pop by pop with a mini-heap of the entries pushed into the
//!    bucket after that — and every traversal cost is positive, so an
//!    entry pushed while draining bucket `k` can never belong to a bucket
//!    `< k` (quantization is monotone in the arrival time). It unlinks an
//!    improved cell's old entry, so its order is the reference order less
//!    entries that would pop stale (and emit nothing). Debug builds audit
//!    the realized order of all three kernels (`audit_pop_order`).
//! 2. *The table.* A cell's directional spread rates depend on that cell
//!    alone — not on when, or on which thread, they were computed. The
//!    bucket and tiled kernels read them the same way (`Sweep::relax`); on
//!    a per-cell terrain that is one rate at a time off the cell's hoisted
//!    ellipse, while the reference kernel builds the full table by the
//!    unhoisted expressions (`Sweep::table`). Each rate has the same bits
//!    on both paths: the `cell_table_matches_the_terrain_accessor_path`
//!    test checks both against the `Terrain` accessors, direction by
//!    direction.
//! 3. *The relaxation.* `Sweep::relax` is the one step that turns a pop
//!    into neighbour arrivals: the staleness test, the edge cost `t +
//!    distance / ros` (off a shared table, `t` plus the run's precomputed
//!    traversal time — the same `f64`), the horizon and
//!    `SMIDGEN`-tolerance comparisons (off a shared table, one bit mask of
//!    all eight), the burnability of the neighbour.
//!    The reference kernel spells the same step out independently,
//!    without the step's early outs or the traversal times: it reads the
//!    rates, divides per edge, builds a table for every live pop and
//!    queues every seed, which is what the front of a [`Seeds`] is checked
//!    against.
//!
//! Same pops in the same order, through the same tables and the same step,
//! is the same execution — every relaxation decision, every tolerance
//! comparison, every `f64` written. The kernel conformance matrix
//! (`sim/tests/conformance.rs`) pins this with exact raster bits.
//!
//! The traversal time of the edge from a burning cell to a neighbour is
//! `distance / ros_source(azimuth)`, i.e. the fire crosses the source cell's
//! fuel towards the neighbour, matching fireLib's per-cell spread
//! computation. Cells whose own fuel bed cannot burn are never ignited.

mod arena;
mod bucket;
mod heap;
mod seeds;
mod sweep;
#[cfg(test)]
mod tests;
mod tiled;

pub use self::sweep::BurnCount;
pub use {
    arena::{SimArena, Work},
    seeds::Seeds,
};

use self::sweep::{Burnable, CellFactors, FuelTable, Sweep, Tables, Trail};
use crate::combustion::{standard_beds, FuelBed};
use crate::moisture::moisture_class;
use crate::scenario::{Scenario, GENE_COUNT};
use crate::spread::{
    no_wind_no_slope, slope_factor, spread_from_factors, wind_factor, wind_slope_from_ros0,
    SpreadInputs, SpreadVector,
};
use crate::terrain::{upslope_azimuth, Terrain};
use crate::SMIDGEN;
use arena::{reset_raster, Dirty};
use landscape::geometry::normalize_azimuth;
use landscape::{FireLine, IgnitionMap};
use std::sync::Arc;

/// Which propagation kernel a `simulate_arena_kernel` call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Reference Dijkstra over a binary heap, every seed queued, full-raster
    /// reset.
    Heap,
    /// Monotone bucket-queue wavefront sweep that tracks the rows it
    /// writes — the default hot path; bit-identical to [`Kernel::Heap`].
    /// It queues the front only, in one pass, and drains each bucket as a
    /// run sorted once, beside a mini-heap of the bucket's late pushes.
    Bucket,
    /// Multi-core tiled wavefront (`sim/tiled.rs`); bit-identical to the heap.
    /// An epoch of at least `TILE_INLINE` entries forks its drain through
    /// parworker's scoped fork/join, which allocates (the chunk bag, the
    /// threads); a smaller epoch drains inline.
    Tiled {
        /// Spatial tile edge in cells; must be non-zero.
        tile: usize,
        /// Drain threads; `0` means `std::thread::available_parallelism`.
        workers: usize,
    },
}

/// Default spatial tile edge for [`Kernel::Tiled`]: big enough that a
/// tile's pops share cache lines, small enough that an XL fire front spans
/// many tiles.
pub const DEFAULT_TILE: usize = 128;

impl Kernel {
    /// The tiled kernel with the default tile size and auto worker count.
    pub fn tiled_auto() -> Self {
        Kernel::Tiled {
            tile: DEFAULT_TILE,
            workers: 0,
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Kernel::Heap => write!(f, "heap"),
            Kernel::Bucket => write!(f, "bucket"),
            Kernel::Tiled { tile, workers: 0 } => write!(f, "tiled:{tile}"),
            Kernel::Tiled { tile, workers } => write!(f, "tiled:{tile}x{workers}"),
        }
    }
}

/// The fire propagation simulator for one terrain.
///
/// A `FireSim` is *immutable shared state*: the terrain and the precomputed
/// NFFL fuel beds both live behind `Arc`s, so cloning is two reference
/// bumps and workers never copy a raster. All mutable evaluation state
/// lives in a worker-owned [`SimArena`]; the hot path is
/// [`FireSim::simulate_arena`].
#[derive(Debug, Clone)]
pub struct FireSim {
    terrain: Arc<Terrain>,
    beds: Arc<[FuelBed]>,
    /// Per scenario fuel model, the moisture classes
    /// ([`moisture_class`]: bit `c` ↔ Table I gene `3 + c`) carried by a
    /// bed the terrain can show a run of that model
    /// ([`Terrain::fuel_code_mask`]) — the ones [`FireSim::run_key`] keeps.
    moisture_read: [u8; 14],
}

/// What a run reads of its scenario, as bits: [`FireSim::run_key`]. Two
/// scenarios with one key are one run on that simulator, bit for bit.
pub type RunKey = [u64; GENE_COUNT];

impl FireSim {
    /// Builds a simulator over `terrain` with the standard NFFL catalog
    /// (the fuel-bed table is process-wide shared, not rebuilt per call).
    pub fn new(terrain: Terrain) -> Self {
        Self::shared(Arc::new(terrain))
    }

    /// Builds a simulator over an already-shared terrain (no copy).
    pub fn shared(terrain: Arc<Terrain>) -> Self {
        let beds = standard_beds();
        let shown = |model: usize| terrain.fuel_code_mask(model as u8);
        let moisture_read = std::array::from_fn(|model| {
            let beds = beds
                .iter()
                .enumerate()
                .filter(|(code, _)| shown(model) & 1 << code != 0);
            let particles = beds.flat_map(|(_, bed)| &bed.particles);
            particles.fold(0, |m, p| m | 1 << moisture_class(p.life, p.savr))
        });
        Self {
            terrain,
            beds,
            moisture_read,
        }
    }

    /// The bits of `scenario`'s Table I values ([`Scenario::values`]) with
    /// every input a run of it on this terrain cannot read set to zero:
    /// - the fuel model under a fuel layer, the slope and the aspect under
    ///   theirs (each cell reads the layer instead);
    /// - each moisture whose class no bed the run can show carries;
    /// - the wind direction when the wind speed is 0 (with or without a
    ///   wind layer, the wind factor is then 0, and the spread math reads
    ///   the direction only under a positive factor);
    /// - the aspect when the slope is 0 and there is no slope layer (the
    ///   same, for the slope factor and the upslope azimuth).
    ///
    /// So two scenarios with one key burn alike on every kernel, bit for
    /// bit; the `run_key_` tests pin each rule.
    pub fn run_key(&self, scenario: &Scenario) -> RunKey {
        let t = &*self.terrain;
        let mut v = scenario.values();
        let read = self.moisture_read.get(usize::from(scenario.model));
        for (class, m) in v[3..7].iter_mut().enumerate() {
            if read.is_some_and(|read| read & 1 << class == 0) {
                *m = 0.0;
            }
        }
        let flat = scenario.slope_deg == 0.0 && t.slope_layer().is_none();
        for (gene, unread) in [
            (0, t.fuel_layer().is_some()),
            (2, scenario.wind_speed_mph == 0.0),
            (7, t.slope_layer().is_some()),
            (8, t.aspect_layer().is_some() || flat),
        ] {
            if unread {
                v[gene] = 0.0;
            }
        }
        v.map(f64::to_bits)
    }

    /// The terrain this simulator burns.
    pub fn terrain(&self) -> &Terrain {
        &self.terrain
    }

    /// A fresh [`SimArena`] sized for this terrain.
    pub fn arena(&self) -> SimArena {
        SimArena::new(self.terrain.rows(), self.terrain.cols())
    }

    /// The per-catalog-model `(ros0, reaction intensity)` hoist:
    /// [`no_wind_no_slope`] runs the fuel-particle loops and depends only
    /// on (fuel code, moisture), so a run computes it once for each model
    /// the terrain can show the fire ([`Terrain::fuel_code_mask`]) — never
    /// per cell — and every spread table starts from it. A model outside
    /// the mask (or outside the catalog) keeps `(0, 0)`, which reads as
    /// "does not spread".
    fn hoisted_base(&self, scenario: &Scenario) -> [(f64, f64); 14] {
        let mask = self.terrain.fuel_code_mask(scenario.model);
        let moisture = scenario.moisture();
        let mut base = [(0.0f64, 0.0f64); 14];
        for (code, (bed, slot)) in self.beds.iter().zip(base.iter_mut()).enumerate() {
            if mask & (1 << code) != 0 {
                *slot = no_wind_no_slope(bed, &moisture);
            }
        }
        base
    }

    /// The directional table of fuel model `code` under `inputs`: the
    /// wind/slope half of the spread math over the hoisted `base`.
    /// [`wind_slope_max`](crate::spread::wind_slope_max) is exactly
    /// `no_wind_no_slope` composed with
    /// [`wind_slope_from_ros0`], so this is bit-identical to
    /// `wind_slope_max` for a cell with that model and those inputs.
    #[inline]
    fn code_table(&self, code: usize, base: &[(f64, f64); 14], inputs: &SpreadInputs) -> [f64; 8] {
        let (ros0, rx_int) = base[code];
        let table = wind_slope_from_ros0(&self.beds[code], ros0, rx_int, inputs).compass_ros();
        debug_assert!(
            table.iter().all(|ros| ros.is_finite() && *ros >= 0.0),
            "non-finite or negative ROS in the spread table of model {code}: {table:?}"
        );
        table
    }

    /// The directional table of cell `idx` on a fully heterogeneous
    /// terrain, built when the cell pops on the reference kernel: `globals`
    /// (the scenario's own inputs) with each override layer's value for the
    /// cell in place of the global one, resolved by the same expressions
    /// the [`Terrain`] accessors use — bit-identical to `wind_slope_max`
    /// over those accessors, pinned by the
    /// `cell_table_matches_the_terrain_accessor_path` test.
    #[inline]
    fn cell_table_at(
        &self,
        idx: usize,
        scenario: &Scenario,
        globals: &SpreadInputs,
        base: &[(f64, f64); 14],
    ) -> [f64; 8] {
        let t = &*self.terrain;
        let code = match t.fuel_layer() {
            Some(g) => g.as_slice()[idx],
            None => scenario.model,
        } as usize;
        if base[code].0 <= SMIDGEN {
            return [0.0; 8]; // nothing spreads: skip the layer reads
        }
        let mut inputs = *globals;
        if let Some(g) = t.slope_layer() {
            inputs.slope_steepness = g.as_slice()[idx].to_radians().tan();
        }
        if let Some(g) = t.aspect_layer() {
            inputs.aspect_azimuth = g.as_slice()[idx];
        }
        if let Some((f, o)) = t.wind_layer() {
            inputs.wind_fpm = (scenario.wind_speed_mph * f.as_slice()[idx]) * crate::MPH_TO_FPM;
            inputs.wind_azimuth = normalize_azimuth(scenario.wind_dir_deg + o.as_slice()[idx]);
        }
        self.code_table(code, base, &inputs)
    }

    /// The run's [`CellFactors`] over its hoisted `base`: φ_w and φ_s of
    /// every model that spreads at the scenario's wind and slope, for the
    /// layers the terrain lacks, and the scenario's upslope — each by the
    /// call [`wind_slope_from_ros0`] makes for them.
    fn cell_factors(&self, scenario: &Scenario, base: [(f64, f64); 14]) -> CellFactors {
        let t = &*self.terrain;
        let globals = scenario.spread_inputs();
        let (mut phi_w, mut phi_s) = ([0.0; 14], [0.0; 14]);
        for (code, (bed, &(ros0, _))) in self.beds.iter().zip(&base).enumerate() {
            if ros0 <= SMIDGEN {
                continue;
            }
            if t.wind_layer().is_none() {
                phi_w[code] = wind_factor(bed, globals.wind_fpm);
            }
            if t.slope_tan_layer().is_none() {
                phi_s[code] = slope_factor(bed, globals.slope_steepness);
            }
        }
        CellFactors {
            base,
            phi_w,
            phi_s,
            upslope: upslope_azimuth(globals.aspect_azimuth),
        }
    }

    /// The spread ellipse of cell `idx` on a fully heterogeneous terrain:
    /// the run's `factors`, with the cell's own factor for each layer the
    /// terrain has — wind through [`Terrain::wind_at`]'s expressions, slope
    /// and upslope from the terrain's cached `tan` and upslope layers. Its
    /// `ros_at_azimuth(45·dir)` is [`FireSim::cell_table_at`]'s entry
    /// `dir`, bit for bit (the `cell_table_matches_the_terrain_accessor_path`
    /// test).
    #[inline]
    fn cell_ellipse_at(
        &self,
        idx: usize,
        scenario: &Scenario,
        factors: &CellFactors,
    ) -> SpreadVector {
        let t = &*self.terrain;
        let code = match t.fuel_layer() {
            Some(g) => g.as_slice()[idx],
            None => scenario.model,
        } as usize;
        let base = factors.base[code];
        if base.0 <= SMIDGEN {
            return SpreadVector::no_spread();
        }
        let bed = &self.beds[code];
        let (phi_w, wind_azimuth) = match t.wind_layer() {
            Some((f, o)) => {
                let wind_fpm = (scenario.wind_speed_mph * f.as_slice()[idx]) * crate::MPH_TO_FPM;
                let azimuth = normalize_azimuth(scenario.wind_dir_deg + o.as_slice()[idx]);
                (wind_factor(bed, wind_fpm), azimuth)
            }
            None => (factors.phi_w[code], scenario.wind_dir_deg),
        };
        let phi_s = match t.slope_tan_layer() {
            Some(tan) => slope_factor(bed, tan[idx]),
            None => factors.phi_s[code],
        };
        let upslope = t.upslope_layer().map_or(factors.upslope, |g| g[idx]);
        spread_from_factors(bed, base, phi_w, phi_s, wind_azimuth, upslope)
    }

    /// Simulates fire growth from `initial` (cells burning at `t0`) for
    /// `duration` minutes, returning the ignition-time map. Cells the fire
    /// does not reach within the horizon hold [`landscape::UNIGNITED`];
    /// initial cells hold `t0`.
    ///
    /// # Panics
    /// Panics when `initial` does not match the terrain shape, `t0` is
    /// negative/non-finite or `duration` is not positive.
    pub fn simulate(
        &self,
        scenario: &Scenario,
        initial: &FireLine,
        t0: f64,
        duration: f64,
    ) -> IgnitionMap {
        let mut out = IgnitionMap::unignited(self.terrain.rows(), self.terrain.cols());
        self.simulate_into(scenario, initial, t0, duration, &mut out);
        out
    }

    /// Output-reusing variant of [`FireSim::simulate`]: `out` is cleared
    /// and refilled, keeping its buffer. Runs the reference heap kernel
    /// (scratch is allocated per call) — workers that evaluate in a loop
    /// should hold a [`SimArena`] and call [`FireSim::simulate_arena`]
    /// instead.
    ///
    /// # Panics
    /// As [`FireSim::simulate`], and when `out` does not match the terrain
    /// shape. A run that panics on its own preconditions leaves `out`
    /// unspecified.
    pub fn simulate_into(
        &self,
        scenario: &Scenario,
        initial: &FireLine,
        t0: f64,
        duration: f64,
        out: &mut IgnitionMap,
    ) {
        self.check_shape("output map", out.rows(), out.cols());
        // The caller's map is lent to a throwaway arena as a raster of
        // unknown content, and taken back once the run has refilled it.
        let mut arena = self.arena();
        arena.dirty = Dirty::All;
        arena.out = Some(std::mem::replace(out, IgnitionMap::unignited(1, 1)));
        self.simulate_arena_kernel(scenario, initial, t0, duration, &mut arena, Kernel::Heap);
        if let Some(refilled) = arena.out.take() {
            *out = refilled;
        }
    }

    /// The hot path: simulates into the arena's buffers and returns the
    /// arrival map. Runs the bucket kernel ([`Kernel::Bucket`],
    /// bit-identical to the reference) — the arena's buffers persist at
    /// their high-water mark, so a repeated stream of runs allocates
    /// nothing (counted by the root package's `tests/allocations.rs`), and a
    /// fresh stream allocates only when a run queues more than any before
    /// it: at most 4 of 704 fresh evaluations per case after a warm-up.
    ///
    /// # Panics
    /// Panics when the arena or `initial` does not match the terrain shape,
    /// `t0` is negative/non-finite or `duration` is not positive.
    pub fn simulate_arena<'a>(
        &self,
        scenario: &Scenario,
        initial: &FireLine,
        t0: f64,
        duration: f64,
        arena: &'a mut SimArena,
    ) -> &'a IgnitionMap {
        self.simulate_arena_kernel(scenario, initial, t0, duration, arena, Kernel::Bucket)
    }

    /// [`FireSim::simulate_arena`] with an explicit kernel choice —
    /// exposed so benches and the kernel conformance matrix can run the
    /// reference heap kernel against the others on the same arena API.
    /// All three kernels produce bit-identical rasters.
    pub fn simulate_arena_kernel<'a>(
        &self,
        scenario: &Scenario,
        initial: &FireLine,
        t0: f64,
        duration: f64,
        arena: &'a mut SimArena,
        kernel: Kernel,
    ) -> &'a IgnitionMap {
        // The seeds land in arena scratch (the arena is lent to the run, so
        // they leave it for the duration).
        let mut seeds = std::mem::take(&mut arena.line_seeds);
        self.resolve_seeds(initial, &mut seeds, &mut arena.work);
        let off = &mut BurnCount::off();
        self.run_kernel(scenario, &seeds, t0, duration, arena, kernel, off);
        arena.line_seeds = seeds;
        arena.map()
    }

    /// [`FireSim::simulate_arena_kernel`] from [`Seeds`] resolved earlier
    /// by [`FireSim::seeds`]: the same run, minus the scan of the initial
    /// mask and the search for its front — the entry point for evaluating
    /// many scenarios from one fire line, where both (the scan
    /// raster-proportional, the search eight reads a seed) would otherwise
    /// be paid per scenario. Given a [`BurnCount`], the run starts it at
    /// zero and counts into it as it writes, on every kernel, so a scorer
    /// reads no cell after the run.
    ///
    /// # Panics
    /// As [`FireSim::simulate_arena`], with `seeds` in place of `initial`,
    /// when `seeds` was resolved against a terrain that differs from
    /// this one in shape or in having a fuel layer, and when the count's
    /// mask is not the terrain's size.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_arena_seeded<'a>(
        &self,
        scenario: &Scenario,
        seeds: &Seeds,
        t0: f64,
        duration: f64,
        arena: &'a mut SimArena,
        kernel: Kernel,
        count: Option<&mut BurnCount<'_>>,
    ) -> &'a IgnitionMap {
        let mut off = BurnCount::off();
        let count = count.unwrap_or(&mut off);
        self.run_kernel(scenario, seeds, t0, duration, arena, kernel, count);
        arena.map()
    }

    /// Resolves the [`Seeds`] of `line` on this terrain — the one
    /// resolution every run goes through, whether its caller holds the
    /// result across runs or not.
    ///
    /// # Panics
    /// Panics when `line` does not match the terrain shape.
    pub fn seeds(&self, line: &FireLine) -> Seeds {
        let mut seeds = Seeds::default();
        self.resolve_seeds(line, &mut seeds, &mut Work::default());
        seeds
    }

    /// [`FireSim::seeds`] into the buffers of `seeds`. One walk of the
    /// line's set bits collects the lit cells that can burn (a word at a
    /// time: on a landscape raster nearly every word is zero), and one
    /// pass over them reads each seed's neighbours in the line and the
    /// fuel layer — no raster, no scratch — to find the front, counting
    /// the reads into `work`.
    fn resolve_seeds(&self, line: &FireLine, seeds: &mut Seeds, work: &mut Work) {
        self.check_shape("initial fire line", line.rows(), line.cols());
        let (rows, cols) = (line.rows(), line.cols());
        let fuel = self.terrain.fuel_layer().map(|g| g.as_slice());
        let burns = |idx: usize| fuel.is_none_or(|f| self.beds[f[idx] as usize].burnable);
        let Seeds { cells, front, .. } = seeds;
        cells.clear();
        let lit = line.burned_indices().filter(|&idx| burns(idx));
        cells.extend(lit.map(|idx| idx as u32));
        front.clear();
        for &sidx in cells.iter() {
            let (r, c) = (sidx as usize / cols, sidx as usize % cols);
            let on_front = landscape::NEIGHBOUR_OFFSETS.iter().any(|&(dr, dc, _)| {
                let (nr, nc) = (r.wrapping_add_signed(dr), c.wrapping_add_signed(dc));
                if nr >= rows || nc >= cols {
                    return false;
                }
                work.front_reads += 1;
                let nidx = nr * cols + nc;
                !(line.bit(nidx) && burns(nidx))
            });
            if on_front {
                front.push(sidx);
            }
        }
        (seeds.rows, seeds.cols) = (rows, cols);
        seeds.fuel_layer = fuel.is_some();
    }

    fn check_shape(&self, what: &str, rows: usize, cols: usize) {
        assert_eq!(
            (rows, cols),
            (self.terrain.rows(), self.terrain.cols()),
            "{what} shape mismatch"
        );
    }

    /// One run of `kernel` from `seeds` into `arena`: the prelude every
    /// kernel shares — preconditions, raster reset, the per-model hoist,
    /// how a pop resolves its table, seed writes — then the
    /// kernel's own frontier loop over the resulting [`Sweep`] and
    /// [`Trail`], queueing every seed on the reference heap and the front
    /// alone on the other two, counting its writes into `count` and its
    /// work into the arena's [`Work`].
    #[allow(clippy::too_many_arguments)]
    fn run_kernel(
        &self,
        scenario: &Scenario,
        seeds: &Seeds,
        t0: f64,
        duration: f64,
        arena: &mut SimArena,
        kernel: Kernel,
        count: &mut BurnCount<'_>,
    ) {
        let t = &*self.terrain;
        let (rows, cols) = (t.rows(), t.cols());
        self.check_shape("arena", arena.rows, arena.cols);
        self.check_shape("seeds", seeds.rows, seeds.cols);
        let fuel = t.fuel_layer().map(|g| g.as_slice());
        assert_eq!(
            seeds.fuel_layer,
            fuel.is_some(),
            "seeds resolved against another terrain"
        );
        assert!(
            t0.is_finite() && t0 >= 0.0,
            "t0 must be a non-negative instant"
        );
        assert!(
            duration.is_finite() && duration > 0.0,
            "duration must be positive"
        );
        let zero_tile = matches!(kernel, Kernel::Tiled { tile: 0, .. });
        assert!(!zero_tile, "tile size must be non-zero");
        assert!(count.fits(rows * cols), "count mask shape mismatch");
        (count.in_mask, count.outside) = (0, 0);

        let SimArena {
            per_fuel,
            heap,
            queue,
            span_lo,
            span_hi,
            dirty,
            epochs,
            out,
            work,
            ..
        } = arena;
        work.runs += 1;
        let out = out.get_or_insert_with(|| IgnitionMap::unignited(rows, cols));
        if span_lo.len() != rows {
            span_lo.resize(rows, u32::MAX);
            span_hi.resize(rows, 0);
        }
        reset_raster(dirty, out, span_lo, span_hi, cols);

        let burnable = Burnable {
            fuel,
            beds: &self.beds,
            global: fuel.is_none()
                && (self.beds.get(scenario.model as usize)).is_some_and(|bed| bed.burnable),
        };
        // Without a fuel layer the scenario's model decides for every seed
        // at once.
        if seeds.cells.is_empty() || !(seeds.fuel_layer || burnable.global) {
            return; // nothing written; the raster stays clean
        }
        let base = self.hoisted_base(scenario);
        let mut factors = None;
        let tables = self.tables(scenario, base, per_fuel, &mut factors);
        let sweep = Sweep {
            sim: self,
            scenario,
            burnable,
            tables,
            rows,
            cols,
            steps: landscape::NEIGHBOUR_OFFSETS.map(|(dr, dc, _)| dr * cols as isize + dc),
            cell_ft: t.cell_size_ft(),
            t0,
            duration,
            t_end: t0 + duration,
        };

        // Until the run returns what it wrote is unknown: one that does
        // not return leaves the next a full reset. The reference kernel
        // tracks nothing beyond its seeds, so it leaves one too.
        *dirty = Dirty::All;
        let mut trail = Trail {
            out,
            span_lo,
            span_hi,
            first: usize::MAX,
            last: 0,
            count: *count,
        };
        trail.write_seeds(&seeds.cells, t0);
        match kernel {
            Kernel::Heap => {
                sweep.run_dijkstra(&seeds.cells, heap, trail.out, &mut trail.count, work)
            }
            Kernel::Bucket => sweep.run_bucket(&seeds.front, queue, &mut trail, work),
            Kernel::Tiled { tile, workers } => sweep.run_tiled(
                &seeds.front,
                queue,
                &mut trail,
                epochs,
                work,
                (tile, workers),
            ),
        }
        (count.in_mask, count.outside) = (trail.count.in_mask, trail.count.outside);
        if kernel != Kernel::Heap {
            *dirty = Dirty::Spans {
                first: trail.first,
                last: trail.last,
            };
        }
    }

    /// How a run of `scenario` over its hoisted `base` resolves a cell's
    /// spread table. A uniform terrain shares one [`FuelTable`]; a
    /// fuel-only mosaic shares one per fuel code present, written into
    /// `per_fuel` (≤ 14 spread computations instead of one per cell); each
    /// carries its traversal times, so the sweep's edges divide nothing.
    /// Anything else builds a cell's spread ellipse when it pops, from the
    /// run's [`CellFactors`], kept in `factors`.
    fn tables<'a>(
        &'a self,
        scenario: &Scenario,
        base: [(f64, f64); 14],
        per_fuel: &'a mut [FuelTable; 14],
        factors: &'a mut Option<CellFactors>,
    ) -> Tables<'a> {
        let t = &*self.terrain;
        let (globals, cell_ft) = (scenario.spread_inputs(), t.cell_size_ft());
        match t.fuel_layer() {
            _ if !t.has_overrides() => {
                let ros = self.code_table(scenario.model as usize, &base, &globals);
                Tables::Uniform(FuelTable::new(ros, cell_ft))
            }
            Some(fuel) if t.fuel_is_only_override() => {
                let mask = t.fuel_code_mask(scenario.model);
                for (code, table) in per_fuel.iter_mut().enumerate() {
                    if mask & (1 << code) != 0 {
                        let ros = self.code_table(code, &base, &globals);
                        *table = FuelTable::new(ros, cell_ft);
                    }
                }
                Tables::PerFuel(per_fuel, fuel.as_slice())
            }
            _ => Tables::PerCell {
                globals,
                factors: factors.insert(self.cell_factors(scenario, base)),
            },
        }
    }

    /// Convenience: simulates and returns the fire line at the end of the
    /// horizon (burned cells at `t0 + duration`).
    pub fn simulate_fire_line(
        &self,
        scenario: &Scenario,
        initial: &FireLine,
        t0: f64,
        duration: f64,
    ) -> FireLine {
        self.simulate(scenario, initial, t0, duration)
            .fire_line_at(t0 + duration)
    }
}

/// Builds the single-cell ignition used by most examples: the map centre
/// burning at `t = 0`.
pub fn centre_ignition(rows: usize, cols: usize) -> FireLine {
    FireLine::from_cells(rows, cols, &[(rows / 2, cols / 2)])
}
