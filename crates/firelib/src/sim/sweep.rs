use super::FireSim;
use crate::{combustion::FuelBed, scenario::Scenario, spread::SpreadInputs, SMIDGEN};
use landscape::{FireLine, IgnitionMap};
use std::borrow::Cow;

/// How a run resolves a cell's directional spread table.
pub(super) enum Tables<'a> {
    /// Uniform terrain: one table for the whole map, with its traversal
    /// times.
    Uniform(FuelTable),
    /// Fuel mosaic with globally uniform slope/aspect/wind: one table per
    /// fuel code, with its traversal times, looked up through the fuel
    /// layer.
    PerFuel(&'a [FuelTable; 14], &'a [u8]),
    /// Fully heterogeneous terrain: a popped cell's spread ellipse is built
    /// from the run's [`CellFactors`] and the terrain's layers
    /// ([`FireSim::cell_ellipse_at`]), and [`Sweep::relax`] reads a rate
    /// off it only for a direction it can spread into. The reference
    /// kernel builds the cell's whole table instead
    /// ([`FireSim::cell_table_at`], from the scenario's global inputs).
    PerCell {
        globals: SpreadInputs,
        factors: &'a CellFactors,
    },
}

/// One fuel model's directional spread rates under a run's scenario, and
/// what [`Sweep::relax`] reads instead of them: the time the fire takes to
/// cross a cell towards each neighbour. Built once per run (once per code
/// present, on a fuel mosaic), so an edge costs an addition, not a
/// division.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct FuelTable {
    /// Rate of spread (ft/min) towards each
    /// [`landscape::NEIGHBOUR_OFFSETS`] direction — what the reference
    /// kernel reads ([`Sweep::table`]).
    pub(super) ros: [f64; 8],
    /// Minutes from a cell's centre to its neighbour in each direction:
    /// `dist_factor · cell_ft / ros`, by the expression the per-edge path
    /// evaluates, so `t + cost` is that path's arrival bit for bit — or
    /// `+∞` where the rate is at most `SMIDGEN`, which the per-edge path
    /// skips and `t + ∞` fails the horizon test for.
    pub(super) cost: [f64; 8],
}

impl FuelTable {
    /// The table of rates `ros` on cells `cell_ft` feet wide.
    #[inline]
    pub(super) fn new(ros: [f64; 8], cell_ft: f64) -> Self {
        let cost = std::array::from_fn(|dir| {
            let (_, _, dist_factor) = landscape::NEIGHBOUR_OFFSETS[dir];
            if ros[dir] <= SMIDGEN {
                f64::INFINITY
            } else {
                dist_factor * cell_ft / ros[dir]
            }
        });
        Self { ros, cost }
    }
}

/// What a cell's spread ellipse takes from the scenario but not from the
/// cell, hoisted once per run ([`FireSim::cell_factors`]). The factor an
/// override layer replaces is read per cell instead, and its slot here is
/// left at zero.
pub(super) struct CellFactors {
    /// `(ros0, rx_int)` per fuel code ([`FireSim::hoisted_base`]).
    pub(super) base: [(f64, f64); 14],
    /// φ_w per fuel code at the scenario's wind, without a wind layer.
    pub(super) phi_w: [f64; 14],
    /// φ_s per fuel code at the scenario's slope, without a slope layer.
    pub(super) phi_s: [f64; 14],
    /// The scenario's upslope azimuth, without an aspect layer.
    pub(super) upslope: f64,
}

/// Which cells can ignite: a cell burns iff its own fuel bed can (no-fuel
/// cells are firebreaks). With no fuel layer burnability is global, and
/// only then is the scenario's model consulted — a layered terrain makes
/// it irrelevant, and must not panic on an out-of-catalog value it never
/// uses; without a layer an out-of-catalog model burns nowhere, as
/// [`Terrain::fuel_code_mask`](crate::Terrain::fuel_code_mask) already
/// says.
#[derive(Clone, Copy)]
pub(super) struct Burnable<'a> {
    pub(super) fuel: Option<&'a [u8]>,
    pub(super) beds: &'a [FuelBed],
    pub(super) global: bool,
}

impl Burnable<'_> {
    #[inline]
    pub(super) fn at(&self, idx: usize) -> bool {
        match self.fuel {
            Some(fuel) => self.beds[fuel[idx] as usize].burnable,
            None => self.global,
        }
    }
}

/// The read-only half of one run, built once by [`FireSim::run_kernel`] and
/// shared by all three kernels: everything a pop needs to turn into
/// arrival candidates for its neighbours.
pub(super) struct Sweep<'a> {
    pub(super) sim: &'a FireSim,
    pub(super) scenario: &'a Scenario,
    pub(super) burnable: Burnable<'a>,
    pub(super) tables: Tables<'a>,
    pub(super) rows: usize,
    pub(super) cols: usize,
    /// Row-major index offset of each [`landscape::NEIGHBOUR_OFFSETS`]
    /// direction: how an interior pop reaches its neighbours.
    pub(super) steps: [isize; 8],
    pub(super) cell_ft: f64,
    pub(super) t0: f64,
    pub(super) duration: f64,
    pub(super) t_end: f64,
}

/// What a counted run ([`FireSim::simulate_arena_seeded`]) tallies as it
/// writes: the cells it burns by the instant `t1`, split by a fire line's
/// bit.
///
/// A write is counted when the cell's old arrival is after `t1` and its
/// new one is not. Arrivals only fall, so a cell is counted once, exactly
/// when its final arrival is `≤ t1` — whatever `t1` is, the run's horizon
/// `t0 + duration` included or not. Seeds are written without a count,
/// and a lit cell that cannot burn is never written. So with the
/// interval's target as the line and seeds resolved from its start line,
/// [`BurnCount::in_mask`] and [`BurnCount::outside`] are Eq. (3)'s hits
/// and false alarms over the whole raster with the start line excluded,
/// and no cell is read after the run to find them. A counted write reads
/// one bit of the line.
#[derive(Debug, Clone, Copy)]
pub struct BurnCount<'a> {
    /// The line the writes are split by; `None` on an uncounted run.
    pub(super) line: Option<&'a FireLine>,
    pub(super) t1: f64,
    pub(super) in_mask: usize,
    pub(super) outside: usize,
}

impl<'a> BurnCount<'a> {
    /// A count of the cells a run burns by `t1`, split by `line` (the
    /// terrain's shape).
    pub fn new(line: &'a FireLine, t1: f64) -> Self {
        Self {
            line: Some(line),
            t1,
            in_mask: 0,
            outside: 0,
        }
    }

    /// The count an uncounted run carries: no arrival is `≤ −∞`, so it
    /// never looks for its (absent) line.
    pub(super) fn off() -> BurnCount<'static> {
        BurnCount {
            line: None,
            t1: f64::NEG_INFINITY,
            in_mask: 0,
            outside: 0,
        }
    }

    /// Cells burned by `t1` whose bit is set in the line.
    pub fn in_mask(&self) -> usize {
        self.in_mask
    }

    /// Cells burned by `t1` whose bit is clear in the line.
    pub fn outside(&self) -> usize {
        self.outside
    }

    /// Whether the count reads a line of `len` cells: an uncounted run's
    /// reads none.
    pub(super) fn fits(&self, len: usize) -> bool {
        self.line.is_none_or(|line| line.len() == len)
    }

    /// Counts the write of `arrival` over `old` into cell `idx`.
    #[inline]
    pub(super) fn record(&mut self, idx: usize, old: f64, arrival: f64) {
        if arrival <= self.t1 && old > self.t1 {
            if self.line.is_some_and(|line| line.bit(idx)) {
                self.in_mask += 1;
            } else {
                self.outside += 1;
            }
        }
    }
}

/// The written half of one run: the arrival raster plus the record of
/// where the run wrote it, which is what the next run resets and what
/// [`SimArena::written_ranges`](super::SimArena::written_ranges) reports,
/// and the run's [`BurnCount`].
pub(super) struct Trail<'a> {
    pub(super) out: &'a mut IgnitionMap,
    pub(super) span_lo: &'a mut [u32],
    pub(super) span_hi: &'a mut [u32],
    /// The first and last raster row written so far (`first > last`
    /// until the first write). A row is written iff its span is not
    /// empty, so only a row's first write can move them.
    pub(super) first: usize,
    pub(super) last: usize,
    pub(super) count: BurnCount<'a>,
}

impl std::ops::Deref for Trail<'_> {
    type Target = IgnitionMap;

    fn deref(&self) -> &IgnitionMap {
        self.out
    }
}

impl Trail<'_> {
    /// Writes `arrival` into cell `idx` = `(r, c)`, by its flat index,
    /// counts it ([`BurnCount::record`]) and records the write in row
    /// `r`'s span — and, on the row's first write, in the run's written
    /// rows. Returns the arrival it replaced.
    #[inline]
    pub(super) fn mark_written(&mut self, idx: usize, (r, c): (usize, usize), arrival: f64) -> f64 {
        debug_assert!(!arrival.is_nan() && arrival >= 0.0);
        let cell = &mut self.out.grid_mut().as_mut_slice()[idx];
        let old = std::mem::replace(cell, arrival);
        self.count.record(idx, old, arrival);
        let lo = self.span_lo[r];
        if lo == u32::MAX {
            self.first = self.first.min(r);
            self.last = self.last.max(r);
        }
        self.span_lo[r] = lo.min(c as u32);
        self.span_hi[r] = self.span_hi[r].max(c as u32);
        old
    }

    /// Writes `t0` into every cell of `seeds` (ascending) and records the
    /// writes, uncounted: the seeds' rows run from the first seed's to the
    /// last's, so a seed pays for its span alone.
    #[inline]
    pub(super) fn write_seeds(&mut self, seeds: &[u32], t0: f64) {
        let cols = self.out.cols();
        // Borrowed once, so the loop keeps the three slices in registers.
        let (span_lo, span_hi) = (&mut *self.span_lo, &mut *self.span_hi);
        let arrivals = self.out.grid_mut().as_mut_slice();
        for &sidx in seeds {
            let idx = sidx as usize;
            let (r, c) = (idx / cols, idx % cols);
            arrivals[idx] = t0;
            span_lo[r] = span_lo[r].min(c as u32);
            span_hi[r] = span_hi[r].max(c as u32);
        }
        if let (Some(&first), Some(&last)) = (seeds.first(), seeds.last()) {
            self.first = self.first.min(first as usize / cols);
            self.last = self.last.max(last as usize / cols);
        }
    }
}

/// Debug-build audit of the pop order every kernel must realize —
/// ascending time, ties broken by larger cell index. That order is the
/// whole bit-identity argument (see the module docs).
#[inline]
pub(super) fn audit_pop_order(prev: &mut Option<(f64, u32)>, t: f64, idx: u32) {
    debug_assert!(
        prev.is_none_or(|(pt, pi)| pt < t || (pt == t && pi >= idx)),
        "pop order regressed: {prev:?} then ({t}, {idx})"
    );
    *prev = Some((t, idx));
}

impl Sweep<'_> {
    /// The directional spread table of cell `idx` as the reference kernel
    /// reads it: by reference where one is shared, all eight rates built on
    /// the spot on a fully heterogeneous terrain — the caller is the cell's
    /// one live pop, so there is no one to keep it for. [`Sweep::relax`]
    /// resolves a shared table itself and, on a per-cell terrain, reads
    /// single rates off the cell's ellipse instead ([`Sweep::relax_cell`]).
    #[inline]
    pub(super) fn table(&self, idx: usize) -> Cow<'_, [f64; 8]> {
        Cow::Borrowed(match &self.tables {
            Tables::Uniform(table) => &table.ros,
            Tables::PerFuel(by_code, fuel) => &by_code[fuel[idx] as usize].ros,
            Tables::PerCell { globals, factors } => {
                #[cfg(test)]
                super::tests::TABLES_BUILT.with(|n| n.set(n.get() + 1));
                let table = self
                    .sim
                    .cell_table_at(idx, self.scenario, globals, &factors.base);
                return Cow::Owned(table);
            }
        })
    }

    /// The arrival at the neighbour of `at` in direction `dir`
    /// ([`landscape::NEIGHBOUR_OFFSETS`]) if a pop of `at` at `t` could
    /// still improve it: inside the raster and holding an arrival more
    /// than `SMIDGEN` after `t`. Every edge costs `d ≥ 0`, so `t + d`
    /// cannot beat a neighbour that `t` itself does not. The checked path,
    /// for pops on the raster border.
    #[inline]
    fn open_at(
        &self,
        t: f64,
        (r, c): (usize, usize),
        dir: usize,
        raster: &IgnitionMap,
    ) -> Option<f64> {
        let (dr, dc, _) = landscape::NEIGHBOUR_OFFSETS[dir];
        let (nr, nc) = (r.wrapping_add_signed(dr), c.wrapping_add_signed(dc));
        if nr >= self.rows || nc >= self.cols {
            return None;
        }
        let arrival = raster.time(nr, nc);
        (t < arrival - SMIDGEN).then_some(arrival)
    }

    /// Which neighbours a pop of cell `idx` = `at` at `t` could still
    /// improve, as a bit per direction, with each open neighbour's arrival
    /// in `times` — every neighbour read once. An interior cell reaches
    /// its eight through the run's flat index steps with no bounds test;
    /// a border cell goes through [`Sweep::open_at`].
    #[inline]
    fn open_mask(
        &self,
        t: f64,
        idx: usize,
        (r, c): (usize, usize),
        raster: &IgnitionMap,
        times: &mut [f64; 8],
    ) -> u8 {
        let mut open = 0u8;
        let interior = r.wrapping_sub(1) < self.rows.saturating_sub(2)
            && c.wrapping_sub(1) < self.cols.saturating_sub(2);
        if interior {
            let arrivals = raster.grid().as_slice();
            for (dir, (&step, slot)) in self.steps.iter().zip(times.iter_mut()).enumerate() {
                *slot = arrivals[idx.wrapping_add_signed(step)];
                open |= u8::from(t < *slot - SMIDGEN) << dir;
            }
        } else {
            for (dir, slot) in times.iter_mut().enumerate() {
                if let Some(arrival) = self.open_at(t, (r, c), dir, raster) {
                    *slot = arrival;
                    open |= 1 << dir;
                }
            }
        }
        open
    }

    /// The one relaxation step behind the bucket and tiled kernels: the
    /// pop of `(t, idx)` against `raster`, handing `emit` every neighbour
    /// arrival that survives — an edge that spreads, inside the horizon,
    /// beating the neighbour's current arrival by more than `SMIDGEN`, into
    /// a cell that can burn — in direction order. A stale pop (`t` already
    /// beaten at `idx`; the fallback for what `BucketQueue::improve` cannot
    /// unlink) emits nothing, and neither does one with no open
    /// neighbour — the interior of a front — which is found out before the
    /// cell's table is asked for, so only a pop that can move the front
    /// pays for one; on a per-cell terrain that pop pays for one ellipse
    /// and one rate per open direction ([`Sweep::relax_cell`]), not for a
    /// table. On a shared table an edge costs one addition: the run's
    /// [`FuelTable::cost`] holds each direction's traversal time, `+∞`
    /// where nothing spreads; all eight edges' horizon and improvement
    /// tests fold into one bit mask, with no branch per direction. The
    /// eight neighbours are read once, before any emit: they are distinct
    /// cells, so a write for one (a caller that applies its candidates
    /// writes them back, [`Trail::mark_written`]; one that defers them
    /// reads a snapshot) never changes the verdict on another. The cell's row and column
    /// come from one `u32` division (a terrain holds at most `u32::MAX`
    /// cells), and its arrival is read by flat index.
    #[inline]
    pub(super) fn relax<R: std::ops::Deref<Target = IgnitionMap>>(
        &self,
        t: f64,
        idx: usize,
        raster: &mut R,
        mut emit: impl FnMut(&mut R, f64, usize, (usize, usize)),
    ) {
        let (t_end, cell, cols) = (self.t_end, idx as u32, self.cols as u32);
        let r = cell / cols;
        let at = (r as usize, (cell - r * cols) as usize);
        if t > raster.grid().as_slice()[idx] + SMIDGEN {
            #[cfg(test)]
            super::tests::STALE_POPS.with(|n| n.set(n.get() + 1));
            return; // stale entry
        }
        let mut times = [0.0; 8];
        let mut open = self.open_mask(t, idx, at, raster, &mut times);
        if open == 0 {
            return;
        }
        // The shared lookup is resolved here, not through `Sweep::table`:
        // a call per pop costs the small uniform-terrain workloads a few
        // per cent.
        let cost: &[f64; 8] = match &self.tables {
            Tables::Uniform(table) => &table.cost,
            Tables::PerFuel(by_code, fuel) => &by_code[fuel[idx] as usize].cost,
            Tables::PerCell { factors, .. } => {
                return self.relax_cell(factors, (t, idx, at), (open, &times), raster, emit);
            }
        };
        // `+∞` where the rate is at most `SMIDGEN`: past any horizon.
        let arrivals: [f64; 8] = std::array::from_fn(|dir| t + cost[dir]);
        let mut pass = 0u8;
        for (dir, (&arrival, &time)) in arrivals.iter().zip(&times).enumerate() {
            pass |= u8::from((arrival <= t_end) & (arrival < time - SMIDGEN)) << dir;
        }
        open &= pass;
        while open != 0 {
            let dir = open.trailing_zeros() as usize;
            open &= open - 1;
            let arrival = arrivals[dir];
            let nidx = idx.wrapping_add_signed(self.steps[dir]);
            if !self.burnable.at(nidx) {
                continue;
            }
            let (dr, dc, _) = landscape::NEIGHBOUR_OFFSETS[dir];
            let to = (at.0.wrapping_add_signed(dr), at.1.wrapping_add_signed(dc));
            emit(raster, arrival, nidx, to);
        }
    }

    /// [`Sweep::relax`] on a per-cell terrain, for a live pop of `(t, idx)`
    /// at `at` with neighbours `open` and their arrivals `times`: builds
    /// the cell's spread ellipse once and reads its rate towards an open
    /// neighbour only when that neighbour can burn — the rate
    /// `compass_ros` puts in the full table, by the same expression. The
    /// guards are the shared loop's with the burnability test moved first;
    /// each only skips a direction, so the emits, in direction order, are
    /// the same.
    // Out of line, so the shared loop every kernel inlines stays as small
    // as it was.
    #[inline(never)]
    fn relax_cell<R: std::ops::Deref<Target = IgnitionMap>>(
        &self,
        factors: &CellFactors,
        (t, idx, at): (f64, usize, (usize, usize)),
        (mut open, times): (u8, &[f64; 8]),
        raster: &mut R,
        mut emit: impl FnMut(&mut R, f64, usize, (usize, usize)),
    ) {
        #[cfg(test)]
        super::tests::TABLES_BUILT.with(|n| n.set(n.get() + 1));
        let ellipse = self.sim.cell_ellipse_at(idx, self.scenario, factors);
        if ellipse.ros_max <= SMIDGEN {
            return; // nothing spreads from this cell
        }
        while open != 0 {
            let dir = open.trailing_zeros() as usize;
            open &= open - 1;
            let nidx = idx.wrapping_add_signed(self.steps[dir]);
            if !self.burnable.at(nidx) {
                continue;
            }
            #[cfg(test)]
            super::tests::RATES_READ.with(|n| n.set(n.get() + 1));
            let ros = ellipse.ros_at_azimuth(45.0 * dir as f64);
            if ros <= SMIDGEN {
                continue;
            }
            let (dr, dc, dist_factor) = landscape::NEIGHBOUR_OFFSETS[dir];
            let arrival = t + dist_factor * self.cell_ft / ros;
            if arrival > self.t_end || arrival >= times[dir] - SMIDGEN {
                continue;
            }
            let to = (at.0.wrapping_add_signed(dr), at.1.wrapping_add_signed(dc));
            emit(raster, arrival, nidx, to);
        }
    }
}
