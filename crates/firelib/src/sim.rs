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
//! directional table is built when that cell pops (its one live pop is the
//! table's only reader, so nothing is cached), a pop that can no longer
//! improve any neighbour builds none, and a pop reads each of its eight
//! neighbours once. What depends on the start line alone — which lit
//! cells can burn, which of them are on the front (a neighbour still to
//! burn, so worth queueing), their bounding box — is a [`Seeds`] value,
//! resolved once per fire line (once per interval of a case) rather than
//! once per run.
//!
//! * [`Kernel::Heap`] — the reference implementation: a classic Dijkstra
//!   over a `BinaryHeap<(Reverse<Time>, u32)>` whose window is the whole
//!   raster. Simple, and kept as the oracle every other path is pinned
//!   against — which is why it has its own pop-and-relax loop.
//! * [`Kernel::Bucket`] — the landscape-scale hot path: a monotone
//!   bucket-queue (Dial-style) wavefront sweep with **active-front
//!   bounding**. Arrival times live in `[t0, t0 + duration]`, so the
//!   frontier is kept in an array of buckets keyed by quantized arrival
//!   time (O(1) push, cache-friendly per-bucket drains); the raster keeps
//!   exact `f64` arrival times — buckets only order the frontier. The
//!   window the fire can reach within the horizon bounds only the
//!   dirty-span bookkeeping, so the next run resets what this one wrote
//!   instead of O(rows×cols).
//! * [`Kernel::Tiled`] — the bucket kernel's levels drained by several
//!   cores at once and merged back in pop order (`Sweep::run_tiled`).
//!
//! **Why the kernels are bit-identical.** A run is a sequence of pops, and
//! three things fix everything a pop does:
//!
//! 1. *The pop order.* Every kernel pops in the strict total order of the
//!    reference heap's `(Reverse<Time>, u32)` tuples: ascending time, ties
//!    by descending cell index. The bucket queue drains each bucket
//!    through a mini-heap in exactly that order, and every traversal cost
//!    is positive, so an entry pushed while draining bucket `k` can never
//!    belong to a bucket `< k` (quantization is monotone in the arrival
//!    time). Debug builds audit the realized order of all three kernels
//!    (`audit_pop_order`).
//! 2. *The table.* `Sweep::table` resolves a cell's directional spread
//!    table the same way for every kernel, and a cell's table depends on
//!    that cell alone — not on when, or on which thread, it was built.
//! 3. *The relaxation.* `Sweep::relax` is the one step that turns a pop
//!    into neighbour arrivals: the staleness test, the edge cost `t +
//!    distance / ros`, the horizon and `SMIDGEN`-tolerance comparisons, the
//!    burnability of the neighbour. The reference kernel spells the same
//!    step out independently, without the step's early outs: it builds a
//!    table for every live pop and queues every seed, which is what the
//!    front of a [`Seeds`] is checked against.
//!
//! Same pops in the same order, through the same tables and the same step,
//! is the same execution — every relaxation decision, every tolerance
//! comparison, every `f64` written. The `kernel_equivalence` property
//! suite and the in-run digest checks of `harness landscape` pin this with
//! exact raster-bit comparisons.
//!
//! The traversal time of the edge from a burning cell to a neighbour is
//! `distance / ros_source(azimuth)`, i.e. the fire crosses the source cell's
//! fuel towards the neighbour, matching fireLib's per-cell spread
//! computation. Cells whose own fuel bed cannot burn are never ignited.

use crate::combustion::{standard_beds, FuelBed};
use crate::scenario::Scenario;
use crate::spread::{
    no_wind_no_slope, wind_slope_from_ros0, wind_slope_max, SpreadInputs, SpreadVector,
};
use crate::terrain::Terrain;
use crate::SMIDGEN;
use landscape::geometry::normalize_azimuth;
use landscape::{FireLine, IgnitionMap, UNIGNITED};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Total-ordering wrapper for ignition times, ordered by
/// [`f64::total_cmp`] — branch-free and panic-free (times are never NaN by
/// construction, so IEEE total order and numeric order coincide here).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Which propagation kernel a `simulate_arena_kernel` call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Reference Dijkstra over a binary heap, every seed queued, full-raster
    /// reset.
    Heap,
    /// Monotone bucket-queue wavefront sweep with active-front bounding —
    /// the default hot path; bit-identical to [`Kernel::Heap`].
    Bucket,
    /// Multi-core tiled wavefront: the bucket queue is processed in
    /// epoch-synchronized bucket levels, each epoch's pops partitioned into
    /// spatial tiles and drained concurrently into per-tile candidate
    /// outboxes; a sequential merge then applies every candidate in the
    /// exact global pop order, so the raster stays bit-identical to
    /// [`Kernel::Heap`] (see the module docs for the argument).
    Tiled {
        /// Spatial tile edge in cells (window partition granularity);
        /// must be non-zero.
        tile: usize,
        /// Drain worker threads; `0` means auto
        /// (`std::thread::available_parallelism`).
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

/// Number of arrival-time buckets the monotone queue quantizes the horizon
/// into. More buckets → smaller per-bucket mini-heaps; a run walks the
/// array once as it drains, O(`BUCKETS`), which is negligible against any
/// real sweep.
const BUCKETS: usize = 2048;

/// Minimum epoch size (frontier entries) the tiled kernel aims for when it
/// bundles consecutive bucket levels into one drain/merge epoch: big
/// enough to amortize the scoped fork/join over real relaxation work,
/// small enough that in-epoch cascades (arrivals landing inside the epoch's
/// own bucket span, which the sequential merge must relax itself) stay a
/// small fraction of the pops.
const TILE_GRAIN: usize = 4096;

/// Epochs smaller than this drain inline on the calling thread — forking
/// workers for a handful of pops costs more than it buys.
const TILE_INLINE: usize = 1024;

/// Monotone bucket queue (Dial's algorithm) over the arrival-time horizon
/// `[t0, t0 + duration]`, with one twist that buys exactness: the bucket
/// currently being drained is kept as a binary mini-heap ordered by the
/// *same* total order the reference `BinaryHeap<(Reverse<Time>, u32)>`
/// pops in (ascending time via `total_cmp`, ties by descending index).
/// Future buckets are plain unsorted `Vec`s — O(1) push — and are
/// heapified once when the drain cursor reaches them.
///
/// Every traversal cost is positive, so a push performed while draining
/// bucket `k` has an arrival time ≥ the time of some entry in bucket `k`,
/// and quantization (`floor((t - t0) · inv_delta)`) is monotone in `t`
/// under f64 rounding (subtraction and multiplication by a positive
/// constant are monotone). Pushes therefore never target a past bucket,
/// and the realized global pop order is the strict `(time, index)` total
/// order — identical to the reference heap's, entry for entry.
#[derive(Debug, Clone, Default)]
struct BucketQueue {
    /// Future frontier entries, bucketed by quantized arrival time.
    buckets: Vec<Vec<(f64, u32)>>,
    /// The bucket currently being drained, as a mini-heap in pop order.
    cur: Vec<(f64, u32)>,
    /// Index of the bucket `cur` was filled from; pushes quantizing to
    /// `<= cursor` (only possible for `== cursor`) join the mini-heap.
    cursor: usize,
    /// Entries currently queued across `cur` and all future buckets.
    len: usize,
    base: f64,
    inv_delta: f64,
}

impl BucketQueue {
    /// `true` when `a` pops before `b` under the reference heap's order:
    /// smaller time first, equal times broken by larger cell index.
    #[inline]
    fn before(a: (f64, u32), b: (f64, u32)) -> bool {
        match a.0.total_cmp(&b.0) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a.1 > b.1,
        }
    }

    /// Prepares the queue for one run over `[t0, t0 + duration]`. Bucket
    /// `Vec`s keep their capacity across runs (the allocation-free
    /// steady-state property). A run that returned drained the queue, so
    /// there is nothing to clear — 2048 stores that were a third of a
    /// `meadow_small` evaluation; only a run abandoned by a panic leaves
    /// entries behind.
    fn reset(&mut self, t0: f64, duration: f64) {
        if self.buckets.len() != BUCKETS {
            self.buckets.resize_with(BUCKETS, Vec::new);
        }
        if self.len != 0 {
            for b in &mut self.buckets {
                b.clear();
            }
            self.cur.clear();
        }
        self.cursor = 0;
        self.len = 0;
        self.base = t0;
        self.inv_delta = (BUCKETS - 1) as f64 / duration;
    }

    #[inline]
    fn bucket_of(&self, t: f64) -> usize {
        // t >= base always (seeds carry t0, relaxations only increase), so
        // the cast truncates a non-negative value; clamp covers t == t_end.
        (((t - self.base) * self.inv_delta) as usize).min(BUCKETS - 1)
    }

    // lint: no_alloc
    #[inline]
    fn push(&mut self, t: f64, idx: u32) {
        self.len += 1;
        let b = self.bucket_of(t);
        if b <= self.cursor {
            self.cur.push((t, idx));
            let mut i = self.cur.len() - 1;
            while i > 0 {
                let p = (i - 1) / 2;
                if Self::before(self.cur[i], self.cur[p]) {
                    self.cur.swap(i, p);
                    i = p;
                } else {
                    break;
                }
            }
        } else {
            self.buckets[b].push((t, idx));
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.cur.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let mut best = l;
            let r = l + 1;
            if r < n && Self::before(self.cur[r], self.cur[l]) {
                best = r;
            }
            if Self::before(self.cur[best], self.cur[i]) {
                self.cur.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
    }

    // lint: no_alloc
    fn pop(&mut self) -> Option<(f64, u32)> {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            loop {
                // len > 0 and every queued entry lives in cur or a bucket
                // > cursor, so a non-empty bucket exists ahead of the cursor.
                self.cursor += 1;
                debug_assert!(self.cursor < BUCKETS, "bucket queue lost entries");
                if !self.buckets[self.cursor].is_empty() {
                    // Move elements out rather than swap the `Vec`s so every
                    // bucket keeps its own high-water capacity (swapping
                    // shuffles capacities between slots and defeats the
                    // steady-state allocation-free property).
                    self.cur.append(&mut self.buckets[self.cursor]);
                    break;
                }
            }
            for i in (0..self.cur.len() / 2).rev() {
                self.sift_down(i);
            }
        }
        self.len -= 1;
        let top = self.cur[0];
        // lint: allow(panic) — pop() is only entered with len > 0, and the refill above just moved a bucket into cur
        let last = self.cur.pop().expect("cur is non-empty");
        if !self.cur.is_empty() {
            self.cur[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Tiled-kernel entry point: queues `(t, idx)` for a *future* epoch
    /// without touching the drain mini-heap. The tiled kernel only calls
    /// this for arrivals quantizing past the current epoch's last bucket
    /// (in-epoch arrivals go to the merge cascade instead), so the entry
    /// always lands at or ahead of the cursor.
    // lint: no_alloc
    #[inline]
    fn stage(&mut self, t: f64, idx: u32) {
        let b = self.bucket_of(t);
        debug_assert!(b >= self.cursor, "staged entry targets a drained epoch");
        self.len += 1;
        self.buckets[b].push((t, idx));
    }

    /// Tiled-kernel epoch extraction: moves every entry of the next run of
    /// non-empty buckets into `into` (unordered) until at least `grain`
    /// entries are taken or the queue empties, and returns the index of the
    /// last bucket taken. Entries staged afterwards must quantize past that
    /// bucket. Returns `None` when the queue is empty.
    // lint: no_alloc
    fn take_levels(&mut self, grain: usize, into: &mut Vec<(f64, u32)>) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        into.clear();
        while self.buckets[self.cursor].is_empty() {
            self.cursor += 1;
            debug_assert!(self.cursor < BUCKETS, "bucket queue lost entries");
        }
        let mut k = self.cursor;
        loop {
            let taken = self.buckets[k].len();
            into.append(&mut self.buckets[k]);
            self.len -= taken;
            if into.len() >= grain || self.len == 0 || k + 1 == BUCKETS {
                break;
            }
            k += 1;
        }
        self.cursor = k + 1;
        Some(k)
    }

    /// Heap bytes currently held across all bucket storage.
    fn bytes(&self) -> usize {
        let entry = std::mem::size_of::<(f64, u32)>();
        let entries: usize =
            self.cur.capacity() + self.buckets.iter().map(Vec::capacity).sum::<usize>();
        entries * entry + self.buckets.capacity() * std::mem::size_of::<Vec<(f64, u32)>>()
    }
}

/// The rectangular active-front window of one bucket-kernel run: the
/// ignition bounding box expanded by the farthest distance the fire can
/// travel within the horizon (Chebyshev metric — every neighbour step,
/// diagonal included, advances at most one Chebyshev unit and costs at
/// least `cell_ft / ros_cap` minutes). It bounds bookkeeping, not work:
/// writes inside it are recorded as per-row spans, and the tiled kernel
/// partitions it into tiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Window {
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
}

impl Window {
    #[inline]
    fn contains(&self, r: usize, c: usize) -> bool {
        r.wrapping_sub(self.r0) < self.rows && c.wrapping_sub(self.c0) < self.cols
    }

    /// This window grown by `reach` cells on every side, clipped to a
    /// `rows × cols` raster.
    fn grown(&self, reach: usize, rows: usize, cols: usize) -> Window {
        let (r0, c0) = (self.r0.saturating_sub(reach), self.c0.saturating_sub(reach));
        let r1 = (self.r0 + self.rows - 1 + reach).min(rows - 1);
        let c1 = (self.c0 + self.cols - 1 + reach).min(cols - 1);
        Window {
            r0,
            c0,
            rows: r1 - r0 + 1,
            cols: c1 - c0 + 1,
        }
    }
}

/// What every run from one fire line starts from, resolved against one
/// terrain by [`FireSim::seeds`]. Nothing in it depends on the scenario,
/// so a caller that evaluates many scenarios from one line resolves it
/// once — `ess` does, per interval of a case — and each run goes straight
/// to writing the seeds and queueing the front
/// ([`FireSim::simulate_arena_seeded`]). The `&FireLine` entry points
/// resolve one per call through the same function.
///
/// * **The seeds:** the lit cells that can burn, ascending. With a fuel
///   layer that is the cells whose own fuel bed burns. Without one every
///   lit cell is listed: burnability is then global, and each run's
///   scenario model decides between all of them and none.
/// * **The front:** the seeds with an in-raster neighbour that is not a
///   seed, ascending. Once every seed holds `t0`, a seed off the front
///   would pop, emit nothing and change nothing (arrivals only fall, so a
///   neighbour closed at `t0` stays closed), so the bucket and tiled
///   kernels queue the front alone and a filled blob costs its rim, not
///   its area. The reference heap queues every seed.
/// * **The bounding box** of the seeds, which a run grows by the
///   scenario's reach into its active-front window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Seeds {
    rows: usize,
    cols: usize,
    cells: Vec<u32>,
    front: Vec<u32>,
    /// Bounding box of `cells`; meaningless when there are none.
    bbox: Window,
    /// Burnability came from the terrain's fuel layer (else it is the
    /// scenario model's, decided per run).
    fuel_layer: bool,
}

impl Seeds {
    /// The seed cells (row-major indices), ascending.
    pub fn cells(&self) -> &[u32] {
        &self.cells
    }

    /// The seeds on the front — the ones the bucket and tiled kernels
    /// queue — ascending.
    pub fn front(&self) -> &[u32] {
        &self.front
    }

    /// Heap bytes held by the two index lists.
    fn bytes(&self) -> usize {
        (self.cells.capacity() + self.front.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Which cells of the arena's arrival raster may differ from `UNIGNITED`
/// after the previous run — the next run resets exactly this set instead
/// of the whole raster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dirty {
    /// Fresh raster (or already reset): all cells hold `UNIGNITED`.
    Clean,
    /// Unknown write set (reference kernel ran): full reset required.
    All,
    /// Bucket run: writes confined to the per-row spans recorded in
    /// `span_lo`/`span_hi` for `rows` window rows starting at `r0`, plus
    /// the explicit `stray` overflow list.
    Spans { r0: usize, rows: usize },
}

/// Restores the all-`UNIGNITED` invariant of `out` by resetting exactly
/// what the previous run wrote: nothing for a fresh raster, the recorded
/// per-row spans (plus strays) after a span-tracked run, or a full clear
/// after a reference-kernel run.
// lint: no_alloc
fn reset_raster(
    dirty: &mut Dirty,
    out: &mut IgnitionMap,
    span_lo: &[u32],
    span_hi: &[u32],
    stray: &mut Vec<u32>,
    cols: usize,
) {
    match *dirty {
        Dirty::Clean => {}
        Dirty::All => out.clear(),
        Dirty::Spans { r0, rows: drows } => {
            let slice = out.grid_mut().as_mut_slice();
            for (i, (&lo, &hi)) in span_lo.iter().zip(span_hi.iter()).enumerate().take(drows) {
                if lo <= hi {
                    let off = (r0 + i) * cols;
                    slice[off + lo as usize..=off + hi as usize].fill(UNIGNITED);
                }
            }
            for &sidx in stray.iter() {
                slice[sidx as usize] = UNIGNITED;
            }
        }
    }
    stray.clear();
    *dirty = Dirty::Clean;
}

/// Leaves each out-of-window cell of a finished run listed once (a cell
/// relaxed twice was pushed twice), so the stray list is a set of disjoint
/// single-cell ranges for [`SimArena::written_ranges`].
// lint: no_alloc
fn dedup_strays(stray: &mut Vec<u32>) {
    stray.sort_unstable();
    stray.dedup();
}

/// The worker-owned simulation arena: every buffer the propagation engine
/// needs across evaluations, allocated once and reused.
///
/// `FireSim` is immutable shared state (terrain + fuel beds behind `Arc`s);
/// a `SimArena` is the *mutable* counterpart one worker owns privately. It
/// holds the frontier queues, the seed lists, the dirty-span bookkeeping
/// and the arrival-time raster — no spread tables beyond the 14 inline
/// per-fuel ones: a per-cell table lives for the one pop that reads it.
/// Construction is O(1): nothing is allocated until the first run, and
/// from then on every buffer is retained at its high-water mark, so once
/// capacities have grown to cover the scenarios a worker evaluates,
/// [`FireSim::simulate_arena`] performs **zero further allocations** —
/// construct one arena per worker (see [`FireSim::arena`]) and reuse it
/// for every scenario. On the default bucket kernel the high-water mark
/// tracks the *fire*: a short burn on a 1000×1000 map holds the frontier
/// it queued and eight bytes per window row of spans, plus the (mandatory)
/// full arrival raster.
#[derive(Debug, Clone)]
pub struct SimArena {
    rows: usize,
    cols: usize,
    /// Per-fuel-code directional spread tables (filled only on fuel-only
    /// mosaics, and only for the codes the fuel layer holds); inline, so
    /// the fast path never touches the heap.
    per_fuel: [[f64; 8]; 14],
    /// Reference-kernel Dijkstra frontier; empty unless [`Kernel::Heap`]
    /// runs, capacity persists.
    heap: BinaryHeap<(Reverse<Time>, u32)>,
    /// Bucket-kernel frontier.
    queue: BucketQueue,
    /// The seeds of the last run that was handed a fire line rather than
    /// resolved [`Seeds`] (index scratch).
    line_seeds: Seeds,
    /// Per-window-row dirty column spans of the last bucket run
    /// (inclusive; `lo > hi` means the row was never written).
    span_lo: Vec<u32>,
    span_hi: Vec<u32>,
    /// Cells written outside the active window (possible only through
    /// floating-point slack in the spread-rate bound; reset individually),
    /// each listed once when a run returns.
    stray: Vec<u32>,
    /// What the next run must reset before writing.
    dirty: Dirty,
    /// Tiled-kernel epoch scratch; empty unless [`Kernel::Tiled`] runs.
    epochs: EpochScratch,
    /// The arrival raster of the most recent evaluation; allocated on
    /// first use.
    out: Option<IgnitionMap>,
}

/// What the tiled kernel keeps between epochs, all sized at the high-water
/// mark.
#[derive(Debug, Clone, Default)]
struct EpochScratch {
    /// Per-tile drain scratch, one slot per *active* tile of the current
    /// epoch (tiles with no pops cost nothing).
    tiles: Vec<TileScratch>,
    /// The entries taken from the bucket queue for the levels currently
    /// being drained.
    epoch: Vec<(f64, u32)>,
    /// Tile-keyed epoch entries `(tile, t, idx)`, sorted by `(tile, pop
    /// order)` so each tile's pops form one contiguous run.
    keyed: Vec<(u32, f64, u32)>,
    /// `(start, end)` ranges into the sorted epoch buffer, one per active
    /// tile.
    tile_ranges: Vec<(u32, u32)>,
    /// K-way merge frontier over tile outbox heads and in-epoch cascade
    /// entries, in reference pop order. The third field is the source tile
    /// slot (`u32::MAX` marks a cascade entry).
    merge: BinaryHeap<(Reverse<Time>, u32, u32)>,
}

impl EpochScratch {
    /// Heap bytes currently held.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let groups: usize = self.tiles.iter().map(|t| t.groups.capacity()).sum();
        self.tiles.capacity() * size_of::<TileScratch>()
            + groups * size_of::<PopGroup>()
            + self.epoch.capacity() * size_of::<(f64, u32)>()
            + self.keyed.capacity() * size_of::<(u32, f64, u32)>()
            + self.tile_ranges.capacity() * size_of::<(u32, u32)>()
            + self.merge.capacity() * size_of::<(Reverse<Time>, u32, u32)>()
    }
}

/// One deferred pop of the tiled kernel: the `(t, idx)` entry itself plus
/// the surviving relaxation candidates precomputed during the parallel
/// drain. Candidate arrivals are pure functions of `(t, spread table,
/// geometry)`, so they can be computed away from the raster; every
/// raster-dependent decision is re-checked at apply time.
#[derive(Debug, Clone, Copy, Default)]
struct PopGroup {
    t: f64,
    idx: u32,
    len: u32,
    cand: [(f64, u32); 8],
}

/// Per-tile drain state of the tiled kernel: the outbox of candidate
/// groups (in pop order) and the merge cursor into it.
#[derive(Debug, Clone, Default)]
struct TileScratch {
    groups: Vec<PopGroup>,
    head: usize,
}

impl SimArena {
    /// An arena for `rows × cols` rasters. Construction allocates nothing
    /// — every buffer (arrival raster included) is grown on first use and
    /// then retained at its high-water mark — so arenas for shapes that
    /// are never evaluated cost no memory (the per-worker `ArenaCache`
    /// keys arenas by shape).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "arena dimensions must be non-zero");
        Self {
            rows,
            cols,
            per_fuel: [[0.0; 8]; 14],
            heap: BinaryHeap::new(),
            queue: BucketQueue::default(),
            line_seeds: Seeds::default(),
            span_lo: Vec::new(),
            span_hi: Vec::new(),
            stray: Vec::new(),
            dirty: Dirty::Clean,
            epochs: EpochScratch::default(),
            out: None,
        }
    }

    /// Raster rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Raster columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The arrival map written by the last [`FireSim::simulate_arena`] run.
    ///
    /// # Panics
    /// Panics when no simulation has run in this arena yet (the raster is
    /// allocated lazily on first use).
    pub fn map(&self) -> &IgnitionMap {
        self.out
            .as_ref()
            // lint: allow(panic) — documented `# Panics` contract: reading an arena before any run is caller error, pinned by the arena property suite
            .expect("SimArena::map: no simulation has run in this arena yet")
    }

    /// The index ranges of [`SimArena::map`] the last run may have written:
    /// disjoint, and every cell outside them holds `UNIGNITED`. After a
    /// bucket or tiled run these are the per-row spans of the active-front
    /// window plus any stray cells beyond it, so a consumer that only cares
    /// about ignited cells (Eq. (3) scoring) pays for the fire, not the
    /// raster; after a reference-kernel run, which tracks nothing, the one
    /// range is the whole raster.
    // lint: no_alloc
    pub fn written_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let cols = self.cols;
        let (whole, r0, span_rows, strays) = match self.dirty {
            Dirty::Clean => (None, 0, 0, &[][..]),
            Dirty::All => (Some(0..self.rows * cols), 0, 0, &[][..]),
            Dirty::Spans { r0, rows } => (None, r0, rows, &self.stray[..]),
        };
        let spans = self.span_lo.iter().zip(&self.span_hi).take(span_rows);
        whole
            .into_iter()
            .chain(spans.enumerate().filter(|(_, (lo, hi))| lo <= hi).map(
                move |(i, (&lo, &hi))| {
                    let off = (r0 + i) * cols;
                    off + lo as usize..off + hi as usize + 1
                },
            ))
            .chain(strays.iter().map(|&s| s as usize..s as usize + 1))
    }

    /// Heap bytes currently held by every scratch structure in the arena
    /// — frontier queues, seed lists, dirty-span bookkeeping —
    /// **excluding** the arrival raster itself (which is the mandatory
    /// output, reported by [`SimArena::raster_bytes`]). It scales with the
    /// fire a run queued, not with the raster or the window.
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.heap.capacity() * size_of::<(Reverse<Time>, u32)>()
            + self.queue.bytes()
            + (self.span_lo.capacity() + self.span_hi.capacity() + self.stray.capacity())
                * size_of::<u32>()
            + self.line_seeds.bytes()
            + self.epochs.bytes()
    }

    /// Heap bytes held by the arrival raster (0 until the first run).
    pub fn raster_bytes(&self) -> usize {
        self.out
            .as_ref()
            .map_or(0, |m| m.rows() * m.cols() * std::mem::size_of::<f64>())
    }
}

/// How a run resolves a cell's directional spread table.
enum Tables<'a> {
    /// Uniform terrain: one table for the whole map.
    Uniform([f64; 8]),
    /// Fuel mosaic with globally uniform slope/aspect/wind: one table per
    /// fuel code, looked up through the fuel layer.
    PerFuel(&'a [[f64; 8]; 14], &'a [u8]),
    /// Fully heterogeneous terrain: a cell's table is built when the cell
    /// pops ([`FireSim::cell_table_at`]), from the scenario's global
    /// inputs and the hoisted per-model base.
    PerCell {
        globals: SpreadInputs,
        base: [(f64, f64); 14],
    },
}

/// Which cells can ignite: a cell burns iff its own fuel bed can (no-fuel
/// cells are firebreaks). With no fuel layer burnability is global, and
/// only then is the scenario's model consulted — a layered terrain makes
/// it irrelevant, and must not panic on an out-of-catalog value it never
/// uses; without a layer an out-of-catalog model burns nowhere, as
/// [`Terrain::fuel_code_mask`] and the spread-rate bound already say.
#[derive(Clone, Copy)]
struct Burnable<'a> {
    fuel: Option<&'a [u8]>,
    beds: &'a [FuelBed],
    global: bool,
}

impl Burnable<'_> {
    #[inline]
    fn at(&self, idx: usize) -> bool {
        match self.fuel {
            Some(fuel) => self.beds[fuel[idx] as usize].burnable,
            None => self.global,
        }
    }
}

/// The read-only half of one run, built once by [`FireSim::run_kernel`] and
/// shared by all three kernels: everything a pop needs to turn into
/// arrival candidates for its neighbours.
struct Sweep<'a> {
    sim: &'a FireSim,
    scenario: &'a Scenario,
    burnable: Burnable<'a>,
    /// The active-front window: the cells writes are span-tracked in and
    /// the tiled kernel cuts into tiles; the whole raster on
    /// [`Kernel::Heap`].
    win: Window,
    tables: Tables<'a>,
    rows: usize,
    cols: usize,
    /// Row-major index offset of each [`landscape::NEIGHBOUR_OFFSETS`]
    /// direction: how an interior pop reaches its neighbours.
    steps: [isize; 8],
    cell_ft: f64,
    t0: f64,
    duration: f64,
    t_end: f64,
}

/// The written half of one run: the arrival raster plus the record of
/// where the run wrote it, which is what the next run resets and what
/// [`SimArena::written_ranges`] reports.
struct Trail<'a> {
    out: &'a mut IgnitionMap,
    span_lo: &'a mut [u32],
    span_hi: &'a mut [u32],
    stray: &'a mut Vec<u32>,
    win: Window,
}

impl std::ops::Deref for Trail<'_> {
    type Target = IgnitionMap;

    fn deref(&self) -> &IgnitionMap {
        self.out
    }
}

impl Trail<'_> {
    /// Writes `arrival` into cell `idx` = `(r, c)` and records the write:
    /// in the row's span inside the window, on the stray list beyond it.
    // lint: no_alloc
    #[inline]
    fn mark_written(&mut self, idx: usize, (r, c): (usize, usize), arrival: f64) {
        self.out.set_time(r, c, arrival);
        if self.win.contains(r, c) {
            let wr = r - self.win.r0;
            self.span_lo[wr] = self.span_lo[wr].min(c as u32);
            self.span_hi[wr] = self.span_hi[wr].max(c as u32);
        } else {
            self.stray.push(idx as u32);
        }
    }
}

/// Debug-build audit of the pop order every kernel must realize —
/// ascending time, ties broken by larger cell index. That order is the
/// whole bit-identity argument (see the module docs).
#[inline]
fn audit_pop_order(prev: &mut Option<(f64, u32)>, t: f64, idx: u32) {
    debug_assert!(
        prev.is_none_or(|(pt, pi)| pt < t || (pt == t && pi >= idx)),
        "pop order regressed: {prev:?} then ({t}, {idx})"
    );
    *prev = Some((t, idx));
}

/// The fire propagation simulator for one terrain.
///
/// A `FireSim` is *immutable shared state*: the terrain and the precomputed
/// NFFL fuel beds both live behind `Arc`s, so cloning is two reference
/// bumps and workers never copy a raster. All mutable evaluation state
/// lives in a worker-owned [`SimArena`]; the allocation-free hot path is
/// [`FireSim::simulate_arena`].
#[derive(Debug, Clone)]
pub struct FireSim {
    terrain: Arc<Terrain>,
    beds: Arc<[FuelBed]>,
}

impl FireSim {
    /// Builds a simulator over `terrain` with the standard NFFL catalog
    /// (the fuel-bed table is process-wide shared, not rebuilt per call).
    pub fn new(terrain: Terrain) -> Self {
        Self::shared(Arc::new(terrain))
    }

    /// Builds a simulator over an already-shared terrain (no copy).
    pub fn shared(terrain: Arc<Terrain>) -> Self {
        Self {
            terrain,
            beds: standard_beds(),
        }
    }

    /// The terrain this simulator burns.
    pub fn terrain(&self) -> &Terrain {
        &self.terrain
    }

    /// A fresh [`SimArena`] sized for this terrain.
    pub fn arena(&self) -> SimArena {
        SimArena::new(self.terrain.rows(), self.terrain.cols())
    }

    /// Directional spread rates for one cell under `scenario`, through the
    /// [`Terrain`] accessors and the unsplit [`wind_slope_max`] — the
    /// independent statement of what a cell's table is, which
    /// [`FireSim::cell_table_at`] is pinned against bit for bit.
    fn cell_spread(&self, row: usize, col: usize, scenario: &Scenario) -> SpreadVector {
        let fuel = self.terrain.fuel_at(row, col, scenario.model);
        let Some(bed) = self.beds.get(fuel as usize).filter(|bed| bed.burnable) else {
            return SpreadVector::no_spread();
        };
        let slope_deg = self.terrain.slope_at(row, col, scenario.slope_deg);
        let aspect = self.terrain.aspect_at(row, col, scenario.aspect_deg);
        let (wind_mph, wind_dir) =
            self.terrain
                .wind_at(row, col, scenario.wind_speed_mph, scenario.wind_dir_deg);
        let inputs = SpreadInputs {
            wind_fpm: wind_mph * crate::MPH_TO_FPM,
            wind_azimuth: wind_dir,
            slope_steepness: slope_deg.to_radians().tan(),
            aspect_azimuth: aspect,
        };
        wind_slope_max(bed, &scenario.moisture(), &inputs)
    }

    /// The per-catalog-model `(ros0, reaction intensity)` hoist:
    /// [`no_wind_no_slope`] runs the fuel-particle loops and depends only
    /// on (fuel code, moisture), so a run computes it once for each model
    /// the terrain can show the fire ([`Terrain::fuel_code_mask`]) — never
    /// per cell — and both the window's spread-rate bound and every spread
    /// table start from it. A model outside the mask (or outside the
    /// catalog) keeps `(0, 0)`, which reads as "does not spread".
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

    /// An upper bound (ft/min) on the spread rate any cell of this terrain
    /// can reach under `scenario`, used to size the active-front window.
    /// O(catalog size) per call: the terrain caches its per-layer maxima
    /// (fuel-code mask, max slope, max wind factor) at construction.
    ///
    /// Soundness: for every cell, `ros_at_azimuth ≤ ros_max` and the
    /// spread analysis yields `ros_max ≤ ros0 · (1 + φ_w + φ_s)` — the
    /// wind-only and slope-only branches are exactly that, the combined
    /// branch vector-adds to `ros0 + rv` with
    /// `rv = √((slp + wnd·cosθ)² + (wnd·sinθ)²) ≤ slp + wnd`, and the
    /// effective-wind cap only lowers `ros_max`. `φ_w = k·U^b` and
    /// `φ_s = k·tan²` are monotone in wind speed and slope, so evaluating
    /// them at the terrain-wide maxima bounds every cell. (The bound sizes
    /// bookkeeping only: a cell written beyond the window through
    /// floating-point slack is tracked on the stray list instead.)
    pub fn spread_rate_bound(&self, scenario: &Scenario) -> f64 {
        self.rate_bound(scenario, &self.hoisted_base(scenario))
    }

    /// [`FireSim::spread_rate_bound`] from the run's hoisted `base`.
    // lint: no_alloc
    fn rate_bound(&self, scenario: &Scenario, base: &[(f64, f64); 14]) -> f64 {
        let wind_fpm = self.terrain.max_wind_speed(scenario.wind_speed_mph) * crate::MPH_TO_FPM;
        let steep = self
            .terrain
            .max_slope_deg(scenario.slope_deg)
            .to_radians()
            .tan();
        let mut cap = 0.0f64;
        for (bed, &(ros0, _)) in self.beds.iter().zip(base) {
            // Absent, unburnable and extinguished models all hoist to a
            // `ros0` of zero.
            if ros0 <= SMIDGEN {
                continue;
            }
            let phi_w = if wind_fpm <= SMIDGEN {
                0.0
            } else {
                bed.wind_k * wind_fpm.powf(bed.wind_b)
            };
            let phi_s = if steep <= SMIDGEN {
                0.0
            } else {
                bed.slope_k * steep * steep
            };
            cap = cap.max(ros0 * (1.0 + phi_w + phi_s));
        }
        cap
    }

    /// The directional table of fuel model `code` under `inputs`: the
    /// wind/slope half of the spread math over the hoisted `base`.
    /// [`wind_slope_max`] is exactly `no_wind_no_slope` composed with
    /// [`wind_slope_from_ros0`], so this is bit-identical to
    /// [`FireSim::cell_spread`] for a cell with that model and those inputs.
    // lint: no_alloc
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
    /// terrain, built when the cell pops: `globals` (the scenario's own
    /// inputs) with each override layer's value for the cell in place of
    /// the global one, resolved by the same expressions the [`Terrain`]
    /// accessors use — bit-identical to [`FireSim::cell_spread`], pinned by
    /// the `cell_table_matches_the_terrain_accessor_path` test.
    // lint: no_alloc
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

    /// The allocation-free hot path: simulates into the arena's buffers and
    /// returns the arrival map. Runs the bucket kernel ([`Kernel::Bucket`],
    /// bit-identical to the reference) — the arena's buffers persist at
    /// their high-water mark, so repeated calls stop allocating once that
    /// mark covers the scenarios being evaluated (the property the
    /// `arena_is_allocation_free_in_steady_state` test pins).
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
    /// exposed so benches and the equivalence property suite can run the
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
        self.resolve_seeds(initial, &mut seeds);
        self.run_kernel(scenario, &seeds, t0, duration, arena, kernel);
        arena.line_seeds = seeds;
        arena.map()
    }

    /// [`FireSim::simulate_arena_kernel`] from [`Seeds`] resolved earlier
    /// by [`FireSim::seeds`]: the same run, minus the scan of the initial
    /// mask and the search for its front — the entry point for evaluating
    /// many scenarios from one fire line, where both (the scan
    /// raster-proportional, the search eight reads a seed) would otherwise
    /// be paid per scenario.
    ///
    /// # Panics
    /// As [`FireSim::simulate_arena`], with `seeds` in place of `initial`,
    /// and when `seeds` was resolved against a terrain that differs from
    /// this one in shape or in having a fuel layer.
    // lint: no_alloc
    pub fn simulate_arena_seeded<'a>(
        &self,
        scenario: &Scenario,
        seeds: &Seeds,
        t0: f64,
        duration: f64,
        arena: &'a mut SimArena,
        kernel: Kernel,
    ) -> &'a IgnitionMap {
        self.run_kernel(scenario, seeds, t0, duration, arena, kernel);
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
        self.resolve_seeds(line, &mut seeds);
        seeds
    }

    /// [`FireSim::seeds`] into the buffers of `seeds`. One pass over the
    /// mask collects the lit cells that can burn (block by block: on a
    /// landscape raster nearly every block is unlit, and `contains` over a
    /// short slice compiles to a few vector compares), and one pass over
    /// them reads each seed's neighbours in the mask and the fuel layer —
    /// no raster, no scratch — to find the front.
    // lint: no_alloc
    fn resolve_seeds(&self, line: &FireLine, seeds: &mut Seeds) {
        const BLOCK: usize = 64;
        self.check_shape("initial fire line", line.rows(), line.cols());
        let (rows, cols) = (line.rows(), line.cols());
        let mask = line.mask().as_slice();
        let fuel = self.terrain.fuel_layer().map(|g| g.as_slice());
        let burns = |idx: usize| fuel.is_none_or(|f| self.beds[f[idx] as usize].burnable);
        let Seeds {
            cells, front, bbox, ..
        } = seeds;
        cells.clear();
        for (b, block) in mask.chunks(BLOCK).enumerate() {
            if block.contains(&true) {
                let lit = block.iter().enumerate().filter(|&(_, &lit)| lit);
                let lit = lit.map(|(i, _)| b * BLOCK + i);
                cells.extend(lit.filter(|&idx| burns(idx)).map(|idx| idx as u32));
            }
        }
        let (mut r0, mut c0, mut r1, mut c1) = (usize::MAX, usize::MAX, 0, 0);
        front.clear();
        for &sidx in cells.iter() {
            let (r, c) = (sidx as usize / cols, sidx as usize % cols);
            (r0, c0, r1, c1) = (r0.min(r), c0.min(c), r1.max(r), c1.max(c));
            let on_front = landscape::NEIGHBOUR_OFFSETS.iter().any(|&(dr, dc, _)| {
                let (nr, nc) = (r.wrapping_add_signed(dr), c.wrapping_add_signed(dc));
                if nr >= rows || nc >= cols {
                    return false;
                }
                #[cfg(test)]
                tests::FRONT_READS.with(|n| n.set(n.get() + 1));
                let nidx = nr * cols + nc;
                !(mask[nidx] && burns(nidx))
            });
            if on_front {
                front.push(sidx);
            }
        }
        *bbox = if cells.is_empty() {
            Window::default()
        } else {
            Window {
                r0,
                c0,
                rows: r1 - r0 + 1,
                cols: c1 - c0 + 1,
            }
        };
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
    /// window, how a pop resolves its table, seed writes — then the
    /// kernel's own frontier loop over the resulting [`Sweep`] and
    /// [`Trail`], queueing every seed on the reference heap and the front
    /// alone on the other two.
    // lint: no_alloc
    fn run_kernel(
        &self,
        scenario: &Scenario,
        seeds: &Seeds,
        t0: f64,
        duration: f64,
        arena: &mut SimArena,
        kernel: Kernel,
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
        let workers = match kernel {
            Kernel::Tiled { tile, workers } => {
                assert!(tile > 0, "tile size must be non-zero");
                match workers {
                    0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
                    pinned => pinned,
                }
            }
            Kernel::Heap | Kernel::Bucket => 1,
        };

        let SimArena {
            per_fuel,
            heap,
            queue,
            span_lo,
            span_hi,
            stray,
            dirty,
            epochs,
            out,
            ..
        } = arena;
        let out = out.get_or_insert_with(|| IgnitionMap::unignited(rows, cols));
        reset_raster(dirty, out, span_lo, span_hi, stray, cols);

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
        // The reference kernel's window is the whole raster: no bound on
        // how fast its fire may go.
        let cap = match kernel {
            Kernel::Heap => f64::INFINITY,
            Kernel::Bucket | Kernel::Tiled { .. } => self.rate_bound(scenario, &base),
        };
        let win = self.seed_window(seeds, duration, cap);

        // Uniform terrains share one table; fuel-only mosaics share one
        // table per fuel code present (≤ 14 spread computations instead of
        // one per cell); anything else builds a cell's table when it pops.
        let globals = scenario.spread_inputs();
        let tables = match fuel {
            _ if !t.has_overrides() => {
                Tables::Uniform(self.code_table(scenario.model as usize, &base, &globals))
            }
            Some(fuel) if t.fuel_is_only_override() => {
                let mask = t.fuel_code_mask(scenario.model);
                for (code, table) in per_fuel.iter_mut().enumerate() {
                    if mask & (1 << code) != 0 {
                        *table = self.code_table(code, &base, &globals);
                    }
                }
                Tables::PerFuel(per_fuel, fuel)
            }
            _ => Tables::PerCell { globals, base },
        };
        let sweep = Sweep {
            sim: self,
            scenario,
            burnable,
            win,
            tables,
            rows,
            cols,
            steps: landscape::NEIGHBOUR_OFFSETS.map(|(dr, dc, _)| dr * cols as isize + dc),
            cell_ft: t.cell_size_ft(),
            t0,
            duration,
            t_end: t0 + duration,
        };

        span_lo.clear();
        span_lo.resize(win.rows, u32::MAX);
        span_hi.clear();
        span_hi.resize(win.rows, 0);
        *dirty = Dirty::Spans {
            r0: win.r0,
            rows: win.rows,
        };
        let mut trail = Trail {
            out,
            span_lo,
            span_hi,
            stray,
            win,
        };
        for &sidx in &seeds.cells {
            let idx = sidx as usize;
            trail.mark_written(idx, (idx / cols, idx % cols), t0);
        }
        match kernel {
            Kernel::Heap => {
                sweep.run_dijkstra(&seeds.cells, heap, trail.out);
                // The reference kernel tracks nothing beyond its seeds.
                *dirty = Dirty::All;
            }
            Kernel::Bucket => sweep.run_bucket(&seeds.front, queue, &mut trail),
            Kernel::Tiled { tile, .. } => {
                sweep.run_tiled(&seeds.front, queue, &mut trail, epochs, tile, workers)
            }
        }
        dedup_strays(trail.stray);
    }

    /// The active-front window of a run from `seeds`: their bounding box
    /// expanded by the farthest whole-cell distance a fire spreading at
    /// most `cap` ft/min can cross within the horizon (the whole raster
    /// for an unbounded `cap`).
    ///
    /// A diagonal step advances one Chebyshev unit and costs `√2 · cell_ft
    /// / ros ≥ cell_ft / ros_cap`, so `ros_cap · duration / cell_ft`
    /// Chebyshev units bound the reach; +2 cells and a tiny relative
    /// inflation absorb floating-point slack in the bound (and any
    /// remainder is tracked on the stray list).
    // lint: no_alloc
    fn seed_window(&self, seeds: &Seeds, duration: f64, cap: f64) -> Window {
        let (rows, cols) = (self.terrain.rows(), self.terrain.cols());
        let reach = if cap <= SMIDGEN {
            0
        } else {
            let cells = (cap * duration / self.terrain.cell_size_ft() * (1.0 + 1e-9)).ceil() + 2.0;
            cells.min(rows.max(cols) as f64) as usize
        };
        // Tests shrink the window to force the out-of-window (stray) paths.
        #[cfg(test)]
        let reach = reach.min(tests::REACH_CAP.with(std::cell::Cell::get));
        seeds.bbox.grown(reach, rows, cols)
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

    /// Maximum spread rate (ft/min) of `scenario` on a uniform cell of this
    /// terrain — exposed for workload sizing in the benches.
    pub fn max_ros(&self, scenario: &Scenario) -> f64 {
        self.cell_spread(0, 0, scenario).ros_max
    }
}

impl Sweep<'_> {
    /// The directional spread table of cell `idx`: by reference where one
    /// is shared, built on the spot on a fully heterogeneous terrain — the
    /// caller is the cell's one live pop, so there is no one to keep it for.
    // lint: no_alloc
    #[inline]
    fn table(&self, idx: usize) -> Cow<'_, [f64; 8]> {
        Cow::Borrowed(match &self.tables {
            Tables::Uniform(table) => table,
            Tables::PerFuel(by_code, fuel) => &by_code[fuel[idx] as usize],
            Tables::PerCell { globals, base } => {
                #[cfg(test)]
                tests::TABLES_BUILT.with(|n| n.set(n.get() + 1));
                return Cow::Owned(self.sim.cell_table_at(idx, self.scenario, globals, base));
            }
        })
    }

    /// The arrival at the neighbour of `at` in direction `dir`
    /// ([`landscape::NEIGHBOUR_OFFSETS`]) if a pop of `at` at `t` could
    /// still improve it: inside the raster and holding an arrival more
    /// than `SMIDGEN` after `t`. Every edge costs `d ≥ 0`, so `t + d`
    /// cannot beat a neighbour that `t` itself does not. The checked path,
    /// for pops on the raster border.
    // lint: no_alloc
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
    // lint: no_alloc
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
    /// beaten at `idx`) emits nothing, and neither does one with no open
    /// neighbour — the interior of a front — which is found out before the
    /// cell's table is asked for, so only a pop that can move the front
    /// pays for one. The eight neighbours are read once, before any emit:
    /// they are distinct cells, so a write for one (a caller that applies
    /// its candidates writes them back, [`Trail::mark_written`]; one that
    /// defers them reads a snapshot) never changes the verdict on another.
    // lint: no_alloc
    #[inline]
    fn relax<R: std::ops::Deref<Target = IgnitionMap>>(
        &self,
        t: f64,
        idx: usize,
        raster: &mut R,
        mut emit: impl FnMut(&mut R, f64, usize, (usize, usize)),
    ) {
        let &Sweep {
            cols,
            cell_ft,
            t_end,
            ..
        } = self;
        let at = (idx / cols, idx % cols);
        if t > raster.time(at.0, at.1) + SMIDGEN {
            return; // stale entry
        }
        let mut times = [0.0; 8];
        let mut open = self.open_mask(t, idx, at, raster, &mut times);
        if open == 0 {
            return;
        }
        let table = self.table(idx);
        let table: &[f64; 8] = &table;
        while open != 0 {
            let dir = open.trailing_zeros() as usize;
            open &= open - 1;
            let ros = table[dir];
            if ros <= SMIDGEN {
                continue;
            }
            let (dr, dc, dist_factor) = landscape::NEIGHBOUR_OFFSETS[dir];
            let arrival = t + dist_factor * cell_ft / ros;
            if arrival > t_end || arrival >= times[dir] - SMIDGEN {
                continue;
            }
            let nidx = idx.wrapping_add_signed(self.steps[dir]);
            if !self.burnable.at(nidx) {
                continue;
            }
            let to = (at.0.wrapping_add_signed(dr), at.1.wrapping_add_signed(dc));
            emit(raster, arrival, nidx, to);
        }
    }

    /// The reference kernel: a classic Dijkstra minimum-travel-time sweep
    /// over one binary heap and the whole raster. It is the oracle every
    /// equivalence suite compares the other kernels against, so it shares
    /// their prelude but deliberately keeps its own pop-and-relax loop
    /// instead of calling [`Sweep::relax`] — a reference that shared the
    /// step it checks would check nothing.
    // lint: no_alloc
    fn run_dijkstra(
        &self,
        seeds: &[u32],
        heap: &mut BinaryHeap<(Reverse<Time>, u32)>,
        out: &mut IgnitionMap,
    ) {
        let (rows, cols) = (self.rows, self.cols);
        heap.clear();
        for &sidx in seeds {
            heap.push((Reverse(Time(self.t0)), sidx));
        }
        let mut prev_pop = None;
        while let Some((Reverse(Time(t)), idx)) = heap.pop() {
            audit_pop_order(&mut prev_pop, t, idx);
            let idx = idx as usize;
            let (r, c) = (idx / cols, idx % cols);
            if t > out.time(r, c) + SMIDGEN {
                continue; // stale entry
            }
            let table = self.table(idx);
            for (dir, &(dr, dc, dist_factor)) in landscape::NEIGHBOUR_OFFSETS.iter().enumerate() {
                let (nr, nc) = (r as isize + dr, c as isize + dc);
                if nr < 0 || nc < 0 || nr as usize >= rows || nc as usize >= cols {
                    continue;
                }
                let (nr, nc) = (nr as usize, nc as usize);
                let ros = table[dir];
                if ros <= SMIDGEN {
                    continue;
                }
                let arrival = t + dist_factor * self.cell_ft / ros;
                if arrival > self.t_end || arrival >= out.time(nr, nc) - SMIDGEN {
                    continue;
                }
                let nidx = nr * cols + nc;
                if !self.burnable.at(nidx) {
                    continue;
                }
                out.set_time(nr, nc, arrival);
                heap.push((Reverse(Time(arrival)), nidx as u32));
            }
        }
    }

    /// The bucket kernel: the frontier lives in a monotone
    /// [`BucketQueue`], every pop goes through [`Sweep::relax`], and every
    /// surviving arrival is written and pushed at once.
    // lint: no_alloc
    fn run_bucket(&self, seeds: &[u32], queue: &mut BucketQueue, trail: &mut Trail<'_>) {
        queue.reset(self.t0, self.duration);
        for &sidx in seeds {
            queue.push(self.t0, sidx);
        }
        #[cfg(test)]
        tests::SEEDS_QUEUED.with(|n| n.set(n.get() + seeds.len()));
        let mut prev_pop = None;
        while let Some((t, idx)) = queue.pop() {
            audit_pop_order(&mut prev_pop, t, idx);
            self.relax(t, idx as usize, trail, |trail, arrival, nidx, at| {
                trail.mark_written(nidx, at, arrival);
                queue.push(arrival, nidx as u32);
            });
        }
    }

    /// The tiled kernel: multi-core propagation *inside* a single
    /// simulation. The bucket queue is processed in **epochs** — runs of
    /// consecutive bucket levels bundled until at least [`TILE_GRAIN`]
    /// frontier entries are in hand. Each epoch runs in two phases:
    ///
    /// 1. **Parallel drain** (defer-all): the epoch's entries are grouped
    ///    by spatial tile (`tile × tile` blocks of the active window, pop
    ///    order within each tile) and the tiles drain concurrently via
    ///    [`parworker::scoped_for_each_mut`]. A drain never writes the
    ///    raster: it runs [`Sweep::relax`] against a snapshot and keeps
    ///    each pop's candidates in a per-tile outbox
    ///    ([`Sweep::drain_tile`]).
    /// 2. **Sequential merge**: a k-way merge over the tile outboxes
    ///    replays the candidate groups in the *exact global pop order*,
    ///    re-checking staleness against the live raster before every
    ///    write. Arrivals that quantize past the epoch's last bucket are
    ///    staged back into the queue; arrivals landing *inside* the epoch
    ///    (in-epoch cascades) are pushed into the same merge frontier and
    ///    relaxed by the merge itself, exactly where the heap would pop
    ///    them.
    ///
    /// **What tiling adds to the module's bit-identity argument.** The
    /// merge applies writes in the reference pop order and re-checks every
    /// raster-dependent condition at that point, so by induction each
    /// apply sees the raster in precisely the state the heap would have at
    /// the corresponding pop. The drain's pre-filters discard only what
    /// the heap would also discard ([`Sweep::drain_tile`]); candidate
    /// *values* are pure functions of `(t, spread table, geometry)`, so
    /// computing them early and in parallel changes nothing. Epoch
    /// boundaries are a pure scheduling choice — any partition of the pop
    /// sequence yields the same raster — which is what lets the kernel
    /// bundle levels adaptively.
    fn run_tiled(
        &self,
        seeds: &[u32],
        queue: &mut BucketQueue,
        trail: &mut Trail<'_>,
        scratch: &mut EpochScratch,
        tile: usize,
        workers: usize,
    ) {
        let EpochScratch {
            tiles,
            epoch,
            keyed,
            tile_ranges,
            merge,
        } = scratch;
        let (win, cols) = (self.win, self.cols);
        queue.reset(self.t0, self.duration);
        for &sidx in seeds {
            queue.stage(self.t0, sidx);
        }
        #[cfg(test)]
        tests::SEEDS_QUEUED.with(|n| n.set(n.get() + seeds.len()));

        // Tile ownership of a cell: its `tile × tile` block of the active
        // window, strays clamped to the nearest window cell (deterministic
        // and cheap; strays are a floating-point-slack corner case).
        let tiles_x = win.cols.div_ceil(tile);
        let tile_of = |idx: u32| -> u32 {
            let (r, c) = ((idx as usize) / cols, (idx as usize) % cols);
            let wr = r.clamp(win.r0, win.r0 + win.rows - 1) - win.r0;
            let wc = c.clamp(win.c0, win.c0 + win.cols - 1) - win.c0;
            ((wr / tile) * tiles_x + wc / tile) as u32
        };
        // Merge-frontier source marker for in-epoch cascade entries.
        const CASCADE: u32 = u32::MAX;

        // The audited order runs across epoch boundaries too: a later
        // bucket strictly implies a later time.
        let mut prev_pop = None;
        while let Some(k_end) = queue.take_levels(TILE_GRAIN, epoch) {
            // Group the epoch by (tile, pop order): one sorted keyed pass
            // so the comparator stays division-free.
            keyed.clear();
            keyed.extend(epoch.iter().map(|&(t, idx)| (tile_of(idx), t, idx)));
            keyed.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(b.2.cmp(&a.2))
            });
            tile_ranges.clear();
            let mut start = 0usize;
            for i in 1..=keyed.len() {
                if i == keyed.len() || keyed[i].0 != keyed[start].0 {
                    tile_ranges.push((start as u32, i as u32));
                    start = i;
                }
            }
            let n_active = tile_ranges.len();
            if tiles.len() < n_active {
                tiles.resize_with(n_active, TileScratch::default);
            }

            // Phase 1 — parallel drain into per-tile outboxes. Reads the
            // raster, never writes it. Tiny epochs drain inline.
            {
                let snapshot: &IgnitionMap = trail.out;
                let entries: &[(u32, f64, u32)] = keyed;
                let ranges: &[(u32, u32)] = tile_ranges;
                let eff_workers = if epoch.len() < TILE_INLINE {
                    1
                } else {
                    workers
                };
                parworker::scoped_for_each_mut(eff_workers, &mut tiles[..n_active], 1, |i, ts| {
                    let (s, e) = ranges[i];
                    self.drain_tile(ts, &entries[s as usize..e as usize], snapshot);
                });
            }

            // Phase 2 — sequential ordered merge: replay the epoch's pops
            // in exact reference order against the live raster.
            merge.clear();
            for (slot, ts) in tiles[..n_active].iter().enumerate() {
                if let Some(g) = ts.groups.first() {
                    merge.push((Reverse(Time(g.t)), g.idx, slot as u32));
                }
            }
            while let Some((Reverse(Time(t)), idx, src)) = merge.pop() {
                audit_pop_order(&mut prev_pop, t, idx);
                // The head group of tile `src`: advance that tile's cursor
                // and refill the frontier before applying the group.
                let group = (src != CASCADE).then(|| {
                    let ts = &mut tiles[src as usize];
                    ts.head += 1;
                    if let Some(next) = ts.groups.get(ts.head) {
                        merge.push((Reverse(Time(next.t)), next.idx, src));
                    }
                    ts.groups[ts.head - 1]
                });
                // A write, and where its arrival pops: in this epoch's
                // merge or in a later epoch's queue level.
                let mut apply = |trail: &mut Trail<'_>, arrival: f64, nidx: usize, at| {
                    trail.mark_written(nidx, at, arrival);
                    if queue.bucket_of(arrival) <= k_end {
                        merge.push((Reverse(Time(arrival)), nidx as u32, CASCADE));
                    } else {
                        queue.stage(arrival, nidx as u32);
                    }
                };
                let Some(g) = group else {
                    // An arrival generated inside this epoch: relax it
                    // fully here, exactly where the heap would pop it.
                    self.relax(t, idx as usize, trail, apply);
                    continue;
                };
                let ci = idx as usize;
                if t > trail.time(ci / cols, ci % cols) + SMIDGEN {
                    continue; // went stale since the drain snapshot
                }
                for &(arrival, nidx) in &g.cand[..g.len as usize] {
                    let at = (nidx as usize / cols, nidx as usize % cols);
                    if arrival >= trail.time(at.0, at.1) - SMIDGEN {
                        continue; // beaten since the drain snapshot
                    }
                    apply(trail, arrival, nidx as usize, at);
                }
            }
        }
    }

    /// One tile's share of a tiled-kernel epoch drain: relaxes the tile's
    /// pops (already in reference pop order) against a *read-only*
    /// snapshot of the arrival raster, keeping each pop's surviving
    /// candidates in the tile outbox.
    ///
    /// Both of [`Sweep::relax`]'s raster checks act here as pre-filters
    /// that keep the outbox small, and both are sound because arrival
    /// times only ever decrease: an entry stale *now* can never become
    /// live by apply time, and a candidate already beaten by the raster
    /// only falls further behind as the neighbour's arrival shrinks. The
    /// converse directions are NOT stable, which is why the sequential
    /// merge re-checks both conditions against the live raster before
    /// every write.
    // lint: no_alloc
    fn drain_tile(
        &self,
        ts: &mut TileScratch,
        entries: &[(u32, f64, u32)],
        mut snapshot: &IgnitionMap,
    ) {
        ts.head = 0;
        ts.groups.clear();
        for &(_, t, idx) in entries {
            let mut g = PopGroup {
                t,
                idx,
                len: 0,
                cand: [(0.0, 0); 8],
            };
            self.relax(t, idx as usize, &mut snapshot, |_, arrival, nidx, _| {
                g.cand[g.len as usize] = (arrival, nidx as u32);
                g.len += 1;
            });
            if g.len > 0 {
                ts.groups.push(g);
            }
        }
    }
}

/// Builds the single-cell ignition used by most examples: the map centre
/// burning at `t = 0`.
pub fn centre_ignition(rows: usize, cols: usize) -> FireLine {
    FireLine::from_cells(rows, cols, &[(rows / 2, cols / 2)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use landscape::{Grid, UNIGNITED};

    thread_local! {
        /// Upper bound on the active-front window's reach (cells) for runs
        /// on this thread — see `seed_window`. Shrinking it forces fire
        /// past the window, i.e. through the stray / fallback paths.
        pub(super) static REACH_CAP: std::cell::Cell<usize> =
            const { std::cell::Cell::new(usize::MAX) };
        /// Per-cell spread tables built by runs on this thread — see
        /// `Sweep::table`. (A tiled run's worker threads count on their own.)
        pub(super) static TABLES_BUILT: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
        /// Neighbour reads spent finding the front of a fire line on this
        /// thread — see `FireSim::resolve_seeds`.
        pub(super) static FRONT_READS: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
        /// Seeds the bucket and tiled kernels queued on this thread.
        pub(super) static SEEDS_QUEUED: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn flat_sim(n: usize) -> FireSim {
        FireSim::new(Terrain::uniform(n, n, 100.0))
    }

    fn calm_scenario() -> Scenario {
        Scenario {
            wind_speed_mph: 0.0,
            slope_deg: 0.0,
            ..Scenario::reference()
        }
    }

    /// A layered 2-overrides terrain exercising the per-cell table path.
    fn layered_sim(rows: usize, cols: usize) -> FireSim {
        let fuel = Grid::from_fn(rows, cols, |r, c| [1u8, 2, 4, 0][(r * 3 + c) % 4]);
        let slope = Grid::from_fn(rows, cols, |r, c| ((r * 7 + c * 5) % 35) as f64);
        FireSim::new(
            Terrain::uniform(rows, cols, 100.0)
                .with_fuel(fuel)
                .with_slope(slope),
        )
    }

    #[test]
    fn queue_reset_clears_what_an_abandoned_run_left() {
        let mut queue = BucketQueue::default();
        queue.reset(0.0, 100.0);
        for (t, idx) in [(0.0, 3), (40.0, 1), (99.0, 2)] {
            queue.push(t, idx);
        }
        assert_eq!(queue.pop(), Some((0.0, 3)));
        // The run stops here (a panic unwinding through the pool): two
        // entries are still queued, one of them in a future bucket.
        queue.reset(5.0, 10.0);
        assert_eq!(queue.pop(), None);
        queue.push(7.0, 9);
        assert_eq!(queue.pop(), Some((7.0, 9)));
        assert_eq!(queue.pop(), None);
        // Drained: the next reset has nothing to clear, and clears nothing.
        queue.reset(0.0, 1.0);
        assert!(queue.buckets.iter().all(Vec::is_empty) && queue.cur.is_empty());
    }

    #[test]
    fn fire_grows_from_ignition_point() {
        let sim = flat_sim(21);
        let map = sim.simulate(&calm_scenario(), &centre_ignition(21, 21), 0.0, 300.0);
        assert_eq!(map.time(10, 10), 0.0);
        assert!(
            map.burned_count_at(300.0) > 1,
            "fire must spread beyond the ignition"
        );
    }

    #[test]
    fn calm_flat_fire_is_symmetric() {
        let sim = flat_sim(21);
        let map = sim.simulate(&calm_scenario(), &centre_ignition(21, 21), 0.0, 500.0);
        for d in 1..=5usize {
            let north = map.time(10 - d, 10);
            let south = map.time(10 + d, 10);
            let east = map.time(10, 10 + d);
            let west = map.time(10, 10 - d);
            assert!((north - south).abs() < 1e-9);
            assert!((east - west).abs() < 1e-9);
            assert!((north - east).abs() < 1e-9);
        }
    }

    #[test]
    fn ignition_times_increase_with_distance() {
        let sim = flat_sim(21);
        let map = sim.simulate(&calm_scenario(), &centre_ignition(21, 21), 0.0, 2000.0);
        let mut prev = 0.0;
        for d in 1..=8usize {
            let t = map.time(10, 10 + d);
            assert!(t > prev, "time must increase along a ray");
            prev = t;
        }
    }

    #[test]
    fn wind_skews_fire_downwind() {
        let sim = flat_sim(31);
        let scenario = Scenario {
            wind_speed_mph: 10.0,
            wind_dir_deg: 90.0,
            ..calm_scenario()
        };
        let map = sim.simulate(&scenario, &centre_ignition(31, 31), 0.0, 120.0);
        // Wind blows east: the eastern cell ignites earlier than the western.
        let east = map.time(15, 20);
        let west = map.time(15, 10);
        assert!(east < west, "east {east} < west {west} expected");
    }

    #[test]
    fn slope_skews_fire_upslope() {
        let sim = flat_sim(31);
        // Aspect 180° (south-facing) → upslope north (decreasing row).
        let scenario = Scenario {
            slope_deg: 30.0,
            aspect_deg: 180.0,
            ..calm_scenario()
        };
        let map = sim.simulate(&scenario, &centre_ignition(31, 31), 0.0, 300.0);
        let north = map.time(10, 15);
        let south = map.time(20, 15);
        assert!(north < south, "north {north} < south {south} expected");
    }

    #[test]
    fn horizon_bounds_ignition_times() {
        let sim = flat_sim(41);
        let map = sim.simulate(&calm_scenario(), &centre_ignition(41, 41), 0.0, 60.0);
        for ((_, _), &t) in map.grid().iter_cells() {
            assert!(t == UNIGNITED || t <= 60.0 + 1e-9);
        }
    }

    #[test]
    fn longer_horizon_extends_shorter_map() {
        let sim = flat_sim(31);
        let s = calm_scenario();
        let short = sim.simulate(&s, &centre_ignition(31, 31), 0.0, 100.0);
        let long = sim.simulate(&s, &centre_ignition(31, 31), 0.0, 300.0);
        for r in 0..31 {
            for c in 0..31 {
                if short.time(r, c) != UNIGNITED {
                    assert!((short.time(r, c) - long.time(r, c)).abs() < 1e-9);
                }
            }
        }
        assert!(long.burned_count_at(300.0) > short.burned_count_at(100.0));
    }

    #[test]
    fn t0_offsets_all_times() {
        let sim = flat_sim(21);
        let s = calm_scenario();
        let at0 = sim.simulate(&s, &centre_ignition(21, 21), 0.0, 200.0);
        let at50 = sim.simulate(&s, &centre_ignition(21, 21), 50.0, 200.0);
        for r in 0..21 {
            for c in 0..21 {
                if at0.time(r, c) != UNIGNITED {
                    assert!((at50.time(r, c) - (at0.time(r, c) + 50.0)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn firebreak_stops_spread() {
        // A vertical stripe of no-fuel cells splits the map; fire ignited on
        // the left must never reach the right side.
        let mut fuel = Grid::filled(15, 15, 1u8);
        for r in 0..15 {
            fuel.set(r, 7, 0);
        }
        let sim = FireSim::new(Terrain::uniform(15, 15, 100.0).with_fuel(fuel));
        let ignition = FireLine::from_cells(15, 15, &[(7, 2)]);
        let map = sim.simulate(&calm_scenario(), &ignition, 0.0, 1e5);
        for r in 0..15 {
            assert_eq!(map.time(r, 7), UNIGNITED, "firebreak cell ({r},7) ignited");
            for c in 8..15 {
                assert_eq!(
                    map.time(r, c),
                    UNIGNITED,
                    "cell ({r},{c}) behind the break ignited"
                );
            }
        }
        assert!(map.burned_count_at(1e5) > 10);
    }

    #[test]
    fn damp_fuel_never_ignites_neighbours() {
        let sim = flat_sim(11);
        let scenario = Scenario {
            m1_pct: 30.0,
            m10_pct: 30.0,
            m100_pct: 30.0,
            ..calm_scenario()
        }; // far beyond model 1 extinction (12 %)
        let map = sim.simulate(&scenario, &centre_ignition(11, 11), 0.0, 1e6);
        assert_eq!(
            map.burned_count_at(1e6),
            1,
            "only the ignition cell may burn"
        );
    }

    #[test]
    fn unburnable_ignition_cell_is_ignored() {
        let mut fuel = Grid::filled(5, 5, 1u8);
        fuel.set(2, 2, 0);
        let sim = FireSim::new(Terrain::uniform(5, 5, 100.0).with_fuel(fuel));
        let map = sim.simulate(&calm_scenario(), &centre_ignition(5, 5), 0.0, 1e4);
        assert_eq!(map.burned_count_at(1e4), 0);
    }

    #[test]
    fn simulate_into_reuses_buffer_and_matches() {
        let sim = flat_sim(15);
        let s = calm_scenario();
        let fresh = sim.simulate(&s, &centre_ignition(15, 15), 0.0, 150.0);
        let mut reused = IgnitionMap::unignited(15, 15);
        // Pre-pollute to prove it clears.
        reused.set_time(0, 0, 1.0);
        sim.simulate_into(&s, &centre_ignition(15, 15), 0.0, 150.0, &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn arena_matches_simulate_and_is_reusable() {
        let mut fuel = Grid::filled(17, 17, 1u8);
        for r in 0..17 {
            fuel.set(r, 5, 4);
            fuel.set(r, 11, 0);
        }
        let sim = FireSim::new(Terrain::uniform(17, 17, 100.0).with_fuel(fuel));
        let s = Scenario {
            wind_speed_mph: 9.0,
            ..calm_scenario()
        };
        let mut arena = sim.arena();
        for (t0, dur) in [(0.0, 120.0), (10.0, 300.0), (0.0, 50.0)] {
            let fresh = sim.simulate(&s, &centre_ignition(17, 17), t0, dur);
            let via_arena = sim.simulate_arena(&s, &centre_ignition(17, 17), t0, dur, &mut arena);
            assert_eq!(&fresh, via_arena, "t0={t0} dur={dur}");
        }
    }

    #[test]
    fn arena_reuse_across_moving_ignitions_resets_correctly() {
        // Successive runs with disjoint ignition sites: the dirty-span reset
        // must leave no residue from the previous burn anywhere.
        let sim = layered_sim(33, 47);
        let s = Scenario {
            wind_speed_mph: 6.0,
            ..Scenario::reference()
        };
        let mut arena = sim.arena();
        let ignitions = [
            FireLine::from_cells(33, 47, &[(3, 3)]),
            FireLine::from_cells(33, 47, &[(30, 44)]),
            FireLine::from_cells(33, 47, &[(16, 23), (2, 40)]),
            FireLine::from_cells(33, 47, &[(3, 3)]),
        ];
        for (i, ign) in ignitions.iter().enumerate() {
            let fresh = sim.simulate(&s, ign, 0.0, 90.0);
            let via_arena = sim.simulate_arena(&s, ign, 0.0, 90.0, &mut arena);
            assert_eq!(&fresh, via_arena, "run {i} diverged");
        }
    }

    #[test]
    fn bucket_kernel_matches_heap_kernel_exactly() {
        // Both kernels over the same arena API, raster compared bit-exact.
        let sims = [
            flat_sim(25),
            layered_sim(25, 25),
            FireSim::new(
                Terrain::uniform(25, 25, 80.0)
                    .with_wind(
                        Grid::from_fn(25, 25, |r, c| 0.25 + ((r + 2 * c) % 7) as f64 * 0.3),
                        Grid::from_fn(25, 25, |r, c| ((r * c) % 90) as f64 - 45.0),
                    )
                    .with_aspect(Grid::from_fn(25, 25, |r, c| {
                        ((r * 13 + c * 29) % 360) as f64
                    })),
            ),
        ];
        let s = Scenario {
            wind_speed_mph: 8.0,
            wind_dir_deg: 45.0,
            ..Scenario::reference()
        };
        let ignition = FireLine::from_cells(25, 25, &[(12, 12), (3, 20)]);
        for sim in &sims {
            let mut heap_arena = sim.arena();
            let mut bucket_arena = sim.arena();
            for dur in [30.0, 240.0, 2000.0] {
                let h = sim
                    .simulate_arena_kernel(&s, &ignition, 0.0, dur, &mut heap_arena, Kernel::Heap)
                    .clone();
                let b = sim.simulate_arena_kernel(
                    &s,
                    &ignition,
                    0.0,
                    dur,
                    &mut bucket_arena,
                    Kernel::Bucket,
                );
                for (ht, bt) in h.grid().as_slice().iter().zip(b.grid().as_slice()) {
                    assert_eq!(ht.to_bits(), bt.to_bits(), "kernels diverged at dur={dur}");
                }
            }
        }
    }

    #[test]
    fn kernels_interleave_on_one_arena() {
        // A heap run marks the raster fully dirty; the following bucket run
        // must still reset correctly (Dirty::All path).
        let sim = layered_sim(21, 21);
        let s = Scenario::reference();
        let mut arena = sim.arena();
        let big = FireLine::from_cells(21, 21, &[(10, 10)]);
        sim.simulate_arena_kernel(&s, &big, 0.0, 5000.0, &mut arena, Kernel::Heap);
        let small = FireLine::from_cells(21, 21, &[(2, 2)]);
        let fresh = sim.simulate(&s, &small, 0.0, 40.0);
        let via_arena =
            sim.simulate_arena_kernel(&s, &small, 0.0, 40.0, &mut arena, Kernel::Bucket);
        assert_eq!(&fresh, via_arena);
    }

    #[test]
    fn spread_rate_bound_dominates_every_cell() {
        let sim = layered_sim(19, 19);
        let s = Scenario {
            wind_speed_mph: 9.0,
            ..Scenario::reference()
        };
        let bound = sim.spread_rate_bound(&s);
        let base = sim.hoisted_base(&s);
        for idx in 0..19 * 19 {
            let table = sim.cell_table_at(idx, &s, &s.spread_inputs(), &base);
            for (d, &ros) in table.iter().enumerate() {
                assert!(
                    ros <= bound * (1.0 + 1e-12),
                    "cell {idx} dir {d}: ros {ros} exceeds bound {bound}"
                );
            }
        }
    }

    /// `cell_table_at` against the `Terrain`-accessor path, every cell of
    /// `sim`, exact bits.
    fn assert_tables_match_the_accessor_path(sim: &FireSim, s: &Scenario, what: &str) {
        let base = sim.hoisted_base(s);
        let globals = s.spread_inputs();
        let cols = sim.terrain.cols();
        for idx in 0..sim.terrain.rows() * cols {
            let built = sim.cell_table_at(idx, s, &globals, &base);
            let oracle = sim.cell_spread(idx / cols, idx % cols, s).compass_ros();
            assert_eq!(
                built.map(f64::to_bits),
                oracle.map(f64::to_bits),
                "{what}: cell {idx} under {s:?}"
            );
        }
    }

    #[test]
    fn cell_table_matches_the_terrain_accessor_path() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        let mut scenario = || {
            let genes: Vec<f64> = (0..crate::GENE_COUNT).map(|_| rng.random()).collect();
            crate::ScenarioSpace.decode(&genes)
        };
        // Every layered corpus terrain (the XL tier shrunk), under its own
        // truth and under a random scenario.
        let mut specs = crate::workload::corpus();
        specs.extend(crate::workload::xl_corpus().iter().map(|s| s.shrunk(96)));
        for spec in &specs {
            let w = spec.build();
            if !w.terrain.has_overrides() {
                continue;
            }
            let sim = w.sim();
            assert_tables_match_the_accessor_path(&sim, &w.truth[0], spec.name);
            assert_tables_match_the_accessor_path(&sim, &scenario(), spec.name);
        }
        // Random terrains, each override layer present or absent.
        for layers in 0..16u32 {
            let mut rng = StdRng::seed_from_u64(0x1A7E5 + layers as u64);
            let (rows, cols) = (rng.random_range(5..28usize), rng.random_range(5..31usize));
            let mut terrain = Terrain::uniform(rows, cols, rng.random_range(30.0..150.0));
            if layers & 1 != 0 {
                terrain = terrain.with_fuel(Grid::from_fn(rows, cols, |_, _| {
                    rng.random_range(0..14u32) as u8
                }));
            }
            if layers & 2 != 0 {
                terrain = terrain.with_slope(Grid::from_fn(rows, cols, |_, _| {
                    rng.random_range(0.0..50.0)
                }));
            }
            if layers & 4 != 0 {
                terrain = terrain.with_aspect(Grid::from_fn(rows, cols, |_, _| {
                    rng.random_range(0.0..360.0)
                }));
            }
            if layers & 8 != 0 {
                let speed = Grid::from_fn(rows, cols, |_, _| rng.random_range(0.0..2.5));
                let dir = Grid::from_fn(rows, cols, |_, _| rng.random_range(-120.0..120.0));
                terrain = terrain.with_wind(speed, dir);
            }
            let sim = FireSim::new(terrain);
            for _ in 0..4 {
                assert_tables_match_the_accessor_path(&sim, &scenario(), &format!("{layers:04b}"));
            }
        }
    }

    /// Lit cells of `lit` with an in-bounds neighbour that is not lit: the
    /// most the frontier filter may queue.
    fn rim(lit: &FireLine) -> usize {
        let mask = lit.mask();
        let unlit_beside = |r, c| mask.neighbours8(r, c).any(|(nr, nc, _)| !mask.at(nr, nc));
        let cells = lit.burned_cells();
        cells.iter().filter(|&&(r, c)| unlit_beside(r, c)).count()
    }

    #[test]
    fn a_run_pays_for_the_fire_not_the_window() {
        // gusty_channel (per-cell tables) from its observed line at the
        // start of interval 3: tables are built for popped cells only, a
        // small part of the window, and only the line's rim is queued.
        let w = crate::workload::gusty_channel().build();
        let sim = w.sim();
        let lines = w.reference_lines(&sim);
        let (from, t0, dt) = (&lines[2], w.times[2], w.times[3] - w.times[2]);
        let seeds = sim.seeds(from);
        let mut arena = sim.arena();
        TABLES_BUILT.with(|n| n.set(0));
        let map =
            sim.simulate_arena_seeded(&w.truth[2], &seeds, t0, dt, &mut arena, Kernel::Bucket);
        let built = TABLES_BUILT.with(std::cell::Cell::get);
        let written = map
            .grid()
            .as_slice()
            .iter()
            .filter(|&&t| t != UNIGNITED)
            .count();
        let win = window_of(&sim, &w.truth[2], &seeds, dt);
        assert!(
            built > 0 && built <= written,
            "{built} tables for {written} cells"
        );
        assert!(
            written < win.rows * win.cols / 4,
            "{written} cells written in a {}x{} window",
            win.rows,
            win.cols
        );
        let (queued, rim) = (seeds.front().len(), rim(from));
        assert!(
            queued <= rim && queued < seeds.cells().len(),
            "{queued} seeds queued of {} lit, {rim} on the rim",
            seeds.cells().len()
        );

        // A line that fills the raster has no rim: nothing is queued, no
        // table is built, and every seed is still written and reported.
        let all = FireLine::from_mask(Grid::filled(96, 96, true));
        TABLES_BUILT.with(|n| n.set(0));
        sim.simulate_arena_kernel(&w.truth[2], &all, t0, dt, &mut arena, Kernel::Bucket);
        assert_eq!(TABLES_BUILT.with(std::cell::Cell::get), 0);
        let line_seeds = &arena.line_seeds;
        assert!(
            line_seeds.front().is_empty(),
            "{} seeds queued",
            line_seeds.front().len()
        );
        assert_eq!(line_seeds.cells().len(), 96 * 96);
        assert!(arena.map().grid().as_slice().iter().all(|&t| t == t0));
        assert_eq!(
            arena.written_ranges().map(|r| r.len()).sum::<usize>(),
            96 * 96
        );

        // Uniform and per-fuel terrains never build a per-cell table.
        for name in ["meadow_small", "patchwork_mosaic"] {
            let w = crate::workload::by_name(name).expect("corpus name").build();
            let sim = w.sim();
            assert!(!sim.terrain.has_overrides() || sim.terrain.fuel_is_only_override());
            TABLES_BUILT.with(|n| n.set(0));
            let dt = w.times[1] - w.times[0];
            let mut arena = sim.arena();
            let map = sim.simulate_arena(&w.truth[0], &w.ignition, w.times[0], dt, &mut arena);
            assert!(map.burned_count_at(w.times[1]) > 1, "{name}: no fire");
            assert_eq!(TABLES_BUILT.with(std::cell::Cell::get), 0, "{name}");
        }
    }

    #[test]
    fn a_run_from_resolved_seeds_reads_no_neighbour_to_find_its_front() {
        // The front of an interval's start line is found once, when the
        // seeds are resolved; every run from them after that queues
        // exactly that front and spends no neighbour read finding it.
        for (spec, interval) in [
            (crate::workload::archipelago_large(), 3usize),
            (crate::workload::gusty_channel(), 3),
        ] {
            let w = spec.build();
            let sim = w.sim();
            let lines = w.reference_lines(&sim);
            let (t0, dt) = (
                w.times[interval - 1],
                w.times[interval] - w.times[interval - 1],
            );
            FRONT_READS.with(|n| n.set(0));
            let seeds = sim.seeds(&lines[interval - 1]);
            let reads = FRONT_READS.with(std::cell::Cell::get);
            assert!(
                !seeds.front().is_empty() && reads >= seeds.cells().len(),
                "{}: resolving {} seeds read {reads} neighbours",
                spec.name,
                seeds.cells().len()
            );
            let mut arena = sim.arena();
            let tiled = Kernel::Tiled {
                tile: 16,
                workers: 2,
            };
            for (kernel, s) in [Kernel::Bucket, tiled, Kernel::Bucket]
                .into_iter()
                .zip(&w.truth)
            {
                FRONT_READS.with(|n| n.set(0));
                SEEDS_QUEUED.with(|n| n.set(0));
                sim.simulate_arena_seeded(s, &seeds, t0, dt, &mut arena, kernel);
                let what = format!("{} interval {interval}, {kernel}", spec.name);
                assert_eq!(FRONT_READS.with(std::cell::Cell::get), 0, "{what}");
                assert_eq!(
                    SEEDS_QUEUED.with(std::cell::Cell::get),
                    seeds.front().len(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn lazy_arena_allocates_nothing_until_first_run() {
        let arena = SimArena::new(1000, 1000);
        assert_eq!(arena.scratch_bytes(), 0, "scratch allocated eagerly");
        assert_eq!(arena.raster_bytes(), 0, "raster allocated eagerly");
    }

    #[test]
    #[should_panic(expected = "no simulation has run")]
    fn fresh_arena_map_panics() {
        let arena = SimArena::new(4, 4);
        let _ = arena.map();
    }

    /// The window a bucket run of `s` from `seeds` over `duration` tracks its
    /// writes in.
    fn window_of(sim: &FireSim, s: &Scenario, seeds: &Seeds, duration: f64) -> Window {
        sim.seed_window(seeds, duration, sim.spread_rate_bound(s))
    }

    #[test]
    fn window_bounds_scratch_on_large_grid() {
        // A short burn in the middle of a big per-cell terrain whose wind
        // layer has one far-off gale: the spread-rate bound, and so the
        // window, covers the raster, but the fire stays small — and scratch
        // must follow the fire. What is held is the frontier queue and the
        // index lists, nothing per window cell.
        let n = 201usize;
        let gale = Grid::from_fn(n, n, |r, c| if (r, c) == (0, 0) { 40.0 } else { 0.5 });
        let sim = FireSim::new(
            Terrain::uniform(n, n, 100.0)
                .with_slope(Grid::from_fn(n, n, |r, c| ((r + c) % 30) as f64))
                .with_wind(gale, Grid::filled(n, n, 0.0)),
        );
        let s = Scenario {
            wind_speed_mph: 4.0,
            ..calm_scenario()
        };
        let ignition = centre_ignition(n, n);
        let win = window_of(&sim, &s, &sim.seeds(&ignition), 30.0);
        assert_eq!(
            (win.rows, win.cols),
            (n, n),
            "the gale must blow the window up"
        );
        let mut arena = sim.arena();
        let via_arena = sim
            .simulate_arena(&s, &ignition, 0.0, 30.0, &mut arena)
            .clone();
        let burned = via_arena.burned_count_at(30.0);
        assert!(burned > 1 && burned < n * n / 100, "burned {burned} cells");
        let index_lists = [
            &arena.span_lo,
            &arena.span_hi,
            &arena.stray,
            &arena.line_seeds.cells,
            &arena.line_seeds.front,
        ];
        let index_bytes = index_lists.iter().map(|v| v.capacity() * 4).sum::<usize>();
        let scratch = arena.scratch_bytes();
        assert_eq!(scratch, arena.queue.bytes() + index_bytes);
        assert!(
            scratch < n * n * 4,
            "scratch {scratch} B scales with the {n}x{n} window"
        );
        let fresh = sim.simulate(&s, &ignition, 0.0, 30.0);
        assert_eq!(fresh, via_arena);
        sim.simulate_arena(&s, &ignition, 0.0, 30.0, &mut arena);
        assert_eq!(arena.scratch_bytes(), scratch, "second pass moved scratch");
    }

    #[test]
    fn arena_is_allocation_free_in_steady_state() {
        // Two table modes: a slope terrain (per-cell path: a table per
        // pop, none of them kept) and a fuel-only mosaic (per-fuel path,
        // whose tables live inline in the arena). The warm-up pass runs every
        // duration once; the second identical pass must not move any
        // capacity (identical inputs → identical windows, bucket layouts
        // and frontier sizes).
        let n = 31usize;
        let slope = Grid::from_fn(n, n, |r, c| ((r + c) % 30) as f64);
        let fuel = Grid::from_fn(n, n, |r, c| [1u8, 2, 4][(r + c) % 3]);
        let sims = [
            FireSim::new(Terrain::uniform(n, n, 100.0).with_slope(slope)),
            FireSim::new(Terrain::uniform(n, n, 100.0).with_fuel(fuel)),
        ];
        let s = calm_scenario();
        let durations: Vec<f64> = (0..10).map(|i| 400.0 + i as f64).collect();
        for sim in &sims {
            let mut arena = sim.arena();
            for &d in &durations {
                sim.simulate_arena(&s, &centre_ignition(n, n), 0.0, d, &mut arena);
            }
            let scratch = arena.scratch_bytes();
            for &d in &durations {
                sim.simulate_arena(&s, &centre_ignition(n, n), 0.0, d, &mut arena);
                assert_eq!(arena.scratch_bytes(), scratch, "arena scratch grew");
            }
        }
    }

    #[test]
    fn out_of_catalog_model_is_ignored_when_fuel_layer_overrides_it() {
        // With a fuel layer the scenario's global model is never consulted,
        // so even an out-of-catalog value must not panic.
        let fuel = Grid::filled(7, 7, 1u8);
        let sim = FireSim::new(Terrain::uniform(7, 7, 100.0).with_fuel(fuel));
        let s = Scenario {
            model: 99,
            ..calm_scenario()
        };
        let map = sim.simulate(&s, &centre_ignition(7, 7), 0.0, 120.0);
        assert!(map.burned_count_at(120.0) > 1, "layered fuel must burn");
    }

    #[test]
    fn out_of_catalog_model_without_a_fuel_layer_burns_nothing() {
        // No layer shadows the model, so it is consulted — and says what
        // `fuel_code_mask` and the rate bound say: nothing burns. Uniform
        // and per-cell table modes, every kernel, a dirty arena.
        let slope = Grid::from_fn(7, 7, |r, c| ((r + c) % 30) as f64);
        for terrain in [
            Terrain::uniform(7, 7, 100.0),
            Terrain::uniform(7, 7, 100.0).with_slope(slope),
        ] {
            let sim = FireSim::new(terrain);
            let s = Scenario {
                model: 99,
                ..calm_scenario()
            };
            assert_eq!(sim.terrain().fuel_code_mask(s.model), 0);
            assert_eq!(sim.spread_rate_bound(&s), 0.0);
            assert_eq!(sim.max_ros(&s), 0.0);
            let mut arena = sim.arena();
            sim.simulate_arena(
                &calm_scenario(),
                &centre_ignition(7, 7),
                0.0,
                120.0,
                &mut arena,
            );
            for kernel in ALL_KERNELS {
                let ignition = centre_ignition(7, 7);
                let map = sim.simulate_arena_kernel(&s, &ignition, 0.0, 120.0, &mut arena, kernel);
                assert_eq!(map.burned_count_at(120.0), 0, "{kernel}: something burned");
                assert_eq!(
                    arena.written_ranges().count(),
                    0,
                    "{kernel}: raster not clean"
                );
            }
        }
    }

    #[test]
    fn cloned_sim_shares_terrain() {
        let sim = FireSim::new(Terrain::uniform(9, 9, 100.0));
        let clone = sim.clone();
        assert!(Arc::ptr_eq(&sim.terrain, &clone.terrain));
    }

    #[test]
    fn wind_layer_changes_propagation() {
        let n = 21usize;
        // Wind dead in the west half, doubled in the east half.
        let factor = Grid::from_fn(n, n, |_, c| if c < n / 2 { 0.0 } else { 2.0 });
        let offset = Grid::filled(n, n, 0.0);
        let sim = FireSim::new(Terrain::uniform(n, n, 100.0).with_wind(factor, offset));
        let s = Scenario {
            wind_speed_mph: 12.0,
            wind_dir_deg: 90.0,
            ..calm_scenario()
        };
        let map = sim.simulate(&s, &centre_ignition(n, n), 0.0, 60.0);
        let east = map.time(n / 2, n / 2 + 4);
        let west = map.time(n / 2, n / 2 - 4);
        assert!(
            east < west,
            "downwind east cell must ignite first ({east} vs {west})"
        );
    }

    #[test]
    fn fire_line_convenience_matches_map() {
        let sim = flat_sim(15);
        let s = calm_scenario();
        let map = sim.simulate(&s, &centre_ignition(15, 15), 0.0, 150.0);
        let fl = sim.simulate_fire_line(&s, &centre_ignition(15, 15), 0.0, 150.0);
        assert_eq!(fl, map.fire_line_at(150.0));
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        let sim = flat_sim(5);
        let _ = sim.simulate(&calm_scenario(), &centre_ignition(5, 5), 0.0, 0.0);
    }

    #[test]
    fn every_kernel_rejects_bad_instants_and_horizons() {
        // One prelude checks the run's preconditions for all three kernels.
        const T0: &str = "t0 must be a non-negative instant";
        const DURATION: &str = "duration must be positive";
        let sim = flat_sim(5);
        let ignition = centre_ignition(5, 5);
        for kernel in ALL_KERNELS {
            for (t0, duration, expected) in [
                (0.0, 0.0, DURATION),
                (0.0, -1.0, DURATION),
                (0.0, f64::NAN, DURATION),
                (0.0, f64::INFINITY, DURATION),
                (-1.0, 10.0, T0),
                (f64::NAN, 10.0, T0),
                (f64::INFINITY, 10.0, T0),
            ] {
                let run = std::panic::AssertUnwindSafe(|| {
                    let mut arena = sim.arena();
                    let s = calm_scenario();
                    sim.simulate_arena_kernel(&s, &ignition, t0, duration, &mut arena, kernel);
                });
                let payload = std::panic::catch_unwind(run)
                    .expect_err(&format!("{kernel} accepted t0={t0} duration={duration}"));
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert!(
                    message.contains(expected),
                    "{kernel} t0={t0} duration={duration}: panicked with '{message}'"
                );
            }
        }
    }

    /// Exact-bits comparison helper for kernel-equivalence tests.
    /// `written_ranges` must be disjoint and contain every ignited cell,
    /// and an Eq. (3) tally over them must give the full-raster score.
    fn assert_ranges_account_for_the_raster(arena: &SimArena, t1: f64, what: &str) {
        let map = arena.map();
        let times = map.grid().as_slice();
        let mut covered = vec![false; times.len()];
        for range in arena.written_ranges() {
            for i in range {
                assert!(!covered[i], "{what}: cell {i} lies in two written ranges");
                covered[i] = true;
            }
        }
        for (i, &t) in times.iter().enumerate() {
            assert!(
                covered[i] || t == UNIGNITED,
                "{what}: ignited cell {i} outside the written ranges"
            );
        }
        // An arbitrary reference/preburn pair: stripes that cut across any
        // fire shape, so hits, misses, false alarms and exclusions all occur.
        let (rows, cols) = (map.rows(), map.cols());
        let real = FireLine::from_mask(Grid::from_fn(rows, cols, |r, c| (r + 2 * c) % 5 < 2));
        let pre = FireLine::from_mask(Grid::from_fn(rows, cols, |r, c| (3 * r + c) % 7 == 0));
        let real_new = (0..times.len())
            .filter(|&i| real.mask().as_slice()[i] && !pre.mask().as_slice()[i])
            .count();
        let spans = landscape::tally_ranges(
            real.mask().as_slice(),
            times,
            |&a| a <= t1,
            Some(pre.mask().as_slice()),
            arena.written_ranges(),
        );
        assert_eq!(
            spans.index_with_real_total(real_new).to_bits(),
            landscape::jaccard_at_time(&real, map, t1, Some(&pre)).to_bits(),
            "{what}: span-bounded score differs from the full raster"
        );
    }

    const ALL_KERNELS: [Kernel; 3] = [
        Kernel::Heap,
        Kernel::Bucket,
        Kernel::Tiled {
            tile: 8,
            workers: 2,
        },
    ];

    #[test]
    fn written_ranges_track_a_dirty_arena_across_kernels_and_moving_ignitions() {
        let sim = layered_sim(33, 47);
        let s = Scenario {
            wind_speed_mph: 6.0,
            ..Scenario::reference()
        };
        let mut arena = sim.arena();
        assert_eq!(arena.written_ranges().count(), 0, "fresh arena");
        let ignitions = [
            FireLine::from_cells(33, 47, &[(3, 3)]),
            FireLine::from_cells(33, 47, &[(30, 44)]),
            FireLine::from_cells(33, 47, &[(16, 23), (2, 40)]),
            // (0, 3) and (1, 2) carry fuel code 0: lit but unburnable.
            FireLine::from_cells(33, 47, &[(0, 3), (1, 2), (20, 20)]),
            // Nothing burnable lit at all: the run writes nothing.
            FireLine::from_cells(33, 47, &[(0, 3)]),
            FireLine::from_cells(33, 47, &[(3, 3)]),
        ];
        // Every kernel after every other, on one arena that is never clean.
        for (i, ign) in ignitions.iter().enumerate() {
            for (k, &kernel) in ALL_KERNELS.iter().cycle().skip(i).take(3).enumerate() {
                let what = format!("ignition {i}, {kernel} (slot {k})");
                let fresh = sim.simulate(&s, ign, 5.0, 90.0);
                let seeds = sim.seeds(ign);
                let seeded = sim
                    .simulate_arena_seeded(&s, &seeds, 5.0, 90.0, &mut arena, kernel)
                    .clone();
                assert_rasters_identical(&fresh, &seeded, &what);
                assert_ranges_account_for_the_raster(&arena, 95.0, &what);
                let scanned = sim.simulate_arena_kernel(&s, ign, 5.0, 90.0, &mut arena, kernel);
                assert_rasters_identical(&fresh, scanned, &format!("{what}, mask scan"));
            }
        }
        let empty = &ignitions[4];
        sim.simulate_arena_kernel(&s, empty, 0.0, 30.0, &mut arena, Kernel::Bucket);
        assert_eq!(arena.written_ranges().count(), 0, "empty seed set");
    }

    #[test]
    fn runs_that_leave_the_window_stay_exact_and_list_each_stray_once() {
        // A one-cell reach makes the window far too small for a 90-minute
        // burn: most of the fire is written as strays, many cells more than
        // once, and per-cell tables come from the out-of-window fallback.
        for sim in [flat_sim(31), layered_sim(29, 37)] {
            let (rows, cols) = (sim.terrain().rows(), sim.terrain().cols());
            let s = Scenario {
                wind_speed_mph: 9.0,
                wind_dir_deg: 200.0,
                ..Scenario::reference()
            };
            let ign = FireLine::from_cells(rows, cols, &[(rows / 2, cols / 2), (4, 5)]);
            let reference = sim.simulate(&s, &ign, 0.0, 90.0);
            let mut arena = sim.arena();
            let [_, bucket, tiled] = ALL_KERNELS;
            for kernel in [bucket, tiled, bucket] {
                REACH_CAP.with(|c| c.set(1));
                sim.simulate_arena_kernel(&s, &ign, 0.0, 90.0, &mut arena, kernel);
                REACH_CAP.with(|c| c.set(usize::MAX));
                let what = format!("{rows}x{cols} {kernel}, reach capped");
                assert!(!arena.stray.is_empty(), "{what}: expected strays");
                assert!(
                    arena.stray.windows(2).all(|w| w[0] < w[1]),
                    "{what}: strays must be listed once each"
                );
                assert_rasters_identical(&reference, arena.map(), &what);
                assert_ranges_account_for_the_raster(&arena, 90.0, &what);
            }
            // The next (uncapped) run must clear every stray it inherited.
            let ign2 = FireLine::from_cells(rows, cols, &[(2, cols - 3)]);
            let fresh = sim.simulate(&s, &ign2, 0.0, 20.0);
            let after = sim.simulate_arena(&s, &ign2, 0.0, 20.0, &mut arena);
            assert_rasters_identical(&fresh, after, "run after strays");
        }
    }

    fn assert_rasters_identical(a: &IgnitionMap, b: &IgnitionMap, what: &str) {
        for (i, (x, y)) in a
            .grid()
            .as_slice()
            .iter()
            .zip(b.grid().as_slice())
            .enumerate()
        {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: cell {i} diverged");
        }
    }

    #[test]
    fn tiled_kernel_matches_heap_across_table_modes_and_shapes() {
        // All three table modes (uniform, per-fuel, per-cell) on every
        // degenerate tile shape and worker count, exact raster bits.
        let sims = [
            flat_sim(25),
            FireSim::new(Terrain::uniform(25, 25, 100.0).with_fuel(Grid::from_fn(
                25,
                25,
                |r, c| [1u8, 2, 4, 0][(r * 3 + c) % 4],
            ))),
            layered_sim(25, 25),
        ];
        let s = Scenario {
            wind_speed_mph: 8.0,
            wind_dir_deg: 45.0,
            ..Scenario::reference()
        };
        let ignition = FireLine::from_cells(25, 25, &[(12, 12), (3, 20)]);
        for sim in &sims {
            let mut heap_arena = sim.arena();
            let mut tiled_arena = sim.arena();
            for (tile, workers) in [(1, 2), (3, 8), (7, 1), (64, 2), (1000, 8)] {
                for dur in [30.0, 240.0, 2000.0] {
                    let h = sim
                        .simulate_arena_kernel(
                            &s,
                            &ignition,
                            0.0,
                            dur,
                            &mut heap_arena,
                            Kernel::Heap,
                        )
                        .clone();
                    let t = sim.simulate_arena_kernel(
                        &s,
                        &ignition,
                        0.0,
                        dur,
                        &mut tiled_arena,
                        Kernel::Tiled { tile, workers },
                    );
                    assert_rasters_identical(
                        &h,
                        t,
                        &format!("tile={tile} workers={workers} dur={dur}"),
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_kernel_reuses_dirty_arena_and_interleaves_with_other_kernels() {
        // Heap run (full dirt) → tiled run must reset via Dirty::All; then
        // bucket and tiled alternate on the same arena with moving
        // ignitions, each pinned against a fresh reference run.
        let sim = layered_sim(33, 47);
        let s = Scenario {
            wind_speed_mph: 6.0,
            ..Scenario::reference()
        };
        let mut arena = sim.arena();
        sim.simulate_arena_kernel(
            &s,
            &FireLine::from_cells(33, 47, &[(16, 23)]),
            0.0,
            5000.0,
            &mut arena,
            Kernel::Heap,
        );
        let runs = [
            (
                Kernel::Tiled {
                    tile: 8,
                    workers: 2,
                },
                (3usize, 3usize),
            ),
            (Kernel::Bucket, (30, 44)),
            (
                Kernel::Tiled {
                    tile: 16,
                    workers: 8,
                },
                (16, 23),
            ),
            (
                Kernel::Tiled {
                    tile: 1,
                    workers: 2,
                },
                (2, 40),
            ),
        ];
        for (i, (kernel, cell)) in runs.iter().enumerate() {
            let ign = FireLine::from_cells(33, 47, &[*cell]);
            let fresh = sim.simulate(&s, &ign, 0.0, 90.0);
            let got = sim.simulate_arena_kernel(&s, &ign, 0.0, 90.0, &mut arena, *kernel);
            assert_rasters_identical(&fresh, got, &format!("interleaved run {i}"));
        }
    }

    #[test]
    fn tiled_arena_is_allocation_free_in_steady_state() {
        let n = 41usize;
        let slope = Grid::from_fn(n, n, |r, c| ((r + c) % 30) as f64);
        let sim = FireSim::new(Terrain::uniform(n, n, 100.0).with_slope(slope));
        let s = calm_scenario();
        let kernel = Kernel::Tiled {
            tile: 8,
            workers: 2,
        };
        let mut arena = sim.arena();
        let durations: Vec<f64> = (0..6).map(|i| 400.0 + i as f64).collect();
        for &d in &durations {
            sim.simulate_arena_kernel(&s, &centre_ignition(n, n), 0.0, d, &mut arena, kernel);
        }
        let scratch = arena.scratch_bytes();
        for &d in &durations {
            sim.simulate_arena_kernel(&s, &centre_ignition(n, n), 0.0, d, &mut arena, kernel);
            assert_eq!(arena.scratch_bytes(), scratch, "tiled arena scratch grew");
        }
    }

    #[test]
    #[should_panic(expected = "tile size must be non-zero")]
    fn tiled_zero_tile_rejected() {
        let sim = flat_sim(5);
        let mut arena = sim.arena();
        sim.simulate_arena_kernel(
            &calm_scenario(),
            &centre_ignition(5, 5),
            0.0,
            10.0,
            &mut arena,
            Kernel::Tiled {
                tile: 0,
                workers: 1,
            },
        );
    }
}
