use super::{bucket::BucketQueue, heap::Time, sweep::FuelTable, tiled::EpochScratch, Seeds};
use landscape::{IgnitionMap, UNIGNITED};
use std::{cmp::Reverse, collections::BinaryHeap};

/// Which cells of the arena's arrival raster may differ from `UNIGNITED`
/// after the previous run — the next run resets exactly this set instead
/// of the whole raster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Dirty {
    /// Fresh raster (or already reset): all cells hold `UNIGNITED`.
    Clean,
    /// Unknown write set (reference kernel ran, or a run did not return):
    /// full reset required.
    All,
    /// Bucket or tiled run: writes confined to the per-row spans recorded
    /// in `span_lo`/`span_hi` of raster rows `first..=last`, the rows the
    /// run wrote.
    Spans { first: usize, last: usize },
}

/// Restores the all-`UNIGNITED` invariant of `out`, and the all-empty one
/// of the row spans, by resetting exactly what the previous run wrote:
/// nothing for a fresh raster, the recorded spans of the rows a
/// span-tracked run wrote, or everything after a reference-kernel run.
#[inline]
pub(super) fn reset_raster(
    dirty: &mut Dirty,
    out: &mut IgnitionMap,
    span_lo: &mut [u32],
    span_hi: &mut [u32],
    cols: usize,
) {
    match *dirty {
        Dirty::Clean => {}
        Dirty::All => {
            out.clear();
            span_lo.fill(u32::MAX);
            span_hi.fill(0);
        }
        Dirty::Spans { first, last } => {
            let slice = out.grid_mut().as_mut_slice();
            for r in first..=last {
                let (lo, hi) = (span_lo[r], span_hi[r]);
                if lo <= hi {
                    slice[r * cols + lo as usize..=r * cols + hi as usize].fill(UNIGNITED);
                    (span_lo[r], span_hi[r]) = (u32::MAX, 0);
                }
            }
        }
    }
    *dirty = Dirty::Clean;
}

/// The work the runs in one [`SimArena`] did, counted where it is done and
/// summed over the arena's life ([`SimArena::work`]) — the unit a fire
/// model is measured in when wall time is not the question. Plain counts,
/// always kept: nothing gates them and no clock is read, so a count is the
/// same on every host, build and thread count. A tiled run's drain tiles
/// count into their own scratch, which the merge adds to the arena's.
///
/// The reference kernel ([`Kernel::Heap`](super::Kernel::Heap)) counts
/// its runs and the per-cell tables it builds; the frontier counts
/// (`pops` to `occupancy_words_read`) are the bucket and tiled kernels'.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Runs started in the arena, whatever their entry point.
    pub runs: u64,
    /// Frontier entries popped and relaxed (`Sweep::relax`).
    pub pops: u64,
    /// Pops whose cell an earlier pop had improved since they were
    /// queued: they emit nothing.
    pub stale_pops: u64,
    /// Seeds queued: a run's front.
    pub seeds_queued: u64,
    /// Neighbour reads spent finding the front of a fire line a run was
    /// handed (a run from resolved [`Seeds`] spends none).
    pub front_reads: u64,
    /// Per-cell spread ellipses (the reference kernel: full tables) built
    /// for popped cells on a fully heterogeneous terrain.
    pub tables_built: u64,
    /// Single rates read off those ellipses.
    pub rates_read: u64,
    /// Buckets the bucket kernel's drain opened after its front's.
    pub buckets_opened: u64,
    /// Occupancy-bitmap words the drain read to find the buckets it
    /// opened: one a bucket, plus one per 64 empty buckets it skipped.
    pub occupancy_words_read: u64,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, other: Self) {
        self.runs += other.runs;
        self.pops += other.pops;
        self.stale_pops += other.stale_pops;
        self.seeds_queued += other.seeds_queued;
        self.front_reads += other.front_reads;
        self.tables_built += other.tables_built;
        self.rates_read += other.rates_read;
        self.buckets_opened += other.buckets_opened;
        self.occupancy_words_read += other.occupancy_words_read;
    }
}

/// The worker-owned simulation arena: every buffer the propagation engine
/// needs across evaluations, allocated once and reused.
///
/// `FireSim` is immutable shared state (terrain + fuel beds behind `Arc`s);
/// a `SimArena` is the *mutable* counterpart one worker owns privately. It
/// holds the frontier queues, the seed lists, the per-row spans of what
/// the last run wrote and the arrival-time raster — no spread tables
/// beyond the 14 inline per-fuel ones and their traversal times: a
/// per-cell table or ellipse lives for the one pop that reads it. It also
/// keeps the count of what its runs did ([`Work`]), so a run's work
/// belongs to the arena it ran in, not to a thread.
/// Construction is O(1): nothing is allocated until the first run, and
/// from then on every buffer is retained at its high-water mark, so a
/// repeated scenario allocates nothing on
/// [`FireSim::simulate_arena`](super::FireSim::simulate_arena), and a fresh
/// one only when its run queues more than any before it — construct one
/// arena per worker (see `FireSim::arena`) and reuse it for every
/// scenario. On the default bucket kernel the high-water mark tracks the
/// *fire*: a short burn on a 1000×1000 map holds the pushes its run queued,
/// 8 KiB of bucket heads and eight bytes per raster row of spans, plus the
/// (mandatory) full arrival raster.
#[derive(Debug, Clone)]
pub struct SimArena {
    pub(super) rows: usize,
    pub(super) cols: usize,
    /// Per-fuel-code directional spread tables and their traversal times
    /// (filled only on fuel-only mosaics, and only for the codes the fuel
    /// layer holds); inline, so the fast path never touches the heap.
    pub(super) per_fuel: [FuelTable; 14],
    /// Reference-kernel Dijkstra frontier; empty unless
    /// [`Kernel::Heap`](super::Kernel::Heap) runs, capacity persists.
    pub(super) heap: BinaryHeap<(Reverse<Time>, u32)>,
    /// Bucket-kernel frontier.
    pub(super) queue: BucketQueue,
    /// The seeds of the last run that was handed a fire line rather than
    /// resolved [`Seeds`] (index scratch).
    pub(super) line_seeds: Seeds,
    /// Per-raster-row column spans the last run wrote (inclusive; `lo >
    /// hi` means the row was not written). Sized on the first run; between
    /// runs every row but the ones [`Dirty::Spans`] names holds
    /// `(u32::MAX, 0)`.
    pub(super) span_lo: Vec<u32>,
    pub(super) span_hi: Vec<u32>,
    /// What the next run must reset before writing.
    pub(super) dirty: Dirty,
    /// Tiled-kernel epoch scratch; empty unless the tiled kernel runs.
    pub(super) epochs: EpochScratch,
    /// The arrival raster of the most recent evaluation; allocated on
    /// first use.
    pub(super) out: Option<IgnitionMap>,
    /// What every run in this arena did, summed.
    pub(super) work: Work,
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
            per_fuel: [FuelTable::default(); 14],
            heap: BinaryHeap::new(),
            queue: BucketQueue::default(),
            line_seeds: Seeds::default(),
            span_lo: Vec::new(),
            span_hi: Vec::new(),
            dirty: Dirty::Clean,
            epochs: EpochScratch::default(),
            out: None,
            work: Work::default(),
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

    /// What every run in this arena has done so far ([`Work`]); the
    /// difference of two readings is what the runs between them did.
    pub fn work(&self) -> Work {
        self.work
    }

    /// The arrival map written by the last
    /// [`FireSim::simulate_arena`](super::FireSim::simulate_arena) run.
    ///
    /// # Panics
    /// Panics when no simulation has run in this arena yet (the raster is
    /// allocated lazily on first use).
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` contract: reading an arena before any run is caller error, pinned by the `fresh_arena_map_panics` test"
    )]
    pub fn map(&self) -> &IgnitionMap {
        self.out
            .as_ref()
            .expect("SimArena::map: no simulation has run in this arena yet")
    }

    /// The index ranges of [`SimArena::map`] the last run may have written:
    /// ascending and disjoint, and every cell outside them holds
    /// `UNIGNITED`. After a bucket or tiled run they are the column spans
    /// of the rows it wrote, one range a row, so a consumer that only
    /// cares about ignited cells (Eq. (3) scoring) pays for the fire, not
    /// the raster; after a reference-kernel run, which tracks nothing, the
    /// one range is the whole raster.
    pub fn written_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let cols = self.cols;
        // `first > last`: no span-tracked row.
        let (whole, (first, last)) = match self.dirty {
            Dirty::Clean => (None, (1, 0)),
            Dirty::All => (Some(0..self.rows * cols), (1, 0)),
            Dirty::Spans { first, last } => (None, (first, last)),
        };
        whole.into_iter().chain((first..=last).filter_map(move |r| {
            let (lo, hi) = (self.span_lo[r] as usize, self.span_hi[r] as usize);
            (lo <= hi).then(|| r * cols + lo..r * cols + hi + 1)
        }))
    }

    /// Heap bytes currently held by every scratch structure in the arena
    /// — frontier queues, seed lists, row spans —
    /// **excluding** the arrival raster itself (which is the mandatory
    /// output, reported by [`SimArena::raster_bytes`]). It scales with the
    /// fire a run queued, plus eight bytes a raster row.
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.heap.capacity() * size_of::<(Reverse<Time>, u32)>()
            + self.queue.bytes()
            + (self.span_lo.capacity() + self.span_hi.capacity()) * size_of::<u32>()
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
