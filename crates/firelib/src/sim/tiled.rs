use super::bucket::{BucketQueue, BUCKETS, NIL};
use super::heap::Time;
use super::sweep::{audit_pop_order, Sweep, Trail};
use crate::SMIDGEN;
use landscape::IgnitionMap;
use std::{cmp::Reverse, collections::BinaryHeap};

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

/// What the tiled kernel keeps between epochs, all sized at the high-water
/// mark.
#[derive(Debug, Clone, Default)]
pub(super) struct EpochScratch {
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
    pub(super) fn bytes(&self) -> usize {
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

impl BucketQueue {
    /// Tiled-kernel entry point: queues `(t, idx)` for a *future* epoch
    /// without touching the drain's run or its `late` heap. The tiled
    /// kernel only calls this for arrivals quantizing past the current
    /// epoch's last bucket (in-epoch arrivals go to the merge cascade
    /// instead), so the entry always lands at or ahead of the cursor.
    #[inline]
    pub(super) fn stage(&mut self, t: f64, idx: u32) {
        let b = self.bucket_of(t);
        debug_assert!(b >= self.cursor, "staged entry targets a drained epoch");
        self.len += 1;
        self.chain(b, t, idx);
    }

    /// Tiled-kernel epoch extraction: moves every entry of the next run of
    /// non-empty chains into `into` (unordered) until at least `grain`
    /// entries are taken or the queue empties, and returns the index of the
    /// last bucket taken. Entries staged afterwards must quantize past that
    /// bucket. Returns `None` when the queue is empty.
    pub(super) fn take_levels(
        &mut self,
        grain: usize,
        into: &mut Vec<(f64, u32)>,
    ) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        into.clear();
        while self.heads[self.cursor] == NIL {
            self.cursor += 1;
            debug_assert!(self.cursor < BUCKETS, "bucket queue lost entries");
        }
        let mut k = self.cursor;
        loop {
            let before = into.len();
            self.unchain(k, into);
            self.len -= into.len() - before;
            if into.len() >= grain || self.len == 0 || k + 1 == BUCKETS {
                break;
            }
            k += 1;
        }
        self.cursor = k + 1;
        Some(k)
    }
}

impl Sweep<'_> {
    /// The tiled kernel: multi-core propagation *inside* a single
    /// simulation, on `workers` threads (`0`: one per available core). The
    /// bucket queue is processed in **epochs** — runs of consecutive bucket
    /// levels bundled until at least [`TILE_GRAIN`] frontier entries are in
    /// hand. Each epoch runs in two phases:
    ///
    /// 1. **Parallel drain** (defer-all): the epoch's entries are grouped
    ///    by spatial tile (`tile × tile` blocks of the raster, pop order
    ///    within each tile) and the tiles drain concurrently via
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
    pub(super) fn run_tiled(
        &self,
        seeds: &[u32],
        queue: &mut BucketQueue,
        trail: &mut Trail<'_>,
        scratch: &mut EpochScratch,
        tile: usize,
        workers: usize,
    ) {
        let workers = match workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            pinned => pinned,
        };
        let EpochScratch {
            tiles,
            epoch,
            keyed,
            tile_ranges,
            merge,
        } = scratch;
        let cols = self.cols;
        queue.reset(self.t0, self.duration);
        for &sidx in seeds {
            queue.stage(self.t0, sidx);
        }
        #[cfg(test)]
        super::tests::SEEDS_QUEUED.with(|n| n.set(n.get() + seeds.len()));

        // Tile ownership of a cell: its `tile × tile` block of the raster.
        let tiles_x = cols.div_ceil(tile);
        let tile_of = |idx: u32| -> u32 {
            let (r, c) = ((idx as usize) / cols, (idx as usize) % cols);
            ((r / tile) * tiles_x + c / tile) as u32
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

#[cfg(test)]
mod tests {
    use crate::sim::{centre_ignition, FireSim, Kernel};
    use crate::{Scenario, Terrain};

    #[test]
    #[should_panic(expected = "tile size must be non-zero")]
    fn tiled_zero_tile_rejected() {
        let sim = FireSim::new(Terrain::uniform(5, 5, 100.0));
        let (s, line) = (Scenario::reference(), centre_ignition(5, 5));
        let kernel = Kernel::Tiled {
            tile: 0,
            workers: 1,
        };
        sim.simulate_arena_kernel(&s, &line, 0.0, 10.0, &mut sim.arena(), kernel);
    }
}
