/// The rectangular active-front window of one bucket-kernel run: the
/// ignition bounding box expanded by the farthest distance the fire can
/// travel within the horizon (Chebyshev metric — every neighbour step,
/// diagonal included, advances at most one Chebyshev unit and costs at
/// least `cell_ft / ros_cap` minutes). It bounds bookkeeping, not work:
/// writes inside it are recorded as per-row spans, and the tiled kernel
/// partitions it into tiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Window {
    pub(super) r0: usize,
    pub(super) c0: usize,
    pub(super) rows: usize,
    pub(super) cols: usize,
}

impl Window {
    #[inline]
    pub(super) fn contains(&self, r: usize, c: usize) -> bool {
        r.wrapping_sub(self.r0) < self.rows && c.wrapping_sub(self.c0) < self.cols
    }

    /// This window grown by `reach` cells on every side, clipped to a
    /// `rows × cols` raster.
    pub(super) fn grown(&self, reach: usize, rows: usize, cols: usize) -> Window {
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
/// terrain by [`FireSim::seeds`](super::FireSim::seeds). Nothing in it
/// depends on the scenario, so a caller that evaluates many scenarios from
/// one line resolves it once — `ess` does, per interval of a case — and
/// each run goes straight to writing the seeds and queueing the front
/// (`FireSim::simulate_arena_seeded`). The `&FireLine` entry points
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
    pub(super) rows: usize,
    pub(super) cols: usize,
    pub(super) cells: Vec<u32>,
    pub(super) front: Vec<u32>,
    /// Bounding box of `cells`; meaningless when there are none.
    pub(super) bbox: Window,
    /// Burnability came from the terrain's fuel layer (else it is the
    /// scenario model's, decided per run).
    pub(super) fuel_layer: bool,
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
    pub(super) fn bytes(&self) -> usize {
        (self.cells.capacity() + self.front.capacity()) * std::mem::size_of::<u32>()
    }
}
