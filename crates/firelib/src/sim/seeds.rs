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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Seeds {
    pub(super) rows: usize,
    pub(super) cols: usize,
    pub(super) cells: Vec<u32>,
    pub(super) front: Vec<u32>,
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
