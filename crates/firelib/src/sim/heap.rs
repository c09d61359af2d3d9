use super::sweep::{audit_pop_order, BurnCount, Sweep};
use super::Work;
use crate::SMIDGEN;
use landscape::IgnitionMap;
use std::{cmp::Reverse, collections::BinaryHeap};

/// Total-ordering wrapper for ignition times, ordered by
/// [`f64::total_cmp`] — branch-free and panic-free (times are never NaN by
/// construction, so IEEE total order and numeric order coincide here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Time(pub(super) f64);

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

impl Sweep<'_> {
    /// The reference kernel: a classic Dijkstra minimum-travel-time sweep
    /// over one binary heap and the whole raster. It is the oracle the
    /// kernel conformance matrix compares the other kernels against, so it shares
    /// their prelude but deliberately keeps its own pop-and-relax loop
    /// instead of calling [`Sweep::relax`] — a reference that shared the
    /// step it checks would check nothing. It counts its writes into
    /// `count` at the write itself, as [`Trail`](super::sweep::Trail) does,
    /// and the per-cell tables it builds into `work`.
    #[inline]
    pub(super) fn run_dijkstra(
        &self,
        seeds: &[u32],
        heap: &mut BinaryHeap<(Reverse<Time>, u32)>,
        out: &mut IgnitionMap,
        count: &mut BurnCount<'_>,
        work: &mut Work,
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
            let table = self.table(idx, work);
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
                let old = out.time(nr, nc);
                if arrival > self.t_end || arrival >= old - SMIDGEN {
                    continue;
                }
                let nidx = nr * cols + nc;
                if !self.burnable.at(nidx) {
                    continue;
                }
                count.record(nidx, old, arrival);
                out.set_time(nr, nc, arrival);
                heap.push((Reverse(Time(arrival)), nidx as u32));
            }
        }
    }
}
