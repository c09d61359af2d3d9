use super::sweep::{audit_pop_order, Sweep, Trail};

/// Number of arrival-time buckets the monotone queue quantizes the horizon
/// into. More buckets → smaller per-bucket mini-heaps. The drain does not
/// walk them: it finds the next occupied one through
/// [`BucketQueue::occupied`], so a run costs its pops and pushes plus one
/// word read per 64 buckets it skips; walking them one by one visits
/// 20–64× as many buckets as a `meadow_small` run pops cells.
pub(super) const BUCKETS: usize = 2048;

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
///
/// The occupancy bitmap's invariant: a set bit means a non-empty bucket
/// ahead of the cursor, and between runs every bucket is empty and every
/// bit clear. The tiled kernel's `stage`/`take_levels` leave the bitmap
/// alone (they walk the buckets themselves), which keeps every bit clear.
#[derive(Debug, Clone, Default)]
pub(super) struct BucketQueue {
    /// Future frontier entries, bucketed by quantized arrival time.
    pub(super) buckets: Vec<Vec<(f64, u32)>>,
    /// One bit per bucket of [`BucketQueue::buckets`], set by `push` when
    /// an entry lands ahead of the cursor and cleared by `pop` when the
    /// bucket moves into `cur`.
    pub(super) occupied: [u64; BUCKETS / 64],
    /// The bucket currently being drained, as a mini-heap in pop order.
    pub(super) cur: Vec<(f64, u32)>,
    /// Index of the bucket `cur` was filled from; pushes quantizing to
    /// `<= cursor` (only possible for `== cursor`) join the mini-heap.
    pub(super) cursor: usize,
    /// Entries currently queued across `cur` and all future buckets.
    pub(super) len: usize,
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
    /// `Vec`s keep their capacity across runs, so a repeated run allocates
    /// nothing; a fresh one allocates whenever it fills a bucket past that
    /// bucket's own high-water mark. A run that returned drained the queue, so
    /// there is nothing to clear — 2048 stores that were a third of a
    /// `meadow_small` evaluation; only a run abandoned by a panic leaves
    /// entries (and their bits) behind.
    #[inline]
    pub(super) fn reset(&mut self, t0: f64, duration: f64) {
        if self.buckets.len() != BUCKETS {
            self.buckets.resize_with(BUCKETS, Vec::new);
        }
        if self.len != 0 {
            for b in &mut self.buckets {
                b.clear();
            }
            self.cur.clear();
            self.occupied = [0; BUCKETS / 64];
        }
        self.cursor = 0;
        self.len = 0;
        self.base = t0;
        self.inv_delta = (BUCKETS - 1) as f64 / duration;
    }

    #[inline]
    pub(super) fn bucket_of(&self, t: f64) -> usize {
        // t >= base always (seeds carry t0, relaxations only increase), so
        // the cast truncates a non-negative value; clamp covers t == t_end.
        (((t - self.base) * self.inv_delta) as usize).min(BUCKETS - 1)
    }

    #[inline]
    pub(super) fn push(&mut self, t: f64, idx: u32) {
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
            // Set even when the bucket already held an entry: one OR is
            // cheaper than the branch that would skip it.
            self.occupied[b / 64] |= 1 << (b % 64);
        }
    }

    #[inline]
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

    #[inline]
    pub(super) fn pop(&mut self) -> Option<(f64, u32)> {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            // len > 0 and every queued entry lives in cur or a bucket
            // > cursor, so a set bit exists ahead of the cursor; no bit at
            // or behind it is set, so the scan needs no mask.
            let mut w = self.cursor / 64;
            while self.occupied[w] == 0 {
                w += 1;
                debug_assert!(w < BUCKETS / 64, "bucket queue lost entries");
            }
            let bit = self.occupied[w].trailing_zeros() as usize;
            self.occupied[w] &= !(1 << bit);
            debug_assert!(w * 64 + bit > self.cursor, "a bit behind the cursor");
            self.cursor = w * 64 + bit;
            // Move elements out rather than swap the `Vec`s so every
            // bucket keeps its own high-water capacity (swapping shuffles
            // capacities between slots, so even a repeated run would
            // allocate).
            self.cur.append(&mut self.buckets[self.cursor]);
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

    /// Heap bytes currently held across all bucket storage.
    pub(super) fn bytes(&self) -> usize {
        let entry = std::mem::size_of::<(f64, u32)>();
        let entries: usize =
            self.cur.capacity() + self.buckets.iter().map(Vec::capacity).sum::<usize>();
        entries * entry + self.buckets.capacity() * std::mem::size_of::<Vec<(f64, u32)>>()
    }
}

impl Sweep<'_> {
    /// The bucket kernel: the frontier lives in a monotone
    /// [`BucketQueue`], every pop goes through [`Sweep::relax`], and every
    /// surviving arrival is written and pushed at once.
    #[inline]
    pub(super) fn run_bucket(&self, seeds: &[u32], queue: &mut BucketQueue, trail: &mut Trail<'_>) {
        queue.reset(self.t0, self.duration);
        for &sidx in seeds {
            queue.push(self.t0, sidx);
        }
        #[cfg(test)]
        super::tests::SEEDS_QUEUED.with(|n| n.set(n.get() + seeds.len()));
        let mut prev_pop = None;
        while let Some((t, idx)) = queue.pop() {
            audit_pop_order(&mut prev_pop, t, idx);
            self.relax(t, idx as usize, trail, |trail, arrival, nidx, at| {
                trail.mark_written(nidx, at, arrival);
                queue.push(arrival, nidx as u32);
            });
        }
    }
}
