use super::sweep::{audit_pop_order, Sweep, Trail};
use landscape::UNIGNITED;
use std::cmp::Ordering;

/// Number of arrival-time buckets the monotone queue quantizes the horizon
/// into. More buckets → fewer entries to sort per refill. The drain does
/// not walk them: it finds the next occupied one through
/// [`BucketQueue::occupied`], so a run costs its pops and pushes plus one
/// word read per 64 buckets it skips; walking them one by one visits
/// 20–64× as many buckets as a `meadow_small` run pops cells.
pub(super) const BUCKETS: usize = 2048;

/// How far [`BucketQueue::improve`] walks a chain for the entry it
/// replaces. An unbounded walk reads 1.2–1.9 entries on average on the
/// benchmark mix, 99.4–100 % of them within 16 (longest 111), and 1.8 on
/// the corpus (64 fresh scenarios an interval), 99.2 % within 16 (longest
/// 71). An entry past the bound stays and pops stale.
pub(super) const IMPROVE_WALK: usize = 16;

/// The end of a bucket's chain, and the head of an empty bucket.
pub(super) const NIL: u32 = u32::MAX;

/// Monotone bucket queue (Dial's algorithm) over the arrival-time horizon
/// `[t0, t0 + duration]`, with one twist that buys exactness: the bucket
/// currently being drained is popped in the *same* total order the
/// reference `BinaryHeap<(Reverse<Time>, u32)>` pops in (ascending time
/// via `total_cmp`, ties by descending index). Future buckets are unsorted
/// chains through one flat **pool** — O(1) push, no storage per bucket but
/// its head. The drain cursor walks a bucket's chain (LIFO, near reverse
/// pop order) into a **sorted run** with the next pop last, sorted once,
/// so a pop is a `Vec::pop`; the front a run starts from already is bucket
/// 0's run (ascending indices, one time), so it loads without a compare.
/// Entries pushed into the cursor's bucket after it was opened go to a
/// small **`late` mini-heap** in the same order, and a pop takes the
/// earlier of the run's last entry and `late`'s root — so a fire that
/// lands in one bucket whole still pops in O(log n).
///
/// Every traversal cost is positive, so a push performed while draining
/// bucket `k` has an arrival time ≥ the time of some entry in bucket `k`,
/// and quantization (`floor((t - t0) · inv_delta)`) is monotone in `t`
/// under f64 rounding (subtraction and multiplication by a positive
/// constant are monotone). Pushes therefore never target a past bucket,
/// and the realized global pop order is the strict `(time, index)` total
/// order — the reference heap's, less the entries that would pop stale,
/// which [`BucketQueue::improve`] unlinks (nearly all of them).
///
/// The occupancy bitmap's invariant: a set bit means a non-empty bucket
/// ahead of the cursor, and between runs every head is [`NIL`] and every
/// bit clear. The tiled kernel's `stage`/`take_levels` leave the bitmap,
/// the run and `late` alone (they walk the heads themselves), which
/// keeps every bit clear.
#[derive(Debug, Clone, Default)]
pub(super) struct BucketQueue {
    /// Per bucket, the [`BucketQueue::pool`] index of its latest entry, or
    /// [`NIL`] when it is empty.
    pub(super) heads: Vec<u32>,
    /// Every entry queued ahead of the cursor this run (taken ones too,
    /// until the next `reset`) as `(t, idx, next)`, `next` being the
    /// bucket's previous entry or [`NIL`].
    pub(super) pool: Vec<(f64, u32, u32)>,
    /// One bit per bucket, set by `push` when an entry lands ahead of the
    /// cursor and cleared by `pop` when the bucket moves into `run`, or by
    /// `improve` when it unlinks the bucket's last entry.
    pub(super) occupied: [u64; BUCKETS / 64],
    /// The cursor's bucket as it was when opened, sorted in reverse pop
    /// order: the next pop is last.
    pub(super) run: Vec<(f64, u32)>,
    /// Entries pushed into the cursor's bucket after it was opened, as a
    /// mini-heap in pop order.
    pub(super) late: Vec<(f64, u32)>,
    /// Index of the bucket being drained; pushes quantizing to
    /// `<= cursor` (only possible for `== cursor`) join `late`.
    pub(super) cursor: usize,
    /// Entries currently queued across `run`, `late` and all future
    /// chains.
    pub(super) len: usize,
    base: f64,
    inv_delta: f64,
}

impl BucketQueue {
    /// The reference heap's pop order: smaller time first, equal times
    /// broken by larger cell index (`Less` pops first).
    #[inline]
    fn pop_order(a: (f64, u32), b: (f64, u32)) -> Ordering {
        a.0.total_cmp(&b.0).then(b.1.cmp(&a.1))
    }

    /// `true` when `a` pops before `b`.
    #[inline]
    fn before(a: (f64, u32), b: (f64, u32)) -> bool {
        Self::pop_order(a, b).is_lt()
    }

    /// Prepares the queue for one run over `[t0, t0 + duration]`. The pool,
    /// the run and `late` keep their capacity across runs, so a repeated
    /// run allocates nothing, and a fresh one only when its pushes outgrow
    /// the pool's high-water mark. A run that returned drained the queue,
    /// so only the pool is cleared; only a run abandoned by a panic leaves
    /// heads (and their bits) behind.
    #[inline]
    pub(super) fn reset(&mut self, t0: f64, duration: f64) {
        if self.heads.len() != BUCKETS {
            self.heads.resize(BUCKETS, NIL);
        }
        if self.len != 0 {
            self.heads.fill(NIL);
            self.run.clear();
            self.late.clear();
            self.occupied = [0; BUCKETS / 64];
        }
        self.pool.clear();
        self.cursor = 0;
        self.len = 0;
        self.base = t0;
        self.inv_delta = (BUCKETS - 1) as f64 / duration;
    }

    /// Queues a run's front, all at `t0`, on a freshly reset queue. `front`
    /// is ascending by index (a [`Seeds`](super::Seeds) front is), and at
    /// one time the largest index pops first, so `front` already is bucket
    /// 0's run in reverse pop order: one `extend`, no compare.
    #[inline]
    pub(super) fn load_front(&mut self, t0: f64, front: &[u32]) {
        debug_assert!(
            self.len == 0 && t0 == self.base,
            "load_front on a used queue"
        );
        debug_assert!(
            front.is_sorted_by(|a, b| a < b),
            "front not strictly ascending"
        );
        self.run.extend(front.iter().map(|&idx| (t0, idx)));
        self.len = front.len();
        #[cfg(test)]
        super::tests::SEEDS_QUEUED.with(|n| n.set(n.get() + front.len()));
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
            self.late.push((t, idx));
            let mut i = self.late.len() - 1;
            while i > 0 {
                let p = (i - 1) / 2;
                if Self::before(self.late[i], self.late[p]) {
                    self.late.swap(i, p);
                    i = p;
                } else {
                    break;
                }
            }
        } else {
            self.chain(b, t, idx);
            // Set even when the bucket already held an entry: one OR is
            // cheaper than the branch that would skip it.
            self.occupied[b / 64] |= 1 << (b % 64);
        }
    }

    /// Pushes `(t, idx)` for a cell whose queued arrival `old` it improves,
    /// first unlinking the entry `(old, idx)`, which would pop stale, if it
    /// is within [`IMPROVE_WALK`] of a future bucket's head. One not found
    /// (deeper, or in the run or `late`) stays and pops stale.
    #[inline]
    pub(super) fn improve(&mut self, old: f64, t: f64, idx: u32) {
        let b = self.bucket_of(old);
        let (mut prev, mut at) = (NIL, if b > self.cursor { self.heads[b] } else { NIL });
        for _ in 0..IMPROVE_WALK {
            let Some(&(et, eidx, next)) = self.pool.get(at as usize) else {
                break; // `NIL`: the chain's end, or no chain to walk
            };
            if (et, eidx) == (old, idx) {
                match prev {
                    NIL => self.heads[b] = next,
                    _ => self.pool[prev as usize].2 = next,
                }
                self.occupied[b / 64] &= !(u64::from(self.heads[b] == NIL) << (b % 64));
                self.len -= 1;
                break;
            }
            (prev, at) = (at, next);
        }
        self.push(t, idx);
    }

    /// Puts `(t, idx)` at the head of bucket `b`'s chain.
    #[inline]
    pub(super) fn chain(&mut self, b: usize, t: f64, idx: u32) {
        assert!(
            self.pool.len() < NIL as usize,
            "a run queued 2^32 - 1 entries"
        );
        let next = std::mem::replace(&mut self.heads[b], self.pool.len() as u32);
        self.pool.push((t, idx, next));
    }

    /// Empties bucket `b`, appending its entries to `into` latest first.
    #[inline]
    pub(super) fn unchain(&mut self, b: usize, into: &mut Vec<(f64, u32)>) {
        let mut at = std::mem::replace(&mut self.heads[b], NIL);
        while at != NIL {
            let (t, idx, next) = self.pool[at as usize];
            into.push((t, idx));
            at = next;
        }
    }

    /// Removes and returns `late`'s root; `late` must be non-empty.
    #[inline]
    fn pop_late(&mut self) -> (f64, u32) {
        let top = self.late.swap_remove(0);
        let n = self.late.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let mut best = l;
            let r = l + 1;
            if r < n && Self::before(self.late[r], self.late[l]) {
                best = r;
            }
            if Self::before(self.late[best], self.late[i]) {
                self.late.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
        top
    }

    #[inline]
    pub(super) fn pop(&mut self) -> Option<(f64, u32)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if let Some(&first) = self.late.first() {
            if self
                .run
                .last()
                .is_none_or(|&next| Self::before(first, next))
            {
                return Some(self.pop_late());
            }
        }
        if let Some(next) = self.run.pop() {
            return Some(next);
        }
        self.refill()
    }

    /// Opens the next occupied bucket once `run` and `late` are both
    /// drained, and pops its first entry.
    #[inline]
    fn refill(&mut self) -> Option<(f64, u32)> {
        // An entry is queued and every queued entry lives in a bucket
        // > cursor, so a set bit exists ahead of the cursor; no bit at or
        // behind it is set, so the scan needs no mask.
        let mut w = self.cursor / 64;
        while self.occupied[w] == 0 {
            w += 1;
            debug_assert!(w < BUCKETS / 64, "bucket queue lost entries");
        }
        let bit = self.occupied[w].trailing_zeros() as usize;
        self.occupied[w] &= !(1 << bit);
        debug_assert!(w * 64 + bit > self.cursor, "a bit behind the cursor");
        self.cursor = w * 64 + bit;
        let (t, idx, next) = self.pool[self.heads[self.cursor] as usize];
        if next == NIL {
            self.heads[self.cursor] = NIL;
            return Some((t, idx));
        }
        let mut run = std::mem::take(&mut self.run);
        self.unchain(self.cursor, &mut run);
        run.sort_unstable_by(|&a, &b| Self::pop_order(b, a));
        self.run = run;
        self.run.pop()
    }

    /// Heap bytes currently held: the pool, the heads, the run and `late`.
    pub(super) fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.pool.capacity() * size_of::<(f64, u32, u32)>()
            + self.heads.capacity() * size_of::<u32>()
            + (self.run.capacity() + self.late.capacity()) * size_of::<(f64, u32)>()
    }
}

impl Sweep<'_> {
    /// The bucket kernel: the frontier lives in a monotone
    /// [`BucketQueue`], every pop goes through [`Sweep::relax`], and every
    /// surviving arrival is written and queued at once, through
    /// [`BucketQueue::improve`] where it replaces a queued one.
    #[inline]
    pub(super) fn run_bucket(&self, front: &[u32], queue: &mut BucketQueue, trail: &mut Trail<'_>) {
        queue.reset(self.t0, self.duration);
        queue.load_front(self.t0, front);
        let mut prev_pop = None;
        while let Some((t, idx)) = queue.pop() {
            #[cfg(test)]
            super::tests::POPS.with(|n| n.set(n.get() + 1));
            audit_pop_order(&mut prev_pop, t, idx);
            self.relax(t, idx as usize, trail, |trail, arrival, nidx, at| {
                let old = trail.mark_written(nidx, at, arrival);
                if old == UNIGNITED {
                    queue.push(arrival, nidx as u32);
                } else {
                    queue.improve(old, arrival, nidx as u32);
                }
            });
        }
    }
}
