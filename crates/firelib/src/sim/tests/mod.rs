//! The propagation engine's unit tests: physics, counters, arena
//! bookkeeping and preconditions. Kernel bit-identity is the generated
//! matrix of [`conformance`]; what a run reads of its scenario is
//! [`run_key`]'s.

mod conformance;
mod run_key;

use super::bucket::{BucketQueue, BUCKETS, IMPROVE_WALK, NIL};
use super::*;
use crate::spread::wind_slope_max;
use landscape::{Grid, UNIGNITED};

/// `queue.pop`, its work counted nowhere.
fn pop(queue: &mut BucketQueue) -> Option<(f64, u32)> {
    queue.pop(&mut Work::default())
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

/// A time in the middle of bucket `k` of a run over `[t0, t0 + duration]`.
fn mid_bucket(t0: f64, duration: f64, k: usize) -> f64 {
    t0 + (k as f64 + 0.5) * duration / (BUCKETS - 1) as f64
}

/// Every chain head `NIL`, the run and `late` empty and every occupancy
/// bit clear: the state a drained (or reset) queue must be in between
/// runs.
fn assert_drained(queue: &BucketQueue) {
    assert_eq!(queue.heads.len(), BUCKETS);
    assert!(queue.heads.iter().all(|&h| h == NIL), "a stale chain head");
    assert!(queue.run.is_empty(), "a stale run entry");
    assert!(queue.late.is_empty(), "a stale late entry");
    assert_eq!(queue.occupied, [0; BUCKETS / 64], "a stale occupancy bit");
}

#[test]
fn queue_reset_clears_what_an_abandoned_run_left() {
    let mut queue = BucketQueue::default();
    queue.reset(0.0, 100.0);
    // Entries in buckets on both sides of the first word edge, and far out.
    let (at63, at64) = (mid_bucket(0.0, 100.0, 63), mid_bucket(0.0, 100.0, 64));
    assert_eq!((queue.bucket_of(at63), queue.bucket_of(at64)), (63, 64));
    for (t, idx) in [(0.0, 3), (at64, 5), (at63, 4), (40.0, 1), (99.0, 2)] {
        queue.push(t, idx);
    }
    assert_eq!(pop(&mut queue), Some((0.0, 3)));
    assert_eq!(pop(&mut queue), Some((at63, 4)));
    // The run stops here (a panic unwinding through the pool): three
    // entries are still queued in future buckets, bucket 64's among them.
    assert_ne!(queue.occupied, [0; BUCKETS / 64]);
    queue.reset(5.0, 10.0);
    assert_drained(&queue);
    assert!(queue.pool.is_empty(), "the reset kept the abandoned pool");
    assert_eq!(pop(&mut queue), None);
    // A stale bit would send the next run's refill to an empty bucket.
    let (at63, at64) = (mid_bucket(5.0, 10.0, 63), mid_bucket(5.0, 10.0, 64));
    for (t, idx) in [(5.0, 8), (at64, 6), (7.0, 9), (at63, 7)] {
        queue.push(t, idx);
    }
    for want in [(5.0, 8), (at63, 7), (at64, 6), (7.0, 9)] {
        assert_eq!(pop(&mut queue), Some(want));
    }
    assert_eq!(pop(&mut queue), None);
    assert_drained(&queue);
    // Drained: the next reset has nothing to clear, and clears nothing.
    queue.reset(0.0, 1.0);
    assert_drained(&queue);
}

/// Seeded random push/pop interleavings, each push at or after the last
/// pop's time as a sweep makes them, pop for pop against the reference
/// kernel's `BinaryHeap<(Reverse<Time>, u32)>`. A third of the runs queue
/// their `t0` entries through `load_front`, as distinct ascending indices;
/// the rest push them. The pushes hit bucket 0, the word edges 63/64 and
/// 127/128, the clamped last bucket (an arrival at `t_end`), equal times
/// under different indices, and the last pop's time under a larger index
/// than its own: a tie that must pop before the rest of the run. One run
/// in four has a horizon that puts every push in bucket 0, so its whole
/// fire goes through `late`, and one in eight pushes 100–300 entries into
/// one future bucket first, so its refill walks a long chain. The pool
/// holds exactly the pushes that landed ahead of the cursor, and every
/// drained run leaves the queue empty and every occupancy bit clear.
#[test]
fn queue_pops_what_the_reference_heap_pops() {
    use super::heap::Time;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const EDGES: [usize; 6] = [0, 63, 64, 127, 128, BUCKETS - 1];
    let mut rng = StdRng::seed_from_u64(0xb1_7a_9e);
    let mut queue = BucketQueue::default();
    let mut hit = [false; BUCKETS];
    let (mut fronts, mut late_peak, mut long_chains) = (0, 0, 0);
    for run in 0..400 {
        let t0 = if run % 3 == 0 {
            0.0
        } else {
            rng.random_range(0.0..2000.0)
        };
        let one_bucket = run % 4 == 3;
        let duration = if one_bucket {
            rng.random_range(1e5..1e7)
        } else {
            rng.random_range(1.0..6000.0)
        };
        // The latest a push may land: the horizon's end, or the middle of
        // bucket 0 when the whole run must stay there.
        let reach = if one_bucket {
            mid_bucket(t0, duration, 0)
        } else {
            t0 + duration
        };
        queue.reset(t0, duration);
        let mut reference = BinaryHeap::new();
        if run % 3 == 1 {
            let front: Vec<u32> = (0..16).filter(|_| rng.random_bool(0.3)).collect();
            queue.load_front(t0, &front);
            reference.extend(front.iter().map(|&idx| (Reverse(Time(t0)), idx)));
            fronts += 1;
        } else {
            for _ in 0..rng.random_range(1..4usize) {
                let idx = rng.random_range(0..16u32);
                queue.push(t0, idx);
                reference.push((Reverse(Time(t0)), idx));
            }
        }
        hit[queue.bucket_of(t0)] = true;
        let mut ahead = 0;
        if run % 8 == 5 {
            // A burst into one future bucket short of the horizon's end,
            // times inside it, ties too.
            let k = rng.random_range(1..BUCKETS - 1);
            let burst = rng.random_range(100..300usize);
            let width = duration / (BUCKETS - 1) as f64;
            for i in 0..burst {
                let frac = if i % 5 == 0 {
                    0.5
                } else {
                    rng.random_range(0.1..0.9)
                };
                let (t, idx) = (t0 + (k as f64 + frac) * width, rng.random_range(0..16u32));
                assert_eq!(
                    queue.bucket_of(t),
                    k,
                    "run {run}: the burst left bucket {k}"
                );
                queue.push(t, idx);
                reference.push((Reverse(Time(t)), idx));
            }
            let mut chain = (queue.heads[k], 0);
            while chain.0 != NIL {
                chain = (queue.pool[chain.0 as usize].2, chain.1 + 1);
            }
            assert_eq!(chain.1, burst, "run {run}: bucket {k}'s chain");
            (ahead, long_chains) = (burst, long_chains + 1);
        }
        let (mut floor, mut last_pushed, mut last_idx) = (t0, t0, 0);
        let mut budget = rng.random_range(1..400usize);
        loop {
            let pushes = rng.random_range(0..4usize).min(budget);
            budget -= pushes;
            for _ in 0..pushes {
                let mut idx = rng.random_range(0..16u32);
                let t = match rng.random_range(0..7u32) {
                    0 => floor,
                    1 => reach,
                    2 => last_pushed.max(floor),
                    3 => {
                        let k = EDGES[rng.random_range(0..EDGES.len())];
                        mid_bucket(t0, duration, k).clamp(floor, reach)
                    }
                    4 => {
                        idx = last_idx + rng.random_range(1..8u32);
                        floor
                    }
                    _ => floor + rng.random::<f64>() * (reach - floor),
                };
                hit[queue.bucket_of(t)] = true;
                assert!(
                    !one_bucket || queue.bucket_of(t) == 0,
                    "run {run} left bucket 0"
                );
                last_pushed = t;
                ahead += usize::from(queue.bucket_of(t) > queue.cursor);
                queue.push(t, idx);
                reference.push((Reverse(Time(t)), idx));
            }
            late_peak = late_peak.max(queue.late.len());
            let want = reference.pop().map(|(Reverse(Time(t)), idx)| (t, idx));
            let got = pop(&mut queue);
            assert_eq!(
                got.map(|(t, i)| (t.to_bits(), i)),
                want.map(|(t, i)| (t.to_bits(), i)),
                "run {run}: the queue left the reference heap's order"
            );
            match got {
                Some((t, idx)) => (floor, last_idx) = (t, idx),
                None => break,
            }
        }
        assert_drained(&queue);
        assert_eq!(queue.pool.len(), ahead, "run {run}: the pool's entries");
    }
    for k in EDGES {
        assert!(hit[k], "no push landed in bucket {k}");
    }
    assert!(
        fronts > 100 && late_peak > 100 && long_chains == 50,
        "{fronts} fronts, late peaked at {late_peak}, {long_chains} long chains"
    );
}

/// The tiled kernel's half of the queue: entries staged across several
/// buckets — bucket 0, both sides of a word edge, a long chain, the last
/// bucket — and more staged past each epoch's last bucket come back from
/// `take_levels` exactly once each, as a multiset, and every bucket an
/// epoch took is left with a `NIL` head.
#[test]
fn queue_take_levels_returns_each_staged_entry_once() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let (t0, duration) = (10.0, 500.0);
    let mut rng = StdRng::seed_from_u64(0x7a_6e);
    let mut queue = BucketQueue::default();
    queue.reset(t0, duration);
    let mut staged = Vec::new();
    // Indices repeat every 19 entries: bucket 5 holds equal entries.
    let stage = |queue: &mut BucketQueue, staged: &mut Vec<(f64, u32)>, k: usize| {
        let (t, idx) = (mid_bucket(t0, duration, k), (staged.len() % 19) as u32);
        queue.stage(t, idx);
        staged.push((t, idx));
    };
    for k in [0, 0, 3, 63, 64, 64, 900, BUCKETS - 1] {
        stage(&mut queue, &mut staged, k);
    }
    for _ in 0..40 {
        stage(&mut queue, &mut staged, 5);
    }
    let (mut taken, mut epoch, mut next) = (Vec::new(), Vec::new(), 0);
    while let Some(k_end) = queue.take_levels(16, &mut epoch) {
        assert!(!epoch.is_empty() && k_end >= next, "an empty epoch");
        for &(t, _) in &epoch {
            assert!(
                (next..=k_end).contains(&queue.bucket_of(t)),
                "an entry outside the epoch"
            );
        }
        assert!(
            queue.heads[..=k_end].iter().all(|&h| h == NIL),
            "a taken head"
        );
        taken.extend_from_slice(&epoch);
        next = k_end + 1;
        if staged.len() < 300 && next < BUCKETS {
            for _ in 0..rng.random_range(0..12) {
                let k = rng.random_range(next..BUCKETS);
                stage(&mut queue, &mut staged, k);
            }
        }
    }
    assert_drained(&queue);
    assert_eq!(queue.pool.len(), staged.len());
    let key = |&(t, idx): &(f64, u32)| (t.to_bits(), idx);
    taken.sort_unstable_by_key(key);
    staged.sort_unstable_by_key(key);
    assert_eq!(
        taken.iter().map(key).collect::<Vec<_>>(),
        staged.iter().map(key).collect::<Vec<_>>()
    );
}

/// Where `(t, idx)` sits in bucket `b`'s chain, counted from its head.
fn chain_depth(queue: &BucketQueue, b: usize, (t, idx): (f64, u32)) -> Option<usize> {
    let (mut at, mut depth) = (queue.heads[b], 0);
    while at != NIL {
        let (et, eidx, next) = queue.pool[at as usize];
        if (et.to_bits(), eidx) == (t.to_bits(), idx) {
            return Some(depth);
        }
        (at, depth) = (next, depth + 1);
    }
    None
}

/// Seeded random sweeps over 48 cells against the reference heap: a cell
/// is queued once by `push` and again by `improve` whenever a later push
/// beats its arrival, at or after the last pop's time, as the bucket
/// kernel queues them. The reference queues every arrival and skips a pop
/// whose cell has since improved; the queue must pop the same live
/// entries in the same order, and pop stale exactly the entries `improve`
/// could not unlink — the one in the run or `late`, or more than
/// [`IMPROVE_WALK`] entries deep. One run in six first fills one future
/// bucket with 40 cells, so improving the earliest of them walks past the
/// bound. Every drained run leaves the queue empty.
#[test]
fn queue_improve_unlinks_what_would_pop_stale() {
    use super::heap::Time;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One run's cells and the reference heap, and what `improve` left.
    #[derive(Default)]
    struct Model {
        arrival: Vec<f64>,
        reference: BinaryHeap<(Reverse<Time>, u32)>,
        expect_stale: usize,
        unlinked: usize,
        deep: usize,
        behind: usize,
    }

    impl Model {
        /// Queues `(t, idx)` as the bucket kernel does, checking that an
        /// unlink takes exactly one entry and clears its bucket's bit
        /// when its chain empties.
        fn queue(&mut self, queue: &mut BucketQueue, t: f64, idx: u32) {
            let old = std::mem::replace(&mut self.arrival[idx as usize], t);
            self.reference.push((Reverse(Time(t)), idx));
            if old == f64::INFINITY {
                queue.push(t, idx);
                return;
            }
            let b = queue.bucket_of(old);
            let depth = (b > queue.cursor)
                .then(|| chain_depth(queue, b, (old, idx)))
                .flatten();
            let gone = matches!(depth, Some(d) if d < IMPROVE_WALK);
            match depth {
                _ if gone => self.unlinked += 1,
                Some(_) => (self.deep, self.expect_stale) = (self.deep + 1, self.expect_stale + 1),
                None => (self.behind, self.expect_stale) = (self.behind + 1, self.expect_stale + 1),
            }
            let len = queue.len;
            queue.improve(old, t, idx);
            assert_eq!(queue.len, len + 1 - usize::from(gone), "the queue's length");
            if gone && queue.bucket_of(t) != b {
                let bit = queue.occupied[b / 64] >> (b % 64) & 1;
                assert_eq!(bit, u64::from(queue.heads[b] != NIL), "bucket {b}'s bit");
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(0x1a_b0_7e);
    let mut queue = BucketQueue::default();
    let mut totals = (0, 0, 0);
    for run in 0..300 {
        let (t0, duration) = (rng.random_range(0.0..500.0), rng.random_range(1.0..3000.0));
        let reach = t0 + duration;
        queue.reset(t0, duration);
        let mut model = Model {
            arrival: vec![f64::INFINITY; 48],
            ..Model::default()
        };
        model.queue(&mut queue, t0, 0);
        if run % 6 == 5 {
            let k = rng.random_range(1..BUCKETS - 1);
            let width = duration / (BUCKETS - 1) as f64;
            for idx in 8..48 {
                let t = t0 + (k as f64 + rng.random_range(0.1..0.9)) * width;
                model.queue(&mut queue, t, idx);
            }
            // The earliest push is the chain's deepest entry.
            model.queue(&mut queue, t0 + 0.5 * width, 8);
        }
        let (mut floor, mut budget, mut stale) = (t0, rng.random_range(1..300usize), 0);
        loop {
            let pushes = rng.random_range(0..4usize).min(budget);
            budget -= pushes;
            for _ in 0..pushes {
                let idx = rng.random_range(0..48u32);
                let ceiling = model.arrival[idx as usize].min(reach);
                if ceiling <= floor {
                    continue; // nothing at or after `floor` improves it
                }
                let t = if rng.random_bool(0.2) {
                    floor
                } else {
                    floor + rng.random::<f64>() * (ceiling - floor)
                };
                if t < model.arrival[idx as usize] {
                    model.queue(&mut queue, t, idx);
                }
            }
            let want = loop {
                match model.reference.pop() {
                    Some((Reverse(Time(t)), idx)) if t != model.arrival[idx as usize] => {}
                    other => break other.map(|(Reverse(Time(t)), idx)| (t, idx)),
                }
            };
            let got = loop {
                match pop(&mut queue) {
                    Some((t, idx)) if t != model.arrival[idx as usize] => stale += 1,
                    other => break other,
                }
            };
            assert_eq!(
                got.map(|(t, i)| (t.to_bits(), i)),
                want.map(|(t, i)| (t.to_bits(), i)),
                "run {run}: the queue left the reference heap's live order"
            );
            match got {
                Some((t, _)) => floor = t,
                None => break,
            }
        }
        assert_eq!(stale, model.expect_stale, "run {run}: stale pops");
        assert_drained(&queue);
        totals = (
            totals.0 + model.unlinked,
            totals.1 + model.deep,
            totals.2 + model.behind,
        );
    }
    let (unlinked, deep, behind) = totals;
    assert!(
        unlinked > 1000 && deep >= 50 && behind > 100,
        "{unlinked} unlinked, {deep} past the walk bound, {behind} at or behind the cursor"
    );
}

/// An `improve` that unlinks a bucket's only entry clears its occupancy
/// bit, so the next refill skips it; one that leaves an entry behind
/// keeps the bit.
#[test]
fn queue_improve_that_empties_a_chain_clears_its_bit() {
    let (t0, duration) = (0.0, 100.0);
    let at = |k| mid_bucket(t0, duration, k);
    let bit = |queue: &BucketQueue, k: usize| queue.occupied[k / 64] >> (k % 64) & 1 == 1;
    let mut queue = BucketQueue::default();
    queue.reset(t0, duration);
    queue.push(t0, 0);
    queue.push(at(100), 1);
    queue.push(at(70), 2);
    queue.push(at(70), 3);
    queue.improve(at(100), at(40), 1);
    assert!(
        !bit(&queue, 100) && queue.heads[100] == NIL,
        "bucket 100 kept"
    );
    assert!(bit(&queue, 40));
    queue.improve(at(70), at(50), 2);
    assert!(bit(&queue, 70), "bucket 70 still holds cell 3");
    queue.improve(at(70), at(60), 3);
    assert!(!bit(&queue, 70) && queue.heads[70] == NIL, "bucket 70 kept");
    assert_eq!(queue.len, 4);
    for want in [(t0, 0), (at(40), 1), (at(50), 2), (at(60), 3)] {
        assert_eq!(pop(&mut queue), Some(want));
    }
    assert_eq!(pop(&mut queue), None);
    assert_drained(&queue);
}

/// Runs the bucket kernel on every corpus case and interval, over 64
/// fresh sampled scenarios from the interval's resolved seeds (one seeded
/// stream across the corpus), and hands `f` the case, the interval and
/// each run's [`Work`].
fn fresh_bucket_runs(mut f: impl FnMut(&str, usize, [Work; 64])) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(0x57a1e);
    for spec in crate::workload::corpus() {
        let w = spec.build();
        let sim = w.sim();
        let lines = w.reference_lines(&sim);
        let mut arena = sim.arena();
        for (interval, (line, span)) in lines.iter().zip(w.times.windows(2)).enumerate() {
            let seeds = sim.seeds(line);
            let (t0, dt) = (span[0], span[1] - span[0]);
            let runs = std::array::from_fn(|_| {
                let s = conformance::scenario(&mut rng);
                sim.simulate_arena_seeded(&s, &seeds, t0, dt, &mut arena, Kernel::Bucket, None);
                std::mem::take(&mut arena.work)
            });
            f(spec.name, interval, runs);
        }
    }
}

/// The bucket kernel pops (nearly) no stale entry: on every corpus case
/// and interval, over 64 fresh sampled scenarios run from the interval's
/// resolved seeds, at most 1 % of its pops find their cell improved —
/// one that queued an improvement beside the old entry popped 5–28 %
/// stale, by case.
#[test]
fn queue_the_bucket_kernel_pops_almost_nothing_stale() {
    fresh_bucket_runs(|name, interval, runs| {
        let (pops, stale) = runs.iter().fold((0, 0), |(pops, stale), w| {
            (pops + w.pops, stale + w.stale_pops)
        });
        assert!(
            stale * 100 <= pops,
            "{name} interval {interval}: {stale} of {pops} pops stale"
        );
    });
}

/// The drain finds its next bucket through the occupancy bitmap, not by
/// walking the empty buckets: on the stale-pop guard's runs, every run
/// reads at most one word per bucket it opens plus one per 64 buckets of
/// the horizon. A drain that walks the bucket heads one by one reads
/// 1 283 heads to open one bucket on `meadow_small` interval 0.
#[test]
fn queue_the_drain_reads_a_word_per_bucket_it_opens() {
    let (mut runs, mut opened) = (0, 0);
    fresh_bucket_runs(|name, interval, works| {
        for work in works {
            let (words, buckets) = (work.occupancy_words_read, work.buckets_opened);
            assert!(
                words <= buckets + (BUCKETS / 64) as u64,
                "{name} interval {interval}: {words} words read to open {buckets} buckets"
            );
            (runs, opened) = (runs + 1, opened + buckets);
        }
    });
    assert!(opened > runs, "{opened} buckets opened in {runs} runs");
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

/// Directional spread rates for one cell under `scenario`, through the
/// [`Terrain`] accessors and the unsplit [`wind_slope_max`] — the
/// independent statement of what a cell's table is, which
/// `FireSim::cell_table_at` is pinned against bit for bit.
fn cell_spread(sim: &FireSim, row: usize, col: usize, scenario: &Scenario) -> SpreadVector {
    let t = sim.terrain();
    let fuel = t.fuel_at(row, col, scenario.model);
    let Some(bed) = sim.beds.get(fuel as usize).filter(|bed| bed.burnable) else {
        return SpreadVector::no_spread();
    };
    let slope_deg = t.slope_at(row, col, scenario.slope_deg);
    let aspect = t.aspect_at(row, col, scenario.aspect_deg);
    let (wind_mph, wind_dir) = t.wind_at(row, col, scenario.wind_speed_mph, scenario.wind_dir_deg);
    let inputs = SpreadInputs {
        wind_fpm: wind_mph * crate::MPH_TO_FPM,
        wind_azimuth: wind_dir,
        slope_steepness: slope_deg.to_radians().tan(),
        aspect_azimuth: aspect,
    };
    wind_slope_max(bed, &scenario.moisture(), &inputs)
}

/// `cell_table_at`, and each direction's rate read off the hoisted
/// `cell_ellipse_at` alone, against the `Terrain`-accessor path, every
/// cell of `sim`, exact bits.
fn assert_tables_match_the_accessor_path(sim: &FireSim, s: &Scenario, what: &str) {
    let base = sim.hoisted_base(s);
    let globals = s.spread_inputs();
    let factors = sim.cell_factors(s, base);
    let cols = sim.terrain.cols();
    for idx in 0..sim.terrain.rows() * cols {
        let built = sim.cell_table_at(idx, s, &globals, &base);
        let oracle = cell_spread(sim, idx / cols, idx % cols, s).compass_ros();
        assert_eq!(
            built.map(f64::to_bits),
            oracle.map(f64::to_bits),
            "{what}: cell {idx} under {s:?}"
        );
        let ellipse = sim.cell_ellipse_at(idx, s, &factors);
        for (dir, ros) in oracle.iter().enumerate() {
            assert_eq!(
                ellipse.ros_at_azimuth(45.0 * dir as f64).to_bits(),
                ros.to_bits(),
                "{what}: cell {idx} direction {dir} off the ellipse under {s:?}"
            );
        }
    }
}

#[test]
fn cell_table_matches_the_terrain_accessor_path() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x7AB1E);
    let mut scenario = || conformance::scenario(&mut rng);
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
        let sim = FireSim::new(conformance::random_terrain(&mut rng, rows, cols, layers));
        for _ in 0..4 {
            assert_tables_match_the_accessor_path(&sim, &scenario(), &format!("{layers:04b}"));
        }
    }
}

/// Every shared table a run of `s` on `sim` builds — the uniform one, or
/// one per code of the fuel layer — against the `Terrain`-accessor path
/// at a cell it serves: the rates exact, each traversal time the per-edge
/// `dist_factor * cell_ft / ros` bit for bit, and `+∞` exactly where
/// `ros ≤ SMIDGEN`. Returns how many uniform and per-fuel tables it
/// checked (none on a per-cell terrain, which shares none).
fn assert_traversal_times_match(sim: &FireSim, s: &Scenario, what: &str) -> (usize, usize) {
    let (cols, cell_ft) = (sim.terrain.cols(), sim.terrain.cell_size_ft());
    let (mut per_fuel, mut factors) = ([FuelTable::default(); 14], None);
    let tables = sim.tables(s, sim.hoisted_base(s), &mut per_fuel, &mut factors);
    // Each table with the first cell it serves.
    let shared: Vec<(usize, &FuelTable)> = match &tables {
        Tables::Uniform(table) => vec![(0, table)],
        Tables::PerFuel(by_code, fuel) => (0..by_code.len())
            .filter_map(|code| {
                let idx = fuel.iter().position(|&f| f as usize == code)?;
                Some((idx, &by_code[code]))
            })
            .collect(),
        Tables::PerCell { .. } => return (0, 0),
    };
    for &(idx, table) in &shared {
        let oracle = cell_spread(sim, idx / cols, idx % cols, s).compass_ros();
        assert_eq!(
            table.ros.map(f64::to_bits),
            oracle.map(f64::to_bits),
            "{what}: rates at cell {idx} under {s:?}"
        );
        for (dir, (&cost, &ros)) in table.cost.iter().zip(&oracle).enumerate() {
            let (_, _, dist_factor) = landscape::NEIGHBOUR_OFFSETS[dir];
            assert_eq!(
                cost.is_infinite(),
                ros <= SMIDGEN,
                "{what}: cell {idx} direction {dir}: cost {cost} at rate {ros}"
            );
            if ros > SMIDGEN {
                assert_eq!(
                    cost.to_bits(),
                    (dist_factor * cell_ft / ros).to_bits(),
                    "{what}: cell {idx} direction {dir} under {s:?}"
                );
            }
        }
    }
    match tables {
        Tables::Uniform(_) => (1, 0),
        _ => (0, shared.len()),
    }
}

#[test]
fn traversal_times_match_the_per_edge_division() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0xC057);
    // Dead fuel far past every model's extinction moisture: nothing
    // spreads, every traversal time is `+∞`.
    let extinguished = Scenario {
        m1_pct: 60.0,
        m10_pct: 60.0,
        m100_pct: 60.0,
        ..Scenario::reference()
    };
    let mut specs = crate::workload::corpus();
    specs.extend(crate::workload::xl_corpus().iter().map(|s| s.shrunk(96)));
    let mut sims: Vec<(String, FireSim)> = specs
        .iter()
        .map(|spec| (spec.name.to_string(), spec.build().sim()))
        .collect();
    // A mosaic holding the unburnable code 0 beside three that burn.
    let mosaic = Grid::from_fn(12, 17, |r, c| [0u8, 1, 4, 10][(r * 5 + c) % 4]);
    let terrain = Terrain::uniform(12, 17, 75.0).with_fuel(mosaic);
    sims.push(("mosaic".into(), FireSim::new(terrain)));
    let (mut uniform, mut per_fuel) = (0, 0);
    for (name, sim) in sims {
        let mut scenarios = vec![extinguished, Scenario::reference()];
        scenarios.extend((0..6).map(|_| conformance::scenario(&mut rng)));
        for s in &scenarios {
            let (u, f) = assert_traversal_times_match(&sim, s, &name);
            (uniform, per_fuel) = (uniform + u, per_fuel + f);
        }
    }
    assert!(
        uniform > 0 && per_fuel > 0,
        "shared tables checked: {uniform} uniform, {per_fuel} per fuel code"
    );
}

/// Lit cells of `lit` with an in-bounds neighbour that is not lit: the
/// most the frontier filter may queue.
fn rim(lit: &FireLine) -> usize {
    let (rows, cols) = (lit.rows() as isize, lit.cols() as isize);
    let unlit_beside = |r: usize, c: usize| {
        landscape::NEIGHBOUR_OFFSETS.iter().any(|&(dr, dc, _)| {
            let (nr, nc) = (r as isize + dr, c as isize + dc);
            (0..rows).contains(&nr)
                && (0..cols).contains(&nc)
                && !lit.is_burned(nr as usize, nc as usize)
        })
    };
    let cells = lit.burned_cells();
    cells.iter().filter(|&&(r, c)| unlit_beside(r, c)).count()
}

#[test]
fn a_run_pays_for_the_cells_it_pops() {
    // gusty_channel (per-cell tables) from its observed line at the
    // start of interval 3: tables are built for popped cells only, each
    // reads a rate only for the open directions it can spread into, and
    // only the line's rim is queued.
    let w = crate::workload::gusty_channel().build();
    let sim = w.sim();
    let lines = w.reference_lines(&sim);
    let (from, t0, dt) = (&lines[2], w.times[2], w.times[3] - w.times[2]);
    let seeds = sim.seeds(from);
    let mut arena = sim.arena();
    sim.simulate_arena_seeded(
        &w.truth[2],
        &seeds,
        t0,
        dt,
        &mut arena,
        Kernel::Bucket,
        None,
    );
    let Work {
        tables_built: built,
        rates_read: rates,
        ..
    } = arena.work();
    let written = arena
        .map()
        .grid()
        .as_slice()
        .iter()
        .filter(|&&t| t != UNIGNITED)
        .count() as u64;
    assert!(
        built > 0 && built <= written,
        "{built} tables for {written} cells"
    );
    // 120 ellipses, 393 rates: a full table would be 960.
    assert_eq!(built, 120, "tables built");
    assert!(
        built <= rates && rates < 8 * built,
        "{rates} rates read off {built} ellipses"
    );
    let (queued, rim) = (seeds.front().len(), rim(from));
    assert!(
        queued <= rim && queued < seeds.cells().len(),
        "{queued} seeds queued of {} lit, {rim} on the rim",
        seeds.cells().len()
    );

    // A line that fills the raster has no rim: nothing is queued, no
    // table is built, and every seed is still written and reported.
    let all = FireLine::from_fn(96, 96, |_, _| true);
    let before = arena.work().tables_built;
    sim.simulate_arena_kernel(&w.truth[2], &all, t0, dt, &mut arena, Kernel::Bucket);
    assert_eq!(arena.work().tables_built, before);
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
        let dt = w.times[1] - w.times[0];
        let mut arena = sim.arena();
        let map = sim.simulate_arena(&w.truth[0], &w.ignition, w.times[0], dt, &mut arena);
        assert!(map.burned_count_at(w.times[1]) > 1, "{name}: no fire");
        assert_eq!(arena.work().tables_built, 0, "{name}");
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
        // A run from the line resolves its seeds into the arena, and counts
        // the reads there.
        let (line, mut arena) = (&lines[interval - 1], sim.arena());
        sim.simulate_arena_kernel(&w.truth[0], line, t0, dt, &mut arena, Kernel::Bucket);
        let reads = std::mem::take(&mut arena.work).front_reads;
        let seeds = sim.seeds(line);
        assert_eq!(arena.line_seeds, seeds, "{}", spec.name);
        assert!(
            !seeds.front().is_empty() && reads >= seeds.cells().len() as u64,
            "{}: resolving {} seeds read {reads} neighbours",
            spec.name,
            seeds.cells().len()
        );
        for (kernel, s) in [Kernel::Bucket, Kernel::tiled_auto(), Kernel::Bucket]
            .into_iter()
            .zip(&w.truth)
        {
            sim.simulate_arena_seeded(s, &seeds, t0, dt, &mut arena, kernel, None);
            let work = std::mem::take(&mut arena.work);
            let what = format!("{} interval {interval}, {kernel}", spec.name);
            assert_eq!(work.front_reads, 0, "{what}");
            assert_eq!(work.seeds_queued, seeds.front().len() as u64, "{what}");
        }
    }
}

/// A tiled run's work is counted in its drain tiles' scratch and added to
/// the arena's by the merge, so it does not depend on how many threads
/// drain. A start line lit on every other row is all front, at least
/// `TILE_INLINE` seeds, so its first epoch forks; from it, on
/// `archipelago_large` (per-fuel tables) and `gusty_channel` (per-cell
/// ellipses), one drain worker and two count the same.
#[test]
fn a_tiled_run_counts_the_same_work_on_one_drain_worker_and_two() {
    use super::tiled::TILE_INLINE;
    for spec in [
        crate::workload::archipelago_large(),
        crate::workload::gusty_channel(),
    ] {
        let w = spec.build();
        let sim = w.sim();
        let (rows, cols) = (sim.terrain.rows(), sim.terrain.cols());
        let seeds = sim.seeds(&FireLine::from_fn(rows, cols, |r, _| r % 2 == 0));
        assert!(seeds.front().len() >= TILE_INLINE, "{}", spec.name);
        let (t0, dt) = (w.times[0], w.times[1] - w.times[0]);
        let [one, two] = [1, 2].map(|workers| {
            let mut arena = sim.arena();
            let kernel = Kernel::Tiled { tile: 32, workers };
            sim.simulate_arena_seeded(&w.truth[0], &seeds, t0, dt, &mut arena, kernel, None);
            arena.work()
        });
        assert_eq!(one, two, "{}", spec.name);
        assert!(one.pops >= one.seeds_queued, "{}: {one:?}", spec.name);
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

#[test]
fn a_run_records_only_the_rows_its_fire_wrote() {
    // A short burn in the middle of a big per-cell terrain whose wind
    // layer has one gale cell in a far corner: the terrain's fastest cell
    // is nowhere near the fire, which stays small — and the record of its
    // writes, the reset and the scratch must follow the fire. What is
    // held is the frontier queue, the index lists and eight bytes a
    // raster row of spans, nothing per cell.
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
    let mut arena = sim.arena();
    let via_arena = sim
        .simulate_arena(&s, &ignition, 0.0, 30.0, &mut arena)
        .clone();
    let burned = via_arena.burned_count_at(30.0);
    assert!(burned > 1 && burned < n * n / 100, "burned {burned} cells");
    let fresh = sim.simulate(&s, &ignition, 0.0, 30.0);
    assert_eq!(fresh, via_arena);
    // The touched rows are exactly the rows holding an arrival.
    let written: Vec<usize> = (0..n)
        .filter(|&r| (0..n).any(|c| via_arena.time(r, c) != UNIGNITED))
        .collect();
    let (first, last) = (written[0], written[written.len() - 1]);
    assert_eq!(written.len(), last - first + 1, "a gap in a convex burn");
    assert!(written.len() < n / 4, "{} rows written", written.len());
    assert_eq!(arena.dirty, Dirty::Spans { first, last });
    let ranges: Vec<_> = arena.written_ranges().collect();
    assert_eq!(ranges.len(), written.len());
    let index_lists = [
        &arena.span_lo,
        &arena.span_hi,
        &arena.line_seeds.cells,
        &arena.line_seeds.front,
    ];
    let index_bytes = index_lists.iter().map(|v| v.capacity() * 4).sum::<usize>();
    assert_eq!(arena.span_lo.capacity() + arena.span_hi.capacity(), 2 * n);
    let scratch = arena.scratch_bytes();
    assert_eq!(scratch, arena.queue.bytes() + index_bytes);
    sim.simulate_arena(&s, &ignition, 0.0, 30.0, &mut arena);
    assert_eq!(
        arena.scratch_bytes(),
        scratch,
        "a second pass moved scratch"
    );
    assert_eq!(arena.dirty, Dirty::Spans { first, last });
    // The next run resets those rows alone: every other row's span is
    // already empty, and after it the raster holds this run's fire only.
    let untouched = |arena: &SimArena, first: usize, last: usize| {
        (0..n)
            .filter(|r| !(first..=last).contains(r))
            .all(|r| (arena.span_lo[r], arena.span_hi[r]) == (u32::MAX, 0))
    };
    assert!(untouched(&arena, first, last));
    let far = FireLine::from_cells(n, n, &[(3, 3)]);
    let map = sim.simulate_arena(&s, &far, 0.0, 30.0, &mut arena).clone();
    assert_eq!(map, sim.simulate(&s, &far, 0.0, 30.0));
    let Dirty::Spans { first, last } = arena.dirty else {
        panic!("a bucket run left {:?}", arena.dirty);
    };
    assert!(last < n / 10, "rows {first}..={last} after a corner burn");
    assert!(untouched(&arena, first, last));
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
    // `fuel_code_mask` says: nothing burns. Uniform
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
        let mut arena = sim.arena();
        sim.simulate_arena(
            &calm_scenario(),
            &centre_ignition(7, 7),
            0.0,
            120.0,
            &mut arena,
        );
        for kernel in [Kernel::Heap, Kernel::Bucket, Kernel::tiled_auto()] {
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
    for kernel in [Kernel::Heap, Kernel::Bucket, Kernel::tiled_auto()] {
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
