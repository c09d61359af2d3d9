//! Scoped, self-scheduling chunk map — the borrowed-data counterpart of
//! [`crate::StealPool`].
//!
//! The persistent pools fix their work function (and its `'static` captured
//! state) at spawn time, which is the right shape for scenario evaluation:
//! the simulator lives as long as the pool. A one-off fan-out is
//! different — the ensemble forecast of `ess::ensemble` (the one caller)
//! runs its replicates over a workload it only borrows for the duration of
//! the call. [`scoped_chunk_map`] covers that case: scoped threads, so `f`
//! may borrow from the caller, with the same dynamic scheduling discipline
//! as the steal pool — workers pull the next contiguous chunk of indices
//! from a shared counter, so an irregular cost profile (replicates whose
//! fires grow larger) cannot leave threads idle the way a static split
//! would.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `0..items`, returning results in index order. Chunks of
/// `chunk_size` consecutive indices are handed out dynamically to at most
/// `workers` scoped threads (self-scheduling, like [`crate::StealPool`]);
/// with one worker — or when a single chunk covers everything — the map
/// runs inline in the caller with no thread spawned at all.
///
/// The result is identical to `(0..items).map(f).collect()` for a pure
/// `f`, whatever the worker count: parallelism changes wall time only.
///
/// # Panics
/// Panics when `workers == 0` or `chunk_size == 0`, and re-raises a panic
/// from `f` (scoped threads propagate on join).
pub fn scoped_chunk_map<R, F>(workers: usize, items: usize, chunk_size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    scoped_chunk_map_ranges(workers, items, chunk_size, |range| range.map(&f).collect())
}

/// The chunk-granular form of [`scoped_chunk_map`]: `f` receives a whole
/// index range and returns its results in range order, so per-chunk
/// scratch state (a distance buffer, a simulator arena) is built once per
/// chunk instead of once per item. Every range is non-empty, ranges cover
/// `0..items` exactly once, and the concatenated result preserves index
/// order.
///
/// # Panics
/// Panics when `workers == 0`, `chunk_size == 0`, or `f` returns a result
/// batch whose length differs from its range; re-raises a panic from `f`.
fn scoped_chunk_map_ranges<R, F>(workers: usize, items: usize, chunk_size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> Vec<R> + Sync,
{
    assert!(workers > 0, "scoped_chunk_map needs at least one worker");
    assert!(chunk_size > 0, "chunk size must be positive");
    if items == 0 {
        return Vec::new();
    }
    let run = |range: Range<usize>| -> Vec<R> {
        let len = range.len();
        let out = f(range);
        assert_eq!(out.len(), len, "chunk work returned a wrong batch size");
        out
    };
    if workers == 1 || items <= chunk_size {
        return run(0..items);
    }
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let threads = workers.min(items.div_ceil(chunk_size));
    std::thread::scope(|scope| {
        let (run, next, abort, parts, panic_slot) = (&run, &next, &abort, &parts, &panic_slot);
        for _ in 0..threads {
            scope.spawn(move || {
                let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                loop {
                    // Steal the next chunk (monotone counter = shared bag).
                    let start = next.fetch_add(chunk_size, Ordering::Relaxed);
                    if start >= items || abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let end = (start + chunk_size).min(items);
                    // Catch panics so the caller re-raises the original
                    // payload (std scope would replace it with a generic
                    // "a scoped thread panicked").
                    match catch_unwind(AssertUnwindSafe(|| run(start..end))) {
                        Ok(part) => local.push((start, part)),
                        Err(payload) => {
                            abort.store(true, Ordering::Relaxed);
                            panic_slot
                                .lock()
                                .expect("chunk map poisoned")
                                .get_or_insert(payload);
                            break;
                        }
                    }
                }
                parts.lock().expect("chunk map poisoned").extend(local);
            });
        }
    });
    if let Some(payload) = panic_slot.into_inner().expect("chunk map poisoned") {
        resume_unwind(payload);
    }
    let mut parts = parts.into_inner().expect("chunk map poisoned");
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(items);
    for (_, mut part) in parts {
        out.append(&mut part);
    }
    debug_assert_eq!(out.len(), items, "chunk map lost results");
    out
}

/// Scoped, self-scheduling parallel mutation of a slice of work items —
/// the *stateful* counterpart of [`scoped_chunk_map`], added for per-tile
/// simulation state: each item owns mutable scratch (a tile's frontier
/// queue, its outbox, its gather buffers) that exactly one worker may
/// touch at a time. Items are handed out dynamically in contiguous chunks
/// from a shared bag (same discipline as the steal pool), `f` receives
/// `(item_index, &mut item)`, and with one worker — or a single chunk —
/// everything runs inline in the caller with no thread spawned.
///
/// Unlike [`scoped_chunk_map`] there is no result vector: the mutations
/// *are* the output. For a pure-per-item `f` the final slice state is
/// identical to the serial `for (i, item) in items.iter_mut().enumerate()
/// { f(i, item) }` loop, whatever the worker count.
///
/// # Panics
/// Panics when `workers == 0` or `chunk_size == 0`, and re-raises a panic
/// from `f` (first payload wins; remaining workers stop at the next chunk
/// boundary).
// lint: allow(panic) — bag/slot poisoning only follows a worker panic; re-raising the first payload is the documented contract
pub fn scoped_for_each_mut<T, F>(workers: usize, items: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    assert!(workers > 0, "scoped_for_each_mut needs at least one worker");
    assert!(chunk_size > 0, "chunk size must be positive");
    let n = items.len();
    if n == 0 {
        return;
    }
    if workers == 1 || n <= chunk_size {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    // A bag of disjoint `&mut` chunks: safe shared-out mutability — each
    // chunk is popped by exactly one worker, so no item is ever aliased.
    let bag: Mutex<Vec<(usize, &mut [T])>> = Mutex::new(
        items
            .chunks_mut(chunk_size)
            .enumerate()
            .map(|(ci, chunk)| (ci * chunk_size, chunk))
            .collect(),
    );
    let abort = AtomicBool::new(false);
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let threads = workers.min(n.div_ceil(chunk_size));
    std::thread::scope(|scope| {
        let (f, bag, abort, panic_slot) = (&f, &bag, &abort, &panic_slot);
        for _ in 0..threads {
            scope.spawn(move || loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let Some((start, chunk)) = bag.lock().expect("for-each bag poisoned").pop() else {
                    break;
                };
                let run = || {
                    for (j, item) in chunk.iter_mut().enumerate() {
                        f(start + j, item);
                    }
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
                    abort.store(true, Ordering::Relaxed);
                    panic_slot
                        .lock()
                        .expect("for-each poisoned")
                        .get_or_insert(payload);
                    break;
                }
            });
        }
    });
    if let Some(payload) = panic_slot.into_inner().expect("for-each poisoned") {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_for_all_worker_and_chunk_sizes() {
        let expected: Vec<u64> = (0..97).map(|i| (i * i) as u64).collect();
        for workers in [1, 2, 3, 8] {
            for chunk in [1, 7, 32, 97, 200] {
                assert_eq!(
                    scoped_chunk_map(workers, 97, chunk, |i| (i * i) as u64),
                    expected,
                    "workers={workers} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn borrows_caller_state() {
        let reference: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let out = scoped_chunk_map(3, reference.len(), 8, |i| reference[i] * 2.0);
        assert_eq!(out, (0..50).map(|i| i as f64 * 2.0).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(scoped_chunk_map(4, 0, 16, |i| i).is_empty());
        assert_eq!(scoped_chunk_map(4, 1, 16, |i| i), vec![0]);
    }

    #[test]
    fn irregular_tasks_complete_in_order() {
        let out = scoped_chunk_map(2, 40, 4, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i
        });
        assert_eq!(out, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn range_form_reuses_per_chunk_scratch() {
        // The range form exists so per-chunk scratch is built once per
        // chunk; results must still be index-ordered and serial-identical.
        let expected: Vec<usize> = (0..61).map(|i| i + 7).collect();
        for workers in [1, 3] {
            let out = scoped_chunk_map_ranges(workers, 61, 8, |range| {
                let scratch = 7usize; // stand-in for a per-chunk buffer
                range.map(|i| i + scratch).collect()
            });
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "wrong batch size")]
    fn short_chunk_batch_rejected() {
        let _ = scoped_chunk_map_ranges(2, 64, 4, |_range| vec![0u8]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = scoped_chunk_map(0, 4, 1, |i| i);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = scoped_chunk_map(2, 4, 0, |i| i);
    }

    #[test]
    #[should_panic(expected = "chunk exploded")]
    fn worker_panic_propagates() {
        let _ = scoped_chunk_map(2, 64, 4, |i| {
            assert!(i != 33, "chunk exploded");
            i
        });
    }

    #[test]
    fn for_each_mut_matches_serial_for_all_worker_and_chunk_sizes() {
        let expected: Vec<u64> = (0..97).map(|i| (i * 3 + 5) as u64).collect();
        for workers in [1, 2, 3, 8] {
            for chunk in [1, 7, 32, 97, 200] {
                let mut items: Vec<u64> = (0..97).map(|i| i as u64).collect();
                scoped_for_each_mut(workers, &mut items, chunk, |i, v| {
                    assert_eq!(*v, i as u64, "item handed to the wrong index");
                    *v = *v * 3 + 5;
                });
                assert_eq!(items, expected, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn for_each_mut_empty_and_tiny() {
        let mut empty: Vec<u8> = Vec::new();
        scoped_for_each_mut(4, &mut empty, 8, |_, _| unreachable!());
        let mut one = vec![1u8];
        scoped_for_each_mut(4, &mut one, 8, |_, v| *v += 1);
        assert_eq!(one, vec![2]);
    }

    #[test]
    fn for_each_mut_items_own_heap_state() {
        // The per-tile use case in miniature: each item owns growable
        // scratch only its worker touches.
        let mut tiles: Vec<Vec<usize>> = vec![Vec::new(); 23];
        scoped_for_each_mut(3, &mut tiles, 2, |i, tile| {
            tile.extend(0..=i);
        });
        for (i, tile) in tiles.iter().enumerate() {
            assert_eq!(tile.len(), i + 1, "tile {i}");
        }
    }

    #[test]
    #[should_panic(expected = "tile exploded")]
    fn for_each_mut_panic_propagates() {
        let mut items: Vec<usize> = (0..64).collect();
        scoped_for_each_mut(2, &mut items, 4, |i, _| {
            assert!(i != 33, "tile exploded");
        });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn for_each_mut_zero_workers_rejected() {
        scoped_for_each_mut(0, &mut [1], 1, |_, _: &mut i32| {});
    }
}
