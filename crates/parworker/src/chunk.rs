//! Scoped, self-scheduling parallel mutation of a slice — the
//! borrowed-data counterpart of [`crate::StealPool`].
//!
//! The persistent pools fix their work function (and its `'static` captured
//! state) at spawn time, which is the right shape for scenario evaluation:
//! the simulator lives as long as the pool. The tiled fire kernel is
//! different — its tiles borrow one arena for the duration of a sweep.
//! [`scoped_for_each_mut`] covers that case: scoped threads, so `f` may
//! borrow from the caller, with the same dynamic scheduling discipline as
//! the steal pool — workers pull the next contiguous chunk of items from a
//! shared bag, so an irregular cost profile cannot leave threads idle the
//! way a static split would.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Scoped, self-scheduling parallel mutation of a slice of work items,
/// added for per-tile simulation state: each item owns mutable scratch (a
/// tile's frontier queue, its outbox) that exactly one worker may touch at
/// a time. Items are handed out dynamically in
/// contiguous chunks from a shared bag (same discipline as the steal
/// pool), `f` receives `(item_index, &mut item)`, and with one worker — or
/// a single chunk — everything runs inline in the caller with no thread
/// spawned.
///
/// There is no result vector: the mutations *are* the output. For a
/// pure-per-item `f` the final slice state is
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
