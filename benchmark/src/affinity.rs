//! Pinning the process to one core, for the workloads whose evaluation
//! never leaves the serve thread.
//!
//! Their client and serve threads take turns, so they need one core
//! between them; left free, the kernel bounces them across cores and the
//! blocked pipe reader spins beside the worker (20–30 % more wall on the
//! reference box, and the calibrated clock's reference slice would run on
//! a core the work did not). Threads spawned after the call inherit it.

#[cfg(target_os = "linux")]
mod sys {
    // The C library `std` already links; a 1024-bit `cpu_set_t`.
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to the lowest core it is allowed on. Returns that core; `None` where
/// the call is unavailable or refused (the run then goes on unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> Option<usize> {
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: the kernel writes at most `bytes` bytes into `allowed`.
    if unsafe { sys::sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let core = allowed
        .iter()
        .enumerate()
        .find_map(|(i, word)| (*word != 0).then(|| i * 64 + word.trailing_zeros() as usize))?;
    let mut one = [0u64; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: the kernel reads `bytes` bytes from `one`.
    (unsafe { sys::sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(core)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() -> Option<usize> {
    None
}
