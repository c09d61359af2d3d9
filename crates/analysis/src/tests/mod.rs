//! The dynamic drivers, as test code: `cargo test -p ess-analysis` runs
//! each at a fixed budget and seed, and `harness lint` skips this
//! directory like every other `tests` directory.

mod fuzz;
mod hostile;
mod protocol;
mod schedule;

/// The seed the seeded drivers derive their streams from, each salted
/// with its own constant.
const SEED: u64 = 0x2022_1995;
