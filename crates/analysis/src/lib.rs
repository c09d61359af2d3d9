//! Correctness tooling that is not a compiler pass: the crate table the
//! config files are held to, and the dynamic drivers `cargo test` runs.
//!
//! What the compiler can state, it states. Clippy fails the build on a
//! clock read, a raw thread API, `partial_cmp`, a hash container in a
//! deterministic crate (`clippy.toml`, one per crate whose row differs),
//! and on an `unwrap`, `expect`, `panic!` or `unreachable!` in product
//! code (`[workspace.lints.clippy]`); the boundary crates also refuse the
//! `assert` family and unchecked indexing. Each escape is a reasoned
//! `#[expect(clippy::…, reason = "…")]`. rustc refuses a `use` of a crate
//! the manifest does not list, so the layer map is held where it is
//! declared. [`layering::CRATES`] ranks every crate, and
//! `tests/clippy_bans.rs` holds each crate's `clippy.toml` to its row of
//! the ban matrix, its `Cargo.toml` to its rank and to the workspace
//! lints, and every crate a deterministic crate links to the
//! nondeterminism bans.
//!
//! The crate's tests (`src/tests/`) hold the dynamic drivers: bounded
//! model checking of the steal pool and the fusion lane guard, a
//! conformance replay of generated request scripts through the real serve
//! loop, seeded fuzzing of the JSON parser, the protocol envelopes and the
//! serve loop, and an extreme-scenario sweep of the spread math.
//!
//! Everything here is deterministic: same sources, same seeds, same
//! findings — a CI failure is a local repro by construction.

pub mod layering;

#[cfg(test)]
mod tests;
