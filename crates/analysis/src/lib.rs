//! The static-analysis pipeline behind `harness lint`: the trust layer
//! under the reproduction's determinism and concurrency guarantees.
//!
//! [`lint`] is a hand-rolled, offline, dependency-free source pass. One
//! workspace walk; each file is read and lexed once ([`lex`]) into a
//! per-file record that feeds the item parser ([`parse`]) and the allow
//! ledger; the [`callgraph`] resolver then carries the three graph
//! rules — the [`panics`] panic-path prover walks from declared
//! panic-free roots and demands a justification for every reachable panic
//! site, the [`taint`] pass proves nondeterminism sources (clocks, seeded
//! hashing, thread identity) unreachable from the deterministic crates,
//! and the [`unreached`] pass reports every function no shipped `main`
//! can reach. One escape hatch for all of them, `// lint: allow(<rule>) —
//! <reason>`, resolved through one ledger, and one machine-readable report
//! (`ANALYSIS.json`).
//!
//! What one token decides — a clock read, a raw thread API, `partial_cmp`,
//! a hash container in a deterministic crate — is not this crate's job:
//! clippy's `disallowed-methods` / `disallowed-types` ban it per crate
//! (`clippy.toml`), and `#[expect(clippy::disallowed_methods, reason =
//! "…")]` is its escape. Nor is the layer map: rustc refuses a `use` of a
//! crate the manifest does not list, so the map is held where it is
//! declared. [`layering::CRATES`] ranks every crate, and
//! `tests/clippy_bans.rs` holds each crate's `clippy.toml` to its row of
//! the ban matrix and its `Cargo.toml` `[dependencies]` to its rank.
//!
//! The crate's tests (`src/tests/`, which the pass itself skips) also
//! hold the dynamic drivers `cargo test` runs: bounded model checking of
//! the steal pool and the fusion lane guard, a conformance replay of
//! generated request scripts through the real serve loop, seeded fuzzing
//! of the JSON parser, the protocol envelopes and the serve loop, and an
//! extreme-scenario sweep of the spread-rate bound.
//!
//! Everything here is deterministic: same sources, same seeds, same
//! findings — a CI failure is a local repro by construction.

pub mod callgraph;
pub mod layering;
pub mod lex;
pub mod lint;
pub mod panics;
pub mod parse;
pub mod taint;
pub mod unreached;

#[cfg(test)]
mod tests;
