//! Correctness tooling for the workspace: the trust layer under the
//! reproduction's determinism and concurrency guarantees.
//!
//! Three prongs, surfaced through `harness lint` and
//! `harness verify-invariants`:
//!
//! - [`lint`] — the static-analysis pipeline behind `harness lint`: a
//!   hand-rolled, offline, dependency-free source pass. One workspace
//!   walk; each file is read and lexed once ([`lex`]) into a per-file
//!   record that feeds both the five token rules (total float
//!   comparisons, no hash-order iteration in deterministic crates, no
//!   wall-clock reads outside bench timing, no thread spawns outside
//!   `parworker`, no allocation inside `// lint: no_alloc` fenced hot
//!   paths) and the item parser ([`parse`]); the [`callgraph`] resolver
//!   then carries the four graph rules — the [`panics`] panic-path
//!   prover walks from declared panic-free roots and demands a
//!   justification for every reachable panic site, the [`layering`] pass
//!   machine-checks the README layer map as a DAG over manifest and `use`
//!   edges (plus `std::thread` ownership), the [`taint`] pass proves
//!   nondeterminism sources (clocks, seeded hashing, thread identity)
//!   unreachable from the deterministic crates, and the [`unreached`]
//!   pass reports every function no shipped `main` can reach. One escape
//!   hatch for all of them, `// lint: allow(<rule>) — <reason>`, resolved
//!   through one ledger, and one machine-readable report
//!   (`ANALYSIS.json`).
//! - [`schedule`] and [`protocol`] — bounded model checking: a loom-style
//!   explorer enumerating every interleaving of small op scripts against
//!   models of the steal pool and the fusion lane guard, plus an
//!   exhaustive depth-bounded walk of the v2 session lifecycle and a
//!   conformance replay of generated request scripts through the real
//!   serve loop.
//! - [`fuzz`] and [`invariants`] — adversarial input hardening: seeded
//!   structured-mutation fuzzing of the strict JSON parser, the protocol
//!   envelopes and the serve loop, and randomized-landscape drivers for
//!   the fire kernels (finite non-negative rates, in-horizon arrivals
//!   under arena reuse; kernel bit-identity is firelib's conformance
//!   matrix) and for the two raster
//!   shortcuts of the serve path (bucketed Voronoi ≡ all-sites scan,
//!   span-bounded fitness ≡ full-raster Jaccard).
//!
//! Everything here is deterministic: same seeds, same schedules, same
//! findings — a CI failure is a local repro by construction.

pub mod callgraph;
pub mod fuzz;
pub mod invariants;
pub mod layering;
pub mod lex;
pub mod lint;
pub mod panics;
pub mod parse;
pub mod protocol;
pub mod schedule;
pub mod taint;
pub mod unreached;

use ess_service::jsonio::Json;

/// Aggregate outcome of one `verify-invariants` run, rendered into
/// `reports/INVARIANTS.json`.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Concurrency scenarios explored (name, schedules, steps).
    pub concurrency: Vec<schedule::ModelRun>,
    /// Protocol walk counters.
    pub walk: protocol::WalkStats,
    /// Serve conformance replay counters.
    pub replay: protocol::ReplayStats,
    /// jsonio fuzz counters.
    pub jsonio: fuzz::FuzzStats,
    /// Envelope fuzz counters.
    pub envelopes: fuzz::FuzzStats,
    /// Serve-loop fuzz counters.
    pub serve: fuzz::FuzzStats,
    /// Random-landscape driver counters.
    pub firelib: invariants::FirelibStats,
    /// Extreme-scenario sweep counters.
    pub hostile: invariants::FirelibStats,
    /// Raster-shortcut differential counters.
    pub shortcuts: invariants::ShortcutStats,
}

impl VerifyReport {
    /// Machine-readable rendering for the reports directory.
    pub fn to_json(&self) -> Json {
        let scenarios = self
            .concurrency
            .iter()
            .map(|r| {
                Json::obj()
                    .field("scenario", r.name)
                    .field("schedules", r.stats.schedules)
                    .field("steps", r.stats.steps)
            })
            .collect::<Vec<_>>();
        Json::obj()
            .field("tool", "harness verify-invariants")
            .field("concurrency", Json::Arr(scenarios))
            .field(
                "protocol_walk",
                Json::obj()
                    .field("depth", self.walk.depth)
                    .field("sequences", self.walk.sequences)
                    .field("states", self.walk.states),
            )
            .field(
                "conformance_replay",
                Json::obj()
                    .field("scripts", self.replay.scripts)
                    .field("requests", self.replay.requests)
                    .field("frames", self.replay.frames),
            )
            .field(
                "fuzz",
                Json::obj()
                    .field("jsonio_inputs", self.jsonio.inputs)
                    .field("jsonio_accepted", self.jsonio.accepted)
                    .field("envelope_inputs", self.envelopes.inputs)
                    .field("serve_lines", self.serve.inputs),
            )
            .field(
                "firelib",
                Json::obj()
                    .field("terrains", self.firelib.terrains)
                    .field("cells", self.firelib.cells)
                    .field("hostile_samples", self.hostile.ros_samples),
            )
            .field(
                "raster_shortcuts",
                Json::obj()
                    .field("mosaics", self.shortcuts.mosaics)
                    .field("mosaic_cells", self.shortcuts.mosaic_cells)
                    .field("fitness_evals", self.shortcuts.fitness_evals),
            )
    }
}

/// Effort knobs for one verification run.
#[derive(Debug, Clone, Copy)]
pub struct VerifyBudget {
    /// Protocol walk depth (exhaustive).
    pub walk_depth: usize,
    /// Sampled depth-4 conformance scripts on top of the exhaustive ≤2 set.
    pub replay_sampled: usize,
    /// jsonio fuzz inputs.
    pub jsonio_inputs: u64,
    /// Envelope fuzz inputs.
    pub envelope_inputs: u64,
    /// Hostile serve-loop lines.
    pub serve_lines: u64,
    /// Random landscapes.
    pub terrains: u64,
    /// Extreme-scenario samples.
    pub hostile_samples: u64,
    /// Raster-shortcut differential rounds (one mosaic and one landscape
    /// each).
    pub shortcut_rounds: u64,
}

impl VerifyBudget {
    /// The CI budget: bounded depth, capped fuzz, still exhaustive where
    /// the acceptance bar demands it (walk depth 6, all small schedules).
    pub fn quick() -> Self {
        VerifyBudget {
            walk_depth: 6,
            replay_sampled: 8,
            jsonio_inputs: 20_000,
            envelope_inputs: 10_000,
            serve_lines: 400,
            terrains: 8,
            hostile_samples: 845,
            shortcut_rounds: 24,
        }
    }

    /// The full budget (`harness verify-invariants` without `--quick`).
    pub fn full() -> Self {
        VerifyBudget {
            walk_depth: 7,
            replay_sampled: 32,
            jsonio_inputs: 120_000,
            envelope_inputs: 40_000,
            serve_lines: 1_000,
            terrains: 24,
            hostile_samples: 1_690,
            shortcut_rounds: 96,
        }
    }
}

/// Runs the whole verification suite under `budget` with a fixed fuzz
/// seed.
///
/// # Errors
/// The first violation any prong finds, as a printable description.
pub fn verify_all(seed: u64, budget: VerifyBudget) -> Result<VerifyReport, String> {
    let mut report = VerifyReport {
        concurrency: schedule::verify_concurrency().map_err(|v| v.to_string())?,
        ..VerifyReport::default()
    };
    report.walk = protocol::walk_protocol(budget.walk_depth)?;
    report.replay = protocol::replay_conformance(budget.replay_sampled)?;
    report.jsonio = fuzz::fuzz_jsonio(seed, budget.jsonio_inputs)?;
    report.envelopes = fuzz::fuzz_envelopes(seed ^ 0x1111, budget.envelope_inputs)?;
    report.serve = fuzz::fuzz_serve_loop(seed ^ 0x2222, budget.serve_lines)?;
    report.firelib = invariants::verify_firelib(seed ^ 0x3333, budget.terrains)?;
    report.hostile = invariants::hostile_ros_sweep(seed ^ 0x4444, budget.hostile_samples)?;
    report.shortcuts = invariants::verify_raster_shortcuts(seed ^ 0x5555, budget.shortcut_rounds)?;
    Ok(report)
}
