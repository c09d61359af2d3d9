//! The crate table: the README layer map, and the scopes the config
//! files are held to.
//!
//! [`CRATES`] is the one place that says what each workspace crate is:
//! its directory, its lib identifier, its rank in the layer map and its
//! [`Scope`]. A dependency is legal only when it points at a *strictly
//! lower* rank; same-rank crates are peers and may not depend on each
//! other. The map is checked where it is declared: the `[dependencies]`
//! of every row's `Cargo.toml`, by `tests/clippy_bans.rs`. A source edge
//! needs no check of its own, since outside test code rustc refuses a
//! `use` or path of a crate the manifest does not list. What a crate may
//! call — clocks, threads, hash containers, panics — is clippy's to
//! enforce (`clippy.toml` and `[workspace.lints.clippy]`), and the same
//! test holds each crate's `clippy.toml` to its scope.

/// What the config files of a crate must say about it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scope {
    /// Results must be bit-reproducible: the crate's `clippy.toml` bans
    /// hash containers, and every crate it links bans the nondeterminism
    /// sources.
    pub deterministic: bool,
    /// The serve availability boundary, where a panic kills the serve
    /// loop: its `clippy.toml` also bans the `assert` family, and its lib
    /// root denies `indexing_slicing`.
    pub boundary: bool,
}

/// One workspace crate.
#[derive(Debug, Clone, Copy)]
pub struct CrateInfo {
    /// Workspace-relative source directory.
    pub dir: &'static str,
    /// Lib identifier (underscored), matching both manifest names (after
    /// `-` → `_`) and `use` roots.
    pub lib: &'static str,
    /// Rank in the declared layer map, lowest first.
    pub rank: u32,
    /// What its config files must say.
    pub scope: Scope,
}

const PLAIN: Scope = Scope {
    deterministic: false,
    boundary: false,
};
const DETERMINISTIC: Scope = Scope {
    deterministic: true,
    ..PLAIN
};
const BOUNDARY: Scope = Scope {
    boundary: true,
    ..PLAIN
};
const DETERMINISTIC_BOUNDARY: Scope = Scope {
    boundary: true,
    ..DETERMINISTIC
};

const fn krate(dir: &'static str, lib: &'static str, rank: u32, scope: Scope) -> CrateInfo {
    CrateInfo {
        dir,
        lib,
        rank,
        scope,
    }
}

/// The crate table, lowest layer first.
pub const CRATES: &[CrateInfo] = &[
    krate("vendor/rand", "rand", 0, PLAIN),
    krate("crates/parworker", "parworker", 1, PLAIN),
    krate("crates/landscape", "landscape", 1, PLAIN),
    krate("crates/evoalg", "evoalg", 2, DETERMINISTIC),
    krate("crates/firelib", "firelib", 2, DETERMINISTIC),
    krate("crates/ess", "ess", 3, DETERMINISTIC),
    krate("crates/core", "ess_ns", 4, DETERMINISTIC_BOUNDARY),
    krate("crates/service", "ess_service", 5, BOUNDARY),
    krate("crates/client", "ess_client", 6, BOUNDARY),
    krate("crates/analysis", "ess_analysis", 6, PLAIN),
    krate("crates/bench", "ess_benches", 7, PLAIN),
    krate("src", "essns_repro", 8, PLAIN),
    krate("examples", "examples", 8, PLAIN),
    krate("benchmark/src", "benchmark", 8, PLAIN),
];

/// Rank of a crate in the declared map, by lib identifier.
pub fn rank_of(lib: &str) -> Option<u32> {
    CRATES.iter().find(|c| c.lib == lib).map(|c| c.rank)
}

/// True when `from` may depend on `to`: strictly downward in the map.
pub fn edge_allowed(from: &str, to: &str) -> bool {
    match (rank_of(from), rank_of(to)) {
        (Some(f), Some(t)) => t < f,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_a_dag_over_the_real_workspace_edges() {
        // The manifest edges the workspace actually has, spot-checked.
        for (from, to) in [
            ("landscape", "rand"),
            ("firelib", "landscape"),
            ("ess", "firelib"),
            ("ess_ns", "ess"),
            ("ess_service", "ess_ns"),
            ("ess_client", "ess_service"),
            ("ess_benches", "ess_service"),
        ] {
            assert!(edge_allowed(from, to), "{from} -> {to} should be legal");
        }
        for (from, to) in [
            ("firelib", "ess"),
            ("parworker", "landscape"), // peers
            ("ess_client", "ess_analysis"),
            ("landscape", "firelib"),
        ] {
            assert!(!edge_allowed(from, to), "{from} -> {to} should be denied");
        }
    }
}
