//! The crate table: the README layer map, and the scopes the rules read.
//!
//! [`CRATES`] is the one place that says what each workspace crate is:
//! its directory, its lib identifier, its rank in the layer map and the
//! [`Scope`] the rules read (deterministic, availability boundary,
//! application). A dependency is legal only when it points at a
//! *strictly lower* rank; same-rank crates are peers and may not depend
//! on each other. The map is checked where it is declared: the
//! `[dependencies]` of every row's `Cargo.toml`, by
//! `tests/clippy_bans.rs`. A source edge needs no check of its own, since
//! outside test code rustc refuses a `use` or path of a crate the manifest
//! does not list. Which crate may own threads or read the clock is
//! clippy's to enforce (`clippy.toml`).

/// What the rules need to know about the crate a file belongs to. Files
/// outside the table get the default: no call graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scope {
    /// Results must be bit-reproducible: no nondeterminism source may be
    /// reachable from here (and the crate's `clippy.toml` bans hash
    /// containers).
    pub deterministic: bool,
    /// The serve availability boundary, where a panic kills the serve
    /// loop: asserts and indexing count as panic seeds.
    pub boundary: bool,
    /// A program on top of the workspace (`examples/`, `benchmark/src`,
    /// the root facade): parsed for call edges only, so its `main` roots
    /// the reachability walk. Its directives are not read, and no rule
    /// reports a finding in it.
    pub app: bool,
}

/// One workspace crate.
#[derive(Debug, Clone, Copy)]
pub struct CrateInfo {
    /// Workspace-relative source directory (`vendor/` is never scanned;
    /// `rand` is here for its rank).
    pub dir: &'static str,
    /// Lib identifier (underscored), matching both manifest names (after
    /// `-` → `_`) and `use` roots.
    pub lib: &'static str,
    /// Rank in the declared layer map, lowest first.
    pub rank: u32,
    /// Which rule sets apply.
    pub scope: Scope,
}

const PLAIN: Scope = Scope {
    deterministic: false,
    boundary: false,
    app: false,
};
const APP: Scope = Scope { app: true, ..PLAIN };
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
    krate("src", FACADE, 8, APP),
    krate("examples", "examples", 8, APP),
    krate("benchmark/src", "benchmark", 8, APP),
];

/// The root package: it re-exports every workspace crate under the
/// crate's own name, so `essns_repro::ess::x` is `ess::x`.
pub const FACADE: &str = "essns_repro";

fn crate_named(lib: &str) -> Option<&'static CrateInfo> {
    CRATES.iter().find(|c| c.lib == lib)
}

/// Rank of a crate in the declared map, by lib identifier.
pub fn rank_of(lib: &str) -> Option<u32> {
    crate_named(lib).map(|c| c.rank)
}

/// Scope of a crate, by lib identifier (the default outside the table).
pub fn scope_of(lib: &str) -> Scope {
    crate_named(lib).map(|c| c.scope).unwrap_or_default()
}

/// True when `from` may depend on `to`: strictly downward in the map.
pub fn edge_allowed(from: &str, to: &str) -> bool {
    match (rank_of(from), rank_of(to)) {
        (Some(f), Some(t)) => t < f,
        _ => false,
    }
}

/// Maps a workspace-relative source path to its crate's table row.
pub fn crate_of_path(rel: &str) -> Option<&'static CrateInfo> {
    CRATES.iter().find(|c| {
        rel.strip_prefix(c.dir)
            .is_some_and(|rest| rest.starts_with('/'))
    })
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
            ("ess_analysis", "ess_service"),
            ("ess_benches", "ess_analysis"),
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

    #[test]
    fn crate_paths_and_scopes() {
        let lib = |path| crate_of_path(path).map(|c| c.lib);
        assert_eq!(lib("crates/core/src/algorithm.rs"), Some("ess_ns"));
        assert_eq!(lib("crates/firelib/src/sim.rs"), Some("firelib"));
        assert_eq!(lib("benchmark/src/clock.rs"), Some("benchmark"));
        assert_eq!(lib("examples/quickstart.rs"), Some("examples"));
        assert_eq!(lib("src/lib.rs"), Some(FACADE));
        assert_eq!(lib("crates/firelib/tests/properties.rs"), Some("firelib"));
        assert_eq!(lib("scripts/x.rs"), None);
        let scope = |path| crate_of_path(path).map(|c| c.scope).unwrap_or_default();
        assert!(scope("crates/firelib/src/sim.rs").deterministic);
        assert!(!scope("crates/service/src/serve.rs").deterministic);
        assert!(scope("crates/service/src/serve.rs").boundary);
        // Edges only: no other flag.
        assert_eq!(
            scope("examples/quickstart.rs"),
            Scope {
                app: true,
                ..Scope::default()
            }
        );
    }
}
