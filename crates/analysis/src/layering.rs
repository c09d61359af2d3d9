//! The crate table and the machine-checked layering pass: the README
//! layer map as an asserted DAG.
//!
//! [`CRATES`] is the one place that says what each workspace crate is:
//! its directory, its lib identifier, its rank in the layer map and the
//! [`Scope`] the rules read (deterministic, availability boundary,
//! application). A dependency edge (Cargo manifest `[dependencies]`, a
//! cross-crate `use`, or an inline `other_crate::` qualification) is legal
//! only when it points at a *strictly lower* rank. Same-rank crates are
//! peers and may not depend on each other. Which crate may own threads or
//! read the clock is clippy's to enforce (`clippy.toml`), not this pass's.

use crate::lint::{Finding, Ledger, LAYER};
use crate::parse::ParsedFile;

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

/// One crate manifest's `[dependencies]` entries.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Manifest path, workspace-relative.
    pub file: String,
    /// Owning crate's lib identifier.
    pub krate: String,
    /// Dependency lib identifiers with their manifest lines.
    pub deps: Vec<(String, usize)>,
}

/// Parses the `[package] name` and `[dependencies]` entries out of one
/// crate manifest. `[dev-dependencies]` are test-only and exempt, like
/// `#[cfg(test)]` code.
pub fn parse_manifest(file: &str, text: &str) -> Option<Manifest> {
    let mut krate = None;
    let mut deps = Vec::new();
    let mut section = "";
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if section == "[package]" {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start_matches([' ', '=', '"']);
                let name = rest.trim_end_matches('"');
                krate = Some(name.replace('-', "_"));
            }
        }
        if section == "[dependencies]" && !line.is_empty() && !line.starts_with('#') {
            let name: String = line
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_'))
                .collect();
            if !name.is_empty() {
                deps.push((name.replace('-', "_"), idx + 1));
            }
        }
    }
    Some(Manifest {
        file: file.to_string(),
        krate: krate?,
        deps,
    })
}

/// Checks every manifest and source edge against the declared DAG.
/// Manifest findings are never allowed: a manifest has no comment syntax
/// the ledger reads.
pub fn check(
    files: &[ParsedFile],
    manifests: &[Manifest],
    ledger: &mut Ledger,
    out: &mut Vec<Finding>,
) {
    for m in manifests {
        for (dep, line) in &m.deps {
            let message = if rank_of(dep).is_none() {
                format!(
                    "dependency `{dep}` is not in the declared layer map — add it to CRATES or \
                     remove it"
                )
            } else if !edge_allowed(&m.krate, dep) {
                format!(
                    "`{}` depends on `{dep}`, which is not strictly below it in the layer map",
                    m.krate
                )
            } else {
                continue;
            };
            out.push(Finding::new(LAYER, &m.file, *line, message, None));
        }
    }
    for f in files.iter().filter(|f| !scope_of(f.krate).app) {
        let mut site = |line: usize, message: String| {
            let reason = ledger.check(&f.path, LAYER, line, None);
            out.push(Finding::new(LAYER, &f.path, line, message, reason));
        };
        let upward = |root: &str| rank_of(root).is_some() && !edge_allowed(f.krate, root);
        let mut seen: Vec<(usize, &str)> = Vec::new();
        for u in &f.uses {
            let root = u.root.as_str();
            if !u.in_test && root != f.krate && upward(root) {
                site(
                    u.line,
                    format!(
                        "`use {root}::…` crosses the layer map upward (`{}` may only depend on \
                         lower layers)",
                        f.krate
                    ),
                );
                seen.push((u.line, root));
            }
        }
        for (line, root) in &f.crate_refs {
            if !seen.contains(&(*line, root.as_str())) && upward(root) {
                site(
                    *line,
                    format!(
                        "`{root}::…` crosses the layer map upward (`{}` may only depend on lower \
                         layers)",
                        f.krate
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

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
    fn manifest_parsing() {
        let text = "[package]\nname = \"ess-service\"\n\n[dependencies]\ness.workspace = true\nrand = { path = \"../../vendor/rand\" }\n\n[dev-dependencies]\ness-benches.workspace = true\n";
        let m = parse_manifest("crates/service/Cargo.toml", text).unwrap();
        assert_eq!(m.krate, "ess_service");
        assert_eq!(m.deps.len(), 2);
        assert_eq!(m.deps[0].0, "ess");
        assert_eq!(m.deps[1].0, "rand");
    }

    fn check_one(path: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check(
            &[parse_source(path, src)],
            &[],
            &mut Ledger::default(),
            &mut out,
        );
        out
    }

    #[test]
    fn upward_use_is_flagged_and_test_use_is_not() {
        let src = "use ess_service::jsonio::Json;\n#[cfg(test)]\nmod tests { use ess_service::jsonio::Json; }";
        let v = check_one("crates/firelib/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
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
