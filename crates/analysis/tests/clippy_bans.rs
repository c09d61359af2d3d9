//! The per-crate config files, held to the crate table row by row.
//!
//! `clippy.toml`: the determinism bans clippy enforces. Clippy reads the
//! nearest `clippy.toml` walking up from a crate's manifest directory, and
//! a crate-level file replaces the root's rather than merging with it — so
//! a new crate, a new crate-level file or an edited entry can silently
//! drop a ban. This resolves the file clippy would use for every
//! [`layering::CRATES`] crate under `crates/` and asserts that crate's row
//! exactly.
//!
//! `Cargo.toml`: the layer map. Outside test code rustc refuses a `use` or
//! path of a crate the manifest does not list, so the manifest's
//! `[dependencies]` are every edge a crate's source can have, and each
//! must point strictly down the map. `[dev-dependencies]` are test-only
//! and exempt, like `#[cfg(test)]` code.

use ess_analysis::layering::{self, CrateInfo};
use ess_analysis::lint;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const CLOCK: &[&str] = &["std::time::Instant::now", "std::time::SystemTime::now"];
const THREAD: &[&str] = &[
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder::spawn",
    "std::thread::Scope::spawn",
    "std::thread::sleep",
    "std::thread::park",
    "std::thread::yield_now",
    "std::thread::current",
];
const CMP: &[&str] = &["core::cmp::PartialOrd::partial_cmp"];
const HASH: &[&str] = &["std::collections::HashMap", "std::collections::HashSet"];

/// One crate's row: (disallowed methods, disallowed types). Clock reads
/// are bench's job and threads parworker's; `partial_cmp` is banned
/// everywhere; hash containers only where results must be bit-exact.
fn row(c: &CrateInfo) -> (BTreeSet<String>, BTreeSet<String>) {
    let unless = |lib: &str, bans| if c.lib == lib { &[][..] } else { bans };
    let methods = [
        CMP,
        unless("ess_benches", CLOCK),
        unless("parworker", THREAD),
    ];
    let types = if c.scope.deterministic { HASH } else { &[] };
    let set = |lists: &[&[&str]]| lists.concat().into_iter().map(String::from).collect();
    (set(&methods), set(&[types]))
}

/// The `path = "…"` entries of the `key = [ … ]` array in a `clippy.toml`.
fn paths(toml: &str, key: &str) -> BTreeSet<String> {
    let array = toml
        .split_once(&format!("\n{key} = ["))
        .map_or("", |(_, rest)| rest);
    let array = array.split("\n]").next().unwrap_or_default();
    let entries = array.split("path = \"").skip(1);
    entries
        .filter_map(|p| p.split('"').next())
        .map(String::from)
        .collect()
}

/// The config file `name` that governs a crate: the nearest one, walking
/// up from its directory to the workspace root.
fn resolve(root: &Path, dir: &str, name: &str) -> Option<(PathBuf, String)> {
    Path::new(dir).ancestors().find_map(|rel| {
        let file = rel.join(name);
        Some((file.clone(), fs::read_to_string(root.join(&file)).ok()?))
    })
}

/// The `[dependencies]` of a `Cargo.toml` that do not point strictly
/// below `lib` in the layer map, one message each, naming the manifest
/// line and the edge.
fn upward_edges(lib: &str, file: &str, toml: &str) -> Vec<String> {
    let mut section = "";
    let mut out = Vec::new();
    for (idx, line) in toml.lines().map(str::trim).enumerate() {
        if line.starts_with('[') {
            section = line;
        }
        let name: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_'))
            .collect();
        let dep = name.replace('-', "_");
        if section != "[dependencies]" || dep.is_empty() || layering::edge_allowed(lib, &dep) {
            continue;
        }
        let why = if layering::rank_of(&dep).is_none() {
            "is not in the declared layer map — add it to CRATES or remove it"
        } else {
            "is not strictly below it in the layer map"
        };
        out.push(format!(
            "{file}:{}: `{lib}` depends on `{dep}`, which {why}",
            idx + 1
        ));
    }
    out
}

#[test]
fn every_crate_gets_its_row_of_the_ban_matrix() -> Result<(), String> {
    let root = lint::find_workspace_root().ok_or("workspace root not found")?;
    // A crate the table does not know would escape the matrix unchecked.
    for entry in fs::read_dir(root.join("crates")).map_err(|e| e.to_string())? {
        let name = entry.map_err(|e| e.to_string())?.file_name();
        let dir = format!("crates/{}", name.to_string_lossy());
        assert!(
            layering::CRATES.iter().any(|c| c.dir == dir),
            "{dir} is not in layering::CRATES"
        );
    }
    for c in (layering::CRATES.iter()).filter(|c| c.dir.starts_with("crates/")) {
        let (file, toml) =
            resolve(&root, c.dir, "clippy.toml").ok_or(format!("no clippy.toml for {}", c.dir))?;
        let found = (
            paths(&toml, "disallowed-methods"),
            paths(&toml, "disallowed-types"),
        );
        assert_eq!(
            found,
            row(c),
            "{}: {} bans the wrong set",
            c.dir,
            file.display()
        );
    }
    Ok(())
}

#[test]
fn every_manifest_depends_strictly_down_the_layer_map() -> Result<(), String> {
    let root = lint::find_workspace_root().ok_or("workspace root not found")?;
    let mut upward = Vec::new();
    for c in layering::CRATES {
        let (file, toml) =
            resolve(&root, c.dir, "Cargo.toml").ok_or(format!("no Cargo.toml for {}", c.dir))?;
        upward.extend(upward_edges(c.lib, &file.to_string_lossy(), &toml));
    }
    assert!(upward.is_empty(), "{}", upward.join("\n"));
    Ok(())
}

#[test]
fn upward_peer_and_unknown_dependencies_are_flagged() {
    let toml = "[package]\nname = \"firelib\"\n\n[dependencies]\nlandscape.workspace = true\n\
                ess.workspace = true\nserde = \"1\"\n\n[dev-dependencies]\ness.workspace = true\n";
    assert_eq!(
        upward_edges("firelib", "crates/firelib/Cargo.toml", toml),
        [
            "crates/firelib/Cargo.toml:6: `firelib` depends on `ess`, which is not strictly \
             below it in the layer map",
            "crates/firelib/Cargo.toml:7: `firelib` depends on `serde`, which is not in the \
             declared layer map — add it to CRATES or remove it",
        ]
    );
    let peer = "[dependencies]\nlandscape = { path = \"../landscape\" }\n";
    let found = upward_edges("parworker", "crates/parworker/Cargo.toml", peer);
    assert_eq!(found.len(), 1);
    assert!(
        found[0].starts_with("crates/parworker/Cargo.toml:2: `parworker` depends on `landscape`")
    );
}
