//! The determinism bans clippy enforces, held to their matrix crate by
//! crate. Clippy reads the nearest `clippy.toml` walking up from a crate's
//! manifest directory, and a crate-level file replaces the root's rather
//! than merging with it — so a new crate, a new crate-level file or an
//! edited entry can silently drop a ban. This resolves the file clippy
//! would use for every [`layering::CRATES`] crate under `crates/` and
//! asserts that crate's row exactly.

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

/// The `clippy.toml` clippy reads for a crate: the nearest one, walking up
/// from its directory to the workspace root.
fn resolve(root: &Path, dir: &str) -> Option<(PathBuf, String)> {
    Path::new(dir).ancestors().find_map(|rel| {
        let file = rel.join("clippy.toml");
        Some((file.clone(), fs::read_to_string(root.join(&file)).ok()?))
    })
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
        let (file, toml) = resolve(&root, c.dir).ok_or(format!("no clippy.toml for {}", c.dir))?;
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
