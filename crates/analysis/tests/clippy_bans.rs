//! The per-crate config files, held to the crate table row by row.
//!
//! `clippy.toml`: the determinism and boundary bans clippy enforces, and
//! the keys that let tests panic. Clippy reads the nearest `clippy.toml`
//! walking up from a crate's manifest directory, and a crate-level file
//! replaces the root's rather than merging with it — so a new crate, a
//! new crate-level file or an edited entry can silently drop a ban. This
//! resolves the file clippy would use for every [`layering::CRATES`] crate
//! and asserts that crate's row exactly.
//!
//! `Cargo.toml`: the layer map and the panic lints. Outside test code
//! rustc refuses a `use` or path of a crate the manifest does not list, so
//! the manifest's `[dependencies]` are every edge a crate's source can
//! have, and each must point strictly down the map. `[dev-dependencies]`
//! are test-only and exempt, like `#[cfg(test)]` code. The same edges
//! give every crate a deterministic crate links, and each of those must
//! ban all four nondeterminism sources. Every crate opts in to
//! `[workspace.lints]`, where the panic lints are denied.

use ess_analysis::layering::{self, CrateInfo};
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
];
const THREAD_ID: &[&str] = &["std::thread::current"];
const CMP: &[&str] = &["core::cmp::PartialOrd::partial_cmp"];
const RANDOM_STATE: &[&str] = &["std::hash::RandomState"];
const HASH: &[&str] = &["std::collections::HashMap", "std::collections::HashSet"];
const ASSERT: &[&str] = &["std::assert", "std::assert_eq", "std::assert_ne"];

/// The nondeterminism sources no crate a deterministic crate links may
/// call: clock reads, thread identity and seeded hashing.
const SOURCES: &[&str] = &[
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::thread::current",
    "std::hash::RandomState",
];

/// The keys that let `#[test]` fns and `#[cfg(test)]` code panic.
const IN_TESTS: &[&str] = &[
    "allow-unwrap-in-tests = true",
    "allow-expect-in-tests = true",
    "allow-panic-in-tests = true",
    "allow-indexing-slicing-in-tests = true",
];

/// Rows whose manifest is not the workspace's to set: the vendored `rand`
/// stand-in, and the benchmark, its own workspace.
const OUTSIDE_WORKSPACE_LINTS: &[&str] = &["vendor/rand", "benchmark/src"];

/// One crate's row of `clippy.toml` bans: (disallowed methods, types,
/// macros). Clock reads are bench's job and starting threads parworker's;
/// thread identity, `partial_cmp` and `RandomState` are banned
/// everywhere; hash containers only where results must be bit-exact, and
/// the `assert` family only at the serve boundary.
type Row = (BTreeSet<String>, BTreeSet<String>, BTreeSet<String>);

fn row(c: &CrateInfo) -> Row {
    let unless = |lib: &str, bans| if c.lib == lib { &[][..] } else { bans };
    let when = |flag: bool, bans| if flag { bans } else { &[][..] };
    let set = |lists: &[&[&str]]| lists.concat().into_iter().map(String::from).collect();
    (
        set(&[
            CMP,
            THREAD_ID,
            unless("ess_benches", CLOCK),
            unless("parworker", THREAD),
        ]),
        set(&[RANDOM_STATE, when(c.scope.deterministic, HASH)]),
        set(&[when(c.scope.boundary, ASSERT)]),
    )
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
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

/// Every ban of a `clippy.toml`, as its row.
fn bans(toml: &str) -> Row {
    (
        paths(toml, "disallowed-methods"),
        paths(toml, "disallowed-types"),
        paths(toml, "disallowed-macros"),
    )
}

/// The config file `name` that governs a crate: the nearest one, walking
/// up from its directory to the workspace root.
fn resolve(root: &Path, dir: &str, name: &str) -> Result<(PathBuf, String), String> {
    let found = Path::new(dir).ancestors().find_map(|rel| {
        let file = rel.join(name);
        Some((file.clone(), fs::read_to_string(root.join(&file)).ok()?))
    });
    found.ok_or(format!("no {name} for {dir}"))
}

/// The trimmed lines of a TOML `[section]`, each with its 0-based line
/// index in the file.
fn section<'a>(toml: &'a str, name: &str) -> Vec<(usize, &'a str)> {
    let mut current = "";
    let mut out = Vec::new();
    for (idx, line) in toml.lines().map(str::trim).enumerate() {
        if line.starts_with('[') {
            current = line;
        } else if current == name && !line.is_empty() && !line.starts_with('#') {
            out.push((idx, line));
        }
    }
    out
}

/// The `[dependencies]` of a `Cargo.toml`, as underscored lib names, each
/// with its 0-based line index.
fn dependencies(toml: &str) -> Vec<(usize, String)> {
    let name = |line: &str| -> String {
        let name = line.chars();
        let name = name.take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_'));
        name.collect::<String>().replace('-', "_")
    };
    let deps = section(toml, "[dependencies]").into_iter();
    deps.map(|(idx, line)| (idx, name(line)))
        .filter(|(_, dep)| !dep.is_empty())
        .collect()
}

/// The `[dependencies]` of a `Cargo.toml` that do not point strictly
/// below `lib` in the layer map, one message each, naming the manifest
/// line and the edge.
fn upward_edges(lib: &str, file: &str, toml: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (idx, dep) in dependencies(toml) {
        if layering::edge_allowed(lib, &dep) {
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

/// Every crate a deterministic crate links, directly or through other
/// crates, the deterministic crates included — by lib name.
fn linked_by_deterministic(root: &Path) -> Result<BTreeSet<&'static str>, String> {
    let mut edges = Vec::new();
    for c in layering::CRATES {
        let (_, toml) = resolve(root, c.dir, "Cargo.toml")?;
        edges.extend(dependencies(&toml).into_iter().map(|(_, dep)| (c.lib, dep)));
    }
    let mut linked: BTreeSet<&str> = (layering::CRATES.iter())
        .filter(|c| c.scope.deterministic)
        .map(|c| c.lib)
        .collect();
    loop {
        let before = linked.len();
        for (from, to) in &edges {
            if linked.contains(from) {
                let to = layering::CRATES.iter().find(|c| c.lib == to);
                linked.extend(to.map(|c| c.lib));
            }
        }
        if linked.len() == before {
            return Ok(linked);
        }
    }
}

#[test]
fn every_crate_gets_its_row_of_the_ban_matrix() -> Result<(), String> {
    let root = workspace_root();
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
        let (file, toml) = resolve(&root, c.dir, "clippy.toml")?;
        assert_eq!(
            bans(&toml),
            row(c),
            "{}: {} bans the wrong set",
            c.dir,
            file.display()
        );
    }
    Ok(())
}

#[test]
fn what_a_deterministic_crate_links_bans_every_nondeterminism_source() -> Result<(), String> {
    let root = workspace_root();
    let linked = linked_by_deterministic(&root)?;
    // The closure is computed from the manifests, not listed: spot-check
    // that it reaches the crates below the deterministic ones.
    for lib in ["ess", "landscape", "parworker", "rand"] {
        assert!(linked.contains(lib), "{lib} missing from {linked:?}");
    }
    for c in (layering::CRATES.iter()).filter(|c| linked.contains(c.lib)) {
        let (file, toml) = resolve(&root, c.dir, "clippy.toml")?;
        let (methods, types, _) = bans(&toml);
        for source in SOURCES {
            assert!(
                methods.contains(*source) || types.contains(*source),
                "{}: {} does not ban `{source}`, and a deterministic crate links it",
                c.dir,
                file.display()
            );
        }
    }
    Ok(())
}

#[test]
fn every_crate_denies_the_panic_lints_outside_tests() -> Result<(), String> {
    let root = workspace_root();
    for c in layering::CRATES {
        let (file, toml) = resolve(&root, c.dir, "clippy.toml")?;
        let keys: BTreeSet<&str> = toml.lines().map(str::trim).collect();
        for key in IN_TESTS {
            assert!(
                keys.contains(key),
                "{}: {} lacks `{key}`",
                c.dir,
                file.display()
            );
        }
        if OUTSIDE_WORKSPACE_LINTS.contains(&c.dir) {
            continue;
        }
        let (file, toml) = resolve(&root, c.dir, "Cargo.toml")?;
        assert!(
            section(&toml, "[lints]")
                .iter()
                .any(|(_, line)| *line == "workspace = true"),
            "{}: {} does not opt in to [workspace.lints]",
            c.dir,
            file.display()
        );
        if c.scope.boundary {
            let lib_rs = root.join(c.dir).join("src/lib.rs");
            let source = fs::read_to_string(&lib_rs).map_err(|e| e.to_string())?;
            assert!(
                source
                    .lines()
                    .any(|line| line == "#![deny(clippy::indexing_slicing)]"),
                "{}: a boundary crate's lib root denies `indexing_slicing`",
                lib_rs.display()
            );
        }
    }
    Ok(())
}

#[test]
fn every_manifest_depends_strictly_down_the_layer_map() -> Result<(), String> {
    let root = workspace_root();
    let mut upward = Vec::new();
    for c in layering::CRATES {
        let (file, toml) = resolve(&root, c.dir, "Cargo.toml")?;
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
