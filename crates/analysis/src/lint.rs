//! The static-analysis pipeline behind `harness lint`: one workspace
//! walk, each file read and lexed once, five rules over one namespace,
//! one allow ledger, one report (`reports/ANALYSIS.json`).
//!
//! These are not style lints — each rule guards a property the system's
//! reproducibility contract depends on. Three walk the workspace call
//! graph ([`crate::panics`], [`crate::taint`], [`crate::unreached`]); two
//! keep the escape hatch honest:
//!
//! | rule | guards |
//! |---|---|
//! | `panic` | the declared panic-free roots must not reach a panic site |
//! | `taint` | no clock, seeded hash or thread identity is reachable from a deterministic crate |
//! | `unreached` | every non-test function is reachable from some `fn main`; what only tests run is an oracle that says so, or goes |
//! | `invalid-allow` / `unused-allow` | a malformed directive, or an allow that justifies no finding |
//!
//! The bans a single token decides — clock reads, raw thread APIs,
//! `partial_cmp`, hash-ordered containers in the deterministic crates —
//! are clippy's `disallowed-methods` / `disallowed-types`, configured per
//! crate in `clippy.toml`, and excused with `#[expect]`. The layer map
//! is held where it is declared, in each crate's `Cargo.toml`, by
//! `tests/clippy_bans.rs`; the pass reads no manifest. That a warm
//! evaluation allocates nothing is counted, not scanned for: the root
//! package's `tests/allocations.rs` runs the hot paths under a counting
//! allocator.
//!
//! Escape hatch, one grammar for every rule:
//! `// lint: allow(<rule>) — <reason>`. It covers findings of `<rule>` on
//! its own line (trailing comment), on the first code line below it
//! (standalone comment; other comment-only lines may sit in between, so
//! allows for different rules stack in any order), or — for findings
//! inside a function the parser saw — anywhere in that function when the
//! comment sits in the function's header span. The reason is mandatory; a
//! malformed or stale allow is itself a finding, so annotations cannot
//! rot silently.

use crate::callgraph;
use crate::layering;
use crate::lex::{lex, test_region_mask, Tok, Token};
use crate::panics::{self, RootSpec, RootStat};
use crate::parse::parse_items;
use crate::taint;
use crate::unreached::{self, UnreachedStat};
use ess_service::jsonio::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The panic-path prover ([`crate::panics`]).
pub const PANIC: &str = "panic";
/// The determinism-taint pass ([`crate::taint`]).
pub const TAINT: &str = "taint";
/// The reachability pass ([`crate::unreached`]).
pub const UNREACHED: &str = "unreached";
/// A malformed directive (unknown shape, unknown rule or missing reason).
pub const INVALID_ALLOW: &str = "invalid-allow";
/// An allow annotation that justified no finding.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// `(name, what it guards)` for every rule — the one namespace an allow
/// may name.
pub const RULES: &[(&str, &str)] = &[
    (
        PANIC,
        "the declared panic-free roots must not reach a panic site",
    ),
    (
        TAINT,
        "no nondeterminism source is reachable from a deterministic crate",
    ),
    (
        UNREACHED,
        "a function no `main` reaches is an oracle a test names, or dead",
    ),
    (
        INVALID_ALLOW,
        "allow annotations require a named rule and a non-empty reason",
    ),
    (
        UNUSED_ALLOW,
        "an allow that justifies nothing is stale and must be removed",
    ),
];

/// One finding of any rule, allowed or not.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (one of the `pub const` rule names).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 for workspace-level findings).
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// Call-chain evidence, when the rule walks the call graph.
    pub witness: Option<String>,
    /// `true` when a `lint: allow` annotation covers it.
    pub allowed: bool,
    /// The annotation's justification, when allowed.
    pub reason: Option<String>,
}

impl Finding {
    /// A finding at `file:line`, allowed exactly when the ledger produced
    /// a `reason` for it.
    pub fn new(
        rule: &'static str,
        file: &str,
        line: usize,
        message: String,
        reason: Option<String>,
    ) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
            witness: None,
            allowed: reason.is_some(),
            reason,
        }
    }

    /// Attaches the call chain that reaches the site.
    pub fn with_witness(mut self, witness: String) -> Self {
        self.witness = Some(witness);
        self
    }
}

/// The outcome of one pipeline run.
#[derive(Debug, Default)]
pub struct Report {
    /// `.rs` files walked and lexed.
    pub files_scanned: usize,
    /// Functions in the call graph's symbol table.
    pub symbols: usize,
    /// Resolved call edges.
    pub call_edges: usize,
    /// Per-root panic-proof stats.
    pub roots: Vec<RootStat>,
    /// The reachability rule's tally.
    pub unreached: UnreachedStat,
    /// Every finding, allowed ones included (the report is the audit
    /// trail), sorted by file, line and rule.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings not covered by an allow — these fail the build.
    pub fn unallowed(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.allowed).collect()
    }

    /// Machine-readable report (written to `reports/ANALYSIS.json`).
    pub fn to_json(&self) -> Json {
        let roots = self
            .roots
            .iter()
            .map(|r| {
                Json::obj()
                    .field("root", r.root.as_str())
                    .field("resolved", r.resolved)
                    .field("reachable_fns", r.reachable)
                    .field("allowed_sites", r.allowed_sites)
                    .field("unallowed_sites", r.unallowed_sites)
            })
            .collect::<Vec<_>>();
        let findings = self
            .findings
            .iter()
            .map(|f| {
                let mut obj = Json::obj()
                    .field("rule", f.rule)
                    .field("file", f.file.as_str())
                    .field("line", f.line)
                    .field("message", f.message.as_str())
                    .field("allowed", f.allowed);
                if let Some(reason) = &f.reason {
                    obj = obj.field("reason", reason.as_str());
                }
                if let Some(witness) = &f.witness {
                    obj = obj.field("witness", witness.as_str());
                }
                obj
            })
            .collect::<Vec<_>>();
        Json::obj()
            .field("tool", "harness lint")
            .field("files_scanned", self.files_scanned)
            .field("symbols", self.symbols)
            .field("call_edges", self.call_edges)
            .field("roots", Json::Arr(roots))
            .field(
                "unreached",
                Json::obj()
                    .field("mains", self.unreached.mains)
                    .field("allowed", self.unreached.allowed)
                    .field("unallowed", self.unreached.unallowed),
            )
            .field("unallowed", self.unallowed().len())
            .field("findings", Json::Arr(findings))
    }
}

/// A parsed `// lint: …` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `// lint: allow(<rule>) — <reason>`.
    Allow {
        /// The rule it suppresses (an entry of [`RULES`]).
        rule: &'static str,
        /// Mandatory justification.
        reason: String,
    },
    /// A directive-shaped comment that does not parse; the message says
    /// why.
    Invalid(String),
}

/// Parses the directive in a comment, if any. Comments that do not open
/// with `lint:` return `None`.
pub fn parse_directive(comment: &str) -> Option<Directive> {
    let mut text = comment.trim();
    if let Some(stripped) = text.strip_prefix("/*") {
        text = stripped.strip_suffix("*/").unwrap_or(stripped);
    }
    let text = text.trim_start_matches(['/', '!', '*']).trim();
    let rest = text.strip_prefix("lint:")?.trim();
    let Some(inner) = rest.strip_prefix("allow(") else {
        return Some(Directive::Invalid(format!(
            "unrecognized lint directive `{rest}`"
        )));
    };
    let Some(close) = inner.find(')') else {
        return Some(Directive::Invalid("allow(… missing `)`".to_string()));
    };
    let name = inner[..close].trim();
    let reason = inner[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '-' | '—' | '–' | ':'))
        .trim();
    let Some(&(rule, _)) = RULES.iter().find(|(rule, _)| *rule == name) else {
        return Some(Directive::Invalid(format!(
            "allow names unknown rule `{name}`"
        )));
    };
    if reason.is_empty() {
        return Some(Directive::Invalid(format!(
            "allow({rule}) has no justification — state why the rule does not apply"
        )));
    }
    Some(Directive::Allow {
        rule,
        reason: reason.to_string(),
    })
}

/// One source file, read and lexed once: what the item parser and the
/// ledger both consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: String,
    /// The significant (comment-free) token stream.
    pub sig: Vec<Token>,
    /// `#[cfg(test)]` mask over `sig`.
    pub test: Vec<bool>,
    /// Every directive, with the line of its comment.
    pub directives: Vec<(usize, Directive)>,
    /// Lines that hold comments and nothing else.
    pub comment_only: BTreeSet<usize>,
}

impl SourceFile {
    /// Lexes `src` — the pipeline's only call of [`lex`] — and splits the
    /// stream into code tokens and directives.
    pub fn new(path: &str, src: &str) -> Self {
        let mut sig = Vec::new();
        let mut directives = Vec::new();
        let mut comment_only = BTreeSet::new();
        for token in lex(src) {
            if let Tok::Comment(text) = &token.kind {
                directives.extend(parse_directive(text).map(|d| (token.line, d)));
                comment_only.insert(token.line);
            } else {
                sig.push(token);
            }
        }
        for token in &sig {
            comment_only.remove(&token.line);
        }
        SourceFile {
            path: path.to_string(),
            test: test_region_mask(&sig),
            sig,
            directives,
            comment_only,
        }
    }
}

struct Slot {
    line: usize,
    /// First code line at or below the comment — skips the comment-only
    /// lines under it, so stacked directives all reach the code line.
    anchor: usize,
    rule: &'static str,
    reason: String,
    used: bool,
}

/// The allow ledger: every `lint: allow` in the scanned files, which
/// findings each one justified, and — afterwards — which justified none.
#[derive(Default)]
pub struct Ledger {
    by_file: BTreeMap<String, Vec<Slot>>,
}

impl Ledger {
    /// Enters one file's allows; its malformed directives become
    /// `invalid-allow` findings on the spot.
    pub fn add(&mut self, file: &SourceFile, out: &mut Vec<Finding>) {
        let mut slots = Vec::new();
        for (line, directive) in &file.directives {
            match directive {
                Directive::Allow { rule, reason } => {
                    let mut anchor = *line;
                    while file.comment_only.contains(&anchor) {
                        anchor += 1;
                    }
                    slots.push(Slot {
                        line: *line,
                        anchor,
                        rule,
                        reason: reason.clone(),
                        used: false,
                    });
                }
                Directive::Invalid(message) => out.push(Finding::new(
                    INVALID_ALLOW,
                    &file.path,
                    *line,
                    message.clone(),
                    None,
                )),
            }
        }
        self.by_file.insert(file.path.clone(), slots);
    }

    /// The justification covering a `rule` finding at `file:line`, if
    /// any, marking that allow used. `fn_range` is the (header, opening
    /// brace) line span of the enclosing function, when the finding has
    /// one.
    pub fn check(
        &mut self,
        file: &str,
        rule: &str,
        line: usize,
        fn_range: Option<(usize, usize)>,
    ) -> Option<String> {
        let slots = self.by_file.get_mut(file)?;
        // Site-level wins over fn-level, so the reason points at the
        // specific justification when both exist.
        for site_pass in [true, false] {
            for s in slots.iter_mut().filter(|s| s.rule == rule) {
                let hit = if site_pass {
                    s.line == line || s.anchor == line
                } else {
                    // The line immediately above the header counts: a
                    // fn-level allow is written as the comment directly
                    // before the item (or between its attributes).
                    fn_range.is_some_and(|(from, to)| s.line + 1 >= from && s.line <= to)
                };
                if hit {
                    s.used = true;
                    return Some(s.reason.clone());
                }
            }
        }
        None
    }

    /// Pushes an `unused-allow` finding for every allow no finding used.
    pub fn unused(&self, out: &mut Vec<Finding>) {
        for (file, slots) in &self.by_file {
            for s in slots.iter().filter(|s| !s.used) {
                let message = format!("lint: allow({}) suppresses nothing — remove it", s.rule);
                out.push(Finding::new(UNUSED_ALLOW, file, s.line, message, None));
            }
        }
    }
}

/// Runs the whole pipeline over an explicit file set — the testable
/// core. `sources` are (workspace-relative path, contents) pairs;
/// `roots` the panic-free roots to prove. Files of a crate in
/// [`layering::CRATES`] join the call graph the three graph passes walk.
/// Every file but an application's ([`layering::Scope::app`], parsed for
/// call edges only) has its directives read.
pub fn analyze_files(sources: &[(String, String)], roots: &[RootSpec]) -> Report {
    let mut ledger = Ledger::default();
    let mut findings = Vec::new();
    let mut parsed = Vec::new();
    for (path, src) in sources {
        let file = SourceFile::new(path, src);
        let krate = layering::crate_of_path(&file.path);
        if !krate.is_some_and(|c| c.scope.app) {
            ledger.add(&file, &mut findings);
        }
        if let Some(krate) = krate {
            parsed.push(parse_items(&file, krate.lib));
        }
    }

    let graph = callgraph::build(&parsed);
    let roots = panics::prove(&graph, roots, &mut ledger, &mut findings);
    taint::analyze(&graph, &mut ledger, &mut findings);
    let unreached = unreached::check(&graph, &mut ledger, &mut findings);
    ledger.unused(&mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Report {
        files_scanned: sources.len(),
        symbols: graph.syms.len(),
        call_edges: graph.edge_count(),
        roots,
        unreached,
        findings,
    }
}

/// Directories never scanned: build output, vendored third-party code,
/// lint fixtures (they violate on purpose), generated reports, and
/// integration-test trees (test code is exempt like `#[cfg(test)]` mods).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "reports", "tests"];

/// Climbs from the current directory to the first `Cargo.toml` declaring
/// `[workspace]`.
pub fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The (workspace-relative path, contents) of every `.rs` file under
/// `root` outside [`SKIP_DIRS`], in path-sorted order so everything built
/// on it is deterministic.
///
/// # Errors
/// Propagates filesystem errors from the walk or file reads.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        sources.push((rel, fs::read_to_string(&path)?));
    }
    Ok(sources)
}

/// Analyzes the workspace under `root`: [`workspace_sources`] through
/// [`analyze_files`] with the declared [`panics::ROOTS`].
///
/// # Errors
/// Propagates filesystem errors from the walk or file reads.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    Ok(analyze_files(&workspace_sources(root)?, panics::ROOTS))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_with_reason_suppresses_and_is_not_stale() {
        let src = "fn hot() {\n    // lint: allow(panic) — the literal is always set\n    let _ = Some(1).unwrap();\n}";
        let root = RootSpec {
            krate: "ess_service",
            owner: None,
            name: "hot",
        };
        let report = analyze_files(
            &[("crates/service/src/x.rs".to_string(), src.to_string())],
            &[root],
        );
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].allowed);
        assert_eq!(
            report.findings[0].reason.as_deref(),
            Some("the literal is always set")
        );
    }

    #[test]
    fn directive_grammar() {
        assert_eq!(parse_directive("// just a comment"), None);
        assert!(matches!(
            parse_directive("/* lint: allow(panic) — bounded by construction */"),
            Some(Directive::Allow { rule: PANIC, reason }) if reason == "bounded by construction"
        ));
        for malformed in [
            "// lint: allow(panic)",
            "// lint: allow(nope) — x",
            "// lint: allow(panic — x",
            "// lint: deny(panic)",
            // Retired rules (clippy's now; rustc's and the manifest
            // test's; the allocation count's): a leftover allow or fence
            // fails loudly.
            "// lint: allow(wall-clock) — x",
            "// lint: allow(layer) — x",
            "// lint: allow(no-alloc) — x",
            "// lint: no_alloc",
        ] {
            assert!(
                matches!(parse_directive(malformed), Some(Directive::Invalid(_))),
                "{malformed}"
            );
        }
    }

    #[test]
    fn report_json_shape() {
        let j = analyze_files(&[("crates/ess/src/x.rs".into(), "fn f() {}".into())], &[]).to_json();
        assert_eq!(j.get("tool").and_then(Json::as_str), Some("harness lint"));
        for member in [
            "files_scanned",
            "symbols",
            "call_edges",
            "roots",
            "unreached",
            "unallowed",
            "findings",
        ] {
            assert!(j.get(member).is_some(), "{member}");
        }
    }
}
