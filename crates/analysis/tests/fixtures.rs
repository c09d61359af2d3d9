//! Golden-fixture pins for every rule of the static-analysis pipeline: a
//! violating form, an allowed-escape form, and a lookalike that must NOT
//! be flagged — all driven through the one entry point,
//! [`lint::analyze_files`], with workspace-style paths so the real scopes
//! (crate-table flags, layer ranks, seed enforcement) apply. The
//! allow-grammar and `unreached` fixtures live under `fixtures/` (excluded
//! from the workspace walk) and their line numbers are pinned here; the
//! other graph rules' fixtures are inline. Any drift — a matcher that stops firing, fires on
//! the lookalike, or stops honouring its escape hatch; a call-graph or
//! ledger change — fails this suite with the exact finding that moved. A
//! final pin runs the real workspace twice and requires a green,
//! byte-identical report.

use ess_analysis::lint::{
    self, Report, SourceFile, INVALID_ALLOW, PANIC, TAINT, UNREACHED, UNUSED_ALLOW,
};
use ess_analysis::panics::{RootSpec, ROOTS};
use ess_analysis::{callgraph, layering, parse};

/// One declared root: `Scheduler::round` in the service crate, the same
/// shape the workspace proof uses.
const ROOT: &[RootSpec] = &[RootSpec {
    krate: "ess_service",
    owner: Some("Scheduler"),
    name: "round",
}];

fn analyze(sources: &[(&str, &str)], roots: &[RootSpec]) -> Report {
    let owned: Vec<(String, String)> = sources
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint::analyze_files(&owned, roots)
}

/// (rule, line, allowed) triples for every finding in the report.
fn shape(report: &Report) -> Vec<(&'static str, usize, bool)> {
    report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.allowed))
        .collect()
}

/// The shape of one file analyzed on its own, no roots.
fn shape_at(path: &str, src: &str) -> Vec<(&'static str, usize, bool)> {
    shape(&analyze(&[(path, src)], &[]))
}

// ---------------------------------------------------------------- allow

/// A stale allow, an allow naming no rule and an allow without a reason
/// are findings; the reasonless one also suppresses nothing, so the panic
/// below it stands.
#[test]
fn allow_misuse_fixture() {
    let src = include_str!("../fixtures/allow_misuse.rs");
    assert_eq!(
        shape(&analyze(&[("crates/service/src/fx.rs", src)], ROOT)),
        vec![
            (UNUSED_ALLOW, 5, false),
            (INVALID_ALLOW, 10, false),
            (INVALID_ALLOW, 15, false),
            (PANIC, 16, false),
        ]
    );
}

/// The frozen `benchmark/` sources are an application: parsed for call
/// edges only, so the allows they still carry for the retired clock and
/// thread rules are inert comments, neither stale nor invalid.
#[test]
fn benchmark_sources_analyze_clean() {
    let clock = include_str!("../../../benchmark/src/clock.rs");
    assert_eq!(shape_at("benchmark/src/clock.rs", clock), vec![]);
    let spawn = include_str!("../../../benchmark/src/spawn.rs");
    assert_eq!(shape_at("benchmark/src/spawn.rs", spawn), vec![]);
}

// ---------------------------------------------------------------- panic

const PANIC_VIOLATING: &str = "\
pub struct Scheduler;
impl Scheduler {
    pub fn round(&mut self) {
        helper();
    }
}
fn helper() {
    let v: Option<u32> = None;
    let _ = v.unwrap();
}
";

const PANIC_ALLOWED: &str = "\
pub struct Scheduler;
impl Scheduler {
    pub fn round(&mut self) {
        helper();
    }
}
fn helper() {
    let v: Option<u32> = Some(1);
    // lint: allow(panic) — fixture: the value is constructed one line up
    let _ = v.unwrap();
}
";

const PANIC_LOOKALIKE: &str = "\
pub struct Scheduler;
impl Scheduler {
    pub fn round(&mut self) {
        helper();
    }
}
fn helper() {
    let v: Option<u32> = None;
    let _ = v.unwrap_or_default();
    let _ = v.unwrap_or_else(|| 7);
}
";

#[test]
fn panic_prover_flags_reachable_unwrap() {
    let r = analyze(&[("crates/service/src/fx.rs", PANIC_VIOLATING)], ROOT);
    assert_eq!(shape(&r), vec![(PANIC, 9, false)]);
    assert_eq!(r.roots.len(), 1);
    assert!(r.roots[0].resolved, "root must resolve to a symbol");
    assert_eq!(r.roots[0].unallowed_sites, 1);
}

#[test]
fn panic_prover_honours_site_allow() {
    let r = analyze(&[("crates/service/src/fx.rs", PANIC_ALLOWED)], ROOT);
    assert_eq!(shape(&r), vec![(PANIC, 10, true)]);
    assert!(r.unallowed().is_empty());
    assert_eq!(r.roots[0].allowed_sites, 1);
}

#[test]
fn panic_prover_ignores_unwrap_or_lookalikes() {
    let r = analyze(&[("crates/service/src/fx.rs", PANIC_LOOKALIKE)], ROOT);
    assert_eq!(shape(&r), vec![]);
    assert_eq!(r.roots[0].unallowed_sites, 0);
}

/// The same panic site again, inside `#[cfg(test)]`: no seed there.
#[test]
fn cfg_test_regions_are_exempt() {
    let src = format!("{PANIC_VIOLATING}#[cfg(test)]\nmod tests {{\n    fn helper() {{ None::<u8>.unwrap(); }}\n}}\n");
    let r = analyze(&[("crates/service/src/fx.rs", &src)], ROOT);
    assert_eq!(shape(&r), vec![(PANIC, 9, false)]);
}

/// A panic seed in a fn the root never reaches stays silent — the
/// prover is reachability-driven, not a grep.
#[test]
fn panic_prover_is_reachability_scoped() {
    let src = "\
pub struct Scheduler;
impl Scheduler {
    pub fn round(&mut self) {}
}
fn never_called() {
    let v: Option<u32> = None;
    let _ = v.unwrap();
}
";
    let r = analyze(&[("crates/service/src/fx.rs", src)], ROOT);
    assert_eq!(shape(&r), vec![]);
    // So is the ledger: an allow on a site no root reaches justifies no
    // finding, and is reported stale like any other.
    let allowed = src.replace(
        "    let _ = v.unwrap();",
        "    // lint: allow(panic) — fixture: sound, but nothing reaches it\n    let _ = v.unwrap();",
    );
    let r = analyze(&[("crates/service/src/fx.rs", &allowed)], ROOT);
    assert_eq!(shape(&r), vec![(UNUSED_ALLOW, 7, false)]);
}

/// A fn-level allow covers every site of its rule in the body —
/// including ones added later, which is why site-level is preferred;
/// this pins that the escape hatch works at all, written above the
/// header or between the `impl` line and the `fn`.
#[test]
fn fn_level_allow_covers_body_sites() {
    let above = "\
pub struct Scheduler;
impl Scheduler {
    pub fn round(&mut self) {
        helper();
    }
}
// lint: allow(panic) — fixture: both unwraps guarded by construction
fn helper() {
    let v: Option<u32> = Some(1);
    let _ = v.unwrap();
    let w: Option<u32> = Some(2);
    let _ = w.unwrap();
}
";
    let r = analyze(&[("crates/service/src/fx.rs", above)], ROOT);
    assert_eq!(shape(&r), vec![(PANIC, 10, true), (PANIC, 12, true)]);
    assert!(r.unallowed().is_empty());

    let in_impl = "\
impl Scheduler {
    // lint: allow(panic) — fixture: indices sanitized by planned_indices
    pub fn round(&mut self) {
        let a = self.live[0];
        let b = self.live[1];
    }
}
";
    let r = analyze(&[("crates/service/src/scheduler.rs", in_impl)], ROOT);
    assert_eq!(shape(&r), vec![(PANIC, 4, true), (PANIC, 5, true)]);
}

// ---------------------------------------------------------------- taint

const TAINT_SOURCE: &str = "\
use std::time::Instant;
pub fn clock_probe() -> u64 {
    let t = Instant::now();
    t.elapsed().as_millis() as u64
}
";

const TAINT_SOURCE_ALLOWED: &str = "\
use std::time::Instant;
pub fn clock_probe() -> u64 {
    // lint: allow(taint) — fixture: telemetry reading, never fed back
    let t = Instant::now();
    t.elapsed().as_millis() as u64
}
";

const TAINT_SINK: &str = "\
use parworker::clock_probe;
pub fn fitness_step() -> u64 {
    clock_probe()
}
";

/// The source in `parworker`, reachable from a deterministic crate.
fn tainted(source: &str) -> Report {
    analyze(
        &[
            ("crates/parworker/src/fx.rs", source),
            ("crates/evoalg/src/fx.rs", TAINT_SINK),
        ],
        &[],
    )
}

#[test]
fn taint_flags_clock_reachable_from_deterministic_crate() {
    let r = tainted(TAINT_SOURCE);
    assert_eq!(shape(&r), vec![(TAINT, 3, false)]);
    let witness = r.findings[0].witness.as_deref().unwrap_or("");
    assert!(
        witness.contains("fitness_step"),
        "witness must name the deterministic sink: {witness:?}"
    );
}

#[test]
fn taint_allow_kills_at_the_source() {
    // The allowed source stays on the audit trail but fails nothing.
    assert_eq!(
        shape(&tainted(TAINT_SOURCE_ALLOWED)),
        vec![(TAINT, 4, true)]
    );
}

#[test]
fn taint_without_deterministic_sink_is_clean() {
    // A service-layer clock with no deterministic-crate caller: no taint.
    assert_eq!(shape_at("crates/service/src/fx.rs", TAINT_SOURCE), vec![]);
}

/// Allows for different rules stack over one code line in either order:
/// both findings are justified and neither allow is stale.
#[test]
fn stacked_allows_resolve_in_either_order() {
    let taint = "// lint: allow(taint) — fixture: telemetry reading, never fed back";
    let panic = "// lint: allow(panic) — fixture: the probe is always set";
    let root = RootSpec {
        krate: "parworker",
        owner: None,
        name: "clock_probe",
    };
    for (upper, lower) in [(taint, panic), (panic, taint)] {
        let source = format!(
            "\npub fn clock_probe() -> u64 {{\n    {upper}\n    {lower}\n    \
             let (t, v) = (Instant::now(), Some(1u64).unwrap());\n    \
             t.elapsed().as_millis() as u64 + v\n}}\n"
        );
        let r = analyze(
            &[
                ("crates/parworker/src/fx.rs", &source),
                ("crates/evoalg/src/fx.rs", TAINT_SINK),
            ],
            &[root],
        );
        assert_eq!(shape(&r), vec![(PANIC, 5, true), (TAINT, 5, true)]);
        assert!(r.unallowed().is_empty());
    }
}

// ------------------------------------------------------------ unreached

/// Where the fixture is analyzed: a harness-side binary, so its `main`
/// roots the walk.
const BIN: &str = "crates/bench/src/bin/fixture.rs";

#[test]
fn unreached_fixture() {
    let src = include_str!("../fixtures/unreached.rs");
    // Everything `main` reaches by a call, a fn-pointer table, a fn named
    // as a value, a workspace-trait impl or a std-trait impl is silent;
    // the test-only function is the finding, the oracle is ledgered and
    // its helper is kept with it.
    let r = analyze(&[(BIN, src)], &[]);
    assert_eq!(
        shape(&r),
        vec![(UNREACHED, 56, false), (UNREACHED, 62, true)]
    );
    assert_eq!((r.unreached.mains, r.unreached.allowed), (1, 1));
    assert!(r.findings[0].message.contains("`test_only`"));

    // Mutation: delete the caller and the callee becomes a finding.
    let uncalled = src.replace("    direct();\n", "");
    assert_eq!(
        shape_at(BIN, &uncalled),
        vec![
            (UNREACHED, 36, false),
            (UNREACHED, 55, false),
            (UNREACHED, 61, true)
        ]
    );

    // Mutation: the allow ledgers the finding …
    let allow = "// lint: allow(unreached) — fixture: kept for tests::uses_both\n";
    let ledgered = src.replace("fn test_only()", &format!("{allow}fn test_only()"));
    assert_eq!(
        shape_at(BIN, &ledgered),
        vec![(UNREACHED, 57, true), (UNREACHED, 63, true)]
    );

    // … and on a function `main` reaches it justifies nothing.
    let stale = src.replace("fn direct()", &format!("{allow}fn direct()"));
    assert_eq!(
        shape_at(BIN, &stale),
        vec![
            (UNUSED_ALLOW, 37, false),
            (UNREACHED, 57, false),
            (UNREACHED, 63, true)
        ]
    );

    // Without a `main` in the set there is nothing to be reached from.
    let no_main = src.replace("fn main()", "fn not_main()");
    assert_eq!(shape_at(BIN, &no_main), vec![(UNUSED_ALLOW, 61, false)]);
}

// ----------------------------------------------------------------- meta

#[test]
fn stale_allow_is_a_finding() {
    let src = "\
pub fn fine() {
    // lint: allow(panic) — fixture: nothing here panics any more
    let x = 1 + 1;
    let _ = x;
}
";
    assert_eq!(
        shape_at("crates/service/src/fx.rs", src),
        vec![(UNUSED_ALLOW, 2, false)]
    );
}

#[test]
fn malformed_allow_is_a_finding() {
    let src = "\
pub fn fine() {
    // lint: allow(panics) — misspelled rule name
    let x = 1 + 1;
    let _ = x;
}
";
    assert_eq!(
        shape_at("crates/service/src/fx.rs", src),
        vec![(INVALID_ALLOW, 2, false)]
    );
}

// ------------------------------------------------------------ workspace

/// The real workspace ships green: every finding fixed or carrying a
/// justified allow, every panic-free root resolved, and the run is
/// deterministic — two back-to-back runs serialize byte-identically.
/// This is the invariant `harness lint` enforces in CI, pinned here so
/// `cargo test` alone catches a regression.
#[test]
fn workspace_ships_green() -> Result<(), String> {
    let root = lint::find_workspace_root().ok_or("workspace root not found")?;
    let a = lint::analyze_workspace(&root).map_err(|e| e.to_string())?;
    let unallowed: Vec<String> = a
        .unallowed()
        .iter()
        .map(|f| format!("  {}:{} [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        unallowed.is_empty(),
        "the workspace must ship green:\n{}",
        unallowed.join("\n")
    );
    assert!(a.files_scanned > 50, "walk collapsed: {}", a.files_scanned);
    assert_eq!(a.unreached.mains, 14, "a `fn main` left the walk");
    // An allowed unreached function says which test keeps it.
    for f in a.findings.iter().filter(|f| f.rule == UNREACHED) {
        let reason = f.reason.as_deref().unwrap_or_default();
        let names_a_file = reason
            .split(|c: char| !(c.is_alphanumeric() || "/_.".contains(c)))
            .any(|word| word.ends_with(".rs") && root.join(word).is_file());
        assert!(names_a_file, "{}:{} names no test file", f.file, f.line);
    }
    assert_eq!(a.roots.len(), 7);
    for rs in &a.roots {
        assert!(
            rs.resolved,
            "panic-free root `{}` no longer resolves",
            rs.root
        );
        assert!(rs.reachable > 0, "root `{}` reaches nothing", rs.root);
    }
    let b = lint::analyze_workspace(&root).map_err(|e| e.to_string())?;
    assert_eq!(
        a.to_json().to_pretty(),
        b.to_json().to_pretty(),
        "the report must be deterministic"
    );
    Ok(())
}

/// The serve path's panic proof covers the paper's own contribution: the
/// `StepOptimizer` dispatch into `ess_ns` (a crate *above* the caller's)
/// puts Algorithm 1 inside what a scheduler round reaches, and the serve
/// loop — which also builds what a request names — reaches what the
/// registry's rows build and the case library's builder table on top.
#[test]
fn serve_roots_reach_algorithm_1_and_the_registries() -> Result<(), String> {
    let root = lint::find_workspace_root().ok_or("workspace root not found")?;
    let sources = lint::workspace_sources(&root).map_err(|e| e.to_string())?;
    let parsed: Vec<_> = sources
        .iter()
        .filter_map(|(path, src)| {
            let krate = layering::crate_of_path(path)?;
            Some(parse::parse_items(&SourceFile::new(path, src), krate.lib))
        })
        .collect();
    let graph = callgraph::build(&parsed);
    let algorithm_1 = [
        "EssNs::optimize",
        "NoveltyGa::run",
        "NoveltyGa::evaluate_missing",
    ];
    let registries = [
        "SystemSpec::make",
        "ess_ns",
        "EssimDe::new",
        "BurnCase::generate",
        "workload_case",
    ];
    for (name, tables) in [("serve_configured", &registries[..]), ("round", &[])] {
        let root = ROOTS
            .iter()
            .find(|r| r.name == name)
            .ok_or("root left ROOTS")?;
        let reached: Vec<String> = (graph
            .reach(&graph.find(root.krate, root.owner, root.name))
            .0)
            .iter()
            .map(|&sym| graph.syms[sym].display())
            .collect();
        for wanted in algorithm_1.iter().chain(tables) {
            assert!(
                reached.iter().any(|name| name == wanted),
                "`{}` does not reach `{wanted}`",
                root.display()
            );
        }
    }
    Ok(())
}
