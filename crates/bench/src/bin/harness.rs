//! The report harness: regenerates every table and figure of the
//! reproduction (DESIGN.md §4) as aligned text on stdout plus CSV files in
//! `reports/`.
//!
//! ```text
//! harness <experiment|all> [--seeds N] [--scale F] [--cases a,b]
//!         [--backend serial|worker-pool:N|rayon:N] [--out DIR]
//!
//! experiments:
//!   table1      Table I   — fireLib parameter space
//!   fig1-trace  Fig. 1    — ESS dataflow trace
//!   fig2-kign   Fig. 2    — SKign calibration curve
//!   fig3-trace  Fig. 3    — ESS-NS dataflow trace (NS blocks visible)
//!   e1-quality  E1        — quality per step, per case, per method
//!   e2-diversity E2       — result-set diversity per method
//!   e3-speedup  E3        — Master/Worker + rayon scaling
//!   e4-throughput E4      — simulator throughput
//!   e5-deceptive E5       — NS vs fitness GA on deceptive functions
//!   e6-tuning   E6        — ESSIM-DE tuning operators
//!   e7-hybrid   E7        — weighted fitness/novelty ablation
//!   e8-ablation E8        — k / archive / bestSet / behaviour ablation
//!   e9-inclusion E9       — result-set composition under drift
//!   e10-noise   E10       — robustness to observation noise
//!   serve                 — line-delimited JSON prediction service on stdin/stdout
//!   lint                  — static analysis: token rules, panic prover, layering DAG, determinism taint (+ ANALYSIS.json)
//!   verify-invariants     — model checking + adversarial invariant suite (+ INVARIANTS.json)
//! ```
//!
//! `all` regenerates every paper artifact (table1 … e10). The engine
//! itself is timed in one place, the `benchmark/` package
//! (`BENCHMARK.json`), not here.
//!
//! `serve` turns the harness into a prediction server: each stdin line is
//! a protocol-v2 JSON request (`{"v":2,"id":N,"kind":"run",...}`, with
//! streaming progress frames, checkpoint/resume and bounded `advance`),
//! each stdout line a JSON frame; every accepted session multiplexes the
//! one shared backend selected with `--backend`, scheduled under
//! `--policy` (round-robin, weighted-fair-share or deadline-first).
//! `serve --self-test` runs the recorded multi-client script, kills one
//! session mid-script, resumes it from its snapshot, and diffs the final
//! reports against the uninterrupted golden transcript (the CI smoke
//! configuration).
//!
//! `--scale` shrinks every per-step evaluation budget proportionally
//! (default 1.0); `--seeds` sets the replicate count (default 3);
//! `--backend` selects the scenario-evaluation backend for the
//! pipeline-driven experiments (results are backend-independent — every
//! backend produces bit-identical fitness values — so this only changes
//! wall time; default `serial`) and the pool `serve` shares among its
//! sessions — where a run executes is a per-process setting, never part
//! of a request; `--workers` lists the
//! worker counts E3 scales over (default `2,4`; nothing else reads it);
//! `--quick` shrinks `verify-invariants` to its CI budget.

use ess::fitness::EvalBackend;
use ess::report::TextTable;
use ess_benches::experiments as exp;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    experiment: String,
    seeds: usize,
    scale: f64,
    cases: Vec<String>,
    out: PathBuf,
    workers: Vec<usize>,
    backend: EvalBackend,
    policy: ess_service::PolicyKind,
    quick: bool,
    fused: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let experiment = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        experiment,
        seeds: 3,
        scale: 1.0,
        cases: vec![
            "grass_uniform".into(),
            "chaparral_slope".into(),
            "shifting_wind".into(),
            "moisture_front".into(),
            "two_ridge".into(),
        ],
        out: PathBuf::from("reports"),
        workers: vec![2, 4],
        backend: EvalBackend::Serial,
        policy: ess_service::PolicyKind::RoundRobin,
        quick: false,
        fused: false,
        self_test: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--seeds" => args.seeds = value()?.parse().map_err(|e| format!("--seeds: {e}"))?,
            "--scale" => args.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--cases" => args.cases = value()?.split(',').map(str::to_string).collect(),
            "--out" => args.out = PathBuf::from(value()?),
            "--backend" => {
                args.backend = value()?
                    .parse()
                    .map_err(|e: parworker::ParseBackendError| e.to_string())?
            }
            "--policy" => {
                args.policy = value()?
                    .parse()
                    .map_err(|e: ess_service::policy::ParsePolicyError| e.to_string())?
            }
            "--quick" => args.quick = true,
            "--fused" => args.fused = true,
            "--self-test" => args.self_test = true,
            "--workers" => {
                args.workers = value()?
                    .split(',')
                    .map(|w| w.parse().map_err(|e| format!("--workers: {e}")))
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.seeds == 0 {
        return Err("--seeds must be positive".into());
    }
    if args.workers.contains(&0) {
        return Err("--workers must be positive".into());
    }
    Ok(args)
}

fn usage() -> String {
    "usage: harness <table1|fig1-trace|fig2-kign|fig3-trace|e1-quality|e2-diversity|e3-speedup|e4-throughput|e5-deceptive|e6-tuning|e7-hybrid|e8-ablation|e9-inclusion|e10-noise|serve|lint|verify-invariants|all> [--seeds N] [--scale F] [--cases a,b] [--workers 2,4 (e3-speedup only)] [--backend serial|worker-pool:N|rayon:N] [--policy round-robin|weighted-fair-share|deadline-first] [--quick] [--fused] [--self-test] [--out DIR]".to_string()
}

fn emit(args: &Args, id: &str, title: &str, table: &TextTable) {
    println!("== {id}: {title} ==\n");
    println!("{}", table.render());
    let path = args.out.join(format!("{id}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[written {}]\n", path.display()),
        Err(e) => eprintln!("[warn] could not write {}: {e}\n", path.display()),
    }
}

fn emit_text(args: &Args, id: &str, text: &str) {
    println!("{text}");
    let path = args.out.join(format!("{id}.txt"));
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, text) {
        Ok(()) => println!("[written {}]\n", path.display()),
        Err(e) => eprintln!("[warn] could not write {}: {e}\n", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // The prediction server and the correctness tools: not experiments,
    // so they dispatch first.
    if args.experiment == "serve" {
        return serve_main(&args);
    }
    if args.experiment == "lint" {
        return lint_main(&args);
    }
    if args.experiment == "verify-invariants" {
        return verify_main(&args);
    }

    // Misspelled case names fail up front with a one-line error naming the
    // valid set, instead of panicking mid-experiment or silently skipping.
    if let Some(unknown) = args
        .cases
        .iter()
        .find(|name| ess::cases::by_name(name).is_none())
    {
        eprintln!(
            "{}\navailable cases: {}",
            ess::ServiceError::UnknownCase(unknown.clone()),
            ess::cases::case_names().join(", ")
        );
        return ExitCode::FAILURE;
    }

    let seeds: Vec<u64> = (0..args.seeds as u64).map(|i| 1000 + i).collect();
    let case_refs: Vec<&str> = args.cases.iter().map(String::as_str).collect();

    let mut ran = false;
    let want = |id: &str| args.experiment == id || args.experiment == "all";

    if want("table1") {
        emit(
            &args,
            "table1",
            "Table I — fireLib scenario parameters",
            &exp::table1(),
        );
        ran = true;
    }
    if want("fig1-trace") {
        emit_text(&args, "fig1-trace", &exp::fig1_trace());
        ran = true;
    }
    if want("fig2-kign") {
        emit(
            &args,
            "fig2-kign",
            "Fig. 2 — SKign calibration curve",
            &exp::fig2_kign(),
        );
        ran = true;
    }
    if want("fig3-trace") {
        emit_text(&args, "fig3-trace", &exp::fig3_trace());
        ran = true;
    }
    if want("e1-quality") {
        emit(
            &args,
            "e1-quality",
            "E1 — prediction quality per step (Jaccard), per case and method",
            &exp::e1_quality(&seeds, args.scale, &case_refs, args.backend),
        );
        ran = true;
    }
    if want("e2-diversity") {
        emit(
            &args,
            "e2-diversity",
            "E2 — diversity of the result set fed to the Statistical Stage",
            &exp::e2_diversity(&seeds, args.scale, &case_refs, args.backend),
        );
        ran = true;
    }
    if want("e3-speedup") {
        emit(
            &args,
            "e3-speedup",
            "E3 — Optimization Stage scaling by backend and worker count",
            &exp::e3_speedup(&args.workers),
        );
        ran = true;
    }
    if want("e4-throughput") {
        emit(
            &args,
            "e4-throughput",
            "E4 — fire simulator throughput",
            &exp::e4_throughput(),
        );
        ran = true;
    }
    if want("e5-deceptive") {
        emit(
            &args,
            "e5-deceptive",
            "E5 — NS-GA vs fitness GA on deceptive landscapes",
            &exp::e5_deceptive(&seeds),
        );
        ran = true;
    }
    if want("e6-tuning") {
        emit(
            &args,
            "e6-tuning",
            "E6 — effect of the ESSIM-DE tuning operators",
            &exp::e6_tuning(&seeds, args.scale, args.backend),
        );
        ran = true;
    }
    if want("e7-hybrid") {
        emit(
            &args,
            "e7-hybrid",
            "E7 — weighted fitness/novelty scoring ablation",
            &exp::e7_hybrid(&seeds, args.scale, args.backend),
        );
        ran = true;
    }
    if want("e8-ablation") {
        emit(
            &args,
            "e8-ablation",
            "E8 — NS hyper-parameter ablation (k, archive, bestSet, behaviour)",
            &exp::e8_ablation(&seeds, args.scale, args.backend),
        );
        ran = true;
    }
    if want("e9-inclusion") {
        emit(
            &args,
            "e9-inclusion",
            "E9 — result-set composition under a drifting truth",
            &exp::e9_inclusion(&seeds, args.scale, args.backend),
        );
        ran = true;
    }
    if want("e10-noise") {
        emit(
            &args,
            "e10-noise",
            "E10 — robustness to observation noise on the fire lines",
            &exp::e10_noise(&seeds, args.scale, args.backend),
        );
        ran = true;
    }

    if !ran {
        eprintln!("unknown experiment '{}'\n{}", args.experiment, usage());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `harness lint`: the static-analysis pipeline — the token rules plus
/// the panic-path prover, the machine-checked layer map and the
/// determinism-taint pass over the workspace call graph. Prints every
/// finding (allowed ones as the audit trail, unallowed ones as errors)
/// and the per-root proof stats, writes `reports/ANALYSIS.json`, and
/// fails the process when any finding lacks a justified
/// `// lint: allow(...)`.
fn lint_main(args: &Args) -> ExitCode {
    use ess_analysis::lint;
    let Some(root) = lint::find_workspace_root() else {
        eprintln!("lint: no enclosing Cargo workspace found");
        return ExitCode::FAILURE;
    };
    let report = match lint::analyze_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.findings {
        if f.allowed {
            let reason = f.reason.as_deref().unwrap_or("");
            println!("allow  {}:{} [{}] {reason}", f.file, f.line, f.rule);
        } else {
            eprintln!("error  {}:{} [{}] {}", f.file, f.line, f.rule, f.message);
            if let Some(witness) = &f.witness {
                eprintln!("       via {witness}");
            }
        }
    }
    for r in &report.roots {
        println!(
            "root   {:<32} {} reachable fn(s), {} allowed site(s), {} unallowed",
            r.root, r.reachable, r.allowed_sites, r.unallowed_sites
        );
    }
    let path = args.out.join("ANALYSIS.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, report.to_json().to_pretty()) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("[warn] could not write {}: {e}", path.display()),
    }
    let unallowed = report.unallowed().len();
    println!(
        "lint: {} files, {} symbols, {} call edges, {} allowed finding(s), {unallowed} unallowed",
        report.files_scanned,
        report.symbols,
        report.call_edges,
        report.findings.len() - unallowed
    );
    if unallowed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `harness verify-invariants [--quick]`: bounded model checking of the
/// concurrency and protocol layers plus the adversarial fuzz and firelib
/// invariant drivers. Writes `reports/INVARIANTS.json`; any violation
/// prints a reproducible description and fails the process.
fn verify_main(args: &Args) -> ExitCode {
    let budget = if args.quick {
        ess_analysis::VerifyBudget::quick()
    } else {
        ess_analysis::VerifyBudget::full()
    };
    let report = match ess_analysis::verify_all(0x2022_1995, budget) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("verify-invariants: VIOLATION\n{e}");
            return ExitCode::FAILURE;
        }
    };
    for run in &report.concurrency {
        println!(
            "checked {:<24} {:>8} schedules {:>10} steps",
            run.name, run.stats.schedules, run.stats.steps
        );
    }
    println!(
        "protocol walk: depth {} → {} op sequences over {} states",
        report.walk.depth, report.walk.sequences, report.walk.states
    );
    println!(
        "serve conformance: {} scripts, {} requests, {} frames checked",
        report.replay.scripts, report.replay.requests, report.replay.frames
    );
    println!(
        "fuzz: jsonio {} inputs ({} accepted), envelopes {}, serve lines {}",
        report.jsonio.inputs, report.jsonio.accepted, report.envelopes.inputs, report.serve.inputs
    );
    println!(
        "firelib: {} landscapes / {} cells bit-identical across kernels, {} hostile samples",
        report.firelib.terrains, report.firelib.cells, report.hostile.ros_samples
    );
    println!(
        "raster shortcuts: {} mosaics / {} cells match the all-sites scan, \
         {} span-bounded fitness values match the full raster",
        report.shortcuts.mosaics, report.shortcuts.mosaic_cells, report.shortcuts.fitness_evals
    );
    let path = args.out.join("INVARIANTS.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, report.to_json().to_pretty()) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("[warn] could not write {}: {e}", path.display()),
    }
    println!("verify-invariants: all invariants hold");
    ExitCode::SUCCESS
}

/// `harness serve`: the line-delimited JSON prediction service. Every
/// accepted session multiplexes the one shared `--backend` pool. With
/// `--self-test`, the recorded multi-client script (kill one session,
/// resume it from its snapshot) runs through the same loop and the final
/// reports are diffed against the uninterrupted golden transcript.
fn serve_main(args: &Args) -> ExitCode {
    use ess_service::serve;
    let stdout = std::io::stdout();
    if args.self_test {
        return match ess_benches::smoke::serve_self_test(args.backend) {
            Ok(transcript) => {
                println!("{transcript}");
                eprintln!(
                    "serve self-test OK on {}: kill/resume transcript matches golden",
                    args.backend.name()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let stdin = std::io::stdin();
    match serve::serve_configured(
        stdin.lock(),
        stdout.lock(),
        args.backend,
        args.policy,
        args.fused,
    ) {
        Ok(summary) => {
            eprintln!(
                "served {} sessions on {}{} under {} ({} finished, {} exhausted, {} cancelled, \
                 {} restored, {} errors)",
                summary.accepted,
                args.backend.name(),
                if args.fused { " (fused rounds)" } else { "" },
                args.policy,
                summary.finished,
                summary.exhausted,
                summary.cancelled,
                summary.restored,
                summary.errors
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve transport error: {e}");
            ExitCode::FAILURE
        }
    }
}
