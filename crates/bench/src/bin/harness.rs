//! The report harness: regenerates every table and figure of the
//! reproduction (README § "Experiments") as aligned text on stdout plus CSV
//! files in `reports/`.
//!
//! ```text
//! harness <experiment|all|tool> [--seeds N] [--scale F] [--cases a,b]
//!         [--backend serial|worker-pool:N|rayon:N] [--out DIR]
//! ```
//!
//! The experiments are the rows of [`EXPERIMENTS`] and the tools (`serve`,
//! `bench-row`) the rows of [`TOOLS`]; running `harness` with no argument
//! prints both lists, derived from those tables, and the system registry:
//! the four paper systems, each with the variant rows (`ESS-NS/k=3`, …)
//! E6–E9 compare and `serve` accepts.
//!
//! `all` regenerates every paper artifact (table1 … e10). Every one of
//! them is exact — no artifact the harness writes carries a clock reading, so the
//! same command gives the same bytes twice and on any `--backend`. The
//! engine itself is timed in one place, the `benchmark/` package
//! (`BENCHMARK.json`), and by the `cargo bench` microbenchmarks, not here.
//!
//! `serve` turns the harness into a prediction server: each stdin line is
//! a protocol-v2 JSON request (`{"v":2,"id":N,"kind":"run",...}`, with
//! streaming progress frames, checkpoint/resume and bounded `advance`),
//! each stdout line a JSON frame; every accepted session multiplexes the
//! one shared backend selected with `--backend`, scheduled under
//! `--policy` (round-robin, weighted-fair-share or deadline-first).
//!
//! `--scale` shrinks every per-step evaluation budget proportionally
//! (default 1.0); `--seeds` sets the replicate count (default 3);
//! `--cases` is the task axis of E1 and E2 (E6–E10 declare their own);
//! `--backend` selects the one pool the process evaluates on — every
//! trial of the experiment plan, or every session `serve` accepts (results
//! are backend-independent — every backend produces bit-identical fitness
//! values — so this only changes wall time; default `serial`); where a run
//! executes is a per-process setting, never part of a request.

use ess::fitness::EvalBackend;
use ess::report::TextTable;
use ess_benches::experiments::{self as exp, Plan};
use ess_service::systems;
use std::path::PathBuf;
use std::process::ExitCode;

/// What an experiment produces: a table (printed aligned, written as
/// CSV) or a narrated trace (printed and written as text).
enum Artifact {
    Table(TextTable),
    Text(String),
}
use Artifact::{Table, Text};

/// An experiment's body: the plan every experiment of the invocation
/// shares, and the `--cases` list (only E1 and E2 read it).
type Run = fn(&Plan, &[&str]) -> Artifact;

/// Every paper artifact: id (also the output file's stem), title, body.
/// `all` runs them top to bottom.
const EXPERIMENTS: &[(&str, &str, Run)] = &[
    (
        "table1",
        "Table I — fireLib scenario parameters",
        |_, _| Table(exp::table1()),
    ),
    ("fig1-trace", "Fig. 1 — ESS dataflow trace", |plan, _| {
        Text(exp::fig1_trace(plan))
    }),
    (
        "fig2-kign",
        "Fig. 2 — SKign calibration curve",
        |plan, _| Table(exp::fig2_kign(plan)),
    ),
    (
        "fig3-trace",
        "Fig. 3 — ESS-NS dataflow trace (NS blocks visible)",
        |plan, _| Text(exp::fig3_trace(plan)),
    ),
    (
        "e1-quality",
        "E1 — prediction quality per step (Jaccard), per case and method",
        |plan, cases| Table(exp::e1_quality(plan, cases)),
    ),
    (
        "e2-diversity",
        "E2 — diversity of the result set fed to the Statistical Stage",
        |plan, cases| Table(exp::e2_diversity(plan, cases)),
    ),
    (
        "e5-deceptive",
        "E5 — NS-GA vs fitness GA on deceptive landscapes",
        |plan, _| Table(exp::e5_deceptive(&plan.seeds)),
    ),
    (
        "e6-tuning",
        "E6 — effect of the ESSIM-DE tuning operators",
        |plan, _| Table(exp::e6_tuning(plan)),
    ),
    (
        "e7-hybrid",
        "E7 — weighted fitness/novelty scoring ablation",
        |plan, _| Table(exp::e7_hybrid(plan)),
    ),
    (
        "e8-ablation",
        "E8 — NS hyper-parameter ablation (k, archive, bestSet, behaviour)",
        |plan, _| Table(exp::e8_ablation(plan)),
    ),
    (
        "e9-inclusion",
        "E9 — result-set composition under a drifting truth",
        |plan, _| Table(exp::e9_inclusion(plan)),
    ),
    (
        "e10-noise",
        "E10 — robustness to observation noise on the fire lines",
        |plan, _| Table(exp::e10_noise(plan)),
    ),
];

/// A tool's entry point; an `Err` is printed on stderr and exits 1.
type Tool = fn(&Args) -> Result<(), String>;

/// The prediction server and the trajectory-row builder: not experiments,
/// so `all` leaves them out.
const TOOLS: &[(&str, &str, Tool)] = &[
    (
        "serve",
        "line-delimited JSON prediction service on stdin/stdout",
        serve_main,
    ),
    (
        "bench-row",
        "one BENCH_trajectory.json row from saved benchmark runs (--parent DIR --change DIR --pr N [--claim W/M] [--note T] [--parent-commit SHA])",
        bench_row_main,
    ),
];

struct Args {
    experiment: String,
    seeds: usize,
    scale: f64,
    cases: Vec<String>,
    out: PathBuf,
    backend: EvalBackend,
    policy: ess_service::PolicyKind,
    fused: bool,
    /// `bench-row`'s inputs: the two run directories, the row's PR
    /// number, its `workload/metric` claim, its note, and the parent's
    /// commit when its runs' host line says `unknown`.
    parent: Option<PathBuf>,
    change: Option<PathBuf>,
    pr: Option<u64>,
    claim: Option<String>,
    note: Option<String>,
    parent_commit: Option<String>,
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
        backend: EvalBackend::Serial,
        policy: ess_service::PolicyKind::RoundRobin,
        fused: false,
        parent: None,
        change: None,
        pr: None,
        claim: None,
        note: None,
        parent_commit: None,
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
            "--fused" => args.fused = true,
            "--parent" => args.parent = Some(PathBuf::from(value()?)),
            "--change" => args.change = Some(PathBuf::from(value()?)),
            "--pr" => args.pr = Some(value()?.parse().map_err(|e| format!("--pr: {e}"))?),
            "--claim" => args.claim = Some(value()?),
            "--note" => args.note = Some(value()?),
            "--parent-commit" => args.parent_commit = Some(value()?),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.seeds == 0 {
        return Err("--seeds must be positive".into());
    }
    // The wire's rule (`RunSpec::validate`): a non-positive or NaN scale
    // would silently run every system at the 4-genome floor.
    if !(args.scale.is_finite() && args.scale > 0.0) {
        return Err(format!(
            "--scale must be a positive, finite number (got {})",
            args.scale
        ));
    }
    Ok(args)
}

/// The usage text: one synopsis line, then every experiment and tool with
/// its title, then every registered system — all derived from
/// [`EXPERIMENTS`], [`TOOLS`] and the registry.
fn usage() -> String {
    let ids = EXPERIMENTS.iter().map(|(id, ..)| *id);
    let tools = TOOLS.iter().map(|(id, ..)| *id);
    let names: Vec<&str> = ids.chain(["all"]).chain(tools).collect();
    let mut text = format!(
        "usage: harness <{}> [--seeds N] [--scale F] [--cases a,b (E1 and E2 only; E6-E10 declare their own cases)] [--backend serial|worker-pool:N|rayon:N] [--policy round-robin|weighted-fair-share|deadline-first] [--fused] [--out DIR]",
        names.join("|")
    );
    let titles = EXPERIMENTS.iter().map(|(id, title, _)| (id, title));
    for (id, title) in titles.chain(TOOLS.iter().map(|(id, title, _)| (id, title))) {
        text.push_str(&format!("\n  {id:<18} {title}"));
    }
    text.push_str("\nsystems a spec may name, then the variant rows E6-E9 compare:");
    for system in systems::all() {
        text.push_str(&format!("\n  {:<18} {}", system.name, system.description));
    }
    for set in systems::variants() {
        let names: Vec<&str> = set.iter().map(|row| row.name).collect();
        let names = names.join(" ");
        text.push_str(&format!("\n  {}\n    {names}", set[0].description));
    }
    text
}

/// Writes `contents` to `<--out>/<name>`, creating the directory. A report
/// that cannot be written is a warning: stdout already carries it.
fn write_out(args: &Args, name: &str, contents: &str) {
    let path = args.out.join(name);
    let written = std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, contents));
    match written {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("[warn] could not write {}: {e}", path.display()),
    }
}

fn emit(args: &Args, id: &str, title: &str, artifact: &Artifact) {
    match artifact {
        Table(table) => {
            println!("== {id}: {title} ==\n\n{}", table.render());
            write_out(args, &format!("{id}.csv"), &table.to_csv());
        }
        Text(text) => {
            println!("{text}");
            write_out(args, &format!("{id}.txt"), text);
        }
    }
    println!();
}

/// The one place an error becomes a stderr message and exit 1.
fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if let Some((.., tool)) = TOOLS.iter().find(|(id, ..)| *id == args.experiment) {
        return tool(args);
    }
    let wanted: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(id, ..)| args.experiment == *id || args.experiment == "all")
        .collect();
    if wanted.is_empty() {
        return Err(format!(
            "unknown experiment '{}'\n{}",
            args.experiment,
            usage()
        ));
    }
    // Misspelled case names fail up front with a one-line error naming the
    // valid set, instead of panicking mid-experiment or silently skipping.
    let cases: Vec<&str> = args.cases.iter().map(String::as_str).collect();
    if let Some(unknown) = cases
        .iter()
        .find(|name| ess::cases::by_name(name).is_none())
    {
        return Err(format!(
            "{}\navailable cases: {}",
            ess::ServiceError::UnknownCase(unknown.to_string()),
            ess::cases::case_names().join(", ")
        ));
    }
    // The one pool of the process: every trial of every experiment below
    // evaluates on it.
    let plan = Plan::new(args.backend, args.seeds, args.scale);
    for (id, title, run) in wanted {
        emit(args, id, title, &run(&plan, &cases));
    }
    Ok(())
}

/// `harness serve`: the line-delimited JSON prediction service. Every
/// accepted session multiplexes the one shared `--backend` pool.
fn serve_main(args: &Args) -> Result<(), String> {
    use ess_service::serve;
    let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
    let summary = serve::serve_configured(
        stdin.lock(),
        stdout.lock(),
        args.backend,
        args.policy,
        args.fused,
    )
    .map_err(|e| format!("serve transport error: {e}"))?;
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
    Ok(())
}

/// `harness bench-row`: reads `BENCHMARK.json` in the working directory
/// and the saved runs under `--parent` and `--change`, and prints one
/// `"source": "pairs"` row of `BENCH_trajectory.json`.
fn bench_row_main(args: &Args) -> Result<(), String> {
    use ess_benches::bench_row::{self, Claim};
    let (Some(parent), Some(change), Some(pr)) = (&args.parent, &args.change, args.pr) else {
        return Err("bench-row needs --parent DIR --change DIR --pr N".into());
    };
    let (parent, change) = (bench_row::read_runs(parent)?, bench_row::read_runs(change)?);
    let claim = match &args.claim {
        None => None,
        Some(c) => {
            let (workload, metric) = c.split_once('/').ok_or("--claim takes WORKLOAD/METRIC")?;
            Some(Claim { workload, metric })
        }
    };
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let benchmark =
        ess_service::jsonio::Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let metrics = bench_row::declared_metrics(&benchmark)?;
    let note = args.note.as_deref();
    let commit = args.parent_commit.as_deref();
    let row = bench_row::row(&parent, &change, &metrics, pr, claim, note, commit)?;
    print!("{}", row.to_pretty());
    Ok(())
}
