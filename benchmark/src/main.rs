//! The serve-path benchmark: four workloads through an in-process serve
//! loop and one client connection, end-to-end metrics with tracing off,
//! and an outside-in layer trace from a separate traced run.
//!
//! ```text
//! benchmark run --all [--seed N] [--seconds S]      every workload, both modes, each in a fresh process
//! benchmark run --workload W --seed N --seconds S --trace 0|1
//! benchmark trace W                                 the traced run of one workload
//! benchmark bless [--workload W]                    re-record golden/<workload>.tsv through RunSpec::run()
//! benchmark selftest                                tiny end-to-end + trace of every workload, generator and arithmetic checks
//! benchmark manifest                                print BENCHMARK.json from the metric catalog
//! benchmark glossary                                print the metric glossary as a markdown table
//! ```

mod affinity;
mod calibrate;
mod catalog;
mod clock;
mod probes;
mod report;
mod run;
mod selftest;
mod spawn;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Options {
    pub workload: Option<String>,
    pub all: bool,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub golden_dir: PathBuf,
}

pub const DEFAULT_SEED: u64 = 2022;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        tiny: false,
        golden_dir: workload::benchmark_dir().join("golden"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--all" => o.all = true,
            "--tiny" => o.tiny = true,
            "--workload" => o.workload = Some(value("a workload name")?),
            "--golden-dir" => o.golden_dir = PathBuf::from(value("a directory")?),
            "--seed" => {
                o.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            other if !other.starts_with('-') && o.workload.is_none() => {
                o.workload = Some(other.to_string());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(o)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args
        .split_first()
        .ok_or("missing command (run | trace | bless | selftest | manifest | glossary)")?;
    let mut options = parse(rest)?;
    match command.as_str() {
        "run" if options.all => report::run_all(&options),
        "run" => run::run_one(&options),
        "trace" => {
            options.trace = true;
            run::run_one(&options)
        }
        "bless" => {
            for w in workload::WORKLOADS.iter().filter(|w| {
                options
                    .workload
                    .as_deref()
                    .is_none_or(|name| name == w.name)
            }) {
                let n = workload::bless(w, &options.golden_dir)?;
                println!("blessed {n} sessions of {}", w.name);
            }
            Ok(true)
        }
        "selftest" => selftest::run(),
        "manifest" => {
            print!("{}", catalog::manifest().to_pretty());
            Ok(true)
        }
        "glossary" => {
            print!("{}", catalog::glossary());
            Ok(true)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() -> ExitCode {
    clock::now_ns(); // the epoch every time in this process is measured from
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
