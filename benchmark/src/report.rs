//! `run --all`: every workload in both modes, each in a fresh child
//! process, one table of every metric by name, and `out/result.json` with
//! the host fingerprint beside the numbers.

use crate::catalog::{Metric, END_TO_END, END_TO_END_WHERE_PRODUCED, PER_LAYER};
use crate::clock::load_average;
use crate::spawn;
use crate::wire::{cores, pool_workers};
use crate::workload::{benchmark_dir, WORKLOADS};
use crate::Options;
use ess_service::jsonio::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(benchmark_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a number must travel with to be compared: a result from another
/// host, compiler or commit is a different experiment.
pub fn host_fingerprint() -> Json {
    Json::obj()
        .field("nproc", cores())
        .field("arch", std::env::consts::ARCH)
        .field("rustc", command_line("rustc", &["-V"]))
        .field(
            "git_commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        )
        .field("pool_workers", pool_workers())
        .field("load_average_1m", load_average().unwrap_or(-1.0))
}

/// Load above half the cores: something else is running, and a timing
/// taken now says little.
pub fn warn_if_busy() {
    if load_average().is_some_and(|l| l > cores() as f64 / 2.0) {
        println!("warning: the machine is busy (load above half the cores); timings will be noisy");
    }
}

/// `x86_64-2core`: the name baselines are filed under.
pub fn host_label() -> String {
    format!("{}-{}core", std::env::consts::ARCH, cores())
}

struct ChildResult {
    correct: bool,
    metrics: Json,
    detail: Json,
}

fn run_child(o: &Options, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let mut args: Vec<String> = [
        "run",
        "--workload",
        workload,
        "--seed",
        &o.seed.to_string(),
        "--seconds",
        &o.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
        "--golden-dir",
        &o.golden_dir.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if o.tiny {
        args.push("--tiny".into());
    }
    let output = spawn::child(&args)
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = Json::obj();
    let mut result = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("detail ") {
            detail = Json::parse(rest).map_err(|e| format!("{workload}: detail line: {e}"))?;
        } else if line.starts_with('{') {
            result = Json::parse(line).ok();
        } else if line.trim_start().starts_with("FAILED") || line.starts_with("warning") {
            println!("  {workload}: {}", line.trim());
        }
    }
    let result = result.ok_or(format!(
        "{workload} ({}) printed no result and exited with {}",
        if trace { "traced" } else { "end to end" },
        output.status
    ))?;
    Ok(ChildResult {
        correct: output.status.success()
            && result.get("correct").and_then(Json::as_bool) == Some(true),
        metrics: result.get("metrics").cloned().unwrap_or(Json::obj()),
        detail,
    })
}

fn value_of(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

/// One row per metric, one column per workload; a metric a workload
/// cannot produce is left blank, never printed as 0.
fn print_table(title: &str, defs: &[Metric], columns: &[&Json]) {
    println!("\n{title}");
    print!(
        "  {:<44} {:<6} {:<7} {:<6}",
        "metric", "unit", "better", "bound"
    );
    for w in &WORKLOADS {
        print!(" {:>20}", w.name);
    }
    println!();
    for m in defs {
        let bound = m
            .bound
            .map_or("-".to_string(), |b| format!("{:.0} %", b * 100.0));
        print!(
            "  {:<44} {:<6} {:<7} {:<6}",
            m.name, m.unit, m.better, bound
        );
        for metrics in columns {
            match value_of(metrics, m.name) {
                Some(v) => print!(" {v:>20.4}"),
                None => print!(" {:>20}", ""),
            }
        }
        println!();
    }
}

pub fn run_all(o: &Options) -> Result<bool, String> {
    let host = host_fingerprint();
    println!("host {host}");
    warn_if_busy();
    let mut all_correct = true;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        println!("running {} ...", w.name);
        let e2e = run_child(o, w.name, false)?;
        let traced = run_child(o, w.name, true)?;
        all_correct &= e2e.correct && traced.correct;
        results.push((w.name, e2e, traced));
    }

    let e2e_columns: Vec<&Json> = results.iter().map(|(_, e, _)| &e.metrics).collect();
    print_table(
        "end to end (tracing off; median over repetitions)",
        &END_TO_END,
        &e2e_columns,
    );
    let extras: Vec<Json> = results
        .iter()
        .map(|(_, e, _)| e.detail.get("extras").cloned().unwrap_or(Json::obj()))
        .collect();
    print_table(
        "end to end, where a workload produces it",
        &END_TO_END_WHERE_PRODUCED,
        &extras.iter().collect::<Vec<_>>(),
    );
    println!("\nsamples behind the percentiles");
    for (name, e, _) in &results {
        println!(
            "  {name}: {}",
            e.detail.get("samples").cloned().unwrap_or(Json::obj())
        );
    }
    let layer_columns: Vec<&Json> = results.iter().map(|(_, _, t)| &t.metrics).collect();
    print_table(
        "per layer (separate traced run)",
        &PER_LAYER,
        &layer_columns,
    );

    let mut workloads = Json::obj();
    for (name, e, t) in &results {
        workloads = workloads.field(
            name,
            Json::obj()
                .field("correct", e.correct && t.correct)
                .field("end_to_end", e.metrics.clone())
                .field("end_to_end_detail", e.detail.clone())
                .field("per_layer", t.metrics.clone()),
        );
    }
    let document = Json::obj()
        .field("host", host)
        .field("seed", o.seed)
        .field("seconds", o.seconds)
        .field("claim", Json::Null)
        .field("workloads", workloads);
    let path = benchmark_dir().join("out").join("result.json");
    std::fs::create_dir_all(benchmark_dir().join("out"))
        .and_then(|()| std::fs::write(&path, document.to_pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nwrote {} (file a first run of a host as baseline/{}.json)",
        path.display(),
        host_label()
    );
    println!(
        "{}",
        if all_correct {
            "all outputs correct"
        } else {
            "OUTPUT MISMATCH"
        }
    );
    Ok(all_correct)
}
