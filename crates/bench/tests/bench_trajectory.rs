//! The committed perf trajectory: every root-level `BENCH_*.json` parses,
//! names only workloads and end-to-end metrics that `BENCHMARK.json`
//! declares, and lists its rows in ascending PR order. A row measured from
//! alternated pairs also carries the host fingerprint the benchmark
//! prints, its parent's commit hash, its seed and seconds, and pair counts
//! no larger than its pairs.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "helpers outside a #[test] fn fail the test they serve, as an assert in it would"
)]

use ess_service::jsonio::Json;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn parse(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
}

fn members(json: &Json) -> &[(String, Json)] {
    match json {
        Json::Obj(pairs) => pairs,
        other => panic!("expected an object, found {other}"),
    }
}

/// The `name` of every entry of `BENCHMARK.json`'s array `key`.
fn declared(benchmark: &Json, key: &str) -> Vec<String> {
    let entries = benchmark.get(key).and_then(Json::as_arr).expect(key);
    let names = entries.iter().map(|e| e.get("name").and_then(Json::as_str));
    names
        .map(|n| n.expect("a named entry").to_string())
        .collect()
}

fn count(json: &Json, key: &str, what: &str) -> u64 {
    json.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{what}: no count `{key}`"))
}

/// One row: its workloads and metrics are declared, its numbers finite, and
/// a `pairs` row carries what makes it comparable.
fn check_row(row: &Json, workloads: &[String], metrics: &[String], what: &str) {
    let source = row.get("source").and_then(Json::as_str).expect("a source");
    assert!(
        row.get("host").and_then(Json::as_str).is_some(),
        "{what}: no host label"
    );
    let measured = match source {
        "CHANGES.md" => false,
        "pairs" => true,
        other => panic!("{what}: unknown source {other:?}"),
    };
    if measured {
        let fingerprint = row.get("fingerprint").expect("a fingerprint");
        for key in ["nproc", "arch", "rustc", "git_commit", "load_average_1m"] {
            assert!(
                fingerprint.get(key).is_some(),
                "{what}: no fingerprint {key}"
            );
        }
        let commit = row.get("parent_commit").and_then(Json::as_str);
        assert!(
            commit.is_some_and(|c| {
                (7..=40).contains(&c.len()) && c.bytes().all(|b| b.is_ascii_hexdigit())
            }),
            "{what}: parent_commit {commit:?} is not a commit hash"
        );
        count(row, "seed", what);
        count(row, "seconds", what);
        let claim = row.get("claim").expect("a claim (null when none)");
        if *claim != Json::Null {
            let workload = claim.get("workload").and_then(Json::as_str);
            let metric = claim.get("metric").and_then(Json::as_str);
            assert!(
                workload.is_some_and(|w| workloads.iter().any(|d| d == w))
                    && metric.is_some_and(|m| metrics.iter().any(|d| d == m)),
                "{what}: the claim names an undeclared workload or metric"
            );
        }
    }
    let by_workload = members(row.get("workloads").expect("workloads"));
    assert!(!by_workload.is_empty(), "{what}: no workload");
    for (workload, entry) in by_workload {
        let what = format!("{what}, {workload}");
        assert!(
            workloads.contains(workload),
            "{what}: not in BENCHMARK.json"
        );
        let pairs = measured.then(|| count(entry, "pairs", &what));
        for (metric, value) in members(entry.get("metrics").expect("metrics")) {
            let what = format!("{what}, {metric}");
            assert!(metrics.contains(metric), "{what}: not in BENCHMARK.json");
            let sides: &[&str] = if measured {
                &["parent", "change"]
            } else {
                &["change"]
            };
            for side in sides {
                let v = value.get(side).and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{what}: no {side} median");
            }
            if let Some(pairs) = pairs {
                assert!(count(value, "won", &what) <= pairs, "{what}: won > pairs");
            }
        }
    }
}

#[test]
fn every_trajectory_row_names_declared_metrics_in_pr_order() {
    let root = repo_root();
    let benchmark = parse(&root.join("BENCHMARK.json"));
    let workloads = declared(&benchmark, "workloads");
    let metrics = declared(&benchmark, "end_to_end");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("the repo root")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    assert!(
        files.iter().any(|p| p.ends_with("BENCH_trajectory.json")),
        "no BENCH_trajectory.json at the repo root"
    );
    for path in &files {
        let doc = parse(path);
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert!(!rows.is_empty(), "{}: no row", path.display());
        let mut last = 0;
        for row in rows {
            let pr = count(row, "pr", &path.display().to_string());
            let what = format!("{} row {pr}", path.display());
            assert!(pr > last, "{what}: rows must ascend by PR");
            last = pr;
            check_row(row, &workloads, &metrics, &what);
        }
    }
}
