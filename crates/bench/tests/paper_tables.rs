//! The paper tables, pinned (ROADMAP conformance (b)).
//!
//! Every run is bit-deterministic, so the tables are exact goldens, not
//! noisy measurements. Three budgets are pinned under `crates/bench/golden/`:
//!
//! * `*.csv`: the E1 quality / E2 diversity / E5 deceptive-landscape tables
//!   as `harness <id> --seeds 2 --scale 0.25 --cases meadow_small` writes
//!   them. This suite regenerates each through one plan on a serial pool
//!   and on a 2-worker pool and requires the bytes to match, so an
//!   optimizer change shows up as a reviewed diff of a golden, not
//!   silently.
//! * `all/`: the twelve artifacts of `harness all --seeds 1 --scale 0.25`,
//!   diffed in CI. Table I and the Fig. 2 calibration curve read neither
//!   `--seeds`, `--scale` nor `--cases`, so their one copy is there and this
//!   suite regenerates them against it too.
//! * `full/`: the twelve artifacts of `harness all --seeds 10 --scale 1`,
//!   the budget the paper's claims are read at, diffed in CI. This suite
//!   reads their verdicts and runs no search.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "helpers outside a #[test] fn fail the test they serve, as an assert in it would"
)]

use ess::fitness::EvalBackend;
use ess::report::TextTable;
use ess_benches::experiments::{self as exp, Plan};

const CASES: &[&str] = &["meadow_small"];
/// The harness flags that write the top-level goldens.
const SMALL: &str = "--seeds 2 --scale 0.25 --cases meadow_small";

/// The pinned file at `path`, relative to `crates/bench/`.
fn golden(path: &str) -> String {
    let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Each regenerated table: the directory under `crates/bench/` that pins
/// it, its id, and the harness flags that write that pin.
fn regenerate(plan: &Plan) -> [(&'static str, &'static str, &'static str, TextTable); 5] {
    [
        ("golden/all", "table1", "", exp::table1()),
        ("golden/all", "fig2-kign", "", exp::fig2_kign(plan)),
        ("golden", "e1-quality", SMALL, exp::e1_quality(plan, CASES)),
        (
            "golden",
            "e2-diversity",
            SMALL,
            exp::e2_diversity(plan, CASES),
        ),
        (
            "golden",
            "e5-deceptive",
            SMALL,
            exp::e5_deceptive(&plan.seeds),
        ),
    ]
}

#[test]
fn regenerated_tables_match_the_goldens_on_every_pool() {
    for backend in [EvalBackend::Serial, EvalBackend::WorkerPool(2)] {
        let plan = Plan::new(backend, 2, 0.25);
        for (dir, id, flags, table) in regenerate(&plan) {
            let csv = table.to_csv();
            assert!(
                csv == golden(&format!("{dir}/{id}.csv")),
                "{id} on {backend} no longer matches crates/bench/{dir}/{id}.csv. If the \
                 change is intended, rewrite the golden and review its diff:\n  \
                 cargo run --release -p ess-benches --bin harness -- {id} {flags} \
                 --out crates/bench/{dir}\n\
                 regenerated:\n{csv}"
            );
        }
    }
}

/// The cells of one CSV line; a quoted cell may hold commas.
fn cells(line: &str) -> Vec<String> {
    let mut cells = vec![String::new()];
    let mut quoted = false;
    for c in line.chars() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => cells.push(String::new()),
            _ => cells.last_mut().expect("a cell").push(c),
        }
    }
    cells
}

/// The rows of the golden table at `path` whose cells include `key`
/// (every row for `None`), as (first cell, second cell, `column` value):
/// (case, method) or (function, algorithm).
fn rows(path: &str, key: Option<&str>, column: &str) -> Vec<(String, String, f64)> {
    let text = golden(path);
    let mut lines = text.lines().map(cells);
    let header = lines.next().expect("header row");
    let value = header.iter().position(|h| h == column).expect("column");
    lines
        .filter(|row| key.is_none_or(|k| row.iter().any(|c| c == k)))
        .map(|row| {
            let v = row[value].parse().expect("number");
            (row[0].clone(), row[1].clone(), v)
        })
        .collect()
}

/// The names of `group`'s rows, highest value first.
fn ranking(rows: &[(String, String, f64)], group: &str) -> Vec<String> {
    let mut of: Vec<_> = rows.iter().filter(|(g, ..)| g == group).collect();
    of.sort_by(|a, b| b.2.total_cmp(&a.2));
    of.into_iter().map(|(_, name, _)| name.clone()).collect()
}

/// The two ordering claims of the paper that hold at this budget, on
/// `meadow_small`: ESS-NS mean quality ≥ ESS's, and the ESS-NS result set
/// the most diverse by mean pairwise distance. ESS-NS does *not* beat
/// ESSIM-EA / ESSIM-DE in quality here (0.38 against 0.52 / 0.76). At the
/// full budget the second claim is refuted on all five paper cases and the
/// first holds on only three of them (see the next test).
#[test]
fn pinned_rows_state_the_ordering_claims() {
    let quality = rows("golden/e1-quality.csv", Some("mean"), "quality_mean");
    let of = |rows: &[(String, String, f64)], method: &str| {
        rows.iter()
            .find(|(_, m, _)| m == method)
            .expect("method row")
            .2
    };
    assert!(
        of(&quality, "ESS-NS") >= of(&quality, "ESS"),
        "ESS-NS mean quality fell below ESS: {quality:?}"
    );

    let spread = rows("golden/e2-diversity.csv", None, "mean_pairwise_dist");
    assert_eq!(spread.len(), 4, "one row per system");
    assert_eq!(
        ranking(&spread, "meadow_small")[0],
        "ESS-NS",
        "the ESS-NS result set is no longer the most diverse: {spread:?}"
    );
}

/// The verdicts README § Experiments quotes at the paper's budget, read
/// off `golden/full/`, refutations included.
#[test]
fn full_budget_verdicts() {
    // E1: ESS-NS's place by mean quality, case by case, and who leads it.
    let quality = rows("golden/full/e1-quality.csv", Some("mean"), "quality_mean");
    // ESS-NS ≥ ESS holds on three of the five cases.
    for (case, place, leader, above_ess) in [
        ("two_ridge", 1, "ESS-NS", true),
        ("moisture_front", 1, "ESS-NS", true),
        ("grass_uniform", 2, "ESSIM-DE", true),
        ("chaparral_slope", 3, "ESSIM-EA", false),
        ("shifting_wind", 4, "ESS", false),
    ] {
        let ranked = ranking(&quality, case);
        let at = |method: &str| ranked.iter().position(|m| m == method);
        assert_eq!(ranked.len(), 4, "{case}: one row per system");
        assert_eq!(at("ESS-NS"), Some(place - 1), "{case}: {ranked:?}");
        assert_eq!(ranked[0], leader, "{case}: {ranked:?}");
        assert_eq!(at("ESS-NS") < at("ESS"), above_ess, "{case}: {ranked:?}");
    }

    // E2: every ESS-NS result set is all distinct, yet ESSIM-DE's is the
    // most spread on every case, ESS-NS's second.
    let file = "golden/full/e2-diversity.csv";
    let distinct = rows(file, Some("ESS-NS"), "distinct_frac");
    assert_eq!(distinct.len(), 5, "one ESS-NS row per case");
    assert!(distinct.iter().all(|r| r.2 == 1.0), "{distinct:?}");
    let spread = rows(file, None, "mean_pairwise_dist");
    for (case, ..) in &distinct {
        assert_eq!(
            ranking(&spread, case)[..2],
            ["ESSIM-DE", "ESS-NS"],
            "{case}: {spread:?}"
        );
    }

    // E5: the fitness GA finds the higher best fitness on every function;
    // an NS-GA's result set succeeds more often only on `twin_basins(2)`.
    let file = "golden/full/e5-deceptive.csv";
    let best = rows(file, None, "best_fitness_mean");
    let success = rows(file, None, "set_success_rate");
    let functions = [
        "sphere(6)",
        "trap(16,b=4)",
        "two_peaks(4)",
        "twin_basins(2)",
    ];
    for function in functions {
        assert_eq!(
            ranking(&best, function)[0],
            "fitness-GA",
            "{function}: {best:?}"
        );
        let rate = |algorithm: &str| {
            let of = success
                .iter()
                .filter(|(f, a, _)| f == function && a.starts_with(algorithm));
            of.map(|r| r.2).fold(f64::NEG_INFINITY, f64::max)
        };
        let ns_wins = rate("NS-GA") > rate("fitness-GA");
        assert_eq!(
            ns_wins,
            function == "twin_basins(2)",
            "{function}: {success:?}"
        );
    }
}
