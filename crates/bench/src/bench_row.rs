//! `harness bench-row`: one `"source": "pairs"` row of
//! `BENCH_trajectory.json`, read from the saved standard output of
//! alternated `benchmark run --workload W` invocations — one file per run,
//! the parent's runs in one directory and the change's in another.
//!
//! From each file the row takes the `workload … seed S, N s` line, the
//! `host {…}` fingerprint and the last line's result object. Runs pair up
//! per workload and seed in file-name order. Each of `BENCHMARK.json`'s
//! end-to-end metrics gets the parent and change medians and the number of
//! pairs the change won, in the direction the metric's `better` gives. The
//! row's seed is the one most runs share; only the claimed workload may
//! also run at one other seed, which becomes the claim's `second_seed`.
//! The row's `parent_commit` is the parent runs' host-line `git_commit`;
//! a run from an exported tree prints `unknown` there, and then the
//! commit must be given (`--parent-commit`).

use ess_service::jsonio::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// One saved `benchmark run` output.
#[derive(Debug, Clone)]
pub struct Run {
    /// The workload it ran.
    pub workload: String,
    /// Its `--seed`.
    pub seed: u64,
    /// Its `--seconds`.
    pub seconds: u64,
    /// The `host` line's fingerprint object.
    pub host: Json,
    /// The last line: the result object with its `metrics`.
    pub result: Json,
}

/// An end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its name in the result object.
    pub name: String,
    /// `true` when `better` is `higher`.
    pub higher: bool,
}

/// The claim a row makes: a workload and a metric.
#[derive(Debug, Clone, Copy)]
pub struct Claim<'a> {
    /// The claimed workload.
    pub workload: &'a str,
    /// The claimed metric.
    pub metric: &'a str,
}

/// Parses one saved output.
///
/// # Errors
/// A missing `workload` or `host` line, an unparsable result line, or a
/// result that is not `correct` or has failed operations.
pub fn parse_run(text: &str) -> Result<Run, String> {
    let line = |prefix: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(prefix))
            .ok_or(format!("no `{prefix}` line"))
    };
    let head = line("workload ")?;
    let workload = head.split(' ').next().unwrap_or_default().to_string();
    // `workload W (mode), seed S, N s`: the number after `seed ` and the
    // one after the last comma.
    let number = |rest: Option<&str>| -> Result<u64, String> {
        let digits: String = rest
            .unwrap_or_default()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits
            .parse()
            .map_err(|e| format!("`workload {head}`: {e}"))
    };
    let seed = number(head.split_once("seed ").map(|(_, r)| r))?;
    let seconds = number(head.rsplit_once(", ").map(|(_, r)| r))?;
    let host = Json::parse(line("host ")?).map_err(|e| format!("host line: {e:?}"))?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("result line: {e:?}"))?;
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    let failed = result.get("failed").and_then(Json::as_u64);
    if !correct || failed != Some(0) {
        return Err(format!(
            "{workload}: a run that was not correct or failed operations"
        ));
    }
    Ok(Run {
        workload,
        seed,
        seconds,
        host,
        result,
    })
}

/// Every file of `dir`, in file-name order, parsed.
///
/// # Errors
/// An unreadable directory or file, or a file [`parse_run`] rejects.
pub fn read_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let listing = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths = listing
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    paths.sort();
    paths
        .iter()
        .filter(|p| p.is_file())
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// `BENCHMARK.json`'s end-to-end metrics.
///
/// # Errors
/// An entry without a `name` or a `better` of `higher`/`lower`.
pub fn declared_metrics(benchmark: &Json) -> Result<Vec<Metric>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("an unnamed metric")?;
            let higher = match e.get("better").and_then(Json::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("{name}: `better` is neither higher nor lower")),
            };
            Ok(Metric {
                name: name.to_string(),
                higher,
            })
        })
        .collect()
}

/// `x` to five significant digits, as the trajectory's rows carry them.
fn sig5(x: f64) -> f64 {
    format!("{x:.4e}").parse().unwrap_or(x)
}

/// The `q` quantile of `values`, interpolated between order statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// One side's readings of `metric`, run by run.
fn readings(runs: &[&Run], metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|r| {
            let metrics = r.result.get("metrics");
            let value = metrics
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"));
            value
                .and_then(Json::as_f64)
                .ok_or(format!("{}: no metric {metric}", r.workload))
        })
        .collect()
}

/// The pairs of one workload at one seed: parent and change runs, matched
/// in file-name order.
#[derive(Default)]
struct Pairs<'a> {
    parent: Vec<&'a Run>,
    change: Vec<&'a Run>,
}

impl Pairs<'_> {
    /// Parent median, change median and pairs won for `metric`.
    fn compare(&self, metric: &Metric) -> Result<(f64, f64, usize), String> {
        let (p, c) = (
            readings(&self.parent, &metric.name)?,
            readings(&self.change, &metric.name)?,
        );
        let won = p
            .iter()
            .zip(&c)
            .filter(|(p, c)| if metric.higher { c > p } else { c < p })
            .count();
        Ok((quantile(&p, 0.5), quantile(&c, 0.5), won))
    }

    fn parent_iqr(&self, metric: &str) -> Result<f64, String> {
        let p = readings(&self.parent, metric)?;
        Ok(quantile(&p, 0.75) - quantile(&p, 0.25))
    }
}

/// `true` for an abbreviated or full git commit hash.
pub fn is_commit(sha: &str) -> bool {
    (7..=40).contains(&sha.len()) && sha.bytes().all(|b| b.is_ascii_hexdigit())
}

/// The parent's commit: its runs' host line's, else `given`.
fn parent_commit(base: &Run, given: Option<&str>) -> Result<String, String> {
    let host = base.host.get("git_commit").and_then(Json::as_str);
    match (host.filter(|h| is_commit(h)), given) {
        (Some(h), Some(g)) if !h.starts_with(g) && !g.starts_with(h) => Err(format!(
            "--parent-commit {g}, but the parent runs ran at {h}"
        )),
        (Some(h), _) => Ok(h.to_string()),
        (None, Some(g)) if is_commit(g) => Ok(g.to_string()),
        (None, Some(g)) => Err(format!("--parent-commit {g}: not a commit hash")),
        (None, None) => Err(format!(
            "the parent runs' host line gives git_commit {}: name the parent with --parent-commit SHA",
            host.unwrap_or("nothing")
        )),
    }
}

/// Builds the row.
///
/// # Errors
/// No runs, runs of different lengths, unequal pair counts, a second seed
/// on a workload that is not the claim's, a claim on a metric or workload
/// the runs do not hold, or no parent commit: the parent runs' host line
/// names none and `parent_commit` is `None` (or not a hash, or another
/// commit than the host line's).
pub fn row(
    parent: &[Run],
    change: &[Run],
    metrics: &[Metric],
    pr: u64,
    claim: Option<Claim<'_>>,
    note: Option<&str>,
    parent_commit: Option<&str>,
) -> Result<Json, String> {
    let first = change.first().ok_or("no change runs")?;
    let base = parent.first().ok_or("no parent runs")?;
    let commit = self::parent_commit(base, parent_commit)?;
    if let Some(r) = parent
        .iter()
        .chain(change)
        .find(|r| r.seconds != first.seconds)
    {
        return Err(format!("runs of {} s and {} s", first.seconds, r.seconds));
    }
    let mut groups: BTreeMap<(&str, u64), Pairs<'_>> = BTreeMap::new();
    for (runs, is_parent) in [(parent, true), (change, false)] {
        for r in runs {
            let pairs = groups.entry((r.workload.as_str(), r.seed)).or_default();
            if is_parent {
                pairs.parent.push(r);
            } else {
                pairs.change.push(r);
            }
        }
    }
    for ((workload, seed), pairs) in &groups {
        if pairs.parent.len() != pairs.change.len() {
            return Err(format!(
                "{workload} seed {seed}: {} parent runs, {} change runs",
                pairs.parent.len(),
                pairs.change.len()
            ));
        }
    }
    // The row's seed: the one most runs share, the smaller on a tie.
    let mut per_seed: BTreeMap<u64, usize> = BTreeMap::new();
    for ((_, seed), pairs) in &groups {
        *per_seed.entry(*seed).or_default() += pairs.parent.len();
    }
    let seed = per_seed
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(&s, _)| s)
        .unwrap_or(first.seed);
    let mut workloads = Json::obj();
    let mut second = None;
    for ((workload, s), pairs) in &groups {
        if *s != seed {
            if claim.is_none_or(|c| c.workload != *workload) || second.is_some() {
                return Err(format!(
                    "{workload} also ran at seed {s}: only the claim's workload may carry a second seed"
                ));
            }
            second = Some((*s, pairs));
            continue;
        }
        let mut entry = Json::obj();
        for metric in metrics {
            let (p, c, won) = pairs.compare(metric)?;
            let value = Json::obj()
                .field("parent", sig5(p))
                .field("change", sig5(c))
                .field("won", won);
            entry = entry.field(&metric.name, value);
        }
        workloads = workloads.field(
            workload,
            Json::obj()
                .field("pairs", pairs.parent.len())
                .field("metrics", entry),
        );
    }
    let claim = match claim {
        None => Json::Null,
        Some(c) => {
            let metric = metrics
                .iter()
                .find(|m| m.name == c.metric)
                .ok_or(format!("the claim names an undeclared metric {}", c.metric))?;
            let pairs = groups.get(&(c.workload, seed)).ok_or(format!(
                "no runs of the claimed workload {} at seed {seed}",
                c.workload
            ))?;
            let (_, _, won) = pairs.compare(metric)?;
            let mut json = Json::obj()
                .field("workload", c.workload)
                .field("metric", c.metric)
                .field("pairs", pairs.parent.len())
                .field("won", won)
                .field("parent_iqr", sig5(pairs.parent_iqr(c.metric)?));
            if let Some((s, pairs)) = second {
                let (p, ch, won) = pairs.compare(metric)?;
                json = json.field(
                    "second_seed",
                    Json::obj()
                        .field("seed", s)
                        .field("pairs", pairs.parent.len())
                        .field("won", won)
                        .field("parent", sig5(p))
                        .field("change", sig5(ch))
                        .field("parent_iqr", sig5(pairs.parent_iqr(c.metric)?)),
                );
            }
            json
        }
    };
    let arch = first
        .host
        .get("arch")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let nproc = first.host.get("nproc").and_then(Json::as_u64).unwrap_or(0);
    let mut row = Json::obj()
        .field("pr", pr)
        .field("source", "pairs")
        .field("host", format!("{arch}-{nproc}core"))
        .field("fingerprint", first.host.clone())
        .field("parent_commit", commit);
    if let Some(note) = note {
        row = row.field("note", note);
    }
    Ok(row
        .field("seed", seed)
        .field("seconds", first.seconds)
        .field("workloads", workloads)
        .field("claim", claim))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A saved run of `workload` at `seed` whose metrics read `evals` and
    /// `rss`.
    fn output(workload: &str, seed: u64, evals: f64, rss: f64) -> String {
        format!(
            "workload {workload} (end to end), seed {seed}, 25 s\n\
             host {{\"nproc\":2,\"arch\":\"x86_64\",\"rustc\":\"rustc 1.95.0\",\"git_commit\":\"abc1234\",\"pool_workers\":2,\"load_average_1m\":0.5}}\n\
             pinned to core 0: 1 pool worker(s)\n  evals_per_s  {evals} 1/s\n\
             detail {{\"samples\":{{}}}}\n\
             {{\"correct\":true,\"attempted\":8,\"failed\":0,\"metrics\":{{\"evals_per_s\":{{\"value\":{evals},\"unit\":\"1/s\"}},\"peak_rss_mib\":{{\"value\":{rss},\"unit\":\"MiB\"}}}}}}\n"
        )
    }

    const CLAIM: Claim<'static> = Claim {
        workload: "checkpoint_churn",
        metric: "evals_per_s",
    };

    fn metrics() -> Vec<Metric> {
        let benchmark = Json::parse(
            r#"{"end_to_end":[{"name":"evals_per_s","better":"higher"},{"name":"peak_rss_mib","better":"lower"}]}"#,
        )
        .unwrap();
        declared_metrics(&benchmark).unwrap()
    }

    #[test]
    fn a_saved_run_parses_its_workload_seed_host_and_result() {
        let run = parse_run(&output("checkpoint_churn", 2022, 100.5, 6.0)).unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds),
            ("checkpoint_churn", 2022, 25)
        );
        assert_eq!(run.host.get("nproc").and_then(Json::as_u64), Some(2));
        assert_eq!(run.result.get("attempted").and_then(Json::as_u64), Some(8));
        let failed =
            output("checkpoint_churn", 2022, 1.0, 1.0).replace("\"failed\":0", "\"failed\":1");
        assert!(parse_run(&failed).is_err());
        assert!(parse_run("host {}\n{}").is_err());
    }

    #[test]
    fn two_files_make_a_pairs_row_with_medians_wins_and_the_claim() {
        let dir = std::env::temp_dir().join(format!("bench-row-{}", std::process::id()));
        let (p, c) = (dir.join("parent"), dir.join("change"));
        for d in [&p, &c] {
            std::fs::create_dir_all(d).unwrap();
        }
        std::fs::write(
            p.join("01.txt"),
            output("checkpoint_churn", 2022, 100.0, 11.5),
        )
        .unwrap();
        std::fs::write(
            c.join("01.txt"),
            output("checkpoint_churn", 2022, 107.0, 6.25),
        )
        .unwrap();
        let (parent, change) = (read_runs(&p).unwrap(), read_runs(&c).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        let row = row(&parent, &change, &metrics(), 47, Some(CLAIM), None, None).unwrap();
        assert_eq!(row.get("source").and_then(Json::as_str), Some("pairs"));
        assert_eq!(row.get("host").and_then(Json::as_str), Some("x86_64-2core"));
        assert_eq!(
            row.get("parent_commit").and_then(Json::as_str),
            Some("abc1234")
        );
        assert_eq!(row.get("seed").and_then(Json::as_u64), Some(2022));
        let churn = row
            .get("workloads")
            .and_then(|w| w.get("checkpoint_churn"))
            .unwrap();
        assert_eq!(churn.get("pairs").and_then(Json::as_u64), Some(1));
        let metric = |name: &str| churn.get("metrics").and_then(|m| m.get(name)).unwrap();
        let evals = metric("evals_per_s");
        assert_eq!(evals.get("parent").and_then(Json::as_f64), Some(100.0));
        assert_eq!(evals.get("change").and_then(Json::as_f64), Some(107.0));
        // Higher evals and lower RSS both win.
        assert_eq!(evals.get("won").and_then(Json::as_u64), Some(1));
        assert_eq!(
            metric("peak_rss_mib").get("won").and_then(Json::as_u64),
            Some(1)
        );
        let claim = row.get("claim").unwrap();
        assert_eq!(claim.get("won").and_then(Json::as_u64), Some(1));
        assert_eq!(claim.get("parent_iqr").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn medians_wins_and_a_second_seed_follow_the_pairs() {
        let run =
            |seed, evals, rss| parse_run(&output("checkpoint_churn", seed, evals, rss)).unwrap();
        let parent = [
            run(1, 10.0, 5.0),
            run(1, 30.0, 5.0),
            run(1, 20.0, 5.0),
            run(9, 10.0, 5.0),
        ];
        let change = [
            run(1, 11.0, 5.0),
            run(1, 29.0, 4.0),
            run(1, 25.0, 6.0),
            run(9, 12.0, 4.0),
        ];
        let row = row(
            &parent,
            &change,
            &metrics(),
            47,
            Some(CLAIM),
            Some("synthetic"),
            None,
        )
        .unwrap();
        assert_eq!(row.get("seed").and_then(Json::as_u64), Some(1));
        let evals = row
            .get("workloads")
            .and_then(|w| w.get("checkpoint_churn"))
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get("evals_per_s"))
            .unwrap();
        assert_eq!(evals.get("parent").and_then(Json::as_f64), Some(20.0));
        assert_eq!(evals.get("change").and_then(Json::as_f64), Some(25.0));
        assert_eq!(evals.get("won").and_then(Json::as_u64), Some(2));
        let claim = row.get("claim").unwrap();
        assert_eq!(claim.get("parent_iqr").and_then(Json::as_f64), Some(10.0));
        let second = claim.get("second_seed").unwrap();
        assert_eq!(second.get("seed").and_then(Json::as_u64), Some(9));
        assert_eq!(second.get("won").and_then(Json::as_u64), Some(1));
        // Without a claim, a second seed is an error, as are unequal sides.
        assert!(super::row(&parent, &change, &metrics(), 47, None, None, None).is_err());
        let short = &change[..3];
        assert!(super::row(&parent, short, &metrics(), 47, Some(CLAIM), None, None).is_err());
    }

    #[test]
    fn a_parent_run_from_an_exported_tree_needs_its_commit_named() {
        let exported = output("checkpoint_churn", 2022, 100.0, 6.0)
            .replace("\"git_commit\":\"abc1234\"", "\"git_commit\":\"unknown\"");
        let parent = [parse_run(&exported).unwrap()];
        let change = [parse_run(&output("checkpoint_churn", 2022, 107.0, 6.0)).unwrap()];
        let with = |commit| row(&parent, &change, &metrics(), 50, None, None, commit);
        let refused = with(None).unwrap_err();
        assert!(refused.contains("--parent-commit"), "{refused}");
        assert!(with(Some("not-a-sha")).is_err());
        let named = with(Some("bde6ba9")).unwrap();
        assert_eq!(
            named.get("parent_commit").and_then(Json::as_str),
            Some("bde6ba9")
        );
        // A host line that names a commit wins, and must agree with one given.
        let change = [parse_run(&output("checkpoint_churn", 2022, 100.0, 6.0)).unwrap()];
        let runs = (&change[..], &change[..]);
        let agree = row(runs.0, runs.1, &metrics(), 50, None, None, Some("abc1234")).unwrap();
        assert_eq!(
            agree.get("parent_commit").and_then(Json::as_str),
            Some("abc1234")
        );
        assert!(row(runs.0, runs.1, &metrics(), 50, None, None, Some("bde6ba9")).is_err());
    }
}
