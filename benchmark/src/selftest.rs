//! `selftest`: the benchmark checking itself, in well under a minute.

use crate::workload::{benchmark_dir, golden_path, request_lines, WORKLOADS};
use crate::{calibrate, catalog, report, stats, trace, Options, DEFAULT_SEED};
use ess_service::jsonio::Json;

fn check(name: &str, result: Result<(), String>) -> bool {
    match &result {
        Ok(()) => println!("ok    {name}"),
        Err(e) => println!("FAIL  {name}: {e}"),
    }
    result.is_ok()
}

fn generator() -> Result<(), String> {
    for w in &WORKLOADS {
        let a = request_lines(&w.script(DEFAULT_SEED, 0, false));
        if a != request_lines(&w.script(DEFAULT_SEED, 0, false)) {
            return Err(format!("{}: same seed, different script", w.name));
        }
        if a == request_lines(&w.script(DEFAULT_SEED + 1, 0, false)) {
            return Err(format!("{}: different seed, same script", w.name));
        }
        if a == request_lines(&w.script(DEFAULT_SEED, 1, false)) {
            return Err(format!("{}: second repetition repeats the first", w.name));
        }
        let pool = w.pool();
        if let Some(stray) = w
            .script(DEFAULT_SEED + 2, 3, false)
            .iter()
            .find(|s| !pool.contains(s))
        {
            return Err(format!("{}: {stray:?} is not in the blessed pool", w.name));
        }
    }
    Ok(())
}

/// The committed `BENCHMARK.json` must be what the catalog generates.
fn manifest() -> Result<(), String> {
    let path = benchmark_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let committed = Json::parse(&text).map_err(|e| e.to_string())?;
    (committed == catalog::manifest())
        .then_some(())
        .ok_or("BENCHMARK.json differs from `benchmark manifest`".into())
}

/// Every workload at `--tiny` size in fresh child processes, end to end
/// and traced; then once more against a golden file with one corrupted
/// line, which must fail.
fn tiny_runs() -> Result<(), String> {
    let options = Options {
        workload: None,
        all: true,
        seed: DEFAULT_SEED,
        seconds: 1.0,
        trace: false,
        tiny: true,
        golden_dir: benchmark_dir().join("golden"),
    };
    if !report::run_all(&options)? {
        return Err("a tiny run reported a wrong output".into());
    }
    let w = &WORKLOADS[0];
    let dir = benchmark_dir().join("out").join("corrupt_golden");
    let text = std::fs::read_to_string(golden_path(&options.golden_dir, w.name))
        .map_err(|e| e.to_string())?;
    // Flip the evaluation count of every line: whichever sessions the tiny
    // script holds, their goldens are now wrong.
    let corrupted: String = text
        .lines()
        .map(|l| if l.starts_with('#') { l.to_string() } else { format!("{l}9") } + "\n")
        .collect();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(golden_path(&dir, w.name), corrupted))
        .map_err(|e| e.to_string())?;
    let corrupt = Options {
        workload: Some(w.name.to_string()),
        all: false,
        golden_dir: dir,
        ..options
    };
    println!("--- expecting failures below: the golden file is corrupted on purpose ---");
    match crate::run::run_one(&corrupt) {
        Ok(false) => Ok(()),
        Ok(true) => Err("a corrupted golden line went unnoticed".into()),
        Err(e) => Err(format!(
            "corrupted-golden run broke instead of failing: {e}"
        )),
    }
}

pub fn run() -> Result<bool, String> {
    let mut ok = check("percentile and ten-beyond arithmetic", stats::self_check());
    ok &= check("span self-time arithmetic", trace::self_check());
    ok &= check(
        "calibrated timeline arithmetic, reference slice checksum",
        calibrate::self_check(),
    );
    ok &= check(
        "script generator: same seed same bytes, new seed new bytes",
        generator(),
    );
    ok &= check("BENCHMARK.json matches the catalog", manifest());
    ok &= check(
        "tiny runs of every workload, and a corrupted golden fails",
        tiny_runs(),
    );
    println!(
        "{}",
        if ok {
            "selftest passed"
        } else {
            "selftest FAILED"
        }
    );
    Ok(ok)
}
