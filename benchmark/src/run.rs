//! One workload, one mode: the end-to-end run (tracing off) or the traced
//! run, and the result line the driver reads.

use crate::affinity::pin_to_one_core;
use crate::calibrate::Calibrator;
use crate::catalog::{Metric, END_TO_END, END_TO_END_WHERE_PRODUCED, PER_LAYER};
use crate::clock::{now_ns, peak_rss_mib, secs_since};
use crate::probes::{self, Metrics};
use crate::report::{host_fingerprint, warn_if_busy};
use crate::stats::{has_ten_beyond, mean, median, percentile};
use crate::trace::{self, Recorder, Span};
use crate::wire::{pool_workers, run_repetition, set_up, Repetition};
use crate::workload::{self, Workload};
use crate::Options;
use ess_service::jsonio::Json;

/// What one run measured, ready to print.
pub struct Outcome {
    pub attempted: usize,
    /// Catalog order; every metric of the mode's contract list.
    pub metrics: Vec<(Metric, f64)>,
    /// End-to-end metrics only this workload can produce.
    pub extras: Vec<(Metric, f64)>,
    /// `(metric, samples behind it)` for the percentiles.
    pub samples: Vec<(&'static str, usize)>,
    /// Calibrated wall seconds of each repetition, in order: the
    /// within-run noise.
    pub repetition_wall_s: Vec<f64>,
    /// The same repetitions on the uncalibrated clock, slices included.
    pub repetition_raw_s: Vec<f64>,
    /// Median reference slice of the run in milliseconds (the calibrated
    /// clock's nominal slice is `SLICE_NOMINAL_NS`), if it was calibrated.
    pub reference_slice_ms: Option<f64>,
    /// The core the run pinned itself to, if it did.
    pub pinned_core: Option<usize>,
    pub failures: Vec<String>,
}

fn lookup(workload: Option<&str>) -> Result<&'static Workload, String> {
    let name = workload.ok_or("--workload <name> is required")?;
    workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })
}

/// Median over the repetitions of a per-repetition value, skipping the
/// repetitions that could not produce it.
fn over(reps: &[Repetition], f: impl Fn(&Repetition) -> Option<f64>) -> Option<f64> {
    median(&reps.iter().filter_map(f).collect::<Vec<f64>>())
}

fn end_to_end(w: &Workload, o: &Options) -> Result<Outcome, String> {
    let pinned_core = if w.one_core { pin_to_one_core() } else { None };
    if w.one_core {
        match pinned_core {
            Some(core) => println!("pinned to core {core}: {} pool worker(s)", pool_workers()),
            None => println!("warning: could not pin to one core; timings will be noisier"),
        }
    }
    let mut calibrator = Calibrator::on();

    // Set-up, many times: it is short next to the timed phase, so one
    // reading would be mostly noise. The last one stays up for the run.
    // Each is bracketed by two reference slices.
    let mut setups: Vec<f64> = Vec::new();
    let mut spent = 0.0;
    let mut ready = loop {
        calibrator.scale();
        let ready = set_up(w, o.seed, o.tiny, &o.golden_dir, false)?;
        setups.push(ready.setup_s * calibrator.scale());
        spent += ready.setup_s;
        let enough = setups.len() >= 3 && (setups.len() >= 200 || spent >= 0.12 * o.seconds);
        if o.tiny || enough {
            break ready;
        }
        ready.harness.shutdown()?;
    };

    // Repetitions of the fixed mix until --seconds are used; whether a
    // further one fits is judged by the mean so far, so the timed phase
    // lands within half a repetition of the request.
    let mut timed_s = 0.0;
    let mut reps: Vec<Repetition> = Vec::new();
    let mut script = ready.script.clone();
    loop {
        let rep = run_repetition(
            &mut ready.harness,
            w,
            &script,
            &ready.golden,
            &mut calibrator,
        )?;
        timed_s += rep.raw_s;
        reps.push(rep);
        if o.tiny || timed_s + 0.5 * timed_s / reps.len() as f64 > o.seconds {
            break;
        }
        script = w.script(o.seed, reps.len(), o.tiny);
    }
    let summary = ready.harness.shutdown()?;

    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    if summary.errors > 0 {
        failures.push(format!(
            "{} request lines answered with an error",
            summary.errors
        ));
    }
    let attempted: usize = reps.iter().map(|r| r.attempted).sum();
    let values = [
        median(&setups),
        over(&reps, |r| Some(r.finished as f64 / r.wall_s)),
        over(&reps, |r| Some(r.evaluations as f64 / r.wall_s)),
        over(&reps, |r| percentile(&r.step_latency_ms, 50.0)),
        over(&reps, |r| percentile(&r.session_latency_ms, 50.0)),
        over(&reps, |r| {
            (r.evaluations > 0).then(|| r.cpu_ms / r.evaluations as f64)
        }),
        peak_rss_mib(),
    ];
    let mut metrics = Vec::new();
    for (metric, value) in END_TO_END.iter().zip(values) {
        let value = value.ok_or(format!("{} could not be measured", metric.name))?;
        metrics.push((*metric, value));
    }
    let extra_values = [
        over(&reps, |r| {
            has_ten_beyond(r.step_latency_ms.len(), 90.0)
                .then(|| percentile(&r.step_latency_ms, 90.0))
                .flatten()
        }),
        over(&reps, |r| percentile(&r.checkpoint_cycle_ms, 50.0)),
        Some(failures.len() as f64 / attempted.max(1) as f64),
    ];
    let extras = END_TO_END_WHERE_PRODUCED
        .iter()
        .zip(extra_values)
        .filter_map(|(m, v)| v.map(|v| (*m, v)))
        .collect();
    let count = |f: fn(&Repetition) -> usize| reps.iter().map(f).sum::<usize>();
    Ok(Outcome {
        attempted,
        metrics,
        extras,
        samples: vec![
            ("setup_s", setups.len()),
            ("repetitions", reps.len()),
            ("step_latency_ms", count(|r| r.step_latency_ms.len())),
            ("session_latency_ms", count(|r| r.session_latency_ms.len())),
            (
                "checkpoint_cycle_ms",
                count(|r| r.checkpoint_cycle_ms.len()),
            ),
        ],
        repetition_wall_s: reps.iter().map(|r| r.wall_s).collect(),
        repetition_raw_s: reps.iter().map(|r| r.raw_s).collect(),
        reference_slice_ms: median(&calibrator.slices_ns).map(|ns| ns / 1e6),
        pinned_core,
        failures,
    })
}

/// Per-layer numbers the span tree gives directly.
fn span_metrics(spans: &[Span], out: &mut Metrics) -> Result<(), String> {
    let self_ns = trace::self_times_ns(spans);
    // (duration, self time, count) of every span called `name`.
    let named = |name: &str| -> Vec<(f64, f64, f64)> {
        spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, own)| (s.duration_ns() as f64, *own as f64, s.count as f64))
            .collect()
    };
    let total = |name: &str| named(name).iter().map(|s| s.0).sum::<f64>();
    let mean_ns = |name: &str| {
        mean(&named(name).iter().map(|s| s.0).collect::<Vec<f64>>())
            .ok_or(format!("the traced pass recorded no {name} span"))
    };
    let wall = total(trace::SESSION);
    if wall <= 0.0 {
        return Err("the traced pass recorded no session".into());
    }
    let cells = mean(
        &named(trace::JACCARD)
            .iter()
            .map(|s| s.2)
            .collect::<Vec<f64>>(),
    );
    let step_self: f64 = named(trace::STEP).iter().map(|s| s.1).sum();
    let mut put = |name: &str, value: f64| out.insert(name.to_string(), value);
    put(
        "landscape.jaccard_us_per_call",
        mean_ns(trace::JACCARD)? / 1e3,
    );
    put("landscape.jaccard_share", total(trace::JACCARD) / wall);
    put("landscape.raster_cells", cells.unwrap_or(0.0));
    put(
        "firelib.simulate_us_per_eval",
        mean_ns(trace::SIMULATE)? / 1e3,
    );
    put("firelib.simulate_share", total(trace::SIMULATE) / wall);
    put(
        "firelib.simulate_evals",
        named(trace::SIMULATE).len() as f64,
    );
    put("ess.step_ms", mean_ns(trace::STEP)? / 1e6);
    put("ess.step_self_share", step_self / total(trace::STEP));
    put(
        "service.session_build_ms",
        mean_ns(trace::SESSION_BUILD)? / 1e6,
    );
    Ok(())
}

fn traced(w: &Workload, o: &Options) -> Result<Outcome, String> {
    let mut out = Metrics::new();
    let mut failures: Vec<String> = Vec::new();

    // The same repetition end to end (lines recorded for the jsonio
    // probes) and on a bare scheduler, alternating while the time allows:
    // the difference is the wire, and it is small next to the machine's
    // drift, so it is taken pair by pair and the median reported.
    let mut ready = set_up(w, o.seed, o.tiny, &o.golden_dir, true)?;
    // The pair is a difference of two walls on the same clock: left raw.
    let mut clock = Calibrator::off();
    let pairs_start = now_ns();
    let (mut shares, mut round_ms, mut round_self_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut attempted = 0;
    loop {
        let script = w.script(o.seed, shares.len(), o.tiny);
        let wired = run_repetition(&mut ready.harness, w, &script, &ready.golden, &mut clock)?;
        let bare = probes::bare_scheduler(w, &script, &ready.golden);
        shares.push((wired.wall_s - bare.wall_s) / wired.wall_s);
        round_ms.extend(bare.round_ms);
        round_self_us.extend(bare.round_self_us);
        attempted += wired.attempted + script.len();
        failures.extend(wired.failures);
        failures.extend(bare.failures);
        let elapsed = secs_since(pairs_start);
        if o.tiny || elapsed + elapsed / shares.len() as f64 > 0.8 * o.seconds {
            break;
        }
    }
    let frames = ready.harness.tap.borrow().frame_lines.len() / shares.len();
    let rtt_us = ready.harness.idle_rtt_us(200)?;
    let (requests, frame_lines) = {
        let mut tap = ready.harness.tap.borrow_mut();
        (
            std::mem::take(&mut tap.request_lines),
            std::mem::take(&mut tap.frame_lines),
        )
    };
    ready.harness.shutdown()?;
    let need = |v: Option<f64>, what: &str| v.ok_or(format!("{what}: no rounds ran"));
    out.insert(
        "service.wire_overhead_share".into(),
        need(median(&shares), "wire_overhead_share")?,
    );
    out.insert("client.rtt_us".into(), rtt_us);
    out.insert("client.frames".into(), frames as f64);
    out.insert(
        "service.round_ms".into(),
        need(mean(&round_ms), "round_ms")?,
    );
    out.insert(
        "service.round_self_us".into(),
        need(mean(&round_self_us), "round_self_us")?,
    );

    // The traced pass and its recorder-off twin over the first sessions
    // of the script.
    let slots = &ready.script[..w.traced_sessions.min(ready.script.len())];
    // Twice each, alternating, fastest of each side: the overhead is a
    // few percent of a pass a second or two long, which one disturbed
    // pass would swamp.
    let recorder = Recorder::new(true);
    let mut passes = vec![trace::drive(slots, &ready.golden, &recorder)];
    passes.push(trace::drive(slots, &ready.golden, &Recorder::new(false)));
    if !o.tiny {
        passes.push(trace::drive(slots, &ready.golden, &Recorder::new(true)));
        passes.push(trace::drive(slots, &ready.golden, &Recorder::new(false)));
    }
    let fastest = |on: usize| {
        let walls = passes.iter().skip(on).step_by(2).map(|p| p.wall_s);
        walls.fold(f64::INFINITY, f64::min)
    };
    out.insert("trace.overhead_share".into(), fastest(0) / fastest(1) - 1.0);
    let spans = recorder.spans();
    span_metrics(&spans, &mut out)?;
    let (scratch, raster) = recorder.arena_bytes();
    out.insert("firelib.arena_scratch_bytes".into(), scratch as f64);
    out.insert("firelib.arena_raster_bytes".into(), raster as f64);

    let batches = recorder.take_batches();
    let batch_p50 = probes::batch_counts(&recorder.batch_sizes(), &mut out)?;
    probes::checkpoints(slots, &recorder, &mut out)?;
    probes::stages(&batches, &mut out)?;
    probes::kernels(&batches, &mut out)?;
    probes::replay(&batches, w.concurrency, &mut out)?;
    probes::dispatch(batch_p50.max(1), &mut out);
    probes::optimizers(
        w.median_population(&ready.script),
        w.novelty_set_rows(&ready.script),
        &mut out,
    );
    probes::policies(&mut out);
    probes::jsonio(&requests, &frame_lines, &mut out)?;

    let path = workload::benchmark_dir()
        .join("out")
        .join(format!("trace_{}.jsonl", w.name));
    recorder
        .flush_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    failures.extend(passes.iter().flat_map(|p| p.failures.clone()));
    let mut metrics = Vec::new();
    for metric in PER_LAYER {
        let value = out
            .get(metric.name)
            .copied()
            .ok_or(format!("{} was not measured", metric.name))?;
        metrics.push((metric, value));
    }
    Ok(Outcome {
        attempted: attempted + passes.len() * slots.len(),
        metrics,
        extras: Vec::new(),
        samples: vec![
            ("wire_pairs", shares.len()),
            ("traced_sessions", slots.len()),
            ("spans", spans.len()),
            ("recorded_batches", batches.len()),
        ],
        repetition_wall_s: Vec::new(),
        repetition_raw_s: Vec::new(),
        reference_slice_ms: None,
        pinned_core: None,
        failures,
    })
}

fn metrics_json(metrics: &[(Metric, f64)]) -> Json {
    let mut obj = Json::obj();
    for (m, v) in metrics {
        obj = obj.field(m.name, Json::obj().field("value", *v).field("unit", m.unit));
    }
    obj
}

impl Outcome {
    /// The driver's result line.
    pub fn result_line(&self) -> String {
        Json::obj()
            .field("correct", self.failures.is_empty())
            .field("attempted", self.attempted.max(1))
            .field("failed", self.failures.len())
            .field("metrics", metrics_json(&self.metrics))
            .to_string()
    }

    /// Everything else `run --all` wants from the child, on one line.
    pub fn detail_line(&self) -> String {
        let mut samples = Json::obj();
        for (name, n) in &self.samples {
            samples = samples.field(name, *n);
        }
        let seconds = |v: &[f64]| Json::Arr(v.iter().map(|&s| Json::from(s)).collect());
        let mut detail = Json::obj()
            .field("extras", metrics_json(&self.extras))
            .field("samples", samples)
            .field("repetition_wall_s", seconds(&self.repetition_wall_s))
            .field("repetition_raw_s", seconds(&self.repetition_raw_s));
        if let Some(ms) = self.reference_slice_ms {
            detail = detail.field("reference_slice_ms", ms);
        }
        if let Some(core) = self.pinned_core {
            detail = detail.field("pinned_core", core);
        }
        detail.to_string()
    }
}

fn print_metric(m: &Metric, value: f64) {
    let bound = m
        .bound
        .map_or(String::new(), |b| format!(", bound {:.0} %", b * 100.0));
    println!(
        "  {:<44} {:>16.4} {:<6} ({} is better{bound})",
        m.name, value, m.unit, m.better
    );
}

/// Runs one workload in one mode and prints the report; the last line of
/// standard output is the result object. `Ok(false)` when an output was
/// wrong.
pub fn run_one(o: &Options) -> Result<bool, String> {
    let w = lookup(o.workload.as_deref())?;
    println!(
        "workload {} ({}), seed {}, {} s",
        w.name,
        if o.trace { "traced" } else { "end to end" },
        o.seed,
        o.seconds,
    );
    println!("host {}", host_fingerprint());
    warn_if_busy();
    let outcome = if o.trace {
        traced(w, o)?
    } else {
        end_to_end(w, o)?
    };
    for (m, v) in outcome.metrics.iter().chain(&outcome.extras) {
        print_metric(m, *v);
    }
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, n)| format!("{name}={n}"))
        .collect();
    println!("  samples: {}", samples.join(" "));
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    println!("detail {}", outcome.detail_line());
    println!("{}", outcome.result_line());
    Ok(outcome.failures.is_empty())
}
