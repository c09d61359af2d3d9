//! Every metric the benchmark reports, by name: unit, direction, the
//! regression bound of the end-to-end ones, and for each layer metric the
//! end-to-end metric it should move. `BENCHMARK.json` is generated from
//! this table (`-- manifest`) and `selftest` checks the two agree.

use crate::workload::WORKLOADS;
use ess_service::jsonio::Json;

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// Layer metrics: what it should move, and where. End-to-end: what it
    /// is.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

/// The end-to-end metrics every workload produces: the ones the
/// regression gate compares. Every time among them is read off the
/// calibrated clock (`calibrate`), not the raw wall.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", "lower", 0.25,
        "calibrated time from entering set-up to ready for the first timed request: pool and serve thread spawn, script generation, golden load, one warm-up session per grid shape"),
    e2e("sessions_per_s", "1/s", "higher", 0.25,
        "done frames with status finished per calibrated second of timed wall"),
    e2e("evals_per_s", "1/s", "higher", 0.25,
        "scenario evaluations of those sessions per calibrated second of timed wall"),
    e2e("step_latency_ms_p50", "ms", "lower", 0.25,
        "advance request written to each progress frame read, calibrated"),
    e2e("session_latency_ms_p50", "ms", "lower", 0.25,
        "run request written to that session's done frame read, calibrated; case build and queueing included"),
    e2e("cpu_ms_per_eval", "ms", "lower", 0.25,
        "process user+system CPU over the timed phase (reference slices taken off, calibrated like the wall) per evaluation: throughput bought by spinning shows here"),
    e2e("peak_rss_mib", "MiB", "lower", 0.10,
        "VmHWM of the measuring process at exit"),
];

/// End-to-end metrics only some workloads can produce. `run --all` prints
/// them where they exist; a workload that cannot produce one omits it.
pub const END_TO_END_WHERE_PRODUCED: [Metric; 3] = [
    e2e("step_latency_ms_p90", "ms", "lower", 0.25,
        "same samples as the p50; reported only with ten samples beyond it"),
    e2e("checkpoint_cycle_ms_p50", "ms", "lower", 0.25,
        "snapshot request written to the restore's accepted reply read; checkpoint_churn only"),
    e2e("failed_share", "ratio", "lower", 0.0,
        "sessions not finished, digest mismatches and protocol errors per session attempted; non-zero fails the run"),
];

pub const PER_LAYER: [Metric; 49] = [
    layer("landscape.jaccard_us_per_call", "us", "lower", "evals_per_s on landscape_xl_solo; about nothing elsewhere"),
    layer("landscape.jaccard_share", "ratio", "lower", "share of the traced wall inside jaccard_at_time"),
    layer("landscape.raster_cells", "count", "lower", "cells scanned per Jaccard call"),
    layer("firelib.simulate_us_per_eval", "us", "lower", "evals_per_s on fleet_fused_percell and landscape_xl_solo"),
    layer("firelib.simulate_share", "ratio", "lower", "share of the traced wall inside simulate_arena_kernel"),
    layer("firelib.simulate_evals", "count", "higher", "evaluations the traced pass simulated"),
    layer("firelib.fire_line_us_per_call", "us", "lower", "step_latency_ms_p50 on landscape_xl_solo (statistical stage)"),
    layer("firelib.case_build_ms", "ms", "lower", "session_latency_ms_p50 on landscape_xl_solo; checkpoint cycle on checkpoint_churn"),
    layer("firelib.heap_over_bucket", "ratio", "lower", "earn-or-delete evidence: heap kernel time over bucket, identical rasters"),
    layer("firelib.tiled_over_bucket", "ratio", "lower", "earn-or-delete evidence: tiled kernel time over bucket, identical rasters"),
    layer("firelib.arena_scratch_bytes", "B", "lower", "peak_rss_mib on landscape_xl_solo"),
    layer("firelib.arena_raster_bytes", "B", "lower", "peak_rss_mib on landscape_xl_solo"),
    layer("parworker.dispatch_us_per_task.serial", "us", "lower", "floor: a no-op task in the master"),
    layer("parworker.dispatch_us_per_task.worker-pool", "us", "lower", "evals_per_s on fleet_fused_percell; none on landscape_xl_solo"),
    layer("parworker.dispatch_us_per_task.rayon", "us", "lower", "earn-or-delete evidence against worker-pool"),
    layer("parworker.busy_share", "ratio", "higher", "evals_per_s on fleet_fused_percell"),
    layer("parworker.imbalance", "ratio", "lower", "step_latency_ms_p50 on fleet_fused_percell"),
    layer("evoalg.novelty_us_per_score", "us", "lower", "step_latency_ms_p50 on wire_small_mix"),
    layer("evoalg.novelty_set_rows", "count", "lower", "noveltySet rows the novelty probe scored against"),
    layer("evoalg.ga_self_us_per_eval", "us", "lower", "sessions_per_s on wire_small_mix"),
    layer("evoalg.de_self_us_per_eval", "us", "lower", "sessions_per_s on wire_small_mix"),
    layer("core.novelty_ga_self_us_per_eval", "us", "lower", "sessions_per_s on wire_small_mix"),
    layer("ess.step_ms", "ms", "lower", "step_latency_ms_p50 everywhere"),
    layer("ess.step_self_share", "ratio", "lower", "share of a step outside its evaluation batches: optimizer, statistical, calibration and prediction stages"),
    layer("ess.batch_size_p50", "count", "higher", "explains evals_per_s unfused against fused"),
    layer("ess.inline_batch_share", "ratio", "lower", "batches at or below the shared pool's inline threshold: they never reach a worker"),
    layer("ess.batches", "count", "lower", "batches the traced pass evaluated"),
    layer("ess.matrix_evals_per_s", "1/s", "higher", "evals_per_s on the unfused workloads"),
    layer("ess.fused_evals_per_s", "1/s", "higher", "evals_per_s on fleet_fused_percell"),
    layer("ess.statistical_stage_ms", "ms", "lower", "step_latency_ms_p50 on landscape_xl_solo"),
    layer("ess.calibration_ms", "ms", "lower", "step_latency_ms_p50 on landscape_xl_solo"),
    layer("service.round_ms", "ms", "lower", "step_latency_ms_p50 on wire_small_mix"),
    layer("service.round_self_us", "us", "lower", "scheduler time in a round outside the steps it ran"),
    layer("service.session_build_ms", "ms", "lower", "session_latency_ms_p50"),
    layer("service.restore_ms", "ms", "lower", "checkpoint cycle and sessions_per_s on checkpoint_churn"),
    layer("service.snapshot_encode_us", "us", "lower", "checkpoint cycle on checkpoint_churn"),
    layer("service.snapshot_decode_us", "us", "lower", "checkpoint cycle on checkpoint_churn"),
    layer("service.snapshot_bytes", "B", "lower", "checkpoint cycle on checkpoint_churn"),
    layer("service.jsonio_parse_mb_per_s", "MB/s", "higher", "sessions_per_s on wire_small_mix and checkpoint_churn"),
    layer("service.jsonio_encode_mb_per_s", "MB/s", "higher", "sessions_per_s on wire_small_mix and checkpoint_churn"),
    layer("service.request_decode_us", "us", "lower", "sessions_per_s on wire_small_mix and checkpoint_churn"),
    layer("service.frame_encode_us", "us", "lower", "sessions_per_s on wire_small_mix and checkpoint_churn"),
    layer("service.policy_plan_us.round-robin", "us", "lower", "step_latency_ms_p50 on wire_small_mix"),
    layer("service.policy_plan_us.weighted-fair-share", "us", "lower", "earn-or-delete evidence; not on the default path"),
    layer("service.policy_plan_us.deadline-first", "us", "lower", "earn-or-delete evidence; not on the default path"),
    layer("service.wire_overhead_share", "ratio", "lower", "sessions_per_s on wire_small_mix; about 0 on landscape_xl_solo"),
    layer("client.rtt_us", "us", "lower", "step_latency_ms_p50 on wire_small_mix"),
    layer("client.frames", "count", "lower", "frames one repetition put on the wire"),
    layer("trace.overhead_share", "ratio", "lower", "none: reported so traced numbers can be discounted"),
];

/// How long one run measures. Set by the 2-core reference box and the
/// driver's time cap (see README "Sizing").
pub const RUN_SECONDS: u64 = 25;

/// The contents of the repository's `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let defs = |metrics: &[Metric]| {
        Json::Arr(
            metrics
                .iter()
                .map(|m| {
                    let def = Json::obj()
                        .field("name", m.name)
                        .field("unit", m.unit)
                        .field("better", m.better);
                    match m.bound {
                        Some(b) => def.field("bound", b),
                        None => def,
                    }
                })
                .collect(),
        )
    };
    Json::obj()
        .field(
            "command",
            Json::Arr(command.iter().map(|s| Json::from(*s)).collect()),
        )
        .field("paths", Json::Arr(vec![Json::from("benchmark")]))
        .field("run_seconds", RUN_SECONDS)
        .field(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj().field("name", w.name).field("why", w.why))
                    .collect(),
            ),
        )
        .field("end_to_end", defs(&END_TO_END))
        .field("per_layer", defs(&PER_LAYER))
}

/// The metric glossary as a markdown table (the README's is this output).
pub fn glossary() -> String {
    let mut out = String::from("| metric | unit | better | bound | what it is / what it should move |\n|---|---|---|---|---|\n");
    for m in END_TO_END
        .iter()
        .chain(&END_TO_END_WHERE_PRODUCED)
        .chain(&PER_LAYER)
    {
        let bound = m
            .bound
            .map_or("-".to_string(), |b| format!("{:.0} %", b * 100.0));
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, bound, m.note
        ));
    }
    out
}
