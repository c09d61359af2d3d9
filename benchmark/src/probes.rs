//! Direct probes for the layers the span tree cannot isolate, and the
//! bare-scheduler pass the wire overhead is measured against. Every probe
//! calls a layer through its public functions on inputs sampled from the
//! workload (recorded batches, recorded wire lines, the script's sizes).

use crate::clock::now_ns;
use crate::trace::{RecordedBatch, Recorder, CASE_BUILD};
use crate::wire::{backend, pool_workers};
use crate::workload::{Golden, Slot, Workload};
use ess::calibration::skign_search;
use ess::fitness::{EvalBackend, SharedScenarioPool, StepContext, DEFAULT_INLINE_THRESHOLD};
use ess::stages::statistical_stage_genomes;
use ess_ns::{NoveltyGa, NoveltyGaConfig};
use ess_service::jsonio::Json;
use ess_service::proto::{Frame, Request};
use ess_service::{PolicyKind, Scheduler, SessionEvent, SessionId, SessionMeta, SessionSnapshot};
use evoalg::{BehaviourMatrix, DeConfig, DeEngine, GaConfig, GaEngine, NoveltyEngine};
use firelib::{Kernel, ScenarioSpace, SimArena, GENE_COUNT};
use parworker::WorkerPool;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Named measurements, filled by the probes and read out in catalog order.
pub type Metrics = HashMap<String, f64>;

/// Repeats `f` until `min_ms` have passed (at least three times); returns
/// `(iterations, elapsed seconds)`.
fn repeat_for(min_ms: u64, mut f: impl FnMut()) -> (usize, f64) {
    let start = now_ns();
    let mut iterations = 0;
    while iterations < 3 || now_ns() - start < min_ms * 1_000_000 {
        f();
        iterations += 1;
    }
    (iterations, (now_ns() - start) as f64 / 1e9)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now_ns();
    let value = f();
    (value, (now_ns() - start) as f64 / 1e9)
}

/// What the same sessions cost on a bare `Scheduler`: no wire, no JSON,
/// no client — the closed loop of `wire::run_repetition` as direct calls.
pub struct BarePass {
    pub wall_s: f64,
    pub round_ms: Vec<f64>,
    /// Round wall minus the steps it ran: the scheduler's own time. The
    /// steps of a fused round run concurrently, so there the longest step
    /// is what the round waited for.
    pub round_self_us: Vec<f64>,
    pub failures: Vec<String>,
}

pub fn bare_scheduler(workload: &Workload, script: &[Slot], golden: &Golden) -> BarePass {
    let mut pass = BarePass {
        wall_s: 0.0,
        round_ms: Vec::new(),
        round_self_us: Vec::new(),
        failures: Vec::new(),
    };
    let mut scheduler = Scheduler::with_policy(backend(), PolicyKind::RoundRobin);
    scheduler.set_fused(workload.fused);
    let mut live: HashMap<SessionId, usize> = HashMap::new();
    let mut next = 0;
    let start = now_ns();
    loop {
        while next < script.len() && live.len() < workload.concurrency {
            match scheduler.submit(&script[next].spec()) {
                Ok(ids) => live.extend(ids.into_iter().map(|id| (id, next))),
                Err(e) => pass.failures.push(format!("{:?}: {e}", script[next])),
            }
            next += 1;
        }
        if live.is_empty() {
            break;
        }
        let (events, round_s) = timed(|| scheduler.round());
        let step_ms: Vec<f64> = events
            .iter()
            .filter_map(|(_, e)| match e {
                SessionEvent::StepCompleted(s) => Some(s.wall_ms),
                _ => None,
            })
            .collect();
        let stepped_ms = if workload.fused {
            step_ms.iter().copied().fold(0.0, f64::max)
        } else {
            step_ms.iter().sum()
        };
        pass.round_ms.push(round_s * 1e3);
        pass.round_self_us.push((round_s * 1e3 - stepped_ms) * 1e3);
        for (id, event) in events {
            if !event.is_terminal() {
                continue;
            }
            let Some(slot) = live.remove(&id) else {
                continue;
            };
            if let Err(e) = golden.check_event(&script[slot], &event) {
                pass.failures.push(format!("bare scheduler {e}"));
            }
        }
        scheduler.take_outcomes();
        if workload.churn {
            let ids: Vec<SessionId> = scheduler.live().map(|(id, _)| id).collect();
            for id in ids {
                let snapshot = scheduler
                    .live()
                    .find(|(sid, _)| *sid == id)
                    .and_then(|(_, s)| s.snapshot().ok());
                let resumed = snapshot.and_then(|s| s.restore_on(scheduler.pool()).ok());
                match (resumed, live.remove(&id)) {
                    (Some(session), Some(slot)) => {
                        scheduler.cancel(id);
                        live.insert(scheduler.submit_session(session), slot);
                    }
                    _ => pass
                        .failures
                        .push(format!("session {id}: checkpoint failed")),
                }
            }
            scheduler.take_outcomes();
        }
    }
    pass.wall_s = (now_ns() - start) as f64 / 1e9;
    pass
}

/// `Json::parse`, `Request::from_json` and `Frame::to_json` over the
/// request and frame lines the end-to-end pass recorded.
pub fn jsonio(requests: &[String], frames: &[String], out: &mut Metrics) -> Result<(), String> {
    let lines: Vec<&String> = requests.iter().chain(frames).collect();
    let bytes: usize = lines.iter().map(|l| l.len()).sum();
    if bytes == 0 {
        return Err("no wire lines were recorded".into());
    }
    let parse_all = || -> Result<Vec<Json>, String> {
        lines
            .iter()
            .map(|l| Json::parse(l).map_err(|e| format!("recorded line does not parse: {e}")))
            .collect()
    };
    let parsed = parse_all()?;
    let (n, s) = repeat_for(20, || {
        black_box(parse_all().ok());
    });
    out.insert(
        "service.jsonio_parse_mb_per_s".into(),
        (bytes * n) as f64 / 1e6 / s,
    );
    let (n, s) = repeat_for(20, || {
        for json in &parsed {
            black_box(json.to_string());
        }
    });
    out.insert(
        "service.jsonio_encode_mb_per_s".into(),
        (bytes * n) as f64 / 1e6 / s,
    );
    let request_json = &parsed[..requests.len()];
    let (n, s) = repeat_for(20, || {
        for json in request_json {
            black_box(Request::from_json(json).ok());
        }
    });
    out.insert(
        "service.request_decode_us".into(),
        s * 1e6 / (n * request_json.len().max(1)) as f64,
    );
    let typed: Vec<Frame> = parsed[requests.len()..]
        .iter()
        .map(Frame::from_json)
        .collect::<Result<_, _>>()?;
    let (n, s) = repeat_for(20, || {
        for frame in &typed {
            black_box(frame.to_json().to_string());
        }
    });
    out.insert(
        "service.frame_encode_us".into(),
        s * 1e6 / (n * typed.len().max(1)) as f64,
    );
    Ok(())
}

/// `SchedulePolicy::plan` over 64 live sessions, per policy.
pub fn policies(out: &mut Metrics) {
    let metas: Vec<SessionMeta> = (0..64u64)
        .map(|i| SessionMeta {
            id: i + 1,
            completed: (i % 5) as usize,
            total_steps: 4,
            evaluations_spent: 100 * (i % 5),
            weight: 1.0 + (i % 3) as f64,
            deadline: (i % 2 == 1).then(|| Duration::from_millis(600_000 - i)),
        })
        .collect();
    for kind in PolicyKind::ALL {
        let mut policy = kind.build();
        let (n, s) = repeat_for(10, || {
            black_box(policy.plan(black_box(&metas)));
        });
        out.insert(
            format!("service.policy_plan_us.{}", kind.name()),
            s * 1e6 / n as f64,
        );
    }
}

/// Backend dispatch cost: a no-op work function through each backend at
/// the workload's median batch size.
pub fn dispatch(batch: usize, out: &mut Metrics) {
    let workers = pool_workers();
    for (label, spec) in [
        ("serial", EvalBackend::Serial),
        ("worker-pool", EvalBackend::WorkerPool(workers)),
        ("rayon", EvalBackend::Rayon(workers)),
    ] {
        let mut backend = spec.build(|_| (), |_: &mut (), x: u64| x);
        let (n, s) = repeat_for(20, || {
            black_box(backend.map((0..batch as u64).collect()));
        });
        out.insert(
            format!("parworker.dispatch_us_per_task.{label}"),
            s * 1e6 / (n * batch) as f64,
        );
    }
}

/// A cheap deterministic pseudo-fitness below every stopping threshold,
/// so the optimizer probes run their full generation budget and time only
/// their own bookkeeping.
fn zero_cost(genomes: &[Vec<f64>]) -> Vec<f64> {
    genomes
        .iter()
        .map(|g| 0.9 * g.iter().sum::<f64>() / g.len() as f64)
        .collect()
}

const GENERATIONS: u32 = 12;

/// Optimizer self time per evaluation (GA, DE, Algorithm 1) and the
/// novelty engine's cost per score at the workload's noveltySet size.
pub fn optimizers(population: usize, novelty_rows: usize, out: &mut Metrics) {
    let mut seed = 0;
    let mut evals = 0u64;
    let (_, s) = repeat_for(20, || {
        seed += 1;
        let mut engine = GaEngine::new(
            GENE_COUNT,
            GaConfig {
                population_size: population,
                offspring: population,
                seed,
                ..GaConfig::default()
            },
        );
        engine.evaluate_initial(&mut zero_cost);
        for _ in 0..GENERATIONS {
            engine.step(&mut zero_cost);
        }
        evals += engine.evaluations();
    });
    out.insert("evoalg.ga_self_us_per_eval".into(), s * 1e6 / evals as f64);

    let (mut seed, mut evals) = (0, 0u64);
    let (_, s) = repeat_for(20, || {
        seed += 1;
        let mut engine = DeEngine::new(
            GENE_COUNT,
            DeConfig {
                population_size: population.max(4),
                seed,
                ..DeConfig::default()
            },
        );
        engine.evaluate_initial(&mut zero_cost);
        for _ in 0..GENERATIONS {
            engine.step(&mut zero_cost);
        }
        evals += engine.evaluations();
    });
    out.insert("evoalg.de_self_us_per_eval".into(), s * 1e6 / evals as f64);

    let (mut seed, mut evals) = (0, 0u64);
    let (_, s) = repeat_for(20, || {
        seed += 1;
        let engine = NoveltyGa::new(
            GENE_COUNT,
            NoveltyGaConfig {
                population_size: population,
                offspring: population,
                max_generations: GENERATIONS,
                archive_capacity: 2 * population,
                best_set_capacity: (population * 3 / 4).max(4),
                seed,
                ..NoveltyGaConfig::default()
            },
        );
        evals += engine.run(&mut zero_cost).evaluations;
    });
    out.insert(
        "core.novelty_ga_self_us_per_eval".into(),
        s * 1e6 / evals as f64,
    );

    // Fitness-difference behaviours (Eq. 2) are one-dimensional; the
    // subjects are population ∪ offspring, half of the noveltySet.
    let mut reference = BehaviourMatrix::with_dim(1);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..novelty_rows {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        reference.push(&[(x >> 11) as f64 / (1u64 << 53) as f64]);
    }
    let subjects = novelty_rows / 2;
    let engine = NoveltyEngine::default();
    let (n, s) = repeat_for(20, || {
        black_box(engine.novelty_scores(black_box(&reference), subjects, 5));
    });
    out.insert(
        "evoalg.novelty_us_per_score".into(),
        s * 1e6 / (n * subjects) as f64,
    );
    out.insert("evoalg.novelty_set_rows".into(), novelty_rows as f64);
}

/// Distinct cases among `slots`, first occurrence order.
fn distinct_cases(slots: &[Slot]) -> Vec<&Slot> {
    let mut firsts: Vec<&Slot> = Vec::new();
    for slot in slots {
        if !firsts.iter().any(|f| f.combo.case == slot.combo.case) {
            firsts.push(slot);
        }
    }
    firsts
}

/// Case build, snapshot encode/decode and restore, once per distinct case
/// of the traced sessions.
pub fn checkpoints(slots: &[Slot], recorder: &Recorder, out: &mut Metrics) -> Result<(), String> {
    let (mut build_ms, mut restore_ms) = (Vec::new(), Vec::new());
    let (mut encode_us, mut decode_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (i, slot) in distinct_cases(slots).into_iter().enumerate() {
        let span = recorder.open(CASE_BUILD, None, i as u32, 0);
        let (case, s) = timed(|| ess::cases::by_name(slot.combo.case));
        recorder.close(span);
        drop(case.ok_or(format!("unknown case {}", slot.combo.case))?);
        build_ms.push(s * 1e3);

        let mut session = slot.spec().session().map_err(|e| e.to_string())?;
        session.advance();
        let snapshot = session.snapshot().map_err(|e| e.to_string())?;
        let text = snapshot.to_json().to_string();
        bytes.push(text.len() as f64);
        let (n, s) = repeat_for(5, || {
            black_box(snapshot.to_json().to_string());
        });
        encode_us.push(s * 1e6 / n as f64);
        let (n, s) = repeat_for(5, || {
            black_box(
                Json::parse(&text)
                    .ok()
                    .map(|j| SessionSnapshot::from_json(&j)),
            );
        });
        decode_us.push(s * 1e6 / n as f64);
        let (restored, s) = timed(|| snapshot.restore());
        restored.map_err(|e| format!("restore {slot:?}: {e}"))?;
        restore_ms.push(s * 1e3);
    }
    let mean = |v: &[f64]| crate::stats::mean(v).unwrap_or(0.0);
    out.insert("firelib.case_build_ms".into(), mean(&build_ms));
    out.insert("service.restore_ms".into(), mean(&restore_ms));
    out.insert("service.snapshot_encode_us".into(), mean(&encode_us));
    out.insert("service.snapshot_decode_us".into(), mean(&decode_us));
    out.insert("service.snapshot_bytes".into(), mean(&bytes));
    Ok(())
}

/// One recorded batch per distinct step context, at most `limit`.
fn distinct_contexts(batches: &[RecordedBatch], limit: usize) -> Vec<&RecordedBatch> {
    let mut picked: Vec<&RecordedBatch> = Vec::new();
    for b in batches {
        if picked.len() < limit && !picked.iter().any(|p| Arc::ptr_eq(&p.ctx, &b.ctx)) {
            picked.push(b);
        }
    }
    picked
}

/// The per-step stages outside the optimizer: one statistical-stage
/// fire-line simulation, the whole statistical stage over a result set,
/// and the calibration search, on contexts the traced pass saw.
pub fn stages(batches: &[RecordedBatch], out: &mut Metrics) -> Result<(), String> {
    let (mut line_us, mut stat_ms, mut cal_ms) = (Vec::new(), Vec::new(), Vec::new());
    for b in distinct_contexts(batches, 4) {
        let ctx = &b.ctx;
        let scenario = ScenarioSpace.decode(b.genomes.row(0));
        let (line, s) = timed(|| {
            ctx.sim()
                .simulate_fire_line(&scenario, ctx.from_line(), ctx.t0(), ctx.duration())
        });
        black_box(line);
        line_us.push(s * 1e6);
        let result_set: Vec<Vec<f64>> = b.genomes.rows().take(8).map(<[f64]>::to_vec).collect();
        let (matrix, s) = timed(|| statistical_stage_genomes(ctx, &result_set));
        stat_ms.push(s * 1e3);
        let (cal, s) = timed(|| skign_search(&matrix, ctx.target_line(), Some(ctx.from_line())));
        black_box(cal);
        cal_ms.push(s * 1e3);
    }
    let mean = |v: &[f64]| crate::stats::mean(v).ok_or("the traced pass recorded no batch");
    out.insert("firelib.fire_line_us_per_call".into(), mean(&line_us)?);
    out.insert("ess.statistical_stage_ms".into(), mean(&stat_ms)?);
    out.insert("ess.calibration_ms".into(), mean(&cal_ms)?);
    Ok(())
}

/// The same sampled scenarios through each propagation kernel, rasters
/// asserted identical: what the heap and tiled kernels cost relative to
/// the default bucket kernel on this workload's terrain.
pub fn kernels(batches: &[RecordedBatch], out: &mut Metrics) -> Result<(), String> {
    let mut totals = [0.0f64; 3];
    let kinds = [Kernel::Bucket, Kernel::Heap, Kernel::tiled_auto()];
    for b in distinct_contexts(batches, 2) {
        let ctx = &b.ctx;
        let terrain = ctx.sim().terrain();
        let (rows, cols) = (terrain.rows(), terrain.cols());
        let samples = if rows * cols > 500_000 { 3 } else { 8 };
        let mut arenas: Vec<SimArena> = kinds.iter().map(|_| SimArena::new(rows, cols)).collect();
        for (i, genes) in b.genomes.rows().take(samples).enumerate() {
            let scenario = ScenarioSpace.decode(genes);
            let mut reference = None;
            for (k, kernel) in kinds.iter().enumerate() {
                let run = |arena: &mut SimArena| {
                    let start = now_ns();
                    ctx.sim().simulate_arena_kernel(
                        &scenario,
                        ctx.from_line(),
                        ctx.t0(),
                        ctx.duration(),
                        arena,
                        *kernel,
                    );
                    (now_ns() - start) as f64
                };
                if i == 0 {
                    run(&mut arenas[k]); // untimed: grows the arena's buffers
                }
                totals[k] += run(&mut arenas[k]);
                match &reference {
                    None => reference = Some(arenas[k].map().clone()),
                    Some(r) if r == arenas[k].map() => {}
                    Some(_) => return Err(format!("{kernel} raster differs from bucket")),
                }
            }
        }
    }
    if totals[0] <= 0.0 {
        return Err("the traced pass recorded no batch".into());
    }
    out.insert("firelib.heap_over_bucket".into(), totals[1] / totals[0]);
    out.insert("firelib.tiled_over_bucket".into(), totals[2] / totals[0]);
    Ok(())
}

type Arenas = Vec<((usize, usize), SimArena)>;

/// The recorded batches replayed on the real evaluation paths: the shared
/// pool one batch at a time and fused `concurrency` at a time (results
/// checked against the traced pass), and a plain `WorkerPool` for its
/// busy-time counters.
pub fn replay(
    batches: &[RecordedBatch],
    concurrency: usize,
    out: &mut Metrics,
) -> Result<(), String> {
    let evals: usize = batches.iter().map(|b| b.genomes.len()).sum();
    if evals == 0 {
        return Err("the traced pass recorded no batch".into());
    }
    let pool = SharedScenarioPool::new(backend());
    let (results, s) = timed(|| {
        batches
            .iter()
            .map(|b| pool.evaluate_matrix(&b.ctx, &b.genomes))
            .collect::<Vec<_>>()
    });
    out.insert("ess.matrix_evals_per_s".into(), evals as f64 / s);
    let (fused, s) = timed(|| {
        batches
            .chunks(concurrency.max(1))
            .flat_map(|wave| {
                let refs: Vec<(Arc<StepContext>, &evoalg::GenomeMatrix)> = wave
                    .iter()
                    .map(|b| (Arc::clone(&b.ctx), &b.genomes))
                    .collect();
                pool.evaluate_fused(&refs)
            })
            .collect::<Vec<_>>()
    });
    out.insert("ess.fused_evals_per_s".into(), evals as f64 / s);
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
    for (i, b) in batches.iter().enumerate() {
        if bits(&results[i]) != bits(&b.fitness) || bits(&fused[i]) != bits(&b.fitness) {
            return Err(format!(
                "batch {i}: pool fitness differs from the traced pass"
            ));
        }
    }

    let workers = pool_workers();
    let mut farm: WorkerPool<(Arc<StepContext>, Vec<f64>), f64> = WorkerPool::new(
        workers,
        |_| Arenas::new(),
        |arenas: &mut Arenas, (ctx, genes): (Arc<StepContext>, Vec<f64>)| {
            let terrain = ctx.sim().terrain();
            let shape = (terrain.rows(), terrain.cols());
            let i = match arenas.iter().position(|(s, _)| *s == shape) {
                Some(i) => i,
                None => {
                    arenas.push((shape, SimArena::new(shape.0, shape.1)));
                    arenas.len() - 1
                }
            };
            ctx.fitness_with(&ScenarioSpace.decode(&genes), &mut arenas[i].1)
        },
    );
    let ((), s) = timed(|| {
        for b in batches {
            let tasks = b
                .genomes
                .rows()
                .map(|g| (Arc::clone(&b.ctx), g.to_vec()))
                .collect();
            black_box(farm.map(tasks));
        }
    });
    let stats = farm.stats();
    out.insert(
        "parworker.busy_share".into(),
        stats.total_busy_nanos() as f64 / 1e9 / (workers as f64 * s),
    );
    out.insert("parworker.imbalance".into(), stats.imbalance());
    Ok(())
}

/// Batch-size counts of the traced pass against the shared pool's inline
/// threshold.
pub fn batch_counts(sizes: &[usize], out: &mut Metrics) -> Result<usize, String> {
    let as_f64: Vec<f64> = sizes.iter().map(|&s| s as f64).collect();
    let p50 = crate::stats::percentile(&as_f64, 50.0).ok_or("the traced pass ran no batch")?;
    let inline = sizes
        .iter()
        .filter(|&&s| s <= DEFAULT_INLINE_THRESHOLD)
        .count();
    out.insert("ess.batch_size_p50".into(), p50);
    out.insert(
        "ess.inline_batch_share".into(),
        inline as f64 / sizes.len() as f64,
    );
    out.insert("ess.batches".into(), sizes.len() as f64);
    Ok(p50 as usize)
}
