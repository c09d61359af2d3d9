//! The experiment implementations behind the `harness` binary — one
//! function per table/figure of DESIGN.md §4.

use crate::methods::Method;
use ess::calibration::skign_search;
use ess::cases::{self, BurnCase};
use ess::fitness::{EvalBackend, ScenarioEvaluator, StepContext};
use ess::pipeline::{PredictionPipeline, RunReport};
use ess::report::{f2, f4, TextTable};
use ess::stages::statistical_stage_genomes;
use ess_ns::{
    BehaviourSpace, EssNs, EssNsConfig, InclusionPolicy, NoveltyGa, NoveltyGaConfig, ScoringPolicy,
};
use ess_service::jsonio::Json;
use evoalg::benchmarks::{deceptive_trap, two_peaks};
use evoalg::{BatchEvaluator, GaConfig, GaEngine};
use firelib::sim::centre_ignition;
use firelib::{FireSim, Kernel, Scenario, ScenarioSpace, Terrain};
use parworker::{SpeedupRow, Stopwatch};
use std::sync::Arc;

/// T1 — regenerates Table I from the in-code parameter definitions.
pub fn table1() -> TextTable {
    let mut t = TextTable::new(["Parameter", "Description", "Range", "Unit"]);
    for d in ScenarioSpace.params() {
        let range = if d.integer {
            format!("{}-{}", d.lo as i64, d.hi as i64)
        } else {
            format!("{}-{}", d.lo, d.hi)
        };
        t.row([
            d.name.to_string(),
            d.description.to_string(),
            range,
            d.unit.to_string(),
        ]);
    }
    t
}

/// Builds the step-1 evaluation context of a case.
fn step1_context(case: &BurnCase) -> Arc<StepContext> {
    Arc::new(StepContext::new(
        Arc::clone(&case.sim),
        case.fire_lines[0].clone(),
        case.fire_lines[1].clone(),
        case.times[0],
        case.times[1],
    ))
}

/// F1 — a narrated trace of one ESS prediction step (the Fig. 1 dataflow).
pub fn fig1_trace() -> String {
    let case = cases::grass_uniform();
    let mut out = String::new();
    out.push_str(&format!(
        "Fig. 1 dataflow trace — one ESS prediction step on '{}'\n\n",
        case.name
    ));
    let ctx = step1_context(&case);
    out.push_str(&format!(
        "[input]      RFL_0: {} burned cells at t={} min; RFL_1: {} cells at t={} min\n",
        case.fire_lines[0].burned_area(),
        case.times[0],
        case.fire_lines[1].burned_area(),
        case.times[1],
    ));

    // OS-Master / OS-Workers: fitness GA over scenarios (PV{1..n} → FS → FF).
    let mut evaluator = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::WorkerPool(2));
    let mut ess = Method::Ess.make(1.0);
    let outcome = ess.optimize(&mut evaluator, 1);
    out.push_str(&format!(
        "[OS]         PEA evolved {} generations; {} scenario evaluations scattered to 2 workers; best FF = {}\n",
        outcome.generations,
        outcome.evaluations,
        f4(outcome.best_fitness),
    ));
    out.push_str(&format!(
        "[OS output]  PV{{1..{}}}: the final population (ESS result-set policy)\n",
        outcome.result_set.len()
    ));

    // SS: aggregation into the probability matrix.
    let matrix = statistical_stage_genomes(&ctx, &outcome.result_set);
    out.push_str(&format!(
        "[SS]         aggregated {} simulated maps into an ignition-probability matrix ({} distinct levels)\n",
        matrix.samples(),
        matrix.distinct_levels().len(),
    ));

    // CS: SKign.
    let cal = skign_search(&matrix, &case.fire_lines[1], Some(&case.fire_lines[0]));
    out.push_str(&format!(
        "[CS]         SKign over {} candidate thresholds → Kign = {} (fitness {})\n",
        cal.curve.len(),
        f4(cal.kign),
        f4(cal.fitness),
    ));

    // PS: prediction for t2 with the calibrated Kign.
    let next_ctx = StepContext::new(
        Arc::clone(&case.sim),
        case.fire_lines[1].clone(),
        case.fire_lines[2].clone(),
        case.times[1],
        case.times[2],
    );
    let pred_matrix = statistical_stage_genomes(&next_ctx, &outcome.result_set);
    let ps = ess::calibration::PredictionStage::new(cal.kign);
    let quality = ps.quality(&pred_matrix, &case.fire_lines[2], Some(&case.fire_lines[1]));
    out.push_str(&format!(
        "[PS]         PFL_2 = threshold(matrix_2, Kign) → prediction quality vs RFL_2 = {}\n",
        f4(quality),
    ));
    out
}

/// F2 — the SKign calibration curve (threshold vs fitness) on one step.
pub fn fig2_kign() -> TextTable {
    let case = cases::grass_uniform();
    let ctx = step1_context(&case);
    let mut evaluator = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::Serial);
    let mut essns = Method::EssNs.make(1.0);
    let outcome = essns.optimize(&mut evaluator, 2);
    let matrix = statistical_stage_genomes(&ctx, &outcome.result_set);
    let cal = skign_search(&matrix, &case.fire_lines[1], Some(&case.fire_lines[0]));
    let mut t = TextTable::new(["threshold", "fitness", "chosen"]);
    for (k, f) in &cal.curve {
        t.row([
            f4(*k),
            f4(*f),
            if (*k - cal.kign).abs() < 1e-12 {
                "<= Kign"
            } else {
                ""
            }
            .to_string(),
        ]);
    }
    t
}

/// F3 — a narrated trace of one ESS-NS step (the Fig. 3 dataflow), showing
/// the NS-specific blocks: ρ(x), the archive, and bestSet.
pub fn fig3_trace() -> String {
    let case = cases::grass_uniform();
    let ctx = step1_context(&case);
    let mut out = String::new();
    out.push_str(&format!(
        "Fig. 3 dataflow trace — one ESS-NS prediction step on '{}'\n\n",
        case.name
    ));
    let cfg = NoveltyGaConfig {
        max_generations: 10,
        ..NoveltyGaConfig::default()
    };
    let engine = NoveltyGa::new(firelib::GENE_COUNT, cfg);
    let mut evaluator = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::WorkerPool(2));
    let outcome = engine.run(&mut evaluator);
    out.push_str(
        "[OS: NS-based GA] per-generation state (novelty-driven; fitness only recorded)\n",
    );
    out.push_str(
        "gen  maxFitness(bestSet)  meanNovelty(pop)  meanFitness(pop)  archive  bestSet\n",
    );
    for h in &outcome.history {
        out.push_str(&format!(
            "{:<4} {:<20} {:<17} {:<17} {:<8} {}\n",
            h.generation,
            f4(h.max_fitness),
            f4(h.mean_novelty),
            f4(h.mean_fitness),
            h.archive_len,
            h.best_set_len,
        ));
    }
    out.push_str(&format!(
        "\n[OS output]  bestSet: {} accumulated high-fitness scenarios (NOT the final population)\n",
        outcome.best_set.len()
    ));
    let genomes = outcome.best_set.genomes();
    let matrix = statistical_stage_genomes(&ctx, &genomes);
    let cal = skign_search(&matrix, &case.fire_lines[1], Some(&case.fire_lines[0]));
    out.push_str(&format!(
        "[SS]         {} maps aggregated; [CS] Kign = {} (fitness {})\n",
        matrix.samples(),
        f4(cal.kign),
        f4(cal.fitness)
    ));
    let div = evoalg::diversity::report(&genomes);
    out.push_str(&format!(
        "[diversity]  result set: mean pairwise distance {}, {} distinct of {}\n",
        f4(div.mean_pairwise),
        div.distinct,
        div.size
    ));
    out
}

/// Runs one method over one case for several seeds.
pub fn run_replicates(
    method: Method,
    case: &BurnCase,
    seeds: &[u64],
    scale: f64,
    backend: EvalBackend,
    kernel: Kernel,
) -> Vec<RunReport> {
    seeds
        .iter()
        .map(|&seed| {
            let mut opt = method.make(scale);
            PredictionPipeline::new(backend, seed)
                .with_kernel(kernel)
                .run(case, opt.as_mut())
        })
        .collect()
}

fn mean_of(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// E1 — prediction quality per step, per case, per method (the headline
/// comparison; reproduces the quality-per-step evaluation protocol of the
/// predecessor systems). `backend` selects where scenario batches run;
/// results are backend-independent (only wall time changes).
pub fn e1_quality(
    seeds: &[u64],
    scale: f64,
    case_names: &[&str],
    backend: EvalBackend,
    kernel: Kernel,
) -> TextTable {
    let mut t = TextTable::new([
        "case",
        "method",
        "step",
        "quality_mean",
        "quality_min",
        "quality_max",
        "evals_mean",
    ]);
    for name in case_names {
        let case = cases::by_name(name).unwrap_or_else(|| panic!("unknown case {name}"));
        for method in Method::ALL {
            let reports = run_replicates(method, &case, seeds, scale, backend, kernel);
            // Per predicted instant: collect quality across seeds.
            let n_steps = reports[0].steps.len();
            for si in 0..n_steps {
                let qs: Vec<f64> = reports.iter().filter_map(|r| r.steps[si].quality).collect();
                if qs.is_empty() {
                    continue; // the first step has no prediction
                }
                let evals: Vec<f64> = reports
                    .iter()
                    .map(|r| r.steps[si].evaluations as f64)
                    .collect();
                t.row([
                    case.name.to_string(),
                    method.name().to_string(),
                    format!("t{}", reports[0].steps[si].step + 1),
                    f4(mean_of(&qs)),
                    f4(qs.iter().copied().fold(f64::INFINITY, f64::min)),
                    f4(qs.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                    f2(mean_of(&evals)),
                ]);
            }
            // Summary row.
            let means: Vec<f64> = reports.iter().map(RunReport::mean_quality).collect();
            t.row([
                case.name.to_string(),
                method.name().to_string(),
                "mean".to_string(),
                f4(mean_of(&means)),
                f4(means.iter().copied().fold(f64::INFINITY, f64::min)),
                f4(means.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                f2(mean_of(
                    &reports
                        .iter()
                        .map(|r| r.total_evaluations() as f64)
                        .collect::<Vec<_>>(),
                )),
            ]);
        }
    }
    t
}

/// E2 — diversity of the result set fed to the Statistical Stage.
pub fn e2_diversity(
    seeds: &[u64],
    scale: f64,
    case_names: &[&str],
    backend: EvalBackend,
    kernel: Kernel,
) -> TextTable {
    let mut t = TextTable::new([
        "case",
        "method",
        "mean_pairwise_dist",
        "mean_gene_std",
        "distinct_frac",
        "fitness_iqr_of_set",
    ]);
    for name in case_names {
        let case = cases::by_name(name).unwrap_or_else(|| panic!("unknown case {name}"));
        for method in Method::ALL {
            let reports = run_replicates(method, &case, seeds, scale, backend, kernel);
            let mut pair = Vec::new();
            let mut gstd = Vec::new();
            let mut dfrac = Vec::new();
            for r in &reports {
                for s in &r.steps {
                    pair.push(s.diversity.mean_pairwise);
                    gstd.push(s.diversity.mean_gene_std);
                    dfrac.push(s.diversity.distinct as f64 / s.diversity.size.max(1) as f64);
                }
            }
            // Fitness IQR of the result set on the first step of the first
            // seed (re-evaluated): spread of the *scores* in the set.
            let ctx = step1_context(&case);
            let mut opt = method.make(scale);
            let mut ev = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::Serial);
            let out = opt.optimize(&mut ev, seeds[0]);
            let fits = ev.evaluate(&out.result_set);
            t.row([
                case.name.to_string(),
                method.name().to_string(),
                f4(mean_of(&pair)),
                f4(mean_of(&gstd)),
                f4(mean_of(&dfrac)),
                f4(landscape::metrics::iqr(&fits)),
            ]);
        }
    }
    t
}

/// Builds the E3 scaling workload: a deployment-scale raster (128×128,
/// hour-long step) so one simulation costs milliseconds, like the
/// predecessor systems' maps — on toy grids the task farm's channel
/// overhead would dominate and hide the scheduling behaviour.
fn speedup_context() -> Arc<StepContext> {
    let n = 128usize;
    let sim = Arc::new(FireSim::new(Terrain::uniform(n, n, 100.0)));
    let ignition = centre_ignition(n, n);
    let truth = Scenario {
        wind_speed_mph: 10.0,
        wind_dir_deg: 45.0,
        ..Scenario::reference()
    };
    let target = sim.simulate_fire_line(&truth, &ignition, 0.0, 60.0);
    Arc::new(StepContext::new(sim, ignition, target, 0.0, 60.0))
}

/// E3 — Master/Worker scaling of one Optimization Stage. This is the
/// apples-to-apples backend comparison: every configuration runs the
/// identical search (bit-identical fitness values), so the table isolates
/// pure scheduling cost.
pub fn e3_speedup(worker_counts: &[usize]) -> TextTable {
    let ctx = speedup_context();
    let run_with = |backend: EvalBackend| -> f64 {
        let mut opt = Method::EssNs.make(1.0);
        let mut ev = ScenarioEvaluator::new(Arc::clone(&ctx), backend);
        let sw = Stopwatch::start();
        let _ = opt.optimize(&mut ev, 99);
        sw.elapsed_ms()
    };
    // Warm-up (page in the simulator paths).
    let _ = run_with(EvalBackend::Serial);
    let baseline_ms = run_with(EvalBackend::Serial);
    let baseline = std::time::Duration::from_secs_f64(baseline_ms / 1e3);

    let mut t = TextTable::new(["backend", "workers", "wall_ms", "speedup", "efficiency"]);
    t.row([
        "serial".to_string(),
        "1".to_string(),
        f2(baseline_ms),
        f2(1.0),
        f2(1.0),
    ]);
    for &w in worker_counts {
        for backend in [EvalBackend::WorkerPool(w), EvalBackend::Rayon(w)] {
            let ms = run_with(backend);
            let row = SpeedupRow::new(w, std::time::Duration::from_secs_f64(ms / 1e3), baseline);
            t.row([
                backend.name(),
                w.to_string(),
                f2(ms),
                f2(row.speedup),
                f2(row.efficiency),
            ]);
        }
    }
    t
}

/// E4 — simulator throughput (cells/s) across grid sizes and fuel models.
pub fn e4_throughput() -> TextTable {
    let mut t = TextTable::new(["grid", "fuel_model", "wall_ms_per_sim", "kcells_per_s"]);
    for &n in &[32usize, 64, 128] {
        for &model in &[1u8, 4, 10] {
            let sim = FireSim::new(Terrain::uniform(n, n, 100.0));
            let scenario = Scenario {
                model,
                wind_speed_mph: 10.0,
                ..Scenario::reference()
            };
            let ignition = centre_ignition(n, n);
            // Warm-up + measure.
            let _ = sim.simulate(&scenario, &ignition, 0.0, 500.0);
            let reps = 20;
            let sw = Stopwatch::start();
            for _ in 0..reps {
                std::hint::black_box(sim.simulate(&scenario, &ignition, 0.0, 500.0));
            }
            let ms = sw.elapsed_ms() / reps as f64;
            let kcps = (n * n) as f64 / ms; // cells per ms = kcells/s
            t.row([
                format!("{n}x{n}"),
                format!("NFFL{model:02}"),
                f4(ms),
                f2(kcps),
            ]);
        }
    }
    t
}

/// E5 — the §II-C exploration argument at equal evaluation budgets.
///
/// Each algorithm is judged by the **result set** it would hand to the
/// Statistical Stage — the NS-GA's `bestSet`, the fitness GA's final
/// population — because that set is what the ESS systems consume. Success
/// per function:
///
/// * `sphere` / `trap` / `two_peaks`: the set contains a global optimum
///   (the conventional success criterion);
/// * `twin_basins`: the set covers **both** fitness-equal basins — the
///   uncertainty-reduction property ("different solutions may be
///   genotypically far apart in the search space, but may still have
///   acceptable fitness values that contribute to the prediction",
///   §II-B).
pub fn e5_deceptive(seeds: &[u64]) -> TextTable {
    use evoalg::benchmarks::{covers_both_basins, twin_basins};
    let mut t = TextTable::new([
        "function",
        "algorithm",
        "best_fitness_mean",
        "set_success_rate",
        "evaluations",
    ]);
    type SetPredicate = Box<dyn Fn(&[Vec<f64>]) -> bool>;
    type Objective = (
        &'static str,
        Box<dyn Fn(&[f64]) -> f64>,
        SetPredicate,
        usize,
    );
    let objectives: Vec<Objective> = vec![
        (
            "sphere(6)",
            Box::new(evoalg::benchmarks::sphere),
            Box::new(|set: &[Vec<f64>]| set.iter().any(|g| evoalg::benchmarks::sphere(g) > 0.995)),
            6,
        ),
        (
            "trap(16,b=4)",
            Box::new(|g: &[f64]| deceptive_trap(g, 4)),
            Box::new(|set: &[Vec<f64>]| set.iter().any(|g| evoalg::benchmarks::trap_is_optimal(g))),
            16,
        ),
        (
            "two_peaks(4)",
            Box::new(|g: &[f64]| two_peaks(g, 0.6)),
            Box::new(|set: &[Vec<f64>]| {
                set.iter()
                    .any(|g| evoalg::benchmarks::two_peaks_is_optimal(g, 0.05))
            }),
            4,
        ),
        (
            "twin_basins(2)",
            Box::new(twin_basins),
            Box::new(|set: &[Vec<f64>]| covers_both_basins(set)),
            2,
        ),
    ];
    let gens = 60u32;
    for (fname, f, set_success, dims) in &objectives {
        // --- NS, with the paper's fitness-difference behaviour (Eq. 2) and
        // with the standard genotypic behaviour (ablation) ---
        for (label, behaviour) in [
            ("NS-GA (Eq.2 dist)", BehaviourSpace::Fitness),
            ("NS-GA (genotype)", BehaviourSpace::Genotype),
        ] {
            let mut ns_best = Vec::new();
            let mut ns_success = 0usize;
            let mut evals = 0u64;
            for &seed in seeds {
                let cfg = NoveltyGaConfig {
                    population_size: 24,
                    offspring: 24,
                    max_generations: gens,
                    fitness_threshold: 2.0,
                    behaviour,
                    seed,
                    ..NoveltyGaConfig::default()
                };
                let mut eval = |gs: &[Vec<f64>]| -> Vec<f64> { gs.iter().map(|g| f(g)).collect() };
                let out = NoveltyGa::new(*dims, cfg).run(&mut eval);
                ns_best.push(out.best_set.max_fitness());
                if set_success(&out.best_set.genomes()) {
                    ns_success += 1;
                }
                evals = out.evaluations;
            }
            t.row([
                fname.to_string(),
                label.to_string(),
                f4(mean_of(&ns_best)),
                f2(ns_success as f64 / seeds.len() as f64),
                evals.to_string(),
            ]);
        }
        // --- fitness GA: result set = final population (the ESS policy) ---
        let mut ga_best = Vec::new();
        let mut ga_success = 0usize;
        let mut ga_evals = 0u64;
        for &seed in seeds {
            let mut engine = GaEngine::new(
                *dims,
                GaConfig {
                    population_size: 24,
                    offspring: 24,
                    seed,
                    ..GaConfig::default()
                },
            );
            let mut eval = |gs: &[Vec<f64>]| -> Vec<f64> { gs.iter().map(|g| f(g)).collect() };
            engine.evaluate_initial(&mut eval);
            let mut best_f = f64::NEG_INFINITY;
            for _ in 0..gens {
                best_f = best_f.max(engine.step(&mut eval).best_fitness);
            }
            ga_best.push(best_f);
            if set_success(&engine.population().genomes()) {
                ga_success += 1;
            }
            ga_evals = engine.evaluations();
        }
        t.row([
            fname.to_string(),
            "fitness-GA".to_string(),
            f4(mean_of(&ga_best)),
            f2(ga_success as f64 / seeds.len() as f64),
            ga_evals.to_string(),
        ]);
    }
    t
}

/// E6 — the ESSIM-DE tuning operators' effect (restart \[21\] + IQR \[22\]).
///
/// The tuning papers operate at generation budgets long enough for
/// restarts to amortise (a restart spends evaluations re-seeding before it
/// can recover), so this experiment runs ESSIM-DE with a 30-generation
/// cap — roughly 3× the E1 budget — for both variants.
pub fn e6_tuning(seeds: &[u64], scale: f64, backend: EvalBackend, kernel: Kernel) -> TextTable {
    use ess::essim_de::{EssimDe, EssimDeConfig, TuningConfig};
    let mut t = TextTable::new([
        "case",
        "variant",
        "mean_quality",
        "mean_evals",
        "mean_wall_ms",
    ]);
    for name in ["shifting_wind", "moisture_front"] {
        let case = cases::by_name(name).unwrap();
        for (variant, tuning) in [
            ("untuned", TuningConfig::disabled()),
            ("tuned", TuningConfig::enabled()),
        ] {
            let mut qualities = Vec::new();
            let mut evals = Vec::new();
            let mut walls = Vec::new();
            for &seed in seeds {
                let s = |v: usize| ((v as f64) * scale).round().max(4.0) as usize;
                let mut opt = EssimDe::new(EssimDeConfig {
                    islands: 3,
                    island_population: s(12),
                    result_set_size: s(24),
                    max_generations: 30,
                    tuning,
                    ..EssimDeConfig::default()
                });
                let r = PredictionPipeline::new(backend, seed)
                    .with_kernel(kernel)
                    .run(&case, &mut opt);
                qualities.push(r.mean_quality());
                evals.push(r.total_evaluations() as f64);
                walls.push(r.total_ms);
            }
            t.row([
                name.to_string(),
                variant.to_string(),
                f4(mean_of(&qualities)),
                f2(mean_of(&evals)),
                f2(mean_of(&walls)),
            ]);
        }
    }
    t
}

/// E7 — the hybrid fitness/novelty scoring ablation (§IV), plus the
/// NSLC quality-diversity variant (\[26\]).
pub fn e7_hybrid(seeds: &[u64], scale: f64, backend: EvalBackend, kernel: Kernel) -> TextTable {
    let case = cases::shifting_wind();
    let mut t = TextTable::new([
        "scoring",
        "mean_quality",
        "mean_diversity",
        "mean_best_fitness",
    ]);
    let mut policies: Vec<(String, ScoringPolicy)> =
        vec![("w=1.00 (pure NS)".into(), ScoringPolicy::PureNovelty)];
    for &w in &[0.75, 0.5, 0.25, 0.0] {
        policies.push((
            format!("w={w:.2}"),
            ScoringPolicy::Weighted { novelty_weight: w },
        ));
    }
    policies.push((
        "NSLC (w=0.5)".into(),
        ScoringPolicy::NoveltyLocalCompetition {
            novelty_weight: 0.5,
        },
    ));
    for (label, scoring) in policies {
        let mut qualities = Vec::new();
        let mut diversities = Vec::new();
        let mut bests = Vec::new();
        for &seed in seeds {
            let s = |v: usize| ((v as f64) * scale).round().max(4.0) as usize;
            let mut opt = EssNs::new(EssNsConfig {
                algorithm: NoveltyGaConfig {
                    population_size: s(32),
                    offspring: s(32),
                    best_set_capacity: s(24),
                    scoring,
                    ..NoveltyGaConfig::default()
                },
                inclusion: InclusionPolicy::BestOnly,
                backend,
                ..EssNsConfig::default()
            });
            let r = PredictionPipeline::new(backend, seed)
                .with_kernel(kernel)
                .run(&case, &mut opt);
            qualities.push(r.mean_quality());
            diversities.push(r.mean_diversity());
            bests.push(mean_of(
                &r.steps
                    .iter()
                    .map(|st| st.os_best_fitness)
                    .collect::<Vec<_>>(),
            ));
        }
        t.row([
            label,
            f4(mean_of(&qualities)),
            f4(mean_of(&diversities)),
            f4(mean_of(&bests)),
        ]);
    }
    t
}

/// E8 — NS hyper-parameter ablation: `k`, archive capacity, `bestSet` size.
pub fn e8_ablation(seeds: &[u64], scale: f64, backend: EvalBackend, kernel: Kernel) -> TextTable {
    let case = cases::two_ridge();
    let mut t = TextTable::new([
        "parameter",
        "value",
        "mean_quality",
        "mean_diversity",
        "mean_evals",
    ]);
    let s = |v: usize| ((v as f64) * scale).round().max(4.0) as usize;
    let base = NoveltyGaConfig {
        population_size: s(32),
        offspring: s(32),
        best_set_capacity: s(24),
        archive_capacity: s(64),
        ..NoveltyGaConfig::default()
    };
    let mut run_cfg = |label: &str, value: String, algorithm: NoveltyGaConfig| {
        let mut qualities = Vec::new();
        let mut diversities = Vec::new();
        let mut evals = Vec::new();
        for &seed in seeds {
            let mut opt = EssNs::new(EssNsConfig {
                algorithm,
                inclusion: InclusionPolicy::BestOnly,
                backend,
                ..EssNsConfig::default()
            });
            let r = PredictionPipeline::new(backend, seed)
                .with_kernel(kernel)
                .run(&case, &mut opt);
            qualities.push(r.mean_quality());
            diversities.push(r.mean_diversity());
            evals.push(r.total_evaluations() as f64);
        }
        t.row([
            label.to_string(),
            value,
            f4(mean_of(&qualities)),
            f4(mean_of(&diversities)),
            f2(mean_of(&evals)),
        ]);
    };
    for &k in &[3usize, 5, 10, 15] {
        run_cfg(
            "k",
            k.to_string(),
            NoveltyGaConfig {
                novelty_neighbours: k,
                ..base
            },
        );
    }
    for &cap in &[16usize, 64, 256] {
        run_cfg(
            "archive",
            cap.to_string(),
            NoveltyGaConfig {
                archive_capacity: s(cap).max(4),
                ..base
            },
        );
    }
    for &bs in &[8usize, 24, 48] {
        run_cfg(
            "bestSet",
            bs.to_string(),
            NoveltyGaConfig {
                best_set_capacity: s(bs).max(4),
                ..base
            },
        );
    }
    // Behaviour-space ablation rides along (fitness vs genotype distance).
    run_cfg(
        "behaviour",
        "genotype".to_string(),
        NoveltyGaConfig {
            behaviour: BehaviourSpace::Genotype,
            ..base
        },
    );
    t
}

/// E9 — result-set composition under a drifting truth (§IV).
pub fn e9_inclusion(seeds: &[u64], scale: f64, backend: EvalBackend, kernel: Kernel) -> TextTable {
    let case = cases::shifting_wind();
    let mut t = TextTable::new(["policy", "mean_quality", "mean_set_size", "mean_diversity"]);
    let policies: Vec<(String, InclusionPolicy)> = vec![
        ("best-only".into(), InclusionPolicy::BestOnly),
        (
            "novel-10%".into(),
            InclusionPolicy::WithNovel { fraction: 0.10 },
        ),
        (
            "novel-25%".into(),
            InclusionPolicy::WithNovel { fraction: 0.25 },
        ),
        (
            "random-10%".into(),
            InclusionPolicy::WithRandom { fraction: 0.10 },
        ),
        (
            "random-25%".into(),
            InclusionPolicy::WithRandom { fraction: 0.25 },
        ),
    ];
    let s = |v: usize| ((v as f64) * scale).round().max(4.0) as usize;
    for (label, inclusion) in policies {
        let mut qualities = Vec::new();
        let mut sizes = Vec::new();
        let mut diversities = Vec::new();
        for &seed in seeds {
            let mut opt = EssNs::new(EssNsConfig {
                algorithm: NoveltyGaConfig {
                    population_size: s(32),
                    offspring: s(32),
                    best_set_capacity: s(24),
                    ..NoveltyGaConfig::default()
                },
                inclusion,
                backend,
                ..EssNsConfig::default()
            });
            let r = PredictionPipeline::new(backend, seed)
                .with_kernel(kernel)
                .run(&case, &mut opt);
            qualities.push(r.mean_quality());
            sizes.push(mean_of(
                &r.steps
                    .iter()
                    .map(|st| st.diversity.size as f64)
                    .collect::<Vec<_>>(),
            ));
            diversities.push(r.mean_diversity());
        }
        t.row([
            label,
            f4(mean_of(&qualities)),
            f2(mean_of(&sizes)),
            f4(mean_of(&diversities)),
        ]);
    }
    t
}

/// E10 — robustness to observation noise (extension): prediction quality
/// of each method as the observed fire lines degrade with front-cell
/// sensor noise. The paper's whole premise is input uncertainty; this
/// experiment injects it into the *observations* rather than the
/// parameters and asks which result-set policy degrades most gracefully.
pub fn e10_noise(seeds: &[u64], scale: f64, backend: EvalBackend, kernel: Kernel) -> TextTable {
    let clean = cases::shifting_wind();
    let mut t = TextTable::new([
        "flip_prob",
        "method",
        "mean_quality",
        "quality_drop_vs_clean",
    ]);
    let mut clean_quality: Vec<(Method, f64)> = Vec::new();
    for &flip in &[0.0, 0.10, 0.25] {
        for method in Method::ALL {
            let mut qualities = Vec::new();
            for &seed in seeds {
                let case = if flip > 0.0 {
                    cases::with_observation_noise(&clean, flip, seed)
                } else {
                    clean.clone()
                };
                let mut opt = method.make(scale);
                let r = PredictionPipeline::new(backend, seed)
                    .with_kernel(kernel)
                    .run(&case, opt.as_mut());
                qualities.push(r.mean_quality());
            }
            let q = mean_of(&qualities);
            if flip == 0.0 {
                clean_quality.push((method, q));
                t.row([f2(flip), method.name().to_string(), f4(q), "-".to_string()]);
            } else {
                let base = clean_quality
                    .iter()
                    .find(|(m, _)| *m == method)
                    .map(|&(_, q0)| q0)
                    .unwrap_or(q);
                t.row([f2(flip), method.name().to_string(), f4(q), f4(base - q)]);
            }
        }
    }
    t
}

/// W — the workload-corpus sweep: every named workload × every evaluation
/// backend, measuring scenario-evaluation throughput on the arena hot path
/// and running the full calibration → prediction pipeline once per
/// workload. Besides the text table, one machine-readable
/// `BENCH_<workload>.json` file is written per workload into `out`, so the
/// performance trajectory is trackable across PRs.
///
/// `quick` shrinks every workload to ≤ 40 cells per side and trims the
/// backend list — the CI smoke configuration.
pub fn workloads_sweep(worker_counts: &[usize], quick: bool, out: &std::path::Path) -> TextTable {
    use firelib::workload;

    let specs: Vec<workload::WorkloadSpec> = if quick {
        workload::corpus().iter().map(|s| s.shrunk(40)).collect()
    } else {
        workload::corpus()
    };
    let mut backends = vec![EvalBackend::Serial];
    if quick {
        backends.push(EvalBackend::WorkerPool(2));
    } else {
        for &w in worker_counts {
            backends.push(EvalBackend::WorkerPool(w));
            backends.push(EvalBackend::Rayon(w));
        }
    }
    let batch = if quick { 12usize } else { 48 };
    let reps = if quick { 1u32 } else { 3 };

    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("[warn] could not create {}: {e}", out.display());
    }

    let mut t = TextTable::new([
        "workload",
        "grid",
        "backend",
        "eval_ms",
        "evals_per_sec",
        "speedup",
        "pipeline_ms",
        "quality",
    ]);
    for spec in &specs {
        let build_sw = Stopwatch::start();
        let case = cases::workload_case(spec);
        let build_ms = build_sw.elapsed_ms();
        let grid = format!("{}x{}", spec.rows, spec.cols);
        let ctx = step1_context(&case);

        // Deterministic evaluation batch shared by every backend (and used
        // to enforce cross-backend bit-identity right in the sweep).
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xBE_7C4);
        let genomes: Vec<Vec<f64>> = (0..batch)
            .map(|_| {
                (0..firelib::GENE_COUNT)
                    .map(|_| rng.random::<f64>())
                    .collect()
            })
            .collect();

        // Pipeline once per workload (backend-independent results): a
        // small, budget-matched ESS-NS end-to-end run.
        let mut pipeline_opt = Method::EssNs.make(if quick { 0.25 } else { 0.5 });
        let pipe_sw = Stopwatch::start();
        let report = PredictionPipeline::new(EvalBackend::Serial, 1).run(&case, &mut *pipeline_opt);
        let pipeline_ms = pipe_sw.elapsed_ms();

        let mut serial_fitness: Option<Vec<f64>> = None;
        let mut serial_ms = 0.0f64;
        let mut json_backends: Vec<Json> = Vec::new();
        for &backend in &backends {
            let mut evaluator = ScenarioEvaluator::new(Arc::clone(&ctx), backend);
            let warm = evaluator.evaluate(&genomes); // spin up workers, warm arenas
            let sw = Stopwatch::start();
            for _ in 0..reps {
                std::hint::black_box(evaluator.evaluate(&genomes));
            }
            let wall_ms = sw.elapsed_ms() / reps as f64;
            let eval_ms = wall_ms / batch as f64;
            let eps = 1000.0 / eval_ms;
            match &serial_fitness {
                None => {
                    serial_fitness = Some(warm);
                    serial_ms = wall_ms;
                }
                Some(reference) => assert_eq!(
                    reference, &warm,
                    "{}: backend {backend} diverged from serial",
                    spec.name
                ),
            }
            let speedup = serial_ms / wall_ms;
            let first = backend == EvalBackend::Serial;
            t.row([
                spec.name.to_string(),
                grid.clone(),
                backend.name(),
                f4(eval_ms),
                f2(eps),
                f2(speedup),
                if first { f2(pipeline_ms) } else { "-".into() },
                if first {
                    f4(report.mean_quality())
                } else {
                    "-".into()
                },
            ]);
            json_backends.push(
                Json::obj()
                    .field("backend", backend.name())
                    .field("batch", batch)
                    .field("batch_wall_ms", wall_ms)
                    .field("eval_ms", eval_ms)
                    .field("evals_per_sec", eps)
                    .field("speedup_vs_serial", speedup),
            );
        }

        let json = Json::obj()
            .field("bench_format", 1u64)
            .field("workload", spec.name)
            .field("rows", spec.rows)
            .field("cols", spec.cols)
            .field("intervals", case.intervals())
            .field("quick", quick)
            .field("case_build_ms", build_ms)
            .field(
                "pipeline",
                Json::obj()
                    .field("system", report.system)
                    .field("wall_ms", pipeline_ms)
                    .field("evaluations", report.total_evaluations())
                    .field("mean_quality", report.mean_quality()),
            )
            .field("backends", Json::Arr(json_backends));
        write_bench_json(&out.join(format!("BENCH_{}.json", spec.name)), &json);
    }
    t
}

/// N — the novelty-scoring engine sweep: population × archive × engine,
/// on the paper's 1-D fitness behaviour, measuring batched ρ(x)
/// throughput (scores/sec) for the brute-force reference, the sorted-scan
/// index, and the backend-parallel variants of both. Cross-path
/// bit-identity is asserted inline for every configuration, and for the
/// configurations with noveltySet ≥ 2000 the sorted-scan index must beat
/// brute force by ≥ 3× (the refactor's acceptance bar). Writes
/// `BENCH_novelty.json` into `out` — the novelty subsystem's cross-PR
/// performance trail.
///
/// `quick` trims the size grid and the repetition count (the CI smoke
/// configuration); the ≥ 2000 acceptance configuration is kept even then,
/// because brute force at that size is still only a few milliseconds.
pub fn novelty_sweep(worker_counts: &[usize], quick: bool, out: &std::path::Path) -> TextTable {
    use evoalg::{BehaviourMatrix, NoveltyEngine};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    // (population ∪ offspring subjects, archive rows) grid.
    let sizes: &[(usize, usize)] = if quick {
        &[(256, 256), (1024, 1024)]
    } else {
        &[(256, 256), (1024, 1024), (2048, 2048), (4096, 4096)]
    };
    let k = 5usize;
    let reps = if quick { 3u32 } else { 10 };
    let mut engines = vec![NoveltyEngine::brute_force(), NoveltyEngine::indexed()];
    if quick {
        engines.push(NoveltyEngine::brute_force().with_workers(2));
        engines.push(NoveltyEngine::indexed().with_workers(2));
    } else {
        for &w in worker_counts {
            engines.push(NoveltyEngine::brute_force().with_workers(w));
            engines.push(NoveltyEngine::indexed().with_workers(w));
        }
    }

    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("[warn] could not create {}: {e}", out.display());
    }

    let mut t = TextTable::new([
        "population",
        "archive",
        "k",
        "engine",
        "batch_ms",
        "scores_per_sec",
        "speedup_vs_brute",
    ]);
    let mut json_sizes: Vec<Json> = Vec::new();
    for &(subjects, archive) in sizes {
        // The paper's 1-D fitness behaviour: one value per row, subjects
        // first (population ∪ offspring), archive rows appended.
        let mut rng = StdRng::seed_from_u64(0x5C0_7E5);
        let mut reference = BehaviourMatrix::with_dim(1);
        for _ in 0..subjects + archive {
            reference.push(&[rng.random::<f64>()]);
        }

        let mut brute_scores: Option<Vec<f64>> = None;
        let mut brute_ms = 0.0f64;
        let mut json_engines: Vec<Json> = Vec::new();
        for engine in &engines {
            let warm = engine.novelty_scores(&reference, subjects, k);
            let sw = Stopwatch::start();
            for _ in 0..reps {
                std::hint::black_box(engine.novelty_scores(&reference, subjects, k));
            }
            let batch_ms = sw.elapsed_ms() / reps as f64;
            let scores_per_sec = subjects as f64 / (batch_ms / 1000.0);
            match &brute_scores {
                None => {
                    brute_scores = Some(warm);
                    brute_ms = batch_ms;
                }
                // The refactor's contract, enforced right in the sweep:
                // every engine produces f64-bit-identical scores.
                Some(reference_scores) => assert_eq!(
                    reference_scores, &warm,
                    "pop {subjects} archive {archive}: engine {engine} diverged from brute force"
                ),
            }
            let speedup = brute_ms / batch_ms;
            t.row([
                subjects.to_string(),
                archive.to_string(),
                k.to_string(),
                engine.name(),
                f4(batch_ms),
                f2(scores_per_sec),
                f2(speedup),
            ]);
            if subjects + archive >= 2000 && *engine == NoveltyEngine::indexed() {
                assert!(
                    speedup >= 3.0,
                    "sorted-scan must give ≥3× scores/sec over brute force at \
                     noveltySet ≥ 2000 (pop {subjects} ∪ archive {archive}: {speedup:.2}×)"
                );
            }
            json_engines.push(
                Json::obj()
                    .field("engine", engine.name())
                    .field("batch_ms", batch_ms)
                    .field("scores_per_sec", scores_per_sec)
                    .field("speedup_vs_brute", speedup)
                    .field("identical_to_brute", true),
            );
        }
        json_sizes.push(
            Json::obj()
                .field("population", subjects)
                .field("archive", archive)
                .field("novelty_set", subjects + archive)
                .field("k", k)
                .field("dim", 1u64)
                .field("engines", Json::Arr(json_engines)),
        );
    }

    let json = Json::obj()
        .field("bench_format", 1u64)
        .field("suite", "novelty")
        .field("quick", quick)
        .field("reps", reps)
        .field("configs", Json::Arr(json_sizes));
    write_bench_json(&out.join("BENCH_novelty.json"), &json);
    t
}

/// Writes one pretty-printed `BENCH_*.json` artifact, warning (not
/// failing) on I/O problems like every other report writer here.
pub(crate) fn write_bench_json(path: &std::path::Path, json: &Json) {
    match std::fs::write(path, json.to_pretty()) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("[warn] could not write {}: {e}", path.display()),
    }
}

/// S — the serving throughput sweep: a fixed batch of concurrent sessions
/// (every registered system × replicates, all on one case) scheduled over
/// **one** shared evaluation backend, repeated per backend. Reports
/// sessions/sec and step throughput per backend, checks cross-backend
/// bit-identity of the scheduled results, and writes `BENCH_service.json`
/// — the serving layer's cross-PR performance trail.
///
/// `quick` shrinks the per-step search budget (the CI smoke
/// configuration).
pub fn service_sweep(worker_counts: &[usize], quick: bool, out: &std::path::Path) -> TextTable {
    use ess_service::{RunSpec, Scheduler, SessionOutcome};

    let case = "meadow_small";
    let scale = if quick { 0.15 } else { 0.5 };
    let replicates = 2usize; // 4 systems × 2 = 8 concurrent sessions
    let mut backends = vec![EvalBackend::Serial];
    if quick {
        backends.push(EvalBackend::WorkerPool(2));
    } else {
        for &w in worker_counts {
            backends.push(EvalBackend::WorkerPool(w));
            backends.push(EvalBackend::Rayon(w));
        }
    }

    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("[warn] could not create {}: {e}", out.display());
    }

    let mut t = TextTable::new([
        "backend",
        "sessions",
        "steps",
        "wall_ms",
        "sessions_per_sec",
        "steps_per_sec",
        "speedup",
    ]);
    let mut reference: Option<Vec<(usize, f64)>> = None;
    let mut serial_ms = 0.0f64;
    let mut json_backends: Vec<Json> = Vec::new();
    for &backend in &backends {
        let mut scheduler = Scheduler::new(backend);
        for (i, system) in ess_service::systems::all().iter().enumerate() {
            scheduler
                .submit(
                    &RunSpec::new(system.name, case)
                        .scale(scale)
                        .seed(4000 + i as u64)
                        .replicates(replicates),
                )
                .expect("sweep spec must resolve");
        }
        let sessions = scheduler.live_count();
        let sw = Stopwatch::start();
        let outcomes = scheduler.drain();
        let wall_ms = sw.elapsed_ms();

        let steps: usize = outcomes.iter().map(|(_, o)| o.report().steps.len()).sum();
        assert!(
            outcomes.iter().all(|(_, o)| o.is_finished()),
            "every sweep session must finish"
        );
        // Scheduled results are backend-independent: pin it right here.
        let digest: Vec<(usize, f64)> = outcomes
            .iter()
            .map(|(_, o)| match o {
                SessionOutcome::Finished(r) => (r.steps.len(), r.mean_quality()),
                SessionOutcome::Exhausted { partial, .. } => {
                    (partial.steps.len(), partial.mean_quality())
                }
            })
            .collect();
        match &reference {
            None => {
                reference = Some(digest);
                serial_ms = wall_ms;
            }
            Some(expected) => assert_eq!(
                expected, &digest,
                "backend {backend} diverged from serial scheduling"
            ),
        }
        let sessions_per_sec = sessions as f64 / (wall_ms / 1000.0);
        let steps_per_sec = steps as f64 / (wall_ms / 1000.0);
        let speedup = serial_ms / wall_ms;
        t.row([
            backend.name(),
            sessions.to_string(),
            steps.to_string(),
            f2(wall_ms),
            f2(sessions_per_sec),
            f2(steps_per_sec),
            f2(speedup),
        ]);
        json_backends.push(
            Json::obj()
                .field("backend", backend.name())
                .field("sessions", sessions)
                .field("steps", steps)
                .field("wall_ms", wall_ms)
                .field("sessions_per_sec", sessions_per_sec)
                .field("steps_per_sec", steps_per_sec)
                .field("speedup_vs_serial", speedup),
        );
    }

    let json = Json::obj()
        .field("bench_format", 1u64)
        .field("suite", "service")
        .field("case", case)
        .field("scale", scale)
        .field("quick", quick)
        .field("systems", {
            Json::Arr(
                ess_service::systems::names()
                    .into_iter()
                    .map(Json::from)
                    .collect(),
            )
        })
        .field("replicates_per_system", replicates)
        .field("backends", Json::Arr(json_backends));
    write_bench_json(&out.join("BENCH_service.json"), &json);
    t
}

/// F — the cross-session batch-fusion microbench on `archipelago_large`
/// (200×200, the workload where worker-pool dispatch used to *lose* to
/// serial at batch ≈12). Three configurations per concurrent-session
/// count — serial unfused (the reference), worker-pool unfused, and
/// worker-pool fused — with every pair pinned bit-identical in-run, plus
/// a small-batch regression pinning the pool's inline-serial fallback
/// below [`ess::DEFAULT_INLINE_THRESHOLD`] genomes. Writes
/// `BENCH_fusion.json`, the acceptance artifact for the fusion work.
///
/// `quick` shrinks the session counts and step budget (the CI smoke
/// configuration).
///
/// # Panics
/// Panics when any configuration's results diverge from serial unfused,
/// or (on a host with at least four cores) when fused worker-pool fails
/// to reach 1.5× serial at 16 concurrent sessions.
pub fn fusion_sweep(quick: bool, out: &std::path::Path) -> TextTable {
    use ess::fitness::SharedScenarioPool;
    use ess_service::{PolicyKind, RunSpec, Scheduler, SessionOutcome};
    use evoalg::GenomeMatrix;

    let case = "archipelago_large";
    // scaled(32, 0.35) ≈ 11 genomes per wave — the small-batch regime the
    // unfused scheduler pays dispatch overhead on.
    let scale = 0.35;
    let max_steps = if quick { 1 } else { 2 };
    let counts: &[usize] = if quick { &[1, 4, 16] } else { &[1, 4, 16, 64] };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.max(2);

    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("[warn] could not create {}: {e}", out.display());
    }

    // A full drain of `sessions` mixed-system runs under one scheduler
    // configuration; digest = the deterministic per-session results.
    type Digest = Vec<(usize, u64, u64)>;
    let drain = |backend: EvalBackend, fused: bool, sessions: usize| -> (f64, u64, Digest) {
        let mut scheduler = Scheduler::with_policy(backend, PolicyKind::RoundRobin);
        scheduler.set_fused(fused);
        let systems = ess_service::systems::names();
        for i in 0..sessions {
            scheduler
                .submit(
                    &RunSpec::new(systems[i % systems.len()], case)
                        .scale(scale)
                        .seed(7000 + i as u64)
                        .max_steps(max_steps),
                )
                .expect("fusion sweep spec must resolve");
        }
        let sw = Stopwatch::start();
        let outcomes = scheduler.drain();
        let wall_ms = sw.elapsed_ms();
        let digest: Digest = outcomes
            .iter()
            .map(|(_, o)| {
                let r = match o {
                    SessionOutcome::Finished(r) => r,
                    SessionOutcome::Exhausted { partial, .. } => partial,
                };
                let evals: u64 = r.steps.iter().map(|s| s.evaluations).sum();
                (r.steps.len(), r.mean_quality().to_bits(), evals)
            })
            .collect();
        let evals = digest.iter().map(|d| d.2).sum();
        (wall_ms, evals, digest)
    };

    let mut t = TextTable::new([
        "sessions",
        "evals",
        "serial_ms",
        "pool_ms",
        "fused_ms",
        "pool_x",
        "fused_x",
        "fused_vs_pool",
    ]);
    let mut json_counts: Vec<Json> = Vec::new();
    for &sessions in counts {
        let (serial_ms, evals, reference) = drain(EvalBackend::Serial, false, sessions);
        let (pool_ms, _, pool_digest) = drain(EvalBackend::WorkerPool(workers), false, sessions);
        let (fused_ms, _, fused_digest) = drain(EvalBackend::WorkerPool(workers), true, sessions);
        assert_eq!(
            reference, pool_digest,
            "worker-pool rounds diverged from serial at {sessions} sessions"
        );
        assert_eq!(
            reference, fused_digest,
            "fused rounds diverged from serial at {sessions} sessions"
        );
        let pool_x = serial_ms / pool_ms;
        let fused_x = serial_ms / fused_ms;
        // Two cores leave one worker beside the scheduler thread, which
        // is no headroom for 1.5x (measured 0.99x on a 2-core box): the bar
        // is asserted from four cores up and recorded below that.
        if sessions == 16 && cores >= 4 {
            assert!(
                fused_x >= 1.5,
                "fused worker-pool must reach 1.5x serial at 16 sessions \
                 on {cores} cores (got {fused_x:.3}x)"
            );
        }
        if sessions == 16 && cores < 4 {
            eprintln!(
                "[warn] {cores}-core host: the 1.5x fusion acceptance at 16 sessions \
                 needs at least 4 cores and is recorded, not asserted (got {fused_x:.3}x)"
            );
        }
        t.row([
            sessions.to_string(),
            evals.to_string(),
            f2(serial_ms),
            f2(pool_ms),
            f2(fused_ms),
            f2(pool_x),
            f2(fused_x),
            f2(pool_ms / fused_ms),
        ]);
        json_counts.push(
            Json::obj()
                .field("sessions", sessions)
                .field("evaluations", evals)
                .field("serial_unfused_ms", serial_ms)
                .field("worker_pool_unfused_ms", pool_ms)
                .field("worker_pool_fused_ms", fused_ms)
                .field("serial_evals_per_sec", evals as f64 / (serial_ms / 1000.0))
                .field(
                    "worker_pool_evals_per_sec",
                    evals as f64 / (pool_ms / 1000.0),
                )
                .field("fused_evals_per_sec", evals as f64 / (fused_ms / 1000.0))
                .field("worker_pool_speedup_vs_serial", pool_x)
                .field("fused_speedup_vs_serial", fused_x)
                .field("fused_speedup_vs_unfused_pool", pool_ms / fused_ms)
                .field("identical_to_serial", true),
        );
    }

    // Small-batch regression: the pool's inline-serial fallback versus
    // forced pool dispatch on the batch size that used to lose (≈12
    // genomes). Pinned bit-identical; the timing ratio documents why the
    // threshold exists.
    let burn = cases::by_name(case).expect("archipelago_large resolves as a case");
    let ctx = step1_context(&burn);
    let batch = 12usize;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xF_05E);
    let mut genomes = GenomeMatrix::with_dim(firelib::GENE_COUNT);
    for _ in 0..batch {
        let row: Vec<f64> = (0..firelib::GENE_COUNT).map(|_| rng.random()).collect();
        genomes.push(&row);
    }
    let reps = if quick { 3u32 } else { 10 };
    let pool = SharedScenarioPool::new(EvalBackend::WorkerPool(workers));
    pool.set_inline_threshold(0); // force dispatch
    let dispatched = pool.evaluate_matrix(&ctx, &genomes);
    let sw = Stopwatch::start();
    for _ in 0..reps {
        std::hint::black_box(pool.evaluate_matrix(&ctx, &genomes));
    }
    let dispatch_ms = sw.elapsed_ms() / reps as f64;
    pool.set_inline_threshold(ess::DEFAULT_INLINE_THRESHOLD);
    let inline = pool.evaluate_matrix(&ctx, &genomes);
    let sw = Stopwatch::start();
    for _ in 0..reps {
        std::hint::black_box(pool.evaluate_matrix(&ctx, &genomes));
    }
    let inline_ms = sw.elapsed_ms() / reps as f64;
    assert_eq!(
        dispatched, inline,
        "inline fallback diverged from pool dispatch at batch {batch}"
    );
    println!(
        "[small-batch] batch {batch} on {case}: inline {inline_ms:.2} ms vs dispatch \
         {dispatch_ms:.2} ms ({:.2}x), threshold {}",
        dispatch_ms / inline_ms,
        ess::DEFAULT_INLINE_THRESHOLD,
    );

    let json = Json::obj()
        .field("bench_format", 1u64)
        .field("suite", "fusion")
        .field("case", case)
        .field("scale", scale)
        .field("max_steps", max_steps)
        .field("quick", quick)
        .field("cores", cores)
        .field("workers", workers)
        .field("acceptance_asserted", cores >= 4)
        .field("session_counts", Json::Arr(json_counts))
        .field(
            "small_batch",
            Json::obj()
                .field("batch", batch)
                .field("inline_threshold", ess::DEFAULT_INLINE_THRESHOLD)
                .field("inline_ms", inline_ms)
                .field("dispatch_ms", dispatch_ms)
                .field("inline_speedup_vs_dispatch", dispatch_ms / inline_ms)
                .field("identical", true),
        );
    write_bench_json(&out.join("BENCH_fusion.json"), &json);
    t
}

/// K — the landscape kernel sweep: reference heap kernel vs the monotone
/// bucket-queue kernel vs the tiled parallel wavefront kernel on the
/// 200×200 corpus flagship plus the XL (1000×1000+) tier, single-threaded
/// and across a scoped worker pool. Kernel bit-identity is asserted in-run
/// on every workload **and every swept tiled configuration** (per-scenario
/// raster digests over exact f64 bits), and the bucket arena's scratch
/// footprint is reported against the old eager `rows*cols` heap
/// preallocation. Writes `BENCH_landscape.json` into `out` — the
/// simulation kernel's cross-PR performance trail — plus the committed
/// human-readable `bench_summary.md` row set.
///
/// Full-mode acceptance, asserted in-run: the bucket kernel reaches ≥ 3×
/// single-threaded evals/sec on the two per-cell XL workloads
/// (`ridge_valley_xl`, `breaks_mosaic_xl`), regresses nowhere (≥ 1× on the
/// archipelagos), and its XL scratch stays ≥ 4× below the eager baseline.
/// With ≥ 4 cores the tiled kernel must beat the single-thread bucket
/// kernel ≥ 2× (best swept config at ≥ 4 workers) on those same two
/// per-cell XL workloads and regress nowhere else (≥ 1× best config);
/// on smaller hosts the tiled numbers are recorded unasserted. The
/// pool-vs-serial backend comparison is recorded always and never gates
/// (it needs `available_parallelism ≥ 2` to mean anything).
///
/// `quick` shrinks every workload to ≤ 64 cells per side and trims the
/// batch and the tiled sweep — digest identity is still asserted on every
/// path; the perf bars are not (the CI smoke configuration).
pub fn landscape_sweep(quick: bool, out: &std::path::Path) -> TextTable {
    use firelib::workload;
    use landscape::IgnitionMap;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let specs: Vec<workload::WorkloadSpec> = {
        let mut v = vec![workload::archipelago_large()];
        v.extend(workload::xl_corpus());
        if quick {
            v = v.iter().map(|s| s.shrunk(64)).collect();
        }
        v
    };
    let batch = if quick { 3usize } else { 6 };
    let reps = if quick { 1u32 } else { 3 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.clamp(2, 8);

    // The tiled sweep grid: tile edge × worker count. Quick mode keeps one
    // cheap configuration per axis (grids are ≤ 64² there, so the sweep
    // only checks digests); full mode covers the perf-relevant corner
    // (large tiles, ≥ 4 workers) plus the degenerate 1-worker column that
    // must match the serial drain exactly.
    let tile_sizes: Vec<usize> = if quick {
        vec![16, 64]
    } else {
        vec![64, 128, 256]
    };
    let tiled_worker_counts: Vec<usize> = if quick {
        vec![2]
    } else {
        [1usize, 2, 4, 8]
            .into_iter()
            .filter(|&wk| wk == 1 || wk <= cores.max(2))
            .collect()
    };
    // Tiled perf bars only mean something off CI-class hosts.
    let tiled_gate = !quick && cores >= 4;

    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("[warn] could not create {}: {e}", out.display());
    }

    /// FNV-1a over the exact bit patterns of every arrival time: two rasters
    /// share a digest iff they are f64-bit-identical.
    fn digest_map(map: &IgnitionMap) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &t in map.grid().as_slice() {
            h ^= t.to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    let mut t = TextTable::new([
        "workload",
        "grid",
        "tier",
        "heap_eval_ms",
        "bucket_eval_ms",
        "kernel_x",
        "tiled_eval_ms",
        "tiled_x",
        "tiled_cfg",
        "pool_x",
        "scratch_kb",
        "raster_kb",
    ]);
    let mut json_workloads: Vec<Json> = Vec::new();
    let mut summary_rows: Vec<[String; 9]> = Vec::new();
    for spec in &specs {
        let xl = workload::xl_names().contains(&spec.name);
        let w = spec.build();
        let sim = w.sim();
        let (rows, cols) = (w.terrain.rows(), w.terrain.cols());
        let cells = rows * cols;
        let t0 = w.times[0];
        let dt = w.times[1] - w.times[0];

        // A deterministic scenario batch around the workload's truth: the
        // base plus seeded wind perturbations, the calibration-stage access
        // pattern in miniature.
        let base = w.truth[0];
        let mut rng = StdRng::seed_from_u64(0x1A2D ^ spec.seed);
        let scenarios: Vec<Scenario> = (0..batch)
            .map(|i| {
                if i == 0 {
                    base
                } else {
                    Scenario {
                        wind_speed_mph: (base.wind_speed_mph
                            + (rng.random::<f64>() * 2.0 - 1.0) * 2.0)
                            .clamp(0.0, 80.0),
                        wind_dir_deg: landscape::geometry::normalize_azimuth(
                            base.wind_dir_deg + (rng.random::<f64>() * 2.0 - 1.0) * 30.0,
                        ),
                        ..base
                    }
                }
            })
            .collect();

        // Correctness pass (also the warm-up): per-scenario digests must
        // match bit-for-bit between the kernels.
        let mut heap_arena = sim.arena();
        let mut bucket_arena = sim.arena();
        let heap_digests: Vec<u64> = scenarios
            .iter()
            .map(|s| {
                digest_map(sim.simulate_arena_kernel(
                    s,
                    &w.ignition,
                    t0,
                    dt,
                    &mut heap_arena,
                    Kernel::Heap,
                ))
            })
            .collect();
        let bucket_digests: Vec<u64> = scenarios
            .iter()
            .map(|s| {
                digest_map(sim.simulate_arena_kernel(
                    s,
                    &w.ignition,
                    t0,
                    dt,
                    &mut bucket_arena,
                    Kernel::Bucket,
                ))
            })
            .collect();
        assert_eq!(
            heap_digests, bucket_digests,
            "{}: bucket kernel diverged from the heap reference",
            spec.name
        );

        // Timed passes on the warmed arenas: best-of-reps full-batch wall.
        let time_kernel = |kernel: Kernel, arena: &mut firelib::SimArena| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let sw = Stopwatch::start();
                for s in &scenarios {
                    std::hint::black_box(sim.simulate_arena_kernel(
                        s,
                        &w.ignition,
                        t0,
                        dt,
                        arena,
                        kernel,
                    ));
                }
                best = best.min(sw.elapsed_ms());
            }
            best
        };
        let heap_ms = time_kernel(Kernel::Heap, &mut heap_arena);
        let bucket_ms = time_kernel(Kernel::Bucket, &mut bucket_arena);
        let heap_eps = batch as f64 / (heap_ms / 1000.0);
        let bucket_eps = batch as f64 / (bucket_ms / 1000.0);
        let kernel_x = heap_ms / bucket_ms;

        // The arena footprint after a full batch: scratch (queues, gather
        // buffers, window tables, span bookkeeping) versus the mandatory
        // arrival raster, against the old eager heap preallocation.
        let scratch = bucket_arena.scratch_bytes();
        let raster = bucket_arena.raster_bytes();
        let eager = cells * 16; // BinaryHeap<(Reverse<Time>, u32)> at rows*cols
        drop(heap_arena);

        // Pool backend: the same batch chunked over scoped threads, one
        // private arena per worker (the worker-pool deployment shape).
        // Digest identity across backends is asserted; the speedup is
        // recorded but never gates (single-core hosts run this too).
        let chunk = scenarios.len().div_ceil(workers);
        let mut pool_best = f64::INFINITY;
        let mut pool_digests: Vec<u64> = Vec::new();
        for _ in 0..reps {
            let mut digests = vec![0u64; scenarios.len()];
            let sw = Stopwatch::start();
            // audit: allow(layer) — hand-rolled scoped-thread baseline the sweep compares the pool against
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for chunk_scenarios in scenarios.chunks(chunk) {
                    let sim = &sim;
                    let w = &w;
                    // lint: allow(thread-spawn) — the scoped-thread baseline the pool is benchmarked against
                    handles.push(scope.spawn(move || {
                        let mut arena = sim.arena();
                        chunk_scenarios
                            .iter()
                            .map(|s| {
                                digest_map(sim.simulate_arena(s, &w.ignition, t0, dt, &mut arena))
                            })
                            .collect::<Vec<u64>>()
                    }));
                }
                let mut off = 0usize;
                for handle in handles {
                    let part = handle.join().expect("landscape pool worker panicked");
                    digests[off..off + part.len()].copy_from_slice(&part);
                    off += part.len();
                }
            });
            pool_best = pool_best.min(sw.elapsed_ms());
            pool_digests = digests;
        }
        assert_eq!(
            heap_digests, pool_digests,
            "{}: pooled bucket runs diverged from the reference",
            spec.name
        );
        let pool_x = bucket_ms / pool_best;

        // Tiled sweep: every (tile, workers) configuration first replays
        // the whole batch with per-scenario digests asserted against the
        // heap reference (also its warm-up), then runs the timed passes on
        // the same arena. Dirty-arena reuse across configurations is part
        // of what this exercises.
        let mut tiled_arena = sim.arena();
        let mut tiled_cfg_json: Vec<Json> = Vec::new();
        // Best (eval ms, tile, workers) over all configs, and over the
        // ≥ 4-worker configs only (what the XL acceptance bar reads).
        let mut tiled_best: Option<(f64, usize, usize)> = None;
        let mut tiled_best_hi: Option<(f64, usize, usize)> = None;
        for &tile in &tile_sizes {
            for &wk in &tiled_worker_counts {
                let kernel = Kernel::Tiled { tile, workers: wk };
                let digests: Vec<u64> = scenarios
                    .iter()
                    .map(|s| {
                        digest_map(sim.simulate_arena_kernel(
                            s,
                            &w.ignition,
                            t0,
                            dt,
                            &mut tiled_arena,
                            kernel,
                        ))
                    })
                    .collect();
                assert_eq!(
                    heap_digests, digests,
                    "{}: tiled kernel (tile {tile}, {wk} workers) diverged \
                     from the heap reference",
                    spec.name
                );
                let ms = time_kernel(kernel, &mut tiled_arena);
                let eps = batch as f64 / (ms / 1000.0);
                if tiled_best.is_none_or(|(b, _, _)| ms < b) {
                    tiled_best = Some((ms, tile, wk));
                }
                if wk >= 4 && tiled_best_hi.is_none_or(|(b, _, _)| ms < b) {
                    tiled_best_hi = Some((ms, tile, wk));
                }
                tiled_cfg_json.push(
                    Json::obj()
                        .field("tile", tile)
                        .field("workers", wk)
                        .field("eval_ms", ms / batch as f64)
                        .field("evals_per_sec", eps)
                        .field("speedup_vs_bucket", bucket_ms / ms)
                        .field("digest_identical", true),
                );
            }
        }
        let (tiled_ms, tiled_tile, tiled_workers) =
            tiled_best.expect("tiled sweep covers at least one configuration");
        let tiled_x = bucket_ms / tiled_ms;
        let tiled_scratch = tiled_arena.scratch_bytes();
        drop(tiled_arena);

        if !quick {
            match spec.name {
                // The two per-cell XL workloads are where active-front
                // bounding must pay: ≥ 3× single-threaded evals/sec.
                "ridge_valley_xl" | "breaks_mosaic_xl" => assert!(
                    kernel_x >= 3.0,
                    "{}: bucket kernel must reach 3x the heap kernel ({kernel_x:.2}x)",
                    spec.name
                ),
                // No regression anywhere else (the per-fuel archipelagos).
                "archipelago_large" | "archipelago_xl" => assert!(
                    kernel_x >= 1.0,
                    "{}: bucket kernel regressed vs heap ({kernel_x:.2}x)",
                    spec.name
                ),
                _ => {}
            }
            if xl {
                assert!(
                    scratch * 4 <= eager,
                    "{}: arena scratch {scratch} B not 4x below the eager \
                     rows*cols heap baseline {eager} B",
                    spec.name
                );
            }
        }
        if tiled_gate {
            match spec.name {
                // The two per-cell XL workloads are where in-simulation
                // parallelism must pay: ≥ 2× the single-thread bucket
                // kernel using ≥ 4 workers.
                "ridge_valley_xl" | "breaks_mosaic_xl" => {
                    let (hi_ms, hi_tile, hi_wk) =
                        tiled_best_hi.expect("≥ 4 cores sweeps a ≥ 4-worker configuration");
                    let hi_x = bucket_ms / hi_ms;
                    assert!(
                        hi_x >= 2.0,
                        "{}: tiled kernel must reach 2x the single-thread bucket \
                         kernel at >= 4 workers (best {hi_x:.2}x at tile {hi_tile} \
                         x {hi_wk} workers)",
                        spec.name
                    );
                }
                // No regression anywhere else, best configuration counted.
                "archipelago_large" | "archipelago_xl" => assert!(
                    tiled_x >= 1.0,
                    "{}: tiled kernel regressed vs single-thread bucket \
                     ({tiled_x:.2}x at tile {tiled_tile} x {tiled_workers} workers)",
                    spec.name
                ),
                _ => {}
            }
        }

        let tiled_cfg = format!("{tiled_tile}x{tiled_workers}w");
        t.row([
            spec.name.to_string(),
            format!("{rows}x{cols}"),
            if xl { "xl".into() } else { "corpus".into() },
            f4(heap_ms / batch as f64),
            f4(bucket_ms / batch as f64),
            f2(kernel_x),
            f4(tiled_ms / batch as f64),
            f2(tiled_x),
            tiled_cfg.clone(),
            f2(pool_x),
            (scratch / 1024).to_string(),
            (raster / 1024).to_string(),
        ]);
        summary_rows.push([
            spec.name.to_string(),
            format!("{rows}×{cols}"),
            if xl { "xl".into() } else { "corpus".into() },
            f2(heap_ms / batch as f64),
            f2(bucket_ms / batch as f64),
            f2(kernel_x),
            f2(tiled_ms / batch as f64),
            f2(tiled_x),
            tiled_cfg,
        ]);
        json_workloads.push(
            Json::obj()
                .field("workload", spec.name)
                .field("rows", rows)
                .field("cols", cols)
                .field("tier", if xl { "xl" } else { "corpus" })
                .field("batch", batch)
                .field("interval_minutes", dt)
                .field(
                    "heap",
                    Json::obj()
                        .field("eval_ms", heap_ms / batch as f64)
                        .field("evals_per_sec", heap_eps)
                        .field("cells_per_sec", cells as f64 * heap_eps),
                )
                .field(
                    "bucket",
                    Json::obj()
                        .field("eval_ms", bucket_ms / batch as f64)
                        .field("evals_per_sec", bucket_eps)
                        .field("cells_per_sec", cells as f64 * bucket_eps),
                )
                .field("kernel_speedup", kernel_x)
                .field("digest_identical", true)
                .field(
                    "tiled",
                    Json::obj()
                        .field("configs", Json::Arr(tiled_cfg_json))
                        .field(
                            "best",
                            Json::obj()
                                .field("tile", tiled_tile)
                                .field("workers", tiled_workers)
                                .field("eval_ms", tiled_ms / batch as f64)
                                .field("speedup_vs_bucket", tiled_x),
                        )
                        .field("peak_scratch_bytes", tiled_scratch),
                )
                .field("pool_workers", workers)
                .field("pool_batch_ms", pool_best)
                .field("pool_speedup_vs_serial", pool_x)
                .field("pool_digest_identical", true)
                .field("peak_scratch_bytes", scratch)
                .field("raster_bytes", raster)
                .field("eager_heap_baseline_bytes", eager)
                .field(
                    "scratch_under_eager_x",
                    eager as f64 / scratch.max(1) as f64,
                ),
        );
    }

    let json = Json::obj()
        .field("bench_format", 1u64)
        .field("suite", "landscape")
        .field("quick", quick)
        .field("reps", reps)
        .field("cores", cores)
        .field("pool_workers", workers)
        .field("perf_asserted", !quick)
        .field("tiled_perf_asserted", tiled_gate)
        .field("workloads", Json::Arr(json_workloads));
    write_bench_json(&out.join("BENCH_landscape.json"), &json);
    write_landscape_summary(out, quick, tiled_gate, cores, &summary_rows);
    t
}

/// Writes `bench_summary.md` — the committed, human-readable companion of
/// the gitignored `BENCH_landscape.json`: one markdown row per workload
/// with per-eval wall times and speedups for all three kernels, so the
/// repo carries a reviewable perf trail without machine-varying JSON noise
/// in the diff.
fn write_landscape_summary(
    out: &std::path::Path,
    quick: bool,
    tiled_gate: bool,
    cores: usize,
    rows: &[[String; 9]],
) {
    let mut md = String::new();
    md.push_str("# Simulation kernel benchmark summary\n\n");
    md.push_str(
        "Regenerate with `cargo run --release -p ess-benches --bin harness -- \
         landscape` (add `--quick` for the CI smoke configuration). Wall times\n\
         are per evaluation (one full propagation of the workload's first\n\
         interval), best of the timed repetitions; `×` columns are speedups\n\
         over the single-thread kernels named in the header. `tiled cfg` is\n\
         the fastest swept `TILExWORKERSw` configuration. Digest identity of\n\
         every kernel and every tiled configuration against the heap\n\
         reference is asserted while the numbers are taken.\n\n",
    );
    md.push_str(&format!(
        "Mode: `{}` on {cores} cores — tiled perf bars (≥ 2× on the per-cell \
         XL pair at ≥ 4 workers, ≥ 1× elsewhere) {}.\n\n",
        if quick { "quick" } else { "full" },
        if tiled_gate {
            "asserted in-run"
        } else {
            "recorded unasserted (quick mode or < 4 cores)"
        }
    ));
    md.push_str(
        "| workload | grid | tier | heap ms | bucket ms | bucket × heap | \
         tiled ms | tiled × bucket | tiled cfg |\n",
    );
    md.push_str("|---|---|---|---:|---:|---:|---:|---:|---|\n");
    for r in rows {
        md.push_str(&format!("| {} |\n", r.join(" | ")));
    }
    let path = out.join("bench_summary.md");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, &md) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("[warn] could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_rows() {
        let t = table1();
        assert_eq!(t.len(), 9);
        let csv = t.to_csv();
        assert!(csv.contains("WindSpd"));
        assert!(csv.contains("0-80"));
        assert!(csv.contains("Mherb"));
        assert!(csv.contains("30-300"));
    }

    #[test]
    fn e4_throughput_produces_nine_rows() {
        let t = e4_throughput();
        assert_eq!(t.len(), 9);
    }
}
