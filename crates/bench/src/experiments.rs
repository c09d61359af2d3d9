//! The experiment implementations behind the `harness` binary — one
//! function per table/figure of DESIGN.md §4.

use ess::calibration::skign_search;
use ess::cases::{self, BurnCase};
use ess::fitness::{EvalBackend, ScenarioEvaluator, StepContext};
use ess::pipeline::{PredictionPipeline, RunReport};
use ess::report::{f2, f4, TextTable};
use ess::stages::statistical_stage_genomes;
use ess_ns::{
    BehaviourSpace, EssNs, EssNsConfig, InclusionPolicy, NoveltyGa, NoveltyGaConfig, ScoringPolicy,
};
use ess_service::systems::{self, SystemSpec};
use evoalg::benchmarks::{deceptive_trap, two_peaks};
use evoalg::{BatchEvaluator, GaConfig, GaEngine};
use firelib::sim::centre_ignition;
use firelib::{FireSim, Scenario, ScenarioSpace, Terrain};
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
    let mut ess = systems::resolve("ESS")
        .expect("ESS is a registered system")
        .make(1.0);
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
    let mut essns = systems::resolve("ESS-NS")
        .expect("ESS-NS is a registered system")
        .make(1.0);
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

/// Runs one system over one case for several seeds.
pub fn run_replicates(
    system: &SystemSpec,
    case: &BurnCase,
    seeds: &[u64],
    scale: f64,
    backend: EvalBackend,
) -> Vec<RunReport> {
    seeds
        .iter()
        .map(|&seed| {
            let mut opt = system.make(scale);
            PredictionPipeline::new(backend, seed).run(case, opt.as_mut())
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
        for system in systems::all() {
            let reports = run_replicates(system, &case, seeds, scale, backend);
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
                    system.name.to_string(),
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
                system.name.to_string(),
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
        for system in systems::all() {
            let reports = run_replicates(system, &case, seeds, scale, backend);
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
            let mut opt = system.make(scale);
            let mut ev = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::Serial);
            let out = opt.optimize(&mut ev, seeds[0]);
            let fits = ev.evaluate(&out.result_set);
            t.row([
                case.name.to_string(),
                system.name.to_string(),
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
        let mut opt = systems::resolve("ESS-NS")
            .expect("ESS-NS is a registered system")
            .make(1.0);
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
pub fn e6_tuning(seeds: &[u64], scale: f64, backend: EvalBackend) -> TextTable {
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
                let r = PredictionPipeline::new(backend, seed).run(&case, &mut opt);
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
pub fn e7_hybrid(seeds: &[u64], scale: f64, backend: EvalBackend) -> TextTable {
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
            });
            let r = PredictionPipeline::new(backend, seed).run(&case, &mut opt);
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
pub fn e8_ablation(seeds: &[u64], scale: f64, backend: EvalBackend) -> TextTable {
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
            });
            let r = PredictionPipeline::new(backend, seed).run(&case, &mut opt);
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
pub fn e9_inclusion(seeds: &[u64], scale: f64, backend: EvalBackend) -> TextTable {
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
            });
            let r = PredictionPipeline::new(backend, seed).run(&case, &mut opt);
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
pub fn e10_noise(seeds: &[u64], scale: f64, backend: EvalBackend) -> TextTable {
    let clean = cases::shifting_wind();
    let mut t = TextTable::new([
        "flip_prob",
        "method",
        "mean_quality",
        "quality_drop_vs_clean",
    ]);
    let mut clean_quality: Vec<(&str, f64)> = Vec::new();
    for &flip in &[0.0, 0.10, 0.25] {
        for system in systems::all() {
            let mut qualities = Vec::new();
            for &seed in seeds {
                let case = if flip > 0.0 {
                    cases::with_observation_noise(&clean, flip, seed)
                } else {
                    clean.clone()
                };
                let mut opt = system.make(scale);
                let r = PredictionPipeline::new(backend, seed).run(&case, opt.as_mut());
                qualities.push(r.mean_quality());
            }
            let q = mean_of(&qualities);
            if flip == 0.0 {
                clean_quality.push((system.name, q));
                t.row([f2(flip), system.name.to_string(), f4(q), "-".to_string()]);
            } else {
                let base = clean_quality
                    .iter()
                    .find(|(name, _)| *name == system.name)
                    .map(|&(_, q0)| q0)
                    .unwrap_or(q);
                t.row([f2(flip), system.name.to_string(), f4(q), f4(base - q)]);
            }
        }
    }
    t
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
