//! The experiment implementations behind the `harness` binary — one
//! function per table/figure of DESIGN.md §4.
//!
//! The pipeline-driven tables (E1, E2, E6–E10) are rows of one [`Plan`]:
//! an experiment declares its *variants* (a label and an optimizer
//! factory) and its *tasks* (a label and a case as a function of the
//! seed), [`Plan::run`] drains one [`ess::pipeline::StepDriver`] per
//! variant × task × seed on the plan's one pool and returns one [`Trial`]
//! per run, and the experiment projects columns out of those records with
//! [`fold`]. Nothing here reads a clock: every artifact is exact, so the
//! same command writes the same bytes twice and on any backend.

use ess::calibration::skign_search;
use ess::cases::{self, BurnCase};
use ess::fitness::{EvalBackend, ScenarioEvaluator, SharedScenarioPool};
use ess::pipeline::{PredictionPipeline, RunReport, StepOptimizer, StepReport};
use ess::report::{f2, f4, TextTable};
use ess::stages::statistical_stage_genomes;
use ess_ns::{
    BehaviourSpace, EssNs, EssNsConfig, InclusionPolicy, NoveltyGa, NoveltyGaConfig, ScoringPolicy,
};
use ess_service::systems::{self, scaled};
use evoalg::benchmarks::{deceptive_trap, two_peaks};
use evoalg::{BatchEvaluator, GaConfig, GaEngine};
use firelib::ScenarioSpace;
use std::sync::Arc;

/// What every experiment of one harness invocation shares: the one pool
/// scenario batches are evaluated on (built from `--backend` at start-up,
/// so its threads live for the process, not for a step), the replicate
/// seeds and the evaluation-budget scale.
pub struct Plan {
    /// Where every trial's scenario batches run.
    pub pool: Arc<SharedScenarioPool>,
    /// One trial per variant × task for each of these.
    pub seeds: Vec<u64>,
    /// Per-step budget scale (see [`scaled`]).
    pub scale: f64,
}

/// One optimizer configuration under comparison.
pub struct Variant {
    label: String,
    make: Box<dyn Fn() -> Box<dyn StepOptimizer>>,
}

impl Variant {
    fn new(label: &str, make: impl Fn() -> Box<dyn StepOptimizer> + 'static) -> Self {
        Self {
            label: label.to_string(),
            make: Box::new(make),
        }
    }
}

/// One burn case under comparison, as a function of the trial's seed
/// (E10's observation noise is drawn per seed; every other task ignores
/// it).
pub struct Task {
    label: String,
    case: Box<dyn Fn(u64) -> BurnCase>,
}

impl Task {
    /// The registered case `name`, the same for every seed.
    ///
    /// # Panics
    /// Panics on an unregistered name (the harness checks `--cases` up
    /// front).
    fn named(name: &str) -> Self {
        let case = cases::by_name(name).unwrap_or_else(|| panic!("unknown case {name}"));
        Self {
            label: case.name.to_string(),
            case: Box::new(move |_| case.clone()),
        }
    }
}

/// The result record of one trial: which variant ran which task under
/// which seed, and the run's report.
pub struct Trial {
    /// The variant's label.
    pub variant: String,
    /// The task's label.
    pub task: String,
    /// The trial's seed.
    pub seed: u64,
    /// The drained run.
    pub report: RunReport,
}

impl Plan {
    /// A plan of `replicates` seeds (1000, 1001, …) at `scale` on a pool
    /// built from `backend`.
    pub fn new(backend: EvalBackend, replicates: usize, scale: f64) -> Self {
        Self {
            pool: Arc::new(SharedScenarioPool::new(backend)),
            seeds: (0..replicates as u64).map(|i| 1000 + i).collect(),
            scale,
        }
    }

    /// Runs every variant on every task under every seed — task-major,
    /// then variant, then seed — and returns one record per trial in that
    /// order.
    pub fn run(&self, tasks: &[Task], variants: &[Variant]) -> Vec<Trial> {
        let mut trials = Vec::with_capacity(tasks.len() * variants.len() * self.seeds.len());
        for task in tasks {
            for variant in variants {
                for &seed in &self.seeds {
                    let mut optimizer = (variant.make)();
                    let report = PredictionPipeline::on_pool(Arc::clone(&self.pool), seed)
                        .run(&(task.case)(seed), optimizer.as_mut());
                    trials.push(Trial {
                        variant: variant.label.clone(),
                        task: task.label.clone(),
                        seed,
                        report,
                    });
                }
            }
        }
        trials
    }

    /// The records of [`Plan::run`] grouped per task × variant cell: one
    /// slice per table row group, its trials in seed order.
    pub fn cells<'a>(&self, trials: &'a [Trial]) -> std::slice::Chunks<'a, Trial> {
        trials.chunks(self.seeds.len())
    }

    /// The four paper systems at this plan's budget scale — the variant
    /// axis of E1, E2 and E10.
    fn paper_systems(&self) -> Vec<Variant> {
        let scale = self.scale;
        systems::all()
            .iter()
            .map(|system| Variant::new(system.name, move || system.make(scale)))
            .collect()
    }

    /// The scaled population, offspring and `bestSet` sizes every ESS-NS
    /// variant of E7–E9 starts from.
    fn ess_ns_base(&self) -> NoveltyGaConfig {
        NoveltyGaConfig {
            population_size: scaled(32, self.scale),
            offspring: scaled(32, self.scale),
            best_set_capacity: scaled(24, self.scale),
            ..NoveltyGaConfig::default()
        }
    }
}

fn ess_ns(label: &str, algorithm: NoveltyGaConfig, inclusion: InclusionPolicy) -> Variant {
    Variant::new(label, move || {
        Box::new(EssNs::new(EssNsConfig {
            algorithm,
            inclusion,
        }))
    })
}

fn mean_of(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Mean, minimum and maximum of a projection over a cell's trials.
pub struct Fold {
    /// Arithmetic mean, summed in trial order.
    pub mean: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

/// Folds the values `project` yields for each trial of `cell`, in seed
/// order — zero or more per trial, so an `Option` column (a step without
/// a prediction) and a per-step column flatten the same way. `None` when
/// no trial yields a value.
pub fn fold<'a, I: IntoIterator<Item = f64>>(
    cell: &'a [Trial],
    project: impl Fn(&'a RunReport) -> I,
) -> Option<Fold> {
    let values: Vec<f64> = cell.iter().flat_map(|t| project(&t.report)).collect();
    (!values.is_empty()).then(|| Fold {
        mean: mean_of(&values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

/// The mean of one value per trial of `cell`.
fn mean(cell: &[Trial], project: impl Fn(&RunReport) -> f64) -> f64 {
    fold(cell, |r| Some(project(r))).map_or(0.0, |f| f.mean)
}

/// The mean of `project` over one run's steps.
fn step_mean(report: &RunReport, project: impl Fn(&StepReport) -> f64) -> f64 {
    mean_of(&report.steps.iter().map(project).collect::<Vec<_>>())
}

/// T1 — regenerates Table I from the in-code parameter definitions.
pub fn table1() -> TextTable {
    let mut t = TextTable::new(["Parameter", "Description", "Range", "Unit"]);
    for d in ScenarioSpace.params() {
        // `Display` prints an integer-valued bound without a fraction.
        t.row([
            d.name.to_string(),
            d.description.to_string(),
            format!("{}-{}", d.lo, d.hi),
            d.unit.to_string(),
        ]);
    }
    t
}

/// F1 — a narrated trace of one ESS prediction step (the Fig. 1 dataflow).
pub fn fig1_trace(plan: &Plan) -> String {
    let case = cases::grass_uniform();
    let mut out = String::new();
    out.push_str(&format!(
        "Fig. 1 dataflow trace — one ESS prediction step on '{}'\n\n",
        case.name
    ));
    let ctx = Arc::new(case.step_context(1));
    out.push_str(&format!(
        "[input]      RFL_0: {} burned cells at t={} min; RFL_1: {} cells at t={} min\n",
        case.fire_lines[0].burned_area(),
        case.times[0],
        case.fire_lines[1].burned_area(),
        case.times[1],
    ));

    // OS-Master / OS-Workers: fitness GA over scenarios (PV{1..n} → FS → FF).
    // The "2 workers" below is the figure's farm, not the plan's pool:
    // results are backend-independent, so the text is the same on any.
    let mut evaluator = ScenarioEvaluator::shared(Arc::clone(&ctx), Arc::clone(&plan.pool));
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
    let next_ctx = case.step_context(2);
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
pub fn fig2_kign(plan: &Plan) -> TextTable {
    let case = cases::grass_uniform();
    let ctx = Arc::new(case.step_context(1));
    let mut evaluator = ScenarioEvaluator::shared(Arc::clone(&ctx), Arc::clone(&plan.pool));
    let mut essns = systems::resolve("ESS-NS")
        .expect("ESS-NS is a registered system")
        .make(1.0);
    let outcome = essns.optimize(&mut evaluator, 2);
    let matrix = statistical_stage_genomes(&ctx, &outcome.result_set);
    let cal = skign_search(&matrix, &case.fire_lines[1], Some(&case.fire_lines[0]));
    let mut t = TextTable::new(["threshold", "fitness", "chosen"]);
    for (k, f) in &cal.curve {
        let chosen = (*k - cal.kign).abs() < 1e-12;
        t.row([
            f4(*k),
            f4(*f),
            if chosen { "<= Kign" } else { "" }.to_string(),
        ]);
    }
    t
}

/// F3 — a narrated trace of one ESS-NS step (the Fig. 3 dataflow), showing
/// the NS-specific blocks: ρ(x), the archive, and bestSet.
pub fn fig3_trace(plan: &Plan) -> String {
    let case = cases::grass_uniform();
    let ctx = Arc::new(case.step_context(1));
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
    let mut evaluator = ScenarioEvaluator::shared(Arc::clone(&ctx), Arc::clone(&plan.pool));
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

/// E1 — prediction quality per step, per case, per method (the headline
/// comparison; reproduces the quality-per-step evaluation protocol of the
/// predecessor systems). Tasks: `case_names`; variants: the paper systems.
pub fn e1_quality(plan: &Plan, case_names: &[&str]) -> TextTable {
    let mut t = TextTable::new([
        "case",
        "method",
        "step",
        "quality_mean",
        "quality_min",
        "quality_max",
        "evals_mean",
    ]);
    let tasks: Vec<Task> = case_names.iter().map(|name| Task::named(name)).collect();
    for cell in plan.cells(&plan.run(&tasks, &plan.paper_systems())) {
        let first = &cell[0];
        let mut row = |step: String, q: Fold, evals: f64| {
            t.row([
                first.task.clone(),
                first.variant.clone(),
                step,
                f4(q.mean),
                f4(q.min),
                f4(q.max),
                f2(evals),
            ]);
        };
        for (si, step) in first.report.steps.iter().enumerate() {
            // The first step has no prediction, under any seed.
            if let Some(q) = fold(cell, |r| r.steps[si].quality) {
                let evals = mean(cell, |r| r.steps[si].evaluations as f64);
                row(format!("t{}", step.step + 1), q, evals);
            }
        }
        if let Some(q) = fold(cell, |r| Some(r.mean_quality())) {
            let evals = mean(cell, |r| r.total_evaluations() as f64);
            row("mean".to_string(), q, evals);
        }
    }
    t
}

/// E2 — diversity of the result set fed to the Statistical Stage. Tasks:
/// `case_names`; variants: the paper systems.
pub fn e2_diversity(plan: &Plan, case_names: &[&str]) -> TextTable {
    let mut t = TextTable::new([
        "case",
        "method",
        "mean_pairwise_dist",
        "mean_gene_std",
        "distinct_frac",
        "fitness_iqr_of_set",
    ]);
    let tasks: Vec<Task> = case_names.iter().map(|name| Task::named(name)).collect();
    let variants = plan.paper_systems();
    let trials = plan.run(&tasks, &variants);
    for (i, cell) in plan.cells(&trials).enumerate() {
        // Task-major order, as `Plan::run` lays the cells out.
        let (task, variant) = (&tasks[i / variants.len()], &variants[i % variants.len()]);
        // Every step of every seed counts once.
        let over_steps = |project: fn(&StepReport) -> f64| {
            fold(cell, |r| r.steps.iter().map(project)).map_or(0.0, |f| f.mean)
        };
        // Fitness IQR of the result set on the first step of the first
        // seed (re-evaluated): spread of the *scores* in the set.
        let seed = plan.seeds[0];
        let ctx = Arc::new((task.case)(seed).step_context(1));
        let mut ev = ScenarioEvaluator::shared(ctx, Arc::clone(&plan.pool));
        let out = (variant.make)().optimize(&mut ev, seed);
        let fits = ev.evaluate(&out.result_set);
        t.row([
            task.label.clone(),
            variant.label.clone(),
            f4(over_steps(|s| s.diversity.mean_pairwise)),
            f4(over_steps(|s| s.diversity.mean_gene_std)),
            f4(over_steps(|s| {
                s.diversity.distinct as f64 / s.diversity.size.max(1) as f64
            })),
            f4(landscape::metrics::iqr(&fits)),
        ]);
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
    use evoalg::benchmarks::{self as bench, covers_both_basins, twin_basins};
    let mut t = TextTable::new([
        "function",
        "algorithm",
        "best_fitness_mean",
        "set_success_rate",
        "evaluations",
    ]);
    type Fitness = fn(&[f64]) -> f64;
    type SetSuccess = fn(&[Vec<f64>]) -> bool;
    // Name, objective, the result-set success criterion, dimensions.
    let objectives: [(&str, Fitness, SetSuccess, usize); 4] = [
        (
            "sphere(6)",
            bench::sphere,
            |set| set.iter().any(|g| bench::sphere(g) > 0.995),
            6,
        ),
        (
            "trap(16,b=4)",
            |g| deceptive_trap(g, 4),
            |set| set.iter().any(|g| bench::trap_is_optimal(g)),
            16,
        ),
        (
            "two_peaks(4)",
            |g| two_peaks(g, 0.6),
            |set| set.iter().any(|g| bench::two_peaks_is_optimal(g, 0.05)),
            4,
        ),
        ("twin_basins(2)", twin_basins, covers_both_basins, 2),
    ];
    const GENERATIONS: u32 = 60;
    // One search of `(objective, dims)` under a seed: the best fitness
    // seen, the result set, the evaluations spent.
    type Search = Box<dyn Fn(Fitness, usize, u64) -> (f64, Vec<Vec<f64>>, u64)>;
    // NS, with the paper's fitness-difference behaviour (Eq. 2) and with
    // the standard genotypic behaviour (ablation).
    let novelty_ga = |behaviour: BehaviourSpace| -> Search {
        Box::new(move |f, dims, seed| {
            let cfg = NoveltyGaConfig {
                population_size: 24,
                offspring: 24,
                max_generations: GENERATIONS,
                fitness_threshold: 2.0,
                behaviour,
                seed,
                ..NoveltyGaConfig::default()
            };
            let mut eval = |gs: &[Vec<f64>]| -> Vec<f64> { gs.iter().map(|g| f(g)).collect() };
            let out = NoveltyGa::new(dims, cfg).run(&mut eval);
            (
                out.best_set.max_fitness(),
                out.best_set.genomes(),
                out.evaluations,
            )
        })
    };
    // Fitness GA: result set = final population (the ESS policy).
    let fitness_ga: Search = Box::new(|f, dims, seed| {
        let cfg = GaConfig {
            population_size: 24,
            offspring: 24,
            seed,
            ..GaConfig::default()
        };
        let mut engine = GaEngine::new(dims, cfg);
        let mut eval = |gs: &[Vec<f64>]| -> Vec<f64> { gs.iter().map(|g| f(g)).collect() };
        engine.evaluate_initial(&mut eval);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..GENERATIONS {
            best = best.max(engine.step(&mut eval).best_fitness);
        }
        (best, engine.population().genomes(), engine.evaluations())
    });
    let algorithms = [
        ("NS-GA (Eq.2 dist)", novelty_ga(BehaviourSpace::Fitness)),
        ("NS-GA (genotype)", novelty_ga(BehaviourSpace::Genotype)),
        ("fitness-GA", fitness_ga),
    ];
    for (function, f, set_success, dims) in objectives {
        for (algorithm, search) in &algorithms {
            let runs: Vec<_> = seeds.iter().map(|&seed| search(f, dims, seed)).collect();
            let best: Vec<f64> = runs.iter().map(|run| run.0).collect();
            let successes = runs.iter().filter(|run| set_success(&run.1)).count();
            t.row([
                function.to_string(),
                algorithm.to_string(),
                f4(mean_of(&best)),
                f2(successes as f64 / seeds.len() as f64),
                runs.last().map_or(0, |run| run.2).to_string(),
            ]);
        }
    }
    t
}

/// E6 — the ESSIM-DE tuning operators' effect (restart \[21\] + IQR \[22\]).
///
/// The tuning papers operate at generation budgets long enough for
/// restarts to amortise (a restart spends evaluations re-seeding before it
/// can recover), so this experiment runs ESSIM-DE with a 30-generation
/// cap — roughly 3× the E1 budget — for both variants. Tasks: the two
/// drifting-truth cases; variants: tuning off / on.
pub fn e6_tuning(plan: &Plan) -> TextTable {
    use ess::essim_de::{EssimDe, EssimDeConfig, TuningConfig};
    use ess::Ring;
    let mut t = TextTable::new(["case", "variant", "mean_quality", "mean_evals"]);
    let tasks = ["shifting_wind", "moisture_front"].map(Task::named);
    let scale = plan.scale;
    let variants = [
        ("untuned", TuningConfig::disabled()),
        ("tuned", TuningConfig::enabled()),
    ]
    .map(|(label, tuning)| {
        Variant::new(label, move || {
            Box::new(EssimDe::new(EssimDeConfig {
                ring: Ring {
                    islands: 3,
                    island_population: scaled(12, scale),
                    max_generations: 30,
                    ..Ring::default()
                },
                result_set_size: scaled(24, scale),
                tuning,
                ..EssimDeConfig::default()
            }))
        })
    });
    for cell in plan.cells(&plan.run(&tasks, &variants)) {
        t.row([
            cell[0].task.clone(),
            cell[0].variant.clone(),
            f4(mean(cell, RunReport::mean_quality)),
            f2(mean(cell, |r| r.total_evaluations() as f64)),
        ]);
    }
    t
}

/// E7 — the hybrid fitness/novelty scoring ablation (§IV), plus the
/// NSLC quality-diversity variant (\[26\]). Task: `shifting_wind`;
/// variants: six scoring policies.
pub fn e7_hybrid(plan: &Plan) -> TextTable {
    let mut t = TextTable::new([
        "scoring",
        "mean_quality",
        "mean_diversity",
        "mean_best_fitness",
    ]);
    let weighted = |novelty_weight| ScoringPolicy::Weighted { novelty_weight };
    let nslc = ScoringPolicy::NoveltyLocalCompetition {
        novelty_weight: 0.5,
    };
    let base = plan.ess_ns_base();
    let variants = [
        ("w=1.00 (pure NS)", ScoringPolicy::PureNovelty),
        ("w=0.75", weighted(0.75)),
        ("w=0.50", weighted(0.5)),
        ("w=0.25", weighted(0.25)),
        ("w=0.00", weighted(0.0)),
        ("NSLC (w=0.5)", nslc),
    ]
    .map(|(label, scoring)| {
        let algorithm = NoveltyGaConfig { scoring, ..base };
        ess_ns(label, algorithm, InclusionPolicy::BestOnly)
    });
    for cell in plan.cells(&plan.run(&[Task::named("shifting_wind")], &variants)) {
        t.row([
            cell[0].variant.clone(),
            f4(mean(cell, RunReport::mean_quality)),
            f4(mean(cell, RunReport::mean_diversity)),
            f4(mean(cell, |r| step_mean(r, |s| s.os_best_fitness))),
        ]);
    }
    t
}

/// E8 — NS hyper-parameter ablation: `k`, archive capacity, `bestSet`
/// size, behaviour space. Task: `two_ridge`; variants: one `parameter=value`
/// setting each, around one scaled base configuration.
pub fn e8_ablation(plan: &Plan) -> TextTable {
    let mut t = TextTable::new([
        "parameter",
        "value",
        "mean_quality",
        "mean_diversity",
        "mean_evals",
    ]);
    let base = NoveltyGaConfig {
        archive_capacity: scaled(64, plan.scale),
        ..plan.ess_ns_base()
    };
    let k = |novelty_neighbours| NoveltyGaConfig {
        novelty_neighbours,
        ..base
    };
    let archive = |capacity| NoveltyGaConfig {
        archive_capacity: scaled(capacity, plan.scale),
        ..base
    };
    let best_set = |capacity| NoveltyGaConfig {
        best_set_capacity: scaled(capacity, plan.scale),
        ..base
    };
    // Behaviour-space ablation rides along (fitness vs genotype distance).
    let genotype = NoveltyGaConfig {
        behaviour: BehaviourSpace::Genotype,
        ..base
    };
    let variants = [
        ("k=3", k(3)),
        ("k=5", k(5)),
        ("k=10", k(10)),
        ("k=15", k(15)),
        ("archive=16", archive(16)),
        ("archive=64", archive(64)),
        ("archive=256", archive(256)),
        ("bestSet=8", best_set(8)),
        ("bestSet=24", best_set(24)),
        ("bestSet=48", best_set(48)),
        ("behaviour=genotype", genotype),
    ]
    .map(|(label, algorithm)| ess_ns(label, algorithm, InclusionPolicy::BestOnly));
    for cell in plan.cells(&plan.run(&[Task::named("two_ridge")], &variants)) {
        let (parameter, value) = cell[0].variant.split_once('=').unwrap_or_default();
        t.row([
            parameter.to_string(),
            value.to_string(),
            f4(mean(cell, RunReport::mean_quality)),
            f4(mean(cell, RunReport::mean_diversity)),
            f2(mean(cell, |r| r.total_evaluations() as f64)),
        ]);
    }
    t
}

/// E9 — result-set composition under a drifting truth (§IV). Task:
/// `shifting_wind`; variants: five inclusion policies.
pub fn e9_inclusion(plan: &Plan) -> TextTable {
    let mut t = TextTable::new(["policy", "mean_quality", "mean_set_size", "mean_diversity"]);
    let variants = [
        ("best-only", InclusionPolicy::BestOnly),
        ("novel-10%", InclusionPolicy::WithNovel { fraction: 0.10 }),
        ("novel-25%", InclusionPolicy::WithNovel { fraction: 0.25 }),
        ("random-10%", InclusionPolicy::WithRandom { fraction: 0.10 }),
        ("random-25%", InclusionPolicy::WithRandom { fraction: 0.25 }),
    ]
    .map(|(label, inclusion)| ess_ns(label, plan.ess_ns_base(), inclusion));
    for cell in plan.cells(&plan.run(&[Task::named("shifting_wind")], &variants)) {
        t.row([
            cell[0].variant.clone(),
            f4(mean(cell, RunReport::mean_quality)),
            f2(mean(cell, |r| step_mean(r, |s| s.diversity.size as f64))),
            f4(mean(cell, RunReport::mean_diversity)),
        ]);
    }
    t
}

/// E10 — robustness to observation noise (extension): prediction quality
/// of each method as the observed fire lines degrade with front-cell
/// sensor noise. The paper's whole premise is input uncertainty; this
/// experiment injects it into the *observations* rather than the
/// parameters and asks which result-set policy degrades most gracefully.
/// Tasks: `shifting_wind` observed at three flip probabilities, the noise
/// drawn per seed (probability 0 flips nothing: the clean case); variants:
/// the paper systems.
pub fn e10_noise(plan: &Plan) -> TextTable {
    let mut t = TextTable::new([
        "flip_prob",
        "method",
        "mean_quality",
        "quality_drop_vs_clean",
    ]);
    let clean = cases::shifting_wind();
    let tasks = [0.0, 0.10, 0.25].map(|flip| {
        let clean = clean.clone();
        Task {
            label: f2(flip),
            case: Box::new(move |seed| cases::with_observation_noise(&clean, flip, seed)),
        }
    });
    let variants = plan.paper_systems();
    let trials = plan.run(&tasks, &variants);
    let cells: Vec<&[Trial]> = plan.cells(&trials).collect();
    for (i, cell) in cells.iter().enumerate() {
        let q = mean(cell, RunReport::mean_quality);
        // Task-major order: the first `variants.len()` cells are the clean
        // observations, one per method.
        let drop = if i < variants.len() {
            "-".to_string()
        } else {
            f4(mean(cells[i % variants.len()], RunReport::mean_quality) - q)
        };
        t.row([cell[0].task.clone(), cell[0].variant.clone(), f4(q), drop]);
    }
    t
}
