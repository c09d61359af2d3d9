//! The experiment implementations behind the `harness` binary — one
//! function per table/figure of README § "Experiments".
//!
//! The pipeline-driven tables (E1, E2, E6–E10) are rows of one [`Plan`]: an
//! experiment declares its trials as data — one [`RunSpec`] per registry
//! row × case × seed, at the plan's scale ([`Plan::specs`]), and for E10
//! the probability with which the observations are misread — and
//! [`Plan::run`] builds and drains every trial on the plan's one pool: a
//! clean one with [`RunSpec::sessions_on`], the path `serve` runs, cases
//! shared through `ess_service::store`. It returns one [`Trial`] per run,
//! and the experiment projects columns out of those records with [`fold`].
//! The plan keeps every record under what its trial ran ([`TrialKey`]), so
//! a trial asked for again — E2 asks for E1's, and E8's `k=5` is ESS-NS
//! under another name — is answered from the record, not run twice. E5
//! and the three narrated traces drive engines directly. No artifact
//! carries a clock reading, so the same command writes the same bytes
//! twice and on any backend.

use ess::calibration::skign_search;
use ess::cases;
use ess::fitness::{EvalBackend, ScenarioEvaluator, SharedScenarioPool};
use ess::pipeline::{RunReport, StepReport};
use ess::report::{f2, f4, TextTable};
use ess::stages::statistical_stage_genomes;
use ess_service::systems::{self, SystemConfig, SystemSpec};
use ess_service::{store, Budget, PredictionSession, RunSpec, ServiceError};
use evoalg::benchmarks::{deceptive_trap, two_peaks};
use evoalg::{BatchEvaluator, GaConfig, GaEngine};
use firelib::ScenarioSpace;
use std::cell::RefCell;
use std::sync::Arc;

/// What every experiment of one harness invocation shares: the one pool
/// scenario batches are evaluated on (built from `--backend` at start-up,
/// so its threads live for the process, not for a step), the replicate
/// seeds and the evaluation-budget scale.
pub struct Plan {
    /// Where every trial's scenario batches run.
    pub pool: Arc<SharedScenarioPool>,
    /// One trial per row × case for each of these.
    pub seeds: Vec<u64>,
    /// Per-step budget scale of every trial.
    pub scale: f64,
    /// Every trial [`Plan::run`] has drained, in the order it ran them.
    trials: RefCell<Vec<Trial>>,
}

/// What a trial runs, whatever its row is called: the row's optimizer
/// configuration at the plan's scale, the case, the probability with which
/// each observed front cell is misread, and the seed. Two trials with one
/// key are one run.
#[derive(Clone, PartialEq)]
pub struct TrialKey {
    /// The resolved configuration, equal across rows that differ only in
    /// name (E8's `k=5` and ESS-NS).
    pub config: SystemConfig,
    /// The case's registry name.
    pub case: String,
    /// E10's observation noise; [`CLEAN`] for the case as built.
    pub flip: f64,
    /// The session's base seed.
    pub seed: u64,
}

/// The result record of one trial: what it ran, and the run's report,
/// whose `system` is the row the trial was asked for under and whose
/// `case` is the canonical name the case resolved to.
#[derive(Clone)]
pub struct Trial {
    /// What the trial ran.
    pub key: TrialKey,
    /// The drained run.
    pub report: RunReport,
}

/// The observations as the case built them: no front cell misread.
pub const CLEAN: f64 = 0.0;

/// What an experiment compares: registry rows × the cases they run on.
pub type Design<'a> = (&'a [SystemSpec], &'a [&'a str]);

/// The designs fixed here (E1 and E2 run the paper systems on `--cases`):
/// tuning on the two drifting-truth cases, the §IV variants on the
/// drifting wind, the hyper-parameters on the two-ridge relief, the paper
/// systems under observation noise on the drifting wind.
const E6: Design = (systems::TUNING, &["shifting_wind", "moisture_front"]);
const E7: Design = (systems::SCORING, &["shifting_wind"]);
const E8: Design = (systems::HYPER_PARAMETERS, &["two_ridge"]);
const E9: Design = (systems::INCLUSION, &["shifting_wind"]);
const E10: Design = (systems::all(), &["shifting_wind"]);

impl Trial {
    /// The row's name within its family: `k=3` of `ESS-NS/k=3`.
    fn variant(&self) -> &'static str {
        let system = self.report.system;
        system.split_once('/').map_or(system, |(_, v)| v)
    }
}

impl Plan {
    /// A plan of `replicates` seeds (1000, 1001, …) at `scale` on a pool
    /// built from `backend`.
    pub fn new(backend: EvalBackend, replicates: usize, scale: f64) -> Self {
        Self {
            pool: Arc::new(SharedScenarioPool::new(backend)),
            seeds: (0..replicates as u64).map(|i| 1000 + i).collect(),
            scale,
            trials: RefCell::default(),
        }
    }

    /// Every trial of a design — one per case × row × seed, case-major,
    /// then row, then seed — as its row's name and its key at this plan's
    /// scale, with observations misread at `flip`.
    fn trials_of(&self, (rows, cases): Design, flip: f64) -> Vec<(&'static str, TrialKey)> {
        let mut trials = Vec::with_capacity(cases.len() * rows.len() * self.seeds.len());
        for &case in cases {
            for row in rows {
                let config = row.config(self.scale);
                for &seed in &self.seeds {
                    let key = TrialKey {
                        config: config.clone(),
                        case: case.to_string(),
                        flip,
                        seed,
                    };
                    trials.push((row.name, key));
                }
            }
        }
        trials
    }

    /// The spec that asks for `key` under the row `system`, as `serve`
    /// would take it (the flip aside).
    fn spec(&self, system: &str, key: &TrialKey) -> RunSpec {
        RunSpec::new(system, &key.case)
            .scale(self.scale)
            .seed(key.seed)
    }

    /// The specs of a design's trials, in [`Plan::run`]'s order.
    pub fn specs(&self, design: Design) -> Vec<RunSpec> {
        let trials = self.trials_of(design, CLEAN);
        trials
            .iter()
            .map(|(system, key)| self.spec(system, key))
            .collect()
    }

    /// Runs every trial of `design`, its observations misread with
    /// probability `flip`, to its end on the plan's pool and returns one
    /// record per trial in [`Plan::specs`] order. A trial whose key this
    /// plan has already drained is not run again: its record is the
    /// earlier one, under the asking row's name.
    ///
    /// # Panics
    /// Panics on a case that does not resolve (the experiments name
    /// registered rows and cases and set no budget, and the harness checks
    /// `--cases` up front).
    #[expect(
        clippy::panic,
        reason = "the experiments name registered rows and cases and set no budget, and the harness checks `--cases` up front"
    )]
    pub fn run(&self, design: Design, flip: f64) -> Vec<Trial> {
        let mut ran = self.trials.borrow_mut();
        let mut trials = Vec::new();
        for (system, key) in self.trials_of(design, flip) {
            let report = match ran.iter().find(|t| t.key == key) {
                Some(earlier) => earlier.report.clone(),
                None => {
                    let session = self.session(system, &key);
                    let report = session.and_then(|mut s| s.drain());
                    let report = report.unwrap_or_else(|e| panic!("{e}"));
                    let key = key.clone();
                    ran.push(Trial {
                        key,
                        report: report.clone(),
                    });
                    report
                }
            };
            let report = RunReport { system, ..report };
            trials.push(Trial { key, report });
        }
        trials
    }

    /// The one place the harness builds a session: the spec's own on the
    /// plan's pool, or — for misread observations, which no case name
    /// says — the key's configuration and seed on the store's case with
    /// its fire lines flipped per seed.
    fn session(&self, system: &str, key: &TrialKey) -> Result<PredictionSession, ServiceError> {
        if key.flip == CLEAN {
            // A plan's spec has one replicate.
            return Ok(self.spec(system, key).sessions_on(&self.pool)?.remove(0));
        }
        Ok(PredictionSession::new(
            cases::with_observation_noise(&store::case(&key.case)?, key.flip, key.seed),
            key.config.clone().build(),
            Arc::clone(&self.pool),
            key.seed,
            Budget::unlimited(),
        ))
    }

    /// The records of [`Plan::run`] grouped per case × row cell: one slice
    /// per table row group, its trials in seed order.
    pub fn cells<'a>(&self, trials: &'a [Trial]) -> std::slice::Chunks<'a, Trial> {
        trials.chunks(self.seeds.len())
    }
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
    #[expect(clippy::expect_used, reason = "a registry row")]
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
        "[SS]         aggregated the maps of {} result-set members into an ignition-probability matrix ({} distinct levels)\n",
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
    #[expect(clippy::expect_used, reason = "a registry row")]
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
    use ess_ns::{NoveltyGa, NoveltyGaConfig};
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
/// predecessor systems). Cases: `case_names`; rows: the paper systems.
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
    for cell in plan.cells(&plan.run((systems::all(), case_names), CLEAN)) {
        let first = &cell[0];
        let mut row = |step: String, q: Fold, evals: f64| {
            t.row([
                first.report.case.to_string(),
                first.report.system.to_string(),
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

/// E2 — diversity of the result set fed to the Statistical Stage. Cases:
/// `case_names`; rows: the paper systems — E1's trials, so on a plan that
/// has run E1 this table drains nothing.
///
/// `fitness_iqr_of_set` is the exception: it re-runs step 1 of each cell's
/// first trial with the replicate seed itself (`plan.seeds[0]`), where the
/// trial's own step 1 searched with `step_seed(seed, 1)`, so the column
/// describes a search no trial ran.
pub fn e2_diversity(plan: &Plan, case_names: &[&str]) -> TextTable {
    let mut t = TextTable::new([
        "case",
        "method",
        "mean_pairwise_dist",
        "mean_gene_std",
        "distinct_frac",
        "fitness_iqr_of_set",
    ]);
    for cell in plan.cells(&plan.run((systems::all(), case_names), CLEAN)) {
        // Every step of every seed counts once.
        let over_steps = |project: fn(&StepReport) -> f64| {
            fold(cell, |r| r.steps.iter().map(project)).map_or(0.0, |f| f.mean)
        };
        // Fitness IQR of the result set of one step-1 search, re-evaluated:
        // spread of the *scores* in the set. The first trial's key names
        // its case and optimizer; the seed is not its step's (see the doc
        // above).
        let first = &cell[0].key;
        #[expect(clippy::expect_used, reason = "the trial's case already ran")]
        let case = store::case(&first.case).expect("the trial ran");
        let ctx = Arc::new(case.step_context(1));
        let mut ev = ScenarioEvaluator::shared(ctx, Arc::clone(&plan.pool));
        let out = first
            .config
            .clone()
            .build()
            .optimize(&mut ev, plan.seeds[0]);
        let mut fits = ev.evaluate(&out.result_set);
        t.row([
            cell[0].report.case.to_string(),
            cell[0].report.system.to_string(),
            f4(over_steps(|s| s.diversity.mean_pairwise)),
            f4(over_steps(|s| s.diversity.mean_gene_std)),
            f4(over_steps(|s| {
                s.diversity.distinct as f64 / s.diversity.size.max(1) as f64
            })),
            f4(evoalg::engine::iqr(&mut fits)),
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
    use ess_ns::{BehaviourSpace, NoveltyGa, NoveltyGaConfig};
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
    // One search of `(objective, dims)` under a seed finds: the best
    // fitness seen, the result set, the evaluations spent.
    type Found = (f64, Vec<Vec<f64>>, u64);
    type Search = fn(Fitness, usize, u64) -> Found;
    // NS, with the paper's fitness-difference behaviour (Eq. 2) and with
    // the standard genotypic behaviour (ablation).
    fn novelty_ga(behaviour: BehaviourSpace, f: Fitness, dims: usize, seed: u64) -> Found {
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
    }
    // Fitness GA: result set = final population (the ESS policy).
    let fitness_ga: Search = |f, dims, seed| {
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
        let evaluations = engine.evaluations();
        (best, engine.into_population(), evaluations)
    };
    let algorithms: [(&str, Search); 3] = [
        ("NS-GA (Eq.2 dist)", |f, dims, seed| {
            novelty_ga(BehaviourSpace::Fitness, f, dims, seed)
        }),
        ("NS-GA (genotype)", |f, dims, seed| {
            novelty_ga(BehaviourSpace::Genotype, f, dims, seed)
        }),
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
/// can recover), so both rows run ESSIM-DE with a 30-generation cap —
/// roughly 3× the E1 budget. Cases: the two drifting-truth cases; rows:
/// tuning off / on.
pub fn e6_tuning(plan: &Plan) -> TextTable {
    let mut t = TextTable::new(["case", "variant", "mean_quality", "mean_evals"]);
    for cell in plan.cells(&plan.run(E6, CLEAN)) {
        t.row([
            cell[0].report.case.to_string(),
            cell[0].variant().to_string(),
            f4(mean(cell, RunReport::mean_quality)),
            f2(mean(cell, |r| r.total_evaluations() as f64)),
        ]);
    }
    t
}

/// E7 — the hybrid fitness/novelty scoring ablation (§IV), plus the
/// NSLC quality-diversity variant (\[26\]). Case: `shifting_wind`; rows:
/// six scoring policies.
pub fn e7_hybrid(plan: &Plan) -> TextTable {
    let mut t = TextTable::new([
        "scoring",
        "mean_quality",
        "mean_diversity",
        "mean_best_fitness",
    ]);
    for cell in plan.cells(&plan.run(E7, CLEAN)) {
        let scoring = match cell[0].variant() {
            "w=1.00" => "w=1.00 (pure NS)",
            "nslc" => "NSLC (w=0.5)",
            weighted => weighted,
        };
        t.row([
            scoring.to_string(),
            f4(mean(cell, RunReport::mean_quality)),
            f4(mean(cell, RunReport::mean_diversity)),
            f4(mean(cell, |r| step_mean(r, |s| s.os_best_fitness))),
        ]);
    }
    t
}

/// E8 — NS hyper-parameter ablation: `k`, archive capacity, `bestSet`
/// size, behaviour space. Case: `two_ridge`; rows: one `parameter=value`
/// setting each, around one scaled base configuration.
pub fn e8_ablation(plan: &Plan) -> TextTable {
    let mut t = TextTable::new([
        "parameter",
        "value",
        "mean_quality",
        "mean_diversity",
        "mean_evals",
    ]);
    for cell in plan.cells(&plan.run(E8, CLEAN)) {
        let (parameter, value) = cell[0].variant().split_once('=').unwrap_or_default();
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

/// E9 — result-set composition under a drifting truth (§IV). Case:
/// `shifting_wind`; rows: five inclusion policies.
pub fn e9_inclusion(plan: &Plan) -> TextTable {
    let mut t = TextTable::new(["policy", "mean_quality", "mean_set_size", "mean_diversity"]);
    for cell in plan.cells(&plan.run(E9, CLEAN)) {
        t.row([
            cell[0].variant().to_string(),
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
/// Case: `shifting_wind` observed at three flip probabilities, the noise
/// drawn per seed — probability 0 is the clean case, E1's trials on it;
/// rows: the paper systems.
pub fn e10_noise(plan: &Plan) -> TextTable {
    let mut t = TextTable::new([
        "flip_prob",
        "method",
        "mean_quality",
        "quality_drop_vs_clean",
    ]);
    // Mean quality per method on the clean observations (the first flip).
    let mut clean_quality = Vec::new();
    for flip in [CLEAN, 0.10, 0.25] {
        for (i, cell) in plan.cells(&plan.run(E10, flip)).enumerate() {
            let q = mean(cell, RunReport::mean_quality);
            let drop = match clean_quality.get(i) {
                Some(clean) => f4(clean - q),
                None => {
                    clean_quality.push(q);
                    "-".to_string()
                }
            };
            t.row([f2(flip), cell[0].report.system.to_string(), f4(q), drop]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ess_service::jsonio::Json;

    #[test]
    fn every_plan_is_data_the_service_accepts() {
        // Each trial validates, survives the wire's own encoding and
        // resolves to a session naming the row and the case it was
        // declared with — nothing about a trial lives outside its spec.
        let plan = Plan::new(EvalBackend::Serial, 2, 0.25);
        let library = ["grass_uniform", "two_ridge"];
        for design in [(systems::all(), &library[..]), E6, E7, E8, E9, E10] {
            let specs = plan.specs(design);
            assert_eq!(specs.len(), design.0.len() * design.1.len() * 2);
            for (i, spec) in specs.iter().enumerate() {
                spec.validate().expect("valid");
                let text = spec.to_json().to_string();
                let wire = RunSpec::from_json(&Json::parse(&text).expect("json")).expect("spec");
                assert_eq!(&wire, spec, "{text}");
                let session = wire.session().expect("resolves");
                let (case, row) = (i / 2 / design.0.len(), i / 2 % design.0.len());
                assert_eq!(session.system(), design.0[row].name, "{text}");
                assert_eq!(session.case_name(), design.1[case], "{text}");
            }
        }
    }

    #[test]
    fn e2_after_e1_drains_no_trial_and_writes_a_fresh_plans_table() {
        let cases = ["meadow_small"];
        let plan = Plan::new(EvalBackend::Serial, 2, 0.1);
        e1_quality(&plan, &cases);
        let ran = plan.trials.borrow().len();
        assert_eq!(ran, systems::all().len() * 2);
        let e2 = e2_diversity(&plan, &cases).to_csv();
        assert_eq!(plan.trials.borrow().len(), ran, "E2 drained a trial E1 ran");

        let fresh = Plan::new(EvalBackend::Serial, 2, 0.1);
        assert_eq!(e2, e2_diversity(&fresh, &cases).to_csv());
        assert_eq!(fresh.trials.borrow().len(), ran);
    }

    #[test]
    fn a_configuration_runs_once_whatever_its_rows_are_called() {
        // At 0.125 `ESS-NS/k=5`'s archive, scaled(64) = 8, is twice ESS-NS's
        // scaled population of 4, and its k and bestSet are ESS-NS's.
        let cases = ["meadow_small"];
        let plan = Plan::new(EvalBackend::Serial, 1, 0.125);
        let paper = (&systems::all()[3..], &cases[..]);
        let k5 = (&systems::HYPER_PARAMETERS[1..2], &cases[..]);
        let drained = || plan.trials.borrow().len();
        plan.run(paper, CLEAN);
        let renamed = plan.run(k5, CLEAN);
        assert_eq!(drained(), 1, "ESS-NS/k=5 ran ESS-NS again");
        assert_eq!(renamed[0].report.system, "ESS-NS/k=5");
        assert_eq!(renamed[0].variant(), "k=5");
        // E10's flip 0 is the case as built; a misread one is another run.
        plan.run(paper, 0.0);
        assert_eq!(drained(), 1, "a flip-0 trial ran the clean one again");
        plan.run(paper, 0.10);
        assert_eq!(drained(), 2);

        // E1 runs only the three baselines, and every table is a fresh
        // plan's: E1's, and k=5's record against its own run.
        let e1 = e1_quality(&plan, &cases).to_csv();
        assert_eq!(drained(), 5);
        let fresh = Plan::new(EvalBackend::Serial, 1, 0.125);
        assert_eq!(e1, e1_quality(&fresh, &cases).to_csv());
        let own = Plan::new(EvalBackend::Serial, 1, 0.125).run(k5, CLEAN);
        let columns = |t: &Trial| {
            let r = &t.report;
            (
                r.system,
                r.mean_quality(),
                r.mean_diversity(),
                r.total_evaluations(),
            )
        };
        assert_eq!(columns(&renamed[0]), columns(&own[0]));
    }

    #[test]
    fn a_variant_trial_reports_its_row() {
        let plan = Plan::new(EvalBackend::Serial, 1, 0.05);
        let trials = plan.run((&systems::INCLUSION[1..2], &["meadow_small"]), CLEAN);
        assert_eq!(trials.len(), 1);
        assert_eq!(trials[0].report.system, "ESS-NS/novel-10%");
        assert_eq!(trials[0].variant(), "novel-10%");
        assert_eq!(trials[0].key.case, trials[0].report.case);
    }
}
