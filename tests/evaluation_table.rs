//! The evaluator's table, counted: an evaluation is a fitness the search
//! asked for, a simulation is one the backend ran, and a step runs each
//! distinct run once — a run being what `FireSim::run_key` says it is.
//!
//! A counting backend under `ScenarioEvaluator::with_backend` scores every
//! row it is handed the plain way (`StepContext::fitness_of`) and logs it.
//! Batch level: every answer is bitwise the plain fitness of its row, the
//! backend sees each distinct run exactly once, as its first-occurring
//! genome (a batch of repeats not at all), and `evaluations()` counts every
//! row — on a layered case, where genomes that differ only in a gene the
//! terrain overrides are one run, the backend sees one row per run. Pipeline
//! level: every paper system's run on `meadow_small` is the
//! one a pool gives, and its simulations against its evaluations, step by
//! step, are reported (`--nocapture`) and pinned by system — a change that
//! adds simulations, or stops saving them, fails here on any host. Every
//! simulation the run makes is pinned too: on a serial pool every search
//! batch and every stage-tail fold runs in the pool's spare arena, whose
//! `firelib::Work::runs` counts them; what it counts beyond the search's
//! simulations is the stage tail re-simulating the result set.

#![allow(
    clippy::unwrap_used,
    reason = "helpers outside a #[test] fn fail the test they serve, as an assert in it would"
)]

use essns_repro::ess::cases;
use essns_repro::ess::fitness::{
    DynBackend, EvalBackend, ScenarioEvaluator, SharedScenarioPool, StepContext,
};
use essns_repro::ess::pipeline::{PredictionPipeline, StepDriver};
use essns_repro::ess_service::systems;
use essns_repro::evoalg::BatchEvaluator;
use essns_repro::firelib::{ScenarioSpace, GENE_COUNT};
use essns_repro::parworker::Backend;
use std::sync::{Arc, Mutex};

/// Every row a backend was handed, batch by batch.
type Log = Arc<Mutex<Vec<Vec<Vec<f64>>>>>;

/// Scores each row with `fitness_of` and logs the batch.
struct Counting {
    ctx: Arc<StepContext>,
    log: Log,
}

impl Backend<Vec<f64>, f64> for Counting {
    fn map(&mut self, tasks: Vec<Vec<f64>>) -> Vec<f64> {
        let fitness = tasks
            .iter()
            .map(|g| self.ctx.fitness_of(&ScenarioSpace.decode(g)))
            .collect();
        self.log.lock().unwrap().push(tasks);
        fitness
    }

    fn name(&self) -> String {
        "counting".into()
    }

    fn workers(&self) -> usize {
        1
    }
}

fn counting(ctx: Arc<StepContext>, log: &Log) -> ScenarioEvaluator {
    let backend: DynBackend = Box::new(Counting {
        ctx: Arc::clone(&ctx),
        log: Arc::clone(log),
    });
    ScenarioEvaluator::with_backend(ctx, backend)
}

/// A genome of 0.3s but for its wind-speed gene.
fn genome(wind: f64) -> Vec<f64> {
    let mut g = vec![0.3; GENE_COUNT];
    g[1] = wind;
    g
}

#[test]
fn the_backend_sees_each_distinct_genome_once_and_every_row_is_counted() {
    let ctx = Arc::new(cases::tiny_test_case().step_context(1));
    let log = Log::default();
    let mut evaluator = counting(Arc::clone(&ctx), &log);
    let (a, b, c, d) = (genome(0.1), genome(0.2), genome(0.4), genome(0.8));
    // Two aspects are two runs: they sit in the last gene, so a key that
    // forgets a gene merges them. The genes `0.0` and `-0.0` decode to
    // one aspect, so they are one run, submitted as the first of them.
    let last = |v: f64| {
        let mut g = genome(0.5);
        g[GENE_COUNT - 1] = v;
        g
    };
    let (zero, negative_zero, east) = (last(0.0), last(-0.0), last(0.25));
    let batches = [
        vec![a.clone(), b.clone(), a.clone(), c.clone()],
        vec![b.clone(), d.clone(), c.clone(), d.clone()],
        vec![c.clone(), a.clone(), b.clone()],
        vec![negative_zero.clone(), east.clone(), zero.clone()],
    ];
    let mut rows = 0;
    for (i, batch) in batches.iter().enumerate() {
        let got = evaluator.evaluate(batch);
        let plain: Vec<u64> = batch
            .iter()
            .map(|g| ctx.fitness_of(&ScenarioSpace.decode(g)).to_bits())
            .collect();
        let got: Vec<u64> = got.iter().map(|f| f.to_bits()).collect();
        assert_eq!(
            got, plain,
            "batch {i}: the table's answers are the plain fitness"
        );
        rows += batch.len() as u64;
        assert_eq!(evaluator.evaluations(), rows, "batch {i}: every row counts");
    }
    // Within a batch and across batches, first occurrence only; the third
    // batch is all repeats and never reaches the backend.
    let seen = log.lock().unwrap().clone();
    assert_eq!(seen, [vec![a, b, c], vec![d], vec![negative_zero, east]]);
}

#[test]
fn on_a_layered_case_the_backend_sees_one_row_per_run_and_every_row_is_counted() {
    // patchwork_mosaic has a fuel layer, two_ridge slope and aspect ones:
    // the model gene, and the slope and aspect genes, are not the run's.
    for (name, ignored) in [("patchwork_mosaic", &[0][..]), ("two_ridge", &[7, 8])] {
        let case = cases::by_name(name).expect("a library or corpus case");
        let ctx = Arc::new(case.step_context(1));
        let log = Log::default();
        let mut evaluator = counting(Arc::clone(&ctx), &log);
        let moved = |g: &[f64], v: f64| {
            let mut g = g.to_vec();
            for &i in ignored {
                g[i] = v;
            }
            g
        };
        let (a, b) = (genome(0.1), genome(0.2));
        let (a2, a3, b2) = (moved(&a, 0.9), moved(&a, -0.0), moved(&b, 0.05));
        // A gene the terrain does not override still makes its own run.
        let mut c = a.clone();
        c[3] = 0.6;
        let batches = [
            vec![a.clone(), a2.clone(), b.clone()],
            vec![b2.clone(), a3.clone(), c.clone(), a2.clone()],
            vec![a3, b2],
        ];
        let mut rows = 0;
        for (i, batch) in batches.iter().enumerate() {
            let got: Vec<u64> = evaluator
                .evaluate(batch)
                .iter()
                .map(|f| f.to_bits())
                .collect();
            let plain: Vec<u64> = batch
                .iter()
                .map(|g| ctx.fitness_of(&ScenarioSpace.decode(g)).to_bits())
                .collect();
            assert_eq!(got, plain, "{name} batch {i}: the plain fitness");
            rows += batch.len() as u64;
            assert_eq!(
                evaluator.evaluations(),
                rows,
                "{name} batch {i}: every row counts"
            );
        }
        // One row per run, as its first-occurring genome.
        let seen = log.lock().unwrap().clone();
        assert_eq!(seen, [vec![a, b], vec![c]], "{name}");
    }
}

/// Per system: total evaluations and search simulations of its
/// `meadow_small` run at scale 0.25, seed 7, and the runs its serial
/// pool's spare arena counted — the search's and the stage tail's.
const PINNED: [(&str, u64, u64, u64); 4] = [
    ("ESS", 312, 223, 254),
    ("ESSIM-EA", 432, 329, 344),
    ("ESSIM-DE", 388, 355, 370),
    ("ESS-NS", 312, 229, 257),
];

#[test]
fn simulations_against_evaluations_per_step_by_system() {
    let case = cases::by_name("meadow_small").expect("a library case");
    let pool = Arc::new(SharedScenarioPool::new(EvalBackend::Serial));
    let mut totals = Vec::new();
    println!("system     step  evaluations  simulations  result set  distinct");
    for system in systems::all() {
        let serial = Arc::new(SharedScenarioPool::new(EvalBackend::Serial));
        let reference =
            PredictionPipeline::on_pool(Arc::clone(&serial), 7).run(&case, &mut *system.make(0.25));
        let runs = serial.with_spare(&case.sim, |arena, _| arena.work().runs);
        let mut optimizer = system.make(0.25);
        let mut driver = StepDriver::new(case.clone(), Arc::clone(&pool), 7);
        let (mut evaluations, mut simulations) = (0, 0);
        let mut steps = Vec::new();
        loop {
            let log = Log::default();
            let Some(step) = driver.step_with(&mut *optimizer, |ctx| counting(ctx, &log)) else {
                break;
            };
            let ran: u64 = log.lock().unwrap().iter().map(|b| b.len() as u64).sum();
            println!(
                "{:<10} {:>4}  {:>11}  {:>11}  {:>10}  {:>8}",
                system.name,
                step.step,
                step.evaluations,
                ran,
                step.diversity.size,
                step.diversity.distinct
            );
            assert!(
                ran <= step.evaluations,
                "{}: more simulations than evaluations",
                system.name
            );
            evaluations += step.evaluations;
            simulations += ran;
            steps.push(step);
        }
        assert_eq!(
            steps, reference.steps,
            "{}: the counted run is the pool's",
            system.name
        );
        totals.push((system.name, evaluations, simulations, runs));
    }
    println!("system      search simulations  arena runs  stage tail");
    for &(name, _, simulations, runs) in &totals {
        println!(
            "{name:<10}  {simulations:>18}  {runs:>10}  {:>10}",
            runs - simulations
        );
    }
    assert_eq!(
        totals, PINNED,
        "evaluations, simulations and arena runs by system moved"
    );
}
