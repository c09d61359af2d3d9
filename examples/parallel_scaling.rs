//! Master/Worker scaling of the Optimization Stage — the paper's
//! parallelisation claim ("parallelism … in the evaluation of the
//! scenarios, i.e., in the simulation process and subsequent computation of
//! the fitness function", §III-B) measured on this machine.
//!
//! ```sh
//! cargo run --release --example parallel_scaling
//! ```

use ess::fitness::{EvalBackend, ScenarioEvaluator, StepContext};
use ess::pipeline::StepOptimizer;
use ess_ns::EssNs;
use firelib::sim::centre_ignition;
use firelib::{FireSim, Scenario, Terrain};
use parworker::stats::render_speedup_table;
use parworker::{SpeedupRow, Stopwatch};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Deployment-scale raster: each scenario evaluation costs milliseconds
    // (on toy grids the farm's messaging overhead would dominate).
    let n = 128usize;
    let sim = Arc::new(FireSim::new(Terrain::uniform(n, n, 100.0)));
    let ignition = centre_ignition(n, n);
    let truth = Scenario {
        wind_speed_mph: 10.0,
        wind_dir_deg: 45.0,
        ..Scenario::reference()
    };
    let target = sim.simulate_fire_line(&truth, &ignition, 0.0, 60.0);
    let ctx = Arc::new(StepContext::new(sim, ignition, target, 0.0, 60.0));
    println!("one ESS-NS Optimization Stage on a {n}x{n} raster (~420 evaluations)\n");

    let time_backend = |backend: EvalBackend| -> Duration {
        let mut optimizer = EssNs::baseline();
        let mut evaluator = ScenarioEvaluator::new(Arc::clone(&ctx), backend);
        let sw = Stopwatch::start();
        let out = optimizer.optimize(&mut evaluator, 7);
        let elapsed = sw.elapsed();
        assert!(out.evaluations > 0);
        elapsed
    };

    // Warm-up, then measure.
    let _ = time_backend(EvalBackend::Serial);
    let baseline = time_backend(EvalBackend::Serial);
    let mut rows = vec![SpeedupRow::new(1, baseline, baseline)];
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let mut counts = vec![2, cores.max(2), 2 * cores];
    counts.sort_unstable();
    counts.dedup();
    for workers in counts {
        rows.push(SpeedupRow::new(
            workers,
            time_backend(EvalBackend::WorkerPool(workers)),
            baseline,
        ));
    }
    println!("master/worker farm (channel scatter/gather):");
    println!("{}", render_speedup_table(&rows));

    let rayon2 = time_backend(EvalBackend::Rayon(2));
    println!(
        "rayon(2) work stealing: {:.1} ms (speedup {:.2})",
        rayon2.as_secs_f64() * 1e3,
        baseline.as_secs_f64() / rayon2.as_secs_f64(),
    );
    println!(
        "\nWith {cores} cores available, speedup saturates at ~{cores}x; oversubscribed\n\
         worker counts only add scheduling overhead — the same plateau the\n\
         predecessor papers report for their MPI deployments.",
    );
}
