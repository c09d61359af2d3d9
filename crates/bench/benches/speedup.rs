//! E3 (kernel) — one batch of scenario evaluations through each backend of
//! the unified evaluation layer: serial, the channel Master/Worker farm,
//! and work stealing. The three produce bit-identical fitness vectors, so
//! this isolates pure scheduling cost. Each backend is one pool built
//! before the loop and kept up across batches, as every run does. Timing
//! goes straight to the pool, not through a `ScenarioEvaluator`: an
//! evaluator answers a genome it has scored from its table, so a repeated
//! batch would time lookups, not simulations. (The harness writes exact
//! artifacts only; E3 lives here and in `examples/parallel_scaling.rs`.)

use ess::cases;
use ess::fitness::{EvalBackend, SharedScenarioPool};
use ess_benches::microbench::{bench, group};
use evoalg::GenomeMatrix;
use firelib::ScenarioSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let case = cases::chaparral_slope();
    let ctx = Arc::new(case.step_context(1));
    let mut rng = StdRng::seed_from_u64(11);
    let rows: Vec<Vec<f64>> = (0..64)
        .map(|_| ScenarioSpace.sample_genes(&mut rng).to_vec())
        .collect();
    let batch = GenomeMatrix::from_rows(&rows);

    group("eval_backends (64 scenarios/batch)");
    let mut reference: Option<Vec<u64>> = None;
    for backend in [
        EvalBackend::Serial,
        EvalBackend::WorkerPool(2),
        EvalBackend::Rayon(2),
    ] {
        let pool = SharedScenarioPool::new(backend);
        let fitness = pool.evaluate_matrix(&ctx, &batch);
        let bits: Vec<u64> = fitness.iter().map(|f| f.to_bits()).collect();
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(r, &bits, "{backend} diverged from serial"),
        }
        bench(&backend.name(), 10, || pool.evaluate_matrix(&ctx, &batch));
    }
}
