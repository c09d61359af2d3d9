//! E1 (kernel) — wall time of one full prediction step (OS + SS + CS + PS)
//! per system, at a reduced budget so the bench stays fast. The quality
//! comparison itself is the harness's `e1-quality` table; this bench pins
//! the per-step cost of each system.

use ess::cases;
use ess::fitness::EvalBackend;
use ess::pipeline::PredictionPipeline;
use ess_benches::microbench::{bench, group};
use ess_service::systems;
use std::hint::black_box;

fn main() {
    let case = cases::tiny_test_case();
    group("prediction_run (tiny case, 0.25x budget)");
    for system in systems::all() {
        bench(system.name, 10, || {
            let mut opt = system.make(0.25);
            let pipeline = PredictionPipeline::new(EvalBackend::Serial, 7);
            black_box(pipeline.run(&case, opt.as_mut()).mean_quality())
        });
    }
}
