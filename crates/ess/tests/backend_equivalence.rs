//! The unified evaluation layer's core contract at batch level: pools
//! built on the Serial, WorkerPool and Rayon backends return bit-identical
//! fitness vectors and identical evaluation accounting for any genome
//! batch. A multi-worker pool scores batches of up to
//! `DEFAULT_INLINE_THRESHOLD` genomes on the calling thread, so the
//! batches here sit on both sides of it. Whole runs on every backend are
//! the fleet column of `tests/conformance.rs`.

use ess::cases;
use ess::fitness::{EvalBackend, ScenarioEvaluator, StepContext, DEFAULT_INLINE_THRESHOLD};
use evoalg::BatchEvaluator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn step1_context() -> Arc<StepContext> {
    Arc::new(cases::tiny_test_case().step_context(1))
}

fn random_batch(rng: &mut StdRng, len: usize) -> Vec<Vec<f64>> {
    (0..len)
        .map(|_| {
            (0..firelib::GENE_COUNT)
                .map(|_| rng.random::<f64>())
                .collect()
        })
        .collect()
}

/// The headline property: over many random batches (varying sizes,
/// including the empty and single-genome edge cases and the two sizes
/// either side of the inline threshold), every backend returns
/// bit-identical fitness vectors and the same evaluation count.
#[test]
fn all_backends_bit_identical_on_random_batches() {
    let ctx = step1_context();
    let specs = [
        EvalBackend::Serial,
        EvalBackend::WorkerPool(2),
        EvalBackend::WorkerPool(4),
        EvalBackend::Rayon(2),
    ];
    // Persistent evaluators: worker state must stay correct across rounds.
    let mut evaluators: Vec<ScenarioEvaluator> = specs
        .iter()
        .map(|&s| ScenarioEvaluator::new(Arc::clone(&ctx), s))
        .collect();

    let mut expected_count = 0u64;
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = match seed {
            0 => 0,
            1 => 1,
            2 => DEFAULT_INLINE_THRESHOLD,
            3 => DEFAULT_INLINE_THRESHOLD + 1,
            _ => rng.random_range(2..48usize),
        };
        let batch = random_batch(&mut rng, len);
        expected_count += len as u64;

        let reference: Vec<u64> = evaluators[0]
            .evaluate(&batch)
            .iter()
            .map(|f| f.to_bits())
            .collect();
        for (spec, evaluator) in specs.iter().zip(&mut evaluators).skip(1) {
            let got: Vec<u64> = evaluator
                .evaluate(&batch)
                .iter()
                .map(|f| f.to_bits())
                .collect();
            assert_eq!(got, reference, "{spec} diverged from serial on seed {seed}");
        }
        for (spec, evaluator) in specs.iter().zip(&evaluators) {
            assert_eq!(
                evaluator.evaluations(),
                expected_count,
                "{spec} miscounted evaluations"
            );
        }
    }
}

/// Backends constructed from parsed CLI spec strings behave identically to
/// ones constructed from enum values (the harness `--backend` path).
#[test]
fn parsed_specs_match_programmatic_ones() {
    let ctx = step1_context();
    let mut rng = StdRng::seed_from_u64(7);
    // Large enough that every parsed multi-worker spec dispatches it.
    let batch = random_batch(&mut rng, DEFAULT_INLINE_THRESHOLD + 4);
    let reference: Vec<u64> = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::Serial)
        .evaluate(&batch)
        .iter()
        .map(|f| f.to_bits())
        .collect();
    for spec_str in ["serial", "worker-pool:2", "rayon:2"] {
        let spec: EvalBackend = spec_str.parse().expect("valid spec");
        let got: Vec<u64> = ScenarioEvaluator::new(Arc::clone(&ctx), spec)
            .evaluate(&batch)
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(got, reference, "spec '{spec_str}' diverged");
    }
    for retired in ["pool:3", "master-worker:2", "mw:2", "steal:2"] {
        assert!(retired.parse::<EvalBackend>().is_err(), "{retired}");
    }
}
