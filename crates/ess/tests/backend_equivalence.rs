//! The unified evaluation layer's core contract, as a property test:
//! pools built on the Serial, WorkerPool and Rayon backends are
//! *interchangeable* — for any genome batch they return bit-identical
//! fitness vectors and identical evaluation accounting, so backend choice
//! can never change results, only wall time (the premise of the E3 speedup
//! comparison). A multi-worker pool scores batches of up to
//! `DEFAULT_INLINE_THRESHOLD` genomes on the calling thread, so every
//! comparison here takes batches on both sides of it.

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

/// Fitness values are sane on every backend (finite, in [0, 1] — Eq. (3)
/// is a Jaccard index).
#[test]
fn all_backends_produce_unit_interval_fitness() {
    let ctx = step1_context();
    let mut rng = StdRng::seed_from_u64(99);
    for len in [DEFAULT_INLINE_THRESHOLD, 2 * DEFAULT_INLINE_THRESHOLD] {
        let batch = random_batch(&mut rng, len);
        for spec in [
            EvalBackend::Serial,
            EvalBackend::WorkerPool(3),
            EvalBackend::Rayon(3),
        ] {
            let mut evaluator = ScenarioEvaluator::new(Arc::clone(&ctx), spec);
            for f in evaluator.evaluate(&batch) {
                assert!((0.0..=1.0).contains(&f), "{spec}: fitness {f} out of range");
            }
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

/// The same interchangeability on every *heterogeneous* corpus workload
/// (fuel mosaics, relief, gusty wind fields → the per-fuel and per-cell
/// spread paths and the arena's spread cache), shrunk to ≤ 40 cells per
/// side: every backend's worker arenas (24-genome rounds) and every
/// pool's inline arena (12-genome rounds) must reproduce the serial
/// results bit for bit, including when the evaluators are reused across
/// rounds with warm arenas.
#[test]
fn all_backends_bit_identical_on_heterogeneous_workload() {
    let specs = [
        EvalBackend::Serial,
        EvalBackend::WorkerPool(3),
        EvalBackend::Rayon(2),
    ];
    for workload in firelib::workload::corpus() {
        let case = cases::workload_case(&workload.shrunk(40));
        let ctx = Arc::new(case.step_context(1));
        let mut evaluators: Vec<ScenarioEvaluator> = specs
            .iter()
            .map(|&s| ScenarioEvaluator::new(Arc::clone(&ctx), s))
            .collect();
        for round in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ round);
            let batch = random_batch(&mut rng, if round % 2 == 0 { 24 } else { 12 });
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
                assert_eq!(
                    got, reference,
                    "{spec} diverged from serial on {} round {round}",
                    case.name
                );
            }
        }
    }
}
