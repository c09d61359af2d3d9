//! End-to-end integration: every system through the full prediction
//! pipeline (Figs. 1–3 dataflow) on a small burn case. That a run is the
//! same on every backend, and again on the same seed, is
//! `tests/conformance.rs`.

use essns_repro::ess::cases;
use essns_repro::ess::fitness::EvalBackend;
use essns_repro::ess::pipeline::{PredictionPipeline, StepOptimizer};
use essns_repro::ess::{EssClassic, EssimDe, EssimEa};
use essns_repro::ess_ns::EssNs;

fn all_systems() -> Vec<Box<dyn StepOptimizer>> {
    vec![
        Box::new(EssClassic::default()),
        Box::new(EssimEa::default()),
        Box::new(EssimDe::default()),
        Box::new(EssNs::baseline()),
    ]
}

#[test]
fn every_system_completes_a_prediction_run() {
    let case = cases::tiny_test_case();
    for mut system in all_systems() {
        let report = PredictionPipeline::new(EvalBackend::Serial, 5).run(&case, system.as_mut());
        assert_eq!(report.case, "tiny_test_case");
        assert_eq!(
            report.steps.len(),
            case.intervals() - 1,
            "{}",
            report.system
        );
        // First step calibrates only; later steps must predict.
        assert!(report.steps[0].quality.is_none());
        for s in &report.steps[1..] {
            let q = s.quality.expect("prediction after first step");
            assert!((0.0..=1.0).contains(&q), "{}: quality {q}", report.system);
        }
        for s in &report.steps {
            assert!(
                (0.0..=1.0).contains(&s.kign),
                "{}: Kign {}",
                report.system,
                s.kign
            );
            assert!(
                (0.0..=1.0).contains(&s.calibration_fitness),
                "{}: calibration fitness",
                report.system
            );
            assert!(s.evaluations > 0, "{}: no evaluations", report.system);
            assert!(s.diversity.size > 0, "{}: empty result set", report.system);
        }
    }
}

#[test]
fn essns_result_sets_stay_diverse_across_steps() {
    // Averaged over seeds: single-seed diversity comparisons on the tiny
    // case are noisy, but the mechanism must show in the mean.
    let case = cases::tiny_test_case();
    let seeds = [17u64, 18, 19, 20];
    let mean_div = |mk: &dyn Fn() -> Box<dyn essns_repro::ess::pipeline::StepOptimizer>| {
        seeds
            .iter()
            .map(|&seed| {
                let mut sys = mk();
                PredictionPipeline::new(EvalBackend::Serial, seed)
                    .run(&case, sys.as_mut())
                    .mean_diversity()
            })
            .sum::<f64>()
            / seeds.len() as f64
    };
    let ns_div = mean_div(&|| Box::new(EssNs::baseline()));
    let ess_div = mean_div(&|| Box::new(EssClassic::default()));
    assert!(
        ns_div > ess_div,
        "ESS-NS sets ({ns_div}) should out-diversify ESS's final populations ({ess_div})"
    );
}

#[test]
fn oracle_quality_dominates_all_systems_on_static_case() {
    use essns_repro::ess::fitness::ScenarioEvaluator;
    use essns_repro::ess::pipeline::OptimizeOutcome;
    use essns_repro::firelib::ScenarioSpace;

    struct Oracle(Vec<f64>);
    impl StepOptimizer for Oracle {
        fn name(&self) -> &'static str {
            "oracle"
        }
        fn optimize(&mut self, _e: &mut ScenarioEvaluator, _s: u64) -> OptimizeOutcome {
            OptimizeOutcome {
                result_set: vec![self.0.clone()],
                best_fitness: 1.0,
                generations: 0,
                evaluations: 1,
            }
        }
    }

    let case = cases::tiny_test_case();
    let p = PredictionPipeline::new(EvalBackend::Serial, 3);
    let mut oracle = Oracle(ScenarioSpace.encode(&case.truth[0]).to_vec());
    let oracle_q = p.run(&case, &mut oracle).mean_quality();
    for mut system in all_systems() {
        let q = p.run(&case, system.as_mut()).mean_quality();
        assert!(
            oracle_q >= q - 1e-9,
            "{} ({q}) beat the oracle ({oracle_q})?",
            system.name()
        );
    }
}
