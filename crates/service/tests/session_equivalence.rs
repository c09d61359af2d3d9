//! The session-equivalence suite: driving a [`PredictionSession`] to
//! completion must reproduce the old batch path **bit for bit** for every
//! registered system, and budgets/cancellation must stop sessions exactly
//! between steps.

use ess::cases;
use ess::error::{BudgetReason, ServiceError};
use ess::fitness::EvalBackend;
use ess::pipeline::{PredictionPipeline, StepReport};
use ess_service::{systems, RunSpec, SessionEvent};

const CASE: &str = "meadow_small";
const SCALE: f64 = 0.25;
const SEED: u64 = 404;

/// The deterministic fields of a step report (wall time excluded).
fn fingerprint(s: &StepReport) -> (usize, Option<f64>, f64, f64, f64, f64, u64, u32) {
    (
        s.step,
        s.quality,
        s.kign,
        s.calibration_fitness,
        s.os_best_fitness,
        s.diversity.mean_pairwise,
        s.evaluations,
        s.generations,
    )
}

#[test]
fn sessions_reproduce_the_batch_path_for_every_system() {
    let case = cases::by_name(CASE).expect("corpus case");
    for system in systems::all() {
        // The pre-redesign batch path: pipeline.run() to completion.
        let mut optimizer = system.make(SCALE);
        let batch = PredictionPipeline::new(EvalBackend::Serial, SEED).run(&case, &mut *optimizer);

        // The session path: advance() until Finished.
        let mut session = RunSpec::new(system.name, CASE)
            .scale(SCALE)
            .seed(SEED)
            .session()
            .expect("spec resolves");
        let mut stepped = 0usize;
        let report = loop {
            match session.advance() {
                SessionEvent::StepCompleted(_) => stepped += 1,
                SessionEvent::Finished(report) => break report,
                SessionEvent::BudgetExhausted { reason, .. } => {
                    panic!("{}: unbudgeted session exhausted ({reason})", system.name)
                }
            }
        };

        assert_eq!(report.system, batch.system, "{}", system.name);
        assert_eq!(report.case, batch.case, "{}", system.name);
        assert_eq!(stepped, batch.steps.len(), "{}", system.name);
        assert_eq!(report.steps.len(), batch.steps.len(), "{}", system.name);
        for (s, b) in report.steps.iter().zip(&batch.steps) {
            assert_eq!(
                fingerprint(s),
                fingerprint(b),
                "{} step {} diverged from the batch path",
                system.name,
                b.step
            );
        }
        // And the drained wrapper is the same thing again.
        let rerun = RunSpec::new(system.name, CASE)
            .scale(SCALE)
            .seed(SEED)
            .run()
            .expect("drained run");
        assert_eq!(rerun.steps.len(), batch.steps.len());
        for (s, b) in rerun.steps.iter().zip(&batch.steps) {
            assert_eq!(fingerprint(s), fingerprint(b));
        }
    }
}

#[test]
fn cancellation_after_k_steps_keeps_exactly_k_reports() {
    let total = {
        let case = cases::by_name(CASE).expect("corpus case");
        case.intervals() - 1
    };
    assert!(total >= 2, "test case must have at least 2 steps");
    for k in 0..total {
        let mut session = RunSpec::new("ESS-NS", CASE)
            .scale(SCALE)
            .seed(7)
            .session()
            .expect("spec resolves");
        for _ in 0..k {
            assert!(matches!(session.advance(), SessionEvent::StepCompleted(_)));
        }
        session.cancel();
        assert!(session.is_done());
        assert_eq!(session.steps().len(), k, "cancel after {k} steps");
        assert_eq!(session.report().steps.len(), k);
        // The terminal event is sticky and carries the partial report.
        match session.advance() {
            SessionEvent::BudgetExhausted { reason, partial } => {
                assert_eq!(reason, BudgetReason::Cancelled);
                assert_eq!(partial.steps.len(), k);
            }
            other => panic!("cancelled session produced {other:?}"),
        }
        // Advancing again never resurrects the run.
        assert!(session.advance().is_terminal());
        assert_eq!(session.steps().len(), k);
    }
}

#[test]
fn max_steps_budget_stops_between_steps() {
    let mut session = RunSpec::new("ESS", CASE)
        .scale(SCALE)
        .seed(3)
        .max_steps(2)
        .session()
        .expect("spec resolves");
    assert!(matches!(session.advance(), SessionEvent::StepCompleted(_)));
    assert!(matches!(session.advance(), SessionEvent::StepCompleted(_)));
    match session.advance() {
        SessionEvent::BudgetExhausted { reason, partial } => {
            assert_eq!(reason, BudgetReason::MaxSteps);
            assert_eq!(partial.steps.len(), 2);
        }
        other => panic!("expected exhaustion, got {other:?}"),
    }
    // The two completed steps are still the batch path's first two steps.
    let case = cases::by_name(CASE).expect("corpus case");
    let mut optimizer = systems::by_name("ESS").unwrap().make(SCALE);
    let batch = PredictionPipeline::new(EvalBackend::Serial, 3).run(&case, &mut *optimizer);
    for (s, b) in session.steps().iter().zip(&batch.steps) {
        assert_eq!(fingerprint(s), fingerprint(b));
    }
}

#[test]
fn evaluation_budget_and_drain_error_carry_the_partial_report() {
    let err = RunSpec::new("ESS-NS", CASE)
        .scale(SCALE)
        .seed(5)
        .max_evaluations(1)
        .run()
        .expect_err("one evaluation cannot cover a run");
    match err {
        ServiceError::BudgetExhausted { reason, partial } => {
            assert_eq!(reason, BudgetReason::MaxEvaluations);
            // The budget is checked between steps, so exactly one step ran.
            assert_eq!(partial.steps.len(), 1);
            assert!(partial.total_evaluations() >= 1);
        }
        other => panic!("expected budget exhaustion, got {other}"),
    }
}
