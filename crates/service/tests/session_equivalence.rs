//! Session cancellation: a session cancelled after any number of steps
//! keeps exactly those steps' reports, and its terminal event is sticky.
//! That a session's steps are the batch path's, and that a step or
//! evaluation budget stops it between steps with the partial report, is
//! `tests/conformance.rs` (its drain column and budget rows).

use ess::cases;
use ess::error::BudgetReason;
use ess_service::{RunSpec, SessionEvent};

const CASE: &str = "meadow_small";
const SCALE: f64 = 0.25;

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
