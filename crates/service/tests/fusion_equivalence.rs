//! The fused round's cancellation race: a session cancelled between its
//! plan and its completion keeps its cancellation and discards the step
//! its lane ran. That fused rounds are bit-identical to unfused ones is
//! the fleet column of `tests/conformance.rs`.

use ess::error::BudgetReason;
use ess_service::{RunSpec, SessionEvent, StepPlan};

#[test]
fn cancel_between_plan_and_complete_discards_the_step() {
    let mut session = RunSpec::new("ESS", "meadow_small")
        .scale(0.15)
        .seed(9)
        .session()
        .expect("spec resolves");
    assert!(matches!(session.plan_step(), StepPlan::Ready));
    // Run the planned step exactly as a fused lane would, via the split
    // driver/optimizer halves.
    let (driver, optimizer) = session.step_parts();
    let step = driver.step(optimizer).expect("planned step runs");
    // The cancellation arrives between plan and complete: it wins.
    session.cancel();
    let event = session.complete_step(step, 1.0);
    match event {
        SessionEvent::BudgetExhausted { reason, partial } => {
            assert_eq!(reason, BudgetReason::Cancelled);
            assert_eq!(partial.steps.len(), 0, "the raced step is discarded");
        }
        other => panic!("expected the sticky cancellation, got {other:?}"),
    }
    assert_eq!(session.steps().len(), 0);
    assert!(session.is_done());
}
