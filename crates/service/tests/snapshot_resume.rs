//! Resume and budgets: a restored session's budgets count the steps it
//! ran before its checkpoint. That a session resumed from any step is its
//! uninterrupted run, bit for bit, is the checkpoint column of
//! `tests/conformance.rs`.

#![allow(clippy::disallowed_macros, reason = "a test's asserts are its checks")]

use ess_service::RunSpec;

#[test]
fn resume_respects_remaining_budgets() {
    // A max-steps budget counts the checkpointed steps too: a session
    // restored at step 2 of a 3-step budget runs exactly one more step.
    let spec = RunSpec::new("ESS", "meadow_small")
        .scale(0.2)
        .seed(3)
        .max_steps(3);
    let mut session = spec.session().expect("session");
    session.advance();
    session.advance();
    let snapshot = session.snapshot().expect("snapshot");
    let mut restored = snapshot.restore().expect("restores");
    assert!(!restored.advance().is_terminal(), "step 3 still in budget");
    assert!(restored.advance().is_terminal(), "budget exhausted at 3");
    assert_eq!(restored.steps().len(), 3);
}
