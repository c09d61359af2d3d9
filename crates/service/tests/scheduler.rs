//! Scheduler behaviour: many sessions on one shared worker pool all
//! finish, interleave fairly, honour weights, and survive mid-flight
//! cancellation without deadlock — under every scheduling policy. That
//! they also reproduce their serial runs bit for bit is the fleet column
//! of `tests/conformance.rs`.

#![allow(clippy::disallowed_macros, reason = "a test's asserts are its checks")]

use ess::fitness::EvalBackend;
use ess_service::proto::{Request, RequestKind};
use ess_service::{
    serve_configured, DrainSignal, PolicyKind, RunSpec, Scheduler, ServeSummary, SessionEvent,
    SessionOutcome,
};

const CASE: &str = "meadow_small";
const SCALE: f64 = 0.25;

fn spec_for(system: &str, seed: u64) -> RunSpec {
    RunSpec::new(system, CASE).scale(SCALE).seed(seed)
}

#[test]
fn rounds_are_fair_one_step_per_live_session() {
    let mut scheduler = Scheduler::new(EvalBackend::WorkerPool(2));
    for seed in [1u64, 2, 3] {
        scheduler
            .submit(&spec_for("ESS-NS", seed))
            .expect("spec ok");
    }
    let mut rounds = 0usize;
    while scheduler.live_count() > 0 {
        let live_before = scheduler.live_count();
        let events = scheduler.round();
        rounds += 1;
        // Every live session got exactly one event this round.
        assert_eq!(events.len(), live_before);
        // Progress within one round never differs by more than one step.
        let progress: Vec<usize> = scheduler.live().map(|(_, s)| s.steps().len()).collect();
        if let (Some(min), Some(max)) = (progress.iter().min(), progress.iter().max()) {
            assert!(max - min <= 1, "unfair round: {progress:?}");
        }
        assert!(rounds < 100, "scheduler failed to converge");
    }
    assert_eq!(scheduler.outcomes().len(), 3);
    // Long-lived servers reclaim outcome memory between drains.
    assert_eq!(scheduler.take_outcomes().len(), 3);
    assert!(scheduler.outcomes().is_empty());
}

#[test]
fn cancelling_mid_flight_neither_deadlocks_nor_stops_the_peer() {
    let mut scheduler = Scheduler::new(EvalBackend::WorkerPool(2));
    let victim = scheduler.submit(&spec_for("ESS", 9)).expect("ok")[0];
    let survivor = scheduler.submit(&spec_for("ESS-NS", 9)).expect("ok")[0];

    // One fair round, then cancel the first session mid-flight.
    let events = scheduler.round();
    assert!(events
        .iter()
        .all(|(_, e)| matches!(e, SessionEvent::StepCompleted(_))));
    assert!(scheduler.cancel(victim));
    assert!(!scheduler.cancel(victim), "double cancel must be a no-op");
    assert_eq!(scheduler.live_count(), 1);

    let outcomes = scheduler.drain().to_vec();
    assert_eq!(outcomes.len(), 2);
    let victim_outcome = &outcomes.iter().find(|(id, _)| *id == victim).unwrap().1;
    match victim_outcome {
        SessionOutcome::Exhausted { partial, .. } => assert_eq!(partial.steps.len(), 1),
        other => panic!("cancelled session reported {other:?}"),
    }
    let survivor_outcome = &outcomes.iter().find(|(id, _)| *id == survivor).unwrap().1;
    assert!(survivor_outcome.is_finished());
}

#[test]
fn drain_callback_can_cancel_a_session_mid_drain() {
    let mut scheduler = Scheduler::new(EvalBackend::WorkerPool(2));
    let victim = scheduler.submit(&spec_for("ESS", 31)).expect("ok")[0];
    let bystander = scheduler.submit(&spec_for("ESS-NS", 31)).expect("ok")[0];
    let trigger = scheduler.submit(&spec_for("ESSIM-EA", 31)).expect("ok")[0];

    // When the trigger session completes its second step, the callback
    // cancels the victim — from *inside* the drain.
    let mut cancelled_at = None;
    let outcomes = scheduler
        .drain_controlled(|id, event| {
            if id == trigger {
                if let SessionEvent::StepCompleted(step) = event {
                    if step.step == 2 && cancelled_at.is_none() {
                        cancelled_at = Some(step.step);
                        return DrainSignal::Cancel(victim);
                    }
                }
            }
            DrainSignal::Continue
        })
        .to_vec();
    assert_eq!(cancelled_at, Some(2), "trigger condition must have fired");
    assert_eq!(outcomes.len(), 3, "drain terminates with every outcome");

    // The victim is recorded as cancelled with the steps it had run.
    let victim_outcome = &outcomes.iter().find(|(id, _)| *id == victim).unwrap().1;
    match victim_outcome {
        SessionOutcome::Exhausted { reason, partial } => {
            assert_eq!(
                reason.to_string(),
                "cancelled",
                "outcome must be recorded as cancelled"
            );
            assert_eq!(partial.steps.len(), 2, "cancelled after round 2");
        }
        other => panic!("victim reported {other:?}"),
    }

    // The remaining sessions both finish.
    for (id, system) in [(bystander, "ESS-NS"), (trigger, "ESSIM-EA")] {
        let outcome = &outcomes.iter().find(|(oid, _)| *oid == id).unwrap().1;
        assert!(outcome.is_finished(), "{system} must finish");
    }
}

#[test]
fn weighted_fair_share_tracks_weight_ratios_mid_drain() {
    let mut scheduler =
        Scheduler::with_policy(EvalBackend::WorkerPool(2), PolicyKind::WeightedFairShare);
    let light = scheduler
        .submit(&spec_for("ESS-NS", 50).weight(1.0))
        .expect("ok")[0];
    let heavy = scheduler
        .submit(&spec_for("ESS-NS", 51).weight(2.0))
        .expect("ok")[0];

    // Run rounds while both are live and track their step counts: the
    // weight-2 session must stay ~2× ahead of the weight-1 session.
    let mut max_light_lead = 0isize;
    while scheduler.live_count() == 2 {
        scheduler.round();
        let count = |wanted| {
            scheduler
                .live()
                .find(|(id, _)| *id == wanted)
                .map(|(_, s)| s.steps().len() as isize)
        };
        if let (Some(l), Some(h)) = (count(light), count(heavy)) {
            // Virtual times l/1 and h/2 stay within one step of each
            // other, so h ≈ 2l while both run.
            let skew = (l - h / 2).abs();
            assert!(skew <= 1, "virtual-time skew {skew} (light {l}, heavy {h})");
            max_light_lead = max_light_lead.max(l - h);
        }
    }
    assert!(
        max_light_lead <= 0,
        "the heavy session must never trail the light one"
    );
    scheduler.drain();
    assert_eq!(scheduler.outcomes().len(), 2);
}

#[test]
fn bad_submissions_enqueue_nothing() {
    let mut scheduler = Scheduler::new(EvalBackend::Serial);
    assert!(scheduler.submit(&RunSpec::new("ESS-X", CASE)).is_err());
    assert!(scheduler.submit(&RunSpec::new("ESS", "atlantis")).is_err());
    assert!(scheduler.submit(&spec_for("ESS", 1).replicates(0)).is_err());
    assert_eq!(scheduler.live_count(), 0);
    assert!(scheduler.drain().is_empty());
}

#[test]
fn a_mixed_serve_script_ends_every_session_alike_under_every_policy() {
    // Eight sessions (every registered system × two replicates) on one
    // pool, plus an unknown system, an unknown case and a cancellation.
    let pair = |system: &str, seed: u64| {
        RunSpec::new(system, CASE)
            .seed(seed)
            .replicates(2)
            .scale(0.15)
    };
    let run = |spec: RunSpec| RequestKind::Run { spec, watch: false };
    let kinds = [
        run(pair("ESS", 11)),
        run(pair("ESSIM-EA", 12).max_steps(1)),
        run(pair("ESSIM-DE", 13).max_steps(1)),
        run(pair("ESS-NS", 14)),
        run(RunSpec::new("ESS-9000", CASE)),
        run(RunSpec::new("ESS", "lost_valley")),
        RequestKind::Cancel { session: 8 },
        RequestKind::Drain,
        RequestKind::Quit,
    ];
    let script: String = kinds
        .into_iter()
        .zip(1..)
        .map(|(kind, id)| format!("{}\n", Request { id, kind }.to_json()))
        .collect();
    // The identical script under every policy, fused and unfused: the
    // scheduler may reorder frames, never change how many sessions end
    // which way.
    for policy in PolicyKind::ALL {
        for fused in [false, true] {
            let summary = serve_configured(
                script.as_bytes(),
                &mut Vec::new(),
                EvalBackend::WorkerPool(2),
                policy,
                fused,
            )
            .expect("serve I/O");
            assert_eq!(
                summary,
                ServeSummary {
                    accepted: 8,
                    errors: 2,
                    cancelled: 1,
                    exhausted: 4,
                    finished: 3,
                    ..ServeSummary::default()
                },
                "{policy} fused={fused}"
            );
        }
    }
}
