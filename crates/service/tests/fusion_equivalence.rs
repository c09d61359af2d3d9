//! The fusion-equivalence suite: a scheduler round that fuses every
//! planned session's evaluation batches into shared-pool mega-batches
//! must be **bit-identical** to the unfused per-session path — for every
//! paper system and a §IV variant row, under every scheduling policy, across mixed
//! workloads and grid shapes in one round, with sessions finishing
//! mid-round and sessions cancelled between plan and complete.

use ess::error::BudgetReason;
use ess::fitness::EvalBackend;
use ess::pipeline::StepReport;
use ess_service::{PolicyKind, RunSpec, Scheduler, SessionEvent, SessionOutcome, StepPlan};
use std::collections::BTreeMap;

/// The deterministic fields of a step report (wall time excluded).
fn step_fingerprint(s: &StepReport) -> (usize, Option<u64>, u64, u64, u64, u64, u64, u32) {
    (
        s.step,
        s.quality.map(f64::to_bits),
        s.kign.to_bits(),
        s.calibration_fitness.to_bits(),
        s.os_best_fitness.to_bits(),
        s.diversity.mean_pairwise.to_bits(),
        s.evaluations,
        s.generations,
    )
}

/// The deterministic fields of a terminal outcome.
type OutcomeDigest = (
    bool,
    Option<String>,
    Vec<(usize, Option<u64>, u64, u64, u64, u64, u64, u32)>,
);

fn outcome_digest(o: &SessionOutcome) -> OutcomeDigest {
    let (finished, reason, report) = match o {
        SessionOutcome::Finished(r) => (true, None, r),
        SessionOutcome::Exhausted { reason, partial } => {
            (false, Some(format!("{reason}")), partial)
        }
    };
    (
        finished,
        reason,
        report.steps.iter().map(step_fingerprint).collect(),
    )
}

/// A mixed fleet exercising every system, two grid shapes, differing
/// weights/deadlines (so every policy has something to order by), and
/// step budgets that make sessions finish in different rounds.
fn submit_mixed_fleet(scheduler: &mut Scheduler) {
    let mixes = [
        ("ESS", "meadow_small", 21u64, None, 1.0),
        ("ESSIM-EA", "grass_uniform", 22, Some(1), 2.0),
        ("ESSIM-DE", "meadow_small", 23, Some(1), 3.0),
        ("ESS-NS", "grass_uniform", 24, None, 1.5),
        ("ESS", "grass_uniform", 25, Some(2), 2.5),
        ("ESS-NS", "meadow_small", 26, Some(1), 1.0),
        ("ESS-NS/w=0.50", "meadow_small", 27, None, 2.0),
    ];
    for (i, (system, case, seed, max_steps, weight)) in mixes.into_iter().enumerate() {
        let mut spec = RunSpec::new(system, case)
            .scale(0.15)
            .seed(seed)
            .weight(weight)
            // Deadlines far beyond any plausible run time: they order
            // deadline-first scheduling without ever firing as budgets.
            .deadline_ms(3_600_000 + (i as u64) * 600_000);
        if let Some(n) = max_steps {
            spec = spec.max_steps(n);
        }
        scheduler.submit(&spec).expect("fleet spec must resolve");
    }
}

/// Drains a fleet and returns its outcomes keyed by session id.
fn drain_fleet(policy: PolicyKind, fused: bool) -> BTreeMap<u64, OutcomeDigest> {
    let mut scheduler = Scheduler::with_policy(EvalBackend::WorkerPool(2), policy);
    scheduler.set_fused(fused);
    submit_mixed_fleet(&mut scheduler);
    scheduler
        .drain()
        .iter()
        .map(|(id, o)| (*id, outcome_digest(o)))
        .collect()
}

#[test]
fn fused_rounds_match_unfused_for_every_policy() {
    for policy in PolicyKind::ALL {
        let unfused = drain_fleet(policy, false);
        let fused = drain_fleet(policy, true);
        assert_eq!(
            unfused, fused,
            "fused rounds diverged from unfused under {policy}"
        );
        assert_eq!(unfused.len(), 7, "every fleet session reached an outcome");
    }
}

/// A fused round with one runnable session steps it on the scheduler
/// thread through the pool — no lane, no coordinator — and must still be
/// the unfused run, step for step.
#[test]
fn a_lone_session_runs_the_same_fused_and_unfused() {
    for system in ["ESSIM-DE", "ESS-NS"] {
        let spec = RunSpec::new(system, "meadow_small").scale(0.15).seed(31);
        let drain = |fused: bool| {
            let mut scheduler = Scheduler::new(EvalBackend::WorkerPool(2));
            scheduler.set_fused(fused);
            scheduler.submit(&spec).expect("spec resolves");
            let mut steps = Vec::new();
            while scheduler.live_count() > 0 {
                let events = scheduler.round();
                assert_eq!(events.len(), 1, "one session, one event a round");
                if let SessionEvent::StepCompleted(s) = &events[0].1 {
                    steps.push(step_fingerprint(s));
                }
            }
            let outcomes: Vec<OutcomeDigest> = scheduler
                .outcomes()
                .iter()
                .map(|(_, o)| outcome_digest(o))
                .collect();
            (steps, outcomes)
        };
        let unfused = drain(false);
        assert!(!unfused.0.is_empty(), "{system}: the session stepped");
        assert_eq!(
            unfused,
            drain(true),
            "{system}: a lone fused session diverged"
        );
    }
}

#[test]
fn fused_round_robin_streams_the_same_events_round_by_round() {
    let mut unfused = Scheduler::new(EvalBackend::WorkerPool(2));
    let mut fused = Scheduler::new(EvalBackend::WorkerPool(2));
    fused.set_fused(true);
    submit_mixed_fleet(&mut unfused);
    submit_mixed_fleet(&mut fused);

    let key = |event: &SessionEvent| match event {
        SessionEvent::StepCompleted(s) => format!("step:{:?}", step_fingerprint(s)),
        SessionEvent::Finished(r) => format!("finished:{}", r.steps.len()),
        SessionEvent::BudgetExhausted { reason, partial } => {
            format!("exhausted:{reason}:{}", partial.steps.len())
        }
    };
    let mut rounds = 0usize;
    while unfused.live_count() > 0 || fused.live_count() > 0 {
        let u: Vec<(u64, String)> = unfused
            .round()
            .iter()
            .map(|(id, e)| (*id, key(e)))
            .collect();
        let f: Vec<(u64, String)> = fused.round().iter().map(|(id, e)| (*id, key(e))).collect();
        assert_eq!(u, f, "round {rounds}: fused event stream diverged");
        rounds += 1;
        assert!(rounds < 100, "fleet must drain in bounded rounds");
    }
}

#[test]
fn fused_drain_survives_mid_drain_cancellation() {
    let mut scheduler = Scheduler::new(EvalBackend::WorkerPool(2));
    scheduler.set_fused(true);
    submit_mixed_fleet(&mut scheduler);
    let victim = scheduler.live().next().expect("live fleet").0;
    scheduler.round();
    assert!(scheduler.cancel(victim), "victim was live");
    scheduler.drain();
    let outcomes = scheduler.take_outcomes();
    assert_eq!(outcomes.len(), 7);
    let cancelled = outcomes
        .iter()
        .find(|(id, _)| *id == victim)
        .expect("victim has an outcome");
    assert!(
        matches!(
            &cancelled.1,
            SessionOutcome::Exhausted {
                reason: BudgetReason::Cancelled,
                ..
            }
        ),
        "victim must record cancellation"
    );
}

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
