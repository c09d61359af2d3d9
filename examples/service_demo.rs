//! Prediction as a service, end to end: one `RunSpec` request type, four
//! systems from the unified registry, sessions that advance one step at a
//! time, and a scheduler multiplexing them all over one shared worker
//! pool — with a mid-flight cancellation to show nothing blocks.
//!
//! ```text
//! cargo run --release --example service_demo
//! ```

#![allow(
    clippy::expect_used,
    reason = "an example stops at its first failure, with its message"
)]

use ess_service::{systems, RunSpec, Scheduler, SessionEvent};
use parworker::EvalBackend;

fn main() {
    // --- 1. One request type for every system ---------------------------
    println!("registered systems:");
    for spec in systems::all() {
        println!("  {:<9} {}", spec.name, spec.description);
    }

    // --- 2. A single session, driven step by step -----------------------
    let mut session = RunSpec::new("ESS-NS", "meadow_small")
        .seed(7)
        .scale(0.5)
        .session()
        .expect("spec resolves");
    println!(
        "\nsingle session: {} on {} ({} steps)",
        session.system(),
        session.case_name(),
        session.total_steps()
    );
    loop {
        match session.advance() {
            SessionEvent::StepCompleted(step) => println!(
                "  step {}: kign {:.2}, quality {}",
                step.step,
                step.kign,
                step.quality.map_or("-".to_string(), |q| format!("{q:.4}")),
            ),
            SessionEvent::Finished(report) => {
                println!(
                    "  finished: mean quality {:.4}, {} evaluations",
                    report.mean_quality(),
                    report.total_evaluations()
                );
                break;
            }
            SessionEvent::BudgetExhausted { reason, .. } => {
                println!("  stopped early: {reason}");
                break;
            }
        }
    }

    // --- 3. Many sessions on ONE shared worker pool ---------------------
    let workers = 4;
    let mut scheduler = Scheduler::new(EvalBackend::WorkerPool(workers));
    println!(
        "\nscheduler: multiplexing sessions over one shared {}",
        scheduler.pool().name()
    );
    let mut cancel_me = None;
    for (i, system) in systems::all().iter().enumerate() {
        let ids = scheduler
            .submit(
                &RunSpec::new(system.name, "meadow_small")
                    .seed(100 + i as u64)
                    .scale(0.5)
                    .replicates(2),
            )
            .expect("spec resolves");
        println!("  submitted {:<9} as sessions {:?}", system.name, ids);
        if system.name == "ESSIM-DE" {
            cancel_me = ids.first().copied();
        }
    }

    // One fair round, then cancel a session mid-flight.
    let events = scheduler.round();
    println!(
        "  round 1: {} sessions each advanced one step",
        events.len()
    );
    if let Some(id) = cancel_me {
        scheduler.cancel(id);
        println!("  cancelled session {id} between steps");
    }

    let outcomes = scheduler.drain();
    println!("\noutcomes ({} sessions):", outcomes.len());
    for (id, outcome) in outcomes {
        let report = outcome.report();
        println!(
            "  session {id}: {:<9} {} after {} steps, mean quality {:.4}",
            report.system,
            if outcome.is_finished() {
                "finished "
            } else {
                "stopped  "
            },
            report.steps.len(),
            report.mean_quality(),
        );
    }

    // --- 4. Typed errors instead of silent skips ------------------------
    println!("\nerror taxonomy:");
    for bad in [
        RunSpec::new("ESS-5000", "meadow_small"),
        RunSpec::new("ESS-NS", "lost_valley"),
        RunSpec::new("ESS-NS", "meadow_small").replicates(0),
    ] {
        println!("  {}", bad.run().expect_err("deliberately bad spec"));
    }
}
