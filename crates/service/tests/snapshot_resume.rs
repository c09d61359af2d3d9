//! Resume bit-identity: for every paper system and one §IV variant row, a
//! session checkpointed at step k, serialized through jsonio, and restored
//! from the parsed snapshot produces a final `RunReport` bit-identical
//! (deterministic fields) to the uninterrupted run — at every possible k.

use ess::pipeline::{RunReport, StepReport};
use ess_service::jsonio::Json;
use ess_service::{systems, RunSpec, SessionSnapshot};

const CASE: &str = "meadow_small";
const SCALE: f64 = 0.2;
const SEED: u64 = 777;

/// Every deterministic field of a step report (wall time excluded),
/// floats as bits.
type StepBits = (usize, Option<u64>, u64, u64, u64, u64, u64, usize, u64, u32);

fn fingerprint(s: &StepReport) -> StepBits {
    (
        s.step,
        s.quality.map(f64::to_bits),
        s.kign.to_bits(),
        s.calibration_fitness.to_bits(),
        s.os_best_fitness.to_bits(),
        s.diversity.mean_pairwise.to_bits(),
        s.diversity.mean_gene_std.to_bits(),
        s.diversity.distinct,
        s.evaluations,
        s.generations,
    )
}

fn report_fingerprint(r: &RunReport) -> Vec<StepBits> {
    r.steps.iter().map(fingerprint).collect()
}

#[test]
fn checkpoint_resume_is_bit_identical_for_every_system_at_every_step() {
    let hybrid = systems::resolve("ESS-NS/w=0.50").expect("a registry row");
    for system in systems::all().iter().chain([hybrid]) {
        let spec = RunSpec::new(system.name, CASE).scale(SCALE).seed(SEED);

        // The uninterrupted reference run.
        let reference = spec.run().expect("reference run finishes");
        let total = reference.steps.len();
        assert!(total >= 2, "case must have at least two steps to interrupt");

        for checkpoint in 0..=total {
            // Run to the checkpoint …
            let mut session = spec.session().expect("session builds");
            for _ in 0..checkpoint {
                assert!(!session.advance().is_terminal());
            }
            // … checkpoint through the *serialized* form (string-level,
            // exactly what the wire carries) …
            let line = session
                .snapshot()
                .expect("spec-built session snapshots")
                .to_json()
                .to_string();
            drop(session);
            let snapshot = SessionSnapshot::from_json(&Json::parse(&line).expect("valid json"))
                .expect("snapshot parses");
            assert_eq!(snapshot.completed(), checkpoint);

            // … and drain the restored session to the end.
            let resumed = match snapshot.restore().expect("snapshot restores").drain() {
                Ok(report) => report,
                Err(e) => panic!("{}: resumed run failed: {e}", system.name),
            };
            // A variant's reports name its row, before and after a resume.
            assert_eq!(reference.system, system.name);
            assert_eq!(resumed.system, reference.system);
            assert_eq!(resumed.case, reference.case);
            assert_eq!(
                report_fingerprint(&resumed),
                report_fingerprint(&reference),
                "{} resumed from step {checkpoint} diverged",
                system.name
            );
        }
    }
}

#[test]
fn resume_respects_remaining_budgets() {
    // A max-steps budget counts the checkpointed steps too: a session
    // restored at step 2 of a 3-step budget runs exactly one more step.
    let spec = RunSpec::new("ESS", CASE).scale(SCALE).seed(3).max_steps(3);
    let mut session = spec.session().expect("session");
    session.advance();
    session.advance();
    let snapshot = session.snapshot().expect("snapshot");
    let mut restored = snapshot.restore().expect("restores");
    assert!(!restored.advance().is_terminal(), "step 3 still in budget");
    assert!(restored.advance().is_terminal(), "budget exhausted at 3");
    assert_eq!(restored.steps().len(), 3);
}
