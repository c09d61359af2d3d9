//! The paper's hypothesis, as an executable check: "the application of a
//! novelty-based metaheuristic to the fire propagation prediction problem
//! can obtain comparable or better results in quality with respect to
//! existing methods" (§I), plus the mechanism behind it (§II-B): the
//! baselines' result sets converge genotypically, ESS-NS's do not.
//!
//! Quality comparisons on stochastic search are noisy, so the quality
//! assertion is "comparable": over several seeds on the drifting-truth
//! case, ESS-NS's mean quality must be at least 85 % of the best
//! baseline's. The diversity assertions are the mechanism and are robust.

use essns_repro::ess::cases;
use essns_repro::ess::fitness::EvalBackend;
use essns_repro::ess::pipeline::{PredictionPipeline, StepOptimizer};
use essns_repro::ess::{EssClassic, EssimDe, EssimEa};
use essns_repro::ess_ns::EssNs;

fn mean_quality_over_seeds(
    make: &dyn Fn() -> Box<dyn StepOptimizer>,
    case: &essns_repro::ess::BurnCase,
    seeds: &[u64],
) -> (f64, f64) {
    let mut q = 0.0;
    let mut d = 0.0;
    for &seed in seeds {
        let mut sys = make();
        let r = PredictionPipeline::new(EvalBackend::Serial, seed).run(case, sys.as_mut());
        q += r.mean_quality();
        d += r.mean_diversity();
    }
    (q / seeds.len() as f64, d / seeds.len() as f64)
}

#[test]
fn essns_is_comparable_or_better_under_drift() {
    // The tiny drifting case keeps this integration test fast in debug
    // builds; the full-size version of this comparison is the harness's
    // e1-quality table on `shifting_wind`.
    let case = cases::tiny_drift_case();
    let seeds = [100, 200, 300];

    let (ns_q, ns_d) = mean_quality_over_seeds(&|| Box::new(EssNs::baseline()), &case, &seeds);
    let baselines: Vec<(&str, f64, f64)> = vec![
        {
            let (q, d) =
                mean_quality_over_seeds(&|| Box::new(EssClassic::default()), &case, &seeds);
            ("ESS", q, d)
        },
        {
            let (q, d) = mean_quality_over_seeds(&|| Box::new(EssimEa::default()), &case, &seeds);
            ("ESSIM-EA", q, d)
        },
        {
            let (q, d) = mean_quality_over_seeds(&|| Box::new(EssimDe::default()), &case, &seeds);
            ("ESSIM-DE", q, d)
        },
    ];

    let best_baseline = baselines
        .iter()
        .map(|&(_, q, _)| q)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        ns_q >= 0.85 * best_baseline,
        "ESS-NS quality {ns_q:.4} not comparable to best baseline {best_baseline:.4} \
         (details: {baselines:?})"
    );

    // The mechanism (§II-B): the *population-converging* baselines — ESS
    // and ESSIM-EA, whose result set is a final evolved population — lose
    // genotypic diversity; ESS-NS's bestSet does not. ESSIM-DE is exempt:
    // its published diversity modification injects members "regardless of
    // their fitness", which is exactly a diversity patch (and the paper
    // credits it with better quality than the original ESSIM-DE).
    for (name, _, d) in &baselines {
        if *name == "ESSIM-DE" {
            continue;
        }
        assert!(
            ns_d > *d,
            "ESS-NS diversity {ns_d:.4} should exceed {name}'s {d:.4}"
        );
    }
}

#[test]
fn stale_optimum_argument_holds() {
    // §IV: under drift, the scenario that was perfect for interval 0
    // degrades later — the reason remembering diverse solutions helps.
    let case = cases::tiny_drift_case();
    let last = case.intervals() - 1;
    let ctx = case.step_context(last + 1);
    let fresh = ctx.fitness_of(&case.truth[last]);
    let stale = ctx.fitness_of(&case.truth[0]);
    assert!(fresh > stale, "drift did not degrade the stale optimum");
}
