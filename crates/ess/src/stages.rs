//! The Statistical Stage (`SS` in Figs. 1–3).
//!
//! "The first step is for the Master to aggregate the resulting maps into a
//! matrix in which each cell represents the probability of ignition of that
//! region" (§II-A). The resulting matrix is used twice: by the Calibration
//! Stage (on the just-observed interval) and by the Prediction Stage (on
//! the next interval).

use crate::fitness::StepContext;
use firelib::{Scenario, ScenarioSpace};
use landscape::ProbabilityMap;

/// Aggregates the simulated fire lines of a scenario result set over the
/// context's interval into an ignition-probability matrix.
///
/// Every scenario is re-simulated on `ctx`'s interval; with result sets of
/// tens of scenarios this is a negligible fraction of the Optimization
/// Stage's thousands of simulations, and it keeps the stage independent of
/// whatever the optimizer cached.
pub fn statistical_stage(ctx: &StepContext, scenarios: &[Scenario]) -> ProbabilityMap {
    let rows = ctx.from_line().rows();
    let cols = ctx.from_line().cols();
    let mut pm = ProbabilityMap::new(rows, cols);
    for s in scenarios {
        pm.accumulate(&ctx.simulate_line(s));
    }
    pm
}

/// Genome-level convenience: decodes then aggregates.
pub fn statistical_stage_genomes(ctx: &StepContext, genomes: &[Vec<f64>]) -> ProbabilityMap {
    let scenarios: Vec<Scenario> = genomes.iter().map(|g| ScenarioSpace.decode(g)).collect();
    statistical_stage(ctx, &scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use firelib::sim::centre_ignition;
    use firelib::{FireSim, Terrain};
    use std::sync::Arc;

    fn ctx() -> StepContext {
        let sim = Arc::new(FireSim::new(Terrain::uniform(21, 21, 100.0)));
        let from = centre_ignition(21, 21);
        let truth = Scenario::reference();
        let target = sim.simulate_fire_line(&truth, &from, 0.0, 30.0);
        StepContext::new(sim, from, target, 0.0, 30.0)
    }

    #[test]
    fn sample_count_matches_result_set() {
        let c = ctx();
        let scenarios = vec![Scenario::reference(); 5];
        let pm = statistical_stage(&c, &scenarios);
        assert_eq!(pm.samples(), 5);
    }

    #[test]
    fn identical_scenarios_give_binary_matrix() {
        let c = ctx();
        let pm = statistical_stage(&c, &vec![Scenario::reference(); 4]);
        for r in 0..21 {
            for col in 0..21 {
                let p = pm.probability(r, col);
                assert!(p == 0.0 || p == 1.0, "expected consensus matrix, got {p}");
            }
        }
    }

    #[test]
    fn ignition_cell_has_probability_one() {
        let c = ctx();
        let scenarios = vec![
            Scenario::reference(),
            Scenario {
                wind_dir_deg: 270.0,
                ..Scenario::reference()
            },
            Scenario {
                wind_speed_mph: 20.0,
                ..Scenario::reference()
            },
        ];
        let pm = statistical_stage(&c, &scenarios);
        // The initial burning cell burns in every simulation.
        assert_eq!(pm.probability(10, 10), 1.0);
    }

    #[test]
    fn divergent_scenarios_create_fractional_cells() {
        let c = ctx();
        let scenarios = vec![
            Scenario {
                wind_speed_mph: 25.0,
                wind_dir_deg: 0.0,
                ..Scenario::reference()
            },
            Scenario {
                wind_speed_mph: 25.0,
                wind_dir_deg: 180.0,
                ..Scenario::reference()
            },
        ];
        let pm = statistical_stage(&c, &scenarios);
        let fractional = (0..21 * 21)
            .map(|i| pm.probability(i / 21, i % 21))
            .filter(|&p| p > 0.0 && p < 1.0)
            .count();
        assert!(fractional > 0, "opposed winds must disagree somewhere");
    }

    #[test]
    fn genome_variant_agrees_with_scenario_variant() {
        let c = ctx();
        let scenarios = vec![
            Scenario::reference(),
            Scenario {
                model: 3,
                ..Scenario::reference()
            },
        ];
        let genomes: Vec<Vec<f64>> = scenarios
            .iter()
            .map(|s| ScenarioSpace.encode(s).to_vec())
            .collect();
        assert_eq!(
            statistical_stage(&c, &scenarios),
            statistical_stage_genomes(&c, &genomes)
        );
    }
}
