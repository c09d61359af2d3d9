//! The Statistical Stage (`SS` in Figs. 1–3).
//!
//! "The first step is for the Master to aggregate the resulting maps into a
//! matrix in which each cell represents the probability of ignition of that
//! region" (§II-A). The resulting matrix is used twice: by the Calibration
//! Stage (on the just-observed interval) and by the Prediction Stage (on
//! the next interval).
//!
//! The matrix is a fold over the cells the result set burned, which is the
//! paper's own dataflow (workers return maps, the Master aggregates): every
//! scenario runs into *one* lent [`SimArena`] — seeded from the interval's
//! seeds exactly as an Optimization Stage evaluation is — and the
//! matrix takes its counts straight from the cells that run wrote
//! ([`SimArena::written_ranges`], arrival ≤ `t₁`), into a map that held
//! an earlier fold and is cleared over that fold's cover. No per-scenario
//! arena, no burned-mask raster per scenario, no walk or zeroing of the
//! raster: a step's two Statistical Stages cost what its result set burned.
//! The map's memory follows the fire the same way: its counts live in
//! page-sized chunks allocated where a fold first burns, so no count grid
//! the size of the raster exists, in the pool's spare or in the fresh map
//! [`statistical_stage`] builds.
//! (The scenarios *are* re-simulated — the Optimization Stage keeps fitness
//! values, not maps — but on a warm arena that is a few evaluations' worth
//! of work.) In a run, the arena and the map are the spares of the step's
//! pool (`SharedScenarioPool::with_spare`), warm from the search's inline
//! batches and earlier steps; [`statistical_stage`] builds its own.
//!
//! The result set is folded as a multiset ([`distinct_members`]): a
//! member that repeats — a converged population holds many copies — is
//! simulated once per matrix and counted with its multiplicity. Counts
//! and samples are integer sums, so the matrix is the per-member one.

use crate::fitness::{RunTable, StepContext};
use firelib::{FireSim, Scenario, ScenarioSpace, SimArena};
use landscape::ProbabilityMap;

/// Aggregates the simulated fire lines of a scenario result set over the
/// context's interval into an ignition-probability matrix, on a fresh
/// arena and map of its own (a run's steps lend the pool's instead).
pub fn statistical_stage(ctx: &StepContext, scenarios: &[Scenario]) -> ProbabilityMap {
    let terrain = ctx.sim().terrain();
    let mut pm = ProbabilityMap::new(terrain.rows(), terrain.cols());
    let members = distinct_members(ctx.sim(), scenarios);
    statistical_stage_into(ctx, &members, &mut ctx.sim().arena(), &mut pm);
    pm
}

/// Genome-level convenience: decodes then aggregates.
pub fn statistical_stage_genomes(ctx: &StepContext, genomes: &[Vec<f64>]) -> ProbabilityMap {
    statistical_stage(ctx, &decode_result_set(genomes))
}

/// The scenarios a result set of genomes stands for.
pub fn decode_result_set(genomes: &[Vec<f64>]) -> Vec<Scenario> {
    genomes.iter().map(|g| ScenarioSpace.decode(g)).collect()
}

/// A result set as the Statistical Stage folds it: each distinct run once,
/// as its first-occurring member, in first-occurrence order, with the
/// number of members it stands for. Distinct is by [`FireSim::run_key`]
/// (the evaluator table's key), so two members are merged exactly when
/// every simulation of them on `sim` is the same run.
pub fn distinct_members(sim: &FireSim, scenarios: &[Scenario]) -> Vec<(Scenario, u32)> {
    let mut table = RunTable::default();
    let mut members: Vec<(Scenario, u32)> = Vec::new();
    for s in scenarios {
        let slot = table.slot(&sim.run_key(s));
        if slot == members.len() {
            members.push((*s, 0));
        }
        members[slot].1 += 1;
    }
    members
}

/// The fold itself, over a result set's [`distinct_members`]: each member
/// is simulated once on a lent arena and counted with its multiplicity,
/// into `pm`, a map of the context's shape that held an earlier fold. The
/// map is cleared first ([`ProbabilityMap::clear`]: the earlier fold's
/// cover, not the raster), so the counts are a fresh map's. A prediction
/// step lends both of its Statistical Stages the pool's spare arena and
/// map ([`crate::fitness::SharedScenarioPool::with_spare`]) — the
/// prediction matrix is the calibration matrix refolded — so neither the
/// arena's raster nor the map's grid is filled more than once per pool
/// and grid shape.
///
/// # Panics
/// Panics when `pm` is not the context's shape.
pub fn statistical_stage_into(
    ctx: &StepContext,
    members: &[(Scenario, u32)],
    arena: &mut SimArena,
    pm: &mut ProbabilityMap,
) {
    let terrain = ctx.sim().terrain();
    assert_eq!(
        (pm.rows(), pm.cols()),
        (terrain.rows(), terrain.cols()),
        "probability map: terrain shape mismatch"
    );
    pm.clear();
    for (s, runs) in members {
        ctx.simulate_into(s, arena);
        pm.accumulate_ranges(
            arena.map().grid().as_slice(),
            |&arrival| arrival <= ctx.t1(),
            arena.written_ranges(),
            *runs,
        );
    }
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
    fn run_table_merges_members_that_run_alike_and_keeps_their_count() {
        let c = ctx();
        // Calm air and flat ground on model 1, whose bed carries only the
        // 1-hour class: the wind direction, the aspect and the 10-hour,
        // 100-hour and live moistures are read by no run.
        let calm = Scenario {
            wind_speed_mph: 0.0,
            ..Scenario::reference()
        };
        let alike = Scenario {
            wind_dir_deg: 200.0,
            aspect_deg: 45.0,
            m10_pct: 30.0,
            m100_pct: 40.0,
            mherb_pct: 250.0,
            ..calm
        };
        let windy = Scenario::reference();
        assert_ne!(
            calm.values().map(f64::to_bits),
            alike.values().map(f64::to_bits)
        );
        let members = distinct_members(c.sim(), &[calm, alike, windy, alike]);
        assert_eq!(members, [(calm, 3), (windy, 1)]);
        assert_eq!(
            statistical_stage(&c, &[calm, alike, windy, alike]),
            statistical_stage(&c, &[calm, calm, windy, calm]),
        );
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
