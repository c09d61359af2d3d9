//! The island model ESSIM-EA and ESSIM-DE share (paper §II-B).
//!
//! "The system uses a number of islands, each of which has a Master and a
//! number of Workers; the Monitor acts as the Master process for the
//! Masters of the islands." Each island evolves its own population on its
//! own random stream; every `migration_interval` generations the islands
//! exchange their best individuals along a ring; when the generation
//! budget or the fitness threshold stops the run, the Monitor "selects
//! the best candidate" among the islands.
//!
//! Process-level note: the original runs islands as MPI process groups;
//! here each island is an [`Engine`] stepped round-robin by one thread,
//! with the shared scenario evaluator doing the parallel work — the
//! paper's own ESS-NS simplification argument (§III-A: the demanding part
//! is scenario evaluation) applies equally to the baselines.
//!
//! A system supplies the engine [`Scheme`] of its islands, what one
//! generation does across them (stepping each island, and whatever it
//! interleaves — ESSIM-DE's tuning operators), and the result-set policy
//! it applies to the winning island.

use crate::fitness::ScenarioEvaluator;
use evoalg::{Engine, Scheme};
use firelib::GENE_COUNT;

/// Topology, migration cadence and stopping rule of an island system —
/// the part of their configuration ESSIM-EA and ESSIM-DE share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ring {
    /// Number of islands.
    pub islands: usize,
    /// Population size per island.
    pub island_population: usize,
    /// Generations between migrations (0 = never).
    pub migration_interval: u32,
    /// Individuals sent per migration.
    pub migrants: usize,
    /// Maximum generations per prediction step.
    pub max_generations: u32,
    /// Early-stop fitness threshold (any island).
    pub fitness_threshold: f64,
}

impl Default for Ring {
    fn default() -> Self {
        Self {
            islands: 4,
            island_population: 12,
            migration_interval: 3,
            migrants: 2,
            max_generations: 12,
            fitness_threshold: 0.95,
        }
    }
}

/// What the Monitor holds when the islands stop.
pub(crate) struct IslandRun<S> {
    /// The island whose best member is fittest.
    pub winner: Engine<S>,
    /// Best fitness the generations reported.
    pub best_fitness: f64,
    /// Generations executed.
    pub generations: u32,
    /// Evaluations spent, all islands.
    pub evaluations: u64,
}

impl Ring {
    /// Checks the topology once, for every island system.
    ///
    /// # Panics
    /// Panics on a degenerate topology: fewer than 2 islands, or migrants
    /// that would replace a whole island.
    pub(crate) fn validate(&self) {
        assert!(
            self.islands >= 2,
            "an island model needs at least 2 islands"
        );
        assert!(
            self.migrants < self.island_population,
            "migrants must be fewer than an island's population"
        );
    }

    /// Runs the islands to the stopping rule. Island `i` (from 1) runs on
    /// `seed + i × seed_stride` — an odd constant of the calling system, so
    /// every island of every system has a stream of its own; `scheme`
    /// builds an island's engine parameters from that seed;
    /// `generation(islands, g, best, evaluator)` advances every island
    /// through generation `g` and returns the run's best fitness so far
    /// (`best` is −∞ until then).
    pub(crate) fn run<S: Scheme>(
        &self,
        seed: u64,
        seed_stride: u64,
        evaluator: &mut ScenarioEvaluator,
        scheme: impl Fn(u64) -> S,
        mut generation: impl FnMut(&mut [Engine<S>], u32, f64, &mut ScenarioEvaluator) -> f64,
    ) -> IslandRun<S> {
        let mut islands: Vec<Engine<S>> = (1..=self.islands as u64)
            .map(|i| seed.wrapping_add(seed_stride.wrapping_mul(i)))
            .map(|island_seed| Engine::new(GENE_COUNT, scheme(island_seed)))
            .collect();
        for isl in &mut islands {
            isl.evaluate_initial(evaluator);
        }

        let mut best = f64::NEG_INFINITY;
        let mut generations = 0u32;
        while generations < self.max_generations && best < self.fitness_threshold {
            best = generation(&mut islands, generations, best, evaluator);
            generations += 1;
            if self.migration_interval > 0 && generations.is_multiple_of(self.migration_interval) {
                migrate(&mut islands, self.migrants);
            }
        }

        // Monitor stage: the island whose best fitness is highest wins.
        let evaluations = islands.iter().map(Engine::evaluations).sum();
        let winner = islands
            .iter()
            .map(|isl| isl.stats().best_fitness)
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            // lint: allow(panic) — `validate` admits no topology without islands
            .expect("at least one island");
        IslandRun {
            winner: islands.swap_remove(winner),
            best_fitness: best,
            generations,
            evaluations,
        }
    }
}

/// Ring migration: each island sends clones of its `migrants` best to
/// the next island, replacing that island's worst members.
fn migrate<S: Scheme>(islands: &mut [Engine<S>], migrants: usize) {
    let n = islands.len();
    // Collect emigrants first so the exchange is simultaneous (no
    // island sees half-migrated state).
    let emigrants: Vec<Vec<evoalg::Individual>> = islands
        .iter_mut()
        .map(|isl| {
            isl.population_mut().sort_by_fitness_desc();
            isl.population().members()[..migrants].to_vec()
        })
        .collect();
    for (src, group) in emigrants.into_iter().enumerate() {
        let pop = islands[(src + 1) % n].population_mut();
        pop.sort_by_fitness_desc();
        let len = pop.len();
        for (k, migrant) in group.into_iter().enumerate() {
            pop.members_mut()[len - 1 - k] = migrant;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoalg::{DeConfig, GaConfig};

    /// Two tiny islands; island 0 holds a known-best genome; after one
    /// migration island 1 holds it too.
    fn migration_spreads_best_genomes<S: Scheme>(scheme: fn(u64) -> S) {
        let mut islands = vec![
            Engine::new(GENE_COUNT, scheme(1)),
            Engine::new(GENE_COUNT, scheme(2)),
        ];
        let special = vec![0.123456; GENE_COUNT];
        let mut eval = |gs: &[Vec<f64>]| -> Vec<f64> {
            gs.iter()
                .map(|g| if g == &special { 0.99 } else { 0.01 })
                .collect()
        };
        for isl in &mut islands {
            isl.evaluate_initial(&mut eval);
        }
        islands[0].population_mut().members_mut()[0] = {
            let mut ind = evoalg::Individual::new(special.clone());
            ind.fitness = 0.99;
            ind
        };
        migrate(&mut islands, 1);
        assert!(
            islands[1].population().genomes().contains(&special),
            "best genome did not migrate"
        );
    }

    #[test]
    fn migration_spreads_best_genomes_on_both_engines() {
        migration_spreads_best_genomes(|seed| GaConfig {
            population_size: 4,
            offspring: 4,
            seed,
            ..GaConfig::default()
        });
        migration_spreads_best_genomes(|seed| DeConfig {
            population_size: 4,
            seed,
            ..DeConfig::default()
        });
    }
}
