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
//! Process-level note: the original runs islands as MPI process groups,
//! side by side. Here each island is an [`Engine`] and one thread breeds
//! them in turn, but their candidates are *evaluated together*: the
//! initial populations, every generation and every restart wave are one
//! submission to the shared scenario evaluator, the islands' rows moved
//! (not cloned) into one batch in island order and back — so the
//! evaluator (and a fused scheduler round above
//! it) sees `islands × island_population` scenarios at once, as the
//! paper's Workers would. Each island draws only from its own stream and
//! fitness is a pure function of one genome, so this is bit-identical to
//! stepping the islands one after another, evaluation counts included.
//!
//! A system supplies the engine [`Scheme`] of its islands, what it does
//! after each generation (ESSIM-DE's tuning operators, which restart
//! islands through [`restart`]), and the result-set policy it applies to
//! the winning island.

use crate::fitness::ScenarioEvaluator;
use evoalg::{BatchEvaluator, Engine, GenStats, Scheme};
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
    /// builds an island's engine parameters from that seed. Each
    /// generation breeds every island in turn and scores all their
    /// candidates in one `evaluator` call; then
    /// `after_generation(islands, stats, g, best, evaluator)` sees each
    /// island's statistics of generation `g` and returns the run's best
    /// fitness so far (`best` is −∞ until then).
    pub(crate) fn run<S: Scheme>(
        &self,
        seed: u64,
        seed_stride: u64,
        evaluator: &mut ScenarioEvaluator,
        scheme: impl Fn(u64) -> S,
        mut after_generation: impl FnMut(
            &mut [Engine<S>],
            &[GenStats],
            u32,
            f64,
            &mut ScenarioEvaluator,
        ) -> f64,
    ) -> IslandRun<S> {
        let mut islands: Vec<Engine<S>> = (1..=self.islands as u64)
            .map(|i| seed.wrapping_add(seed_stride.wrapping_mul(i)))
            .map(|island_seed| Engine::new(GENE_COUNT, scheme(island_seed)))
            .collect();
        evaluate_populations(islands.iter_mut().collect(), evaluator);

        let mut best = f64::NEG_INFINITY;
        let mut generations = 0u32;
        while generations < self.max_generations && best < self.fitness_threshold {
            let stats = step_together(&mut islands, evaluator);
            best = after_generation(&mut islands, &stats, generations, best, evaluator);
            generations += 1;
            if self.migration_interval > 0 && generations.is_multiple_of(self.migration_interval) {
                migrate(&mut islands, self.migrants);
            }
        }

        // Monitor stage: the island whose best fitness is highest wins.
        let evaluations = islands.iter().map(Engine::evaluations).sum();
        #[expect(
            clippy::expect_used,
            reason = "`validate` admits no topology without islands"
        )]
        let winner = islands
            .iter_mut()
            .map(|isl| isl.stats().best_fitness)
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            .expect("at least one island");
        IslandRun {
            winner: islands.swap_remove(winner),
            best_fitness: best,
            generations,
            evaluations,
        }
    }
}

/// One generation of every island as one batch: each island breeds on its
/// own stream, the candidate rows are moved into one batch in island
/// order, scored by one `evaluator` call and moved back to their islands.
fn step_together<S: Scheme>(
    islands: &mut [Engine<S>],
    evaluator: &mut ScenarioEvaluator,
) -> Vec<GenStats> {
    let mut batch = Vec::new();
    for isl in islands.iter_mut() {
        isl.propose();
        lend(isl.candidates_mut(), &mut batch);
    }
    let fitness = evaluator.evaluate(&batch);
    let (mut rows, mut offset) = (batch.into_iter(), 0);
    islands
        .iter_mut()
        .map(|isl| {
            let n = take_back(isl.candidates_mut(), &mut rows);
            offset += n;
            isl.accept(&fitness[offset - n..offset])
        })
        .collect()
}

/// Scores the whole population of every island in `islands` as one batch,
/// its rows moved there and back (nothing is submitted when there is
/// none) — the initial evaluation and a restart wave's re-evaluation.
fn evaluate_populations<S: Scheme>(
    mut islands: Vec<&mut Engine<S>>,
    evaluator: &mut ScenarioEvaluator,
) {
    if islands.is_empty() {
        return;
    }
    let mut batch = Vec::new();
    for isl in &mut islands {
        lend(isl.population_mut(), &mut batch);
    }
    let fitness = evaluator.evaluate(&batch);
    let (mut rows, mut offset) = (batch.into_iter(), 0);
    for isl in islands {
        let n = take_back(isl.population_mut(), &mut rows);
        offset += n;
        isl.score_population(&fitness[offset - n..offset]);
    }
}

/// Moves `rows` onto the end of `batch`, leaving empty vectors behind.
fn lend(rows: &mut [Vec<f64>], batch: &mut Vec<Vec<f64>>) {
    batch.extend(rows.iter_mut().map(std::mem::take));
}

/// Moves the next `rows.len()` vectors of `batch` back into `rows`;
/// returns how many.
fn take_back(rows: &mut [Vec<f64>], batch: &mut impl Iterator<Item = Vec<f64>>) -> usize {
    for (row, genes) in rows.iter_mut().zip(batch) {
        *row = genes;
    }
    rows.len()
}

/// One restart wave: the `fraction` worst members of every island
/// `islands` yields are redrawn ([`Engine::restart_worst`], each on its
/// island's stream), then those islands are re-evaluated in one batch —
/// every member counts as an evaluation, but the evaluator's table
/// answers the ones the restart left as they were, so only the redrawn
/// ones are simulated.
pub(crate) fn restart<'a, S: Scheme + 'a>(
    islands: impl Iterator<Item = &'a mut Engine<S>>,
    fraction: f64,
    evaluator: &mut ScenarioEvaluator,
) {
    let mut restarted: Vec<&mut Engine<S>> = islands.collect();
    for isl in &mut restarted {
        isl.restart_worst(fraction);
    }
    evaluate_populations(restarted, evaluator);
}

/// Ring migration: each island sends copies of its `migrants` best to
/// the next island, replacing that island's worst members.
fn migrate<S: Scheme>(islands: &mut [Engine<S>], migrants: usize) {
    let n = islands.len();
    // Collect emigrants first so the exchange is simultaneous (no
    // island sees half-migrated state); every island is in fitness order
    // from here on.
    let emigrants: Vec<Vec<(Vec<f64>, f64)>> = islands
        .iter_mut()
        .map(|isl| {
            isl.sort_by_fitness();
            let best = isl
                .population()
                .iter()
                .cloned()
                .zip(isl.fitness().iter().copied());
            best.take(migrants).collect()
        })
        .collect();
    for (src, group) in emigrants.into_iter().enumerate() {
        let dest = &mut islands[(src + 1) % n];
        let len = dest.population().len();
        for (k, (genes, fitness)) in group.into_iter().enumerate() {
            dest.set_member(len - 1 - k, &genes, fitness);
        }
    }
}

/// The oracle the batched ring is checked against (the ESSIM-EA and
/// ESSIM-DE unit tests): the ring as it ran before its islands were
/// evaluated together, and an evaluator that records its submissions.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::cases::tiny_test_case;
    use crate::fitness::DynBackend;
    use firelib::ScenarioSpace;
    use parworker::Backend;
    use std::sync::{Arc, Mutex};

    /// [`Ring::run`] with every island stepped and evaluated on its own,
    /// one after another: `generation(islands, g, best, evaluator)`
    /// advances every island through generation `g` (calling
    /// [`Engine::step`] itself) and returns the run's best fitness so far.
    pub(crate) fn one_at_a_time<S: Scheme>(
        ring: &Ring,
        seed: u64,
        seed_stride: u64,
        evaluator: &mut ScenarioEvaluator,
        scheme: impl Fn(u64) -> S,
        mut generation: impl FnMut(&mut [Engine<S>], u32, f64, &mut ScenarioEvaluator) -> f64,
    ) -> IslandRun<S> {
        let mut islands: Vec<Engine<S>> = (1..=ring.islands as u64)
            .map(|i| seed.wrapping_add(seed_stride.wrapping_mul(i)))
            .map(|island_seed| Engine::new(GENE_COUNT, scheme(island_seed)))
            .collect();
        for isl in &mut islands {
            isl.evaluate_initial(evaluator);
        }
        let mut best = f64::NEG_INFINITY;
        let mut generations = 0u32;
        while generations < ring.max_generations && best < ring.fitness_threshold {
            best = generation(&mut islands, generations, best, evaluator);
            generations += 1;
            if ring.migration_interval > 0 && generations.is_multiple_of(ring.migration_interval) {
                migrate(&mut islands, ring.migrants);
            }
        }
        let evaluations = islands.iter().map(Engine::evaluations).sum();
        let winner = islands
            .iter_mut()
            .map(|isl| isl.stats().best_fitness)
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            .expect("at least one island");
        IslandRun {
            winner: islands.swap_remove(winner),
            best_fitness: best,
            generations,
            evaluations,
        }
    }

    /// Scores like [`crate::cases::tiny_step_evaluator`] and records the
    /// row count of every submission.
    struct Counting {
        ctx: Arc<crate::fitness::StepContext>,
        batches: Arc<Mutex<Vec<usize>>>,
    }

    impl Backend<Vec<f64>, f64> for Counting {
        fn map(&mut self, tasks: Vec<Vec<f64>>) -> Vec<f64> {
            self.batches.lock().unwrap().push(tasks.len());
            tasks
                .iter()
                .map(|g| self.ctx.fitness_of(&ScenarioSpace.decode(g)))
                .collect()
        }

        fn name(&self) -> String {
            "counting".into()
        }

        fn workers(&self) -> usize {
            1
        }
    }

    /// An evaluator over the first interval of the tiny test case, and the
    /// row counts of the batches its backend was handed, in submission
    /// order: the rows its table had not scored yet, each once.
    pub(crate) fn counting_evaluator() -> (ScenarioEvaluator, Arc<Mutex<Vec<usize>>>) {
        let ctx = Arc::new(tiny_test_case().step_context(1));
        let batches = Arc::new(Mutex::new(Vec::new()));
        let backend: DynBackend = Box::new(Counting {
            ctx: Arc::clone(&ctx),
            batches: Arc::clone(&batches),
        });
        (ScenarioEvaluator::with_backend(ctx, backend), batches)
    }

    /// Rows a [`counting_evaluator`]'s backend received since `seen`, which
    /// then moves to the end of the log. A one-at-a-time run sums these
    /// over the calls of a wave to get what a batching ring must submit
    /// for it: both runs score the same genomes, so their tables agree at
    /// every wave's end and a wave's unscored rows are the rows of its
    /// one-at-a-time calls.
    pub(crate) fn rows_since(log: &Mutex<Vec<usize>>, seen: &mut usize) -> usize {
        let log = log.lock().unwrap();
        let rows = log[*seen..].iter().sum();
        *seen = log.len();
        rows
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
        islands[0].set_member(0, &special, 0.99);
        migrate(&mut islands, 1);
        assert!(
            islands[1].population().contains(&special),
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
