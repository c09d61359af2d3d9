//! Algorithm 1 — the Novelty-based Genetic Algorithm with Multiple
//! Solutions, implemented line for line.
//!
//! ```text
//! Input: N, m, mR, cR, k, maxGen, fThreshold
//! Output: bestSet
//!  1: population ← initializePopulation(N)
//!  2: archive ← ∅
//!  3: bestSet ← ∅
//!  4: generations ← 0
//!  5: maxFitness ← 0
//!  6: while generations < maxGen and maxFitness < fThreshold do
//!  7:   offspring ← generateOffspring(population, m, mR, cR)
//!  8:   for each ind ∈ (population ∪ offspring): ind.fitness ← evaluateFitness(ind)
//! 11:   noveltySet ← (population ∪ offspring ∪ archive)
//! 12:   for each ind ∈ (population ∪ offspring): ind.novelty ← evaluateNovelty(ind, noveltySet, k)
//! 15:   archive ← updateArchive(archive, offspring)
//! 16:   population ← replaceByNovelty(population, offspring, N)
//! 17:   bestSet ← updateBest(bestSet, offspring)
//! 18:   maxFitness ← getMaxFitness(bestSet)
//! 19:   generations ← generations + 1
//! 20: end while
//! 21: return bestSet
//! ```
//!
//! Two deliberate implementation notes, both documented against the paper:
//!
//! * **Fitness caching** (lines 8–10): scenario fitness is deterministic
//!   within a prediction step, so already-evaluated population members are
//!   not re-simulated; the loop's semantics are unchanged and the
//!   evaluation counter reflects real simulations only.
//! * **`updateBest` coverage** (line 17): the pseudocode offers only
//!   `offspring`, but the output contract is "the set of individuals of
//!   highest fitness found **during the search**"; offering the evaluated
//!   initial population as well (its members would otherwise be the only
//!   evaluated individuals that can never be recorded) is a strict
//!   superset that matches the stated contract. The initial population is
//!   offered once, in generation 1 after that generation's offspring; later
//!   generations offer their offspring only. Offering every parent again
//!   each generation could change nothing: every survivor was offered in
//!   the generation that produced it, and a re-offer is rejected whatever
//!   became of the first. If the first offer entered, the entry is still
//!   there (a duplicate) or was evicted as the minimum of a full set, and
//!   a full set never shrinks and its minimum never falls, so the fitness
//!   bound rejects it. If it was turned away, that was by the bound (which
//!   only rises) or by a duplicate, whose fitness is the same (equal genes
//!   have equal fitness within a run, the note above) — so the same
//!   argument holds for it.
//!
//! A generation runs in buffers the run keeps, and once the archive and
//! `bestSet` are full it allocates nothing:
//!
//! * the rows are the population then the offspring, gene vectors beside
//!   fitness, novelty and local-competition columns. Line 7 breeds into
//!   the offspring rows' vectors ([`evoalg::ga::breed_into`], the GA's
//!   breeding step), and those vectors are the batch handed to the
//!   evaluator, uncopied;
//! * the roulette wheel of line 7 is built once a generation;
//! * lines 11–14 build the noveltySet in one reused flat
//!   [`evoalg::BehaviourMatrix`] (each individual described exactly once,
//!   the archive's incrementally maintained matrix appended by one bulk
//!   copy) and score ρ(x) for every subject in one pass over an index
//!   built in reused [`evoalg::IndexBuffers`] — indexed kNN, bit-identical
//!   to the brute-force reference `novelty_score` (see `evoalg::knn`);
//! * line 15's archive turns an offer away with one comparison against its
//!   cached minimum and overwrites a replaced entry's genes in place, and
//!   line 17's `BestSet` reuses the evicted entry's vector;
//! * line 16 ranks the rows by one packed integer key each
//!   ([`evoalg::ElitistRanking`]: the order of a stable sort by descending
//!   score) and moves them into rank order: the first N are the survivors,
//!   and the gene vectors it drops are the next generation's offspring
//!   rows.
//!
//! `tests/algorithm1_conformance.rs` holds every output of this generation
//! to a plain copy of the loop that rebuilds everything each generation
//! and re-offers every parent, bit for bit.

use crate::hybrid::{BehaviourSpace, ScoringPolicy};
use evoalg::ga::breed_into;
use evoalg::individual::{random_rows, Individual};
use evoalg::selection::RouletteWheel;
use evoalg::{
    BatchEvaluator, BehaviourMatrix, BestSet, ElitistRanking, IndexBuffers, NoveltyArchive,
    PreparedIndex,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Input parameters of Algorithm 1 (its `Input:` line plus the fixed sizes
/// §III-B declares: "for the first version, we are considering a fixed size
/// archive and solution set").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoveltyGaConfig {
    /// Population size `N`.
    pub population_size: usize,
    /// Offspring per generation `m`.
    pub offspring: usize,
    /// Per-gene mutation probability `mR`.
    pub mutation_rate: f64,
    /// Crossover probability `cR`.
    pub crossover_rate: f64,
    /// Neighbours `k` for the novelty score of Eq. (1).
    pub novelty_neighbours: usize,
    /// Stopping condition: maximum generations `maxGen`.
    pub max_generations: u32,
    /// Stopping condition: fitness threshold `fThreshold`.
    pub fitness_threshold: f64,
    /// Fixed archive capacity.
    pub archive_capacity: usize,
    /// Fixed `bestSet` capacity.
    pub best_set_capacity: usize,
    /// Search-score policy (pure novelty for the baseline, weighted for
    /// the E7 hybrid ablation).
    pub scoring: ScoringPolicy,
    /// Behaviour space for Eq. (1)/(2) (fitness for the baseline).
    pub behaviour: BehaviourSpace,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NoveltyGaConfig {
    fn default() -> Self {
        Self {
            population_size: 32,
            offspring: 32,
            mutation_rate: 0.1,
            crossover_rate: 0.9,
            novelty_neighbours: 5,
            max_generations: 12,
            fitness_threshold: 0.95,
            archive_capacity: 64,
            best_set_capacity: 24,
            scoring: ScoringPolicy::PureNovelty,
            behaviour: BehaviourSpace::Fitness,
            seed: 0,
        }
    }
}

/// Why the main loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// `generations` reached `maxGen`.
    GenerationBudget,
    /// `maxFitness` reached `fThreshold`.
    FitnessThreshold,
}

/// Per-generation trace (the F3 harness prints these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NsGenStats {
    /// Generation index (1-based; after the generation completed).
    pub generation: u32,
    /// `getMaxFitness(bestSet)` — the running maximum.
    pub max_fitness: f64,
    /// Mean novelty of the surviving population.
    pub mean_novelty: f64,
    /// Mean fitness of the surviving population (diagnostic: NS populations
    /// need *not* improve here — that is the point).
    pub mean_fitness: f64,
    /// Archive occupancy.
    pub archive_len: usize,
    /// `bestSet` occupancy.
    pub best_set_len: usize,
    /// Cumulative evaluations: fitnesses the search asked for, repeats
    /// included (a simulation-backed evaluator may run fewer simulations).
    pub evaluations: u64,
}

/// The outcome of one Algorithm 1 run.
#[derive(Debug, Clone)]
pub struct NoveltyGaOutcome {
    /// Line 21: the returned `bestSet`.
    pub best_set: BestSet,
    /// The final archive (exposed for the §IV inclusion variants and for
    /// diagnostics).
    pub archive: NoveltyArchive,
    /// The final (non-converged) population, its members' genes and
    /// scores in rank order.
    pub final_population: Vec<Individual>,
    /// Generations executed.
    pub generations: u32,
    /// Scenario evaluations performed.
    pub evaluations: u64,
    /// Which stopping condition fired.
    pub stop_reason: StopReason,
    /// Per-generation trace.
    pub history: Vec<NsGenStats>,
}

/// The Algorithm 1 engine.
#[derive(Debug)]
pub struct NoveltyGa {
    config: NoveltyGaConfig,
    dims: usize,
}

impl NoveltyGa {
    /// Creates the engine for `dims`-gene genomes.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    #[expect(
        clippy::disallowed_macros,
        reason = "the serve path builds configs from the closed row table of `ess_service::systems` only, and no row holds a value that arrived from the wire: N and m are `scaled(32, ..) ≥ 4`, k ∈ {3, 5, 10, 15}, the rates are `NoveltyGaConfig::default()`'s constants in [0, 1], the archive and `bestSet` capacities are 64, twice N or `scaled(..) ≥ 4`, and dims is `GENE_COUNT` = 9"
    )]
    pub fn new(dims: usize, config: NoveltyGaConfig) -> Self {
        assert!(dims >= 2, "genome needs at least two genes");
        assert!(config.population_size >= 2, "N must be at least 2");
        assert!(config.offspring >= 2, "m must be at least 2");
        assert!(
            (0.0..=1.0).contains(&config.mutation_rate),
            "mR is a probability"
        );
        assert!(
            (0.0..=1.0).contains(&config.crossover_rate),
            "cR is a probability"
        );
        assert!(config.novelty_neighbours >= 1, "k must be at least 1");
        Self { config, dims }
    }

    /// Runs Algorithm 1 to completion against `evaluator`.
    pub fn run<E: BatchEvaluator>(&self, evaluator: &mut E) -> NoveltyGaOutcome {
        let cfg = &self.config;
        let (n, k) = (cfg.population_size, cfg.novelty_neighbours);
        let rows = n + cfg.offspring;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Line 1: initializePopulation(N). The run's rows are the
        // population (0..N) then the offspring (N..N+m), genes beside
        // three score columns; the offspring rows are the buffers each
        // generation breeds into.
        let mut genes = random_rows(n, cfg.offspring, self.dims, &mut rng);
        let mut fitness = vec![f64::NAN; rows];
        let mut novelty = vec![f64::NAN; rows];
        let mut local_comp = vec![f64::NAN; rows];
        // Lines 2–5.
        let mut archive = NoveltyArchive::new(cfg.archive_capacity);
        let mut best_set = BestSet::new(cfg.best_set_capacity);
        let mut generations = 0u32;
        let mut max_fitness = 0.0f64;
        let mut evaluations = 0u64;
        let mut history = Vec::with_capacity(cfg.max_generations.min(HISTORY_RESERVE) as usize);
        let mut stop_reason = StopReason::GenerationBudget;

        // What a generation works in, kept across generations: the
        // wheel's scores, the odd count's unused child, the noveltySet
        // (population ∪ offspring ∪ archive descriptors), the kNN index,
        // the NSLC fitness column and the replacement's ranking and
        // scratch.
        let mut wheel_scores = Vec::with_capacity(n);
        let mut spare_child = Vec::with_capacity(self.dims);
        let mut novelty_set = BehaviourMatrix::with_dim(cfg.behaviour.dim(self.dims));
        let mut index = IndexBuffers::default();
        let mut all_fitness = Vec::new();
        let mut ranking = ElitistRanking::default();
        let (mut spare_genes, mut spare_column) = (Vec::with_capacity(rows), Vec::new());

        // The search score of a scored row (a row the NSLC pass did not
        // reach competes with lc = 0).
        let score = |fitness: f64, novelty: f64, lc: f64| {
            let lc = if lc.is_finite() { lc } else { 0.0 };
            cfg.scoring.score_with_lc(fitness, novelty, lc)
        };

        // Line 6: the two stopping conditions.
        while generations < cfg.max_generations {
            if max_fitness >= cfg.fitness_threshold {
                stop_reason = StopReason::FitnessThreshold;
                break;
            }

            // Line 7: generateOffspring(population, m, mR, cR) — roulette on
            // the previous generation's search score, bred into the
            // offspring rows. In the first generation no novelty exists
            // yet, so selection is uniform (roulette over all-zero scores).
            wheel_scores.clear();
            let scored = fitness.iter().zip(&novelty).zip(&local_comp).take(n);
            wheel_scores.extend(scored.map(|((&f, &rho), &lc)| {
                if rho.is_finite() && f.is_finite() {
                    score(f, rho, lc)
                } else {
                    0.0
                }
            }));
            let (parents, offspring) = genes.split_at_mut(n);
            breed_into(
                parents,
                &RouletteWheel::new(&wheel_scores),
                offspring,
                &mut spare_child,
                cfg.mutation_rate,
                cfg.crossover_rate,
                &mut rng,
            );

            // Lines 8–10: evaluate fitness of (population ∪ offspring).
            // Population members keep their cached deterministic fitness,
            // so only the first generation's population is evaluated.
            let (parent_fitness, offspring_fitness) = fitness.split_at_mut(n);
            if generations == 0 {
                evaluations += Self::evaluate_into(evaluator, parents, parent_fitness);
            }
            evaluations += Self::evaluate_into(evaluator, offspring, offspring_fitness);

            // Line 11: noveltySet ← population ∪ offspring ∪ archive. Each
            // individual is described exactly once per generation — the
            // archive offers below reuse these rows — and the archive's
            // descriptors arrive with one bulk copy of its incrementally
            // maintained matrix.
            novelty_set.clear();
            novelty_set.reserve_rows(rows + archive.len());
            for (g, &f) in genes.iter().zip(&fitness) {
                cfg.behaviour.describe_into(g, f, &mut novelty_set);
            }
            novelty_set.extend_from(archive.behaviour_matrix());

            // Lines 12–14: ρ(x) of each ind ∈ population ∪ offspring, as
            // one batch (indexed kNN, bit-identical to brute force) in the
            // run's index buffers, shared with the NSLC batch.
            let mut prepared =
                PreparedIndex::with_buffers(&novelty_set, std::mem::take(&mut index));
            prepared.novelty_scores_into(k, &mut novelty);
            for rho in &mut novelty {
                // The sentinel for an empty reference cannot occur here
                // (the reference always holds ≥ N+m−1 ≥ 3 entries), but
                // clamp defensively for custom behaviour spaces.
                if !rho.is_finite() {
                    *rho = 1.0;
                }
            }
            // NSLC extension: when the scoring policy competes locally,
            // compute each subject's local-competition term over the same
            // noveltySet (archived entries compete with their recorded
            // fitness).
            if cfg.scoring.uses_local_competition() {
                all_fitness.clear();
                all_fitness.extend_from_slice(&fitness);
                all_fitness.extend(archive.entries().iter().map(|e| e.fitness));
                prepared.local_competition_scores_into(&all_fitness, k, &mut local_comp);
            }
            index = prepared.into_buffers();

            // Line 15: updateArchive(archive, offspring) — offspring enter
            // by novelty; replacement inside the archive is novelty-only.
            // Descriptors are the rows already built for the noveltySet.
            let offspring_rows = (genes.iter().zip(novelty_set.rows()))
                .zip(novelty.iter().zip(&fitness))
                .skip(n);
            for ((g, behaviour), (&rho, &f)) in offspring_rows {
                archive.offer(g, behaviour, rho, f);
            }

            // Line 17: updateBest — this generation's offspring, and in
            // the first generation the initial population after them (see
            // the module docs for why parents are offered only once). It
            // reads no score line 16 writes, so it runs first: line 16
            // reorders the rows.
            for (g, &f) in genes.iter().zip(&fitness).skip(n) {
                best_set.offer(g, f);
            }
            if generations == 0 {
                for (g, &f) in genes.iter().zip(&fitness).take(n) {
                    best_set.offer(g, f);
                }
            }

            // Line 16: replaceByNovelty(population, offspring, N) — elitist
            // over the union by the search score (novelty for the
            // baseline; the hybrid/NSLC policies for E7). The ranked rows
            // move into rank order: the first N survive, and the dropped
            // gene vectors become the next generation's offspring rows.
            let scored = fitness.iter().zip(&novelty).zip(&local_comp);
            ranking.rank(scored.map(|((&f, &rho), &lc)| score(f, rho, lc)));
            ranking.permute(&mut genes, &mut spare_genes);
            for column in [&mut fitness, &mut novelty, &mut local_comp] {
                ranking.permute(column, &mut spare_column);
            }

            // Lines 18–19.
            max_fitness = best_set.max_fitness();
            generations += 1;

            let mean = |column: &[f64]| column.iter().take(n).sum::<f64>() / n as f64;
            history.push(NsGenStats {
                generation: generations,
                max_fitness,
                mean_novelty: mean(&novelty),
                mean_fitness: mean(&fitness),
                archive_len: archive.len(),
                best_set_len: best_set.len(),
                evaluations,
            });
        }
        let members = (genes.into_iter().zip(fitness))
            .zip(novelty.into_iter().zip(local_comp))
            .take(n)
            .map(|((genes, fitness), (novelty, local_comp))| Individual {
                genes,
                fitness,
                novelty,
                local_comp,
            });
        NoveltyGaOutcome {
            best_set,
            archive,
            final_population: members.collect(),
            generations,
            evaluations,
            stop_reason,
            history,
        }
    }

    /// Evaluates `genomes` into `out`, one fitness each; returns how many
    /// evaluations were spent.
    #[expect(
        clippy::disallowed_macros,
        reason = "`BatchEvaluator::evaluate` returns one value per genome, in order (`Backend::map` is an ordered map, and `parworker` asserts the length itself), and a scenario's fitness is a Jaccard index, a ratio of cell counts in [0, 1] with the empty union defined as 1"
    )]
    fn evaluate_into<E: BatchEvaluator>(
        evaluator: &mut E,
        genomes: &[Vec<f64>],
        out: &mut [f64],
    ) -> u64 {
        let fitness = evaluator.evaluate(genomes);
        assert_eq!(
            fitness.len(),
            genomes.len(),
            "evaluator returned wrong batch size"
        );
        for (slot, f) in out.iter_mut().zip(fitness) {
            assert!(f.is_finite(), "fitness must be finite");
            *slot = f;
        }
        genomes.len() as u64
    }
}

/// The most generations the history reserves room for up front: a run's
/// budget, when it is no larger (every registry row's is).
const HISTORY_RESERVE: u32 = 1 << 12;

#[cfg(test)]
mod tests {
    use super::*;
    use evoalg::benchmarks::{deceptive_trap, sphere, two_peaks};

    fn run_on<F: Fn(&[f64]) -> f64>(
        f: F,
        cfg: NoveltyGaConfig,
        dims: usize,
    ) -> (NoveltyGaOutcome, u64) {
        let mut calls = 0u64;
        let mut eval = |gs: &[Vec<f64>]| -> Vec<f64> {
            calls += gs.len() as u64;
            gs.iter().map(|g| f(g)).collect()
        };
        let out = NoveltyGa::new(dims, cfg).run(&mut eval);
        (out, calls)
    }

    #[test]
    fn returns_nonempty_sorted_best_set() {
        let (out, _) = run_on(sphere, NoveltyGaConfig::default(), 6);
        assert!(!out.best_set.is_empty());
        let f = out.best_set.fitness_values();
        assert!(
            f.windows(2).all(|w| w[0] >= w[1]),
            "bestSet not sorted: {f:?}"
        );
        assert_eq!(out.best_set.max_fitness(), f[0]);
    }

    #[test]
    fn stopping_condition_generation_budget() {
        let cfg = NoveltyGaConfig {
            max_generations: 5,
            fitness_threshold: 2.0, // unreachable
            ..NoveltyGaConfig::default()
        };
        let (out, _) = run_on(sphere, cfg, 4);
        assert_eq!(out.generations, 5);
        assert_eq!(out.stop_reason, StopReason::GenerationBudget);
        assert_eq!(out.history.len(), 5);
    }

    #[test]
    fn stopping_condition_fitness_threshold() {
        let cfg = NoveltyGaConfig {
            max_generations: 500,
            fitness_threshold: 0.2, // easily reached on sphere
            ..NoveltyGaConfig::default()
        };
        let (out, _) = run_on(sphere, cfg, 4);
        assert_eq!(out.stop_reason, StopReason::FitnessThreshold);
        assert!(out.generations < 500);
        assert!(out.best_set.max_fitness() >= 0.2);
    }

    #[test]
    fn evaluation_caching_never_resimulates() {
        // Per generation: exactly m new evaluations after the initial N.
        let cfg = NoveltyGaConfig {
            population_size: 10,
            offspring: 14,
            max_generations: 4,
            fitness_threshold: 2.0,
            ..NoveltyGaConfig::default()
        };
        let (out, calls) = run_on(sphere, cfg, 4);
        assert_eq!(calls, 10 + 4 * 14);
        assert_eq!(out.evaluations, calls);
    }

    #[test]
    fn max_fitness_is_monotone_in_history() {
        let (out, _) = run_on(sphere, NoveltyGaConfig::default(), 6);
        let mf: Vec<f64> = out.history.iter().map(|h| h.max_fitness).collect();
        assert!(
            mf.windows(2).all(|w| w[1] >= w[0]),
            "maxFitness must never decrease: {mf:?}"
        );
    }

    #[test]
    fn archive_and_best_set_bounded() {
        let cfg = NoveltyGaConfig {
            archive_capacity: 16,
            best_set_capacity: 8,
            max_generations: 10,
            fitness_threshold: 2.0,
            ..NoveltyGaConfig::default()
        };
        let (out, _) = run_on(sphere, cfg, 4);
        assert!(out.archive.len() <= 16);
        assert!(out.best_set.len() <= 8);
        for h in &out.history {
            assert!(h.archive_len <= 16 && h.best_set_len <= 8);
        }
    }

    #[test]
    fn population_does_not_converge_genotypically() {
        // The defining NS property: final population diversity stays high
        // relative to a fitness GA's converged population on the same
        // budget.
        let cfg = NoveltyGaConfig {
            max_generations: 25,
            fitness_threshold: 2.0,
            ..NoveltyGaConfig::default()
        };
        let (out, _) = run_on(sphere, cfg, 6);
        let genomes: Vec<Vec<f64>> = out.final_population.into_iter().map(|m| m.genes).collect();
        let ns_div = evoalg::diversity::mean_pairwise_distance(&genomes);

        let mut ga = evoalg::GaEngine::new(
            6,
            evoalg::GaConfig {
                population_size: 32,
                offspring: 32,
                seed: 0,
                ..Default::default()
            },
        );
        let mut eval = |gs: &[Vec<f64>]| -> Vec<f64> { gs.iter().map(|g| sphere(g)).collect() };
        ga.evaluate_initial(&mut eval);
        for _ in 0..25 {
            ga.step(&mut eval);
        }
        let ga_div = evoalg::diversity::mean_pairwise_distance(ga.population());
        assert!(
            ns_div > 2.0 * ga_div,
            "NS population should stay diverse (NS {ns_div} vs GA {ga_div})"
        );
    }

    #[test]
    fn solves_deceptive_trap_better_than_fitness_ga() {
        // E5 in miniature: on the fully deceptive trap the fitness GA rides
        // the gradient into the all-zeros attractor; NS keeps exploring and
        // its bestSet should reach a higher trap score.
        let dims = 8;
        let trap = |g: &[f64]| deceptive_trap(g, 4);
        let budget_gens = 40;

        let cfg = NoveltyGaConfig {
            population_size: 24,
            offspring: 24,
            max_generations: budget_gens,
            fitness_threshold: 0.999,
            seed: 3,
            ..NoveltyGaConfig::default()
        };
        let (ns_out, _) = run_on(trap, cfg, dims);

        let mut ga = evoalg::GaEngine::new(
            dims,
            evoalg::GaConfig {
                population_size: 24,
                offspring: 24,
                seed: 3,
                ..Default::default()
            },
        );
        let mut eval = |gs: &[Vec<f64>]| -> Vec<f64> { gs.iter().map(|g| trap(g)).collect() };
        let mut ga_best = ga.evaluate_initial(&mut eval).best_fitness;
        for _ in 0..budget_gens {
            ga_best = ga_best.max(ga.step(&mut eval).best_fitness);
        }
        assert!(
            ns_out.best_set.max_fitness() >= ga_best,
            "NS ({}) should not lose to the fitness GA ({ga_best}) on a deceptive trap",
            ns_out.best_set.max_fitness()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        // Both behaviour spaces: 1-D fitness scores through the sorted
        // scan, the genotype space through the exhaustive one.
        for behaviour in [BehaviourSpace::Fitness, BehaviourSpace::Genotype] {
            let run = |seed| {
                let cfg = NoveltyGaConfig {
                    seed,
                    max_generations: 6,
                    behaviour,
                    ..NoveltyGaConfig::default()
                };
                let (out, _) = run_on(|g| two_peaks(g, 0.6), cfg, 4);
                (out.best_set.genomes(), out.archive.entries().to_vec())
            };
            assert_eq!(run(5), run(5), "{behaviour:?}");
            assert_ne!(run(5), run(6), "{behaviour:?}");
        }
    }

    #[test]
    fn hybrid_scoring_with_zero_weight_behaves_greedily() {
        // w = 0 reduces the search score to fitness: mean population
        // fitness should then improve like a fitness GA's.
        let mk = |scoring| NoveltyGaConfig {
            scoring,
            max_generations: 15,
            fitness_threshold: 2.0,
            seed: 8,
            ..NoveltyGaConfig::default()
        };
        let (fit_out, _) = run_on(
            sphere,
            mk(ScoringPolicy::Weighted {
                novelty_weight: 0.0,
            }),
            6,
        );
        let (ns_out, _) = run_on(sphere, mk(ScoringPolicy::PureNovelty), 6);
        let fit_mean = fit_out.history.last().unwrap().mean_fitness;
        let ns_mean = ns_out.history.last().unwrap().mean_fitness;
        assert!(
            fit_mean > ns_mean,
            "fitness-scored population ({fit_mean}) should out-converge NS ({ns_mean})"
        );
    }

    #[test]
    fn nslc_policy_runs_and_differs_from_pure_novelty() {
        let mk = |scoring| NoveltyGaConfig {
            scoring,
            max_generations: 12,
            fitness_threshold: 2.0,
            seed: 13,
            ..NoveltyGaConfig::default()
        };
        let (nslc, _) = run_on(
            |g| two_peaks(g, 0.6),
            mk(ScoringPolicy::NoveltyLocalCompetition {
                novelty_weight: 0.5,
            }),
            4,
        );
        let (pure, _) = run_on(|g| two_peaks(g, 0.6), mk(ScoringPolicy::PureNovelty), 4);
        assert!(!nslc.best_set.is_empty());
        assert!(nslc.archive.len() <= NoveltyGaConfig::default().archive_capacity);
        // The local-competition pressure must actually change the search
        // trajectory for the same seed.
        let genes = |m: &Individual| m.genes.clone();
        assert_ne!(
            nslc.final_population.iter().map(genes).collect::<Vec<_>>(),
            pure.final_population.iter().map(genes).collect::<Vec<_>>()
        );
        // Every surviving member carries a computed local-competition score.
        for m in &nslc.final_population {
            assert!(
                m.local_comp.is_finite() && (0.0..=1.0).contains(&m.local_comp),
                "missing/invalid local competition score {}",
                m.local_comp
            );
        }
        // Pure NS must never compute it.
        assert!(pure.final_population.iter().all(|m| m.local_comp.is_nan()));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let _ = NoveltyGa::new(
            4,
            NoveltyGaConfig {
                novelty_neighbours: 0,
                ..NoveltyGaConfig::default()
            },
        );
    }
}
