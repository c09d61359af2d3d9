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
//!   superset that matches the stated contract. `BestSet` dedupes, so the
//!   parents change no result. They are not free: an offer at or below a
//!   full set's fitness bound costs one comparison, and one above it
//!   compares its genes with every entry.
//!
//! The master's bookkeeping between batches costs what it decides, not
//! what its containers hold: the roulette wheel of line 7 is built once a
//! generation, an archive offer the archive turns away is one comparison
//! against its cached minimum (line 15), and line 16 moves its survivors
//! instead of cloning them.
//!
//! Lines 11–14 run as one *batched* pass: the noveltySet is assembled in
//! a generation-reused flat [`evoalg::BehaviourMatrix`] (each individual
//! described exactly once; the archive contributes its incrementally
//! maintained matrix via one bulk copy), and ρ(x) for every subject is
//! computed by [`evoalg::NoveltyEngine`] — indexed kNN in the master,
//! always bit-identical to the brute-force reference `novelty_score`.

use crate::hybrid::{BehaviourSpace, ScoringPolicy};
use evoalg::ga::{generate_offspring, replace_by_score};
use evoalg::individual::{Individual, Population};
use evoalg::{
    BatchEvaluator, BehaviourMatrix, BestSet, NoveltyArchive, NoveltyEngine, PreparedIndex,
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
    /// The final (non-converged) population.
    pub final_population: Population,
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
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Line 1: initializePopulation(N).
        let mut population = Population::random(cfg.population_size, self.dims, &mut rng);
        // Lines 2–5.
        let mut archive = NoveltyArchive::new(cfg.archive_capacity);
        let mut best_set = BestSet::new(cfg.best_set_capacity);
        let mut generations = 0u32;
        let mut max_fitness = 0.0f64;
        let mut evaluations = 0u64;
        let mut history = Vec::new();
        let mut stop_reason = StopReason::GenerationBudget;
        // The noveltySet buffer, reused across generations: one flat block
        // holding population ∪ offspring ∪ archive descriptors.
        let mut novelty_set = BehaviourMatrix::with_dim(cfg.behaviour.dim(self.dims));

        // The search score of a scored individual (a member the NSLC pass
        // did not reach competes with lc = 0).
        let score = |ind: &Individual| {
            let lc = if ind.local_comp.is_finite() {
                ind.local_comp
            } else {
                0.0
            };
            cfg.scoring.score_with_lc(ind.fitness, ind.novelty, lc)
        };

        // Line 6: the two stopping conditions.
        while generations < cfg.max_generations {
            if max_fitness >= cfg.fitness_threshold {
                stop_reason = StopReason::FitnessThreshold;
                break;
            }

            // Line 7: generateOffspring(population, m, mR, cR) — roulette on
            // the previous generation's search score. In the first
            // generation no novelty exists yet, so selection is uniform
            // (roulette over all-zero scores).
            let scores: Vec<f64> = population
                .members()
                .iter()
                .map(|m| {
                    if m.novelty.is_finite() && m.fitness.is_finite() {
                        score(m)
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut offspring = generate_offspring(
                &population,
                &scores,
                cfg.offspring,
                cfg.mutation_rate,
                cfg.crossover_rate,
                &mut rng,
            );

            // Lines 8–10: evaluate fitness of (population ∪ offspring).
            // Population members keep their cached deterministic fitness.
            evaluations += Self::evaluate_missing(&mut population, evaluator);
            evaluations += Self::evaluate_missing(&mut offspring, evaluator);

            // Line 11: noveltySet ← population ∪ offspring ∪ archive,
            // rebuilt in the reused flat buffer. Each individual is
            // described exactly once per generation — the archive offers
            // below reuse these rows — and the archive's descriptors
            // arrive with one bulk copy of its incrementally maintained
            // matrix (no per-entry clone).
            novelty_set.clear();
            novelty_set.reserve_rows(population.len() + offspring.len() + archive.len());
            for ind in population.members().iter().chain(offspring.members()) {
                cfg.behaviour
                    .describe_into(&ind.genes, ind.fitness, &mut novelty_set);
            }
            novelty_set.extend_from(archive.behaviour_matrix());

            // Lines 12–14: ρ(x) of each ind ∈ population ∪ offspring, as
            // one batch (indexed kNN, bit-identical to brute force). The
            // index is prepared once and shared with the NSLC batch.
            let subjects = population.len() + offspring.len();
            let prepared = PreparedIndex::new(&novelty_set);
            let scores =
                NoveltyEngine.novelty_scores_prepared(&prepared, subjects, cfg.novelty_neighbours);
            // Scores arrive in subject order: population, then offspring.
            let members = (population.members_mut().iter_mut()).chain(offspring.members_mut());
            for (member, rho) in members.zip(scores) {
                // The sentinel for an empty reference cannot occur here
                // (the reference always holds ≥ N+m−1 ≥ 3 entries), but
                // clamp defensively for custom behaviour spaces.
                member.novelty = if rho.is_finite() { rho } else { 1.0 };
            }

            // NSLC extension: when the scoring policy competes locally,
            // compute each subject's local-competition term over the same
            // noveltySet (archived entries compete with their recorded
            // fitness).
            if cfg.scoring.uses_local_competition() {
                let mut all_fitness: Vec<f64> = population
                    .members()
                    .iter()
                    .chain(offspring.members())
                    .map(|m| m.fitness)
                    .collect();
                all_fitness.extend(archive.entries().iter().map(|e| e.fitness));
                let lcs = NoveltyEngine.local_competition_scores_prepared(
                    &prepared,
                    &all_fitness,
                    subjects,
                    cfg.novelty_neighbours,
                );
                let members = (population.members_mut().iter_mut()).chain(offspring.members_mut());
                for (member, lc) in members.zip(lcs) {
                    member.local_comp = lc;
                }
            }

            // Line 15: updateArchive(archive, offspring) — offspring enter
            // by novelty; replacement inside the archive is novelty-only.
            // Descriptors are the rows already built for the noveltySet.
            for (j, ind) in offspring.members().iter().enumerate() {
                archive.offer(
                    &ind.genes,
                    novelty_set.row(population.len() + j),
                    ind.novelty,
                    ind.fitness,
                );
            }

            // Line 17: updateBest — all evaluated individuals this
            // generation, offspring first, then parents (see the module
            // docs for why this supersets the pseudocode's `offspring`).
            // It reads no score line 16 writes, so it runs first: line 16
            // consumes both populations.
            for ind in offspring.members().iter().chain(population.members()) {
                if ind.is_evaluated() {
                    best_set.offer(&ind.genes, ind.fitness);
                }
            }

            // Line 16: replaceByNovelty(population, offspring, N) — elitist
            // over the union by the search score (novelty for the
            // baseline; the hybrid/NSLC policies for E7).
            population = replace_by_score(population, offspring, score, cfg.population_size);

            // Lines 18–19.
            max_fitness = best_set.max_fitness();
            generations += 1;

            let novelties: Vec<f64> = population.members().iter().map(|m| m.novelty).collect();
            let fitnesses: Vec<f64> = population.members().iter().map(|m| m.fitness).collect();
            history.push(NsGenStats {
                generation: generations,
                max_fitness,
                mean_novelty: mean(&novelties),
                mean_fitness: mean(&fitnesses),
                archive_len: archive.len(),
                best_set_len: best_set.len(),
                evaluations,
            });
        }
        NoveltyGaOutcome {
            best_set,
            archive,
            final_population: population,
            generations,
            evaluations,
            stop_reason,
            history,
        }
    }

    /// Evaluates exactly the members without a cached fitness; returns how
    /// many evaluations were spent.
    #[expect(
        clippy::disallowed_macros,
        reason = "`BatchEvaluator::evaluate` returns one value per genome, in order (`Backend::map` is an ordered map, and `parworker` asserts the length itself), and a scenario's fitness is a Jaccard index, a ratio of cell counts in [0, 1] with the empty union defined as 1"
    )]
    fn evaluate_missing<E: BatchEvaluator>(pop: &mut Population, evaluator: &mut E) -> u64 {
        let genomes: Vec<Vec<f64>> = (pop.members().iter())
            .filter(|m| !m.is_evaluated())
            .map(|m| m.genes.clone())
            .collect();
        if genomes.is_empty() {
            return 0;
        }
        let fitness = evaluator.evaluate(&genomes);
        assert_eq!(
            fitness.len(),
            genomes.len(),
            "evaluator returned wrong batch size"
        );
        let missing = (pop.members_mut().iter_mut()).filter(|m| !m.is_evaluated());
        for (member, f) in missing.zip(&fitness) {
            assert!(f.is_finite(), "fitness must be finite");
            member.fitness = *f;
        }
        genomes.len() as u64
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

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
        let ns_div = evoalg::diversity::mean_pairwise_distance(&out.final_population.genomes());

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
        let ga_div = evoalg::diversity::mean_pairwise_distance(&ga.population().genomes());
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
        assert_ne!(
            nslc.final_population.genomes(),
            pure.final_population.genomes()
        );
        // Every surviving member carries a computed local-competition score.
        for m in nslc.final_population.members() {
            assert!(
                m.local_comp.is_finite() && (0.0..=1.0).contains(&m.local_comp),
                "missing/invalid local competition score {}",
                m.local_comp
            );
        }
        // Pure NS must never compute it.
        assert!(pure
            .final_population
            .members()
            .iter()
            .all(|m| m.local_comp.is_nan()));
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
