//! The step-wise engine core shared by the fitness-driven metaheuristics.
//!
//! [`Engine`] owns what every such engine does the same way — the seeded
//! random initial population, its evaluation, the generation and
//! evaluation counters, the fitness order, the population-restart
//! operator and the per-generation statistics — and exposes one
//! generation per [`Engine::step`] call so the framework layer can
//! interleave migration (islands), tuning actions and statistics
//! collection between generations. A step is [`Engine::propose`] →
//! evaluate → [`Engine::accept`]; callers that hold several engines (the
//! island model) call the two halves themselves and score every engine's
//! candidates in one batch. How a generation varies and selects is the
//! [`Scheme`]: [`crate::GaConfig`] (the GA of ESS and ESSIM-EA) and
//! [`crate::DeConfig`] (`rand/1/bin`, ESSIM-DE) are the two in the tree.
//!
//! An engine keeps its [`Rows`] for the whole run, laid out as Algorithm 1
//! keeps its own: the population, then one generation's candidates, gene
//! vectors beside one fitness column. A scheme breeds into the candidate
//! rows — they are the batch the evaluator scores, uncopied — and selects
//! among the rows in place, so a warm generation allocates nothing.

use crate::individual::random_rows;
use crate::operators::copy_genes;
use crate::selection::ElitistRanking;
use crate::BatchEvaluator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How one generation varies and selects — the only thing the GA and DE
/// engines do differently. Implemented by the engines' parameter structs.
pub trait Scheme {
    /// Population size, candidates bred per generation and RNG seed of an
    /// engine over `dims`-gene genomes.
    ///
    /// # Panics
    /// Panics on parameters the scheme cannot run with.
    fn start(&self, dims: usize) -> (usize, usize, u64);

    /// Breeds one generation into the candidate rows of `rows` from its
    /// evaluated population, drawing only from `rng`.
    fn breed(&self, rows: &mut Rows, rng: &mut StdRng);

    /// Selects the next population among `rows`, its candidates scored.
    fn absorb(&self, rows: &mut Rows);
}

/// An engine's rows, kept for the whole run: the population (rows
/// `0..population`), then the candidates, gene vectors beside one fitness
/// column (NaN until scored), and the buffers a generation breeds and
/// ranks in.
#[derive(Debug)]
pub struct Rows {
    pub(crate) genes: Vec<Vec<f64>>,
    pub(crate) fitness: Vec<f64>,
    pub(crate) population: usize,
    /// The child an odd GA offspring count breeds and drops.
    pub(crate) spare_child: Vec<f64>,
    ranking: ElitistRanking,
    spare_genes: Vec<Vec<f64>>,
    spare_fitness: Vec<f64>,
}

impl Rows {
    /// Puts the first `rows` rows in fitness order: best first, equal
    /// fitness by row, non-finite (unscored) rows last — a stable sort by
    /// descending fitness with NaN read as −∞. The GA's replacement over
    /// every row, and the restart, migration and elite pick over the
    /// population.
    pub(crate) fn sort_by_fitness(&mut self, rows: usize) {
        let fitness = self.fitness[..rows].iter();
        self.ranking
            .rank(fitness.map(|&f| if f.is_finite() { f } else { f64::NEG_INFINITY }));
        self.ranking.permute(&mut self.genes, &mut self.spare_genes);
        self.ranking
            .permute(&mut self.fitness, &mut self.spare_fitness);
    }
}

/// Per-generation statistics (feeds the tuning metrics and the E-series
/// reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenStats {
    /// Generation index (0 = the initial population).
    pub generation: u32,
    /// Best fitness in the current population.
    pub best_fitness: f64,
    /// Mean fitness.
    pub mean_fitness: f64,
    /// Interquartile range of fitness — the ESSIM-DE tuning signal.
    pub fitness_iqr: f64,
    /// Cumulative number of fitness evaluations.
    pub evaluations: u64,
}

/// A step-wise engine running the scheme `S`.
#[derive(Debug)]
pub struct Engine<S> {
    scheme: S,
    rows: Rows,
    rng: StdRng,
    generation: u32,
    evaluations: u64,
    /// The scored fitness the statistics sort for the IQR.
    sorted: Vec<f64>,
}

impl<S: Scheme> Engine<S> {
    /// Creates an engine with a random initial population; call
    /// [`Engine::evaluate_initial`] before the first [`Engine::step`].
    ///
    /// # Panics
    /// Panics on parameters the scheme rejects.
    pub fn new(dims: usize, scheme: S) -> Self {
        let (population, candidates, seed) = scheme.start(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = population + candidates;
        Self {
            scheme,
            rows: Rows {
                genes: random_rows(population, candidates, dims, &mut rng),
                fitness: vec![f64::NAN; rows],
                population,
                spare_child: Vec::with_capacity(dims),
                ranking: ElitistRanking::default(),
                spare_genes: Vec::with_capacity(rows),
                spare_fitness: Vec::with_capacity(rows),
            },
            rng,
            generation: 0,
            evaluations: 0,
            sorted: Vec::with_capacity(population),
        }
    }

    /// Evaluates the current population: once before stepping, and again
    /// after a restart or a migration introduced unevaluated members.
    pub fn evaluate_initial<E: BatchEvaluator>(&mut self, evaluator: &mut E) -> GenStats {
        let fitness = evaluator.evaluate(self.population());
        self.score_population(&fitness)
    }

    /// Writes `fitness[i]` into member `i` of the whole population — the
    /// second half of [`Engine::evaluate_initial`], for a caller that
    /// scored several engines' populations in one batch.
    ///
    /// # Panics
    /// Panics on a length mismatch or a non-finite fitness.
    pub fn score_population(&mut self, fitness: &[f64]) -> GenStats {
        self.score(0..self.rows.population, fitness);
        self.stats()
    }

    /// Runs one generation of the scheme: [`Engine::propose`], one
    /// evaluation of the candidates, [`Engine::accept`].
    pub fn step<E: BatchEvaluator>(&mut self, evaluator: &mut E) -> GenStats {
        self.propose();
        let fitness = evaluator.evaluate(self.candidates());
        self.accept(&fitness)
    }

    /// The first half of a generation: breeds the candidate rows on this
    /// engine's own stream. Score [`Engine::candidates`] and hand the
    /// fitness to [`Engine::accept`] before proposing again.
    ///
    /// # Panics
    /// Panics when the population holds unevaluated members.
    pub fn propose(&mut self) {
        assert!(
            self.fitness().iter().all(|f| f.is_finite()),
            "call evaluate_initial before step"
        );
        self.scheme.breed(&mut self.rows, &mut self.rng);
    }

    /// The second half of a generation: selects with the last
    /// [`Engine::propose`]'s candidates, `fitness[i]` scoring candidate
    /// `i`, and closes the generation.
    ///
    /// # Panics
    /// Panics when `fitness` and the candidates differ in length, or on a
    /// non-finite fitness.
    pub fn accept(&mut self, fitness: &[f64]) -> GenStats {
        self.score(self.rows.population..self.rows.genes.len(), fitness);
        self.scheme.absorb(&mut self.rows);
        self.generation += 1;
        self.stats()
    }

    /// Writes `fitness` into the rows `range` and counts it.
    fn score(&mut self, range: std::ops::Range<usize>, fitness: &[f64]) {
        let column = &mut self.rows.fitness[range];
        assert_eq!(column.len(), fitness.len(), "fitness batch length mismatch");
        for (slot, &f) in column.iter_mut().zip(fitness) {
            // A NaN score would silently poison every later comparison.
            assert!(f.is_finite(), "fitness must be finite, got {f}");
            *slot = f;
        }
        self.evaluations += fitness.len() as u64;
    }

    /// Reinitialises the `frac` worst members uniformly at random — the
    /// ESSIM-DE population restart operator (\[21\]). Restarted members are
    /// unevaluated; call [`Engine::evaluate_initial`] before stepping.
    pub fn restart_worst(&mut self, frac: f64) {
        assert!(
            (0.0..=1.0).contains(&frac),
            "restart fraction is a probability"
        );
        let len = self.rows.population;
        let n = ((len as f64) * frac).round() as usize;
        if n == 0 {
            return;
        }
        self.sort_by_fitness();
        let worst = len - n..len;
        let genes = self.rows.genes[worst.clone()].iter_mut();
        for (genes, fitness) in genes.zip(&mut self.rows.fitness[worst]) {
            for g in genes.iter_mut() {
                *g = self.rng.random::<f64>();
            }
            *fitness = f64::NAN;
        }
    }

    /// Puts the population in fitness order (best first, equal fitness by
    /// row, unevaluated members last).
    pub fn sort_by_fitness(&mut self) {
        self.rows.sort_by_fitness(self.rows.population);
    }

    /// The population's genomes.
    pub fn population(&self) -> &[Vec<f64>] {
        &self.rows.genes[..self.rows.population]
    }

    /// The population's genomes, for a caller that moves them into a
    /// shared batch; each must be moved back before the engine reads it.
    pub fn population_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.rows.genes[..self.rows.population]
    }

    /// The population's fitness, member by member (NaN: unevaluated).
    pub fn fitness(&self) -> &[f64] {
        &self.rows.fitness[..self.rows.population]
    }

    /// The candidate rows: between [`Engine::propose`] and
    /// [`Engine::accept`], the candidates it bred.
    pub fn candidates(&self) -> &[Vec<f64>] {
        &self.rows.genes[self.rows.population..]
    }

    /// The candidates, for a caller that moves them into a shared batch;
    /// each must be moved back before [`Engine::accept`].
    pub fn candidates_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.rows.genes[self.rows.population..]
    }

    /// Overwrites member `i` with `genes`, scored `fitness` (a migrant).
    pub fn set_member(&mut self, i: usize, genes: &[f64], fitness: f64) {
        copy_genes(&mut self.population_mut()[i], genes);
        self.rows.fitness[..self.rows.population][i] = fitness;
    }

    /// The population's genomes, moved out.
    pub fn into_population(self) -> Vec<Vec<f64>> {
        let mut genes = self.rows.genes;
        genes.truncate(self.rows.population);
        genes
    }

    /// Generation counter.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Total evaluations so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Statistics of the current population's evaluated members.
    pub fn stats(&mut self) -> GenStats {
        let n = self.rows.population;
        self.sorted.clear();
        let scored = self.rows.fitness[..n].iter().filter(|f| f.is_finite());
        self.sorted.extend(scored);
        let f = &mut self.sorted;
        let mean = if f.is_empty() {
            0.0
        } else {
            f.iter().sum::<f64>() / f.len() as f64
        };
        GenStats {
            generation: self.generation,
            best_fitness: f.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean_fitness: mean,
            fitness_iqr: iqr(f),
            evaluations: self.evaluations,
        }
    }
}

/// Interquartile range (Q3 − Q1) of `values`, each quartile interpolated
/// linearly between the two closest ranks; 0 for fewer than two values.
/// Sorts `values` in place. The spread of a population's fitness
/// (ESSIM-DE's tuning signal, \[22\]: a collapsing IQR signals premature
/// convergence) and of a result set's (E2).
pub fn iqr(values: &mut [f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let q = |frac: f64| -> f64 {
        let pos = frac * (values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let w = pos - lo as f64;
        values[lo] * (1.0 - w) + values[hi] * w
    };
    q(0.75) - q(0.25)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::sphere_eval;
    use crate::{DeConfig, GaConfig};

    fn ga(population_size: usize, seed: u64) -> GaConfig {
        GaConfig {
            population_size,
            offspring: 2 * population_size,
            seed,
            ..GaConfig::default()
        }
    }

    fn de(population_size: usize, seed: u64) -> DeConfig {
        DeConfig {
            population_size,
            seed,
            ..DeConfig::default()
        }
    }

    /// The engine-core behaviours, checked for one scheme; `per_step` is
    /// the evaluations a generation of `make(12, _)` spends.
    fn core_contract<S: Scheme>(make: fn(usize, u64) -> S, per_step: u64) {
        let mut eval = sphere_eval();

        // Deterministic given the seed, and the seed matters.
        let mut run = |seed: u64| {
            let mut engine = Engine::new(5, make(12, seed));
            engine.evaluate_initial(&mut eval);
            for _ in 0..10 {
                engine.step(&mut eval);
            }
            engine.into_population()
        };
        assert_eq!(run(33), run(33));
        assert_ne!(run(33), run(34));

        // The counters follow the batches the engine submitted.
        let mut engine = Engine::new(4, make(12, 1));
        let s = engine.evaluate_initial(&mut eval);
        assert_eq!((s.generation, s.evaluations), (0, 12));
        assert!(s.best_fitness >= s.mean_fitness && s.fitness_iqr >= 0.0);
        engine.step(&mut eval);
        let s = engine.step(&mut eval);
        assert_eq!((s.generation, s.evaluations), (2, 12 + 2 * per_step));
        assert_eq!(engine.evaluations(), s.evaluations);

        // A restart marks round(12 × 0.3) = 4 tail members unevaluated and
        // draws them afresh; re-evaluated, the engine steps on.
        engine.restart_worst(0.3);
        let fitness = engine.fitness();
        assert!(fitness[..8].iter().all(|f| f.is_finite()));
        assert!(fitness[8..].iter().all(|f| f.is_nan()));
        engine.evaluate_initial(&mut eval);
        assert_eq!(engine.evaluations(), s.evaluations + 12);
        engine.step(&mut eval);
    }

    #[test]
    fn core_contract_holds_for_both_schemes() {
        core_contract(ga, 24);
        core_contract(de, 12);
    }

    /// Two engines scored in one shared batch per generation end where
    /// two engines stepped one at a time do: each breeds on its own
    /// stream and the fitness is a pure function of the genome.
    fn halves_in_one_batch_match_step<S: Scheme>(make: fn(usize, u64) -> S) {
        let mut eval = sphere_eval();
        let mut stepped = [Engine::new(5, make(8, 1)), Engine::new(5, make(8, 2))];
        let mut batched = [Engine::new(5, make(8, 1)), Engine::new(5, make(8, 2))];
        for e in &mut stepped {
            e.evaluate_initial(&mut eval);
        }
        let rows = [batched[0].population(), batched[1].population()].concat();
        let fitness = eval(&rows);
        batched[0].score_population(&fitness[..8]);
        batched[1].score_population(&fitness[8..]);
        for _ in 0..6 {
            for e in &mut stepped {
                e.step(&mut eval);
            }
            batched[0].propose();
            batched[1].propose();
            let split = batched[0].candidates().len();
            let fitness = eval(&[batched[0].candidates(), batched[1].candidates()].concat());
            batched[0].accept(&fitness[..split]);
            batched[1].accept(&fitness[split..]);
        }
        for (s, b) in stepped.iter_mut().zip(&mut batched) {
            assert_eq!(s.population(), b.population());
            assert_eq!(s.stats(), b.stats());
        }
    }

    #[test]
    fn propose_and_accept_in_one_batch_match_step_for_both_schemes() {
        halves_in_one_batch_match_step(ga);
        halves_in_one_batch_match_step(de);
    }

    #[test]
    #[should_panic(expected = "evaluate_initial")]
    fn stepping_before_evaluation_panics() {
        Engine::new(4, GaConfig::default()).step(&mut sphere_eval());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn a_nan_fitness_is_rejected() {
        let mut engine = Engine::new(4, ga(2, 1));
        engine.score_population(&[0.5, 0.5]);
        engine.propose();
        engine.accept(&[0.1, f64::NAN, 0.2, 0.3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn a_batch_of_the_wrong_length_is_rejected() {
        Engine::new(4, de(4, 1)).score_population(&[0.1, 0.2]);
    }

    #[test]
    fn iqr_interpolates_linearly_between_ranks() {
        // Q1 at position 0.75 → 1.75, Q3 at 2.25 → 3.25.
        assert!((iqr(&mut [4.0, 1.0, 3.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr(&mut [1.0]), 0.0);
        assert_eq!(iqr(&mut []), 0.0);
    }
}
