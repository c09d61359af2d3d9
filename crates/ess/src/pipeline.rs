//! The prediction-step driver shared by every system (the outer loop of
//! Figs. 1 and 3).
//!
//! For each prediction step `i ≥ 1` the pipeline:
//!
//! 1. runs the **Optimization Stage** on the just-observed interval
//!    `[t_{i-1}, t_i]` (pluggable [`StepOptimizer`]);
//! 2. runs the **Statistical Stage** twice over the optimizer's result
//!    set: on the observed interval (for calibration) and on the upcoming
//!    interval `[t_i, t_{i+1}]` (for prediction);
//! 3. runs the **Calibration Stage** (`SKign`) on the observed interval,
//!    producing `Kign_i`;
//! 4. runs the **Prediction Stage** for instant `t_{i+1}` using the
//!    *previous* step's `Kign_{i-1}` ("the new value Kign is used within
//!    the PS of the next prediction step; therefore, the prediction cannot
//!    start at the first time instant", §II-A).
//!
//! The first observed interval (step 1) only calibrates; predictions are
//! emitted from instant `t_2` onwards.
//!
//! Scenario evaluation has one strategy: a [`StepDriver`] holds the
//! [`SharedScenarioPool`] its steps evaluate on, and whoever owns the run
//! built that pool once — [`PredictionPipeline::new`] for a standalone
//! run, the scheduler for a server's sessions, the harness for a plan's
//! trials. [`StepDriver::step_with`] is the one injection point (fused
//! lanes, tracers).

use crate::calibration::{skign_search_against, PredictionStage};
use crate::cases::BurnCase;
use crate::fitness::{EvalBackend, ScenarioEvaluator, SharedScenarioPool, StepContext};
use crate::stages::{decode_result_set, distinct_members, statistical_stage_into};
use evoalg::diversity::{self, DiversityReport};
use std::sync::Arc;

/// What an Optimization Stage hands back to the pipeline.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The scenario set fed to the Statistical Stage — the final population
    /// for the baselines, `bestSet` for ESS-NS.
    pub result_set: Vec<Vec<f64>>,
    /// Best fitness seen during the search.
    pub best_fitness: f64,
    /// Generations executed.
    pub generations: u32,
    /// Scenario evaluations the search asked for, repeats included. The
    /// step's evaluator simulates each distinct genome once, so it ran at
    /// most this many simulations.
    pub evaluations: u64,
}

/// A pluggable Optimization Stage. Implementations own their metaheuristic
/// configuration; the pipeline provides the per-step evaluation context.
/// `Send` so a scheduler can drive concurrent sessions' steps on worker
/// threads (the fused evaluation round).
pub trait StepOptimizer: Send {
    /// System name (report key, e.g. `"ESS-NS"`).
    fn name(&self) -> &'static str;

    /// Runs the search for one prediction step. `seed` varies per step and
    /// per replicate so repeated runs are independent but reproducible.
    fn optimize(&mut self, evaluator: &mut ScenarioEvaluator, seed: u64) -> OptimizeOutcome;
}

/// Per-step record: everything the E-series experiments report.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Step index `i` (the step observed `[t_{i-1}, t_i]`).
    pub step: usize,
    /// Prediction quality (Eq. (3)) of `PFL_{t_{i+1}}` against
    /// `RFL_{t_{i+1}}`, `None` for the first step (no `Kign` yet) and the
    /// final step (nothing left to predict).
    pub quality: Option<f64>,
    /// Calibration outcome of this step.
    pub kign: f64,
    /// Fitness at the calibrated threshold.
    pub calibration_fitness: f64,
    /// Best fitness the optimizer found on the observed interval.
    pub os_best_fitness: f64,
    /// Diversity of the result set handed to the Statistical Stage (E2).
    pub diversity: DiversityReport,
    /// Scenario evaluations spent in this step.
    pub evaluations: u64,
    /// Generations the optimizer ran.
    pub generations: u32,
    /// Wall-clock milliseconds of the whole step, stamped by whoever ran
    /// and timed it (`PredictionSession::complete_step`); `0.0` as the
    /// driver returns it — this crate reads no clock.
    pub wall_ms: f64,
}

/// A full prediction run over a burn case.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// System name.
    pub system: &'static str,
    /// Case name.
    pub case: &'static str,
    /// Per-step records.
    pub steps: Vec<StepReport>,
    /// Total wall-clock milliseconds a session billed the run; `0.0`
    /// from [`PredictionPipeline::run`], which does not time itself.
    pub total_ms: f64,
}

impl RunReport {
    /// Mean prediction quality over the steps that produced predictions.
    pub fn mean_quality(&self) -> f64 {
        let qs: Vec<f64> = self.steps.iter().filter_map(|s| s.quality).collect();
        if qs.is_empty() {
            0.0
        } else {
            qs.iter().sum::<f64>() / qs.len() as f64
        }
    }

    /// Total scenario evaluations across steps.
    pub fn total_evaluations(&self) -> u64 {
        self.steps.iter().map(|s| s.evaluations).sum()
    }

    /// Mean result-set diversity (mean pairwise genotypic distance).
    pub fn mean_diversity(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps
            .iter()
            .map(|s| s.diversity.mean_pairwise)
            .sum::<f64>()
            / self.steps.len() as f64
    }
}

/// Derives the per-step RNG seed (SplitMix64 over the packed indices, so
/// neighbouring steps get uncorrelated streams).
fn step_seed(base_seed: u64, step: usize) -> u64 {
    let mut z = base_seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(step as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The resumable step engine under every run: owns the burn case, the
/// carried `Kign` and the step index, and executes exactly one prediction
/// step per [`StepDriver::step`] call. [`PredictionPipeline::run`] is a
/// loop over this driver; the `service` crate's `PredictionSession` drives
/// the same struct incrementally — one implementation, so the batch and
/// session paths are bit-identical by construction.
pub struct StepDriver {
    case: BurnCase,
    pool: Arc<SharedScenarioPool>,
    base_seed: u64,
    carried_kign: Option<f64>,
    /// Next interval index to observe (the loop variable `i`; starts at 1).
    next: usize,
}

impl StepDriver {
    /// Builds a driver positioned before the first prediction step, its
    /// steps evaluating on `pool`.
    pub fn new(case: BurnCase, pool: Arc<SharedScenarioPool>, base_seed: u64) -> Self {
        Self {
            case,
            pool,
            base_seed,
            carried_kign: None,
            next: 1,
        }
    }

    /// Rebuilds a driver positioned *after* `completed` prediction steps,
    /// carrying `carried_kign` from the last completed step — the
    /// checkpoint/resume hook. Per-step seeds are a pure function of
    /// `base_seed` and the step index ([`step_seed`]) and every optimizer
    /// builds a fresh engine per step, so a restored driver replays the
    /// exact seed stream the uninterrupted run would have used: the
    /// remaining steps are bit-identical by construction.
    ///
    /// # Panics
    /// Panics when `completed` exceeds the case's step count, or when
    /// `carried_kign` presence disagrees with `completed` (steps ≥ 1 have
    /// always calibrated a `Kign`; step 0 never has).
    pub fn restore(
        case: BurnCase,
        pool: Arc<SharedScenarioPool>,
        base_seed: u64,
        completed: usize,
        carried_kign: Option<f64>,
    ) -> Self {
        let total = case.intervals().saturating_sub(1);
        assert!(
            completed <= total,
            "cannot restore {completed} completed steps on a {total}-step case"
        );
        assert_eq!(
            carried_kign.is_some(),
            completed >= 1,
            "carried Kign must be present exactly when steps have completed"
        );
        Self {
            case,
            pool,
            base_seed,
            carried_kign,
            next: completed + 1,
        }
    }

    /// The burn case being predicted.
    pub fn case(&self) -> &BurnCase {
        &self.case
    }

    /// Total prediction steps a full run executes (`intervals − 1`).
    pub fn total_steps(&self) -> usize {
        self.case.intervals().saturating_sub(1)
    }

    /// Steps already executed.
    pub fn completed(&self) -> usize {
        self.next - 1
    }

    /// True once every step has run.
    pub fn is_finished(&self) -> bool {
        self.next >= self.case.intervals()
    }

    /// Executes the next prediction step with `optimizer`, or returns
    /// `None` when the run is complete.
    ///
    /// The last interval's observation exists (we know RFL at every
    /// instant), but predicting *beyond* the final instant would have no
    /// ground truth; so step `i` ranges over intervals `1..n`, and the
    /// prediction for `t_{i+1}` is only scored while `i+1` is still an
    /// observed interval.
    pub fn step(&mut self, optimizer: &mut dyn StepOptimizer) -> Option<StepReport> {
        let pool = Arc::clone(&self.pool);
        self.step_with(optimizer, |ctx| ScenarioEvaluator::shared(ctx, pool))
    }

    /// [`StepDriver::step`] with the evaluator supplied by the caller —
    /// the fused-round entry point, where the scheduler hands each
    /// session an evaluator whose backend parks batches with the round's
    /// fusion coordinator instead of dispatching them itself. Everything
    /// else (seeding, stages, reporting) is the `step` body, so a fused
    /// step is bit-identical to an unfused one whenever the supplied
    /// evaluator scores batches identically. `make_evaluator` is called at
    /// most once (not at all on a finished driver), and the evaluator it
    /// returns is dropped as soon as the Optimization Stage returns.
    pub fn step_with(
        &mut self,
        optimizer: &mut dyn StepOptimizer,
        make_evaluator: impl FnOnce(Arc<StepContext>) -> ScenarioEvaluator,
    ) -> Option<StepReport> {
        if self.is_finished() {
            return None;
        }
        let i = self.next;
        let case = &self.case;
        // --- Optimization Stage on [t_{i-1}, t_i] ------------------------
        let observed_ctx = Arc::new(case.step_context(i));
        let mut evaluator = make_evaluator(Arc::clone(&observed_ctx));
        let outcome = optimizer.optimize(&mut evaluator, step_seed(self.base_seed, i));
        // The search is over: let the evaluator go before the stage tail,
        // so a fused lane leaves its round's waves now (its backend's
        // drop tells the coordinator) instead of holding every peer's
        // next flush until the tail is done.
        drop(evaluator);

        // One arena and one count grid for the whole stage tail, lent by
        // the pool (warm from the search's inline batches or the previous
        // step): both matrices fold the result set's distinct members
        // through the arena, each simulated once and counted with its
        // multiplicity, into the grid — each fold clears the last one's
        // cover, so no step zeroes a raster.
        let members = distinct_members(&case.sim, &decode_result_set(&outcome.result_set));
        let (cal, quality) = self.pool.with_spare(&case.sim, |arena, matrix| {
            // --- Statistical Stage (calibration matrix) ------------------
            statistical_stage_into(&observed_ctx, &members, arena, matrix);

            // --- Calibration Stage: SKign on the observed interval -------
            let cal = skign_search_against(matrix, &observed_ctx.observed());

            // --- Statistical + Prediction Stage for t_{i+1} --------------
            let quality = self.carried_kign.map(|kign| {
                let next_ctx = case.step_context(i + 1);
                statistical_stage_into(&next_ctx, &members, arena, matrix);
                PredictionStage::new(kign).quality_against(matrix, &next_ctx.observed())
            });
            (cal, quality)
        });

        self.carried_kign = Some(cal.kign);
        self.next = i + 1;
        Some(StepReport {
            step: i,
            quality,
            kign: cal.kign,
            calibration_fitness: cal.fitness,
            os_best_fitness: outcome.best_fitness,
            diversity: diversity::report(&outcome.result_set),
            evaluations: outcome.evaluations,
            generations: outcome.generations,
            wall_ms: 0.0,
        })
    }
}

/// The prediction pipeline: drives a [`StepOptimizer`] across every
/// interval of a burn case, every step of every run on one pool.
pub struct PredictionPipeline {
    pool: Arc<SharedScenarioPool>,
    /// Base seed; step `i` of replicate `r` uses `base ⊕ hash(i, r)`.
    base_seed: u64,
}

impl PredictionPipeline {
    /// Builds a standalone pipeline: a pool of its own, built from
    /// `backend` here and kept for every run.
    pub fn new(backend: EvalBackend, base_seed: u64) -> Self {
        Self::on_pool(Arc::new(SharedScenarioPool::new(backend)), base_seed)
    }

    /// Builds a pipeline on a pool someone else owns (the harness runs
    /// every trial of a plan on one).
    pub fn on_pool(pool: Arc<SharedScenarioPool>, base_seed: u64) -> Self {
        Self { pool, base_seed }
    }

    /// Runs the full predictive process of one system over one case — a
    /// drained [`StepDriver`].
    pub fn run(&self, case: &BurnCase, optimizer: &mut dyn StepOptimizer) -> RunReport {
        let mut driver = StepDriver::new(case.clone(), Arc::clone(&self.pool), self.base_seed);
        let mut steps = Vec::with_capacity(driver.total_steps());
        while let Some(step) = driver.step(optimizer) {
            steps.push(step);
        }
        RunReport {
            system: optimizer.name(),
            case: case.name,
            steps,
            total_ms: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::tiny_test_case;
    use firelib::ScenarioSpace;

    fn serial_pool() -> Arc<SharedScenarioPool> {
        Arc::new(SharedScenarioPool::new(EvalBackend::Serial))
    }

    /// An oracle optimizer that returns the hidden truth — the pipeline's
    /// upper bound. Used to validate the stage plumbing end to end.
    struct Oracle {
        truth_genes: Vec<f64>,
    }

    impl StepOptimizer for Oracle {
        fn name(&self) -> &'static str {
            "oracle"
        }

        fn optimize(&mut self, evaluator: &mut ScenarioEvaluator, _seed: u64) -> OptimizeOutcome {
            let fit = evaluator
                .context()
                .fitness_of(&ScenarioSpace.decode(&self.truth_genes));
            OptimizeOutcome {
                result_set: vec![self.truth_genes.clone()],
                best_fitness: fit,
                generations: 0,
                evaluations: 1,
            }
        }
    }

    /// A random-search optimizer: the floor every real method must beat.
    struct RandomSearch {
        budget: usize,
    }

    impl StepOptimizer for RandomSearch {
        fn name(&self) -> &'static str {
            "random"
        }

        fn optimize(&mut self, evaluator: &mut ScenarioEvaluator, seed: u64) -> OptimizeOutcome {
            use evoalg::BatchEvaluator;
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let genomes: Vec<Vec<f64>> = (0..self.budget)
                .map(|_| ScenarioSpace.sample_genes(&mut rng).to_vec())
                .collect();
            let fitness = evaluator.evaluate(&genomes);
            let mut scored: Vec<(f64, Vec<f64>)> = fitness.into_iter().zip(genomes).collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            let best_fitness = scored[0].0;
            OptimizeOutcome {
                result_set: scored.into_iter().take(8).map(|(_, g)| g).collect(),
                best_fitness,
                generations: 1,
                evaluations: self.budget as u64,
            }
        }
    }

    #[test]
    fn oracle_achieves_high_quality_on_static_case() {
        let case = tiny_test_case();
        // Static truth: every interval shares the same scenario.
        let genes = ScenarioSpace.encode(&case.truth[0]).to_vec();
        let mut oracle = Oracle { truth_genes: genes };
        let report = PredictionPipeline::new(EvalBackend::Serial, 1).run(&case, &mut oracle);
        // Steps: intervals 1..n-1; first one has no quality.
        assert_eq!(report.steps.len(), case.intervals() - 1);
        assert!(report.steps[0].quality.is_none());
        for s in &report.steps[1..] {
            let q = s.quality.expect("prediction expected after first step");
            assert!(
                q > 0.99,
                "oracle prediction should be near-perfect, got {q}"
            );
        }
        assert!((report.steps[0].os_best_fitness - 1.0).abs() < 1e-9);
        assert!((report.steps[0].calibration_fitness - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_search_beats_nothing_but_runs() {
        let case = tiny_test_case();
        let mut rs = RandomSearch { budget: 30 };
        let report = PredictionPipeline::new(EvalBackend::Serial, 2).run(&case, &mut rs);
        assert_eq!(report.system, "random");
        assert!(report.total_evaluations() >= 60);
        for s in &report.steps {
            assert!((0.0..=1.0).contains(&s.kign));
            assert!(s.os_best_fitness >= 0.0);
        }
    }

    #[test]
    fn oracle_beats_random_on_mean_quality() {
        let case = tiny_test_case();
        let genes = ScenarioSpace.encode(&case.truth[0]).to_vec();
        let oracle_q = PredictionPipeline::new(EvalBackend::Serial, 3)
            .run(&case, &mut Oracle { truth_genes: genes })
            .mean_quality();
        let random_q = PredictionPipeline::new(EvalBackend::Serial, 3)
            .run(&case, &mut RandomSearch { budget: 10 })
            .mean_quality();
        assert!(
            oracle_q >= random_q,
            "oracle ({oracle_q}) must dominate random search ({random_q})"
        );
    }

    #[test]
    fn pipeline_is_deterministic_given_seed() {
        let case = tiny_test_case();
        // Whole records, `wall_ms` included: the driver reads no clock, so
        // nothing in a step report differs between two runs of one seed.
        let run = |seed| {
            let mut rs = RandomSearch { budget: 20 };
            PredictionPipeline::new(EvalBackend::Serial, seed)
                .run(&case, &mut rs)
                .steps
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn driver_steps_match_batch_run_bit_for_bit() {
        let case = tiny_test_case();
        let batch = PredictionPipeline::new(EvalBackend::Serial, 5)
            .run(&case, &mut RandomSearch { budget: 15 });

        let mut driver = StepDriver::new(case.clone(), serial_pool(), 5);
        assert_eq!(driver.total_steps(), case.intervals() - 1);
        assert!(!driver.is_finished());
        let mut opt = RandomSearch { budget: 15 };
        let mut steps = Vec::new();
        while let Some(s) = driver.step(&mut opt) {
            assert_eq!(driver.completed(), steps.len() + 1);
            steps.push(s);
        }
        assert!(driver.is_finished());
        assert!(driver.step(&mut opt).is_none(), "finished driver must idle");

        assert_eq!(steps, batch.steps);
    }

    #[test]
    fn restored_driver_replays_the_remaining_steps_bit_for_bit() {
        let case = tiny_test_case();
        let pool = serial_pool();
        let full = |seed| {
            let mut driver = StepDriver::new(case.clone(), Arc::clone(&pool), seed);
            let mut opt = RandomSearch { budget: 15 };
            let mut out = Vec::new();
            while let Some(s) = driver.step(&mut opt) {
                out.push((s.quality, s.kign, s.os_best_fitness, s.evaluations));
            }
            out
        };
        let reference = full(11);
        for checkpoint in 0..reference.len() {
            let mut driver = StepDriver::new(case.clone(), Arc::clone(&pool), 11);
            let mut opt = RandomSearch { budget: 15 };
            for _ in 0..checkpoint {
                driver.step(&mut opt).expect("prefix step");
            }
            // Restore a *fresh* driver (and a fresh optimizer) from the
            // checkpoint coordinates alone.
            let mut resumed = StepDriver::restore(
                case.clone(),
                Arc::clone(&pool),
                11,
                driver.completed(),
                driver.carried_kign,
            );
            assert_eq!(resumed.completed(), checkpoint);
            let mut opt = RandomSearch { budget: 15 };
            let mut tail = Vec::new();
            while let Some(s) = resumed.step(&mut opt) {
                tail.push((s.quality, s.kign, s.os_best_fitness, s.evaluations));
            }
            assert_eq!(
                tail,
                reference[checkpoint..],
                "resume at step {checkpoint} diverged"
            );
        }
    }

    /// A search that scores nothing and hands back a fixed result set.
    struct Fixed(Vec<Vec<f64>>);

    impl StepOptimizer for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn optimize(&mut self, _: &mut ScenarioEvaluator, _: u64) -> OptimizeOutcome {
            OptimizeOutcome {
                result_set: self.0.clone(),
                best_fitness: 0.0,
                generations: 0,
                evaluations: 0,
            }
        }
    }

    #[test]
    fn the_stage_tail_simulates_each_distinct_member_once_per_matrix() {
        use landscape::ProbabilityMap;
        let case = tiny_test_case();
        let genes = |wind: f64| {
            let s = firelib::Scenario {
                wind_speed_mph: wind,
                ..case.truth[0]
            };
            ScenarioSpace.encode(&s).to_vec()
        };
        let (a, b, c) = (genes(2.0), genes(6.0), genes(12.0));
        let set = vec![a.clone(), b.clone(), a.clone(), c, a, b];
        let pool = serial_pool();
        let mut driver = StepDriver::new(case.clone(), Arc::clone(&pool), 3);
        // The tail runs on the pool's spare arena (`Fixed` scores nothing).
        let runs = || pool.with_spare(&case.sim, |arena, _| arena.work()).runs;
        // Step 1 folds one matrix; step 2 has a carried Kign, so two.
        for (step, matrices) in [(1, 1), (2, 2)] {
            let before = runs();
            let report = driver.step(&mut Fixed(set.clone())).expect("a step");
            assert_eq!(runs() - before, 3 * matrices, "step {step}");
            // The per-member matrix: every member simulated and folded.
            let ctx = case.step_context(step);
            let mut per_member =
                ProbabilityMap::new(ctx.target_line().rows(), ctx.target_line().cols());
            for g in &set {
                per_member.accumulate(&ctx.simulate_line(&ScenarioSpace.decode(g)));
            }
            let cal = skign_search_against(&per_member, &ctx.observed());
            assert_eq!(report.kign.to_bits(), cal.kign.to_bits(), "step {step}");
            assert_eq!(report.calibration_fitness.to_bits(), cal.fitness.to_bits());
        }
    }

    #[test]
    fn the_stage_tail_runs_on_the_pools_spare_arena() {
        let case = tiny_test_case();
        let genes = |wind: f64| {
            let s = firelib::Scenario {
                wind_speed_mph: wind,
                ..case.truth[0]
            };
            ScenarioSpace.encode(&s).to_vec()
        };
        let (a, b) = (genes(3.0), genes(9.0));
        let pool = serial_pool();
        let mut driver = StepDriver::new(case.clone(), Arc::clone(&pool), 3);
        // Step 1 folds the calibration matrix only; `Fixed` scores
        // nothing, so the tail is the spare's one user.
        driver
            .step(&mut Fixed(vec![a.clone(), b.clone(), a.clone()]))
            .expect("a step");
        let ctx = case.step_context(1);
        let (last, matrix) = pool.with_spare(&case.sim, |arena, matrix| {
            (arena.map().fire_line_at(ctx.t1()), matrix.clone())
        });
        assert_eq!(last, ctx.simulate_line(&ScenarioSpace.decode(&b)));
        // The calibration matrix was folded into the pool's map.
        let set = [a, b].map(|g| ScenarioSpace.decode(&g));
        let set = [set[0], set[1], set[0]];
        assert_eq!(matrix, crate::stages::statistical_stage(&ctx, &set));
        assert_eq!(matrix.samples(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot restore")]
    fn restore_rejects_too_many_completed_steps() {
        let case = tiny_test_case();
        let total = case.intervals() - 1;
        let _ = StepDriver::restore(case.clone(), serial_pool(), 1, total + 1, Some(0.5));
    }

    #[test]
    fn step_seeds_differ_per_step() {
        let seeds: Vec<u64> = (0..10).map(|i| step_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }
}
