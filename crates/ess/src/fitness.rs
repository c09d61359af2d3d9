//! The per-step evaluation context and the scenario evaluator.
//!
//! At prediction step `i` the Optimization Stage scores a scenario by
//! simulating fire growth from the last known real fire line `RFL_{i-1}`
//! over the step interval and comparing the simulated map against `RFL_i`
//! with the Jaccard fitness of Eq. (3), excluding the cells already burned
//! at the start ("previously burned cells are not considered", §III-B).
//! This is the `PEA F` block of Figs. 1 and 3 — the work the Workers do.
//!
//! There is one way to evaluate: a [`SharedScenarioPool`], built once by
//! whoever owns the process (pipeline, scheduler, `serve`, harness) and
//! kept up for every step of every run on it. `score` is the only work
//! function and [`SharedScenarioPool::new`] the only place under this
//! crate that builds an [`EvalBackend`]; a [`ScenarioEvaluator`] is one
//! step's view of a pool (or of an injected backend — fused lanes,
//! tracers).
//!
//! Fitness is a pure function of (interval, genome) — of what the run
//! reads of the decoded scenario, in fact ([`FireSim::run_key`]) — and an
//! evaluator lives for one step on one interval, so it keeps a table of
//! every run it has scored, by that key ([`RunTable`]): a genome the
//! search asks for again, or one that decodes to a scored run (a model
//! gene in the same bin, a gene the terrain's layers replace, a wind
//! direction in calm air, …), is answered from the table, and only the
//! unscored runs reach the backend, each once. An *evaluation* is a
//! fitness the search asked for — the unit every count, budget and report
//! uses — and a step runs at most that many *simulations*.

use crate::cases::Observations;
use evoalg::{BatchEvaluator, GenomeMatrix};
use firelib::{BurnCount, FireSim, Kernel, RunKey, Scenario, ScenarioSpace, SimArena, GENE_COUNT};
use landscape::{FireLine, IgnitionMap, JaccardBreakdown, Observed, ProbabilityMap};
use parworker::Backend;
use std::sync::{Arc, Mutex, PoisonError};

pub use parworker::EvalBackend;

/// Everything needed to score scenarios on one prediction interval: a
/// view of one interval of a case's [`Observations`]. Nothing here is a
/// raster of its own — the simulator, the fire lines, the start line's
/// seeds and the two counts all live in the case, built once — so making
/// a context is reference bumps, whatever the grid size.
#[derive(Debug, Clone)]
pub struct StepContext {
    /// The observed fire lines this interval is cut from, and the
    /// simulator they were resolved against.
    lines: Arc<Observations>,
    /// Which interval: from `RFL_{i-1}` (also the pre-burn exclusion mask
    /// of Eq. (3)) to the observed `RFL_i`.
    interval: usize,
    /// Start instant (minutes).
    t0: f64,
    /// End instant (minutes).
    t1: f64,
    /// Propagation kernel every evaluation on this interval runs. Runs
    /// always get the default; [`StepContext::with_kernel`] is for the
    /// suites that compare kernels (all are bit-identical).
    kernel: Kernel,
}

impl StepContext {
    /// Builds a context for the interval `[t0, t1]` between two fire lines
    /// that belong to no case.
    ///
    /// # Panics
    /// Panics when shapes mismatch or `t1 <= t0`.
    pub fn new(sim: Arc<FireSim>, from: FireLine, target: FireLine, t0: f64, t1: f64) -> Self {
        assert!(
            from.same_shape(&target),
            "interval endpoints shape mismatch"
        );
        let lines = Arc::new(Observations::new(sim, vec![from, target]));
        Self::of_interval(lines, 1, t0, t1)
    }

    /// The context of interval `i ≥ 1` of `lines`: from line `i − 1` at
    /// `t0` to line `i` at `t1`, on the simulator the lines were resolved
    /// against — the seeds are that terrain's, so there is no other one
    /// to take.
    ///
    /// # Panics
    /// Panics when `i` is 0 or beyond the last line, or `t1 <= t0`.
    pub fn of_interval(lines: Arc<Observations>, i: usize, t0: f64, t1: f64) -> Self {
        assert!(t1 > t0, "step interval must have positive duration");
        assert!(
            (1..lines.len()).contains(&i),
            "interval {i} of {} fire lines",
            lines.len()
        );
        Self {
            lines,
            interval: i,
            t0,
            t1,
            kernel: Kernel::Bucket,
        }
    }

    /// Same context, evaluating through `kernel` instead of the default
    /// [`Kernel::Bucket`]. Kernels are bit-identical, so swapping one in
    /// changes wall-clock only, never a fitness value.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The propagation kernel evaluations on this interval run.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The simulator.
    pub fn sim(&self) -> &Arc<FireSim> {
        self.lines.sim()
    }

    /// Start fire line (`RFL_{i-1}`).
    pub fn from_line(&self) -> &FireLine {
        &self.lines[self.interval - 1]
    }

    /// Target fire line (`RFL_i`).
    pub fn target_line(&self) -> &FireLine {
        &self.lines[self.interval]
    }

    /// Interval start (minutes).
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Interval end (minutes).
    pub fn t1(&self) -> f64 {
        self.t1
    }

    /// Interval duration (minutes).
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }

    /// What a prediction for this interval is scored against: the target
    /// line less the start line, with the two whole-raster counts the case
    /// took at build.
    pub fn observed(&self) -> Observed<'_> {
        let interval = self.lines.interval(self.interval);
        Observed::counted(
            self.target_line(),
            Some(self.from_line()),
            interval.target_new,
            interval.preburned,
        )
    }

    /// Runs one scenario over this interval into `arena`, uncounted — a
    /// Statistical Stage fold, [`StepContext::simulate_line`].
    pub fn simulate_into<'a>(
        &self,
        scenario: &Scenario,
        arena: &'a mut SimArena,
    ) -> &'a IgnitionMap {
        self.run(scenario, arena, None)
    }

    /// The one place a simulation of the Optimization or the Statistical
    /// Stage starts. The run is seeded from the interval's resolved seeds,
    /// so it costs what the fire costs — not what the raster does, nor a
    /// search for the front — and on a reused arena a repeated scenario
    /// allocates nothing.
    fn run<'a>(
        &self,
        scenario: &Scenario,
        arena: &'a mut SimArena,
        count: Option<&mut BurnCount<'_>>,
    ) -> &'a IgnitionMap {
        let seeds = &self.lines.interval(self.interval).seeds;
        self.sim().simulate_arena_seeded(
            scenario,
            seeds,
            self.t0,
            self.duration(),
            arena,
            self.kernel,
            count,
        )
    }

    /// Simulates one scenario into the worker's private [`SimArena`] and
    /// returns its Eq. (3) fitness — the Workers' hot path. The run counts
    /// its hits and false alarms as it writes ([`BurnCount`], the target
    /// line as the mask, `t1` as the instant), and the misses are the
    /// interval's `target ∧ ¬from` count less the hits, so no cell is read
    /// after the run. Bit-identical to `jaccard_at_time(target, map, t1,
    /// Some(from))` on the same map.
    pub fn fitness_with(&self, scenario: &Scenario, arena: &mut SimArena) -> f64 {
        let mut count = BurnCount::new(self.target_line(), self.t1);
        self.run(scenario, arena, Some(&mut count));
        let interval = self.lines.interval(self.interval);
        JaccardBreakdown {
            hits: count.in_mask(),
            false_alarms: count.outside(),
            misses: interval.target_new - count.in_mask(),
            excluded: interval.preburned,
        }
        .index_with_real_total(interval.target_new)
    }

    /// Fitness of one scenario (allocating convenience).
    pub fn fitness_of(&self, scenario: &Scenario) -> f64 {
        let mut arena = self.sim().arena();
        self.fitness_with(scenario, &mut arena)
    }

    /// The simulated fire line a scenario produces over this interval, as
    /// a raster of its own: [`StepContext::simulate_into`] a fresh arena.
    pub fn simulate_line(&self, scenario: &Scenario) -> FireLine {
        let mut arena = self.sim().arena();
        self.simulate_into(scenario, &mut arena)
            .fire_line_at(self.t1)
    }
}

/// The boxed backend [`ScenarioEvaluator::with_backend`] takes — a fused
/// lane, a tracer.
pub type DynBackend = Box<dyn Backend<Vec<f64>, f64>>;

/// Where a [`ScenarioEvaluator`] sends the rows its table cannot answer.
enum Route {
    /// A shared pool, handed each batch as one flat matrix.
    Pool(Arc<SharedScenarioPool>),
    /// An injected backend, handed the rows.
    Backend(DynBackend),
}

/// One step's batch scenario evaluator: answers genome batches, from its
/// table where it can and from its pool or backend where it must, and
/// counts them. Implements [`evoalg::BatchEvaluator`], so it plugs into
/// every engine.
///
/// Every pool runs the same pure work function (`score`: decode the
/// genome, simulate into the worker's cached [`SimArena`] via
/// [`StepContext::fitness_with`], Eq. (3) from what the run counted as it
/// wrote) — so Serial, WorkerPool
/// and Rayon pools produce bit-identical fitness vectors for the same
/// genome batch. The table sits above the route, so every pool and
/// backend — inline, dispatched, fused lane, tracer — sees the same
/// distinct rows, and a batch the table answers whole reaches none.
pub struct ScenarioEvaluator {
    ctx: Arc<StepContext>,
    route: Route,
    evaluations: u64,
    /// Every run scored on this step, by its [`RunKey`]: a key's slot is
    /// where its fitness sits in `scores`.
    table: RunTable,
    /// The backend's answers, in submission order.
    scores: Vec<f64>,
}

/// The distinct [`RunKey`]s seen, each with its slot — its first
/// occurrence's index — in one open-addressed table: linear probing over a
/// power-of-two index at most half full, under a fixed hash, so a lookup
/// is one hash and (almost always) one probe, and nothing reads an order
/// out of it. An evaluator keys its rows by it, and the stage tail
/// ([`crate::stages::distinct_members`]) a result set's members.
#[derive(Default)]
pub(crate) struct RunTable {
    /// Every key, in first-occurrence order: a key's slot is its index.
    keys: Vec<RunKey>,
    /// The probe index: `FREE` or a slot, at home `hash & (len − 1)` or
    /// after it.
    slots: Vec<u32>,
}

const FREE: u32 = u32::MAX;

/// The smallest probe index a table builds.
const MIN_SLOTS: usize = 16;

/// A fixed multiply–xor-shift over the key's words.
fn hash(key: &RunKey) -> usize {
    let h = key.iter().fold(0u64, |h, &w| {
        let h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ h >> 32
    });
    h as usize
}

impl RunTable {
    /// `key`'s slot: the index of its first occurrence, so a key not seen
    /// before takes the number of keys seen so far, and is kept.
    pub(crate) fn slot(&mut self, key: &RunKey) -> usize {
        if 2 * (self.keys.len() + 1) > self.slots.len() {
            self.slots = vec![FREE; (2 * self.slots.len()).max(MIN_SLOTS)];
            for slot in 0..self.keys.len() {
                let i = self.probe(&self.keys[slot]);
                self.slots[i] = slot as u32;
            }
        }
        let i = self.probe(key);
        if self.slots[i] == FREE {
            self.slots[i] = self.keys.len() as u32;
            self.keys.push(*key);
        }
        self.slots[i] as usize
    }

    /// Where `key` sits in the probe index, or the free slot ending its
    /// chain.
    fn probe(&self, key: &RunKey) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash(key) & mask;
        while self.slots[i] != FREE && self.keys[self.slots[i] as usize] != *key {
            i = (i + 1) & mask;
        }
        i
    }
}

/// One scenario evaluation on a shared pool: the step context and the flat
/// genome batch ride along with a row index, so one pool serves every step
/// of every concurrent session regardless of which case (and grid size)
/// each is predicting — and every task in a batch shares the batch's
/// single [`GenomeMatrix`] allocation instead of owning a genome `Vec`.
pub type SharedTask = (Arc<StepContext>, Arc<GenomeMatrix>, usize);

/// Arena store for the shared pool — one per worker, plus the pool's
/// spare: per grid shape seen, one [`SimArena`] and, in the spare, the
/// stage tail's [`ProbabilityMap`]. Both are pure per-call scratch (every
/// `simulate_arena` refills an arena, every fold clears the map's cover
/// first), so keying by shape is sound even when tasks from different
/// simulators interleave on one store. The map is not raster-sized: it
/// holds a page of counts for each 1 024-cell chunk the shape's folds
/// have burned (on `archipelago_xl`, a 9.4 kB directory and tens of
/// pages, not a 4.8 MB grid).
#[derive(Default)]
struct ArenaCache {
    slots: Vec<Slot>,
}

/// One grid shape's scratch in an [`ArenaCache`].
struct Slot {
    shape: (usize, usize),
    arena: SimArena,
    /// Built on the shape's first fold: a worker's store never folds.
    map: Option<ProbabilityMap>,
}

impl ArenaCache {
    fn for_shape(&mut self, rows: usize, cols: usize) -> &mut Slot {
        let i = match self.slots.iter().position(|s| s.shape == (rows, cols)) {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    shape: (rows, cols),
                    arena: SimArena::new(rows, cols),
                    map: None,
                });
                self.slots.len() - 1
            }
        };
        &mut self.slots[i]
    }
}

/// The pure per-genome work function — the only one: decode the genome,
/// simulate into the cached arena for the context's grid shape, score
/// with Eq. (3). Worker dispatch, inline fallback and fused mega-batches
/// all funnel through this one function, which is what makes their
/// results bit-identical.
fn score(cache: &mut ArenaCache, ctx: &StepContext, genes: &[f64]) -> f64 {
    let terrain = ctx.sim().terrain();
    let slot = cache.for_shape(terrain.rows(), terrain.cols());
    ctx.fitness_with(&ScenarioSpace.decode(genes), &mut slot.arena)
}

/// Default small-batch threshold of the shared pool: batches at or below
/// this many genomes run inline on the calling thread. Pool dispatch
/// (task fan-out, worker wake-ups, result collection) costs more than it
/// buys at ~12 genomes, where the worker pool measured *slower* than
/// serial (0.875× on `archipelago_large`) before this fallback existed.
/// The rule counts rows, not cost — and the rows it counts are the
/// distinct unscored ones a [`ScenarioEvaluator`] submits, not the rows
/// the search asked for, so a generation whose repeats the evaluator's
/// table answers can fall under it where its full batch would not. What
/// falls under it, before repeats: an ESS or ESS-NS generation is one
/// population-sized batch (8 at `--scale 0.25`, 32 at scale 1); an ESSIM
/// generation is `3 × island_population` since the ring evaluates its
/// islands together (12 at 0.25, 36 at 1 — before, three batches of 4 or
/// 12), so ESSIM batches stay inline only up to scale ≈ 0.4 (island
/// population 5).
pub const DEFAULT_INLINE_THRESHOLD: usize = 16;

/// The scenario evaluator: one set of workers that stays up for every
/// step of every run on it. The task type carries the step context, so
/// nothing is captured at build time and the same threads serve a
/// standalone run's steps, a harness plan's trials and a server's
/// concurrent sessions alike, whatever case (and grid shape) each is on.
///
/// Batches are serialised through a mutex ([`parworker::Backend::map`]
/// needs `&mut self`); fairness between sessions is the scheduler's job —
/// one *batch* is the unit of interleaving. Work on the calling thread —
/// inline batches and, through [`SharedScenarioPool::with_spare`], a
/// step's Statistical Stages — runs on the pool's one spare arena store,
/// so a serial run keeps a single warm raster per grid shape, and the
/// stage tail a single probability map per grid shape, whose counts
/// cover only the chunks its folds burned: no step builds or zeroes a
/// raster-sized grid.
pub struct SharedScenarioPool {
    inner: Mutex<DynSharedBackend>,
    /// The arena store lent to calling-thread work — with the stage
    /// tail's probability maps — checked out for the duration of one use:
    /// the lock is held only to take or return it, never while anything
    /// runs, so it never nests with `inner`. A user that finds it out
    /// builds a store of its own, dropped afterwards.
    spare: Mutex<Option<ArenaCache>>,
    /// Batches at or below this size skip pool dispatch (see
    /// [`DEFAULT_INLINE_THRESHOLD`]); `usize::MAX` on a serial spec,
    /// where dispatch can never win.
    inline_threshold: usize,
    spec: EvalBackend,
}

type DynSharedBackend = Box<dyn Backend<SharedTask, f64>>;

const POOL_POISONED: &str = "shared scenario pool poisoned";

impl SharedScenarioPool {
    /// Builds the pool from a backend spec. The workers own an
    /// `ArenaCache` each, so mixed-grid traffic reuses scratch per shape.
    pub fn new(spec: EvalBackend) -> Self {
        let backend = spec.build(
            |_wid| ArenaCache::default(),
            |cache: &mut ArenaCache, (ctx, batch, row): SharedTask| {
                score(cache, &ctx, batch.row(row))
            },
        );
        let inline_threshold = if spec.workers() <= 1 {
            usize::MAX
        } else {
            DEFAULT_INLINE_THRESHOLD
        };
        Self {
            inner: Mutex::new(backend),
            spare: Mutex::new(None),
            inline_threshold,
            spec,
        }
    }

    /// The spec the pool was built from.
    pub fn spec(&self) -> EvalBackend {
        self.spec
    }

    /// Report name of the underlying backend (e.g. `"worker-pool(4)"`).
    pub fn name(&self) -> String {
        self.spec.name()
    }

    /// Degree of parallelism.
    pub fn workers(&self) -> usize {
        self.spec.workers()
    }

    /// The inline small-batch threshold, fixed at construction.
    pub fn inline_threshold(&self) -> usize {
        self.inline_threshold
    }

    /// Evaluates one flat batch of genomes against `ctx`, in row order —
    /// the preferred entry point.
    ///
    /// Batches at or below [`SharedScenarioPool::inline_threshold`] run
    /// serially on the calling thread instead of paying pool dispatch,
    /// which loses to inline execution at typical per-step batch sizes.
    /// Both paths run the same pure work function in the same order, so
    /// results are bit-identical.
    pub fn evaluate_matrix(&self, ctx: &Arc<StepContext>, genomes: &GenomeMatrix) -> Vec<f64> {
        self.score_rows(&[(Arc::clone(ctx), genomes)])
    }

    /// Evaluates many sessions' pending batches as **one fused mega-batch**
    /// — the scheduler-round entry point. All rows are copied into a
    /// single contiguous [`GenomeMatrix`] (one allocation regardless of
    /// how many sessions fused) and submitted to the backend as one
    /// batch, so parallelism amortises over the round's total row count
    /// rather than any single session's batch size. Results are scattered
    /// back per input batch: `out[i]` is bit-identical to what
    /// `evaluate_matrix(&batches[i].0, batches[i].1)` would return, and
    /// an empty input batch yields an empty output.
    ///
    /// # Panics
    /// Panics when the batches disagree on genome dimension.
    pub fn evaluate_fused(&self, batches: &[(Arc<StepContext>, &GenomeMatrix)]) -> Vec<Vec<f64>> {
        let flat = self.score_rows(batches);
        let mut out = Vec::with_capacity(batches.len());
        let mut offset = 0;
        for (_, g) in batches {
            out.push(flat[offset..offset + g.len()].to_vec());
            offset += g.len();
        }
        out
    }

    /// Runs `f` on the arena and the probability map for `sim`'s grid
    /// shape from the pool's spare store — warm after the first use on
    /// that shape. Both are scratch: whatever they held, every run refills
    /// what it reads, and [`crate::stages::statistical_stage_into`] clears
    /// the map's last fold (its cover, not the raster) before folding.
    /// The map starts as its chunk directory and keeps each count chunk
    /// a fold burns, so a repeated fold allocates nothing and the map
    /// grows with the fires it has seen, never to a raster-sized grid.
    pub fn with_spare<R>(
        &self,
        sim: &FireSim,
        f: impl FnOnce(&mut SimArena, &mut ProbabilityMap) -> R,
    ) -> R {
        let (rows, cols) = (sim.terrain().rows(), sim.terrain().cols());
        self.with_cache(|cache| {
            let slot = cache.for_shape(rows, cols);
            let map = slot
                .map
                .get_or_insert_with(|| ProbabilityMap::new(rows, cols));
            f(&mut slot.arena, map)
        })
    }

    /// Lends the spare arena store to `f`: taken under the lock, run with
    /// no lock held, and put back unless another user's store got there
    /// first. A user that finds the spare out starts an empty store; one
    /// that panics loses the store it held, never the pool.
    fn with_cache<R>(&self, f: impl FnOnce(&mut ArenaCache) -> R) -> R {
        let spare = || self.spare.lock().unwrap_or_else(PoisonError::into_inner);
        let mut cache = spare().take().unwrap_or_default();
        let out = f(&mut cache);
        spare().get_or_insert(cache);
        out
    }

    /// Scores every row of `batches`, batch after batch, into one flat
    /// vector: inline on the calling thread when the total is at or below
    /// the threshold, else as one backend submission over a single
    /// contiguous copy of the rows.
    #[expect(
        clippy::expect_used,
        reason = "pool-lock poisoning only follows a worker panic; amplifying it is the designed failure mode"
    )]
    fn score_rows(&self, batches: &[(Arc<StepContext>, &GenomeMatrix)]) -> Vec<f64> {
        let total: usize = batches.iter().map(|(_, g)| g.len()).sum();
        if total <= self.inline_threshold() {
            return self.with_cache(|cache| {
                let mut flat = Vec::with_capacity(total);
                for (ctx, g) in batches {
                    flat.extend(g.rows().map(|genes| score(cache, ctx, genes)));
                }
                flat
            });
        }
        let mut mega = match batches.iter().find(|(_, g)| !g.is_empty()) {
            Some((_, g)) => GenomeMatrix::with_dim(g.dim()),
            None => GenomeMatrix::new(),
        };
        mega.reserve_rows(total);
        for (_, g) in batches {
            mega.extend_from(g);
        }
        let mega = Arc::new(mega);
        let mut tasks: Vec<SharedTask> = Vec::with_capacity(total);
        for (ctx, g) in batches {
            let first = tasks.len();
            tasks.extend(
                (first..first + g.len()).map(|row| (Arc::clone(ctx), Arc::clone(&mega), row)),
            );
        }
        self.inner.lock().expect(POOL_POISONED).map(tasks)
    }
}

impl ScenarioEvaluator {
    /// Builds an evaluator over `ctx` on a pool of its own built from
    /// `spec` — for a one-off evaluation outside any run; a run shares one
    /// pool across its steps through [`ScenarioEvaluator::shared`].
    pub fn new(ctx: Arc<StepContext>, spec: EvalBackend) -> Self {
        Self::shared(ctx, Arc::new(SharedScenarioPool::new(spec)))
    }

    /// Builds an evaluator over `ctx` that runs its batches on `pool`.
    pub fn shared(ctx: Arc<StepContext>, pool: Arc<SharedScenarioPool>) -> Self {
        Self::routed(ctx, Route::Pool(pool))
    }

    /// Wraps an injected backend — the fused round's lanes and the
    /// benchmark's tracer score batches their own way.
    pub fn with_backend(ctx: Arc<StepContext>, backend: DynBackend) -> Self {
        Self::routed(ctx, Route::Backend(backend))
    }

    fn routed(ctx: Arc<StepContext>, route: Route) -> Self {
        Self {
            ctx,
            route,
            evaluations: 0,
            table: RunTable::default(),
            scores: Vec::new(),
        }
    }

    /// The evaluation context.
    pub fn context(&self) -> &Arc<StepContext> {
        &self.ctx
    }
}

impl BatchEvaluator for ScenarioEvaluator {
    /// Scores `genomes` in row order. One table operation per row, on its
    /// run's key ([`FireSim::run_key`] of the decoded row): a row whose
    /// run is scored is answered from the table; an unscored run is
    /// submitted once, as its first-occurring genome, however often the
    /// batch asks for it again — as the same genome or as any other that
    /// runs alike. Nothing is submitted when every row is scored.
    fn evaluate(&mut self, genomes: &[Vec<f64>]) -> Vec<f64> {
        self.evaluations += genomes.len() as u64;
        let scored = self.scores.len();
        let sim = self.ctx.sim();
        // The rows to submit, by index into `genomes`.
        let mut fresh = Vec::new();
        let slots: Vec<usize> = genomes
            .iter()
            .enumerate()
            .map(|(row, genes)| {
                let slot = self.table.slot(&sim.run_key(&ScenarioSpace.decode(genes)));
                if slot == scored + fresh.len() {
                    fresh.push(row);
                }
                slot
            })
            .collect();
        if !fresh.is_empty() {
            let fitness = match &mut self.route {
                Route::Pool(pool) => {
                    let mut batch = GenomeMatrix::with_dim(GENE_COUNT);
                    batch.reserve_rows(fresh.len());
                    for &row in &fresh {
                        batch.push(&genomes[row]);
                    }
                    pool.evaluate_matrix(&self.ctx, &batch)
                }
                Route::Backend(backend) => {
                    backend.map(fresh.iter().map(|&row| genomes[row].clone()).collect())
                }
            };
            self.scores.extend(fitness);
        }
        slots.into_iter().map(|slot| self.scores[slot]).collect()
    }

    /// Every row asked for, repeats included — not the simulations run.
    fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the concurrency tests meet two evaluations on scoped threads under a clock-bounded wait"
)]
mod tests {
    use super::*;
    use firelib::sim::centre_ignition;
    use firelib::Terrain;
    use landscape::jaccard_at_time;

    /// A small context whose target was produced by a known scenario, so
    /// that scenario scores exactly 1.
    fn known_context() -> (Arc<StepContext>, Scenario) {
        let truth = Scenario {
            wind_speed_mph: 6.0,
            wind_dir_deg: 45.0,
            ..Scenario::reference()
        };
        let sim = Arc::new(FireSim::new(Terrain::uniform(25, 25, 100.0)));
        let from = centre_ignition(25, 25);
        let target = sim.simulate_fire_line(&truth, &from, 0.0, 40.0);
        (
            Arc::new(StepContext::new(sim, from, target, 0.0, 40.0)),
            truth,
        )
    }

    /// A second context on a different grid shape (33×33 against 25×25).
    fn larger_context() -> Arc<StepContext> {
        let truth = Scenario {
            wind_speed_mph: 9.0,
            ..Scenario::reference()
        };
        let sim = Arc::new(FireSim::new(Terrain::uniform(33, 33, 100.0)));
        let from = centre_ignition(33, 33);
        let target = sim.simulate_fire_line(&truth, &from, 0.0, 50.0);
        Arc::new(StepContext::new(sim, from, target, 0.0, 50.0))
    }

    #[test]
    fn true_scenario_scores_one() {
        let (ctx, truth) = known_context();
        assert!((ctx.fitness_of(&truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_scenario_scores_less() {
        let (ctx, truth) = known_context();
        let wrong = Scenario {
            wind_dir_deg: 225.0,
            wind_speed_mph: 25.0,
            ..truth
        };
        assert!(ctx.fitness_of(&wrong) < 0.9);
    }

    #[test]
    fn arena_map_and_allocating_paths_agree_exactly() {
        // Heterogeneous terrain → the per-cell spread path, where the three
        // fitness entry points could plausibly diverge if the arena refactor
        // broke bit-identity.
        let truth = Scenario {
            wind_speed_mph: 7.0,
            ..Scenario::reference()
        };
        let slope = landscape::Grid::from_fn(19, 19, |r, c| ((r * 3 + c) % 25) as f64);
        let sim = Arc::new(FireSim::new(
            Terrain::uniform(19, 19, 100.0).with_slope(slope),
        ));
        let from = centre_ignition(19, 19);
        let target = sim.simulate_fire_line(&truth, &from, 0.0, 60.0);
        let ctx = StepContext::new(sim.clone(), from, target, 0.0, 60.0);
        let mut arena = sim.arena();
        for wind in [0.0, 4.0, 11.0] {
            let s = Scenario {
                wind_speed_mph: wind,
                ..truth
            };
            let a = ctx.fitness_with(&s, &mut arena);
            let b = jaccard_at_time(
                ctx.target_line(),
                &sim.simulate(&s, ctx.from_line(), 0.0, 60.0),
                60.0,
                Some(ctx.from_line()),
            );
            let c = ctx.fitness_of(&s);
            assert_eq!(a, b, "wind {wind}: arena vs reference map");
            assert_eq!(a, c, "wind {wind}: arena vs of");
        }
    }

    #[test]
    fn simulate_line_runs_the_context_kernel_and_matches_the_reference_line() {
        // Per-cell terrain (slope + wind layers): the Statistical Stage's
        // fire line must be the reference path's, whichever kernel the
        // context runs.
        let slope = landscape::Grid::from_fn(23, 29, |r, c| ((r * 5 + c * 3) % 30) as f64);
        let factor = landscape::Grid::from_fn(23, 29, |r, c| 0.5 + ((r + c) % 4) as f64 * 0.4);
        let offset = landscape::Grid::from_fn(23, 29, |r, c| ((r * c) % 50) as f64 - 25.0);
        let sim = Arc::new(FireSim::new(
            Terrain::uniform(23, 29, 100.0)
                .with_slope(slope)
                .with_wind(factor, offset),
        ));
        let from = FireLine::from_cells(23, 29, &[(11, 14), (4, 20)]);
        let s = Scenario {
            wind_speed_mph: 9.0,
            wind_dir_deg: 120.0,
            ..Scenario::reference()
        };
        let reference = sim.simulate_fire_line(&s, &from, 5.0, 45.0);
        assert!(reference.burned_area() > 2, "the fire must spread");
        let tiled = Kernel::Tiled {
            tile: 8,
            workers: 2,
        };
        for kernel in [Kernel::Heap, Kernel::Bucket, tiled] {
            let ctx = StepContext::new(sim.clone(), from.clone(), reference.clone(), 5.0, 50.0)
                .with_kernel(kernel);
            assert_eq!(ctx.simulate_line(&s), reference, "kernel {kernel}");
        }
    }

    #[test]
    fn genome_fitness_matches_decoded() {
        let (ctx, truth) = known_context();
        let genes = ScenarioSpace.encode(&truth);
        assert!(
            (ctx.fitness_of(&ScenarioSpace.decode(&genes)) - ctx.fitness_of(&truth)).abs() < 1e-12
        );
    }

    fn random_genomes(seed: u64, n: usize) -> Vec<Vec<f64>> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..firelib::GENE_COUNT)
                    .map(|_| rng.random::<f64>())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn backends_agree_exactly() {
        let (ctx, _) = known_context();
        let mut serial = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::Serial);
        let mut pool = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::WorkerPool(2));
        let mut ray = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::Rayon(2));
        // Both sides of the inline threshold: a multi-worker pool scores
        // the first three batches on the calling thread and dispatches the
        // last two.
        let mut total = 0;
        for n in [
            0,
            1,
            DEFAULT_INLINE_THRESHOLD,
            DEFAULT_INLINE_THRESHOLD + 1,
            40,
        ] {
            let genomes = random_genomes(n as u64, n);
            let fs = serial.evaluate(&genomes);
            assert_eq!(fs.len(), n);
            assert_eq!(fs, pool.evaluate(&genomes), "worker-pool, batch of {n}");
            assert_eq!(fs, ray.evaluate(&genomes), "rayon, batch of {n}");
            total += n as u64;
        }
        assert_eq!(serial.evaluations(), total);
    }

    #[test]
    fn one_pool_keeps_mixed_grids_apart() {
        // Two contexts on different grid shapes multiplexed over one pool:
        // the per-worker arena caches (and the inline one) must keep them
        // apart. The reference scores every genome in a fresh arena.
        let (small_ctx, _) = known_context();
        let big_ctx = larger_context();

        let pool = Arc::new(SharedScenarioPool::new(EvalBackend::WorkerPool(2)));
        // 10 genomes stay inline, 24 are dispatched to the workers.
        for n in [10, 24] {
            let genomes = random_genomes(3, n);
            // Interleave rounds so every arena cache sees both shapes.
            for _ in 0..2 {
                for ctx in [&small_ctx, &big_ctx] {
                    let fresh: Vec<f64> = genomes
                        .iter()
                        .map(|g| ctx.fitness_of(&ScenarioSpace.decode(g)))
                        .collect();
                    let mut on_pool = ScenarioEvaluator::shared(Arc::clone(ctx), Arc::clone(&pool));
                    assert_eq!(fresh, on_pool.evaluate(&genomes), "batch of {n}");
                }
            }
        }
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn small_batches_run_inline_and_match_dispatch() {
        let (ctx, _) = known_context();
        let rows = random_genomes(11, 20);
        let pool = SharedScenarioPool::new(EvalBackend::WorkerPool(2));
        assert_eq!(pool.inline_threshold(), DEFAULT_INLINE_THRESHOLD);
        // 10 ≤ 16: the threshold routes the first ten rows inline.
        let inline = pool.evaluate_matrix(&ctx, &GenomeMatrix::from_rows(&rows[..10]));
        // 20 > 16: the same ten rows, leading a batch the pool dispatches.
        let dispatched = pool.evaluate_matrix(&ctx, &GenomeMatrix::from_rows(&rows));
        assert_eq!(
            inline,
            dispatched[..10],
            "inline fallback diverged from dispatch"
        );
        // A serial pool always stays inline.
        assert_eq!(
            SharedScenarioPool::new(EvalBackend::Serial).inline_threshold(),
            usize::MAX
        );
    }

    #[test]
    fn fused_batches_match_per_session_evaluation() {
        let (small_ctx, _) = known_context();
        let big_ctx = larger_context();

        let a = GenomeMatrix::from_rows(&random_genomes(5, 5));
        let b = GenomeMatrix::from_rows(&random_genomes(6, 20));
        let empty = GenomeMatrix::new();

        let pool = SharedScenarioPool::new(EvalBackend::WorkerPool(2));
        // Total 25 > 16: the fused call takes the dispatch path while the
        // per-session references below stay inline — the identity must
        // hold across that asymmetry.
        let fused = pool.evaluate_fused(&[
            (Arc::clone(&small_ctx), &a),
            (Arc::clone(&big_ctx), &b),
            (Arc::clone(&small_ctx), &empty),
        ]);
        assert_eq!(fused.len(), 3);
        assert_eq!(fused[0], pool.evaluate_matrix(&small_ctx, &a));
        assert_eq!(fused[1], pool.evaluate_matrix(&big_ctx, &b));
        assert!(fused[2].is_empty());
    }

    #[test]
    fn the_spare_is_checked_out_not_locked() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        let (ctx, truth) = known_context();
        let pool = SharedScenarioPool::new(EvalBackend::Serial);
        let inside = AtomicUsize::new(0);
        // Each thread runs in an arena, then waits (bounded) for the other
        // to be inside too: a lock held across `f` would time one out.
        let meet = || {
            pool.with_spare(ctx.sim(), |arena, _| {
                ctx.simulate_into(&truth, arena);
                inside.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while inside.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                inside.load(Ordering::SeqCst) == 2
            })
        };
        let (x, y) = std::thread::scope(|s| {
            let x = s.spawn(meet);
            let y = s.spawn(meet);
            (x.join().expect("thread x"), y.join().expect("thread y"))
        });
        assert!(x && y, "both users must be inside at once");
        let spare = pool.spare.lock().expect("spare lock");
        let cache = spare.as_ref().expect("one store is put back");
        assert_eq!(cache.slots.len(), 1, "one arena for the one shape");
    }

    #[test]
    fn a_panic_in_a_lent_arena_leaves_the_pool_scoring_as_fresh() {
        let (ctx, truth) = known_context();
        let batch = GenomeMatrix::from_rows(&random_genomes(13, 6));
        let pool = SharedScenarioPool::new(EvalBackend::Serial);
        pool.evaluate_matrix(&ctx, &batch);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.with_spare(ctx.sim(), |arena, _| {
                ctx.simulate_into(&truth, arena);
                panic!("mid-tail failure");
            })
        }));
        assert!(caught.is_err());
        let fresh = SharedScenarioPool::new(EvalBackend::Serial).evaluate_matrix(&ctx, &batch);
        assert_eq!(pool.evaluate_matrix(&ctx, &batch), fresh);
    }

    #[test]
    fn fitness_in_unit_interval() {
        let (ctx, _) = known_context();
        for genes in random_genomes(7, 30) {
            let f = ctx.fitness_of(&ScenarioSpace.decode(&genes));
            assert!((0.0..=1.0).contains(&f), "fitness {f} out of range");
        }
    }

    /// Keys whose home is the last slot of the smallest probe index, so
    /// they share one chain, and it wraps.
    fn one_chain(n: usize) -> Vec<RunKey> {
        (0u64..)
            .map(|i| std::array::from_fn(|g| i.wrapping_mul(g as u64 + 1)))
            .filter(|k| hash(k) & (MIN_SLOTS - 1) == MIN_SLOTS - 1)
            .take(n)
            .collect()
    }

    #[test]
    fn run_table_keys_in_one_probe_chain_keep_their_slots() {
        let keys = one_chain(MIN_SLOTS / 2);
        let mut table = RunTable::default();
        for (slot, key) in keys.iter().enumerate() {
            assert_eq!(table.slot(key), slot, "a new key takes the next slot");
        }
        assert_eq!(table.slots.len(), MIN_SLOTS, "half full, not grown");
        // The chain runs from the last slot round to the first ones.
        assert_eq!(table.slots[MIN_SLOTS - 1], 0);
        assert_eq!(&table.slots[..keys.len() - 1], &[1, 2, 3, 4, 5, 6, 7]);
        for (slot, key) in keys.iter().enumerate().rev() {
            assert_eq!(table.slot(key), slot, "a seen key finds its slot");
        }
        assert_eq!(table.keys, keys);
    }

    #[test]
    fn run_table_growth_keeps_every_slot() {
        let keys = one_chain(3 * MIN_SLOTS);
        let mut table = RunTable::default();
        for (slot, key) in keys.iter().enumerate() {
            assert_eq!(table.slot(key), slot);
            assert!(
                2 * table.keys.len() <= table.slots.len(),
                "at most half full"
            );
            for (earlier, key) in keys[..=slot].iter().enumerate() {
                assert_eq!(table.slot(key), earlier, "slot lost across a rehash");
            }
        }
        assert_eq!(table.slots.len(), 8 * MIN_SLOTS, "grown three times");
    }

    #[test]
    fn run_table_matches_a_first_occurrence_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(50);
        // 10⁴ rows over about 2 000 distinct keys, a few words varying, so
        // keys repeat and share most of their bits.
        let mut table = RunTable::default();
        let mut oracle: BTreeMap<RunKey, usize> = BTreeMap::new();
        for row in 0..10_000 {
            let key: RunKey = std::array::from_fn(|g| match g {
                1 => rng.random_range(0..40u64),
                4 => rng.random_range(0..50u64) << 40,
                8 => u64::from(rng.random::<f64>() < 0.5),
                _ => 0x3FF0_0000_0000_0000,
            });
            let next = oracle.len();
            let want = *oracle.entry(key).or_insert(next);
            assert_eq!(table.slot(&key), want, "row {row}");
        }
        assert!(
            (1_000..4_000).contains(&oracle.len()),
            "{} keys",
            oracle.len()
        );
        assert_eq!(table.keys.len(), oracle.len());
    }

    #[test]
    fn run_table_rows_that_run_alike_reach_the_backend_once() {
        // The model genes 0.24 and 0.3 fall in one bin; 1.5 and 7.0 clamp
        // to one bound.
        let (ctx, truth) = known_context();
        let a = ScenarioSpace.encode(&truth).to_vec();
        let moved = |gene: usize, v: f64| {
            let mut g = a.clone();
            g[gene] = v;
            g
        };
        let batch = [moved(0, 0.24), moved(0, 0.3), moved(1, 1.5), moved(1, 7.0)];
        let mut serial = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::Serial);
        let fitness = serial.evaluate(&batch);
        assert_eq!(serial.table.keys.len(), 2, "two runs");
        assert_eq!((fitness[0], fitness[2]), (fitness[1], fitness[3]));
        assert_eq!(serial.evaluations(), 4);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn inverted_interval_rejected() {
        let sim = Arc::new(FireSim::new(Terrain::uniform(5, 5, 100.0)));
        let fl = centre_ignition(5, 5);
        let _ = StepContext::new(sim, fl.clone(), fl, 10.0, 10.0);
    }
}
