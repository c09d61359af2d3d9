//! A warm evaluation allocates nothing, counted: a process-wide counting
//! allocator, and for every input a warm-up pass over a stream followed by
//! the same stream again, which must allocate exactly zero times.
//!
//! The inputs together reach every function of the simulation, fitness
//! and stage-tail hot paths:
//!
//! 1. `StepContext::fitness_with` on a warm arena: steps 1–3 of every
//!    non-XL case, a seeded 64-scenario stream per step, on the heap, the
//!    bucket and the tiled kernel (one and two drain workers).
//! 2. `FireSim::simulate_arena_kernel` from a `FireLine`, so the run
//!    resolves its seeds, on the bucket and the tiled kernel.
//! 3. The stage tail as a prediction step runs it: the arena and the
//!    probability map the pool lends (`SharedScenarioPool::with_spare`),
//!    a 24-member multiset folded by `statistical_stage_into` into the
//!    calibration and then the prediction matrix, each read by
//!    `ProbabilityMap::histogram_into` — the same step repeated.
//!
//! On *fresh* streams — the search's real traffic — a run allocates only
//! when it queues more than any run before it, so the heap and the bucket
//! kernel may each allocate on at most [`FRESH_ALLOCATING`] of 704 fresh
//! evaluations per case (`--nocapture` prints the counts).
//!
//! One exception is reported, not asserted: on `archipelago_large` the
//! two-worker tiled kernel meets epochs of at least `TILE_INLINE` entries,
//! and those fork through parworker's scoped fork/join, which allocates
//! its chunk bag and spawns its threads.
//!
//! The search masters are counted the same way, less the evaluator's own
//! allocations: Algorithm 1 (`NoveltyGa::run`), the GA engine and the DE
//! engine at each registry scale's sizes must each allocate exactly as
//! often over 24 generations as over 12, so a warm generation allocates
//! nothing (`--nocapture` prints the counts).
//!
//! The binary holds one test, so nothing else runs while a window is
//! measured.

#![allow(
    clippy::expect_used,
    reason = "helpers outside a #[test] fn fail the test they serve, as an assert in it would"
)]

use essns_repro::ess::cases::{self, BurnCase};
use essns_repro::ess::fitness::{EvalBackend, SharedScenarioPool, StepContext};
use essns_repro::ess::stages::{distinct_members, statistical_stage_into};
use essns_repro::ess_ns::{NoveltyGa, NoveltyGaConfig};
use essns_repro::evoalg::{DeConfig, Engine, GaConfig, Scheme};
use essns_repro::firelib::sim::centre_ignition;
use essns_repro::firelib::{FireSim, Kernel, Scenario, ScenarioSpace, SimArena, Terrain};
use essns_repro::landscape::{Grid, LevelHistogram};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every `alloc` and `realloc` of every
/// thread (`alloc_zeroed` goes through `alloc`).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations, on any thread, while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// The tiled kernel with `workers` drain threads.
const fn tiled(tile: usize, workers: usize) -> Kernel {
    Kernel::Tiled { tile, workers }
}

const EVALUATION_KERNELS: [Kernel; 4] = [Kernel::Heap, Kernel::Bucket, tiled(16, 1), tiled(16, 2)];

/// The most fresh evaluations of 704 per case that may allocate: the
/// queue's pool and the heap grow only to a new high-water mark (1–3).
const FRESH_ALLOCATING: usize = 4;

/// The case whose two-worker tiled epochs fork.
const FORKING_CASE: &str = "archipelago_large";

/// A seeded stream of `n` scenarios drawn from Table I.
fn stream(seed: u64, n: usize) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| ScenarioSpace.sample(&mut rng)).collect()
}

/// One pass of `scenarios` through `fitness_with`, as the XOR of the
/// fitness bits (so both passes can be held to the same answers without
/// a buffer).
fn fitness_pass(ctx: &StepContext, scenarios: &[Scenario], arena: &mut SimArena) -> u64 {
    scenarios
        .iter()
        .fold(0, |acc, s| acc ^ ctx.fitness_with(s, arena).to_bits())
}

/// The allocations of a repeated stream's second pass through
/// `fitness_with`, after a warm-up pass over the same stream.
fn repeat_pass(ctx: &StepContext, scenarios: &[Scenario], arena: &mut SimArena) -> u64 {
    let warm = fitness_pass(ctx, scenarios, arena);
    let mut again = 0;
    let count = allocations_in(|| again = fitness_pass(ctx, scenarios, arena));
    assert_eq!(
        again,
        warm,
        "{}: the repeat scored differently",
        ctx.kernel()
    );
    count
}

/// Input 1: steps 1–3 of every non-XL case on every kernel.
fn evaluations_on_every_case() -> u64 {
    let xl = essns_repro::firelib::workload::xl_names();
    let mut forked = None;
    for name in cases::case_names().into_iter().filter(|n| !xl.contains(n)) {
        let case = cases::by_name(name).expect("a listed case");
        let mut arena = case.sim.arena();
        for step in 1..=3 {
            let scenarios = stream(step as u64, 64);
            for kernel in EVALUATION_KERNELS {
                let ctx = case.step_context(step).with_kernel(kernel);
                let count = repeat_pass(&ctx, &scenarios, &mut arena);
                if name == FORKING_CASE && kernel == tiled(16, 2) {
                    forked = Some(forked.unwrap_or(0) + count);
                    continue;
                }
                assert_eq!(count, 0, "{name} step {step}, {kernel}: a repeat allocated");
            }
        }
    }
    forked.expect("the forking case is listed")
}

/// Input 2: runs from a fire line, seeds resolved per run, over horizons
/// 400…405 on a 41×41 slope terrain.
fn runs_from_a_fire_line() {
    let n = 41;
    let slope = Grid::from_fn(n, n, |r, c| ((r + c) % 30) as f64);
    let sim = FireSim::new(Terrain::uniform(n, n, 100.0).with_slope(slope));
    let ignition = centre_ignition(n, n);
    let calm = Scenario {
        wind_speed_mph: 0.0,
        slope_deg: 0.0,
        ..Scenario::reference()
    };
    for kernel in [Kernel::Bucket, tiled(8, 2)] {
        let mut arena = sim.arena();
        let pass = |arena: &mut SimArena| {
            for horizon in 400..=405 {
                sim.simulate_arena_kernel(&calm, &ignition, 0.0, horizon as f64, arena, kernel);
            }
        };
        pass(&mut arena);
        let count = allocations_in(|| pass(&mut arena));
        assert_eq!(count, 0, "{kernel} from a fire line: a repeat allocated");
    }
}

/// Input 3: the stage tail of a step on a serial pool's spare — the
/// calibration matrix of step 1 and the prediction matrix of step 2,
/// folded over a 24-member multiset (8 distinct members, 3 copies each)
/// into the one map the pool lends with the arena, each read by the
/// calibration histogram.
fn the_stage_tail(case: &BurnCase) {
    let pool = SharedScenarioPool::new(EvalBackend::Serial);
    let contexts = [case.step_context(1), case.step_context(2)];
    let members = stream(24, 8);
    let members: Vec<Scenario> = (0..24).map(|i| members[i % 8]).collect();
    let members = distinct_members(&case.sim, &members);
    let mut hist = LevelHistogram::default();
    let mut step = || {
        pool.with_spare(&case.sim, |arena, map| {
            for ctx in &contexts {
                statistical_stage_into(ctx, &members, arena, map);
                map.histogram_into(&ctx.observed(), &mut hist);
            }
        })
    };
    step();
    let count = allocations_in(step);
    assert_eq!(count, 0, "{}: the repeated stage tail allocated", case.name);
}

/// What the count finds on fresh streams on step 1: one warm-up stream,
/// then 11 streams never seen before, counted per evaluation. Returns
/// (evaluations that allocated, allocations).
fn fresh_streams(case: &BurnCase, kernel: Kernel) -> (usize, u64) {
    let ctx = case.step_context(1).with_kernel(kernel);
    let mut arena = case.sim.arena();
    fitness_pass(&ctx, &stream(100, 64), &mut arena);
    let (mut allocating, mut total) = (0, 0);
    for seed in 101..112 {
        for s in &stream(seed, 64) {
            let count = allocations_in(|| {
                ctx.fitness_with(s, &mut arena);
            });
            allocating += usize::from(count > 0);
            total += count;
        }
    }
    (allocating, total)
}

/// The population sizes of the registry's scales 0.25, 0.5, 1 and 4.
const MASTER_SIZES: [usize; 4] = [8, 16, 32, 128];

/// A zero-cost evaluator, and the allocations it made itself.
struct ZeroCost {
    own: u64,
}

impl ZeroCost {
    fn evaluate(&mut self, genomes: &[Vec<f64>]) -> Vec<f64> {
        let mut fitness = Vec::new();
        self.own += allocations_in(|| {
            fitness = genomes.iter().map(|g| 0.9 * g[0]).collect();
        });
        fitness
    }
}

/// The allocations of one Algorithm 1 run of `generations` at population
/// `n` (m = N, archive 2N, `bestSet` 3N/4), less the evaluator's own.
fn novelty_ga_allocations(n: usize, generations: u32) -> u64 {
    let ga = NoveltyGa::new(
        9,
        NoveltyGaConfig {
            population_size: n,
            offspring: n,
            archive_capacity: 2 * n,
            best_set_capacity: (n * 3 / 4).max(4),
            max_generations: generations,
            fitness_threshold: 2.0,
            ..NoveltyGaConfig::default()
        },
    );
    let mut zero_cost = ZeroCost { own: 0 };
    let total = allocations_in(|| {
        std::hint::black_box(ga.run(&mut |g: &[Vec<f64>]| zero_cost.evaluate(g)));
    });
    total - zero_cost.own
}

/// The allocations of an engine's initial evaluation and `generations`
/// steps, less the evaluator's own.
fn engine_allocations<S: Scheme>(scheme: S, generations: u32) -> u64 {
    let mut zero_cost = ZeroCost { own: 0 };
    let total = allocations_in(|| {
        let mut engine = Engine::new(9, scheme);
        let mut eval = |g: &[Vec<f64>]| zero_cost.evaluate(g);
        engine.evaluate_initial(&mut eval);
        for _ in 0..generations {
            engine.step(&mut eval);
        }
        std::hint::black_box(engine);
    });
    total - zero_cost.own
}

/// The masters' counts, each asserted flat after warm-up.
fn the_search_masters() {
    println!("search master allocations (evaluator's own excluded), 12 / 24 generations");
    println!("  N  Algorithm 1          GaEngine          DeEngine");
    for n in MASTER_SIZES {
        let ns = [12, 24].map(|g| novelty_ga_allocations(n, g));
        let ga = [12, 24].map(|g| {
            let config = GaConfig {
                population_size: n,
                offspring: n,
                ..GaConfig::default()
            };
            engine_allocations::<GaConfig>(config, g)
        });
        let de = [12, 24].map(|g| {
            let config = DeConfig {
                population_size: n,
                ..DeConfig::default()
            };
            engine_allocations::<DeConfig>(config, g)
        });
        println!(
            "{n:>3}  {:>7} / {:<7}  {:>7} / {:<7}  {:>7} / {:<7}",
            ns[0], ns[1], ga[0], ga[1], de[0], de[1]
        );
        for (master, counts) in [("Algorithm 1", ns), ("GaEngine", ga), ("DeEngine", de)] {
            assert_eq!(
                counts[0], counts[1],
                "N = {n}: {master} allocated in a warm generation"
            );
        }
    }
}

#[test]
fn a_repeated_stream_allocates_nothing() {
    let one = allocations_in(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(1))));
    assert_eq!(one, 1, "the counting allocator is not installed");
    let forked = evaluations_on_every_case();
    runs_from_a_fire_line();
    the_search_masters();
    for name in [
        "meadow_small",
        "gusty_channel",
        "patchwork_mosaic",
        "grass_uniform",
        "archipelago_xl",
    ] {
        the_stage_tail(&cases::by_name(name).expect("a listed case"));
    }

    println!(
        "{FORKING_CASE} {}, steps 1-3 repeated: {forked} allocations",
        tiled(16, 2)
    );
    println!("fresh streams, step 1: 64 warm-up + 704 counted evaluations");
    println!("case              kernel  allocating evaluations  allocations");
    for name in [
        "meadow_small",
        "gusty_channel",
        "patchwork_mosaic",
        "grass_uniform",
    ] {
        let case = cases::by_name(name).expect("a listed case");
        for kernel in [Kernel::Heap, Kernel::Bucket] {
            let (allocating, total) = fresh_streams(&case, kernel);
            println!(
                "{name:<17} {:<6}  {allocating:>22}  {total:>11}",
                kernel.to_string()
            );
            assert!(
                allocating <= FRESH_ALLOCATING,
                "{name}, {kernel}: {allocating} of 704 fresh evaluations allocated"
            );
        }
    }
}
