//! Counted fitness ≡ full-raster fitness, bit for bit.
//!
//! `StepContext::fitness_with` seeds its run from a per-step `Seeds` value
//! and scores Eq. (3) from the hits and false alarms the run counts as it
//! writes (`firelib::BurnCount`), taking the misses from a per-step count
//! of the target's new cells: it reads no cell after the run. This suite
//! holds it against the definition — `jaccard_at_time` over the whole
//! raster of the same arena map, and a run seeded by scanning the mask —
//! on every registered non-XL case, every kernel, and the inputs where the
//! shortcut could plausibly go wrong: dirty arenas, moving ignitions,
//! unburnable lit cells, an empty seed set.

use ess::cases::{self, BurnCase};
use ess::fitness::StepContext;
use firelib::{Kernel, Scenario, SimArena};
use landscape::{jaccard_at_time, FireLine};
use std::sync::Arc;

const KERNELS: [Kernel; 3] = [
    Kernel::Heap,
    Kernel::Bucket,
    Kernel::Tiled {
        tile: 16,
        workers: 2,
    },
];

/// `fitness_with` on `arena` against (a) the full-raster Jaccard of the
/// map it left there and (b) the raster of a mask-seeded run on a fresh
/// arena. Returns the fitness.
fn checked_fitness(ctx: &StepContext, s: &Scenario, arena: &mut SimArena, what: &str) -> f64 {
    let f = ctx.fitness_with(s, arena);
    let full = jaccard_at_time(
        ctx.target_line(),
        arena.map(),
        ctx.t1(),
        Some(ctx.from_line()),
    );
    assert_eq!(
        f.to_bits(),
        full.to_bits(),
        "{what}: {f} vs full-raster {full}"
    );
    let mut fresh = ctx.sim().arena();
    let scanned = ctx.sim().simulate_arena_kernel(
        s,
        ctx.from_line(),
        ctx.t0(),
        ctx.duration(),
        &mut fresh,
        ctx.kernel(),
    );
    assert!(
        scanned == arena.map(),
        "{what}: list-seeded raster differs from the mask-seeded one"
    );
    f
}

fn interval_context(case: &BurnCase, i: usize, kernel: Kernel) -> StepContext {
    case.step_context(i + 1).with_kernel(kernel)
}

/// The interval's truth (scores 1), a scenario too damp to spread (scores
/// 0: nothing new burns), and truths bent a little and a lot.
fn probes(truth: &Scenario) -> Vec<Scenario> {
    vec![
        *truth,
        Scenario {
            m1_pct: 60.0,
            m10_pct: 60.0,
            m100_pct: 60.0,
            ..*truth
        },
        Scenario {
            wind_speed_mph: truth.wind_speed_mph * 0.6,
            ..*truth
        },
        Scenario {
            wind_dir_deg: (truth.wind_dir_deg + 150.0) % 360.0,
            wind_speed_mph: truth.wind_speed_mph + 9.0,
            ..*truth
        },
    ]
}

#[test]
fn every_case_every_kernel_scores_exactly_the_full_raster() {
    let xl = firelib::workload::xl_names();
    for name in cases::case_names().into_iter().filter(|n| !xl.contains(n)) {
        let case = cases::by_name(name).expect("registered name");
        // One arena per case, never clean after the first run: kernels
        // interleave on it and the lit cells grow interval by interval.
        let mut arena = case.sim.arena();
        let (mut ones, mut zeros, mut inside) = (0, 0, 0);
        for i in 0..case.intervals() {
            for kernel in KERNELS {
                let ctx = interval_context(&case, i, kernel);
                for (p, s) in probes(&case.truth[i]).iter().enumerate() {
                    let what = format!("{name} interval {i} {kernel} probe {p}");
                    let f = checked_fitness(&ctx, s, &mut arena, &what);
                    match f {
                        _ if f == 1.0 => ones += 1,
                        _ if f == 0.0 => zeros += 1,
                        _ => inside += 1,
                    }
                }
            }
        }
        assert!(
            ones > 0 && zeros > 0 && inside > 0,
            "{name}: probes must reach both edges and the interior \
             (1.0 ×{ones}, 0.0 ×{zeros}, inside ×{inside})"
        );
    }
}

#[test]
fn dirty_arena_follows_moving_ignitions() {
    // Contexts whose `from` jumps around the map share one arena: each
    // score must see only its own run's cells, never the last run's.
    let case = cases::by_name("archipelago_large").expect("corpus case");
    let (rows, cols) = (case.sim.terrain().rows(), case.sim.terrain().cols());
    let target = case.fire_lines.last().expect("non-empty").clone();
    let spots = [(20, 20), (180, 170), (100, 40), (20, 20), (60, 190)];
    let mut arena = case.sim.arena();
    for (n, &spot) in spots.iter().enumerate() {
        for kernel in KERNELS {
            let ctx = StepContext::new(
                Arc::clone(&case.sim),
                FireLine::from_cells(rows, cols, &[spot, (spot.0 + 3, spot.1 - 2)]),
                target.clone(),
                10.0,
                55.0,
            )
            .with_kernel(kernel);
            let what = format!("spot {n} {kernel}");
            checked_fitness(&ctx, &case.truth[0], &mut arena, &what);
        }
    }
}

#[test]
fn unburnable_lit_cells_and_empty_seed_sets() {
    // `firebreak_maze` threads code-0 corridors through the mosaic.
    let case = cases::by_name("firebreak_maze").expect("corpus case");
    let terrain = case.sim.terrain();
    let (rows, cols) = (terrain.rows(), terrain.cols());
    let fuel = terrain.fuel_layer().expect("mosaic has a fuel layer");
    let rock: Vec<(usize, usize)> = fuel
        .iter_cells()
        .filter(|&(_, &code)| code == 0)
        .map(|(rc, _)| rc)
        .step_by(97)
        .take(6)
        .collect();
    assert_eq!(rock.len(), 6, "the maze has firebreak cells");
    let ignition = case.fire_lines[0].burned_cells();
    let truth = &case.truth[0];
    let target = case.fire_lines.last().expect("non-empty");
    let mut arena = case.sim.arena();
    for kernel in KERNELS {
        // Lit cells that cannot burn ride along with ones that can.
        let mixed: Vec<_> = rock.iter().chain(&ignition).copied().collect();
        let from = FireLine::from_cells(rows, cols, &mixed);
        let ctx = StepContext::new(
            Arc::clone(&case.sim),
            from.clone(),
            from.union(target),
            0.0,
            25.0,
        )
        .with_kernel(kernel);
        let f = checked_fitness(&ctx, truth, &mut arena, &format!("mixed seeds {kernel}"));
        assert!(f > 0.0 && f < 1.0, "mixed seeds {kernel}: {f}");

        // Nothing burnable lit: the run writes nothing. With nothing new
        // observed either, the union is empty and the score is 1 …
        let from = FireLine::from_cells(rows, cols, &rock);
        let ctx = StepContext::new(Arc::clone(&case.sim), from.clone(), from.clone(), 0.0, 25.0)
            .with_kernel(kernel);
        let f = checked_fitness(&ctx, truth, &mut arena, &format!("empty seeds {kernel}"));
        assert_eq!(f, 1.0, "empty union {kernel}");
        // … and with growth observed, every new cell is a miss.
        let ctx = StepContext::new(
            Arc::clone(&case.sim),
            from.clone(),
            from.union(target),
            0.0,
            25.0,
        )
        .with_kernel(kernel);
        let f = checked_fitness(&ctx, truth, &mut arena, &format!("all missed {kernel}"));
        assert_eq!(f, 0.0, "all missed {kernel}");
    }
}
