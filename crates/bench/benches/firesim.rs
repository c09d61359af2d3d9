//! E4 — fire simulator kernel throughput: one full propagation per
//! (grid size × fuel model), the cost model underneath every other
//! experiment (the one copy of that loop: the harness writes exact
//! artifacts only) — evaluations seeded from a case's observed line, as a
//! prediction step makes them, of one repeated scenario and of a fresh
//! sampled stream, and a megacell fire in a few huge queue buckets —
//! plus the SimArena acceptance benchmark: the arena hot path against an
//! emulation of the pre-arena per-cell evaluation on the 200×200 corpus
//! workload.

#![allow(
    clippy::expect_used,
    reason = "a bench stops at its first failure, with its message"
)]

use ess_benches::microbench::{bench, group};
use firelib::sim::centre_ignition;
use firelib::spread::{wind_slope_max, SpreadInputs};
use firelib::{FireSim, Kernel, Scenario, ScenarioSpace, Terrain};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn main() {
    group("firesim (one 500-min propagation)");
    for &n in &[32usize, 64, 128] {
        for &model in &[1u8, 4, 10] {
            let sim = FireSim::new(Terrain::uniform(n, n, 100.0));
            let scenario = Scenario {
                model,
                wind_speed_mph: 10.0,
                ..Scenario::reference()
            };
            let ignition = centre_ignition(n, n);
            bench(&format!("NFFL{model:02} {n}x{n}"), 20, || {
                black_box(sim.simulate(black_box(&scenario), black_box(&ignition), 0.0, 500.0))
            });
        }
    }

    // Per-cell override path (the two_ridge terrain): measures the
    // per-cell spread-table cost relative to the uniform fast path.
    group("firesim_overrides");
    let n = 64usize;
    let mut slope = landscape::Grid::filled(n, n, 0.0f64);
    for r in 0..n {
        for c in 0..n {
            slope.set(r, c, (c % 20) as f64);
        }
    }
    let sim = FireSim::new(Terrain::uniform(n, n, 100.0).with_slope(slope));
    let scenario = Scenario {
        model: 2,
        wind_speed_mph: 8.0,
        ..Scenario::reference()
    };
    let ignition = centre_ignition(n, n);
    bench("per_cell_slope_64x64", 20, || {
        black_box(sim.simulate(&scenario, &ignition, 0.0, 500.0))
    });

    // Arena vs per-cell slope path: same terrain, reused buffers.
    let mut arena = sim.arena();
    bench("per_cell_slope_64x64 (arena)", 20, || {
        sim.simulate_arena(&scenario, &ignition, 0.0, 500.0, &mut arena);
        black_box(arena.map().burned_count_at(500.0))
    });

    // One evaluation the way a prediction step makes it: seeded from the
    // seeds a case resolves once per interval, over that interval. Each
    // way a pop resolves its table, and the kernel's costs where each
    // dominates — the one shared table of a uniform terrain on
    // meadow_small and one per fuel code on patchwork_mosaic (an addition
    // an edge, off the run's traversal times), a spread ellipse per
    // popped cell on gusty_channel (per-cell wind) and ridged_foothills
    // (per-cell slope and aspect under a global wind), the seeds on
    // archipelago_large, whose step-4 line is mostly interior (every seed
    // written, the front alone queued), and the megacell raster of
    // archipelago_xl, whose fronts are the largest the queue loads.
    // `firesim_seeded` repeats the case's truth scenario; `firesim_fresh`
    // is the search's traffic — a pass over 256 scenarios sampled once
    // with a fixed seed, none repeated back to back — where the frontier
    // queue's share of a run shows.
    let cases = [
        (firelib::workload::meadow_small(), 3usize),
        (firelib::workload::patchwork_mosaic(), 3),
        (firelib::workload::gusty_channel(), 3),
        (firelib::workload::ridged_foothills(), 3),
        (firelib::workload::archipelago_large(), 4),
        (firelib::workload::archipelago_xl(), 1),
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let fresh: Vec<Scenario> = (0..256).map(|_| ScenarioSpace.sample(&mut rng)).collect();
    for (title, stream) in [
        ("firesim_seeded (one interval from the observed line)", None),
        (
            "firesim_fresh (256 sampled scenarios from the observed line)",
            Some(&fresh),
        ),
    ] {
        group(title);
        for &(ref spec, interval) in &cases {
            let workload = spec.build();
            let sim = workload.sim();
            let lines = workload.reference_lines(&sim);
            let seeds = sim.seeds(&lines[interval - 1]);
            let (t0, t1) = (workload.times[interval - 1], workload.times[interval]);
            let truth = [workload.truth[interval - 1]];
            let mut arena = sim.arena();
            let label = format!(
                "{} interval {interval} ({} lit, {} on the front)",
                spec.name,
                seeds.cells().len(),
                seeds.front().len()
            );
            let (scenarios, iters) = stream.map_or((&truth[..], 200), |s| (&s[..], 20));
            bench(&label, iters, || {
                scenarios.iter().fold(0, |n, s| {
                    sim.simulate_arena_seeded(
                        s,
                        &seeds,
                        t0,
                        t1 - t0,
                        &mut arena,
                        Kernel::Bucket,
                        None,
                    );
                    n + arena.written_ranges().count()
                })
            });
        }
    }

    // Few buckets, each huge: the grass fire takes 5 000–8 000 min to
    // burn the raster, so a 10^6-min horizon (489-min buckets) puts it in
    // about 16 buckets of up to ~150 000 entries, each sorted once when
    // the cursor opens it, and a 10^8-min horizon puts it all in bucket
    // 0, where every push after the front goes to the queue's `late` heap.
    group("firesim_one_bucket (1000x1000 NFFL01 10 mph, centre ignition)");
    let n = 1000usize;
    let sim = FireSim::new(Terrain::uniform(n, n, 100.0));
    let scenario = Scenario {
        model: 1,
        wind_speed_mph: 10.0,
        ..Scenario::reference()
    };
    let ignition = centre_ignition(n, n);
    let mut arena = sim.arena();
    for (label, horizon) in [
        ("horizon 10^6 min", 1e6),
        ("horizon 10^8 min (bucket 0 only)", 1e8),
    ] {
        bench(label, 5, || {
            sim.simulate_arena(&scenario, &ignition, 0.0, horizon, &mut arena);
            black_box(arena.written_ranges().count())
        });
    }

    // The acceptance benchmark: one scenario evaluation on the 200×200
    // corpus workload, (a) emulating the pre-arena evaluation — a fresh
    // per-cell directional table plus a fresh-allocation simulate, exactly
    // the work the seed's simulate_into performed on a fuel mosaic — and
    // (b) on the SimArena hot path (per-fuel table cache + reused
    // buffers). The two propagations are asserted bit-identical first.
    group("workload archipelago_large (200x200 fuel mosaic)");
    let workload = firelib::workload::archipelago_large().build();
    let sim = workload.sim();
    let truth = workload.truth[0];
    let ignition = workload.ignition.clone();
    let horizon = *workload.times.last().expect("non-empty");

    let mut arena = sim.arena();
    let fresh = sim.simulate(&truth, &ignition, 0.0, horizon);
    let reused = sim.simulate_arena(&truth, &ignition, 0.0, horizon, &mut arena);
    assert_eq!(&fresh, reused, "arena path must be bit-identical");

    let beds = firelib::combustion::standard_beds();
    let terrain = sim.terrain();
    let (rows, cols) = (terrain.rows(), terrain.cols());
    let pre = bench("pre-arena emulation (per-cell tables)", 10, || {
        // The seed recomputed one directional table per cell per call …
        let mut tables = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let bed = &beds[terrain.fuel_at(r, c, truth.model) as usize];
                let table = if bed.burnable {
                    let inputs = SpreadInputs {
                        wind_fpm: truth.wind_speed_mph * firelib::MPH_TO_FPM,
                        wind_azimuth: truth.wind_dir_deg,
                        slope_steepness: truth.slope_deg.to_radians().tan(),
                        aspect_azimuth: truth.aspect_deg,
                    };
                    wind_slope_max(bed, &truth.moisture(), &inputs).compass_ros()
                } else {
                    [0.0; 8]
                };
                tables.push(table);
            }
        }
        black_box(&tables);
        // … and allocated the output map fresh.
        black_box(sim.simulate(&truth, &ignition, 0.0, horizon))
    });
    let arena_m = bench("SimArena hot path", 30, || {
        sim.simulate_arena(&truth, &ignition, 0.0, horizon, &mut arena);
        black_box(arena.map().burned_count_at(horizon))
    });
    println!(
        "\narena speedup on 200x200 workload: {:.2}x (min {:.3} ms -> {:.3} ms)",
        pre.min_ms / arena_m.min_ms,
        pre.min_ms,
        arena_m.min_ms
    );
}
