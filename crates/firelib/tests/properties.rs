//! Property-style tests for the fire spread model and the propagation
//! engine: physical invariants that must hold for *every* scenario,
//! checked over deterministic seeded streams of random scenarios.

use firelib::sim::centre_ignition;
use firelib::{FireSim, MoistureRegime, Scenario, ScenarioSpace, SpreadInputs, Terrain};
use landscape::UNIGNITED;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

fn scenario(rng: &mut StdRng) -> Scenario {
    let genes: Vec<f64> = (0..firelib::GENE_COUNT)
        .map(|_| rng.random::<f64>())
        .collect();
    ScenarioSpace.decode(&genes)
}

/// Any gene vector decodes to an in-range scenario (decode is total).
#[test]
fn decode_is_total() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let genes: Vec<f64> = (0..firelib::GENE_COUNT)
            .map(|_| -10.0 + rng.random::<f64>() * 20.0)
            .collect();
        let s = ScenarioSpace.decode(&genes);
        assert!(s.is_valid(), "genes {genes:?} decoded to invalid scenario");
    }
}

/// Encode/decode round-trips the fuel model and keeps genes in [0,1].
#[test]
fn encode_in_unit_cube() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scenario(&mut rng);
        let genes = ScenarioSpace.encode(&s);
        for g in genes {
            assert!((0.0..=1.0).contains(&g));
        }
        assert_eq!(ScenarioSpace.decode(&genes).model, s.model);
    }
}

/// The spread ellipse never spreads faster than its head rate in any
/// direction, and never negatively.
#[test]
fn directional_ros_bounded() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scenario(&mut rng);
        let az = rng.random::<f64>() * 360.0;
        let bed = firelib::FuelBed::new(firelib::FuelCatalog::standard().model(s.model).unwrap());
        let v = firelib::spread::wind_slope_max(&bed, &s.moisture(), &s.spread_inputs());
        let r = v.ros_at_azimuth(az);
        assert!(r >= 0.0);
        assert!(r <= v.ros_max + 1e-9);
    }
}

/// Eccentricity stays in [0, 1) for all scenarios.
#[test]
fn eccentricity_in_range() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scenario(&mut rng);
        let bed = firelib::FuelBed::new(firelib::FuelCatalog::standard().model(s.model).unwrap());
        let v = firelib::spread::wind_slope_max(&bed, &s.moisture(), &s.spread_inputs());
        assert!((0.0..1.0).contains(&v.eccentricity));
    }
}

/// More moisture never accelerates the no-wind spread rate.
#[test]
fn moisture_monotonicity() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = rng.random_range(1..14u32) as u8;
        let m_lo = 1.0 + rng.random::<f64>() * 29.0;
        let bump = rng.random::<f64>() * 25.0;
        let bed = firelib::FuelBed::new(firelib::FuelCatalog::standard().model(model).unwrap());
        let wet = |m: f64| MoistureRegime::from_percent(m, m, m, 150.0, 150.0);
        let lo = firelib::spread::no_wind_no_slope(&bed, &wet(m_lo)).0;
        let hi = firelib::spread::no_wind_no_slope(&bed, &wet(m_lo + bump)).0;
        assert!(
            hi <= lo + 1e-9,
            "ros({}) = {lo} < ros({}) = {hi}",
            m_lo,
            m_lo + bump
        );
    }
}

/// Stronger wind never slows the head fire.
#[test]
fn wind_monotonicity() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = rng.random_range(1..14u32) as u8;
        let w_lo = rng.random::<f64>() * 40.0;
        let bump = rng.random::<f64>() * 40.0;
        let bed = firelib::FuelBed::new(firelib::FuelCatalog::standard().model(model).unwrap());
        let m = MoistureRegime::moderate();
        let at = |mph: f64| {
            firelib::spread::wind_slope_max(
                &bed,
                &m,
                &SpreadInputs {
                    wind_fpm: mph * firelib::MPH_TO_FPM,
                    wind_azimuth: 0.0,
                    ..SpreadInputs::calm()
                },
            )
            .ros_max
        };
        assert!(at(w_lo + bump) >= at(w_lo) - 1e-9);
    }
}

/// Simulated ignition times respect the time horizon and include the
/// ignition instant.
#[test]
fn simulation_respects_horizon() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scenario(&mut rng);
        let dur = 10.0 + rng.random::<f64>() * 490.0;
        let sim = FireSim::new(Terrain::uniform(17, 17, 100.0));
        let map = sim.simulate(&s, &centre_ignition(17, 17), 0.0, dur);
        for ((r, c), &t) in map.grid().iter_cells() {
            if t == UNIGNITED {
                continue;
            }
            assert!(
                (0.0..=dur + 1e-9).contains(&t),
                "cell ({r},{c}) at {t} breaks horizon {dur}"
            );
        }
        assert!(map.time(8, 8) == 0.0 || map.burned_count_at(dur) == 0);
    }
}

/// Burned area is monotone in the horizon for a fixed scenario.
#[test]
fn burned_area_monotone_in_duration() {
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scenario(&mut rng);
        let d1 = 10.0 + rng.random::<f64>() * 190.0;
        let extra = rng.random::<f64>() * 300.0;
        let sim = FireSim::new(Terrain::uniform(15, 15, 100.0));
        let a1 = sim
            .simulate(&s, &centre_ignition(15, 15), 0.0, d1)
            .burned_count_at(d1);
        let a2 = sim
            .simulate(&s, &centre_ignition(15, 15), 0.0, d1 + extra + 1.0)
            .burned_count_at(d1 + extra + 1.0);
        assert!(a2 >= a1);
    }
}

/// Every ignited cell (except the seeds) has an already-ignited neighbour
/// with an earlier time: fire does not teleport.
#[test]
fn no_teleportation() {
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scenario(&mut rng);
        let sim = FireSim::new(Terrain::uniform(13, 13, 100.0));
        let map = sim.simulate(&s, &centre_ignition(13, 13), 0.0, 400.0);
        for ((r, c), &t) in map.grid().iter_cells() {
            if t == UNIGNITED || t == 0.0 {
                continue;
            }
            let has_earlier_neighbour = map
                .grid()
                .neighbours8(r, c)
                .any(|(nr, nc, _)| map.time(nr, nc) < t);
            assert!(
                has_earlier_neighbour,
                "cell ({r},{c}) ignited at {t} with no earlier neighbour"
            );
        }
    }
}

/// Every corpus workload is *valid*: the requested ignitions land in
/// bounds on burnable ground, a positive fraction of the landscape can
/// burn, and simulating the hidden truth produces a non-empty, growing
/// reference fire — so the full calibration → prediction pipeline can run
/// on every named workload.
#[test]
fn every_corpus_workload_is_valid() {
    use firelib::combustion::standard_beds;
    let beds = standard_beds();
    for spec in firelib::workload::corpus() {
        let w = spec.build();
        assert_eq!(
            (w.ignition.rows(), w.ignition.cols()),
            (w.terrain.rows(), w.terrain.cols()),
            "{}: ignition raster shape",
            spec.name
        );
        assert_eq!(
            w.ignition.burned_area(),
            spec.ignitions,
            "{}: ignition count",
            spec.name
        );
        for (r, c) in w.ignition.burned_cells() {
            let code = w.terrain.fuel_at(r, c, w.truth[0].model);
            assert!(
                beds[code as usize].burnable,
                "{}: ignition ({r},{c}) on unburnable fuel {code}",
                spec.name
            );
        }
        let frac = w.burnable_fraction();
        assert!(
            frac > 0.25,
            "{}: burnable fraction {frac} too low",
            spec.name
        );
        let sim = w.sim();
        let reference = w.reference_lines(&sim);
        assert_eq!(reference.len(), w.times.len(), "{}: line count", spec.name);
        for pair in reference.windows(2) {
            assert!(
                pair[0].is_subset_of(&pair[1]),
                "{}: reference fire regressed",
                spec.name
            );
        }
        let final_area = reference.last().unwrap().burned_area();
        assert!(
            final_area > w.ignition.burned_area(),
            "{}: reference fire never grew ({} cells)",
            spec.name,
            final_area
        );
    }
}

/// `simulate`, `simulate_into` and `simulate_arena` are bit-identical on a
/// heterogeneous workload (fuel mosaic + gusty wind → the per-cell spread
/// path), across random scenarios and with the arena reused between them.
#[test]
fn simulate_variants_bit_identical_on_heterogeneous_workload() {
    use landscape::IgnitionMap;
    let w = firelib::workload::gusty_channel().shrunk(32).build();
    let sim = w.sim();
    let mut arena = sim.arena();
    let mut into_map = IgnitionMap::unignited(w.terrain.rows(), w.terrain.cols());
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = scenario(&mut rng);
        let fresh = sim.simulate(&s, &w.ignition, 0.0, 90.0);
        sim.simulate_into(&s, &w.ignition, 0.0, 90.0, &mut into_map);
        let via_arena = sim.simulate_arena(&s, &w.ignition, 0.0, 90.0, &mut arena);
        let bits = |m: &IgnitionMap| -> Vec<u64> {
            m.grid().as_slice().iter().map(|t| t.to_bits()).collect()
        };
        assert_eq!(bits(&fresh), bits(&into_map), "seed {seed}: into diverged");
        assert_eq!(bits(&fresh), bits(via_arena), "seed {seed}: arena diverged");
    }
}

/// The bucket-queue kernel is bit-for-bit identical to the reference
/// heap kernel on *every* landscape: random non-square terrains with fuel
/// mosaics, slopes, aspects and per-cell wind fields, random scenarios,
/// random durations and 1–4 scattered ignitions — with both arenas reused
/// across every case, so the dirty-span reset path is exercised between
/// landscapes of different shapes. This is the equivalence contract the
/// Dial-style wavefront sweep is pinned to (exact f64, no tolerance).
#[test]
fn bucket_kernel_bit_identical_on_random_landscapes() {
    use firelib::sim::Kernel;
    use landscape::{FireLine, Grid};
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(0xD1A1 + seed);
        // Non-square on both orientations across the stream.
        let (rows, cols) = if seed % 2 == 0 {
            (11 + (seed as usize % 7), 19 + (seed as usize % 5))
        } else {
            (21 + (seed as usize % 5), 12 + (seed as usize % 7))
        };
        let fuel = Grid::from_fn(rows, cols, |_, _| rng.random_range(0..14u32) as u8);
        let slope = Grid::from_fn(rows, cols, |_, _| rng.random::<f64>() * 40.0);
        let aspect = Grid::from_fn(rows, cols, |_, _| rng.random::<f64>() * 360.0);
        let speed = Grid::from_fn(rows, cols, |_, _| 0.25 + rng.random::<f64>() * 1.75);
        let dir = Grid::from_fn(rows, cols, |_, _| (rng.random::<f64>() - 0.5) * 90.0);
        let terrain = Terrain::uniform(rows, cols, 60.0 + rng.random::<f64>() * 80.0)
            .with_fuel(fuel)
            .with_slope(slope)
            .with_aspect(aspect)
            .with_wind(speed, dir);
        let mut ignition = FireLine::empty(rows, cols);
        for _ in 0..rng.random_range(1..5u32) {
            ignition.set_burned(rng.random_range(0..rows), rng.random_range(0..cols), true);
        }
        let s = scenario(&mut rng);
        let duration = 20.0 + rng.random::<f64>() * 400.0;

        let sim = FireSim::new(terrain);
        let mut heap_arena = sim.arena();
        let mut bucket_arena = sim.arena();
        // Two back-to-back runs per kernel: the second starts from a dirty
        // arena, so any under-reset from the span bookkeeping shows up.
        for round in 0..2 {
            let reference = sim
                .simulate_arena_kernel(&s, &ignition, 0.0, duration, &mut heap_arena, Kernel::Heap)
                .clone();
            let bucket = sim.simulate_arena_kernel(
                &s,
                &ignition,
                0.0,
                duration,
                &mut bucket_arena,
                Kernel::Bucket,
            );
            let bits = |m: &landscape::IgnitionMap| -> Vec<u64> {
                m.grid().as_slice().iter().map(|t| t.to_bits()).collect()
            };
            assert_eq!(
                bits(&reference),
                bits(bucket),
                "seed {seed} round {round} ({rows}x{cols}): kernels diverged"
            );
        }
    }
}

/// The tiled parallel kernel is bit-for-bit identical to BOTH the
/// reference heap kernel and the bucket kernel on *every* landscape:
/// random non-square terrains with fuel mosaics, slopes, aspects and
/// per-cell wind fields, random scenarios and durations, 1–4 scattered
/// ignitions — swept across degenerate tile shapes (1-cell tiles, a tile
/// larger than the grid, non-divisible edges) and worker counts
/// {1, 2, 8}, with the tiled arena reused dirty across every case so the
/// span-reset path is exercised between landscapes of different shapes.
/// Exact f64 raster bits, no tolerance: the defer-all drain plus ordered
/// merge must realize the heap's pop sequence literally.
#[test]
fn tiled_kernel_bit_identical_on_random_landscapes() {
    use firelib::sim::Kernel;
    use landscape::{FireLine, Grid};
    let configs = [(1usize, 2usize), (3, 8), (5, 1), (13, 2), (1000, 8)];
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(0x711E + seed);
        let (rows, cols) = if seed % 2 == 0 {
            (11 + (seed as usize % 7), 19 + (seed as usize % 5))
        } else {
            (21 + (seed as usize % 5), 12 + (seed as usize % 7))
        };
        let fuel = Grid::from_fn(rows, cols, |_, _| rng.random_range(0..14u32) as u8);
        let slope = Grid::from_fn(rows, cols, |_, _| rng.random::<f64>() * 40.0);
        let aspect = Grid::from_fn(rows, cols, |_, _| rng.random::<f64>() * 360.0);
        let speed = Grid::from_fn(rows, cols, |_, _| 0.25 + rng.random::<f64>() * 1.75);
        let dir = Grid::from_fn(rows, cols, |_, _| (rng.random::<f64>() - 0.5) * 90.0);
        let terrain = Terrain::uniform(rows, cols, 60.0 + rng.random::<f64>() * 80.0)
            .with_fuel(fuel)
            .with_slope(slope)
            .with_aspect(aspect)
            .with_wind(speed, dir);
        let mut ignition = FireLine::empty(rows, cols);
        for _ in 0..rng.random_range(1..5u32) {
            ignition.set_burned(rng.random_range(0..rows), rng.random_range(0..cols), true);
        }
        let s = scenario(&mut rng);
        let duration = 20.0 + rng.random::<f64>() * 400.0;
        let (tile, workers) = configs[seed as usize % configs.len()];

        let sim = FireSim::new(terrain);
        let mut heap_arena = sim.arena();
        let mut bucket_arena = sim.arena();
        let mut tiled_arena = sim.arena();
        // Two back-to-back runs per kernel: the second starts from a dirty
        // arena, so any under-reset from the span bookkeeping shows up.
        for round in 0..2 {
            let reference = sim
                .simulate_arena_kernel(&s, &ignition, 0.0, duration, &mut heap_arena, Kernel::Heap)
                .clone();
            let bucket = sim
                .simulate_arena_kernel(
                    &s,
                    &ignition,
                    0.0,
                    duration,
                    &mut bucket_arena,
                    Kernel::Bucket,
                )
                .clone();
            let tiled = sim.simulate_arena_kernel(
                &s,
                &ignition,
                0.0,
                duration,
                &mut tiled_arena,
                Kernel::Tiled { tile, workers },
            );
            let bits = |m: &landscape::IgnitionMap| -> Vec<u64> {
                m.grid().as_slice().iter().map(|t| t.to_bits()).collect()
            };
            assert_eq!(
                bits(&reference),
                bits(tiled),
                "seed {seed} round {round} ({rows}x{cols}, tile {tile}, workers {workers}): \
                 tiled diverged from heap"
            );
            assert_eq!(
                bits(&bucket),
                bits(tiled),
                "seed {seed} round {round} ({rows}x{cols}, tile {tile}, workers {workers}): \
                 tiled diverged from bucket"
            );
        }
    }
}

/// The three kernels agree on the *named* large landscapes too —
/// `archipelago_large` plus the XL tier, shrunk to ≤ 64 cells per side —
/// over a seeded batch of wind perturbations around each workload's
/// truth (the calibration-stage access pattern in miniature). One tiled
/// arena serves both tile configurations and every scenario, so it is
/// always dirty from the previous run. Exact f64 raster bits.
#[test]
fn kernels_bit_identical_on_named_large_landscapes() {
    use firelib::sim::Kernel;
    use firelib::workload;
    let mut specs = vec![workload::archipelago_large()];
    specs.extend(workload::xl_corpus());
    for spec in specs.iter().map(|s| s.shrunk(64)) {
        let w = spec.build();
        let sim = w.sim();
        let (t0, dt) = (w.times[0], w.times[1] - w.times[0]);
        let base = w.truth[0];
        let mut rng = StdRng::seed_from_u64(0x1A2D ^ spec.seed);
        let mut scenarios = vec![base];
        for _ in 0..2 {
            scenarios.push(Scenario {
                wind_speed_mph: (base.wind_speed_mph + (rng.random::<f64>() * 2.0 - 1.0) * 2.0)
                    .clamp(0.0, 80.0),
                wind_dir_deg: landscape::geometry::normalize_azimuth(
                    base.wind_dir_deg + (rng.random::<f64>() * 2.0 - 1.0) * 30.0,
                ),
                ..base
            });
        }
        let bits = |m: &landscape::IgnitionMap| -> Vec<u64> {
            m.grid().as_slice().iter().map(|t| t.to_bits()).collect()
        };
        let mut heap_arena = sim.arena();
        let mut bucket_arena = sim.arena();
        let mut tiled_arena = sim.arena();
        for (i, s) in scenarios.iter().enumerate() {
            let run = |kernel, arena: &mut firelib::SimArena| {
                bits(sim.simulate_arena_kernel(s, &w.ignition, t0, dt, arena, kernel))
            };
            let heap = run(Kernel::Heap, &mut heap_arena);
            assert_eq!(
                heap,
                run(Kernel::Bucket, &mut bucket_arena),
                "{} scenario {i}: bucket diverged",
                spec.name
            );
            for tile in [16, 64] {
                assert_eq!(
                    heap,
                    run(Kernel::Tiled { tile, workers: 2 }, &mut tiled_arena),
                    "{} scenario {i}: tiled (tile {tile}) diverged",
                    spec.name
                );
            }
        }
    }
}

/// Multi-ignition fronts on non-square grids with a per-cell wind field:
/// every seeded front contributes (each seed cell is in the map at t0),
/// merged fronts still obey the adjacency invariant, and the wind layers
/// actually shear the spread (the `with_wind` layers are not dead weight).
#[test]
fn multi_ignition_with_wind_on_non_square_grids() {
    use landscape::{FireLine, Grid};
    for &(rows, cols) in &[(13usize, 29usize), (31usize, 12usize)] {
        let mut rng = StdRng::seed_from_u64(rows as u64 * 31 + cols as u64);
        // A strong asymmetric wind field: speed factor grows with the
        // column, direction offset fixed — enough to shear the ellipses.
        let speed = Grid::from_fn(rows, cols, |_, c| 0.5 + 2.0 * c as f64 / cols as f64);
        let dir = Grid::from_fn(rows, cols, |_, _| 30.0);
        let terrain = Terrain::uniform(rows, cols, 100.0).with_wind(speed, dir);
        let calm = Terrain::uniform(rows, cols, 100.0);

        let mut ignition = FireLine::empty(rows, cols);
        let seeds = [
            (rows / 4, cols / 4),
            (rows / 4, 3 * cols / 4),
            (3 * rows / 4, cols / 2),
        ];
        for &(r, c) in &seeds {
            ignition.set_burned(r, c, true);
        }
        let s = Scenario {
            wind_speed_mph: 9.0,
            wind_dir_deg: rng.random::<f64>() * 360.0,
            ..Scenario::reference()
        };
        let sim = FireSim::new(terrain);
        let map = sim.simulate(&s, &ignition, 0.0, 45.0);
        for &(r, c) in &seeds {
            assert_eq!(map.time(r, c), 0.0, "seed ({r},{c}) lost");
        }
        for ((r, c), &t) in map.grid().iter_cells() {
            if t == UNIGNITED || t == 0.0 {
                continue;
            }
            assert!(
                map.grid()
                    .neighbours8(r, c)
                    .any(|(nr, nc, _)| map.time(nr, nc) < t),
                "({r},{c}) ignited at {t} with no earlier neighbour"
            );
        }
        // The wind layers must change the outcome vs the calm terrain.
        let calm_map = FireSim::new(calm).simulate(&s, &ignition, 0.0, 45.0);
        assert_ne!(
            map.grid()
                .as_slice()
                .iter()
                .map(|t| t.to_bits())
                .collect::<Vec<_>>(),
            calm_map
                .grid()
                .as_slice()
                .iter()
                .map(|t| t.to_bits())
                .collect::<Vec<_>>(),
            "{rows}x{cols}: per-cell wind field had no effect"
        );
    }
}

/// The same, on a fuel-only mosaic — the per-fuel table-cache fast path
/// must be indistinguishable from the general path's results.
#[test]
fn fuel_cache_path_bit_identical() {
    let w = firelib::workload::patchwork_mosaic().shrunk(32).build();
    let sim = w.sim();
    assert!(
        sim.terrain().fuel_is_only_override(),
        "patchwork must take the per-fuel cache path"
    );
    let mut arena = sim.arena();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let s = scenario(&mut rng);
        let fresh = sim.simulate(&s, &w.ignition, 0.0, 120.0);
        let via_arena = sim.simulate_arena(&s, &w.ignition, 0.0, 120.0, &mut arena);
        assert_eq!(&fresh, via_arena, "seed {seed}");
    }
}

/// Frontier seeding is exact: the bucket and tiled kernels, which queue
/// only the seeds with a neighbour still to burn, are bit-identical to the
/// reference heap, which queues them all — on runs seeded the way a
/// prediction step seeds them, from a *previous run's burned mask*. Three
/// fire lines per landscape: the mask itself (ignited on the raster edge,
/// so lit cells sit there), its row-hull fill (a filled blob with
/// lit-but-unburnable and never-reached cells inside) and the whole raster
/// (all interior: nothing to queue). Each line is resolved into `Seeds`
/// once and reused across four scenarios, alternating with the per-call
/// resolution of the `&FireLine` entry point, so seeds resolved once ≡
/// seeds resolved per run. Every fourth landscape has no fuel layer, and
/// its fourth scenario burns model 0: burnability is then global, and the
/// model turns every seed off at once. Every burnable lit cell must still
/// be written at `t0` and lie inside `written_ranges`; all three arenas
/// are reused dirty throughout.
#[test]
fn frontier_seeded_kernels_match_the_all_seeds_heap_on_burned_masks() {
    use firelib::combustion::standard_beds;
    use firelib::sim::Kernel;
    use landscape::{FireLine, Grid};
    let beds = standard_beds();
    let mut switched_off = 0;
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(0xF207 + seed);
        let (rows, cols) = (rng.random_range(9..26usize), rng.random_range(9..30usize));
        // Each layer present or absent, so all three table modes occur.
        let mut terrain = Terrain::uniform(rows, cols, 60.0 + rng.random::<f64>() * 80.0);
        if seed % 4 != 0 && rng.random_bool(0.7) {
            let fuel = Grid::from_fn(rows, cols, |_, _| rng.random_range(0..14u32) as u8);
            terrain = terrain.with_fuel(fuel);
        }
        if rng.random_bool(0.6) {
            let slope = Grid::from_fn(rows, cols, |_, _| rng.random::<f64>() * 40.0);
            terrain = terrain.with_slope(slope);
        }
        if rng.random_bool(0.6) {
            let speed = Grid::from_fn(rows, cols, |_, _| 0.25 + rng.random::<f64>() * 1.75);
            let dir = Grid::from_fn(rows, cols, |_, _| (rng.random::<f64>() - 0.5) * 90.0);
            terrain = terrain.with_wind(speed, dir);
        }
        let s = scenario(&mut rng);
        let mut ignition = FireLine::empty(rows, cols);
        ignition.set_burned(rng.random_range(0..rows), 0, true);
        ignition.set_burned(rows - 1, rng.random_range(0..cols), true);
        ignition.set_burned(rng.random_range(0..rows), rng.random_range(0..cols), true);
        let (t0, d1, d2) = (
            rng.random::<f64>() * 30.0,
            20.0 + rng.random::<f64>() * 200.0,
            10.0 + rng.random::<f64>() * 120.0,
        );
        let no_fuel = Scenario { model: 0, ..s };
        let scenarios = [s, scenario(&mut rng), scenario(&mut rng), no_fuel];
        let burns = |sc: &Scenario, r: usize, c: usize| {
            beds[terrain.fuel_at(r, c, sc.model) as usize].burnable
        };

        let sim = FireSim::new(terrain.clone());
        let t1 = t0 + d1;
        let burned = ignition.union(&sim.simulate(&s, &ignition, t0, d1).fire_line_at(t1));
        let mut hull = burned.clone();
        for r in 0..rows {
            let lit: Vec<usize> = (0..cols).filter(|&c| burned.mask().at(r, c)).collect();
            if let (Some(&lo), Some(&hi)) = (lit.first(), lit.last()) {
                (lo..=hi).for_each(|c| hull.set_burned(r, c, true));
            }
        }
        let all = FireLine::from_mask(Grid::filled(rows, cols, true));

        let mut heap_arena = sim.arena();
        let mut bucket_arena = sim.arena();
        let mut tiled_arena = sim.arena();
        let tiled = Kernel::Tiled {
            tile: 1 + seed as usize % 7,
            workers: 2,
        };
        let bits = |m: &landscape::IgnitionMap| -> Vec<u64> {
            m.grid().as_slice().iter().map(|t| t.to_bits()).collect()
        };
        for (what, line) in [("mask", &burned), ("hull", &hull), ("all", &all)] {
            let seeds = sim.seeds(line);
            for (k, sc) in scenarios.iter().enumerate() {
                let what = format!("seed {seed} ({rows}x{cols}), {what}, scenario {k}");
                let reference = bits(sim.simulate_arena_kernel(
                    sc,
                    line,
                    t1,
                    d2,
                    &mut heap_arena,
                    Kernel::Heap,
                ));
                let heap =
                    sim.simulate_arena_seeded(sc, &seeds, t1, d2, &mut heap_arena, Kernel::Heap);
                assert_eq!(
                    reference,
                    bits(heap),
                    "{what}: resolved seeds moved the heap"
                );
                let any_burns = line.burned_cells().iter().any(|&(r, c)| burns(sc, r, c));
                if terrain.fuel_layer().is_none() && !any_burns {
                    assert!(
                        reference.iter().all(|&t| t == UNIGNITED.to_bits()),
                        "{what}"
                    );
                    switched_off += 1;
                }
                for (kernel, arena) in [
                    (Kernel::Bucket, &mut bucket_arena),
                    (tiled, &mut tiled_arena),
                ] {
                    let per_call = sim.simulate_arena_kernel(sc, line, t1, d2, arena, kernel);
                    assert_eq!(reference, bits(per_call), "{what}: {kernel} diverged");
                    let map = sim.simulate_arena_seeded(sc, &seeds, t1, d2, arena, kernel);
                    assert_eq!(reference, bits(map), "{what}: {kernel} from resolved seeds");
                    let mut reported = vec![false; rows * cols];
                    for range in arena.written_ranges() {
                        reported[range].fill(true);
                    }
                    for (r, c) in line.burned_cells() {
                        let t = arena.map().time(r, c);
                        if burns(sc, r, c) {
                            assert_eq!(t, t1, "{what}: {kernel} lost seed ({r},{c})");
                            assert!(
                                reported[r * cols + c],
                                "{what}: {kernel} hid seed ({r},{c})"
                            );
                        } else {
                            assert_eq!(t, UNIGNITED, "{what}: {kernel} lit rock ({r},{c})");
                        }
                    }
                    for ((r, c), &t) in arena.map().grid().iter_cells() {
                        assert!(
                            t == UNIGNITED || reported[r * cols + c],
                            "{what}: {kernel} wrote ({r},{c}) outside written_ranges"
                        );
                    }
                }
            }
        }
    }
    assert!(
        switched_off > 0,
        "no run had its seeds switched off by the model"
    );
}

/// A pop reads its neighbours through flat index steps in the interior and
/// through the bounds-checked path on the raster border; both must relax
/// exactly as the reference heap does. Rasters with no interior at all (one
/// row, one column, two rows or columns), with one interior cell (3×3) and
/// with plenty, each ignited at every corner and edge midpoint, on all four
/// corners at once, along the whole border ring and — where there is room —
/// from a dense interior blob; uniform and fully layered terrains, bucket
/// and tiled against the heap, exact bits, arenas reused dirty.
#[test]
fn border_and_interior_relaxations_match_the_heap() {
    use firelib::sim::Kernel;
    use landscape::{FireLine, Grid};
    let shapes = [
        (1usize, 23usize),
        (19, 1),
        (2, 17),
        (15, 2),
        (3, 3),
        (3, 14),
        (13, 11),
        (24, 31),
    ];
    for (i, &(rows, cols)) in shapes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xB0DE + i as u64);
        let fuel = Grid::from_fn(rows, cols, |_, _| {
            [1u8, 2, 4, 10, 0][rng.random_range(0..5usize)]
        });
        let slope = Grid::from_fn(rows, cols, |_, _| rng.random::<f64>() * 40.0);
        let speed = Grid::from_fn(rows, cols, |_, _| 0.25 + rng.random::<f64>() * 1.75);
        let dir = Grid::from_fn(rows, cols, |_, _| (rng.random::<f64>() - 0.5) * 90.0);
        let terrains = [
            Terrain::uniform(rows, cols, 80.0),
            Terrain::uniform(rows, cols, 80.0)
                .with_fuel(fuel)
                .with_slope(slope)
                .with_wind(speed, dir),
        ];
        let (r1, c1) = (rows - 1, cols - 1);
        let points = [
            (0, 0),
            (0, c1),
            (r1, 0),
            (r1, c1),
            (0, cols / 2),
            (r1, cols / 2),
            (rows / 2, 0),
            (rows / 2, c1),
        ];
        let mut lines: Vec<FireLine> = points
            .iter()
            .map(|&p| FireLine::from_cells(rows, cols, &[p]))
            .collect();
        lines.push(FireLine::from_cells(rows, cols, &points[..4]));
        lines.push(FireLine::from_mask(Grid::from_fn(rows, cols, |r, c| {
            r == 0 || c == 0 || r == r1 || c == c1
        })));
        if rows >= 5 && cols >= 5 {
            lines.push(FireLine::from_mask(Grid::from_fn(rows, cols, |r, c| {
                (rows / 3..=2 * rows / 3).contains(&r) && (cols / 3..=2 * cols / 3).contains(&c)
            })));
        }
        let scenarios = [scenario(&mut rng), scenario(&mut rng)];
        let duration = 30.0 + rng.random::<f64>() * 300.0;
        let bits = |m: &landscape::IgnitionMap| -> Vec<u64> {
            m.grid().as_slice().iter().map(|t| t.to_bits()).collect()
        };
        for (k, terrain) in terrains.into_iter().enumerate() {
            let sim = FireSim::new(terrain);
            let mut heap_arena = sim.arena();
            let mut bucket_arena = sim.arena();
            let mut tiled_arena = sim.arena();
            let tiled = Kernel::Tiled {
                tile: 1 + i % 3,
                workers: 2,
            };
            for (l, line) in lines.iter().enumerate() {
                for (j, s) in scenarios.iter().enumerate() {
                    let what = format!("{rows}x{cols} terrain {k}, line {l}, scenario {j}");
                    let reference = bits(sim.simulate_arena_kernel(
                        s,
                        line,
                        5.0,
                        duration,
                        &mut heap_arena,
                        Kernel::Heap,
                    ));
                    // Firebreaks may sit under a layered terrain's ignition.
                    assert!(
                        k == 1 || reference.iter().any(|&t| t == 5.0f64.to_bits()),
                        "{what}: no seed burned"
                    );
                    for (kernel, arena) in [
                        (Kernel::Bucket, &mut bucket_arena),
                        (tiled, &mut tiled_arena),
                    ] {
                        let map = sim.simulate_arena_kernel(s, line, 5.0, duration, arena, kernel);
                        assert_eq!(reference, bits(map), "{what}: {kernel} diverged");
                    }
                }
            }
        }
    }
}
