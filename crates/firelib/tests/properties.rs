//! Property-style tests for the fire spread model and the propagation
//! engine: physical invariants that must hold for *every* scenario,
//! checked over deterministic seeded streams of random scenarios. That
//! every kernel writes the reference heap's raster bit for bit is the
//! kernel conformance matrix of `src/sim/tests/conformance.rs`.

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

/// A counted run's in/out split reads the target line's bits: it is the
/// byte-per-cell tally of the raster the run left (cells burned by `t1`,
/// seeds excluded), on shapes whose rows straddle words and whose tail
/// word is partial.
#[test]
fn burn_counts_read_the_lines_bits() {
    use firelib::{BurnCount, Kernel};
    use landscape::FireLine;
    let mut counted = 0;
    for (i, &(rows, cols)) in [(1, 1), (3, 64), (5, 65), (17, 129)].iter().enumerate() {
        let sim = FireSim::new(Terrain::uniform(rows, cols, 100.0));
        let (mut arena, start) = (sim.arena(), centre_ignition(rows, cols));
        let seeds = sim.seeds(&start);
        for seed in 0..CASES / 4 {
            let mut rng = StdRng::seed_from_u64(seed * 4 + i as u64);
            let bytes: Vec<bool> = (0..rows * cols).map(|_| rng.random()).collect();
            let line = FireLine::from_fn(rows, cols, |r, c| bytes[r * cols + c]);
            let (s, t1) = (scenario(&mut rng), rng.random_range(1.0..120.0));
            let mut count = BurnCount::new(&line, t1);
            let kernel = Kernel::Bucket;
            let map = sim.simulate_arena_seeded(
                &s,
                &seeds,
                0.0,
                120.0,
                &mut arena,
                kernel,
                Some(&mut count),
            );
            let arrivals = map.grid().as_slice();
            let burned = (0..rows * cols).filter(|&i| !start.bit(i) && arrivals[i] <= t1);
            let (inside, outside) = burned.fold((0, 0), |(a, b), i| match bytes[i] {
                true => (a + 1, b),
                false => (a, b + 1),
            });
            assert_eq!(
                (count.in_mask(), count.outside()),
                (inside, outside),
                "{rows}×{cols}, seed {seed}"
            );
            counted += inside.min(outside);
        }
    }
    assert!(counted > 0, "no run burned on both sides of a line");
}
