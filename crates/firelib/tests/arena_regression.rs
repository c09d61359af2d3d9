//! Regression pin: exact arrival times on a known heterogeneous terrain.
//!
//! The `SimArena` refactor rearranged every buffer in the propagation
//! engine while promising *bit-identical* output. This test freezes that
//! promise against a fixed landscape that exercises all override layers at
//! once — a fuel stripe pattern (including a firebreak), a slope gradient,
//! an aspect split and a wind modulation field — by pinning the `f64`
//! arrival times of a spread of probe cells to within a sliver of relative
//! error (the constants were generated on glibc; transcendental last bits
//! vary per libm). If any future change to the spread table caching, heap
//! handling or traversal order shifts an arrival time, this fails; the
//! structural bit-identity across kernels and the simulate /
//! simulate_into / simulate_arena entry points is the kernel conformance
//! matrix of `src/sim/tests/conformance.rs`.
//!
//! The pinned constants were produced by this same terrain/scenario pair
//! at the time the arena refactor landed (they matched the pre-refactor
//! engine bit for bit).

use firelib::{FireSim, Scenario, Terrain};
use landscape::{FireLine, Grid, UNIGNITED};

/// A 12×12 terrain exercising fuel, slope, aspect and wind layers at once.
fn pinned_terrain() -> Terrain {
    let n = 12usize;
    // Fuel: vertical stripes 1,2,4,10 with a firebreak column at 8.
    let fuel = Grid::from_fn(n, n, |_, c| match c {
        8 => 0u8,
        _ => [1u8, 2, 4, 10][c % 4],
    });
    // Slope rises linearly to the north; aspect flips by hemisphere.
    let slope = Grid::from_fn(n, n, |r, _| (22.0 - (r as f64) * 1.5).max(0.0));
    let aspect = Grid::from_fn(n, n, |_, c| if c < n / 2 { 135.0 } else { 315.0 });
    // Wind: speed doubles towards the east, direction veers linearly.
    let wind_factor = Grid::from_fn(n, n, |_, c| 0.6 + c as f64 * 0.1);
    let wind_veer = Grid::from_fn(n, n, |r, _| -20.0 + r as f64 * 4.0);
    Terrain::uniform(n, n, 100.0)
        .with_fuel(fuel)
        .with_slope(slope)
        .with_aspect(aspect)
        .with_wind(wind_factor, wind_veer)
}

fn pinned_scenario() -> Scenario {
    Scenario {
        model: 1, // shadowed by the fuel layer everywhere
        wind_speed_mph: 9.0,
        wind_dir_deg: 70.0,
        m1_pct: 5.0,
        m10_pct: 7.0,
        m100_pct: 9.0,
        mherb_pct: 95.0,
        slope_deg: 10.0, // shadowed by the slope layer
        aspect_deg: 0.0, // shadowed by the aspect layer
    }
}

/// Probe cells across the map and their exact expected arrival times
/// (minutes; `UNIGNITED` for cells the fire must never reach).
const PINNED: &[(usize, usize, f64)] = &[
    (6, 2, 0.0),
    (6, 3, 1.2000591775258833),
    (6, 5, 11.59068230150558),
    (6, 7, 13.767762512598637),
    (6, 9, UNIGNITED),
    (5, 2, 7.2401414787349685),
    (4, 2, 13.72949177461063),
    (2, 2, 24.498232742440234),
    (0, 2, 32.47758860272352),
    (8, 2, 26.02027696295653),
    (10, 2, 49.04182526750915),
    (11, 2, 59.45079633434922),
    (3, 5, 19.472626418754587),
    (9, 5, 27.28368139517143),
    (0, 0, 69.77080348228637),
    (11, 7, 38.98157722535638),
    (1, 7, 22.353095183747136),
];

#[test]
fn arrival_times_are_pinned() {
    let sim = FireSim::new(pinned_terrain());
    let ignition = FireLine::from_cells(12, 12, &[(6, 2)]);
    let mut arena = sim.arena();
    let map = sim.simulate_arena(&pinned_scenario(), &ignition, 0.0, 240.0, &mut arena);
    for &(r, c, expected) in PINNED {
        let got = map.time(r, c);
        // The constants were generated on glibc; arrival times flow through
        // tan/atan2 whose last bits vary across libm implementations, so the
        // pin tolerates a sliver of relative error instead of exact bits.
        let ok = if expected == UNIGNITED {
            got == UNIGNITED
        } else {
            (got - expected).abs() <= 1e-9 * expected.max(1.0)
        };
        assert!(ok, "cell ({r},{c}): expected {expected:?}, got {got:?}");
    }
}

/// The firebreak column and everything behind it stay untouched.
#[test]
fn firebreak_column_blocks_eastward_spread() {
    let sim = FireSim::new(pinned_terrain());
    let ignition = FireLine::from_cells(12, 12, &[(6, 2)]);
    let map = sim.simulate(&pinned_scenario(), &ignition, 0.0, 1e5);
    for r in 0..12 {
        assert_eq!(map.time(r, 8), UNIGNITED, "firebreak cell ({r},8) ignited");
        for c in 9..12 {
            assert_eq!(map.time(r, c), UNIGNITED, "({r},{c}) behind break ignited");
        }
    }
    assert!(
        map.burned_count_at(1e5) > 20,
        "fire must burn the west side"
    );
}
