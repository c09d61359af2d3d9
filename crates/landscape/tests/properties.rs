//! Property-style tests for the raster substrate invariants the rest of
//! the workspace relies on, checked over deterministic seeded streams of
//! random rasters.

use landscape::{jaccard, FireLine, Grid, IgnitionMap, ProbabilityMap, UNIGNITED};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 6;
const COLS: usize = 7;
const CASES: u64 = 64;

fn mask(rng: &mut StdRng) -> FireLine {
    let v: Vec<bool> = (0..ROWS * COLS).map(|_| rng.random::<bool>()).collect();
    FireLine::from_mask(Grid::from_vec(ROWS, COLS, v))
}

fn ignition_map(rng: &mut StdRng) -> IgnitionMap {
    // 3:1 mix of finite times and unignited cells, like the former
    // proptest strategy.
    let v: Vec<f64> = (0..ROWS * COLS)
        .map(|_| {
            if rng.random_range(0..4u32) < 3 {
                rng.random::<f64>() * 100.0
            } else {
                UNIGNITED
            }
        })
        .collect();
    IgnitionMap::from_grid(Grid::from_vec(ROWS, COLS, v))
}

/// Eq. (3) is bounded in [0, 1] for any pair of maps and any preburn.
#[test]
fn jaccard_bounded() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b, pre) = (mask(&mut rng), mask(&mut rng), mask(&mut rng));
        let j = jaccard(&a, &b, Some(&pre));
        assert!((0.0..=1.0).contains(&j));
    }
}

/// Eq. (3) is symmetric: intersection and union are symmetric sets.
#[test]
fn jaccard_symmetric() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (mask(&mut rng), mask(&mut rng));
        assert_eq!(
            jaccard(&a, &b, None).to_bits(),
            jaccard(&b, &a, None).to_bits()
        );
    }
}

/// A map compared with itself is a perfect prediction.
#[test]
fn jaccard_reflexive() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, pre) = (mask(&mut rng), mask(&mut rng));
        assert_eq!(jaccard(&a, &a, Some(&pre)), 1.0);
    }
}

/// Fire lines extracted at increasing instants are nested (the burned
/// region can only grow with time).
#[test]
fn fire_lines_nested_in_time() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = ignition_map(&mut rng);
        let t1 = rng.random::<f64>() * 100.0;
        let dt = rng.random::<f64>() * 100.0;
        let early = m.fire_line_at(t1);
        let late = m.fire_line_at(t1 + dt);
        assert!(early.is_subset_of(&late));
    }
}

/// Thresholding a probability map is antitone in Kign: a higher key
/// ignition value never enlarges the predicted burned area.
#[test]
fn threshold_antitone() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..8usize);
        let lines: Vec<FireLine> = (0..n).map(|_| mask(&mut rng)).collect();
        let mut pm = ProbabilityMap::new(ROWS, COLS);
        lines.iter().for_each(|l| pm.accumulate(l));
        let k1 = rng.random::<f64>();
        let k2 = rng.random::<f64>();
        let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        assert!(pm.threshold(hi).is_subset_of(&pm.threshold(lo)));
    }
}

/// Every aggregated fire line is a superset of the Kign=1 consensus and a
/// subset of the Kign→0⁺ union region.
#[test]
fn threshold_extremes_bracket_inputs() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..8usize);
        let lines: Vec<FireLine> = (0..n).map(|_| mask(&mut rng)).collect();
        let mut pm = ProbabilityMap::new(ROWS, COLS);
        lines.iter().for_each(|l| pm.accumulate(l));
        let consensus = pm.threshold(1.0);
        let eps = 1.0 / (lines.len() as f64 * 2.0);
        let union = pm.threshold(eps);
        for l in &lines {
            assert!(consensus.is_subset_of(l));
            assert!(l.is_subset_of(&union));
        }
    }
}

/// IQR is non-negative and zero for constant samples.
#[test]
fn iqr_nonnegative() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(0..40usize);
        let v: Vec<f64> = (0..n).map(|_| -1e3 + rng.random::<f64>() * 2e3).collect();
        assert!(landscape::metrics::iqr(&v) >= 0.0);
    }
    assert_eq!(landscape::metrics::iqr(&[2.5; 9]), 0.0);
}
