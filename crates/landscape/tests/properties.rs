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

/// One synthetic run of the Statistical Stage: an arrival raster and the
/// disjoint index ranges outside which every cell is [`UNIGNITED`] — the
/// contract of an arena run's written ranges.
struct Run {
    arrivals: Vec<f64>,
    ranges: Vec<std::ops::Range<usize>>,
}

/// The instant the runs are read at.
const T1: f64 = 50.0;

/// A run in one of the shapes a caller may report: per-row spans of a
/// window (some cells inside them unignited or later than [`T1`]) plus
/// single cells beyond it, out of order; the whole raster as one range (a
/// reference kernel run, which tracks nothing); or nothing at all.
fn run(rng: &mut StdRng) -> Run {
    let n = ROWS * COLS;
    let mut arrivals = vec![UNIGNITED; n];
    let mut ranges = Vec::new();
    let mut ignite = |rng: &mut StdRng, cells: std::ops::Range<usize>| {
        for idx in cells {
            if rng.random_range(0..4u32) < 3 {
                arrivals[idx] = rng.random::<f64>() * 100.0;
            }
        }
    };
    match rng.random_range(0..4u32) {
        0 => {}
        1 => {
            ignite(rng, 0..n);
            ranges.push(0..n);
        }
        _ => {
            let (r0, r1) = (rng.random_range(0..ROWS), rng.random_range(0..ROWS));
            let (c0, c1) = (rng.random_range(0..COLS), rng.random_range(0..COLS));
            let window_cols = c0.min(c1)..c0.max(c1) + 1;
            for row in r0.min(r1)..=r0.max(r1) {
                if rng.random_range(0..5u32) == 0 {
                    continue; // a window row the run never wrote
                }
                let lo = rng.random_range(window_cols.clone());
                let hi = rng.random_range(lo..window_cols.end) + 1;
                ignite(rng, row * COLS + lo..row * COLS + hi);
                ranges.push(row * COLS + lo..row * COLS + hi);
            }
            // Strays: single cells anywhere no span covers.
            for _ in 0..rng.random_range(0..4u32) {
                let idx = rng.random_range(0..n);
                if !ranges.iter().any(|r| r.contains(&idx)) {
                    ignite(rng, idx..idx + 1);
                    ranges.push(idx..idx + 1);
                }
            }
        }
    }
    Run { arrivals, ranges }
}

/// A result set of 0–7 runs folded two ways: from the written ranges, and
/// densely from each run's materialised fire line.
fn folded(rng: &mut StdRng) -> (ProbabilityMap, ProbabilityMap, Vec<FireLine>) {
    let runs: Vec<Run> = (0..rng.random_range(0..8usize)).map(|_| run(rng)).collect();
    let mut spans = ProbabilityMap::new(ROWS, COLS);
    let mut dense = ProbabilityMap::new(ROWS, COLS);
    let mut lines = Vec::new();
    for run in &runs {
        spans.accumulate_ranges(&run.arrivals, |&t| t <= T1, run.ranges.iter().cloned(), 1);
        let map = IgnitionMap::from_grid(Grid::from_vec(ROWS, COLS, run.arrivals.clone()));
        let line = map.fire_line_at(T1);
        dense.accumulate(&line);
        lines.push(line);
    }
    (spans, dense, lines)
}

/// The map fed from written ranges is the map fed from whole fire lines:
/// same counts, same sample count, same levels — and both agree with a
/// recount from the lines, cell by cell.
#[test]
fn span_fed_map_equals_the_dense_fold() {
    let (mut empty, mut overlapping, mut single) = (0, 0, 0);
    for seed in 0..4 * CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (spans, dense, lines) = folded(&mut rng);
        assert_eq!(spans, dense, "seed {seed}");
        assert_eq!(spans.samples() as usize, lines.len());
        let mut recount = Vec::new();
        for r in 0..ROWS {
            for c in 0..COLS {
                let count = lines.iter().filter(|l| l.is_burned(r, c)).count();
                let p = match lines.len() {
                    0 => 0.0,
                    n => count as f64 / n as f64,
                };
                assert_eq!(spans.probability(r, c), p, "seed {seed} cell ({r}, {c})");
                recount.push((count, p));
            }
        }
        recount.sort_by_key(|&(count, _)| count);
        recount.dedup();
        let levels: Vec<f64> = recount.iter().map(|&(_, p)| p).collect();
        assert_eq!(spans.distinct_levels(), levels, "seed {seed}");
        // Everything outside the touched ranges is count 0.
        let touched: Vec<_> = spans.touched_ranges().collect();
        assert!(touched.windows(2).all(|w| w[0].end <= w[1].start));
        for idx in (0..ROWS * COLS).filter(|i| !touched.iter().any(|r| r.contains(i))) {
            assert_eq!(spans.probability(idx / COLS, idx % COLS), 0.0);
        }
        empty += usize::from(lines.iter().all(|l| l.burned_area() == 0));
        overlapping += usize::from(recount.iter().any(|&(count, _)| count > 1));
        single += usize::from(lines.len() == 1);
    }
    // The stream reaches the shapes the fold could get wrong.
    assert!(empty > 0 && overlapping > 0 && single > 0);
}

/// A run folded once with multiplicity `k` is the same run folded `k`
/// times: the same counts, samples and cover, whatever was folded before
/// it — so the stage tail may simulate a repeated result set member once.
#[test]
fn a_fold_with_multiplicity_k_is_k_unit_folds() {
    let mut repeated = 0;
    for seed in 0..4 * CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut once, _, _) = folded(&mut rng);
        let mut unit = once.clone();
        for _ in 0..rng.random_range(1..4usize) {
            let run = run(&mut rng);
            let k = rng.random_range(1..5u32);
            let burned = |&t: &f64| t <= T1;
            once.accumulate_ranges(&run.arrivals, burned, run.ranges.iter().cloned(), k);
            for _ in 0..k {
                unit.accumulate_ranges(&run.arrivals, burned, run.ranges.iter().cloned(), 1);
            }
            repeated += usize::from(k > 1);
        }
        assert_eq!(once, unit, "seed {seed}: counts or samples");
        assert_eq!(once.samples(), unit.samples(), "seed {seed}");
        assert!(
            once.touched_ranges().eq(unit.touched_ranges()),
            "seed {seed}: cover"
        );
    }
    assert!(repeated > 0);
}

/// Every threshold scored from the histogram — `Kign` 0, each level, a
/// value between neighbouring levels, 1 — has exactly the contingency
/// counts of thresholding the raster and tallying it, with and without a
/// pre-burn mask; and the level curve is the dense search's curve.
#[test]
fn histogram_scores_equal_threshold_plus_jaccard() {
    use landscape::metrics::jaccard_breakdown;
    use landscape::{LevelHistogram, Observed};
    let mut hist = LevelHistogram::default();
    for seed in 0..4 * CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (map, _, _) = folded(&mut rng);
        let (real, pre) = (mask(&mut rng), mask(&mut rng));
        for preburn in [None, Some(&pre)] {
            map.histogram_into(&Observed::scan(&real, preburn), &mut hist);
            assert_eq!(hist.samples(), map.samples() as usize);
            let touched: usize = map.touched_ranges().map(|r| r.len()).sum();
            assert_eq!(hist.visited(), touched);
            let levels = map.distinct_levels();
            let mut kigns = vec![0.0, 1.0];
            kigns.extend(&levels);
            kigns.extend(levels.windows(2).map(|w| (w[0] + w[1]) / 2.0));
            for kign in kigns {
                assert_eq!(
                    hist.breakdown_where(|p| p >= kign),
                    jaccard_breakdown(&real, &map.threshold(kign), preburn),
                    "seed {seed} kign {kign}"
                );
            }
            let curve: Vec<(f64, f64)> = levels
                .iter()
                .map(|&l| (l, jaccard(&real, &map.threshold(l), preburn)))
                .collect();
            assert_eq!(hist.levels().collect::<Vec<_>>(), curve, "seed {seed}");
        }
    }
}
