//! Property-style tests for the raster substrate invariants the rest of
//! the workspace relies on, checked over deterministic seeded streams of
//! random rasters. Shapes are drawn so the bit-packed fire line shows a
//! raster smaller than one word, an exact word row, rows that straddle
//! words and a tail word.

use landscape::{jaccard, perimeter_cells, FireLine, Grid, IgnitionMap, ProbabilityMap, UNIGNITED};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// `(rows, cols)` a stream draws from: 42 cells (under one word), 1 cell,
/// rows of exactly one word, rows one cell past a word, and a raster of
/// 35 words whose tail holds one cell.
const SHAPES: [(usize, usize); 5] = [(6, 7), (1, 1), (3, 64), (5, 65), (17, 129)];

fn shape(rng: &mut StdRng) -> (usize, usize) {
    SHAPES[rng.random_range(0..SHAPES.len())]
}

fn mask(rng: &mut StdRng, (rows, cols): (usize, usize)) -> FireLine {
    FireLine::from_fn(rows, cols, |_, _| rng.random::<bool>())
}

fn ignition_map(rng: &mut StdRng, (rows, cols): (usize, usize)) -> IgnitionMap {
    // 3:1 mix of finite times and unignited cells, like the former
    // proptest strategy.
    let v: Vec<f64> = (0..rows * cols)
        .map(|_| {
            if rng.random_range(0..4u32) < 3 {
                rng.random::<f64>() * 100.0
            } else {
                UNIGNITED
            }
        })
        .collect();
    IgnitionMap::from_grid(Grid::from_vec(rows, cols, v))
}

/// Eq. (3) is bounded in [0, 1] for any pair of maps and any preburn.
#[test]
fn jaccard_bounded() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let at = shape(&mut rng);
        let (a, b, pre) = (mask(&mut rng, at), mask(&mut rng, at), mask(&mut rng, at));
        let j = jaccard(&a, &b, Some(&pre));
        assert!((0.0..=1.0).contains(&j));
    }
}

/// Eq. (3) is symmetric: intersection and union are symmetric sets.
#[test]
fn jaccard_symmetric() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let at = shape(&mut rng);
        let (a, b) = (mask(&mut rng, at), mask(&mut rng, at));
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
        let at = shape(&mut rng);
        let (a, pre) = (mask(&mut rng, at), mask(&mut rng, at));
        assert_eq!(jaccard(&a, &a, Some(&pre)), 1.0);
    }
}

/// Fire lines extracted at increasing instants are nested (the burned
/// region can only grow with time).
#[test]
fn fire_lines_nested_in_time() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let at = shape(&mut rng);
        let m = ignition_map(&mut rng, at);
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
        let at = shape(&mut rng);
        let n = rng.random_range(1..8usize);
        let lines: Vec<FireLine> = (0..n).map(|_| mask(&mut rng, at)).collect();
        let mut pm = ProbabilityMap::new(at.0, at.1);
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
        let at = shape(&mut rng);
        let n = rng.random_range(1..8usize);
        let lines: Vec<FireLine> = (0..n).map(|_| mask(&mut rng, at)).collect();
        let mut pm = ProbabilityMap::new(at.0, at.1);
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
fn run(rng: &mut StdRng, (rows, cols): (usize, usize)) -> Run {
    let n = rows * cols;
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
            let (r0, r1) = (rng.random_range(0..rows), rng.random_range(0..rows));
            let (c0, c1) = (rng.random_range(0..cols), rng.random_range(0..cols));
            let window_cols = c0.min(c1)..c0.max(c1) + 1;
            for row in r0.min(r1)..=r0.max(r1) {
                if rng.random_range(0..5u32) == 0 {
                    continue; // a window row the run never wrote
                }
                let lo = rng.random_range(window_cols.clone());
                let hi = rng.random_range(lo..window_cols.end) + 1;
                ignite(rng, row * cols + lo..row * cols + hi);
                ranges.push(row * cols + lo..row * cols + hi);
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

/// A result set of 0–7 runs of shape `at` folded two ways: from the
/// written ranges, and densely from each run's materialised fire line.
fn folded(rng: &mut StdRng, at: (usize, usize)) -> (ProbabilityMap, ProbabilityMap, Vec<FireLine>) {
    let (rows, cols) = at;
    let runs: Vec<Run> = (0..rng.random_range(0..8usize))
        .map(|_| run(rng, at))
        .collect();
    let mut spans = ProbabilityMap::new(rows, cols);
    let mut dense = ProbabilityMap::new(rows, cols);
    let mut lines = Vec::new();
    for run in &runs {
        spans.accumulate_ranges(&run.arrivals, |&t| t <= T1, run.ranges.iter().cloned(), 1);
        let map = IgnitionMap::from_grid(Grid::from_vec(rows, cols, run.arrivals.clone()));
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
        let (rows, cols) = shape(&mut rng);
        let (spans, dense, lines) = folded(&mut rng, (rows, cols));
        assert_eq!(spans, dense, "seed {seed}");
        assert_eq!(spans.samples() as usize, lines.len());
        let mut recount = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
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
        for idx in (0..rows * cols).filter(|i| !touched.iter().any(|r| r.contains(i))) {
            assert_eq!(spans.probability(idx / cols, idx % cols), 0.0);
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
        let at = shape(&mut rng);
        let (mut once, _, _) = folded(&mut rng, at);
        let mut unit = once.clone();
        for _ in 0..rng.random_range(1..4usize) {
            let run = run(&mut rng, at);
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
        let at = shape(&mut rng);
        let (map, _, _) = folded(&mut rng, at);
        let (real, pre) = (mask(&mut rng, at), mask(&mut rng, at));
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

/// A byte-per-cell fire line: the reference the bit-packed operations
/// are held to.
#[derive(Clone)]
struct Bytes {
    cols: usize,
    cells: Vec<bool>,
}

impl Bytes {
    fn of(line: &FireLine) -> Self {
        let cells = (0..line.len()).map(|i| line.bit(i)).collect();
        Bytes {
            cols: line.cols(),
            cells,
        }
    }

    fn count(&self, keep: impl Fn(usize) -> bool) -> usize {
        (0..self.cells.len()).filter(|&i| keep(i)).count()
    }
}

/// The line holds the reference's cells, one word per 64 of them, and no
/// bit past its last cell.
fn assert_packs(line: &FireLine, want: &Bytes, what: &str) {
    let n = want.cells.len();
    assert_eq!(line.len(), n, "{what}: cells");
    assert_eq!(line.words().len(), n.div_ceil(64), "{what}: words");
    if !n.is_multiple_of(64) {
        let tail = line.words()[n / 64] >> (n % 64);
        assert_eq!(tail, 0, "{what}: bits past the last cell");
    }
    for (i, &b) in want.cells.iter().enumerate() {
        let (r, c) = (i / want.cols, i % want.cols);
        assert_eq!(
            (line.bit(i), line.is_burned(r, c)),
            (b, b),
            "{what}: cell {i}"
        );
    }
    assert_eq!(
        line.burned_area(),
        want.count(|i| want.cells[i]),
        "{what}: area"
    );
    let burned = (0..n).filter(|&i| want.cells[i]);
    let cells: Vec<_> = burned.map(|i| (i / want.cols, i % want.cols)).collect();
    assert_eq!(line.burned_cells(), cells, "{what}: burned cells");
}

/// Every bit-packed operation is its byte-per-cell reference, on shapes
/// whose rows straddle words and whose tail word is partial, and the
/// bits past the last cell stay zero through every mutation.
#[test]
fn bit_packed_lines_are_their_byte_masks() {
    use landscape::{LevelHistogram, Observed};
    let mut hist = LevelHistogram::default();
    for seed in 0..4 * CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, cols) = shape(&mut rng);
        let (mut a, b, pre) = (
            mask(&mut rng, (rows, cols)),
            mask(&mut rng, (rows, cols)),
            mask(&mut rng, (rows, cols)),
        );
        let (mut ra, rb, rp) = (Bytes::of(&a), Bytes::of(&b), Bytes::of(&pre));
        // Set and clear cells, the last one among them.
        for _ in 0..8 {
            let idx = match rng.random_range(0..3u32) {
                0 => rows * cols - 1,
                _ => rng.random_range(0..rows * cols),
            };
            let burned = rng.random::<bool>();
            a.set_burned(idx / cols, idx % cols, burned);
            ra.cells[idx] = burned;
            assert_packs(
                &a,
                &ra,
                &format!("seed {seed}: set_burned({idx}, {burned})"),
            );
        }
        let union = a.union(&b);
        let mut ru = ra.clone();
        ru.cells
            .iter_mut()
            .zip(&rb.cells)
            .for_each(|(u, &b)| *u |= b);
        assert_packs(&union, &ru, &format!("seed {seed}: union"));
        let subset = |x: &Bytes, y: &Bytes| x.cells.iter().zip(&y.cells).all(|(&x, &y)| !x || y);
        for (x, y, rx, ry) in [
            (&a, &b, &ra, &rb),
            (&a, &union, &ra, &ru),
            (&b, &a, &rb, &ra),
        ] {
            assert_eq!(
                x.is_subset_of(y),
                subset(rx, ry),
                "seed {seed}: is_subset_of"
            );
        }
        let from_cells = FireLine::from_cells(rows, cols, &a.burned_cells());
        assert_packs(&from_cells, &ra, &format!("seed {seed}: from_cells"));

        let map = ignition_map(&mut rng, (rows, cols));
        let t = rng.random::<f64>() * 100.0;
        let rt = Bytes {
            cols,
            cells: map.grid().as_slice().iter().map(|&it| it <= t).collect(),
        };
        assert_packs(
            &map.fire_line_at(t),
            &rt,
            &format!("seed {seed}: fire_line_at({t})"),
        );

        let observed = Observed::scan(&a, Some(&pre));
        let real_new = ra.count(|i| ra.cells[i] && !rp.cells[i]);
        assert_eq!(observed.real_new(), real_new, "seed {seed}: real_new");
        assert_eq!(
            observed.preburned(),
            rp.count(|i| rp.cells[i]),
            "seed {seed}: preburned"
        );
        assert_eq!(
            Observed::scan(&a, None).real_new(),
            ra.count(|i| ra.cells[i])
        );

        // The histogram's every threshold, against a per-cell tally of the
        // references.
        let (pm, _, _) = folded(&mut rng, (rows, cols));
        let p = |i: usize| pm.probability(i / cols, i % cols);
        for preburn in [None, Some(&pre)] {
            pm.histogram_into(&Observed::scan(&a, preburn), &mut hist);
            let excluded = |i: usize| preburn.is_some() && rp.cells[i];
            let mut kigns = pm.distinct_levels();
            kigns.extend([0.0, 1.0]);
            for kign in kigns {
                let got = hist.breakdown_where(|q| q >= kign);
                let live = |i: usize| !excluded(i);
                let want = (
                    ra.count(|i| live(i) && ra.cells[i] && p(i) >= kign),
                    ra.count(|i| live(i) && !ra.cells[i] && p(i) >= kign),
                    ra.count(|i| live(i) && ra.cells[i] && p(i) < kign),
                    ra.count(excluded),
                );
                let got = (got.hits, got.false_alarms, got.misses, got.excluded);
                assert_eq!(got, want, "seed {seed} kign {kign}");
            }
        }
    }
}

/// The perimeter walk over the burned cells finds, in row-major order,
/// exactly what a scan of every cell finds: burned cells on the map's
/// edge or beside an unburned 4-neighbour. Each shape is drawn sparse,
/// half full and nearly full, so rows that straddle words hold both
/// interior and front cells.
#[test]
fn perimeter_walk_is_the_full_scan() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E71);
        for (rows, cols) in SHAPES {
            for density in [0.1, 0.5, 0.9] {
                let line = FireLine::from_fn(rows, cols, |_, _| rng.random::<f64>() < density);
                let burned = |r: isize, c: isize| {
                    r >= 0
                        && c >= 0
                        && (r as usize) < rows
                        && (c as usize) < cols
                        && line.is_burned(r as usize, c as usize)
                };
                let mut expected = Vec::new();
                for r in 0..rows {
                    for c in 0..cols {
                        let (ri, ci) = (r as isize, c as isize);
                        let on_edge = r == 0 || c == 0 || r == rows - 1 || c == cols - 1;
                        let beside_unburned = [(-1, 0), (1, 0), (0, -1), (0, 1)]
                            .iter()
                            .any(|&(dr, dc)| !burned(ri + dr, ci + dc));
                        if line.is_burned(r, c) && (on_edge || beside_unburned) {
                            expected.push((r, c));
                        }
                    }
                }
                assert_eq!(
                    perimeter_cells(&line),
                    expected,
                    "seed {seed}: {rows}x{cols} at density {density}"
                );
            }
        }
    }
}

/// Shapes for the map's count chunks (1 024 cells each): under one chunk,
/// exactly one, and rasters of 3, 9, 3 and 3 chunks whose rows straddle
/// chunk boundaries — one a single row, one whose tail chunk holds one
/// cell — none of them a whole number of chunks.
const CHUNKED_SHAPES: [(usize, usize); 6] =
    [(6, 7), (32, 32), (17, 129), (9, 1000), (1, 2049), (41, 53)];

/// The map the chunked counts replaced, copied here: one `u32` count a
/// cell of the whole raster, every question asked of every cell.
struct DenseMap {
    rows: usize,
    cols: usize,
    counts: Vec<u32>,
    samples: u32,
}

impl DenseMap {
    fn new(rows: usize, cols: usize) -> Self {
        let counts = vec![0; rows * cols];
        DenseMap {
            rows,
            cols,
            counts,
            samples: 0,
        }
    }

    fn fold(&mut self, fold: &Fold) {
        self.samples += fold.runs;
        for idx in fold.ranges.iter().cloned().flatten() {
            if fold.arrivals[idx] <= T1 {
                self.counts[idx] += fold.runs;
            }
        }
    }

    fn clear(&mut self) {
        self.counts.fill(0);
        self.samples = 0;
    }

    fn probability(&self, idx: usize) -> f64 {
        match self.samples {
            0 => 0.0,
            s => f64::from(self.counts[idx]) / f64::from(s),
        }
    }

    fn threshold(&self, kign: f64) -> FireLine {
        let k = kign.clamp(0.0, 1.0);
        FireLine::from_fn(self.rows, self.cols, |r, c| {
            self.probability(r * self.cols + c) >= k
        })
    }

    fn distinct_levels(&self) -> Vec<f64> {
        let mut present = vec![false; self.samples as usize + 1];
        for &c in &self.counts {
            present[c as usize] = true;
        }
        let levels = present.iter().enumerate().filter(|(_, &p)| p);
        let s = f64::from(self.samples);
        levels
            .map(|(c, _)| if self.samples == 0 { 0.0 } else { c as f64 / s })
            .collect()
    }
}

/// One fold of `runs` identical runs: arrivals and the disjoint ranges a
/// caller reports, cut at random points anywhere in the raster — across
/// row ends and chunk boundaries — in either order, burned at one of four
/// densities (none burned, so a range may add no chunk, up to all).
struct Fold {
    arrivals: Vec<f64>,
    ranges: Vec<std::ops::Range<usize>>,
    runs: u32,
}

fn chunk_fold(rng: &mut StdRng, (rows, cols): (usize, usize)) -> Fold {
    let n = rows * cols;
    let mut cuts: Vec<usize> = (0..2 * rng.random_range(0..5usize))
        .map(|_| rng.random_range(0..n + 1))
        .collect();
    cuts.sort_unstable();
    let mut ranges: Vec<_> = cuts.chunks(2).map(|c| c[0]..c[1]).collect();
    let density = [0.0, 0.02, 0.5, 1.0][rng.random_range(0..4usize)];
    let mut arrivals = vec![UNIGNITED; n];
    for idx in ranges.iter().cloned().flatten() {
        arrivals[idx] = match rng.random::<f64>() < density {
            true => rng.random::<f64>() * T1,
            false => T1 + 1.0 + rng.random::<f64>() * 50.0,
        };
    }
    if rng.random::<bool>() {
        ranges.reverse();
    }
    let runs = rng.random_range(1..4u32);
    Fold {
        arrivals,
        ranges,
        runs,
    }
}

/// Feeds `fold` to `map`: a single run by its fire line half the time,
/// otherwise from its ranges with its multiplicity.
fn feed(map: &mut ProbabilityMap, fold: &Fold, rng: &mut StdRng) {
    let burned = |&t: &f64| t <= T1;
    if fold.runs == 1 && rng.random::<bool>() {
        let line = FireLine::from_fn(map.rows(), map.cols(), |r, c| {
            fold.arrivals[r * map.cols() + c] <= T1
        });
        map.accumulate(&line);
    } else {
        map.accumulate_ranges(
            &fold.arrivals,
            burned,
            fold.ranges.iter().cloned(),
            fold.runs,
        );
    }
}

/// `map` answers every question as `dense` does: each cell's probability,
/// the levels, the threshold at 0, 1, each level and between neighbours,
/// and the histogram's level curve against `real`, with and without
/// `pre`.
fn assert_dense(
    map: &ProbabilityMap,
    dense: &DenseMap,
    real: &FireLine,
    pre: &FireLine,
    what: &str,
) {
    use landscape::{LevelHistogram, Observed};
    assert_eq!(map.samples(), dense.samples, "{what}: samples");
    for idx in 0..dense.counts.len() {
        let (r, c) = (idx / dense.cols, idx % dense.cols);
        assert_eq!(
            map.probability(r, c),
            dense.probability(idx),
            "{what}: cell {idx}"
        );
    }
    let levels = dense.distinct_levels();
    assert_eq!(map.distinct_levels(), levels, "{what}: levels");
    let mut kigns = vec![0.0, 1.0];
    kigns.extend(&levels);
    kigns.extend(levels.windows(2).map(|w| (w[0] + w[1]) / 2.0));
    for kign in kigns {
        assert_eq!(
            map.threshold(kign),
            dense.threshold(kign),
            "{what}: kign {kign}"
        );
    }
    let mut hist = LevelHistogram::default();
    for preburn in [None, Some(pre)] {
        map.histogram_into(&Observed::scan(real, preburn), &mut hist);
        let curve: Vec<(f64, f64)> = levels
            .iter()
            .map(|&l| (l, jaccard(real, &dense.threshold(l), preburn)))
            .collect();
        assert_eq!(hist.levels().collect::<Vec<_>>(), curve, "{what}: curve");
    }
}

/// The chunked map is the dense one through any history of folds and
/// clears: ranges that straddle chunks and row ends, empty and fully
/// burned ones, multiplicities above 1, fire lines, on shapes that are
/// not a whole number of chunks.
#[test]
fn chunked_counts_are_the_dense_map() {
    let (mut clears, mut straddling) = (0, 0);
    for seed in 0..2 * CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, cols) = CHUNKED_SHAPES[rng.random_range(0..CHUNKED_SHAPES.len())];
        let (real, pre) = (mask(&mut rng, (rows, cols)), mask(&mut rng, (rows, cols)));
        let (mut map, mut dense) = (ProbabilityMap::new(rows, cols), DenseMap::new(rows, cols));
        for step in 0..rng.random_range(1..8usize) {
            if rng.random_range(0..4u32) == 0 {
                map.clear();
                dense.clear();
                clears += 1;
            } else {
                let fold = chunk_fold(&mut rng, (rows, cols));
                feed(&mut map, &fold, &mut rng);
                dense.fold(&fold);
                straddling += fold
                    .ranges
                    .iter()
                    .filter(|r| r.start / 1024 != r.end / 1024)
                    .count();
            }
            assert_dense(
                &map,
                &dense,
                &real,
                &pre,
                &format!("seed {seed} step {step}"),
            );
        }
    }
    assert!(clears > 0 && straddling > 0);
}

/// Maps fed the same runs are equal in any order and after any history —
/// a map cleared after other folds still holds their chunks — and maps
/// one count apart at the same sample count are not.
#[test]
fn chunked_maps_are_equal_by_counts_not_by_history() {
    for seed in 0..2 * CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, cols) = CHUNKED_SHAPES[rng.random_range(0..CHUNKED_SHAPES.len())];
        let folds: Vec<Fold> = (0..rng.random_range(0..5usize))
            .map(|_| chunk_fold(&mut rng, (rows, cols)))
            .collect();
        let mut fresh = ProbabilityMap::new(rows, cols);
        folds.iter().for_each(|f| feed(&mut fresh, f, &mut rng));
        let mut used = ProbabilityMap::new(rows, cols);
        for _ in 0..rng.random_range(1..4usize) {
            let other = chunk_fold(&mut rng, (rows, cols));
            feed(&mut used, &other, &mut rng);
        }
        used.clear();
        folds
            .iter()
            .rev()
            .for_each(|f| feed(&mut used, f, &mut rng));
        assert_eq!(fresh, used, "seed {seed}");
        // One more burned cell each, in different places.
        let n = rows * cols;
        let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
        let one = vec![true; n];
        fresh.accumulate_ranges(&one, |&t| t, std::iter::once(a..a + 1), 1);
        used.accumulate_ranges(&one, |&t| t, std::iter::once(b..b + 1), 1);
        assert_eq!(fresh == used, a == b, "seed {seed}: cells {a} and {b}");
    }
}
