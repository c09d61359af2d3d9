//! The kernel bit-identity contract, stated once: every kernel, entry
//! point and arena history writes the reference heap's raster bit for bit.
//!
//! A **row** is a landscape with the fire lines and runs (scenario, `t0`,
//! horizon, count instant) it burns; each (line, run) pair is a
//! **group**, whose reference is a [`Kernel::Heap`] run from the line's
//! resolved seeds on a fresh arena. A row's **columns** are
//! [`Kernel::Bucket`] and tiled kernels with a one-cell tile, a tile
//! dividing neither side and one past the grid, at 1, 2 and 8 workers. A group runs the bucket column and one tiled column, each on
//! the arena the row keeps for it, through the fire line or through seeds
//! resolved once per line; [`walk`] gives each run its arena history, and
//! every fifth group also goes through `simulate`, `simulate_into` on a
//! polluted buffer and `simulate_arena`. [`check`] is what every run must
//! satisfy, and every run from seeds — the reference included — counts
//! what it burns by the run's instant against a stripe mask, which
//! [`assert_count_is_the_tally`] holds to the raster it left;
//! [`every_factor_is_reached`] holds the generator to its levels.

use super::*;
use crate::{ScenarioSpace, GENE_COUNT};
use landscape::geometry::normalize_azimuth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The landscape families, one test each.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Land {
    Fixed,
    Random,
    Degenerate,
    Corpus,
}

/// What a column's arena went through before the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum History {
    Fresh,
    Moving,
    AfterHeap,
}

/// A scenario, `t0`, horizon, and the instant `t1` its counted runs count
/// at: mostly `t0 + horizon`, but mid-horizon on one run of a generic row,
/// and on two more an instant the horizon misses by one ulp.
struct Run(Scenario, f64, f64, f64);

impl Run {
    /// A run counted at its horizon's end.
    fn to_end(s: Scenario, t0: f64, duration: f64) -> Self {
        Run(s, t0, duration, t0 + duration)
    }

    /// A run from `t0` to `t1` as a step runs it, over `t1 − t0`: its
    /// horizon ends at `t0 + (t1 − t0)`, which need not be `t1`.
    fn step(s: Scenario, t0: f64, t1: f64) -> Self {
        Run(s, t0, t1 - t0, t1)
    }
}

type Lines = Vec<(&'static str, FireLine)>;

struct Row {
    name: String,
    sim: FireSim,
    lines: Lines,
    runs: Vec<Run>,
    kernels: Vec<Kernel>,
}

/// One (line, run) pair and its two `(column, history, through seeds)`.
struct Group<'a> {
    index: usize,
    line: &'static str,
    fire: &'a FireLine,
    seeds: &'a Seeds,
    run: &'a Run,
    columns: [(usize, History, bool); 2],
}

impl Row {
    /// Bucket, then tile 1, a tile dividing neither side and one past the
    /// grid; the worker counts rotate with `i`, so each row has 1, 2 and 8.
    fn new(i: usize, name: String, sim: FireSim, lines: Lines, runs: Vec<Run>) -> Self {
        let (rows, cols) = (sim.terrain().rows(), sim.terrain().cols());
        let odd = (2..).find(|t| rows % t != 0 && cols % t != 0);
        let tiles = [1, odd.unwrap(), rows.max(cols) + 1];
        let tiled = (0..3).map(|k| (tiles[k], [1, 2, 8][(i + k) % 3]));
        let tiled = tiled.map(|(tile, workers)| Kernel::Tiled { tile, workers });
        let kernels = std::iter::once(Kernel::Bucket).chain(tiled).collect();
        Row {
            name,
            sim,
            lines,
            runs,
            kernels,
        }
    }
}

pub(super) fn scenario(rng: &mut StdRng) -> Scenario {
    let genes: Vec<f64> = (0..GENE_COUNT).map(|_| rng.random()).collect();
    ScenarioSpace.decode(&genes)
}

/// A random terrain with the override layers whose bits `layers` sets
/// (fuel, slope, aspect, wind).
pub(super) fn random_terrain(rng: &mut StdRng, rows: usize, cols: usize, layers: u32) -> Terrain {
    let mut t = Terrain::uniform(rows, cols, rng.random_range(30.0..150.0));
    let mut grid = |lo: f64, hi: f64| Grid::from_fn(rows, cols, |_, _| rng.random_range(lo..hi));
    if layers & 1 != 0 {
        t = t.with_fuel(grid(0.0, 14.0).map(|&code| code as u8));
    }
    if layers & 2 != 0 {
        t = t.with_slope(grid(0.0, 50.0));
    }
    if layers & 4 != 0 {
        t = t.with_aspect(grid(0.0, 360.0));
    }
    if layers & 8 != 0 {
        t = t.with_wind(grid(0.0, 2.5), grid(-120.0, 120.0));
    }
    t
}

/// A row over `terrain` burning every line kind its shape allows, under a
/// windy run and a random one (over a 2 000–5 000 minute horizon on odd
/// rows), plus one whose model burns nothing when there is no fuel layer.
fn generic_row(i: usize, name: String, terrain: Terrain, rng: &mut StdRng) -> Row {
    let (rows, cols) = (terrain.rows(), terrain.cols());
    let (r1, c1) = (rows - 1, cols - 1);
    let sim = FireSim::new(terrain);
    let t0 = |rng: &mut StdRng| rng.random_range(0.0..250.0);
    let mut windy = Scenario::reference();
    (windy.wind_speed_mph, windy.wind_dir_deg) = (9.0, rng.random_range(0.0..360.0));
    let long = [5.0..500.0, 2000.0..5000.0][i % 2].clone();
    let windy_run = Run::to_end(windy, t0(rng), rng.random_range(5.0..500.0));
    let (s, start, duration) = (scenario(rng), t0(rng), rng.random_range(long));
    let mut runs = vec![windy_run, Run(s, start, duration, start + duration / 2.0)];
    let fuel = sim.terrain().fuel_layer().map(|g| g.as_slice());
    if fuel.is_none() {
        let mut s = scenario(rng);
        s.model = 0;
        runs.push(Run::to_end(s, t0(rng), rng.random_range(5.0..500.0)));
    }
    // Steps whose horizon ends one ulp past `t1` and one ulp short of it
    // (`0.3 + (0.9 − 0.3)` and `0.2 + (0.9 − 0.2)`, scaled by 2⁸ — exact,
    // so the rounding is the same — for minutes the fire crosses cells in).
    let [past, short] = [(0.3, 0.9), (0.2, 0.9)].map(|(t0, t1)| (t0 * 256.0, t1 * 256.0));
    let end = |(t0, t1): (f64, f64)| (t0 + (t1 - t0)).to_bits();
    assert_eq!(
        end(past),
        past.1.to_bits() + 1,
        "{past:?} ends one ulp past t1"
    );
    assert_eq!(
        end(short) + 1,
        short.1.to_bits(),
        "{short:?} ends one ulp short"
    );
    runs.extend([past, short].map(|(t0, t1)| Run::step(windy, t0, t1)));
    let scattered: Vec<_> = (0..rng.random_range(1..5))
        .map(|_| (rng.random_range(0..rows), rng.random_range(0..cols)))
        .collect();
    let scattered = FireLine::from_cells(rows, cols, &scattered);
    // A previous run's burned mask, ignited on the raster edge, and its
    // row hull: a filled blob with rock and unreached cells inside.
    let mut base = scattered.clone();
    base.set_burned(rng.random_range(0..rows), 0, true);
    base.set_burned(r1, rng.random_range(0..cols), true);
    let t1 = rng.random_range(20.0..220.0);
    let burned = base.union(&sim.simulate(&runs[1].0, &base, 0.0, t1).fire_line_at(t1));
    let mut hull = burned.clone();
    for r in 0..rows {
        let lit: Vec<usize> = (0..cols).filter(|&c| burned.is_burned(r, c)).collect();
        if let (Some(&lo), Some(&hi)) = (lit.first(), lit.last()) {
            (lo..=hi).for_each(|c| hull.set_burned(r, c, true));
        }
    }
    let (mr, mc) = (rows / 2, cols / 2);
    let points = [0, mr, r1].map(|r| [0, mc, c1].map(|c| (r, c))).concat();
    let points: Vec<_> = points.into_iter().filter(|&p| p != (mr, mc)).collect();
    let mask = |f: &dyn Fn(usize, usize) -> bool| FireLine::from_fn(rows, cols, f);
    let mid = |i: usize, n: usize| (n / 3..=2 * n / 3).contains(&i);
    let ring = mask(&|r, c| r == 0 || c == 0 || r == r1 || c == c1);
    let mut lines = vec![
        ("scattered", scattered.clone()),
        ("border points", FireLine::from_cells(rows, cols, &points)),
        ("border ring", ring),
        ("burned mask", burned),
        ("row hull", hull),
        ("whole raster", mask(&|_, _| true)),
    ];
    if rows >= 5 && cols >= 5 {
        lines.push(("interior blob", mask(&|r, c| mid(r, rows) && mid(c, cols))));
    }
    let rock: Vec<usize> = (0..rows * cols)
        .filter(|&i| fuel.is_some_and(|f| !sim.beds[f[i] as usize].burnable))
        .collect();
    if !rock.is_empty() {
        let picks = (0..3).map(|_| rock[rng.random_range(0..rock.len())]);
        let picks: Vec<_> = picks.map(|i| (i / cols, i % cols)).collect();
        let rock = FireLine::from_cells(rows, cols, &picks);
        lines.push(("rock and fuel", rock.union(&scattered)));
        lines.push(("rock", rock));
    }
    Row::new(i, name, sim, lines, runs)
}

fn rows(land: Land) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(0xC0F0 + land as u64);
    let rng = &mut rng;
    match land {
        // A uniform, a fuel-only mosaic and a fully layered terrain,
        // non-square both ways.
        Land::Fixed => {
            let (r, c) = (17, 23);
            let code = |r: usize, c: usize| [1u8, 2, 4, 0][(r * 3 + c) % 4];
            let layered = Terrain::uniform(r, c, 80.0)
                .with_fuel(Grid::from_fn(r, c, code))
                .with_slope(Grid::from_fn(r, c, |r, c| ((r * 7 + c * 5) % 35) as f64))
                .with_aspect(Grid::from_fn(r, c, |r, c| ((r * 13 + c * 29) % 360) as f64))
                .with_wind(
                    Grid::from_fn(r, c, |r, c| 0.25 + ((r + 2 * c) % 7) as f64 * 0.3),
                    Grid::from_fn(r, c, |r, c| ((r * c) % 90) as f64 - 45.0),
                );
            let mosaic = Terrain::uniform(15, 9, 100.0).with_fuel(Grid::from_fn(15, 9, code));
            let terrains = [
                ("uniform", Terrain::uniform(11, 17, 100.0)),
                ("fuel mosaic", mosaic),
                ("layered", layered),
            ];
            let rows = terrains.into_iter().enumerate();
            rows.map(|(i, (n, t))| generic_row(i, n.into(), t, rng))
                .collect()
        }
        // Each layer set at random, non-square both ways.
        Land::Random => (0..4)
            .map(|i| {
                let (a, b) = (rng.random_range(5..28usize), rng.random_range(5..31usize));
                let (r, c) = (a.min(b), a.max(b) + 1);
                let (r, c) = if i % 2 == 0 { (r, c) } else { (c, r) };
                let layers = rng.random_range(0..16);
                let t = random_terrain(rng, r, c, layers);
                generic_row(i, format!("random {i} ({r}x{c})"), t, rng)
            })
            .collect(),
        // No interior, or one interior cell; bare and fully layered.
        Land::Degenerate => [(1, 23), (19, 1), (2, 17), (3, 3)]
            .into_iter()
            .flat_map(|shape| [(shape, 0), (shape, 15)])
            .enumerate()
            .map(|(i, ((r, c), layers))| {
                let t = random_terrain(rng, r, c, layers);
                generic_row(i, format!("{r}x{c}, layers {layers:04b}"), t, rng)
            })
            .collect(),
        // `archipelago_large` and the XL tier shrunk to 40 cells a side:
        // the ignition's burned mask after one interval and, on the grass
        // of `ridge_valley_xl`, a sheet lit but for the centre of every 3×3
        // block: each of its cells is on the front, and they fill an epoch
        // the auto and two-worker tiled columns drain in parallel. Under
        // the truth and a wind perturbation of it.
        Land::Corpus => {
            let mut specs = vec![crate::workload::archipelago_large()];
            specs.extend(crate::workload::xl_corpus());
            let specs = specs.iter().map(|s| s.shrunk(40)).enumerate();
            let rows = specs.map(|(i, spec)| {
                let (w, sheet) = (spec.build(), |r, c| r % 3 != 1 || c % 3 != 1);
                let (sim, (rows, cols)) = (w.sim(), (w.terrain.rows(), w.terrain.cols()));
                let (t0, dt, truth) = (w.times[0], w.times[1] - w.times[0], w.truth[0]);
                let burned = sim.simulate(&truth, &w.ignition, t0, dt);
                let burned = w.ignition.union(&burned.fire_line_at(t0 + dt));
                let sheet = FireLine::from_fn(rows, cols, sheet);
                let mut lines = vec![("sheet", sheet), ("burned mask", burned)];
                if i != 1 {
                    lines.remove(0);
                }
                let wind = (truth.wind_speed_mph + rng.random_range(-2.0..2.0)).clamp(0.0, 80.0);
                let dir = normalize_azimuth(truth.wind_dir_deg + rng.random_range(-30.0..30.0));
                let gust = Scenario {
                    wind_speed_mph: wind,
                    wind_dir_deg: dir,
                    ..truth
                };
                let runs = vec![Run::to_end(truth, t0, dt), Run::to_end(gust, t0, dt)];
                let mut row = Row::new(i, spec.name.into(), sim, lines, runs);
                if i == 1 {
                    row.kernels.insert(1, Kernel::tiled_auto());
                }
                row
            });
            rows.collect()
        }
    }
}

/// Walks `row`'s groups in order. Each runs the bucket column and the next
/// tiled one (the bucket again in a row with no other). A column's first
/// run is on a fresh arena; otherwise one column a group cycles through a
/// long heap run before its own.
fn walk(row: &Row, mut visit: impl FnMut(&Group<'_>)) {
    let n = row.kernels.len();
    let mut used = vec![false; n];
    let mut index = 0;
    for (line, fire) in &row.lines {
        let seeds = row.sim.seeds(fire);
        for run in &row.runs {
            let tiled = (1 + index % (n - 1).max(1)).min(n - 1);
            let columns = [0, tiled].map(|column| {
                let history = match index % 7 {
                    _ if !used[column] => History::Fresh,
                    _ if (column == 0) != (index % 2 == 0) => History::Moving,
                    3 => History::AfterHeap,
                    _ => History::Moving,
                };
                used[column] = true;
                (column, history, (index + column) % 2 == 1)
            });
            let seeds = &seeds;
            visit(&Group {
                index,
                line,
                fire,
                seeds,
                run,
                columns,
            });
            index += 1;
        }
    }
}

fn assert_rasters_identical(a: &IgnitionMap, b: &IgnitionMap, what: &str) {
    let cells = a.grid().as_slice().iter().zip(b.grid().as_slice());
    for (i, (x, y)) in cells.enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: cell {i} diverged");
    }
}

/// After a bucket or tiled run, `written_ranges` must be ascending and
/// disjoint, each range a span of one row that starts and ends on a cell
/// the run wrote, and together they must contain every ignited cell; an
/// Eq. (3) tally over them must give the full-raster score.
fn assert_ranges_account_for_the_raster(arena: &SimArena, t1: f64, what: &str) {
    let map = arena.map();
    let (times, cols) = (map.grid().as_slice(), map.cols());
    let mut covered = vec![false; times.len()];
    let mut end = 0;
    for range in arena.written_ranges() {
        assert!(range.start >= end, "{what}: {range:?} after {end}");
        assert_eq!(
            range.start / cols,
            (range.end - 1) / cols,
            "{what}: {range:?}"
        );
        let ends = [range.start, range.end - 1];
        assert!(
            ends.iter().all(|&i| times[i] != UNIGNITED),
            "{what}: {range:?} ends on a cell the run did not write"
        );
        end = range.end;
        range.for_each(|i| covered[i] = true);
    }
    for (i, &t) in times.iter().enumerate() {
        assert!(
            covered[i] || t == UNIGNITED,
            "{what}: {i} outside the ranges"
        );
    }
    // An arbitrary reference/preburn pair: stripes that cut across any
    // fire shape, so hits, misses, false alarms and exclusions all occur.
    let (rows, cols) = (map.rows(), map.cols());
    let real = stripes(rows, cols);
    let pre = FireLine::from_fn(rows, cols, |r, c| (3 * r + c) % 7 == 0);
    let new = (0..times.len()).filter(|&i| real.bit(i) && !pre.bit(i));
    let real_new = new.count();
    let ranges = arena.written_ranges();
    let spans = landscape::tally_ranges(&real, times, |&a| a <= t1, Some(&pre), ranges);
    assert_eq!(
        spans.index_with_real_total(real_new).to_bits(),
        landscape::jaccard_at_time(&real, map, t1, Some(&pre)).to_bits(),
        "{what}: span-bounded score differs from the full raster"
    );
}

/// The stripe line a counted run counts against: it cuts across any fire
/// shape, so both counts occur.
fn stripes(rows: usize, cols: usize) -> FireLine {
    FireLine::from_fn(rows, cols, |r, c| (r + 2 * c) % 5 < 2)
}

/// A counted run's [`BurnCount`] is the Eq. (3) tally of the raster it
/// left, over the ranges it wrote, with its own start line excluded: the
/// hits and the false alarms at the count's instant `t1`.
fn assert_count_is_the_tally(
    arena: &SimArena,
    count: &BurnCount<'_>,
    mask: &FireLine,
    g: &Group<'_>,
    what: &str,
) {
    let t1 = g.run.3;
    let times = arena.map().grid().as_slice();
    let ranges = arena.written_ranges();
    let tally = landscape::tally_ranges(mask, times, |&a| a <= t1, Some(g.fire), ranges);
    assert_eq!(
        (count.in_mask(), count.outside()),
        (tally.hits, tally.false_alarms),
        "{what}: counted at {t1} against the tally"
    );
}

/// What every run must satisfy, on the arena it left: the reference's
/// bits, every arrival finite and inside `[t0, t0 + duration]`, ranges
/// that account for them, lit cells that burn at `t0` and lit rock
/// unignited, nothing written when nothing burns.
fn check(arena: &SimArena, reference: &IgnitionMap, g: &Group<'_>, sim: &FireSim, what: &str) {
    let Run(s, t0, duration, _) = g.run;
    let map = arena.map();
    assert_rasters_identical(reference, map, what);
    let window = *t0..=t0 + duration;
    for (i, t) in map.grid().as_slice().iter().enumerate() {
        let inside = *t == UNIGNITED || window.contains(t);
        assert!(
            inside,
            "{what}: cell {i} arrives at {t}, outside {window:?}"
        );
    }
    assert_ranges_account_for_the_raster(arena, t0 + duration, what);
    let mut any = false;
    for (r, c) in g.fire.burned_cells() {
        let burns = sim.beds[sim.terrain().fuel_at(r, c, s.model) as usize].burnable;
        let expected = if burns { *t0 } else { UNIGNITED };
        assert_eq!(map.time(r, c), expected, "{what}: lit ({r},{c})");
        any |= burns;
    }
    let clean = arena.written_ranges().next().is_none();
    assert!(any || clean, "{what}: nothing burns, something written");
}

/// Runs every group of every row of `land` and checks each column run.
fn conform(land: Land) {
    for row in rows(land) {
        let sim = &row.sim;
        let mut arenas: Vec<SimArena> = row.kernels.iter().map(|_| sim.arena()).collect();
        let mut entry_arena = sim.arena();
        let (rows, cols) = (sim.terrain().rows(), sim.terrain().cols());
        let mut polluted = IgnitionMap::unignited(rows, cols);
        let mask = stripes(rows, cols);
        walk(&row, |g| {
            let (Run(s, t0, duration, t1), fire, seeds) = (g.run, g.fire, g.seeds);
            let (t0, duration) = (*t0, *duration);
            let group = format!("{} {} line, group {}", row.name, g.line, g.index);
            let mut fresh = sim.arena();
            let mut count = BurnCount::new(&mask, *t1);
            let heap = Some(&mut count);
            sim.simulate_arena_seeded(s, seeds, t0, duration, &mut fresh, Kernel::Heap, heap);
            assert_count_is_the_tally(&fresh, &count, &mask, g, &format!("{group}, heap"));
            let reference = fresh.map();
            if g.index % 5 == 2 {
                let entry = |name| format!("{group}, {name}");
                let map = sim.simulate(s, fire, t0, duration);
                assert_rasters_identical(reference, &map, &entry("simulate"));
                polluted.set_time(0, 0, 1.0);
                sim.simulate_into(s, fire, t0, duration, &mut polluted);
                assert_rasters_identical(reference, &polluted, &entry("simulate_into"));
                let map = sim.simulate_arena(s, fire, t0, duration, &mut entry_arena);
                assert_rasters_identical(reference, map, &entry("simulate_arena"));
            }
            for (column, history, seeded) in g.columns {
                let (kernel, arena) = (row.kernels[column], &mut arenas[column]);
                let what = format!("{group}, {kernel} after {history:?}, seeded {seeded}");
                if history == History::AfterHeap {
                    let whole = FireLine::from_fn(rows, cols, |_, _| true);
                    let s = Scenario::reference();
                    sim.simulate_arena_kernel(&s, &whole, 0.0, 5000.0, arena, Kernel::Heap);
                    assert_eq!(arena.dirty, Dirty::All, "{what}");
                }
                if seeded {
                    let counted = Some(&mut count);
                    sim.simulate_arena_seeded(s, seeds, t0, duration, arena, kernel, counted);
                    assert_count_is_the_tally(arena, &count, &mask, g, &what);
                } else {
                    sim.simulate_arena_kernel(s, fire, t0, duration, arena, kernel);
                }
                check(arena, reference, g, sim, &what);
            }
        });
    }
}

#[test]
fn kernels_match_the_heap_on_uniform_mosaic_and_layered_terrain() {
    conform(Land::Fixed);
}

#[test]
fn kernels_match_the_heap_on_random_landscapes() {
    conform(Land::Random);
}

#[test]
fn kernels_match_the_heap_on_degenerate_shapes() {
    conform(Land::Degenerate);
}

#[test]
fn kernels_match_the_heap_on_the_shrunk_corpus() {
    conform(Land::Corpus);
}

/// Every factor level the generator must keep reaching, counted over the
/// plan: a level a generator edit drops fails here by name.
#[test]
fn every_factor_is_reached() {
    let mut hit: BTreeMap<&str, usize> = BTreeMap::new();
    let mut count = |level, reached| *hit.entry(level).or_default() += usize::from(reached);
    for land in [Land::Fixed, Land::Random, Land::Degenerate, Land::Corpus] {
        for row in rows(land) {
            let (sim, t) = (&row.sim, row.sim.terrain());
            let (layered, fuel_only) = (t.has_overrides(), t.fuel_is_only_override());
            count("uniform tables", !layered);
            count("per-fuel tables", layered && fuel_only);
            count("per-cell tables", layered && !fuel_only);
            count("one row", t.rows() == 1);
            count("one column", t.cols() == 1);
            count("shrunk corpus", land == Land::Corpus);
            count("tiled_auto", row.kernels.contains(&Kernel::tiled_auto()));
            walk(&row, |g| {
                let (Run(s, t0, duration, t1), seeds) = (g.run, g.seeds);
                count("counted mid-horizon", *t1 < t0 + duration - 1.0);
                let off = t.fuel_layer().is_none() && !sim.beds[s.model as usize].burnable;
                count("border ring", g.line == "border ring");
                count("empty seed set", seeds.cells.is_empty());
                count("model switched off", off && !seeds.cells.is_empty());
                for (_, history, _) in g.columns {
                    count("after a heap run", history == History::AfterHeap);
                }
            });
        }
    }
    let missed: Vec<_> = hit.iter().filter(|(_, &n)| n == 0).collect();
    assert!(missed.is_empty(), "unreached factor levels: {missed:?}");
}
