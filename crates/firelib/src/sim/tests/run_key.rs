//! [`FireSim::run_key`] against the runs it stands for: a scenario pair
//! that agrees on the key and differs in an input the key drops must burn
//! alike — the same arrival raster, bit for bit, and the same
//! [`BurnCount`] — on the heap, bucket and tiled kernels.
//!
//! Pairs come from the key itself: a scenario shaped so that each rule
//! can bite (calm air, flat ground, every fuel model), and a partner that
//! moves some of the inputs its key zeroes to random values. So a key
//! that drops an input the run reads — the wind direction in a wind, say —
//! yields pairs that burn differently, and fails here.

use super::conformance::{random_terrain, scenario};
use super::*;
use crate::scenario::PARAM_DEFS;
use crate::workload::{corpus, xl_corpus};
use crate::ScenarioSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Agreeing pairs each rule needs on each case it applies to.
const PAIRS: usize = 1000;

/// Partners moved from each scenario.
const PARTNERS: usize = 4;

/// The rules, by the genes each one drops.
const RULES: [(&str, &[usize]); 5] = [
    ("model", &[0]),
    ("wind direction", &[2]),
    ("moisture", &[3, 4, 5, 6]),
    ("slope", &[7]),
    ("aspect", &[8]),
];

/// One interval of a landscape, and one arena pair per kernel.
struct Bench {
    name: String,
    sim: FireSim,
    seeds: Seeds,
    t0: f64,
    duration: f64,
    mask: FireLine,
    arenas: Vec<(Kernel, SimArena, SimArena)>,
}

impl Bench {
    fn new(name: String, sim: FireSim, line: &FireLine, t0: f64, duration: f64) -> Self {
        let (rows, cols) = (sim.terrain().rows(), sim.terrain().cols());
        let tiled = Kernel::Tiled {
            tile: 7,
            workers: 2,
        };
        let arenas = [Kernel::Heap, Kernel::Bucket, tiled]
            .into_iter()
            .map(|k| (k, sim.arena(), sim.arena()))
            .collect();
        Bench {
            name,
            seeds: sim.seeds(line),
            mask: FireLine::from_fn(rows, cols, |r, c| (r * cols + c) % 5 < 2),
            sim,
            t0,
            duration,
            arenas,
        }
    }

    /// The corpus, the XL tier shrunk to 24 cells a side, on each
    /// workload's first interval.
    fn corpus() -> Vec<Bench> {
        let specs = corpus().into_iter().chain(xl_corpus());
        let specs = specs.map(|s| s.shrunk(24).build());
        specs
            .map(|w| {
                let (t0, duration) = (w.times[0], w.times[1] - w.times[0]);
                Bench::new(w.name.into(), w.sim(), &w.ignition, t0, duration)
            })
            .collect()
    }

    /// Runs `a` and each of `partners` on every kernel and holds each
    /// partner's raster bits and count to `a`'s.
    fn assert_alike(&mut self, a: &Scenario, partners: &[Scenario], rule: &str) {
        let (sim, seeds, t0, duration) = (&self.sim, &self.seeds, self.t0, self.duration);
        let t1 = t0 + duration;
        for (kernel, arena_a, arena_b) in &mut self.arenas {
            let mut count_a = BurnCount::new(&self.mask, t1);
            sim.simulate_arena_seeded(a, seeds, t0, duration, arena_a, *kernel, Some(&mut count_a));
            for b in partners {
                let mut count_b = BurnCount::new(&self.mask, t1);
                sim.simulate_arena_seeded(
                    b,
                    seeds,
                    t0,
                    duration,
                    arena_b,
                    *kernel,
                    Some(&mut count_b),
                );
                let (x, y) = (
                    arena_a.map().grid().as_slice(),
                    arena_b.map().grid().as_slice(),
                );
                let same = x.iter().zip(y).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(
                    same,
                    "{} on {kernel}, {rule}: one key, two rasters\n{a:?}\n{b:?}",
                    self.name
                );
                assert_eq!(
                    (count_a.in_mask(), count_a.outside()),
                    (count_b.in_mask(), count_b.outside()),
                    "{} on {kernel}, {rule}: one key, two counts",
                    self.name
                );
            }
        }
    }
}

/// A random scenario in calm air a third of the time and on flat ground a
/// third of the time, each zero signed either way.
fn shaped(rng: &mut StdRng) -> Scenario {
    let mut s = scenario(rng);
    let zero = |rng: &mut StdRng, v: f64| [v, 0.0, -0.0][rng.random_range(0..3usize)];
    s.wind_speed_mph = zero(rng, s.wind_speed_mph);
    s.slope_deg = zero(rng, s.slope_deg);
    s
}

/// `s` with gene `gene` set to `v` (the model rounded into the catalog).
fn with_gene(s: &Scenario, gene: usize, v: f64) -> Scenario {
    let mut s = *s;
    match gene {
        0 => s.model = v as u8,
        1 => s.wind_speed_mph = v,
        2 => s.wind_dir_deg = v,
        3 => s.m1_pct = v,
        4 => s.m10_pct = v,
        5 => s.m100_pct = v,
        6 => s.mherb_pct = v,
        7 => s.slope_deg = v,
        _ => s.aspect_deg = v,
    }
    s
}

/// A random value for `gene`: anywhere in its Table I range, or `-0.0`
/// now and then where the range starts at 0.
fn random_value(rng: &mut StdRng, gene: usize) -> f64 {
    let d = &PARAM_DEFS[gene];
    if gene == 0 {
        return rng.random_range(0..14u32) as f64;
    }
    if d.lo == 0.0 && rng.random_range(0..8) == 0 {
        return -0.0;
    }
    rng.random_range(d.lo..d.hi)
}

/// The genes of `rule` that `s`'s key zeroes while `s` holds a non-zero
/// bit pattern there.
fn dropped(sim: &FireSim, s: &Scenario, rule: &[usize]) -> Vec<usize> {
    let (key, values) = (sim.run_key(s), s.values());
    let dropped = rule.iter().copied();
    dropped
        .filter(|&g| key[g] == 0 && values[g].to_bits() != 0)
        .collect()
}

/// Up to [`PAIRS`] agreeing pairs for each rule on `bench`, each checked
/// on every kernel; the pairs found, by rule. A rule that finds none in
/// `50 × PAIRS` scenarios cannot bite on this landscape.
fn pairs_by_rule(bench: &mut Bench, rng: &mut StdRng) -> [usize; RULES.len()] {
    let mut found = [0; RULES.len()];
    for (r, (rule, genes)) in RULES.iter().enumerate() {
        let mut tries = 0;
        while found[r] < PAIRS && tries < 50 * PAIRS {
            tries += 1;
            let a = shaped(rng);
            let free = dropped(&bench.sim, &a, genes);
            if free.is_empty() {
                continue;
            }
            let partners: Vec<Scenario> = (0..PARTNERS)
                .map(|_| {
                    let mut b = a;
                    // A non-empty subset of the dropped genes, moved.
                    let pick = rng.random_range(1..1u32 << free.len());
                    for (k, &g) in free.iter().enumerate() {
                        if pick & 1 << k != 0 {
                            b = with_gene(&b, g, random_value(rng, g));
                        }
                    }
                    b
                })
                .collect();
            for b in &partners {
                assert_eq!(
                    bench.sim.run_key(b),
                    bench.sim.run_key(&a),
                    "{}, {rule}: moving what the key drops moved the key",
                    bench.name
                );
            }
            bench.assert_alike(&a, &partners, rule);
            found[r] += partners.len();
        }
        assert!(
            found[r] == 0 || found[r] >= PAIRS,
            "{}, {rule}: {} pairs in {tries} scenarios",
            bench.name,
            found[r]
        );
    }
    found
}

#[test]
fn run_key_pairs_that_agree_burn_alike_on_every_corpus_case_and_kernel() {
    let mut rng = StdRng::seed_from_u64(0x005E_ED50);
    let mut applied: Vec<(usize, String)> = Vec::new();
    for mut bench in Bench::corpus() {
        let t = bench.sim.terrain();
        // The rules each landscape must exercise: the layer rules where
        // there is a layer, calm air everywhere, flat ground where no
        // slope layer stands in, moisture wherever a model shows a bed
        // without some class (every case the search picks the model of).
        let expected = [
            t.fuel_layer().is_some(),
            true,
            t.fuel_layer().is_none(),
            t.slope_layer().is_some(),
            t.aspect_layer().is_some() || t.slope_layer().is_none(),
        ];
        let found = pairs_by_rule(&mut bench, &mut rng);
        for (r, &want) in expected.iter().enumerate() {
            if want {
                assert!(
                    found[r] >= PAIRS,
                    "{}: {} never bit",
                    bench.name,
                    RULES[r].0
                );
            }
            if found[r] > 0 {
                applied.push((r, bench.name.clone()));
            }
        }
    }
    // The layered cases of the corpus: fuel mosaics, relief, and gusts.
    for (r, name) in [
        (0, "patchwork_mosaic"),
        (0, "breaks_mosaic_xl"),
        (3, "ridged_foothills"),
        (4, "ridged_foothills"),
        (1, "gusty_channel"),
        (2, "meadow_small"),
    ] {
        assert!(
            applied.contains(&(r, name.to_string())),
            "{} never bit on {name}",
            RULES[r].0
        );
    }
}

#[test]
fn run_key_the_wind_direction_in_calm_air_under_a_wind_layer() {
    // Every layer set with a wind layer: the layer multiplies a zero speed
    // and shifts a direction nothing then reads.
    let mut rng = StdRng::seed_from_u64(0x817D);
    for layers in [8, 9, 14, 15] {
        let t = random_terrain(&mut rng, 19, 23, layers);
        let line = FireLine::from_cells(19, 23, &[(9, 11), (3, 4)]);
        let name = format!("wind layer, layers {layers:04b}");
        let mut bench = Bench::new(name, FireSim::new(t), &line, 10.0, 240.0);
        for i in 0..PAIRS / PARTNERS {
            let a = Scenario {
                wind_speed_mph: [0.0, -0.0][i % 2],
                ..shaped(&mut rng)
            };
            assert_eq!(dropped(&bench.sim, &a, &[2]), [2], "{a:?}");
            let partners: Vec<Scenario> = (0..PARTNERS)
                .map(|_| with_gene(&a, 2, random_value(&mut rng, 2)))
                .collect();
            bench.assert_alike(&a, &partners, "wind direction");
        }
    }
}

#[test]
fn run_key_signed_zeros_are_one_run_where_the_key_says_so() {
    let mut rng = StdRng::seed_from_u64(0x0000_5160);
    let mut bench = Bench::new(
        "uniform".into(),
        FireSim::new(Terrain::uniform(17, 21, 90.0)),
        &FireLine::from_cells(17, 21, &[(8, 10)]),
        0.0,
        300.0,
    );
    for _ in 0..200 {
        let s = scenario(&mut rng);
        // A gene of `-0.0` decodes as `0.0` does: one scenario, one key.
        let mut genes = ScenarioSpace.encode(&s);
        for g in [1, 2, 7, 8] {
            genes[g] = 0.0;
            let plus = ScenarioSpace.decode(&genes);
            genes[g] = -0.0;
            let minus = ScenarioSpace.decode(&genes);
            assert_eq!(
                bench.sim.run_key(&plus),
                bench.sim.run_key(&minus),
                "gene {g}"
            );
            bench.assert_alike(&plus, &[minus], "a signed zero gene");
        }
        // A speed or a slope of `-0.0` is calm air or flat ground: the
        // direction or the aspect is dropped, though the sign is kept.
        let calm = Scenario {
            wind_speed_mph: -0.0,
            ..s
        };
        let turned = Scenario {
            wind_dir_deg: random_value(&mut rng, 2),
            ..calm
        };
        let flat = Scenario {
            slope_deg: -0.0,
            ..s
        };
        let faced = Scenario {
            aspect_deg: random_value(&mut rng, 8),
            ..flat
        };
        for (x, y, rule) in [(calm, turned, "-0.0 speed"), (flat, faced, "-0.0 slope")] {
            assert_eq!(bench.sim.run_key(&x), bench.sim.run_key(&y), "{rule}");
            bench.assert_alike(&x, &[y], rule);
        }
        let positive = Scenario {
            wind_speed_mph: 0.0,
            ..s
        };
        assert_ne!(
            bench.sim.run_key(&calm),
            bench.sim.run_key(&positive),
            "bits"
        );
    }
}
