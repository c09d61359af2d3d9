//! Property-style tests for the evolutionary substrate invariants: each
//! test checks its invariant over many randomly generated inputs from a
//! deterministic seed stream (the workspace builds without external
//! dependencies, so the former proptest strategies are seeded loops).

use evoalg::bestset::{BestSet, ScoredGenome};
use evoalg::knn::{NoveltyEngine, PreparedIndex};
use evoalg::novelty::{
    behaviour_distance, local_competition_score, novelty_score, novelty_score_external,
    ArchiveEntry, NoveltyArchive,
};
use evoalg::operators;
use evoalg::selection::{self, RouletteWheel};
use evoalg::{engine, BehaviourMatrix, DeConfig, DeEngine, GaConfig, GaEngine};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const CASES: u64 = 64;

fn genome(rng: &mut StdRng, dims: usize) -> Vec<f64> {
    (0..dims).map(|_| rng.random::<f64>()).collect()
}

/// Roulette always returns a valid index and never selects a zero-weight
/// entry when any weight is positive.
#[test]
fn roulette_valid_and_zero_excluded() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..30usize);
        let scores: Vec<f64> = (0..n)
            .map(|_| {
                if rng.random::<bool>() {
                    rng.random::<f64>() * 10.0
                } else {
                    0.0
                }
            })
            .collect();
        let i = RouletteWheel::new(&scores).spin(&mut rng);
        assert!(i < scores.len());
        if scores.iter().any(|&s| s > 0.0) {
            assert!(
                scores[i] > 0.0,
                "selected zero-weight index {i} of {scores:?}"
            );
        }
    }
}

/// Crossover children stay inside the unit cube and keep genome length.
#[test]
fn crossover_closure() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = genome(&mut rng, 9);
        let b = genome(&mut rng, 9);
        let (mut c1, mut c2) = (Vec::new(), Vec::new());
        operators::one_point_crossover_into(&a, &b, &mut c1, &mut c2, &mut rng);
        for child in [&c1, &c2] {
            assert_eq!(child.len(), 9);
            assert!(child.iter().all(|g| (0.0..=1.0).contains(g)));
        }
    }
}

/// Mutation keeps genes in the unit cube for any rate.
#[test]
fn mutation_closure() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut genes = genome(&mut rng, 9);
        let rate = rng.random::<f64>();
        operators::uniform_mutation(&mut genes, rate, &mut rng);
        assert!(genes.iter().all(|g| (0.0..=1.0).contains(g)));
    }
}

/// DE trial vectors stay in the unit cube.
#[test]
fn de_closure() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(4..12usize);
        let pop: Vec<Vec<f64>> = (0..n).map(|_| genome(&mut rng, 6)).collect();
        let f = 0.1 + rng.random::<f64>() * 1.9;
        let cr = rng.random::<f64>();
        let mut trial = Vec::new();
        for target in 0..pop.len() {
            operators::de_rand_1_donor_into(&pop, target, f, &mut trial, &mut rng);
            operators::de_binomial_crossover_into(&pop[target], &mut trial, cr, &mut rng);
            assert!(trial.iter().all(|g| (0.0..=1.0).contains(g)));
        }
    }
}

/// Novelty scores are non-negative, and adding a duplicate of the subject
/// never increases its novelty.
#[test]
fn novelty_nonneg_and_duplicate_antitone() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(3..20usize);
        let mut behaviours: Vec<Vec<f64>> = (0..n).map(|_| genome(&mut rng, 2)).collect();
        let k = rng.random_range(1..6usize);
        let before = novelty_score(0, &behaviours, k);
        assert!(before >= 0.0);
        behaviours.push(behaviours[0].clone());
        let after = novelty_score(0, &behaviours, k);
        assert!(
            after <= before + 1e-12,
            "duplicate raised novelty {before} → {after}"
        );
    }
}

/// Cross-check of the kNN selection inside `novelty_score` against a
/// brute-force oracle: sort *all* pairwise distances and average the k
/// smallest. The partial-selection fast path must agree.
#[test]
fn novelty_score_matches_brute_force_knn() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
        let n = rng.random_range(2..40usize);
        let dims = rng.random_range(1..4usize);
        let behaviours: Vec<Vec<f64>> = (0..n).map(|_| genome(&mut rng, dims)).collect();
        let k = rng.random_range(1..8usize);
        for subject in 0..n {
            let got = novelty_score(subject, &behaviours, k);
            // Brute force: every distance to the subject, fully sorted.
            let mut dists: Vec<f64> = behaviours
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != subject)
                .map(|(_, b)| behaviour_distance(&behaviours[subject], b))
                .collect();
            dists.sort_by(f64::total_cmp);
            let kk = k.min(dists.len());
            let expected = dists[..kk].iter().sum::<f64>() / kk as f64;
            assert!(
                (got - expected).abs() <= 1e-9 * expected.max(1.0),
                "seed {seed} subject {subject}: fast {got} vs brute-force {expected}"
            );
        }
    }
}

/// Generates a behaviour set with deliberate duplicate rows (duplicates
/// force distance ties — the hard case for kNN tie order).
fn behaviour_set(rng: &mut StdRng, n: usize, dims: usize) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for _ in 0..n {
        if !rows.is_empty() && rng.random::<f64>() < 0.3 {
            // Duplicate an existing row verbatim.
            let src = rng.random_range(0..rows.len());
            rows.push(rows[src].clone());
        } else {
            rows.push(genome(rng, dims));
        }
    }
    rows
}

/// Appends a zero coordinate to every 1-D row: the same points, now 2-D,
/// so `PreparedIndex` takes the exhaustive scan over identical distances
/// (`(dx² + 0²).sqrt()` has the bits of `(dx²).sqrt()`).
fn zero_padded(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
    rows.iter().map(|r| vec![r[0], 0.0]).collect()
}

/// Both index paths — the sorted scan `dim == 1` picks, the exhaustive
/// scan every other shape gets — are **bit-identical** (`f64`-exact, not
/// tolerance-based) to the brute-force reference `novelty_score` and
/// `local_competition_score` — across random dims, k, duplicates, and
/// archive sizes (the reference set is subjects + archive rows, subjects
/// scored against all of it, exactly the Algorithm 1 lines 11–14 shape).
/// 1-D sets are scored a second time zero-padded to 2-D, which pins
/// sorted ≡ exhaustive on the same data, ties and duplicates included.
#[test]
fn novelty_index_bit_identical_to_brute_force() {
    let engine = NoveltyEngine;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1D_C0DE);
        let subjects = rng.random_range(1..24usize);
        let archive = rng.random_range(0..32usize);
        let dims = rng.random_range(1..4usize);
        let k = rng.random_range(1..8usize);
        let rows = behaviour_set(&mut rng, subjects + archive, dims);
        let fitnesses: Vec<f64> = (0..rows.len()).map(|_| rng.random::<f64>()).collect();

        let expected_rho: Vec<f64> = (0..subjects).map(|i| novelty_score(i, &rows, k)).collect();
        let expected_lc: Vec<f64> = (0..subjects)
            .map(|i| local_competition_score(i, &rows, &fitnesses, k))
            .collect();
        let mut matrices = vec![("as generated", BehaviourMatrix::from_rows(&rows))];
        if dims == 1 {
            matrices.push((
                "zero-padded",
                BehaviourMatrix::from_rows(&zero_padded(&rows)),
            ));
        }
        for (shape, matrix) in &matrices {
            assert_eq!(
                engine.novelty_scores(matrix, subjects, k),
                expected_rho,
                "seed {seed}: {shape} ρ diverged (dims {dims}, k {k}, \
                 {subjects}+{archive} rows)"
            );
            let mut lc = vec![0.0; subjects];
            PreparedIndex::new(matrix).local_competition_scores_into(&fitnesses, k, &mut lc);
            assert_eq!(
                lc, expected_lc,
                "seed {seed}: {shape} LC diverged (dims {dims}, k {k}, \
                 {subjects}+{archive} rows)"
            );
        }
    }
}

/// External (non-member) queries agree bit-for-bit too, including the
/// empty-reference sentinel and the zero-padded form of 1-D sets.
#[test]
fn novelty_index_external_bit_identical() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE47);
        let n = rng.random_range(0..30usize);
        let dims = rng.random_range(1..4usize);
        let k = rng.random_range(1..6usize);
        let rows = behaviour_set(&mut rng, n.max(1), dims);
        let rows = if n == 0 { Vec::new() } else { rows };
        let matrix = BehaviourMatrix::from_rows(&rows);
        let padded = (dims == 1).then(|| BehaviourMatrix::from_rows(&zero_padded(&rows)));
        for _ in 0..4 {
            let query = genome(&mut rng, dims);
            let expected = novelty_score_external(&query, &rows, k);
            assert_eq!(
                PreparedIndex::new(&matrix).novelty_of_external(&query, k),
                expected,
                "seed {seed}: external ρ diverged (dims {dims}, k {k}, n {n})"
            );
            if let Some(padded) = &padded {
                assert_eq!(
                    PreparedIndex::new(padded).novelty_of_external(&[query[0], 0.0], k),
                    expected,
                    "seed {seed}: zero-padded external ρ diverged (k {k}, n {n})"
                );
            }
        }
    }
}

/// The archive never exceeds capacity and its minimum novelty is
/// monotonically non-decreasing once full (novelty-only replacement).
#[test]
fn archive_invariants() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = rng.random_range(1..8usize);
        let offers = rng.random_range(1..60usize);
        let mut archive = NoveltyArchive::new(capacity);
        let mut last_min: Option<f64> = None;
        for _ in 0..offers {
            let genes = genome(&mut rng, 3);
            let novelty = rng.random::<f64>() * 10.0;
            archive.offer(&genes, &genes, novelty, 0.5);
            assert!(archive.len() <= capacity);
            if archive.len() == capacity {
                let min = archive
                    .entries()
                    .iter()
                    .map(|e| e.novelty)
                    .fold(f64::INFINITY, f64::min);
                if let Some(prev) = last_min {
                    assert!(min >= prev - 1e-12, "archive min regressed {prev} → {min}");
                }
                last_min = Some(min);
            }
        }
    }
}

/// With deterministic fitness (the real-usage contract: one genome, one
/// fitness), BestSet holds exactly the top-capacity distinct-genome
/// fitness values of the offered stream, in descending order.
#[test]
fn bestset_is_topk() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = rng.random_range(1..10usize);
        let len = rng.random_range(1..80usize);
        let stream: Vec<u8> = (0..len).map(|_| rng.random_range(0..40u32) as u8).collect();
        // Deterministic per-genome fitness, injective enough to avoid ties
        // mattering while exercising the comparison paths.
        let fitness_of = |gene: u8| ((gene as f64 * 37.0) % 41.0) / 41.0;
        let mut bs = BestSet::new(capacity);
        let mut seen: Vec<u8> = Vec::new();
        for &gene in &stream {
            bs.offer(&[gene as f64], fitness_of(gene));
            if !seen.contains(&gene) {
                seen.push(gene);
            }
        }
        let mut expected: Vec<f64> = seen.iter().map(|&g| fitness_of(g)).collect();
        expected.sort_by(|a, b| b.total_cmp(a));
        expected.truncate(capacity);
        let got = bs.fitness_values();
        assert_eq!(got.len(), expected.len());
        assert!(got.windows(2).all(|w| w[0] >= w[1]));
        for (g, e) in got.iter().zip(&expected) {
            assert!(
                (g - e).abs() < 1e-12,
                "top-k mismatch: {got:?} vs {expected:?}"
            );
        }
    }
}

/// The packed-key ranking is the stable sort by descending score, over
/// tie-heavy scores with both signed zeros.
#[test]
fn elitist_ranking_is_the_stable_sort() {
    let levels = [-0.0, 0.0, 0.25, 0.5, f64::MIN_POSITIVE, 1.0];
    let mut ranking = selection::ElitistRanking::default();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let scores: Vec<f64> = (0..rng.random_range(1..40usize))
            .map(|_| levels[rng.random_range(0..levels.len())])
            .collect();
        let mut expected: Vec<usize> = (0..scores.len()).collect();
        expected.sort_by(|&x, &y| scores[y].total_cmp(&scores[x]));
        ranking.rank(scores.iter().copied());
        let got: Vec<usize> = ranking.order().collect();
        assert_eq!(got, expected, "seed {seed}: order differs on {scores:?}");
    }
}

// ---------------------------------------------------------------------
// The master's bookkeeping against copies of the code it replaced: each
// reference below rescans, re-sums or clones on every call, as the
// search master once did. Streams draw from small discrete sets, so ties
// are the common case rather than the rare one.
// ---------------------------------------------------------------------

/// The archive before it cached its minimum: an offer to a full archive
/// rescans every entry. `tied` counts replacements made while more than
/// one entry held the minimum.
struct RescanningArchive {
    capacity: usize,
    entries: Vec<ArchiveEntry>,
    rows: Vec<Vec<f64>>,
    tied: usize,
}

impl RescanningArchive {
    fn offer(&mut self, genes: &[f64], behaviour: &[f64], novelty: f64, fitness: f64) -> bool {
        let entry = ArchiveEntry {
            genes: genes.to_vec(),
            novelty,
            fitness,
        };
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            self.rows.push(behaviour.to_vec());
            return true;
        }
        let least = (self.entries.iter().enumerate())
            .map(|(i, e)| (i, e.novelty))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let Some((min_idx, min_novelty)) = least else {
            return false;
        };
        if novelty > min_novelty {
            let holders = (self.entries.iter())
                .filter(|e| e.novelty.total_cmp(&min_novelty).is_eq())
                .count();
            self.tied += usize::from(holders > 1);
            self.entries[min_idx] = entry;
            self.rows[min_idx] = behaviour.to_vec();
            true
        } else {
            false
        }
    }
}

/// The archive's cached minimum evicts exactly the entry a rescan picks —
/// the first minimum by `total_cmp`, `-0.0` below `0.0` — at every
/// capacity from 1 to 10, through the offer that fills it and every
/// replacement after, ties included; and its incrementally maintained
/// `BehaviourMatrix` (push on admit, overwrite on replace) stays the
/// reference's rows. Every fourth stream draws continuous novelty, where
/// ties are rare.
#[test]
fn master_archive_matches_the_rescanning_archive_under_ties() {
    const NOVELTY: [f64; 5] = [-0.0, 0.0, 0.25, 0.5, 0.75];
    let (mut fills, mut tied) = (0, 0);
    for seed in 0..4 * CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7135);
        let capacity = rng.random_range(1..11usize);
        let dims = rng.random_range(1..4usize);
        let levels = rng.random_range(1..NOVELTY.len() + 1);
        let continuous = seed % 4 == 3;
        let mut archive = NoveltyArchive::new(capacity);
        let mut reference = RescanningArchive {
            capacity,
            entries: Vec::new(),
            rows: Vec::new(),
            tied: 0,
        };
        for offer in 0..rng.random_range(capacity..4 * capacity + 20) {
            let genes = genome(&mut rng, 2);
            let behaviour = genome(&mut rng, dims);
            let novelty = if continuous {
                rng.random::<f64>() * 10.0
            } else {
                NOVELTY[rng.random_range(0..levels)]
            };
            let fitness = f64::from(rng.random_range(0..3u32)) * 0.5;
            let expected = reference.offer(&genes, &behaviour, novelty, fitness);
            assert_eq!(
                archive.offer(&genes, &behaviour, novelty, fitness),
                expected,
                "seed {seed} offer {offer}: verdicts differ"
            );
            assert_eq!(
                archive.entries(),
                &reference.entries[..],
                "seed {seed} offer {offer}: entries differ"
            );
            assert_eq!(
                archive.behaviour_matrix().to_rows(),
                reference.rows,
                "seed {seed} offer {offer}: matrix rows differ"
            );
            fills += usize::from(offer + 1 == capacity);
        }
        tied += reference.tied;
    }
    assert!(fills > 0, "no stream filled its archive");
    assert!(tied > 0, "no replacement chose among tied minima");
}

/// `bestSet` before it tested the bound first: every offer scans for a
/// duplicate, then a full set tests its bound.
struct ScanFirstBestSet {
    capacity: usize,
    entries: Vec<ScoredGenome>,
}

impl ScanFirstBestSet {
    fn offer(&mut self, genes: &[f64], fitness: f64) -> bool {
        if self.entries.iter().any(|e| e.genes == genes) {
            return false;
        }
        if self.entries.len() == self.capacity {
            match self.entries.last().map(|e| e.fitness) {
                Some(min) if fitness > min => {
                    self.entries.pop();
                }
                _ => return false,
            }
        }
        let pos = self.entries.partition_point(|e| e.fitness >= fitness);
        self.entries.insert(
            pos,
            ScoredGenome {
                genes: genes.to_vec(),
                fitness,
            },
        );
        true
    }
}

/// Testing the full-set bound before the duplicate scan accepts, rejects
/// and orders exactly as scanning first did: duplicates above and at or
/// below the minimum, the same genes refit, ties on fitness.
#[test]
fn master_bestset_bound_first_matches_scan_first_under_ties() {
    let (mut above, mut below, mut refit) = (0, 0, 0);
    for seed in 0..4 * CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBE57);
        let capacity = rng.random_range(1..11usize);
        // A small genome pool makes duplicates common, a small fitness
        // set makes ties common, and drawing them apart refits genomes.
        let pool: Vec<Vec<f64>> = (0..rng.random_range(1..3 * capacity + 2))
            .map(|_| {
                vec![
                    f64::from(rng.random_range(0..4u32)),
                    f64::from(rng.random_range(0..4u32)),
                ]
            })
            .collect();
        let mut bs = BestSet::new(capacity);
        let mut reference = ScanFirstBestSet {
            capacity,
            entries: Vec::new(),
        };
        for offer in 0..rng.random_range(1..8 * capacity + 8) {
            let genes = &pool[rng.random_range(0..pool.len())];
            let fitness = f64::from(rng.random_range(0..5u32)) * 0.25;
            if let Some(dup) = reference.entries.iter().find(|e| &e.genes == genes) {
                refit += usize::from(dup.fitness != fitness);
                if reference.entries.len() == capacity {
                    match reference.entries.last() {
                        Some(min) if fitness > min.fitness => above += 1,
                        _ => below += 1,
                    }
                }
            }
            let expected = reference.offer(genes, fitness);
            assert_eq!(
                bs.offer(genes, fitness),
                expected,
                "seed {seed} offer {offer}: verdicts differ"
            );
            assert_eq!(
                bs.entries(),
                &reference.entries[..],
                "seed {seed} offer {offer}: entries differ"
            );
        }
    }
    assert!(above > 0, "no duplicate above a full set's minimum");
    assert!(below > 0, "no duplicate at or below a full set's minimum");
    assert!(refit > 0, "no genome offered again at another fitness");
}

/// Roulette before the wheel: validate and sum every score on every spin.
/// `fell_off` counts spins whose ticket outlived the whole walk.
fn roulette_per_spin<R: Rng + ?Sized>(scores: &[f64], rng: &mut R, fell_off: &mut usize) -> usize {
    assert!(!scores.is_empty(), "roulette over an empty slice");
    let mut total = 0.0;
    for &s in scores {
        assert!(s.is_finite() && s >= 0.0);
        total += s;
    }
    if total <= 0.0 {
        return rng.random_range(0..scores.len());
    }
    let mut ticket = rng.random::<f64>() * total;
    for (i, &s) in scores.iter().enumerate() {
        ticket -= s;
        if ticket <= 0.0 {
            return i;
        }
    }
    *fell_off += 1;
    scores.len() - 1
}

/// A seeded stream that often yields the extreme draws: `0` (a ticket of
/// exactly zero) and `u64::MAX` (the largest ticket below the total, the
/// one that falls off a wheel with trailing zeros).
#[derive(Debug, Clone, PartialEq)]
struct EdgeRng(StdRng);

impl RngCore for EdgeRng {
    fn next_u64(&mut self) -> u64 {
        match self.0.next_u64() % 4 {
            0 => 0,
            1 => u64::MAX,
            _ => self.0.next_u64(),
        }
    }
}

/// The wheel built once per generation spins the index the per-spin
/// roulette did and leaves the generator in the same state, on all-zero
/// wheels, single entries and trailing zeros where the ticket falls off
/// the end.
#[test]
fn master_wheel_matches_the_per_spin_roulette() {
    const SCORES: [f64; 8] = [0.0, 0.05, 0.1, 0.2, 0.3, 0.7, 1.1, 3.3];
    let mut fell_off = 0;
    for seed in 0..16 * CASES {
        let mut rng = EdgeRng(StdRng::seed_from_u64(seed ^ 0x3EE1));
        let n = rng.0.random_range(1..8usize);
        let draw = |rng: &mut EdgeRng| SCORES[rng.0.random_range(0..SCORES.len())];
        let scores: Vec<f64> = match seed % 4 {
            0 => vec![0.0; n],
            1 => vec![draw(&mut rng)],
            2 => {
                let mut s: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
                s.extend(std::iter::repeat_n(0.0, 1 + n % 3));
                s
            }
            _ => (0..n).map(|_| draw(&mut rng)).collect(),
        };
        let wheel = RouletteWheel::new(&scores);
        let mut old = rng.clone();
        for spin in 0..32 {
            let expected = roulette_per_spin(&scores, &mut old, &mut fell_off);
            assert_eq!(
                wheel.spin(&mut rng),
                expected,
                "seed {seed} spin {spin}: index differs on {scores:?}"
            );
            assert_eq!(rng, old, "seed {seed} spin {spin}: generator state differs");
        }
    }
    assert!(fell_off > 0, "no ticket fell off a wheel");
}

/// A row: its genes and its fitness' bits (NaN compares equal to itself).
type Row = (Vec<f64>, u64);

/// An engine's population as rows.
fn rows_of<S: evoalg::Scheme>(engine: &evoalg::Engine<S>) -> Vec<Row> {
    let fitness = engine.fitness().iter().map(|f| f.to_bits());
    engine.population().iter().cloned().zip(fitness).collect()
}

/// The GA's replacement over its kept rows keeps the members, in the
/// order, that replacement by clone did — the first `N` of parents ∪
/// offspring by a stable sort by descending fitness — tied scores
/// included, generation after generation on the rows it reuses.
#[test]
fn master_replacement_by_move_matches_replacement_by_clone() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let (n, m) = (rng.random_range(2..12usize), rng.random_range(2..12usize));
        let config = GaConfig {
            population_size: n,
            offspring: m,
            seed,
            ..GaConfig::default()
        };
        let mut engine = GaEngine::new(2, config);
        let mut tied = |len| -> Vec<f64> {
            (0..len)
                .map(|_| f64::from(rng.random_range(0..3u32)))
                .collect()
        };
        engine.score_population(&tied(n));
        for generation in 0..3 {
            engine.propose();
            let fitness = tied(m);
            let offspring = engine.candidates().iter().cloned();
            let offspring = offspring.zip(fitness.iter().map(|f| f.to_bits()));
            let all: Vec<Row> = rows_of(&engine).into_iter().chain(offspring).collect();
            // The replacement by clone: a stable sort by descending
            // fitness, the first `n` indices cloned out.
            let mut order: Vec<usize> = (0..all.len()).collect();
            let f = |i: usize| f64::from_bits(all[i].1);
            order.sort_by(|&x, &y| f(y).total_cmp(&f(x)));
            let expected: Vec<Row> = order.iter().take(n).map(|&i| all[i].clone()).collect();
            engine.accept(&fitness);
            assert_eq!(
                rows_of(&engine),
                expected,
                "seed {seed} generation {generation}: survivors differ"
            );
        }
    }
}

/// The engines' fitness order over the population — the restart's, the
/// ring migration's and ESSIM-DE's elite pick's — is a stable sort by
/// descending fitness with unscored (NaN) members read as −∞.
#[test]
fn master_fitness_order_is_the_stable_sort_with_unscored_last() {
    let pool = [f64::NAN, f64::NEG_INFINITY, -0.0, 0.0, 0.5, 1.0];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE5);
        let n = rng.random_range(4..16usize);
        let config = DeConfig {
            population_size: n,
            seed,
            ..DeConfig::default()
        };
        let mut engine = DeEngine::new(3, config);
        for i in 0..n {
            let genes = engine.population()[i].clone();
            engine.set_member(i, &genes, pool[rng.random_range(0..pool.len())]);
        }
        let before = rows_of(&engine);
        let key = |i: usize| {
            let f = f64::from_bits(before[i].1);
            if f.is_finite() {
                f
            } else {
                f64::NEG_INFINITY
            }
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&x, &y| key(y).total_cmp(&key(x)));
        engine.sort_by_fitness();
        let expected: Vec<Row> = order.iter().map(|&i| before[i].clone()).collect();
        assert_eq!(rows_of(&engine), expected, "seed {seed}");
    }
}

/// The IQR is non-negative, and zero for constant samples.
#[test]
fn iqr_nonnegative() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(0..40usize);
        let mut v: Vec<f64> = (0..n).map(|_| -1e3 + rng.random::<f64>() * 2e3).collect();
        assert!(engine::iqr(&mut v) >= 0.0);
    }
    assert_eq!(engine::iqr(&mut [2.5; 9]), 0.0);
}
