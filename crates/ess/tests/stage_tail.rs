//! The stage tail — Statistical, Calibration and Prediction stages — is a
//! fold over the cells a result set burned, and must (a) give exactly what
//! the dense definition gives and (b) cost what the fire costs.
//!
//! (a) On real runs over every non-XL case: the matrix folded from one
//! lent, never-clean arena's written ranges equals the matrix accumulated
//! from each scenario's materialised fire line, on every kernel (the heap
//! kernel reports one range, the whole raster) on each case's first
//! interval and the default kernel after; and `SKign` search and
//! prediction quality against a context's counted observation are
//! bit-identical to the public, scanning entry points and to thresholding
//! the raster per level and tallying it whole. The same holds over seeded
//! random result sets (overlapping, disjoint, empty, one sample) with and
//! without a pre-burn mask, at `Kign` 0, 1, every level and between levels.
//!
//! (b) A count guard, not a clock: on `archipelago_xl` step 1 the map
//! touches no more cells than the runs wrote, the calibration walk visits
//! no more than the map touched, and the arena the pool lends the tail
//! holds one raster — so a regression to a raster walk or to an arena per
//! scenario fails here deterministically. (That a repeated tail allocates
//! nothing is counted by the root package's `tests/allocations.rs`.)
//!
//! (c) A result set with repeats is folded as a multiset: its distinct
//! members, each simulated once with its multiplicity, give the
//! per-member matrix on every case, interval and kernel of (a). (The
//! driver's tail is counted in simulations by a unit test of
//! `ess::pipeline`.)

#![allow(
    clippy::expect_used,
    reason = "test helpers outside a #[test] fn expect on fixtures the suite itself registers"
)]

use ess::calibration::{skign_search, skign_search_against, CalibrationOutcome, PredictionStage};
use ess::cases::{self, BurnCase};
use ess::fitness::{EvalBackend, SharedScenarioPool};
use ess::stages::{distinct_members, statistical_stage, statistical_stage_into};
use firelib::{Kernel, Scenario};
use landscape::{jaccard, FireLine, LevelHistogram, ProbabilityMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KERNELS: [Kernel; 3] = [
    Kernel::Heap,
    Kernel::Bucket,
    Kernel::Tiled {
        tile: 16,
        workers: 2,
    },
];

/// Result sets around an interval's truth: empty, the truth alone, one
/// that barely spreads (so members disagree on most cells), a converged
/// one (three members repeated 4, 2 and 1 times, folded as a multiset),
/// and a spread of bent truths whose burns overlap only partly.
fn result_sets(truth: &Scenario) -> Vec<Vec<Scenario>> {
    let damp = Scenario {
        m1_pct: 60.0,
        m10_pct: 60.0,
        m100_pct: 60.0,
        ..*truth
    };
    let bent = |k: usize| Scenario {
        wind_dir_deg: (truth.wind_dir_deg + 70.0 * k as f64) % 360.0,
        wind_speed_mph: truth.wind_speed_mph * (0.5 + 0.4 * k as f64),
        ..*truth
    };
    vec![
        vec![],
        vec![*truth],
        vec![*truth, damp, *truth],
        vec![*truth, damp, *truth, *truth, bent(1), damp, *truth],
        (0..5).map(bent).chain([damp]).collect(),
    ]
}

/// The dense definition of the `SKign` search: threshold the raster at
/// every level, tally each prediction over the whole raster.
fn skign_search_dense(
    matrix: &ProbabilityMap,
    observed: &FireLine,
    preburn: Option<&FireLine>,
) -> CalibrationOutcome {
    let score = |level: f64| (level, jaccard(observed, &matrix.threshold(level), preburn));
    let levels = matrix.distinct_levels().into_iter().filter(|&l| l > 0.0);
    let mut curve: Vec<(f64, f64)> = levels.map(score).collect();
    if curve.is_empty() {
        curve.push(score(1.0));
    }
    let (mut kign, mut fitness) = (1.0, f64::NEG_INFINITY);
    for &(level, f) in &curve {
        if f > fitness || (f == fitness && level > kign) {
            (kign, fitness) = (level, f);
        }
    }
    CalibrationOutcome {
        kign,
        fitness,
        curve,
    }
}

/// `Kign` 0, 1, every level of `matrix` and a value between each pair of
/// neighbouring levels.
fn kigns(matrix: &ProbabilityMap) -> Vec<f64> {
    let levels = matrix.distinct_levels();
    let mut kigns = vec![0.0, 1.0];
    kigns.extend(&levels);
    kigns.extend(levels.windows(2).map(|w| (w[0] + w[1]) / 2.0));
    kigns
}

fn non_xl_cases() -> Vec<BurnCase> {
    let xl = firelib::workload::xl_names();
    let names = cases::case_names().into_iter().filter(|n| !xl.contains(n));
    names
        .map(|n| cases::by_name(n).expect("registered"))
        .collect()
}

#[test]
fn the_fold_and_the_histogram_stages_equal_the_dense_definition() {
    let (mut sets, mut fractional) = (0, 0);
    for case in non_xl_cases() {
        // One arena and one map per case, lent to every stage on every
        // kernel: each fold inherits whatever the previous one left in them.
        let mut arena = case.sim.arena();
        let terrain = case.sim.terrain();
        let mut folded = ProbabilityMap::new(terrain.rows(), terrain.cols());
        for i in 1..case.intervals() {
            // Every kernel on the first interval, the serve path's after.
            let kernels = if i == 1 { &KERNELS[..] } else { &KERNELS[1..2] };
            for &kernel in kernels {
                let ctx = case.step_context(i).with_kernel(kernel);
                let (target, from) = (ctx.target_line(), ctx.from_line());
                for set in result_sets(&case.truth[i - 1]) {
                    let what = format!("{} interval {i} {kernel} ×{}", case.name, set.len());
                    let members = distinct_members(&case.sim, &set);
                    statistical_stage_into(&ctx, &members, &mut arena, &mut folded);
                    let mut dense = ProbabilityMap::new(target.rows(), target.cols());
                    for s in &set {
                        dense.accumulate(&ctx.simulate_line(s));
                    }
                    assert_eq!(folded, dense, "{what}: fold vs dense accumulate");
                    assert_eq!(folded, statistical_stage(&ctx, &set), "{what}: own arena");
                    assert_eq!(folded.samples() as usize, set.len());

                    let counted = skign_search_against(&folded, &ctx.observed());
                    assert_eq!(counted, skign_search(&folded, target, Some(from)), "{what}");
                    assert_eq!(
                        counted,
                        skign_search_dense(&folded, target, Some(from)),
                        "{what}"
                    );
                    assert_eq!(
                        skign_search(&folded, target, None),
                        skign_search_dense(&folded, target, None),
                        "{what}: no preburn"
                    );
                    for kign in kigns(&folded) {
                        let ps = PredictionStage::new(kign);
                        let oracle = jaccard(target, &ps.predict(&folded), Some(from));
                        let counted = ps.quality_against(&folded, &ctx.observed());
                        assert_eq!(counted.to_bits(), oracle.to_bits(), "{what} kign {kign}");
                        let scanned = ps.quality(&folded, target, Some(from));
                        assert_eq!(scanned.to_bits(), oracle.to_bits(), "{what} kign {kign}");
                        let bare = jaccard(target, &ps.predict(&folded), None);
                        assert_eq!(
                            ps.quality(&folded, target, None).to_bits(),
                            bare.to_bits(),
                            "{what} kign {kign}: no preburn"
                        );
                    }
                    sets += 1;
                    fractional += usize::from(folded.distinct_levels().len() > 2);
                }
            }
        }
    }
    assert!(
        fractional * 4 > sets,
        "the result sets must disagree often enough to exercise the levels \
         ({fractional} of {sets} matrices have a fractional level)"
    );
}

/// A seeded result set of 0–6 random burned masks on a 9×11 raster — dense
/// or sparse, so sets overlap, stay disjoint or burn nothing — fed to the
/// map as an arena would: in pieces cut at random cells, the unburned ones
/// left out.
fn random_matrix(rng: &mut StdRng) -> ProbabilityMap {
    const CELLS: usize = 9 * 11;
    let mut matrix = ProbabilityMap::new(9, 11);
    for _ in 0..rng.random_range(0..7usize) {
        let density = [0.0, 0.05, 0.4, 0.9][rng.random_range(0..4usize)];
        let mask: Vec<bool> = (0..CELLS).map(|_| rng.random::<f64>() < density).collect();
        let mut cuts: Vec<usize> = (0..4).map(|_| rng.random_range(0..CELLS + 1)).collect();
        cuts.extend([0, CELLS]);
        cuts.sort_unstable();
        let pieces = cuts.windows(2).map(|w| w[0]..w[1]);
        let written = pieces.filter(|p| mask[p.clone()].contains(&true));
        matrix.accumulate_ranges(&mask, |&burned| burned, written, 1);
    }
    matrix
}

#[test]
fn random_result_sets_calibrate_and_predict_as_the_dense_definition_does() {
    let random_line = |rng: &mut StdRng| FireLine::from_fn(9, 11, |_, _| rng.random::<bool>());
    let (mut degenerate, mut searched) = (0, 0);
    for seed in 0..200 {
        let mut rng = StdRng::seed_from_u64(seed);
        let matrix = random_matrix(&mut rng);
        let (observed, pre) = (random_line(&mut rng), random_line(&mut rng));
        for preburn in [None, Some(&pre)] {
            let found = skign_search(&matrix, &observed, preburn);
            assert_eq!(
                found,
                skign_search_dense(&matrix, &observed, preburn),
                "seed {seed}"
            );
            for kign in kigns(&matrix) {
                let ps = PredictionStage::new(kign);
                let oracle = jaccard(&observed, &ps.predict(&matrix), preburn);
                assert_eq!(
                    ps.quality(&matrix, &observed, preburn).to_bits(),
                    oracle.to_bits(),
                    "seed {seed} kign {kign}"
                );
            }
            degenerate += usize::from(matrix.distinct_levels() == [0.0]);
            searched += usize::from(found.curve.len() > 2);
        }
    }
    assert!(degenerate > 0 && searched > 0, "{degenerate} {searched}");
}

/// A result set with repeats is its distinct members with their
/// multiplicities, in first-occurrence order — one entry, so one
/// simulation per matrix, for each. (That the multiset's fold is the
/// per-member matrix is the converged set of [`result_sets`] above.)
#[test]
fn a_result_set_with_repeats_is_its_distinct_members_with_multiplicities() {
    let case = cases::tiny_test_case();
    let converged = result_sets(&case.truth[0]).swap_remove(3);
    let (a, damp, bent) = (converged[0], converged[1], converged[4]);
    let sim = &case.sim;
    assert_eq!(
        distinct_members(sim, &converged),
        [(a, 4), (damp, 2), (bent, 1)]
    );
    // Bit for bit: a member equal to another only as a float is its own.
    let plain = Scenario::reference();
    let signed = Scenario {
        slope_deg: -0.0,
        ..plain
    };
    let grouped = distinct_members(sim, &[plain, signed, plain]);
    assert_eq!(grouped.len(), 2);
    assert_eq!((grouped[0].1, grouped[1].1), (2, 1));
    assert_eq!(grouped[1].0.slope_deg.to_bits(), (-0.0f64).to_bits());
}

#[test]
fn the_stage_tail_costs_what_the_result_set_burned() {
    let case = cases::by_name("archipelago_xl").expect("registered");
    let ctx = case.step_context(1);
    let set = result_sets(&case.truth[0]).pop().expect("non-empty");
    let cells = ctx.target_line().len();
    // The arena a run's stage tail folds on: the pool's spare.
    let pool = SharedScenarioPool::new(EvalBackend::Serial);
    pool.with_spare(&case.sim, |arena, matrix| {
        // One scenario at a time, so each run's write set can be counted.
        let mut written = 0;
        for s in &set {
            statistical_stage_into(&ctx, &[(*s, 1)], arena, matrix);
            written += arena.written_ranges().map(|r| r.len()).sum::<usize>();
        }
        assert_eq!(
            arena.raster_bytes(),
            cells * std::mem::size_of::<f64>(),
            "one raster"
        );

        statistical_stage_into(&ctx, &distinct_members(&case.sim, &set), arena, matrix);
        let touched: usize = matrix.touched_ranges().map(|r| r.len()).sum();
        assert!(touched > 0, "the result set must burn something");
        assert!(
            touched <= written,
            "the map touched {touched} cells, the runs wrote {written}"
        );
        assert!(
            written * 10 < cells,
            "the guard needs a fire much smaller than the raster ({written} of {cells} cells)"
        );
        let mut hist = LevelHistogram::default();
        matrix.histogram_into(&ctx.observed(), &mut hist);
        assert!(
            hist.visited() <= touched,
            "the calibration walk left the spans"
        );
        // And the walk's answer is the dense one.
        assert_eq!(
            skign_search_against(matrix, &ctx.observed()),
            skign_search_dense(matrix, ctx.target_line(), Some(ctx.from_line()))
        );
    });
}
