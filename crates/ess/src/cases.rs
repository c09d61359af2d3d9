//! Synthetic controlled burn cases.
//!
//! The original ESS evaluations replay maps from instrumented field burns.
//! Those maps are not publicly available, so each case here generates its
//! real fire lines `RFL_0..RFL_T` by simulating a **hidden true scenario**
//! (optionally drifting between steps — wind shifts, fuel drying) on a
//! terrain. The prediction systems only ever see the fire lines, exactly
//! like the originals; the hidden truth additionally lets tests verify
//! that a perfect optimizer could reach fitness 1 (README § "The workload
//! corpus" has the substitution argument).

use crate::fitness::{EvalBackend, ScenarioEvaluator, StepContext};
use firelib::sim::centre_ignition;
use firelib::workload::{reference_lines, WorkloadSpec};
use firelib::{FireSim, Scenario, Seeds, Terrain};
use landscape::{FireLine, Grid, Observed};
use std::sync::Arc;

/// The observed fire lines of a burn, `RFL_0..RFL_T`, with what scoring on
/// each interval needs besides the two rasters, resolved against the
/// case's simulator when the case is built:
///
/// * the [`Seeds`] of the start line — the lit cells that can burn and
///   the ones among them on the front — so a run is
///   seeded from them instead of re-scanning the mask, and queues the
///   front without reading a neighbour to find it;
/// * the number of `target ∧ ¬from` cells (what Eq. (3) can hit or miss,
///   so an evaluation takes its misses from it and its hits and false
///   alarms from what the run counted as it wrote, and a stage's
///   histogram visits only the cells the result set burned) and of `from`
///   cells (what it leaves out).
///
/// The counts are raster scans and the seeds one pass over the lit cells;
/// taken here, once per case, every [`StepContext`] of every session on
/// the case is a view. Reads as the slice of lines it wraps.
#[derive(Debug, Clone)]
pub struct Observations {
    /// The simulator every interval's seeds were resolved against — and
    /// so the one every [`StepContext`] cut from these lines runs.
    sim: Arc<FireSim>,
    lines: Vec<FireLine>,
    /// `intervals[i − 1]` belongs to interval `i`, from line `i − 1` to
    /// line `i`.
    intervals: Vec<Interval>,
}

/// What scoring one interval takes from the case, beside its two lines.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Interval {
    /// The seeds of the start line.
    pub(crate) seeds: Seeds,
    /// Cells of `line i ∧ ¬line (i − 1)`.
    pub(crate) target_new: usize,
    /// Cells of `line (i − 1)`.
    pub(crate) preburned: usize,
}

impl Observations {
    /// Wraps a fire-line sequence on `sim`'s terrain, resolving each
    /// interval once.
    ///
    /// # Panics
    /// Panics when a line does not match the terrain's shape.
    pub fn new(sim: Arc<FireSim>, lines: Vec<FireLine>) -> Self {
        let shape = (sim.terrain().rows(), sim.terrain().cols());
        for line in &lines {
            assert_eq!(
                (line.rows(), line.cols()),
                shape,
                "fire line shape must match terrain"
            );
        }
        let intervals = lines.windows(2).map(|w| {
            let observed = Observed::scan(&w[1], Some(&w[0]));
            Interval {
                seeds: sim.seeds(&w[0]),
                target_new: observed.real_new(),
                preburned: observed.preburned(),
            }
        });
        Self {
            intervals: intervals.collect(),
            sim,
            lines,
        }
    }

    /// The simulator the lines were resolved against.
    pub fn sim(&self) -> &Arc<FireSim> {
        &self.sim
    }

    /// What interval `i ≥ 1` takes from the case.
    pub(crate) fn interval(&self, i: usize) -> &Interval {
        &self.intervals[i - 1]
    }
}

/// Two observation sets are equal when their lines are, and the lines were
/// resolved to the same seeds.
impl PartialEq for Observations {
    fn eq(&self, other: &Self) -> bool {
        self.lines == other.lines && self.intervals == other.intervals
    }
}

impl std::ops::Deref for Observations {
    type Target = [FireLine];

    fn deref(&self) -> &[FireLine] {
        &self.lines
    }
}

/// A controlled burn: terrain plus the observed fire-line sequence.
#[derive(Debug, Clone)]
pub struct BurnCase {
    /// Case identifier (report keys).
    pub name: &'static str,
    /// Human description.
    pub description: &'static str,
    /// The shared simulator over the case terrain.
    pub sim: Arc<FireSim>,
    /// Observation instants `t_0 < t_1 < …` (minutes).
    pub times: Vec<f64>,
    /// Real fire lines, one per instant (`fire_lines[i]` at `times[i]`).
    /// Shared, because the lines are the heavy part of a case (one raster
    /// per instant): cloning a case — which every session owns — and
    /// cutting a step context from it are then reference bumps, not raster
    /// copies.
    pub fire_lines: Arc<Observations>,
    /// The hidden truth per interval: `truth[i]` generated
    /// `fire_lines[i+1]` from `fire_lines[i]`. Hidden from optimizers;
    /// exposed for validation and oracle experiments.
    pub truth: Vec<Scenario>,
}

impl BurnCase {
    /// Number of prediction intervals (`times.len() − 1`).
    pub fn intervals(&self) -> usize {
        self.times.len() - 1
    }

    /// Generates a case by simulating `truth[i]` over each interval
    /// ([`reference_lines`]).
    ///
    /// # Panics
    /// Panics when fewer than 3 instants are given (prediction needs one
    /// calibration step plus one predicted step) or the truth list does not
    /// match the interval count.
    pub fn generate(
        name: &'static str,
        description: &'static str,
        terrain: Terrain,
        ignition: FireLine,
        times: Vec<f64>,
        truth: Vec<Scenario>,
    ) -> Self {
        assert!(
            times.len() >= 3,
            "a burn case needs at least 3 instants (got {})",
            times.len()
        );
        assert!(
            times.windows(2).all(|w| w[1] > w[0]),
            "observation instants must be strictly increasing"
        );
        let sim = Arc::new(FireSim::new(terrain));
        let fire_lines = reference_lines(&sim, &ignition, &times, &truth);
        Self {
            name,
            description,
            times,
            fire_lines: Arc::new(Observations::new(Arc::clone(&sim), fire_lines)),
            sim,
            truth,
        }
    }

    /// The evaluation context of interval `i ≥ 1`: from `RFL_{i-1}` at
    /// `t_{i-1}` to the observed `RFL_i` at `t_i` — what prediction step
    /// `i` optimizes on. A view of the case: no raster is copied or
    /// scanned.
    ///
    /// # Panics
    /// Panics when `i` is 0 or beyond the last instant.
    pub fn step_context(&self, i: usize) -> StepContext {
        StepContext::of_interval(
            Arc::clone(&self.fire_lines),
            i,
            self.times[i - 1],
            self.times[i],
        )
    }

    /// Total burned area at the final instant.
    pub fn final_area(&self) -> usize {
        self.fire_lines.last().map_or(0, FireLine::burned_area)
    }
}

/// Standard case dimensions: 64×64 cells of 100 ft.
const N: usize = 64;
const CELL_FT: f64 = 100.0;

fn steps(count: usize, dt: f64) -> Vec<f64> {
    (0..=count).map(|i| i as f64 * dt).collect()
}

/// Easy sanity case: flat short grass, static mild truth.
pub fn grass_uniform() -> BurnCase {
    let truth = Scenario {
        model: 1,
        wind_speed_mph: 6.0,
        wind_dir_deg: 90.0,
        m1_pct: 5.0,
        m10_pct: 7.0,
        m100_pct: 9.0,
        mherb_pct: 100.0,
        slope_deg: 0.0,
        aspect_deg: 0.0,
    };
    BurnCase::generate(
        "grass_uniform",
        "64x64 flat short grass (NFFL 1), static 6 mph easterly truth",
        Terrain::uniform(N, N, CELL_FT),
        centre_ignition(N, N),
        steps(6, 20.0),
        vec![truth; 6],
    )
}

/// Anisotropic case: chaparral on a uniform slope with strong wind.
pub fn chaparral_slope() -> BurnCase {
    let truth = Scenario {
        model: 4,
        wind_speed_mph: 12.0,
        wind_dir_deg: 30.0,
        m1_pct: 4.0,
        m10_pct: 5.0,
        m100_pct: 7.0,
        mherb_pct: 80.0,
        slope_deg: 25.0,
        aspect_deg: 200.0,
    };
    BurnCase::generate(
        "chaparral_slope",
        "64x64 chaparral (NFFL 4) on a 25-degree slope, 12 mph wind",
        Terrain::uniform(N, N, CELL_FT),
        FireLine::from_cells(N, N, &[(N - 8, 8)]),
        steps(5, 8.0),
        vec![truth; 5],
    )
}

/// The paper's §IV motivating stress: the truth drifts, so a scenario that
/// described one step well degrades on the next ("rapidly changing
/// conditions may entail that a scenario that was a good descriptor at one
/// time step can become worse at the next step").
pub fn shifting_wind() -> BurnCase {
    let base = Scenario {
        model: 1,
        wind_speed_mph: 5.0,
        wind_dir_deg: 0.0,
        m1_pct: 6.0,
        m10_pct: 8.0,
        m100_pct: 10.0,
        mherb_pct: 110.0,
        slope_deg: 0.0,
        aspect_deg: 0.0,
    };
    let truth: Vec<Scenario> = (0..6)
        .map(|i| Scenario {
            wind_dir_deg: 15.0 * i as f64 * 1.5,  // 0° → 112.5° over the burn
            wind_speed_mph: 5.0 + 1.5 * i as f64, // 5 → 12.5 mph ramp
            ..base
        })
        .collect();
    BurnCase::generate(
        "shifting_wind",
        "64x64 grass; the true wind veers ~112 degrees and strengthens during the burn",
        Terrain::uniform(N, N, CELL_FT),
        centre_ignition(N, N),
        steps(6, 20.0),
        truth,
    )
}

/// Weak-gradient case: timber litter drying out step by step.
pub fn moisture_front() -> BurnCase {
    let base = Scenario {
        model: 10,
        wind_speed_mph: 7.0,
        wind_dir_deg: 135.0,
        m1_pct: 14.0,
        m10_pct: 15.0,
        m100_pct: 17.0,
        mherb_pct: 120.0,
        slope_deg: 5.0,
        aspect_deg: 270.0,
    };
    let truth: Vec<Scenario> = (0..5)
        .map(|i| Scenario {
            m1_pct: (14.0 - 2.0 * i as f64).max(4.0), // drying: 14 % → 6 %
            m10_pct: (15.0 - 1.5 * i as f64).max(5.0),
            ..base
        })
        .collect();
    BurnCase::generate(
        "moisture_front",
        "64x64 timber litter (NFFL 10); dead fuel dries out over the burn",
        Terrain::uniform(N, N, CELL_FT),
        centre_ignition(N, N),
        steps(5, 45.0),
        truth,
    )
}

/// Heterogeneous-terrain case: two ridges with opposite aspects split the
/// map, making the fitness landscape multimodal in slope/aspect.
pub fn two_ridge() -> BurnCase {
    let n = 96usize;
    let mut slope = Grid::filled(n, n, 0.0f64);
    let mut aspect = Grid::filled(n, n, 0.0f64);
    for r in 0..n {
        for c in 0..n {
            // Two parallel ridges along columns n/3 and 2n/3.
            let d1 = (c as f64 - n as f64 / 3.0).abs();
            let d2 = (c as f64 - 2.0 * n as f64 / 3.0).abs();
            let (d, facing_east) = if d1 <= d2 {
                (d1, c < n / 3)
            } else {
                (d2, c < 2 * n / 3)
            };
            let s = (20.0 - d).max(0.0);
            slope.set(r, c, s);
            aspect.set(r, c, if facing_east { 90.0 } else { 270.0 });
        }
    }
    let truth = Scenario {
        model: 2,
        wind_speed_mph: 8.0,
        wind_dir_deg: 90.0,
        m1_pct: 6.0,
        m10_pct: 8.0,
        m100_pct: 10.0,
        mherb_pct: 90.0,
        slope_deg: 0.0,  // overridden per cell
        aspect_deg: 0.0, // overridden per cell
    };
    BurnCase::generate(
        "two_ridge",
        "96x96 timber-grass (NFFL 2) with two opposite-aspect ridges",
        Terrain::uniform(n, n, CELL_FT)
            .with_slope(slope)
            .with_aspect(aspect),
        FireLine::from_cells(n, n, &[(n / 2, 6)]),
        steps(5, 25.0),
        vec![truth; 5],
    )
}

/// Derives a case whose *observed* fire lines carry sensor noise: cells on
/// the advancing front flip state with probability `flip_prob` (burned
/// front cells may read unburned, unburned cells touching the front may
/// read burned). This models the paper's core motivation — "their
/// measurement may be imprecise, erroneous, or impossible to perform in
/// real time" (§Abstract) — while keeping the hidden truth untouched.
///
/// Physical consistency is preserved: each noisy line is unioned with its
/// noisy predecessor so observations never "unburn" over time, and the
/// initial ignition (line 0) is left exact.
///
/// # Panics
/// Panics when `flip_prob` is not a probability.
pub fn with_observation_noise(case: &BurnCase, flip_prob: f64, seed: u64) -> BurnCase {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    assert!(
        (0.0..=1.0).contains(&flip_prob),
        "flip probability must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6A09E667F3BCC909);
    let mut noisy: Vec<FireLine> = Vec::with_capacity(case.fire_lines.len());
    noisy.push(case.fire_lines[0].clone());
    for line in &case.fire_lines[1..] {
        let mut observed = line.clone();
        let front = landscape::perimeter_cells(line);
        for &(r, c) in &front {
            // Burned front cell misread as unburned.
            if rng.random::<f64>() < flip_prob {
                observed.set_burned(r, c, false);
            }
            // Unburned neighbours of the front misread as burned.
            let neighbours: Vec<(usize, usize)> = line
                .mask()
                .neighbours8(r, c)
                .map(|(nr, nc, _)| (nr, nc))
                .collect();
            for (nr, nc) in neighbours {
                if !line.is_burned(nr, nc) && rng.random::<f64>() < flip_prob {
                    observed.set_burned(nr, nc, true);
                }
            }
        }
        // Observations never regress behind the previous observation.
        let merged = match noisy.last() {
            Some(prev) => observed.union(prev),
            None => observed,
        };
        noisy.push(merged);
    }
    BurnCase {
        name: case.name,
        description: case.description,
        sim: Arc::clone(&case.sim),
        times: case.times.clone(),
        fire_lines: Arc::new(Observations::new(Arc::clone(&case.sim), noisy)),
        truth: case.truth.clone(),
    }
}

/// Builds a [`BurnCase`] from a corpus [`WorkloadSpec`]: the spec expands
/// to terrain + ignition + schedule, the hidden truth is simulated into the
/// synthetic "real fire" reference lines, and the result plugs into every
/// pipeline exactly like the hand-built cases. The terrain is shared (one
/// `Arc` from workload to simulator to every worker).
pub fn workload_case(spec: &WorkloadSpec) -> BurnCase {
    let w = spec.build();
    let sim = Arc::new(w.sim());
    let fire_lines = w.reference_lines(&sim);
    BurnCase {
        name: w.name,
        description: w.description,
        fire_lines: Arc::new(Observations::new(Arc::clone(&sim), fire_lines)),
        sim,
        times: w.times,
        truth: w.truth,
    }
}

/// The hand-built library, as one `(name, builder)` table — the single
/// source [`standard_cases`], [`case_names`] and [`by_name`] all derive
/// from, so a new case registered here is automatically listed and
/// resolvable everywhere.
type CaseBuilder = fn() -> BurnCase;

const LIBRARY: &[(&str, CaseBuilder)] = &[
    ("grass_uniform", grass_uniform),
    ("chaparral_slope", chaparral_slope),
    ("shifting_wind", shifting_wind),
    ("moisture_front", moisture_front),
    ("two_ridge", two_ridge),
];

/// Every case name resolvable through [`by_name`]: the hand-built library
/// plus the generated workload corpus (standard tier and the XL landscape
/// tier — the latter expand to megacell rasters: a cold build takes tens
/// to a few hundred milliseconds against a few for the rest, and keeps
/// 6–22 MiB of rasters alive). The set is closed, which is what bounds
/// the serving layer's case store.
pub fn case_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = LIBRARY.iter().map(|&(name, _)| name).collect();
    names.extend(firelib::workload::names());
    names.extend(firelib::workload::xl_names());
    names
}

/// Builds one case by name — a hand-built library case or any named
/// workload of the corpus (`ess::cases` is the single resolution point the
/// harness, configs and examples go through). Always a cold build: nothing
/// is remembered between calls (the serving layer's store does that).
pub fn by_name(name: &str) -> Option<BurnCase> {
    match LIBRARY.iter().find(|&&(n, _)| n == name) {
        Some((_, build)) => Some(build()),
        None => firelib::workload::by_name(name).as_ref().map(workload_case),
    }
}

/// A tiny *drifting-truth* case for fast tests of the §IV drift argument:
/// the wind veers 90° and strengthens over four short intervals on a small
/// grid.
pub fn tiny_drift_case() -> BurnCase {
    let base = Scenario {
        model: 1,
        wind_speed_mph: 6.0,
        wind_dir_deg: 0.0,
        m1_pct: 5.0,
        m10_pct: 7.0,
        m100_pct: 9.0,
        mherb_pct: 100.0,
        slope_deg: 0.0,
        aspect_deg: 0.0,
    };
    let truth: Vec<Scenario> = (0..5)
        .map(|i| Scenario {
            wind_dir_deg: 22.5 * i as f64,
            wind_speed_mph: 6.0 + 1.2 * i as f64,
            ..base
        })
        .collect();
    BurnCase::generate(
        "tiny_drift_case",
        "25x25 grass micro-case with veering, strengthening wind",
        Terrain::uniform(25, 25, CELL_FT),
        centre_ignition(25, 25),
        steps(5, 12.0),
        truth,
    )
}

/// A deliberately tiny case for fast unit/integration tests.
pub fn tiny_test_case() -> BurnCase {
    let truth = Scenario {
        model: 1,
        wind_speed_mph: 8.0,
        wind_dir_deg: 90.0,
        m1_pct: 5.0,
        m10_pct: 7.0,
        m100_pct: 9.0,
        mherb_pct: 100.0,
        slope_deg: 0.0,
        aspect_deg: 0.0,
    };
    BurnCase::generate(
        "tiny_test_case",
        "21x21 grass micro-case for tests",
        Terrain::uniform(21, 21, CELL_FT),
        centre_ignition(21, 21),
        steps(4, 10.0),
        vec![truth; 4],
    )
}

/// A serial evaluator over the first interval of [`tiny_test_case`] — the
/// fixture every optimizer's unit tests search on.
pub fn tiny_step_evaluator() -> ScenarioEvaluator {
    let ctx = Arc::new(tiny_test_case().step_context(1));
    ScenarioEvaluator::new(ctx, EvalBackend::Serial)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn standard_cases() -> Vec<BurnCase> {
        LIBRARY.iter().map(|(_, build)| build()).collect()
    }

    #[test]
    fn fire_lines_are_nested_and_growing() {
        for case in [grass_uniform(), shifting_wind(), tiny_test_case()] {
            for w in case.fire_lines.windows(2) {
                assert!(
                    w[0].is_subset_of(&w[1]),
                    "{}: fire must only grow over time",
                    case.name
                );
            }
            assert!(
                case.final_area() > case.fire_lines[0].burned_area(),
                "{}: nothing burned",
                case.name
            );
        }
    }

    #[test]
    fn case_names_are_unique_across_library_and_corpus() {
        // `by_name` checks LIBRARY first, so a corpus workload sharing a
        // library name would be silently shadowed — a collision must fail
        // here, at registration time, not at resolution time.
        let names = case_names();
        let mut seen = std::collections::BTreeSet::new();
        for name in &names {
            assert!(
                seen.insert(name),
                "case name '{name}' is registered in both the library and \
                 the workload corpus; by_name would shadow the workload"
            );
        }
    }

    #[test]
    fn every_interval_shows_growth() {
        // A case where some step has zero growth would make that step's
        // fitness degenerate (empty-vs-empty): the library cases avoid it.
        for case in standard_cases() {
            for (i, w) in case.fire_lines.windows(2).enumerate() {
                assert!(
                    w[1].burned_area() > w[0].burned_area(),
                    "{} interval {i}: no growth ({} cells)",
                    case.name,
                    w[0].burned_area()
                );
            }
        }
    }

    #[test]
    fn truth_is_a_perfect_descriptor_of_its_own_interval() {
        let case = tiny_test_case();
        for i in 0..case.intervals() {
            let f = case.step_context(i + 1).fitness_of(&case.truth[i]);
            assert!(
                (f - 1.0).abs() < 1e-9,
                "truth must score 1 on its own interval, got {f} at step {i}"
            );
        }
    }

    #[test]
    fn shifting_wind_truth_actually_drifts() {
        let case = shifting_wind();
        let dirs: Vec<f64> = case.truth.iter().map(|s| s.wind_dir_deg).collect();
        assert!(dirs.windows(2).all(|w| w[1] > w[0]));
        assert!(dirs.last().unwrap() - dirs.first().unwrap() > 90.0);
    }

    #[test]
    fn stale_truth_degrades_on_shifting_wind() {
        // The §IV motivation, quantified: step 0's perfect scenario loses
        // fitness on a later interval.
        let case = shifting_wind();
        let last = case.intervals() - 1;
        let ctx = case.step_context(last + 1);
        let fresh = ctx.fitness_of(&case.truth[last]);
        let stale = ctx.fitness_of(&case.truth[0]);
        assert!((fresh - 1.0).abs() < 1e-9);
        assert!(stale < 0.95, "stale truth should degrade, got {stale}");
    }

    #[test]
    fn observation_noise_perturbs_but_preserves_structure() {
        let clean = tiny_test_case();
        let noisy = with_observation_noise(&clean, 0.3, 9);
        // Line 0 (the known ignition) is exact.
        assert_eq!(noisy.fire_lines[0], clean.fire_lines[0]);
        // Later lines differ somewhere.
        let changed = clean
            .fire_lines
            .iter()
            .zip(noisy.fire_lines.iter())
            .skip(1)
            .any(|(a, b)| a != b);
        assert!(changed, "30% front noise must perturb the observations");
        // Observations still only grow.
        for w in noisy.fire_lines.windows(2) {
            assert!(w[0].is_subset_of(&w[1]), "noisy observations regressed");
        }
        // Truth and geometry untouched.
        assert_eq!(noisy.truth.len(), clean.truth.len());
        assert_eq!(noisy.times, clean.times);
    }

    #[test]
    fn zero_noise_is_identity() {
        let clean = tiny_test_case();
        let same = with_observation_noise(&clean, 0.0, 1);
        for (a, b) in clean.fire_lines.iter().zip(same.fire_lines.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let clean = tiny_test_case();
        let a = with_observation_noise(&clean, 0.2, 5);
        let b = with_observation_noise(&clean, 0.2, 5);
        let c = with_observation_noise(&clean, 0.2, 6);
        assert_eq!(a.fire_lines, b.fire_lines);
        assert_ne!(a.fire_lines, c.fire_lines);
    }

    #[test]
    fn library_lookup_by_name() {
        for case in standard_cases() {
            assert_eq!(by_name(case.name).unwrap().name, case.name);
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn library_names_and_cases_stay_in_lockstep() {
        // The library table is the single source: standard_cases and
        // case_names must agree name-for-name, and every library name must
        // resolve to a case carrying that name.
        let built: Vec<&str> = standard_cases().iter().map(|c| c.name).collect();
        let listed: Vec<&str> = case_names()
            .into_iter()
            .filter(|n| firelib::workload::by_name(n).is_none())
            .collect();
        assert_eq!(built, listed);
        for name in built {
            assert_eq!(by_name(name).expect("library name resolves").name, name);
        }
    }

    #[test]
    fn workload_names_resolve_to_cases() {
        // The smallest corpus workload resolves end-to-end; resolution for
        // the rest is covered by the (slower) integration tests.
        let case = by_name("meadow_small").expect("corpus name must resolve");
        assert_eq!(case.name, "meadow_small");
        assert!(case.intervals() >= 2);
        assert!(case.final_area() > case.fire_lines[0].burned_area());
        assert!(case_names().contains(&"meadow_small"));
        assert!(case_names().contains(&"grass_uniform"));
    }

    #[test]
    fn workload_case_is_pipeline_consistent() {
        // Reference lines must be nested/growing and the truth a perfect
        // descriptor of its own interval — same invariants as the hand
        // built library, now guaranteed by the workload generator.
        let case = workload_case(&firelib::workload::meadow_small());
        for w in case.fire_lines.windows(2) {
            assert!(w[0].is_subset_of(&w[1]), "workload fire must only grow");
        }
        let f = case.step_context(1).fitness_of(&case.truth[0]);
        assert!((f - 1.0).abs() < 1e-9, "truth must score 1, got {f}");
    }

    #[test]
    #[should_panic(expected = "at least 3 instants")]
    fn too_few_instants_rejected() {
        let _ = BurnCase::generate(
            "bad",
            "",
            Terrain::uniform(5, 5, 100.0),
            centre_ignition(5, 5),
            vec![0.0, 10.0],
            vec![Scenario::reference()],
        );
    }
}
