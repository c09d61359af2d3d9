//! The four workloads: what each one sends, and why.
//!
//! A workload is a fixed *mix* of sessions (system × case × budget scale)
//! sent through one client connection with a fixed number kept live. The
//! mix never changes with `--seed`: the seed picks each session's RNG seed
//! from a small committed pool and shuffles the submission order, afresh
//! for every repetition, so two seeds send different request lines that
//! cost the same work to within a few percent — a run-to-run difference is then the program's, not the
//! generator's. Every pool member has a committed golden fingerprint
//! (`golden/<workload>.tsv`), so every session of every seed is checked.

use ess::pipeline::RunReport;
use ess_service::proto::{Request, RequestKind};
use ess_service::RunSpec;
use ess_service::SessionEvent;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The four paper systems, registry order.
pub const SYSTEMS: [&str; 4] = ["ESS", "ESSIM-EA", "ESSIM-DE", "ESS-NS"];

/// One entry of a workload's mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Combo {
    pub system: &'static str,
    pub case: &'static str,
    pub scale: f64,
}

/// A workload definition. Counts are frozen for the 2-core reference box
/// so that one repetition takes 4–10 s (see README "Sizing").
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Sessions the client keeps live.
    pub concurrency: usize,
    /// Whether scheduler rounds fuse the sessions' evaluation batches.
    pub fused: bool,
    /// Whether every live session is snapshot → cancel → restored after
    /// each round.
    pub churn: bool,
    /// Whether the end-to-end run pins itself to one core: the workloads
    /// whose batches all run inline on the serve thread need no second
    /// one, and are timed far more steadily without it (`affinity`).
    pub one_core: bool,
    /// Session seeds per combo in the committed pool.
    pub pool_seeds: usize,
    /// Sessions of the script the in-process traced pass drives.
    pub traced_sessions: usize,
    /// Sessions of a `--tiny` repetition.
    pub tiny_sessions: usize,
    mix: fn() -> Vec<Combo>,
    /// A combo inserted as every 8th session of the script, if any.
    every_eighth: Option<Combo>,
    /// First session seed of the pool (keeps workloads' seeds apart).
    seed_base: u64,
}

fn cross(cases: &[&'static str], scales: &[f64], repeat: usize) -> Vec<Combo> {
    let mut mix = Vec::new();
    for _ in 0..repeat {
        for &case in cases {
            for system in SYSTEMS {
                for &scale in scales {
                    mix.push(Combo {
                        system,
                        case,
                        scale,
                    });
                }
            }
        }
    }
    mix
}

fn wire_small_mix() -> Vec<Combo> {
    cross(&["meadow_small"], &[0.25, 0.5, 1.0], 12)
}

fn fleet_fused_percell() -> Vec<Combo> {
    cross(&["gusty_channel", "ridged_foothills"], &[0.25], 1)
}

fn landscape_xl_solo() -> Vec<Combo> {
    cross(&["archipelago_xl"], &[0.1], 1)
}

fn checkpoint_churn() -> Vec<Combo> {
    cross(
        &["patchwork_mosaic", "firebreak_maze", "archipelago_large"],
        &[0.5],
        1,
    )
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_small_mix",
        why: "short sessions on small grids, 8 live, unfused: every batch runs inline, so service, client, optimizer bookkeeping and stage code carry the wall",
        concurrency: 8,
        fused: false,
        churn: false,
        one_core: true,
        pool_seeds: 48,
        traced_sessions: 82,
        tiny_sessions: 16,
        mix: wire_small_mix,
        every_eighth: Some(Combo {
            system: "ESS-NS",
            case: "meadow_small",
            scale: 4.0,
        }),
        seed_base: 10_000,
    },
    Workload {
        name: "fleet_fused_percell",
        why: "per-cell wind and relief cases, 8 live, fused: 64-genome submissions make the fire kernel, pool dispatch and fusion the whole story",
        concurrency: 8,
        fused: true,
        churn: false,
        one_core: false,
        pool_seeds: 4,
        traced_sessions: 2,
        tiny_sessions: 2,
        mix: fleet_fused_percell,
        every_eighth: None,
        seed_base: 20_000,
    },
    Workload {
        name: "landscape_xl_solo",
        why: "one megacell-raster session at a time: raster-proportional work (Jaccard, statistical stage, case build) dominates and the wire does nothing",
        concurrency: 1,
        fused: false,
        churn: false,
        one_core: true,
        pool_seeds: 1,
        traced_sessions: 1,
        tiny_sessions: 1,
        mix: landscape_xl_solo,
        every_eighth: None,
        seed_base: 30_000,
    },
    Workload {
        name: "checkpoint_churn",
        why: "4 live sessions each snapshot, cancelled and restored after every round: snapshot encode/decode, restore and case rebuild, the kill/resume path",
        concurrency: 4,
        fused: false,
        churn: true,
        one_core: true,
        pool_seeds: 4,
        traced_sessions: 6,
        tiny_sessions: 4,
        mix: checkpoint_churn,
        every_eighth: None,
        seed_base: 40_000,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One scripted session: the spec the client submits.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    pub combo: Combo,
    pub seed: u64,
}

impl Slot {
    pub fn spec(&self) -> RunSpec {
        RunSpec::new(self.combo.system, self.combo.case)
            .seed(self.seed)
            .scale(self.combo.scale)
    }

    fn key(&self) -> Key {
        (
            self.combo.system.to_string(),
            self.combo.case.to_string(),
            self.seed,
            self.combo.scale.to_bits(),
        )
    }
}

/// SplitMix64: the generator's own RNG, so scripts do not depend on the
/// repository's vendored `rand`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

impl Workload {
    /// Every distinct combo, mix order then the every-8th extra. A combo's
    /// index here fixes its slice of the seed pool.
    fn combos(&self) -> Vec<Combo> {
        let mut combos: Vec<Combo> = Vec::new();
        for c in (self.mix)().into_iter().chain(self.every_eighth) {
            if !combos.contains(&c) {
                combos.push(c);
            }
        }
        combos
    }

    fn pool_seed(&self, combo_index: usize, k: usize) -> u64 {
        self.seed_base + (combo_index * self.pool_seeds + k) as u64
    }

    /// Every session any seed can send: the set `bless` records.
    pub fn pool(&self) -> Vec<Slot> {
        let mut pool = Vec::new();
        for (i, combo) in self.combos().into_iter().enumerate() {
            for k in 0..self.pool_seeds {
                pool.push(Slot {
                    combo,
                    seed: self.pool_seed(i, k),
                });
            }
        }
        pool
    }

    /// The sessions of repetition `repetition` of `seed`, in submission
    /// order. Every repetition is the same mix drawn and shuffled afresh,
    /// so what depends on the order (which sessions share a round) averages
    /// out over a run's repetitions instead of riding on the seed.
    pub fn script(&self, seed: u64, repetition: usize, tiny: bool) -> Vec<Slot> {
        let mut rng = SplitMix(seed ^ self.seed_base.wrapping_mul(0x2545_F491_4F6C_DD1D));
        rng.0 = rng.next().wrapping_add(repetition as u64);
        let combos = self.combos();
        // Each combo walks its slice of the pool from a seed-chosen start,
        // so one script never sends the same spec twice while the combo's
        // count stays within the pool.
        let mut cursor: Vec<usize> = combos.iter().map(|_| rng.below(self.pool_seeds)).collect();
        let mut draw = |c: Combo| {
            let i = combos.iter().position(|x| *x == c).unwrap_or(0);
            cursor[i] = (cursor[i] + 1) % self.pool_seeds;
            Slot {
                combo: c,
                seed: self.pool_seed(i, cursor[i]),
            }
        };
        let mut script: Vec<Slot> = (self.mix)().into_iter().map(&mut draw).collect();
        for i in (1..script.len()).rev() {
            script.swap(i, rng.below(i + 1));
        }
        if let Some(extra) = self.every_eighth {
            let mut at = 7;
            while at <= script.len() {
                script.insert(at, draw(extra));
                at += 8;
            }
        }
        if tiny {
            script.truncate(self.tiny_sessions);
        }
        script
    }

    /// Population size of the script's median session (the `scale × 32`
    /// rule of `ess_service::systems`), for the optimizer probes.
    pub fn median_population(&self, script: &[Slot]) -> usize {
        let mut pops: Vec<usize> = script
            .iter()
            .map(|s| ((32.0 * s.combo.scale).round() as usize).max(4))
            .collect();
        pops.sort_unstable();
        pops.get(pops.len() / 2).copied().unwrap_or(4)
    }

    /// Rows of the largest noveltySet an ESS-NS session of the script
    /// builds: population + offspring + archive = 4 × population.
    pub fn novelty_set_rows(&self, script: &[Slot]) -> usize {
        script
            .iter()
            .map(|s| 4 * ((32.0 * s.combo.scale).round() as usize).max(4))
            .max()
            .unwrap_or(16)
    }
}

/// The script as the request lines the program sees — what "same seed,
/// same inputs" is checked on.
pub fn request_lines(script: &[Slot]) -> String {
    let mut out = String::new();
    for (i, slot) in script.iter().enumerate() {
        let request = Request {
            id: i as u64 + 1,
            kind: RequestKind::Run {
                spec: slot.spec(),
                watch: true,
            },
        };
        out.push_str(&request.to_json().to_string());
        out.push('\n');
    }
    out
}

/// The first case of every distinct grid shape in the script; shapes are
/// read from the corpus spec, so no raster is built.
pub fn one_case_per_grid_shape(script: &[Slot]) -> Vec<&'static str> {
    let mut seen: Vec<(usize, usize)> = Vec::new();
    let mut cases = Vec::new();
    for slot in script {
        let Some(spec) = firelib::workload::by_name(slot.combo.case) else {
            continue;
        };
        if !seen.contains(&(spec.rows, spec.cols)) {
            seen.push((spec.rows, spec.cols));
            cases.push(slot.combo.case);
        }
    }
    cases
}

/// The deterministic part of a finished session: what a `done` frame must
/// reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub steps: usize,
    pub mean_quality_bits: u64,
    pub total_evaluations: u64,
}

impl Fingerprint {
    pub fn of(report: &RunReport) -> Fingerprint {
        Fingerprint {
            steps: report.steps.len(),
            mean_quality_bits: report.mean_quality().to_bits(),
            total_evaluations: report.total_evaluations(),
        }
    }
}

type Key = (String, String, u64, u64);

/// The committed fingerprints of a workload's pool.
pub struct Golden {
    entries: HashMap<Key, Fingerprint>,
}

pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn golden_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("{workload}.tsv"))
}

const GOLDEN_HEADER: &str =
    "# system\tcase\tseed\tscale\tsteps\tmean_quality_bits\ttotal_evaluations";

impl Golden {
    pub fn load(dir: &Path, workload: &str) -> Result<Golden, String> {
        let path = golden_path(dir, workload);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("golden {}: {e} (run `bless`)", path.display()))?;
        let mut entries = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
            let f: Vec<&str> = line.split('\t').collect();
            let [system, case, seed, scale, steps, bits, evals] = f[..] else {
                return Err(bad("expected 7 tab-separated fields"));
            };
            let key = (
                system.to_string(),
                case.to_string(),
                seed.parse().map_err(|_| bad("bad seed"))?,
                scale
                    .parse::<f64>()
                    .map_err(|_| bad("bad scale"))?
                    .to_bits(),
            );
            let fingerprint = Fingerprint {
                steps: steps.parse().map_err(|_| bad("bad steps"))?,
                mean_quality_bits: u64::from_str_radix(bits, 16)
                    .map_err(|_| bad("bad mean_quality_bits"))?,
                total_evaluations: evals.parse().map_err(|_| bad("bad total_evaluations"))?,
            };
            entries.insert(key, fingerprint);
        }
        Ok(Golden { entries })
    }

    /// Compares a terminal status and digest with the committed
    /// fingerprint of `slot`.
    pub fn check(&self, slot: &Slot, status: &str, got: Fingerprint) -> Result<(), String> {
        let Some(want) = self.entries.get(&slot.key()) else {
            return Err(format!("{slot:?}: no golden entry (run `bless`)"));
        };
        if status != "finished" {
            return Err(format!("{slot:?}: status '{status}', want 'finished'"));
        }
        if got != *want {
            return Err(format!("{slot:?}: digest {got:?}, golden {want:?}"));
        }
        Ok(())
    }

    /// [`Golden::check`] for a session driven in-process: the terminal
    /// event carries the report.
    pub fn check_event(&self, slot: &Slot, event: &SessionEvent) -> Result<(), String> {
        let (status, report) = match event {
            SessionEvent::Finished(r) => ("finished", r),
            SessionEvent::BudgetExhausted { partial, .. } => ("exhausted", partial),
            SessionEvent::StepCompleted(_) => {
                return Err(format!("{slot:?}: settled on a non-terminal event"))
            }
        };
        self.check(slot, status, Fingerprint::of(report))
    }
}

/// Records the pool's fingerprints through the independent batch path:
/// `RunSpec::run()` on the serial backend, no serve loop, no scheduler.
pub fn bless(workload: &Workload, dir: &Path) -> Result<usize, String> {
    let mut out = String::from(GOLDEN_HEADER);
    out.push('\n');
    let pool = workload.pool();
    for slot in &pool {
        let report = slot
            .spec()
            .run()
            .map_err(|e| format!("bless {slot:?}: {e}"))?;
        let f = Fingerprint::of(&report);
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{:016x}\t{}\n",
            slot.combo.system,
            slot.combo.case,
            slot.seed,
            slot.combo.scale,
            f.steps,
            f.mean_quality_bits,
            f.total_evaluations
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = golden_path(dir, workload.name);
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(pool.len())
}
