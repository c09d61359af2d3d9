//! The unified system registry: every compared configuration as a named
//! row that builds a [`StepOptimizer`].
//!
//! Mirrors `ess::cases::by_name` (the case registry): a [`RunSpec`] names a
//! row with a string, [`by_name`] resolves it, and the returned
//! [`SystemSpec`] resolves to a [`SystemConfig`] at any evaluation-budget
//! scale, which builds the optimizer. The
//! four paper systems ([`all`]) are the budget-matched comparison set
//! (roughly `scale × 400` scenario evaluations per prediction step, matched
//! within ~10 % across systems so quality comparisons stay fair); the
//! [`variants`] — `<family>/<variant>` — are a family's configuration with
//! the one setting an experiment of the harness varies (E6 tuning, E7
//! scoring, E8 hyper-parameters, E9 result-set inclusion). The list is
//! closed: nothing is parsed out of a name, so the one value from outside
//! the program that sizes a row is the spec's `scale`, which
//! [`RunSpec::MAX_SCALE`] bounds; the service, the harness and the
//! examples all construct systems through this one door.
//!
//! [`RunSpec`]: crate::RunSpec
//! [`RunSpec::MAX_SCALE`]: crate::RunSpec::MAX_SCALE

use ess::ess_classic::{EssClassic, EssConfig};
use ess::essim_de::{EssimDe, EssimDeConfig, TuningConfig};
use ess::essim_ea::{EssimEa, EssimEaConfig};
use ess::pipeline::StepOptimizer;
use ess::{Ring, ServiceError};
use ess_ns::{BehaviourSpace, EssNs, EssNsConfig, InclusionPolicy, NoveltyGaConfig, ScoringPolicy};

/// A registered configuration: canonical name, one-line description, and
/// what it builds.
#[derive(Debug, Clone, Copy)]
pub struct SystemSpec {
    /// Canonical report key (`"ESS-NS"`, `"ESS-NS/k=3"`, …).
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    row: Row,
}

/// What a row builds: a family, and the one setting in which the row
/// departs from the family's budget-matched configuration.
#[derive(Debug, Clone, Copy)]
enum Row {
    Ess,
    EssimEa,
    EssimDe,
    /// E6: ESSIM-DE under a 30-generation cap — roughly 3× the E1 budget,
    /// long enough for a restart to amortise — tuning operators on or off.
    EssimDe30 {
        tuned: bool,
    },
    EssNs(Ns),
}

/// Where an ESS-NS row departs from N = m = 32, a 24-entry `bestSet`, a
/// 64-entry archive and Algorithm 1's defaults (k = 5, pure novelty over
/// fitness distance, 12 generations).
#[derive(Debug, Clone, Copy)]
enum Ns {
    /// The paper system: the archive is twice the scaled population.
    Paper,
    /// E7: the search score. §IV rows (this and `Inclusion`) keep the 64
    /// archive entries at every scale.
    Scoring(ScoringPolicy),
    /// E9: what joins `bestSet` in the result set.
    Inclusion(InclusionPolicy),
    /// E8: `k` of Eq. (1). E8 rows (this and the three below) scale the
    /// archive like every other size.
    Neighbours(usize),
    /// E8: archive entries at scale 1.
    Archive(usize),
    /// E8: `bestSet` entries at scale 1.
    BestSet(usize),
    /// E8: novelty over genotype distance.
    Genotype,
}

/// The sizes, at scale 1, the budget-matched set is built from.
const POPULATION: usize = 32;
const ISLAND_POPULATION: usize = 12;
const RESULT_SET: usize = 24;

/// The budget-scaling rule, stated once: a size `v` at `scale`, floored at
/// 4 so tiny scales stay runnable.
fn scaled(v: usize, scale: f64) -> usize {
    ((v as f64) * scale).round().max(4.0) as usize
}

/// A row's optimizer configuration, resolved at one scale: what a trial of
/// the row runs. Two rows whose configurations are equal at a scale build
/// the same optimizer there (E8's `k=5` is ESS-NS at scales 1 and 0.25).
#[derive(Debug, Clone, PartialEq)]
pub enum SystemConfig {
    /// The fitness GA of Fig. 1.
    Ess(EssConfig),
    /// The island-model GA.
    EssimEa(EssimEaConfig),
    /// The island DE.
    EssimDe(EssimDeConfig),
    /// Algorithm 1 with a result-set policy.
    EssNs(EssNsConfig),
}

impl SystemConfig {
    /// The optimizer this configuration describes.
    pub fn build(self) -> Box<dyn StepOptimizer> {
        match self {
            Self::Ess(config) => Box::new(EssClassic::new(config)),
            Self::EssimEa(config) => Box::new(EssimEa::new(config)),
            Self::EssimDe(config) => Box::new(EssimDe::new(config)),
            Self::EssNs(config) => Box::new(EssNs::new(config)),
        }
    }
}

impl SystemSpec {
    /// Builds the optimizer with a per-step budget of roughly
    /// `scale × 400` scenario evaluations.
    pub fn make(&self, scale: f64) -> Box<dyn StepOptimizer> {
        self.config(scale).build()
    }

    /// The configuration [`SystemSpec::make`] builds at `scale`.
    pub fn config(&self, scale: f64) -> SystemConfig {
        // The island topology every ESSIM row serves with.
        let ring = |max_generations| Ring {
            islands: 3,
            island_population: scaled(ISLAND_POPULATION, scale),
            migration_interval: 3,
            migrants: 2,
            max_generations,
            fitness_threshold: 0.95,
        };
        let essim_de = |max_generations, tuning| {
            SystemConfig::EssimDe(EssimDeConfig {
                ring: ring(max_generations),
                differential_weight: 0.8,
                crossover_rate: 0.9,
                elite_fraction: 0.5,
                result_set_size: scaled(RESULT_SET, scale),
                tuning,
            })
        };
        match self.row {
            Row::Ess => SystemConfig::Ess(EssConfig {
                population_size: scaled(POPULATION, scale),
                offspring: scaled(POPULATION, scale),
                mutation_rate: 0.1,
                crossover_rate: 0.9,
                max_generations: 12,
                fitness_threshold: 0.95,
            }),
            Row::EssimEa => SystemConfig::EssimEa(EssimEaConfig {
                ring: ring(11),
                offspring: scaled(ISLAND_POPULATION, scale),
                mutation_rate: 0.1,
                crossover_rate: 0.9,
            }),
            Row::EssimDe => essim_de(11, TuningConfig::enabled()),
            Row::EssimDe30 { tuned: true } => essim_de(30, TuningConfig::enabled()),
            Row::EssimDe30 { tuned: false } => essim_de(30, TuningConfig::disabled()),
            Row::EssNs(ns) => SystemConfig::EssNs(ess_ns(ns, scale)),
        }
    }
}

fn ess_ns(ns: Ns, scale: f64) -> EssNsConfig {
    let population = scaled(POPULATION, scale);
    let mut config = EssNsConfig {
        algorithm: NoveltyGaConfig {
            population_size: population,
            offspring: population,
            best_set_capacity: scaled(RESULT_SET, scale),
            archive_capacity: match ns {
                Ns::Paper => 2 * population,
                Ns::Scoring(_) | Ns::Inclusion(_) => 64,
                Ns::Archive(entries) => scaled(entries, scale),
                Ns::Neighbours(_) | Ns::BestSet(_) | Ns::Genotype => scaled(64, scale),
            },
            ..NoveltyGaConfig::default()
        },
        inclusion: InclusionPolicy::BestOnly,
    };
    match ns {
        Ns::Paper | Ns::Archive(_) => {}
        Ns::Scoring(scoring) => config.algorithm.scoring = scoring,
        Ns::Inclusion(inclusion) => config.inclusion = inclusion,
        Ns::Neighbours(k) => config.algorithm.novelty_neighbours = k,
        Ns::BestSet(entries) => config.algorithm.best_set_capacity = scaled(entries, scale),
        Ns::Genotype => config.algorithm.behaviour = BehaviourSpace::Genotype,
    }
    config
}

const fn row(name: &'static str, description: &'static str, row: Row) -> SystemSpec {
    SystemSpec {
        name,
        description,
        row,
    }
}

const fn ns(name: &'static str, description: &'static str, ns: Ns) -> SystemSpec {
    row(name, description, Row::EssNs(ns))
}

const fn weighted(novelty_weight: f64) -> Ns {
    Ns::Scoring(ScoringPolicy::Weighted { novelty_weight })
}

const fn novel(fraction: f64) -> Ns {
    Ns::Inclusion(InclusionPolicy::WithNovel { fraction })
}

const fn random(fraction: f64) -> Ns {
    Ns::Inclusion(InclusionPolicy::WithRandom { fraction })
}

/// The four paper systems, baseline order.
const PAPER_SYSTEMS: &[SystemSpec] = &[
    row(
        "ESS",
        "fitness GA, result set = final population (Fig. 1)",
        Row::Ess,
    ),
    row(
        "ESSIM-EA",
        "island-model GA with ring migration and a Monitor",
        Row::EssimEa,
    ),
    row(
        "ESSIM-DE",
        "island DE + diversity injection + tuning operators",
        Row::EssimDe,
    ),
    ns(
        "ESS-NS",
        "novelty-search GA emitting bestSet (the paper's Fig. 3)",
        Ns::Paper,
    ),
];

const E6: &str = "E6: ESSIM-DE over 30 generations, the tuning operators off / on";
const E7: &str = "E7: ESS-NS under a hybrid fitness/novelty search score (§IV)";
const E8: &str = "E8: ESS-NS with one hyper-parameter moved, the archive scaling";
const E9: &str = "E9: ESS-NS handing on bestSet plus novel or random extras (§IV)";
const BEST_ONLY: Ns = Ns::Inclusion(InclusionPolicy::BestOnly);
const NSLC: ScoringPolicy = ScoringPolicy::NoveltyLocalCompetition {
    novelty_weight: 0.5,
};

/// E6's rows: the ESSIM-DE tuning operators (restart + IQR) off and on.
pub const TUNING: &[SystemSpec] = &[
    row("ESSIM-DE/untuned", E6, Row::EssimDe30 { tuned: false }),
    row("ESSIM-DE/tuned", E6, Row::EssimDe30 { tuned: true }),
];

/// E7's rows: the novelty weight of the search score, and NSLC.
pub const SCORING: &[SystemSpec] = &[
    ns("ESS-NS/w=1.00", E7, Ns::Scoring(ScoringPolicy::PureNovelty)),
    ns("ESS-NS/w=0.75", E7, weighted(0.75)),
    ns("ESS-NS/w=0.50", E7, weighted(0.5)),
    ns("ESS-NS/w=0.25", E7, weighted(0.25)),
    ns("ESS-NS/w=0.00", E7, weighted(0.0)),
    ns("ESS-NS/nslc", E7, Ns::Scoring(NSLC)),
];

/// E8's rows: `parameter=value`, one hyper-parameter of Algorithm 1 each.
pub const HYPER_PARAMETERS: &[SystemSpec] = &[
    ns("ESS-NS/k=3", E8, Ns::Neighbours(3)),
    ns("ESS-NS/k=5", E8, Ns::Neighbours(5)),
    ns("ESS-NS/k=10", E8, Ns::Neighbours(10)),
    ns("ESS-NS/k=15", E8, Ns::Neighbours(15)),
    ns("ESS-NS/archive=16", E8, Ns::Archive(16)),
    ns("ESS-NS/archive=64", E8, Ns::Archive(64)),
    ns("ESS-NS/archive=256", E8, Ns::Archive(256)),
    ns("ESS-NS/bestSet=8", E8, Ns::BestSet(8)),
    ns("ESS-NS/bestSet=24", E8, Ns::BestSet(24)),
    ns("ESS-NS/bestSet=48", E8, Ns::BestSet(48)),
    ns("ESS-NS/behaviour=genotype", E8, Ns::Genotype),
];

/// E9's rows: what joins `bestSet` in the result set.
pub const INCLUSION: &[SystemSpec] = &[
    ns("ESS-NS/best-only", E9, BEST_ONLY),
    ns("ESS-NS/novel-10%", E9, novel(0.10)),
    ns("ESS-NS/novel-25%", E9, novel(0.25)),
    ns("ESS-NS/random-10%", E9, random(0.10)),
    ns("ESS-NS/random-25%", E9, random(0.25)),
];

/// The four paper systems, baseline order.
pub const fn all() -> &'static [SystemSpec] {
    PAPER_SYSTEMS
}

/// The `<family>/<variant>` rows, as the four comparison sets above.
pub fn variants() -> [&'static [SystemSpec]; 4] {
    [TUNING, SCORING, HYPER_PARAMETERS, INCLUSION]
}

/// Resolves a row by name, case-insensitively and treating `_` and `-` as
/// equivalent (so `ess-ns`, `ESS_NS` and `ESS-NS` all resolve, and
/// `ess_ns/K=3` is `ESS-NS/k=3`).
pub fn by_name(name: &str) -> Option<&'static SystemSpec> {
    let fold = |b: u8| {
        if b == b'_' {
            b'-'
        } else {
            b.to_ascii_lowercase()
        }
    };
    let wanted = name.trim();
    let named = |s: &&SystemSpec| s.name.bytes().map(fold).eq(wanted.bytes().map(fold));
    let mut rows = PAPER_SYSTEMS.iter().chain(variants().into_iter().flatten());
    rows.find(named)
}

/// [`by_name`] with the service error taxonomy.
pub fn resolve(name: &str) -> Result<&'static SystemSpec, ServiceError> {
    by_name(name).ok_or_else(|| ServiceError::UnknownSystem(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ess::cases::tiny_step_evaluator;

    #[test]
    fn every_row_constructs_and_steps_once_at_every_scale() {
        // 0.05 puts every scaled size on the floor of 4.
        for scale in [1.0, 0.25, 0.05] {
            for spec in all().iter().chain(&variants().concat()) {
                let mut optimizer = spec.make(scale);
                let family = spec.name.split('/').next().expect("a first piece");
                assert_eq!(optimizer.name(), family, "{}", spec.name);
                let outcome = optimizer.optimize(&mut tiny_step_evaluator(), 7);
                assert!(!outcome.result_set.is_empty(), "{} at {scale}", spec.name);
                assert!(outcome.evaluations > 0, "{} at {scale}", spec.name);
            }
        }
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        assert_eq!(names, ["ESS", "ESSIM-EA", "ESSIM-DE", "ESS-NS"]);
        assert_eq!(variants().map(<[SystemSpec]>::len), [2, 6, 11, 5]);
    }

    #[test]
    fn rows_keep_the_sizes_the_harness_set() {
        // E7 / E9 rows keep 64 archive entries at every scale, E8 rows
        // scale theirs, the paper system's is twice its population.
        let archive = |name: &str, scale| match resolve(name).expect("registered").row {
            Row::EssNs(ns) => ess_ns(ns, scale).algorithm.archive_capacity,
            _ => panic!("{name} is not an ESS-NS row"),
        };
        for (name, full, quarter, floor) in [
            ("ESS-NS", 64, 16, 8),
            ("ESS-NS/w=0.50", 64, 64, 64),
            ("ESS-NS/novel-10%", 64, 64, 64),
            ("ESS-NS/k=3", 64, 16, 4),
            ("ESS-NS/archive=256", 256, 64, 13),
        ] {
            let sizes = [1.0, 0.25, 0.05].map(|scale| archive(name, scale));
            assert_eq!(sizes, [full, quarter, floor], "{name}");
        }
    }

    #[test]
    fn rows_that_are_the_paper_system_under_another_name() {
        // A harness trial is named by its row's configuration, so these
        // rows share ESS-NS's runs: E8's three at both pinned scales, and
        // the §IV rows, which keep 64 archive entries, where 64 is twice N.
        let twins = |scale| {
            let paper = resolve("ESS-NS").expect("registered").config(scale);
            let rows = variants().concat().into_iter();
            let twins = rows.filter(|row| row.config(scale) == paper);
            twins.map(|row| row.name).collect::<Vec<_>>()
        };
        let e8 = ["ESS-NS/k=5", "ESS-NS/archive=64", "ESS-NS/bestSet=24"];
        assert_eq!(
            twins(1.0),
            [&["ESS-NS/w=1.00"][..], &e8, &["ESS-NS/best-only"]].concat()
        );
        assert_eq!(twins(0.25), e8);
        // E7's `w=1.00` and E9's `best-only` are one configuration at every
        // scale: pure novelty, 64 archive entries, bestSet alone.
        let config = |name, scale| resolve(name).expect("registered").config(scale);
        for scale in [1.0, 0.25, 0.05] {
            assert_eq!(
                config("ESS-NS/w=1.00", scale),
                config("ESS-NS/best-only", scale)
            );
        }
        // Below that the floor of 4 folds sizes too: bestSet 8 and 24 are
        // both 4 at 0.125.
        let floored = [e8[0], e8[1], "ESS-NS/bestSet=8", e8[2]];
        assert_eq!(twins(0.125), floored);
    }

    #[test]
    fn lookup_is_case_and_separator_insensitive() {
        for alias in ["ESS-NS", "ess-ns", "Ess_Ns", "  ESS-NS "] {
            assert_eq!(by_name(alias).expect("alias resolves").name, "ESS-NS");
        }
        for (alias, row) in [
            ("ess_ns/K=3", "ESS-NS/k=3"),
            ("ESS-NS/BESTSET=48", "ESS-NS/bestSet=48"),
            ("essim_de/untuned", "ESSIM-DE/untuned"),
            (" ess-ns/novel_10% ", "ESS-NS/novel-10%"),
        ] {
            assert_eq!(by_name(alias).expect("alias resolves").name, row);
        }
        for unknown in ["ESS-XYZ", "ESS-NS/k=7", "ESS-NS/", "ESS-NS/k=3 ESS", "ÉSS"] {
            assert!(by_name(unknown).is_none(), "{unknown}");
        }
        assert!(matches!(
            resolve("ESS-NS/k=7"),
            Err(ServiceError::UnknownSystem(ref n)) if n == "ESS-NS/k=7"
        ));
    }
}
