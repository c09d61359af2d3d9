//! The unified system registry: every paper system as a named
//! [`StepOptimizer`] factory.
//!
//! Mirrors `ess::cases::by_name` (the case registry): a [`RunSpec`] names a
//! system with a string, [`by_name`] resolves it, and the returned
//! [`SystemSpec`] builds the optimizer at any evaluation-budget scale. The
//! configurations are the budget-matched comparison set the experiment
//! harness has always used (roughly `scale × 400` scenario evaluations per
//! prediction step, matched within ~10 % across systems so quality
//! comparisons stay fair) — moved here so the service, the harness and the
//! examples all construct systems through one door.
//!
//! [`RunSpec`]: crate::RunSpec

use ess::ess_classic::{EssClassic, EssConfig};
use ess::essim_de::{EssimDe, EssimDeConfig, TuningConfig};
use ess::essim_ea::{EssimEa, EssimEaConfig};
use ess::pipeline::StepOptimizer;
use ess::{Ring, ServiceError};
use ess_ns::{EssNs, EssNsConfig, InclusionPolicy, NoveltyGaConfig};

/// A registered prediction system: canonical name, one-line description,
/// and the optimizer factory.
#[derive(Clone, Copy)]
pub struct SystemSpec {
    /// Canonical report key (`"ESS-NS"`, …).
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    make: fn(f64) -> Box<dyn StepOptimizer>,
}

impl SystemSpec {
    /// Builds the optimizer with a per-step budget of roughly
    /// `scale × 400` scenario evaluations.
    pub fn make(&self, scale: f64) -> Box<dyn StepOptimizer> {
        (self.make)(scale)
    }
}

impl std::fmt::Debug for SystemSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemSpec")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// The budget-scaling rule, stated once: a size `v` at `scale`, floored at
/// 4 so tiny scales stay runnable. Every factory here and every
/// experiment-specific configuration of the harness sizes through it.
pub fn scaled(v: usize, scale: f64) -> usize {
    ((v as f64) * scale).round().max(4.0) as usize
}

fn make_ess(scale: f64) -> Box<dyn StepOptimizer> {
    Box::new(EssClassic::new(EssConfig {
        population_size: scaled(32, scale),
        offspring: scaled(32, scale),
        mutation_rate: 0.1,
        crossover_rate: 0.9,
        max_generations: 12,
        fitness_threshold: 0.95,
    }))
}

/// The island topology both ESSIM systems serve with.
fn island_ring(island_population: usize) -> Ring {
    Ring {
        islands: 3,
        island_population,
        migration_interval: 3,
        migrants: 2.min(island_population - 1),
        max_generations: 11,
        fitness_threshold: 0.95,
    }
}

fn make_essim_ea(scale: f64) -> Box<dyn StepOptimizer> {
    let island = scaled(12, scale);
    Box::new(EssimEa::new(EssimEaConfig {
        ring: island_ring(island),
        offspring: island,
        mutation_rate: 0.1,
        crossover_rate: 0.9,
    }))
}

fn make_essim_de(scale: f64) -> Box<dyn StepOptimizer> {
    let island = scaled(12, scale);
    Box::new(EssimDe::new(EssimDeConfig {
        ring: island_ring(island),
        differential_weight: 0.8,
        crossover_rate: 0.9,
        elite_fraction: 0.5,
        result_set_size: scaled(24, scale),
        tuning: TuningConfig::enabled(),
    }))
}

fn make_ess_ns(scale: f64) -> Box<dyn StepOptimizer> {
    Box::new(EssNs::new(EssNsConfig {
        algorithm: NoveltyGaConfig {
            population_size: scaled(32, scale),
            offspring: scaled(32, scale),
            max_generations: 12,
            fitness_threshold: 0.95,
            novelty_neighbours: 5,
            archive_capacity: 2 * scaled(32, scale),
            best_set_capacity: scaled(24, scale),
            ..NoveltyGaConfig::default()
        },
        inclusion: InclusionPolicy::BestOnly,
    }))
}

/// The registry table, baseline order.
const REGISTRY: &[SystemSpec] = &[
    SystemSpec {
        name: "ESS",
        description: "fitness GA, result set = final population (Fig. 1)",
        make: make_ess,
    },
    SystemSpec {
        name: "ESSIM-EA",
        description: "island-model GA with ring migration and a Monitor",
        make: make_essim_ea,
    },
    SystemSpec {
        name: "ESSIM-DE",
        description: "island DE + diversity injection + tuning operators",
        make: make_essim_de,
    },
    SystemSpec {
        name: "ESS-NS",
        description: "novelty-search GA emitting bestSet (the paper's Fig. 3)",
        make: make_ess_ns,
    },
];

/// Every registered system, baseline order.
pub fn all() -> &'static [SystemSpec] {
    REGISTRY
}

/// Canonical system names, baseline order.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|s| s.name).collect()
}

/// Resolves a system by name, case-insensitively and treating `_` and `-`
/// as equivalent (so `ess-ns`, `ESS_NS` and `ESS-NS` all resolve).
pub fn by_name(name: &str) -> Option<&'static SystemSpec> {
    let wanted = normalize(name);
    REGISTRY.iter().find(|s| normalize(s.name) == wanted)
}

/// [`by_name`] with the service error taxonomy.
pub fn resolve(name: &str) -> Result<&'static SystemSpec, ServiceError> {
    by_name(name).ok_or_else(|| ServiceError::UnknownSystem(name.to_string()))
}

fn normalize(name: &str) -> String {
    name.trim()
        .chars()
        .map(|c| match c {
            '_' => '-',
            c => c.to_ascii_lowercase(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_system_constructs_and_reports_its_name() {
        for spec in all() {
            let opt = spec.make(1.0);
            assert_eq!(opt.name(), spec.name);
            let _ = spec.make(0.25); // tiny budgets must not panic
        }
        assert_eq!(names(), vec!["ESS", "ESSIM-EA", "ESSIM-DE", "ESS-NS"]);
    }

    #[test]
    fn lookup_is_case_and_separator_insensitive() {
        for alias in ["ESS-NS", "ess-ns", "Ess_Ns", "  ESS-NS "] {
            assert_eq!(by_name(alias).expect("alias resolves").name, "ESS-NS");
        }
        assert!(by_name("ESS-XYZ").is_none());
        assert!(matches!(
            resolve("nope"),
            Err(ServiceError::UnknownSystem(ref n)) if n == "nope"
        ));
    }
}
