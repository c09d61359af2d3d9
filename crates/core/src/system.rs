//! ESS-NS — the Fig. 3 system: Algorithm 1 plugged into the ESS prediction
//! pipeline as its Optimization Stage.
//!
//! The two highlighted differences from ESS (paper §III-A) live here:
//! the `PEA` block runs the **NS-based GA** instead of the fitness GA, and
//! the stage's output is **`bestSet`** — "a collection of high fitness
//! individuals which were accumulated during the search" — rather than the
//! final evolved population. The Master/Worker split is one-level (no
//! islands), with the workers doing simulation + fitness (Eq. (3)) and the
//! master doing the novelty bookkeeping (Eq. (1)).

use crate::algorithm::{NoveltyGa, NoveltyGaConfig};
use crate::hybrid::InclusionPolicy;
use ess::fitness::ScenarioEvaluator;
use ess::pipeline::{OptimizeOutcome, StepOptimizer};
use evoalg::NoveltyArchive;
use firelib::{ScenarioSpace, GENE_COUNT};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the ESS-NS system.
#[derive(Debug, Clone, PartialEq)]
pub struct EssNsConfig {
    /// Algorithm 1 parameters.
    pub algorithm: NoveltyGaConfig,
    /// Result-set composition (§IV variants; `BestOnly` is the paper's
    /// baseline).
    pub inclusion: InclusionPolicy,
}

impl Default for EssNsConfig {
    fn default() -> Self {
        Self {
            algorithm: NoveltyGaConfig::default(),
            inclusion: InclusionPolicy::BestOnly,
        }
    }
}

/// The ESS-NS optimizer (drop-in [`StepOptimizer`], like the baselines).
#[derive(Debug, Clone)]
pub struct EssNs {
    config: EssNsConfig,
}

impl EssNs {
    /// Builds the system with `config`.
    pub fn new(config: EssNsConfig) -> Self {
        Self { config }
    }

    /// Paper-baseline configuration (pure novelty, bestSet only).
    pub fn baseline() -> Self {
        Self::new(EssNsConfig::default())
    }
}

impl Default for EssNs {
    fn default() -> Self {
        Self::baseline()
    }
}

impl StepOptimizer for EssNs {
    fn name(&self) -> &'static str {
        "ESS-NS"
    }

    fn optimize(&mut self, evaluator: &mut ScenarioEvaluator, seed: u64) -> OptimizeOutcome {
        let algo_cfg = NoveltyGaConfig {
            seed,
            ..self.config.algorithm
        };
        let engine = NoveltyGa::new(GENE_COUNT, algo_cfg);
        let outcome = engine.run(evaluator);

        // Line 21: the result set is bestSet …
        let mut result_set = outcome.best_set.genomes();
        // … optionally extended with novel/random scenarios (§IV).
        let extra = self.config.inclusion.extra_count(result_set.len().max(1));
        if extra > 0 {
            match self.config.inclusion {
                InclusionPolicy::BestOnly => {}
                InclusionPolicy::WithNovel { .. } => {
                    append_most_novel(&mut result_set, &outcome.archive, extra);
                }
                InclusionPolicy::WithRandom { .. } => {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x5851F42D4C957F2D);
                    for _ in 0..extra {
                        result_set.push(ScenarioSpace.sample_genes(&mut rng).to_vec());
                    }
                }
            }
        }

        OptimizeOutcome {
            result_set,
            best_fitness: outcome.best_set.max_fitness(),
            generations: outcome.generations,
            evaluations: outcome.evaluations,
        }
    }
}

/// Appends the `extra` most novel archive entries not already present.
fn append_most_novel(result_set: &mut Vec<Vec<f64>>, archive: &NoveltyArchive, extra: usize) {
    let mut entries = archive.entries().to_vec();
    entries.sort_by(|a, b| b.novelty.total_cmp(&a.novelty));
    let full = result_set.len() + extra;
    for e in entries {
        if result_set.len() >= full {
            break;
        }
        if !result_set.contains(&e.genes) {
            result_set.push(e.genes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ess::cases::tiny_step_evaluator;

    fn small_algo() -> NoveltyGaConfig {
        NoveltyGaConfig {
            population_size: 16,
            offspring: 16,
            max_generations: 8,
            best_set_capacity: 10,
            ..NoveltyGaConfig::default()
        }
    }

    #[test]
    fn baseline_returns_best_set_genomes() {
        let mut essns = EssNs::new(EssNsConfig {
            algorithm: small_algo(),
            inclusion: InclusionPolicy::BestOnly,
        });
        let mut eval = tiny_step_evaluator();
        let out = essns.optimize(&mut eval, 3);
        assert!(!out.result_set.is_empty());
        assert!(out.result_set.len() <= 10);
        assert!(out.best_fitness > 0.0);
        assert_eq!(out.evaluations, evoalg::BatchEvaluator::evaluations(&eval));
    }

    #[test]
    fn novel_inclusion_extends_result_set() {
        let mut base = EssNs::new(EssNsConfig {
            algorithm: small_algo(),
            inclusion: InclusionPolicy::BestOnly,
        });
        let mut with_novel = EssNs::new(EssNsConfig {
            algorithm: small_algo(),
            inclusion: InclusionPolicy::WithNovel { fraction: 0.3 },
        });
        let mut e1 = tiny_step_evaluator();
        let mut e2 = tiny_step_evaluator();
        let plain = base.optimize(&mut e1, 5);
        let extended = with_novel.optimize(&mut e2, 5);
        assert!(
            extended.result_set.len() > plain.result_set.len(),
            "novel inclusion should extend the set ({} vs {})",
            extended.result_set.len(),
            plain.result_set.len()
        );
    }

    #[test]
    fn novel_inclusion_adds_exactly_extra_below_capacity() {
        // A bestSet holding 4 of (say) 100: the cap is what it holds plus
        // `extra`, not its capacity plus `extra`.
        let mut result_set: Vec<Vec<f64>> = (0..4).map(|i| vec![f64::from(i)]).collect();
        let mut archive = NoveltyArchive::new(16);
        for i in 0..12 {
            let x = f64::from(i);
            archive.offer(&[10.0 + x], &[x], x, 0.5);
        }
        archive.offer(&[3.0], &[20.0], 20.0, 0.5); // most novel, already present
        append_most_novel(&mut result_set, &archive, 2);
        assert_eq!(result_set.len(), 6);
        assert_eq!(result_set[4..], [vec![21.0], vec![20.0]]);
    }

    #[test]
    fn random_inclusion_adds_valid_genomes() {
        let mut essns = EssNs::new(EssNsConfig {
            algorithm: small_algo(),
            inclusion: InclusionPolicy::WithRandom { fraction: 0.5 },
        });
        let mut eval = tiny_step_evaluator();
        let out = essns.optimize(&mut eval, 7);
        for g in &out.result_set {
            assert_eq!(g.len(), GENE_COUNT);
            assert!(g.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn result_set_is_more_diverse_than_ess_population() {
        // The paper's hypothesis at the unit level: the set ESS-NS feeds to
        // the Statistical Stage is genotypically more diverse than the
        // converged final population of the fitness GA baseline.
        use ess::ess_classic::{EssClassic, EssConfig};
        let mut essns = EssNs::new(EssNsConfig {
            algorithm: NoveltyGaConfig {
                max_generations: 12,
                ..small_algo()
            },
            inclusion: InclusionPolicy::BestOnly,
        });
        let mut ess = EssClassic::new(EssConfig {
            population_size: 16,
            offspring: 16,
            max_generations: 12,
            fitness_threshold: 2.0,
            ..EssConfig::default()
        });
        let mut e1 = tiny_step_evaluator();
        let mut e2 = tiny_step_evaluator();
        let ns_out = essns.optimize(&mut e1, 9);
        let ess_out = ess.optimize(&mut e2, 9);
        let ns_div = evoalg::diversity::mean_pairwise_distance(&ns_out.result_set);
        let ess_div = evoalg::diversity::mean_pairwise_distance(&ess_out.result_set);
        assert!(
            ns_div > ess_div,
            "ESS-NS result set should be more diverse (NS {ns_div} vs ESS {ess_div})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut essns = EssNs::new(EssNsConfig {
                algorithm: small_algo(),
                inclusion: InclusionPolicy::BestOnly,
            });
            let mut eval = tiny_step_evaluator();
            essns.optimize(&mut eval, seed).result_set
        };
        assert_eq!(run(11), run(11));
    }
}
