//! The §IV future-work variants, implemented as policies plugged into
//! [`crate::NoveltyGa`].
//!
//! "We may also explore possible variants of the algorithm that build a
//! solution set not only according to fitness values but also by some
//! criterion, like the addition of a percentage of novel or random
//! solutions" and "the implementation of … hybridization with
//! fitness-based strategies" (§IV). Both are reproduced here so the
//! ablation experiments (E7, E9) can quantify them.

/// How the search score that drives selection and replacement is computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoringPolicy {
    /// Pure novelty — the paper's Algorithm 1 ("an optimization guided
    /// exclusively by the novelty criterion", §III-B).
    PureNovelty,
    /// Weighted blend `w·novelty + (1−w)·fitness` (Cuccu & Gomez \[31\]).
    /// `w = 1` degenerates to [`ScoringPolicy::PureNovelty`]; `w = 0` to a
    /// fitness GA that still maintains NS bookkeeping.
    Weighted {
        /// Novelty weight `w ∈ [0, 1]`.
        novelty_weight: f64,
    },
    /// Novelty Search with Local Competition (Lehman & Stanley \[26\],
    /// cited in §II-C): `w·novelty + (1−w)·local_competition`, where the
    /// local-competition term is the fraction of behaviour-space
    /// neighbours the individual out-fits. Rewards being *better than
    /// your niche* instead of globally fit — the quality-diversity end of
    /// the paper's hybridisation spectrum.
    NoveltyLocalCompetition {
        /// Novelty weight `w ∈ [0, 1]` (0.5 in \[26\]).
        novelty_weight: f64,
    },
}

impl ScoringPolicy {
    /// `true` when the policy needs a local-competition term: the engine
    /// then computes it per individual and calls
    /// [`ScoringPolicy::score_with_lc`].
    pub fn uses_local_competition(&self) -> bool {
        matches!(self, ScoringPolicy::NoveltyLocalCompetition { .. })
    }

    /// Combines a fitness, a novelty and a local-competition value into
    /// the search score (the last is ignored by the non-NSLC policies).
    /// Novelty is clamped into `[0, 1]` first: with the paper's
    /// fitness-difference behaviour it already lives there, and the clamp
    /// keeps the blend meaningful for other behaviour spaces (an archive
    /// seeded with `f64::MAX` sentinel novelty must not drown fitness).
    #[expect(
        clippy::disallowed_macros,
        reason = "a policy reaches the serve path only as a row of `ess_service::systems`: `PureNovelty` reads no weight, the `SCORING` rows' weights are the literals 0.75, 0.5, 0.25, 0 and NSLC's 0.5, all in [0, 1], and a local-competition term is a fraction of k neighbours"
    )]
    pub fn score_with_lc(&self, fitness: f64, novelty: f64, local_competition: f64) -> f64 {
        let n = novelty.clamp(0.0, 1.0);
        match *self {
            ScoringPolicy::PureNovelty => n,
            ScoringPolicy::Weighted { novelty_weight } => {
                assert!(
                    (0.0..=1.0).contains(&novelty_weight),
                    "novelty weight is a proportion"
                );
                novelty_weight * n + (1.0 - novelty_weight) * fitness
            }
            ScoringPolicy::NoveltyLocalCompetition { novelty_weight } => {
                assert!(
                    (0.0..=1.0).contains(&novelty_weight),
                    "novelty weight is a proportion"
                );
                assert!(
                    (0.0..=1.0).contains(&local_competition),
                    "local competition is a fraction"
                );
                novelty_weight * n + (1.0 - novelty_weight) * local_competition
            }
        }
    }
}

/// What behaviour descriptor characterises a solution (the `dist` space of
/// Eq. (1)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BehaviourSpace {
    /// The paper's Eq. (2): behaviour = the fitness value, distance = the
    /// (absolute) fitness difference.
    Fitness,
    /// Genotypic behaviour: the gene vector itself, normalised Euclidean
    /// distance — the ablation testing whether behaviour-space choice
    /// matters on this problem.
    Genotype,
}

impl BehaviourSpace {
    /// Builds the behaviour descriptor of an individual.
    pub fn describe(&self, genes: &[f64], fitness: f64) -> Vec<f64> {
        match self {
            BehaviourSpace::Fitness => vec![fitness],
            // Normalise by √dim so distances stay in [0, 1], commensurate
            // with the fitness space.
            BehaviourSpace::Genotype => {
                let norm = (genes.len() as f64).sqrt();
                genes.iter().map(|&g| g / norm).collect()
            }
        }
    }

    /// Writes the descriptor straight into a flat
    /// [`evoalg::BehaviourMatrix`] row — the allocation-free path the
    /// engine uses to build each generation's noveltySet. Values are
    /// identical to [`BehaviourSpace::describe`].
    pub fn describe_into(&self, genes: &[f64], fitness: f64, out: &mut evoalg::BehaviourMatrix) {
        match self {
            BehaviourSpace::Fitness => out.push(&[fitness]),
            BehaviourSpace::Genotype => {
                let norm = (genes.len() as f64).sqrt();
                for (slot, &g) in out.push_uninit(genes.len()).iter_mut().zip(genes) {
                    *slot = g / norm;
                }
            }
        }
    }

    /// Descriptor dimension for `genome_dims`-gene genomes (1 for the
    /// paper's fitness behaviour — the case the sorted-scan kNN index
    /// accelerates).
    pub fn dim(&self, genome_dims: usize) -> usize {
        match self {
            BehaviourSpace::Fitness => 1,
            BehaviourSpace::Genotype => genome_dims,
        }
    }
}

/// How the result set handed to the Statistical Stage is composed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InclusionPolicy {
    /// Pure `bestSet` — Algorithm 1's output.
    BestOnly,
    /// `bestSet` plus a fraction of the most novel archive members
    /// ("addition of a percentage of novel … solutions", §IV).
    WithNovel {
        /// Fraction of the result set drawn from the archive.
        fraction: f64,
    },
    /// `bestSet` plus a fraction of uniformly random scenarios ("… or
    /// random solutions", §IV).
    WithRandom {
        /// Fraction of the result set drawn uniformly at random.
        fraction: f64,
    },
}

impl InclusionPolicy {
    /// Number of extra (novel/random) members for a result set of `size`.
    #[expect(
        clippy::disallowed_macros,
        reason = "`BestOnly` returns before the assert; a fraction reaches the serve path only as an `INCLUSION` row of `ess_service::systems`, and those are the literals 0.10 and 0.25"
    )]
    pub fn extra_count(&self, size: usize) -> usize {
        let fraction = match *self {
            InclusionPolicy::BestOnly => return 0,
            InclusionPolicy::WithNovel { fraction } | InclusionPolicy::WithRandom { fraction } => {
                fraction
            }
        };
        assert!(
            (0.0..=1.0).contains(&fraction),
            "inclusion fraction is a proportion"
        );
        ((size as f64) * fraction).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_novelty_ignores_fitness() {
        let p = ScoringPolicy::PureNovelty;
        assert_eq!(p.score_with_lc(0.9, 0.2, 0.0), 0.2);
        assert_eq!(p.score_with_lc(0.0, 0.2, 0.0), 0.2);
    }

    #[test]
    fn weighted_blend_interpolates() {
        let p = ScoringPolicy::Weighted {
            novelty_weight: 0.25,
        };
        let s = p.score_with_lc(0.8, 0.4, 0.0);
        assert!((s - (0.25 * 0.4 + 0.75 * 0.8)).abs() < 1e-12);
        // Extremes recover the pure strategies.
        assert_eq!(
            ScoringPolicy::Weighted {
                novelty_weight: 1.0
            }
            .score_with_lc(0.9, 0.3, 0.0),
            0.3
        );
        assert_eq!(
            ScoringPolicy::Weighted {
                novelty_weight: 0.0
            }
            .score_with_lc(0.9, 0.3, 0.0),
            0.9
        );
    }

    #[test]
    fn sentinel_novelty_is_clamped() {
        let p = ScoringPolicy::Weighted {
            novelty_weight: 0.5,
        };
        let s = p.score_with_lc(0.6, f64::MAX, 0.0);
        assert!((s - (0.5 + 0.3)).abs() < 1e-12);
    }

    #[test]
    fn nslc_blends_novelty_and_local_competition() {
        let p = ScoringPolicy::NoveltyLocalCompetition {
            novelty_weight: 0.5,
        };
        assert!(p.uses_local_competition());
        assert!(!ScoringPolicy::PureNovelty.uses_local_competition());
        // Fitness itself is ignored; only the niche-relative term counts.
        let s = p.score_with_lc(0.99, 0.4, 0.8);
        assert!((s - (0.5 * 0.4 + 0.5 * 0.8)).abs() < 1e-12);
        let s2 = p.score_with_lc(0.01, 0.4, 0.8);
        assert_eq!(s, s2);
    }

    #[test]
    fn fitness_behaviour_is_one_dimensional() {
        let b = BehaviourSpace::Fitness.describe(&[0.1, 0.2], 0.77);
        assert_eq!(b, vec![0.77]);
    }

    #[test]
    fn genotype_behaviour_distance_normalised() {
        let a = BehaviourSpace::Genotype.describe(&[0.0, 0.0, 0.0, 0.0], 0.0);
        let b = BehaviourSpace::Genotype.describe(&[1.0, 1.0, 1.0, 1.0], 0.9);
        let d = evoalg::novelty::behaviour_distance(&a, &b);
        assert!(
            (d - 1.0).abs() < 1e-12,
            "corner-to-corner should be 1, got {d}"
        );
    }

    #[test]
    fn describe_into_matches_describe_bit_for_bit() {
        let genes = [0.3, 0.7, 0.1];
        for (space, fitness) in [
            (BehaviourSpace::Fitness, 0.42),
            (BehaviourSpace::Genotype, 0.9),
        ] {
            let mut m = evoalg::BehaviourMatrix::new();
            space.describe_into(&genes, fitness, &mut m);
            assert_eq!(m.row(0), space.describe(&genes, fitness).as_slice());
            assert_eq!(m.dim(), space.dim(genes.len()));
        }
    }

    #[test]
    fn inclusion_counts() {
        assert_eq!(InclusionPolicy::BestOnly.extra_count(20), 0);
        assert_eq!(
            InclusionPolicy::WithNovel { fraction: 0.25 }.extra_count(20),
            5
        );
        assert_eq!(
            InclusionPolicy::WithRandom { fraction: 0.1 }.extra_count(20),
            2
        );
    }

    #[test]
    #[should_panic(expected = "proportion")]
    fn invalid_fraction_rejected() {
        let _ = InclusionPolicy::WithNovel { fraction: 1.5 }.extra_count(10);
    }
}
