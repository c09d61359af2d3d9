//! `bestSet` — the bounded memory of the fittest solutions found during the
//! whole search (Algorithm 1, lines 3 and 17).
//!
//! The paper's central design point: because Novelty Search never
//! converges, the *output* of the optimisation stage is not the final
//! population but "a collection of high fitness individuals which were
//! accumulated during the search" (§III-A). `BestSet` is that collection:
//! a fixed-capacity set holding the top-fitness genomes seen so far, kept
//! sorted by descending fitness.

/// A genome with the fitness it was recorded at.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredGenome {
    /// The genome.
    pub genes: Vec<f64>,
    /// Its fitness.
    pub fitness: f64,
}

/// Bounded, fitness-sorted memory of the best solutions ever seen.
#[derive(Debug, Clone)]
pub struct BestSet {
    capacity: usize,
    entries: Vec<ScoredGenome>,
}

impl BestSet {
    /// An empty best-set with the given capacity ("for the first version,
    /// we are considering a fixed size archive and solution set", §III-B).
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bestSet capacity must be positive");
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of stored genomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in descending fitness order.
    pub fn entries(&self) -> &[ScoredGenome] {
        &self.entries
    }

    /// Highest recorded fitness — Algorithm 1's `getMaxFitness(bestSet)`
    /// (line 18). Zero when empty, matching the algorithm's
    /// `maxFitness ← 0` initialisation (line 5).
    pub fn max_fitness(&self) -> f64 {
        self.entries.first().map_or(0.0, |e| e.fitness)
    }

    /// Lowest fitness still retained (`None` when empty).
    pub fn min_fitness(&self) -> Option<f64> {
        self.entries.last().map(|e| e.fitness)
    }

    /// Offers one genome — Algorithm 1's `updateBest` applied to a single
    /// offspring. Returns `true` when it was retained.
    ///
    /// Duplicates (identical gene vectors) are rejected so the set cannot
    /// fill up with copies of one scenario — a set of `n` identical
    /// scenarios would defeat the uncertainty-reduction purpose of the
    /// Statistical Stage.
    ///
    /// A full set tests its fitness bound (one comparison with its last
    /// entry) before the duplicate scan: both tests only reject, so the
    /// order changes no outcome, and an offer that cannot enter reads no
    /// genome. An offer that passes the bound compares its genes with
    /// every entry once. An offer that evicts the minimum writes its genes
    /// into the evicted entry's vector.
    ///
    /// # Panics
    /// Panics on non-finite fitness.
    pub fn offer(&mut self, genes: &[f64], fitness: f64) -> bool {
        assert!(fitness.is_finite(), "fitness must be finite");
        let full = self.entries.len() == self.capacity;
        if full {
            debug_assert!(
                (self.entries.windows(2)).all(|w| w[0].fitness >= w[1].fitness),
                "the last entry is the minimum"
            );
            if !self.min_fitness().is_some_and(|min| fitness > min) {
                return false;
            }
        }
        if self.entries.iter().any(|e| e.genes == genes) {
            return false;
        }
        let evicted = if full { self.entries.pop() } else { None };
        let mut entry = evicted.unwrap_or_else(|| ScoredGenome {
            genes: Vec::new(),
            fitness,
        });
        crate::operators::copy_genes(&mut entry.genes, genes);
        entry.fitness = fitness;
        // Insert keeping descending order (stable: later equal-fitness
        // entries go after earlier ones).
        let pos = self.entries.partition_point(|e| e.fitness >= fitness);
        self.entries.insert(pos, entry);
        true
    }

    /// The stored genomes, cloned (the scenario set handed to the
    /// Statistical Stage).
    pub fn genomes(&self) -> Vec<Vec<f64>> {
        self.entries.iter().map(|e| e.genes.clone()).collect()
    }

    /// The stored fitness values, descending.
    pub fn fitness_values(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.fitness).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_top_k_of_a_stream() {
        let mut bs = BestSet::new(3);
        let stream = [0.1, 0.9, 0.3, 0.8, 0.2, 0.95, 0.01];
        for (i, f) in stream.into_iter().enumerate() {
            bs.offer(&[i as f64], f);
        }
        assert_eq!(bs.fitness_values(), vec![0.95, 0.9, 0.8]);
    }

    #[test]
    fn sorted_descending_invariant() {
        let mut bs = BestSet::new(5);
        for (i, f) in [0.5, 0.5, 0.7, 0.1, 0.6].into_iter().enumerate() {
            bs.offer(&[i as f64], f);
        }
        let f = bs.fitness_values();
        assert!(f.windows(2).all(|w| w[0] >= w[1]), "not sorted: {f:?}");
    }

    #[test]
    fn max_fitness_zero_when_empty() {
        let bs = BestSet::new(2);
        assert_eq!(bs.max_fitness(), 0.0);
        assert_eq!(bs.min_fitness(), None);
    }

    #[test]
    fn duplicates_rejected() {
        let mut bs = BestSet::new(3);
        assert!(bs.offer(&[0.5, 0.5], 0.9));
        assert!(!bs.offer(&[0.5, 0.5], 0.9));
        assert!(!bs.offer(&[0.5, 0.5], 0.99)); // same genes, even if refit
        assert_eq!(bs.len(), 1);
    }

    #[test]
    fn full_set_rejects_non_improving() {
        let mut bs = BestSet::new(2);
        bs.offer(&[0.0], 0.5);
        bs.offer(&[1.0], 0.6);
        assert!(!bs.offer(&[2.0], 0.5)); // equal to min: not better
        assert!(bs.offer(&[3.0], 0.55));
        assert_eq!(bs.fitness_values(), vec![0.6, 0.55]);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut bs = BestSet::new(4);
        for i in 0..100 {
            bs.offer(&[i as f64], (i % 17) as f64 / 17.0);
            assert!(bs.len() <= 4);
        }
    }

    #[test]
    fn best_is_monotone_over_time() {
        let mut bs = BestSet::new(3);
        let mut prev = 0.0;
        for i in 0..50 {
            bs.offer(&[i as f64], ((i * 7) % 13) as f64 / 13.0);
            assert!(bs.max_fitness() >= prev, "max fitness regressed");
            prev = bs.max_fitness();
        }
    }
}
