//! E8 (kernel) — cost of the novelty score ρ(x) of Eq. (1) as the
//! reference set (population ∪ offspring ∪ archive) and `k` grow. This is
//! the master-side overhead ESS-NS adds per generation over the baselines:
//! the bench compares the per-subject brute-force reference against the
//! batched engine (the sorted-scan index these 1-D behaviours select) on
//! identical inputs. Both produce bit-identical scores; only the wall time
//! differs. A last row times the whole master: one Algorithm 1 run at
//! ESS-NS's scale-4 sizes whose evaluator costs nothing, so the row is
//! the search's own bookkeeping (roulette, scoring, archive, `bestSet`,
//! replacement).

use ess_benches::microbench::{bench, group};
use ess_ns::{NoveltyGa, NoveltyGaConfig};
use evoalg::novelty::novelty_score;
use evoalg::{BehaviourMatrix, NoveltyEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn main() {
    group("novelty_knn (score one full generation, 1-D behaviours)");
    let engine = NoveltyEngine;
    let mut rng = StdRng::seed_from_u64(7);
    for &n in &[64usize, 256, 1024, 4096] {
        // 1-D fitness behaviours — the paper's Eq. (2).
        let behaviours: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.random::<f64>()]).collect();
        let matrix = BehaviourMatrix::from_rows(&behaviours);
        for &k in &[5usize, 15] {
            // The reference: one brute-force call per subject over the
            // nested Vec<Vec<f64>> layout.
            bench(&format!("n={n} k={k} per-subject brute"), 10, || {
                let mut acc = 0.0;
                for i in 0..behaviours.len() {
                    acc += novelty_score(black_box(i), black_box(&behaviours), k);
                }
                black_box(acc)
            });
            // The batched engine over the flat BehaviourMatrix.
            bench(&format!("n={n} k={k} engine"), 10, || {
                black_box(engine.novelty_scores(black_box(&matrix), n, k))
            });
        }
    }

    group("novelty_knn cross-check (engine bit-identical to the reference)");
    let behaviours: Vec<Vec<f64>> = (0..512).map(|_| vec![rng.random::<f64>()]).collect();
    let matrix = BehaviourMatrix::from_rows(&behaviours);
    let reference: Vec<f64> = (0..512).map(|i| novelty_score(i, &behaviours, 5)).collect();
    assert_eq!(engine.novelty_scores(&matrix, 512, 5), reference);
    println!("cross-check OK: 512 subjects bit-identical to novelty_score");

    group("Algorithm 1 self time (ESS-NS at scale 4, zero-cost evaluator)");
    // The registry's scale-4 ESS-NS row: N = m = 128, a 256-entry archive
    // (twice N), a 96-entry `bestSet`, 12 generations. The fitness is the
    // first gene, and the threshold is out of reach, so every run spends
    // all 12 generations.
    let ga = NoveltyGa::new(
        9,
        NoveltyGaConfig {
            population_size: 128,
            offspring: 128,
            archive_capacity: 256,
            best_set_capacity: 96,
            fitness_threshold: 2.0,
            ..NoveltyGaConfig::default()
        },
    );
    let mut first_gene =
        |genomes: &[Vec<f64>]| -> Vec<f64> { genomes.iter().map(|g| g[0]).collect() };
    bench("N=m=128 archive=256 bestSet=96, 12 generations", 20, || {
        black_box(ga.run(&mut first_gene).evaluations)
    });
}
