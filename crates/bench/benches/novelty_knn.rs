//! E8 (kernel) — cost of the novelty score ρ(x) of Eq. (1) as the
//! reference set (population ∪ offspring ∪ archive) and `k` grow. This is
//! the master-side overhead ESS-NS adds per generation over the baselines:
//! the bench compares the per-subject brute-force reference against the
//! batched engine (the sorted-scan index these 1-D behaviours select) on
//! identical inputs. Both produce bit-identical scores; only the wall time
//! differs. The last group times the whole master: Algorithm 1 runs at
//! ESS-NS's scale-1 and scale-4 sizes whose evaluator costs nothing, so a
//! row is the search's own bookkeeping (roulette, scoring, archive,
//! `bestSet`, replacement), beside the GA at the same sizes — the
//! master's ESS-NS/GA ratio in one command.

use ess_benches::microbench::{bench, group};
use ess_ns::{NoveltyGa, NoveltyGaConfig};
use evoalg::novelty::novelty_score;
use evoalg::{BehaviourMatrix, GaConfig, GaEngine, NoveltyEngine};
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

    group("Algorithm 1 self time (zero-cost evaluator, against the GA at the same sizes)");
    // The registry's scale-1 and scale-4 ESS-NS rows: N = m, an archive of
    // twice N, a `bestSet` of 3N/4, 12 generations; the GA row is ESS's
    // engine at the same N = m. The fitness is the first gene, and the
    // threshold is out of reach, so every run spends all 12 generations.
    // The last line of each size is the master's µs per evaluation, from
    // the minima, and the ESS-NS/GA ratio.
    let mut first_gene =
        |genomes: &[Vec<f64>]| -> Vec<f64> { genomes.iter().map(|g| g[0]).collect() };
    for n in [32usize, 128] {
        let best = n * 3 / 4;
        let ns = NoveltyGa::new(
            9,
            NoveltyGaConfig {
                population_size: n,
                offspring: n,
                archive_capacity: 2 * n,
                best_set_capacity: best,
                fitness_threshold: 2.0,
                ..NoveltyGaConfig::default()
            },
        );
        let ns_evals = ns.run(&mut first_gene).evaluations as f64;
        let label = format!(
            "ESS-NS N=m={n} archive={} bestSet={best}, 12 generations",
            2 * n
        );
        let ns_time = bench(&label, 50, || {
            black_box(ns.run(&mut first_gene).evaluations)
        });
        let ga_config = GaConfig {
            population_size: n,
            offspring: n,
            ..GaConfig::default()
        };
        let mut ga_run = || {
            let mut engine = GaEngine::new(9, ga_config);
            engine.evaluate_initial(&mut first_gene);
            for _ in 0..12 {
                engine.step(&mut first_gene);
            }
            engine.evaluations()
        };
        let ga_evals = ga_run() as f64;
        let ga_time = bench(&format!("GA     N=m={n}, 12 generations"), 50, || {
            black_box(ga_run())
        });
        let (ns_us, ga_us) = (
            ns_time.min_ms * 1e3 / ns_evals,
            ga_time.min_ms * 1e3 / ga_evals,
        );
        println!(
            "N={n}: ESS-NS {ns_us:.3} us/eval, GA {ga_us:.3} us/eval, ESS-NS/GA {:.2}x",
            ns_us / ga_us
        );
    }
}
