//! The §II-C deceptiveness argument, outside the fire domain: on a fully
//! deceptive landscape the objective gradient points *away* from the global
//! optimum, so a fitness GA is drawn to the deceptive attractor while
//! Novelty Search — which ignores the objective — keeps finding new
//! behaviours and records the fittest in `bestSet`. The example runs both
//! at one budget and closes with which of them did better there.
//!
//! ```sh
//! cargo run --release --example deceptive_search
//! ```

use ess_ns::{NoveltyGa, NoveltyGaConfig};
use evoalg::benchmarks::{deceptive_trap, trap_is_optimal};
use evoalg::{GaConfig, GaEngine};

const DIMS: usize = 16; // four 4-bit trap blocks
const GENS: u32 = 60;
const SEEDS: u64 = 10;

fn main() {
    println!(
        "deceptive trap: {DIMS} pseudo-bits in blocks of 4, {GENS} generations, {SEEDS} seeds"
    );
    println!("block fitness: all-ones = 4 (optimum), otherwise 3 - #ones (deceptive slope)\n");

    let mut ns_hits = 0;
    let mut ga_hits = 0;
    let mut ns_mean = 0.0;
    let mut ga_mean = 0.0;

    for seed in 0..SEEDS {
        // --- Novelty Search (Algorithm 1) --------------------------------
        let cfg = NoveltyGaConfig {
            population_size: 24,
            offspring: 24,
            max_generations: GENS,
            fitness_threshold: 2.0, // disabled: run the full budget
            seed,
            ..NoveltyGaConfig::default()
        };
        let mut eval =
            |gs: &[Vec<f64>]| -> Vec<f64> { gs.iter().map(|g| deceptive_trap(g, 4)).collect() };
        let out = NoveltyGa::new(DIMS, cfg).run(&mut eval);
        let ns_best = out.best_set.max_fitness();
        ns_mean += ns_best;
        if trap_is_optimal(&out.best_set.entries()[0].genes) {
            ns_hits += 1;
        }

        // --- fitness GA, same budget --------------------------------------
        let mut engine = GaEngine::new(
            DIMS,
            GaConfig {
                population_size: 24,
                offspring: 24,
                seed,
                ..GaConfig::default()
            },
        );
        let mut eval =
            |gs: &[Vec<f64>]| -> Vec<f64> { gs.iter().map(|g| deceptive_trap(g, 4)).collect() };
        engine.evaluate_initial(&mut eval);
        let mut best = f64::NEG_INFINITY;
        let mut best_genes = Vec::new();
        for _ in 0..GENS {
            engine.step(&mut eval);
            let members = engine.population().iter().zip(engine.fitness());
            if let Some((genes, &fitness)) = members.max_by(|a, b| a.1.total_cmp(b.1)) {
                if fitness > best {
                    best = fitness;
                    best_genes.clone_from(genes);
                }
            }
        }
        ga_mean += best;
        if trap_is_optimal(&best_genes) {
            ga_hits += 1;
        }
    }

    ns_mean /= SEEDS as f64;
    ga_mean /= SEEDS as f64;
    println!("algorithm    mean best fitness   global optima found");
    println!("NS-GA        {ns_mean:.4}              {ns_hits}/{SEEDS}");
    println!("fitness-GA   {ga_mean:.4}              {ga_hits}/{SEEDS}");
    println!("\nThe deceptive attractor (all zeros) scores 0.75; the optimum scores 1.");
    // The closing line follows from the table, whichever way it reads.
    let ahead = |ns: f64, ga: f64| {
        if ns > ga {
            "NS-GA"
        } else if ga > ns {
            "fitness-GA"
        } else {
            "neither"
        }
    };
    println!(
        "Ahead at this budget on mean best fitness: {}; on optima found: {}.",
        ahead(ns_mean, ga_mean),
        ahead(f64::from(ns_hits), f64::from(ga_hits))
    );
}
