//! Quickstart: simulate a fire, score a scenario, and run one ESS-NS
//! Optimization Stage.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::expect_used,
    reason = "an example stops at its first failure, with its message"
)]

use ess::fitness::{EvalBackend, ScenarioEvaluator, StepContext};
use ess_ns::{EssNs, EssNsConfig, NoveltyGaConfig};
use firelib::sim::centre_ignition;
use firelib::{FireSim, Scenario, ScenarioSpace, Terrain};
use landscape::io::{render_comparison, render_fire_line};
use std::sync::Arc;

fn main() {
    // --- 1. Simulate a fire -------------------------------------------------
    // 40×40 cells of 100 ft, uniform fuel; the scenario supplies fuel model,
    // wind, moisture and topography (the 9 parameters of Table I).
    let terrain = Terrain::uniform(40, 40, 100.0);
    let sim = Arc::new(FireSim::new(terrain));
    let truth = Scenario {
        model: 1,            // short grass
        wind_speed_mph: 9.0, // fresh breeze…
        wind_dir_deg: 120.0, // …blowing ESE
        ..Scenario::reference()
    };
    let ignition = centre_ignition(40, 40);
    let map = sim.simulate(&truth, &ignition, 0.0, 45.0);
    println!(
        "fire after 45 min ({} cells burned):",
        map.burned_count_at(45.0)
    );
    println!(
        "{}",
        render_fire_line(&map.fire_line_at(45.0), Some(&ignition))
    );

    // Derived fire-behaviour outputs (what a fire analyst reads off the
    // model): head rate of spread, Byram's intensity, flame length.
    let bed = firelib::FuelBed::new(
        firelib::FuelCatalog::standard()
            .model(truth.model)
            .expect("catalog model"),
    );
    let behaviour = firelib::fire_behaviour(&bed, &truth.moisture(), &truth.spread_inputs());
    println!(
        "head ROS {:.1} ft/min | Byram intensity {:.0} Btu/ft/s | flame length {:.1} ft",
        behaviour.ros_head_fpm, behaviour.byram_intensity, behaviour.flame_length_ft
    );
    let shape = landscape::shape_stats(&map.fire_line_at(45.0));
    println!(
        "burn shape: {} cells, {}-cell perimeter, elongation {:.2}\n",
        shape.area_cells, shape.perimeter_cells, shape.elongation
    );

    // --- 2. Score scenarios against an observed fire ------------------------
    // Pretend `truth` is unknown and we only observed the fire line. The
    // fitness of a candidate scenario is the Jaccard index (Eq. 3) between
    // its simulation and the observation.
    let observed = map.fire_line_at(45.0);
    let ctx = Arc::new(StepContext::new(
        Arc::clone(&sim),
        ignition.clone(),
        observed.clone(),
        0.0,
        45.0,
    ));
    let wrong = Scenario {
        wind_dir_deg: 300.0,
        ..truth
    };
    println!(
        "fitness of the true scenario:  {:.4}",
        ctx.fitness_of(&truth)
    );
    println!(
        "fitness of a wrong wind guess: {:.4}",
        ctx.fitness_of(&wrong)
    );

    // --- 3. Search with the novelty-based GA (Algorithm 1) ------------------
    // ESS-NS explores by novelty and remembers the best-fitness scenarios in
    // `bestSet`; evaluation fans out over a 2-worker Master/Worker pool.
    let mut essns = EssNs::new(EssNsConfig {
        algorithm: NoveltyGaConfig {
            population_size: 32,
            offspring: 32,
            max_generations: 15,
            best_set_capacity: 16,
            ..NoveltyGaConfig::default()
        },
        ..EssNsConfig::default()
    });
    let mut evaluator = ScenarioEvaluator::new(Arc::clone(&ctx), EvalBackend::WorkerPool(2));
    let outcome = ess::pipeline::StepOptimizer::optimize(&mut essns, &mut evaluator, 42);
    println!(
        "\nESS-NS: {} evaluations, best fitness {:.4}, bestSet holds {} scenarios",
        outcome.evaluations,
        outcome.best_fitness,
        outcome.result_set.len()
    );
    let best = ScenarioSpace.decode(&outcome.result_set[0]);
    println!(
        "best recovered scenario: model {}, wind {:.1} mph @ {:.0}°, M1 {:.1} % (truth: model {}, {:.1} mph @ {:.0}°, {:.1} %)",
        best.model,
        best.wind_speed_mph,
        best.wind_dir_deg,
        best.m1_pct,
        truth.model,
        truth.wind_speed_mph,
        truth.wind_dir_deg,
        truth.m1_pct,
    );

    // --- 4. Compare its simulation with the observation ---------------------
    let predicted = ctx.simulate_line(&best);
    println!("\nobserved vs best-scenario simulation (#: both, -: missed, +: overshoot):");
    println!("{}", render_comparison(&observed, &predicted));
}
