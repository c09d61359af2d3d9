//! Integration tests for the extension features: observation noise (E10),
//! derived fire-behaviour outputs, and fire-front geometry.

use essns_repro::ess::cases::{self, with_observation_noise};
use essns_repro::ess::fitness::EvalBackend;
use essns_repro::ess::pipeline::PredictionPipeline;
use essns_repro::ess_ns::EssNs;
use essns_repro::firelib::sim::centre_ignition;
use essns_repro::firelib::{self, FireSim, Scenario, Terrain};
use essns_repro::landscape;

#[test]
fn pipeline_survives_noisy_observations() {
    let clean = cases::tiny_drift_case();
    for flip in [0.1, 0.3] {
        let noisy = with_observation_noise(&clean, flip, 7);
        let mut sys = EssNs::baseline();
        let report = PredictionPipeline::new(EvalBackend::Serial, 11).run(&noisy, &mut sys);
        for s in &report.steps {
            if let Some(q) = s.quality {
                assert!(
                    (0.0..=1.0).contains(&q),
                    "flip {flip}: quality {q} out of range"
                );
            }
            assert!((0.0..=1.0).contains(&s.kign));
        }
        assert!(
            report.mean_quality() > 0.0,
            "flip {flip}: prediction collapsed to zero"
        );
    }
}

#[test]
fn noise_degrades_the_oracle_quality() {
    // The hidden truth scores 1.0 on clean observations; with noisy
    // observations even the truth cannot score 1 — the gap measures the
    // injected observation error that E10 studies.
    let clean = cases::tiny_test_case();
    let noisy = with_observation_noise(&clean, 0.3, 3);
    let clean_f = clean.step_context(1).fitness_of(&clean.truth[0]);
    let noisy_f = noisy.step_context(1).fitness_of(&noisy.truth[0]);
    assert!((clean_f - 1.0).abs() < 1e-9);
    assert!(noisy_f < clean_f, "noise must cost the oracle some fitness");
    assert!(
        noisy_f > 0.5,
        "30% front noise should not destroy the signal entirely"
    );
}

#[test]
fn behaviour_outputs_track_scenario_severity() {
    let mild = Scenario {
        model: 1,
        wind_speed_mph: 2.0,
        ..Scenario::reference()
    };
    let severe = Scenario {
        model: 4,
        wind_speed_mph: 20.0,
        m1_pct: 3.0,
        m10_pct: 4.0,
        m100_pct: 5.0,
        ..Scenario::reference()
    };
    let bed_of = |s: &Scenario| {
        firelib::FuelBed::new(firelib::FuelCatalog::standard().model(s.model).unwrap())
    };
    let mild_b = firelib::fire_behaviour(&bed_of(&mild), &mild.moisture(), &mild.spread_inputs());
    let severe_b = firelib::fire_behaviour(
        &bed_of(&severe),
        &severe.moisture(),
        &severe.spread_inputs(),
    );
    assert!(severe_b.flame_length_ft > 2.0 * mild_b.flame_length_ft);
    assert!(severe_b.byram_intensity > mild_b.byram_intensity);
    assert!(severe_b.ros_head_fpm > mild_b.ros_head_fpm);
}

#[test]
fn windy_burns_are_elongated_calm_burns_round() {
    let sim = FireSim::new(Terrain::uniform(41, 41, 100.0));
    let ignition = centre_ignition(41, 41);
    let calm = Scenario {
        wind_speed_mph: 0.0,
        slope_deg: 0.0,
        ..Scenario::reference()
    };
    let windy = Scenario {
        wind_speed_mph: 15.0,
        wind_dir_deg: 90.0,
        ..calm
    };
    let calm_line = sim.simulate_fire_line(&calm, &ignition, 0.0, 120.0);
    let windy_line = sim.simulate_fire_line(&windy, &ignition, 0.0, 40.0);
    let calm_shape = landscape::shape_stats(&calm_line);
    let windy_shape = landscape::shape_stats(&windy_line);
    assert!(
        calm_shape.elongation < 1.2,
        "calm fire should be near-round, elongation {}",
        calm_shape.elongation
    );
    assert!(
        windy_shape.elongation > calm_shape.elongation,
        "wind must elongate the burn ({} vs {})",
        windy_shape.elongation,
        calm_shape.elongation
    );
    // The windy fire's centroid shifts downwind (east = higher column).
    assert!(windy_shape.centroid.1 > calm_shape.centroid.1);
}

#[test]
fn perimeter_grows_slower_than_area() {
    // For a growing roughly-convex burn, area is quadratic in time while
    // the perimeter is linear: the ratio must rise.
    let sim = FireSim::new(Terrain::uniform(61, 61, 100.0));
    let ignition = centre_ignition(61, 61);
    let s = Scenario {
        wind_speed_mph: 4.0,
        ..Scenario::reference()
    };
    let map = sim.simulate(&s, &ignition, 0.0, 260.0);
    let early = landscape::shape_stats(&map.fire_line_at(130.0));
    let late = landscape::shape_stats(&map.fire_line_at(260.0));
    assert!(late.area_cells > early.area_cells);
    let early_ratio = early.area_cells as f64 / early.perimeter_cells.max(1) as f64;
    let late_ratio = late.area_cells as f64 / late.perimeter_cells.max(1) as f64;
    assert!(
        late_ratio > early_ratio,
        "area/perimeter must rise as the burn grows ({early_ratio} → {late_ratio})"
    );
}
