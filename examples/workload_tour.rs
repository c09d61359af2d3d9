//! A tour of the workload corpus: list every named workload, inspect one
//! heterogeneous landscape, and run the full calibration → prediction
//! pipeline on a corpus workload by *name* — the one-config-value path a
//! production deployment uses to point the system at a new landscape.
//!
//! ```sh
//! cargo run --release --example workload_tour
//! ```

#![allow(
    clippy::expect_used,
    reason = "an example stops at its first failure, with its message"
)]

use ess::report::{f2, f4, TextTable};
use ess_service::RunSpec;
use firelib::workload;
use landscape::io::render_fire_line;

fn main() {
    // --- 1. The corpus ------------------------------------------------------
    // Every workload is a declarative, seeded spec: same name, same
    // landscape, same synthetic "real fire" — on every machine and PR.
    let mut table = TextTable::new(["workload", "grid", "ignitions", "steps", "burnable"]);
    for spec in workload::corpus() {
        let w = spec.build();
        table.row([
            spec.name.to_string(),
            format!("{}x{}", spec.rows, spec.cols),
            spec.ignitions.to_string(),
            spec.steps.to_string(),
            f2(w.burnable_fraction()),
        ]);
    }
    println!("the workload corpus:\n\n{}", table.render());

    // --- 2. One heterogeneous landscape ------------------------------------
    // `firebreak_maze` threads unburnable rock/water through a fuel mosaic;
    // the reference fire must route around the breaks.
    let w = workload::firebreak_maze().build();
    let sim = w.sim();
    let reference = w.reference_lines(&sim);
    println!(
        "{}: {} → {} cells burned over {} intervals",
        w.name,
        w.ignition.burned_area(),
        reference.last().expect("non-empty").burned_area(),
        w.truth.len()
    );
    println!(
        "{}",
        render_fire_line(reference.last().expect("non-empty"), Some(&w.ignition))
    );

    // --- 3. Calibrate + predict on a named workload -------------------------
    // A `RunSpec` names a system and a corpus workload (or a hand-built
    // library case); `run` resolves both and runs the Fig. 3 pipeline end
    // to end. A misspelled name comes back as
    // `Err(ServiceError::UnknownCase)`, not a silent skip.
    let report = RunSpec::new("ESS-NS", "twin_fronts")
        .seed(7)
        .run()
        .expect("corpus workload resolves");
    println!(
        "pipeline on '{}': mean prediction quality {} over {} steps ({} evaluations)",
        report.case,
        f4(report.mean_quality()),
        report.steps.len(),
        report.total_evaluations()
    );
}
