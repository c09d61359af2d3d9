//! The process-wide case store: every session of one case shares one
//! built [`BurnCase`].
//!
//! Building a case means expanding its terrain and simulating the hidden
//! truth into the reference fire lines — milliseconds for the library,
//! tens of milliseconds for a megacell XL landscape — and a serving
//! process is asked for the same few cases over and over: every submit,
//! every replicate, every `restore` of a checkpoint. A built case is
//! immutable and already shared internally (`Arc<FireSim>`,
//! `Arc<Observations>`), so the store keeps the first build of each name
//! and hands out clones, which are reference bumps.
//!
//! The store needs no eviction and no configuration because the registry
//! behind it is closed: `ess::cases::by_name` resolves a fixed set of
//! names (`ess::cases::case_names`), so at most that many cases are ever
//! resident — `registry_residency_is_bounded` pins the total. The cold
//! builder itself stays pure; the global state lives here, in the serving
//! layer, and nowhere in the deterministic crates.

use ess::cases::{self, BurnCase};
use ess::error::ServiceError;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

static STORE: Mutex<BTreeMap<&'static str, BurnCase>> = Mutex::new(BTreeMap::new());

/// The map, poisoned or not: the only mutation is the insertion of a
/// finished case, so a panic elsewhere on a thread holding the guard
/// cannot have left it half-updated.
fn store() -> MutexGuard<'static, BTreeMap<&'static str, BurnCase>> {
    STORE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The case registered under `name`: built on the first request, shared
/// from then on.
///
/// # Errors
/// [`ServiceError::UnknownCase`] when the registry has no such name
/// (nothing is stored for it).
pub fn case(name: &str) -> Result<BurnCase, ServiceError> {
    if let Some(held) = store().get(name) {
        return Ok(held.clone());
    }
    // Built with the lock released, so a cold XL build never stalls
    // requests for cases already resident. Two first requests for one
    // name may both build; the first to finish is kept and both share it.
    let built = cases::by_name(name).ok_or_else(|| ServiceError::UnknownCase(name.to_string()))?;
    Ok(store().entry(built.name).or_insert(built).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunSpec;
    use crate::systems;
    use std::sync::Arc;

    fn shares(a: &BurnCase, b: &BurnCase) -> bool {
        Arc::ptr_eq(&a.sim, &b.sim) && Arc::ptr_eq(&a.fire_lines, &b.fire_lines)
    }

    #[test]
    fn sessions_of_one_case_share_one_build() {
        let spec = RunSpec::new("ESS", "twin_fronts").scale(0.1);
        let mut first = spec.session().expect("spec resolves");
        let mut second = spec.clone().seed(9).session().expect("spec resolves");
        assert!(shares(
            first.step_parts().0.case(),
            second.step_parts().0.case()
        ));
        let pool = crate::spec::standalone_pool();
        for mut replicate in spec
            .replicates(3)
            .sessions_on(&pool)
            .expect("spec resolves")
        {
            assert!(shares(
                first.step_parts().0.case(),
                replicate.step_parts().0.case()
            ));
        }
        // A cold build is a different allocation with the same content.
        let cold = cases::by_name("twin_fronts").expect("registered");
        assert!(!shares(first.step_parts().0.case(), &cold));
        assert_eq!(first.step_parts().0.case().fire_lines, cold.fire_lines);
    }

    #[test]
    fn restore_reuses_the_resident_case() {
        let mut session = RunSpec::new("ESS-NS", "meadow_small")
            .scale(0.1)
            .session()
            .expect("spec resolves");
        session.advance();
        let snapshot = session.snapshot().expect("spec-built sessions snapshot");
        let resident = session.step_parts().0.case().clone();
        session.cancel();
        drop(session);
        let mut restored = snapshot.restore().expect("snapshot restores");
        assert!(shares(&resident, restored.step_parts().0.case()));
    }

    #[test]
    fn unknown_names_are_typed_errors_and_leave_no_entry() {
        assert!(matches!(
            case("atlantis_burn"),
            Err(ServiceError::UnknownCase(ref n)) if n == "atlantis_burn"
        ));
        assert!(matches!(
            RunSpec::new("ESS", "atlantis_burn").session(),
            Err(ServiceError::UnknownCase(_))
        ));
        assert!(!store().contains_key("atlantis_burn"));
    }

    #[test]
    fn a_poisoned_lock_still_serves() {
        let poisoned = std::panic::catch_unwind(|| {
            let _guard = STORE.lock();
            panic!("poison the store on purpose");
        });
        assert!(poisoned.is_err() && STORE.is_poisoned());
        assert_eq!(
            case("meadow_small").expect("registered").name,
            "meadow_small"
        );
    }

    #[test]
    fn store_built_sessions_reproduce_cold_built_ones() {
        for system in systems::all().iter().map(|s| s.name) {
            let from_store = RunSpec::new(system, "meadow_small")
                .scale(0.2)
                .seed(5)
                .run()
                .expect("runs");
            let cold = cases::by_name("meadow_small").expect("registered");
            let mut session = crate::PredictionSession::new(
                cold,
                systems::resolve(system).expect("registered").make(0.2),
                crate::spec::standalone_pool(),
                5,
                crate::Budget::unlimited(),
            );
            let from_cold = session.drain().expect("runs");
            assert_eq!(
                from_store.total_evaluations(),
                from_cold.total_evaluations()
            );
            assert_eq!(
                from_store.mean_quality().to_bits(),
                from_cold.mean_quality().to_bits(),
                "{system}"
            );
            for (a, b) in from_store.steps.iter().zip(&from_cold.steps) {
                assert_eq!(
                    a.kign.to_bits(),
                    b.kign.to_bits(),
                    "{system} step {}",
                    a.step
                );
            }
        }
    }

    /// Heap bytes of the rasters a resident case keeps alive (a fire line
    /// is one bit a cell, in whole `u64` words), plus the
    /// lit cells of every interval's start line (one `u32` per burned cell,
    /// which bounds its seed list; the front, a subset of the seeds, is not
    /// counted) — step contexts are views of the case, so nothing else of a
    /// fire line is ever resident.
    fn raster_bytes(case: &BurnCase) -> usize {
        let terrain = case.sim.terrain();
        let cells = terrain.rows() * terrain.cols();
        // The slope and aspect layers each carry a cached derived layer
        // (`tan`, upslope azimuth) of the same size.
        let f64s = 2 * usize::from(terrain.slope_layer().is_some())
            + 2 * usize::from(terrain.aspect_layer().is_some())
            + 2 * usize::from(terrain.wind_layer().is_some());
        usize::from(terrain.fuel_layer().is_some()) * cells
            + f64s * cells * std::mem::size_of::<f64>()
            + case
                .fire_lines
                .iter()
                .map(|l| std::mem::size_of_val(l.words()))
                .sum::<usize>()
            + lit_bytes(case)
    }

    fn lit_bytes(case: &BurnCase) -> usize {
        let starts = &case.fire_lines[..case.intervals()];
        let lit: usize = starts.iter().map(|line| line.burned_area()).sum();
        lit * std::mem::size_of::<u32>()
    }

    #[test]
    fn registry_residency_is_bounded() {
        // Every name the store can ever hold, built cold: the worst case
        // is all of them resident at once — 51.3 MiB (62.6 MiB while a fire
        // line was a byte a cell), of which the three XL landscapes are all
        // but ~1 MiB and the lit-cell lists 132 KiB.
        let names = cases::case_names();
        assert_eq!(names.len(), 15, "a new case changes the store's bound");
        let built: Vec<BurnCase> = names
            .iter()
            .map(|name| cases::by_name(name).expect("registered"))
            .collect();
        let lit: usize = built.iter().map(lit_bytes).sum();
        assert_eq!(lit, 134_836, "resident lit-cell list bytes");
        let total: usize = built.iter().map(raster_bytes).sum();
        assert_eq!(total, 53_635_656 + lit, "worst-case resident raster bytes");
    }
}
