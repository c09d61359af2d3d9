//! Checkpoint/resume: the serializable [`SessionSnapshot`].
//!
//! A snapshot is the *deterministic* coordinates of a live run: the
//! originating [`RunSpec`], the replicate index, and every completed
//! [`StepReport`]. That is sufficient because the step engine has no other
//! cross-step state — per-step RNG seeds are a pure function of the
//! replicate seed and the step index, every optimizer builds a fresh
//! engine per step, and the only carried value (`Kign`) is recorded in the
//! last step report. Restoring therefore replays the exact seed stream the
//! uninterrupted run would have used: the remaining steps, and the final
//! `RunReport`'s deterministic fields, are **bit-identical** to never
//! having stopped (the checkpoint column of `tests/conformance.rs` pins
//! this at every step of every paper system and a §IV variant row).
//!
//! Snapshots round-trip through [`crate::jsonio`]
//! ([`SessionSnapshot::to_json`] / [`SessionSnapshot::from_json`]), so the
//! v2 serve protocol can hand them to clients and accept them back —
//! sessions survive server restarts and can migrate between processes.
//! A snapshot records no pool: restoring names the one to continue on
//! ([`SessionSnapshot::restore_on`]) or takes a serial one of its own
//! ([`SessionSnapshot::restore`]).

use crate::jsonio::Json;
use crate::session::PredictionSession;
use crate::spec::{standalone_pool, RunSpec};
use ess::error::ServiceError;
use ess::fitness::SharedScenarioPool;
use ess::pipeline::StepReport;
use evoalg::diversity::DiversityReport;
use std::sync::Arc;

/// A serializable checkpoint of one prediction session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    spec: RunSpec,
    replicate: usize,
    steps: Vec<StepReport>,
    driven_ms: f64,
}

impl SessionSnapshot {
    /// Format tag embedded in the JSON form (`"format"` member), bumped on
    /// incompatible layout changes.
    pub const FORMAT: &'static str = "ess-session-snapshot/2";

    pub(crate) fn new(
        spec: RunSpec,
        replicate: usize,
        steps: Vec<StepReport>,
        driven_ms: f64,
    ) -> Self {
        Self {
            spec,
            replicate,
            steps,
            driven_ms,
        }
    }

    /// The spec that built the session.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// Steps completed at checkpoint time.
    pub fn completed(&self) -> usize {
        self.steps.len()
    }

    /// The accumulated step reports.
    pub fn steps(&self) -> &[StepReport] {
        &self.steps
    }

    /// Rebuilds the session on `pool` (the serve loop hands in its one
    /// pool), positioned exactly where the snapshot was taken. The
    /// deadline clock (if the spec set one) restarts at the first
    /// post-restore `advance`.
    ///
    /// # Errors
    /// Name/spec resolution errors, and [`ServiceError::BadSpec`] when the
    /// checkpoint is inconsistent with the case (too many steps,
    /// non-sequential step indices, replicate out of range).
    pub fn restore_on(
        &self,
        pool: &Arc<SharedScenarioPool>,
    ) -> Result<PredictionSession, ServiceError> {
        self.spec.restore_session(
            self.replicate,
            self.steps.clone(),
            self.driven_ms,
            Arc::clone(pool),
        )
    }

    /// [`SessionSnapshot::restore_on`] a serial pool of its own — the
    /// standalone configuration.
    ///
    /// # Errors
    /// See [`SessionSnapshot::restore_on`].
    pub fn restore(&self) -> Result<PredictionSession, ServiceError> {
        self.restore_on(&standalone_pool())
    }

    /// Serializes the snapshot (spec, replicate, step reports, billed
    /// time) for the v2 protocol. `from_json(to_json())` reproduces the
    /// snapshot exactly: floats print in shortest-round-trip form.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("format", Self::FORMAT)
            .field("spec", self.spec.to_json())
            .field("replicate", self.replicate)
            .field("driven_ms", self.driven_ms)
            .field(
                "steps",
                Json::Arr(self.steps.iter().map(step_to_json).collect()),
            )
    }

    /// Parses a snapshot object (and validates the embedded spec).
    ///
    /// # Errors
    /// A one-line description naming the offending member.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        match v.get("format").and_then(Json::as_str) {
            Some(Self::FORMAT) => {}
            Some(other) => {
                return Err(format!(
                    "unsupported snapshot format '{other}' (this build reads '{}')",
                    Self::FORMAT
                ))
            }
            None => return Err("snapshot needs a 'format' string".into()),
        }
        let spec = RunSpec::from_json(v.get("spec").ok_or("snapshot needs a 'spec' object")?)?;
        let replicate =
            v.get("replicate")
                .and_then(Json::as_u64)
                .ok_or("snapshot needs a non-negative 'replicate' integer")? as usize;
        let driven_ms = billed_ms(v, "driven_ms", "snapshot")?;
        let steps = v
            .get("steps")
            .and_then(Json::as_arr)
            .ok_or("snapshot needs a 'steps' array")?
            .iter()
            .map(step_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            spec,
            replicate,
            steps,
            driven_ms,
        })
    }
}

/// Serializes one [`StepReport`] (every field, diversity nested).
pub(crate) fn step_to_json(s: &StepReport) -> Json {
    Json::obj()
        .field("step", s.step)
        .field("quality", s.quality)
        .field("kign", s.kign)
        .field("calibration_fitness", s.calibration_fitness)
        .field("os_best_fitness", s.os_best_fitness)
        .field(
            "diversity",
            Json::obj()
                .field("mean_pairwise", s.diversity.mean_pairwise)
                .field("mean_gene_std", s.diversity.mean_gene_std)
                .field("distinct", s.diversity.distinct)
                .field("size", s.diversity.size),
        )
        .field("evaluations", s.evaluations)
        .field("generations", s.generations)
        .field("wall_ms", s.wall_ms)
}

/// Parses one [`StepReport`].
pub(crate) fn step_from_json(v: &Json) -> Result<StepReport, String> {
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("step report needs a numeric '{key}'"))
    };
    let quality = match v.get("quality") {
        None | Some(Json::Null) => None,
        Some(q) => Some(q.as_f64().ok_or("'quality' must be a number or null")?),
    };
    let diversity = v
        .get("diversity")
        .ok_or("step report needs a 'diversity' object")?;
    let dnum = |key: &str| {
        diversity
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("diversity needs a numeric '{key}'"))
    };
    Ok(StepReport {
        step: v
            .get("step")
            .and_then(Json::as_u64)
            .ok_or("step report needs a non-negative 'step' integer")? as usize,
        quality,
        kign: num("kign")?,
        calibration_fitness: num("calibration_fitness")?,
        os_best_fitness: num("os_best_fitness")?,
        diversity: DiversityReport {
            mean_pairwise: dnum("mean_pairwise")?,
            mean_gene_std: dnum("mean_gene_std")?,
            distinct: diversity
                .get("distinct")
                .and_then(Json::as_u64)
                .ok_or("diversity needs a non-negative 'distinct' integer")?
                as usize,
            size: diversity
                .get("size")
                .and_then(Json::as_u64)
                .ok_or("diversity needs a non-negative 'size' integer")? as usize,
        },
        evaluations: v
            .get("evaluations")
            .and_then(Json::as_u64)
            .ok_or("step report needs a non-negative 'evaluations' integer")?,
        generations: v
            .get("generations")
            .and_then(|g| u32::try_from(g.as_u64()?).ok())
            .ok_or("step report needs a 'generations' integer in 0..=4294967295")?,
        wall_ms: billed_ms(v, "wall_ms", "step report")?,
    })
}

/// A billed wall time: a finite, non-negative number of milliseconds —
/// it is summed into the `done` frame's `wall_ms`.
fn billed_ms(v: &Json, key: &str, owner: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .filter(|ms| ms.is_finite() && *ms >= 0.0)
        .ok_or_else(|| format!("{owner} needs a finite, non-negative '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_round_trips_exactly() {
        let spec = RunSpec::new("ESS-NS", "meadow_small")
            .seed(7)
            .replicates(2)
            .scale(0.25)
            .weight(2.0)
            .max_steps(3);
        let mut session = spec
            .sessions_on(&crate::spec::standalone_pool())
            .expect("sessions build")
            .remove(1);
        while !session.is_done() {
            session.advance();
        }
        let snapshot = session.snapshot().expect("spec-built session snapshots");
        assert_eq!(snapshot.replicate, 1);
        assert_eq!(snapshot.completed(), 3);

        let json = snapshot.to_json();
        let compact = json.to_string();
        assert!(compact.starts_with(r#"{"format":"ess-session-snapshot/2","#));
        for retired in ["backend", "novelty", "kernel"] {
            assert!(!compact.contains(retired), "snapshot names '{retired}'");
        }
        let reparsed = SessionSnapshot::from_json(&Json::parse(&compact).expect("parses"))
            .expect("well-formed snapshot");
        assert_eq!(reparsed, snapshot, "compact round trip");
        let pretty = json.to_pretty();
        let reparsed = SessionSnapshot::from_json(&Json::parse(&pretty).expect("pretty parses"))
            .expect("well-formed snapshot");
        assert_eq!(reparsed, snapshot, "pretty round trip");
    }

    /// The member `key` of object `doc`.
    fn member<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
        match doc {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1,
            other => panic!("not an object: {other}"),
        }
    }

    #[test]
    fn malformed_snapshots_name_the_offending_member() {
        let mut session = RunSpec::new("ESS", "meadow_small")
            .scale(0.15)
            .session()
            .expect("session");
        session.advance();
        let good = session.snapshot().expect("snapshot").to_json();
        for (mutate, needle) in [
            (r#"{"format":"bogus/9"}"#, "unsupported snapshot format"),
            (
                r#"{"format":"ess-session-snapshot/1"}"#,
                "unsupported snapshot format 'ess-session-snapshot/1'",
            ),
            (r#"{}"#, "'format'"),
        ] {
            let err =
                SessionSnapshot::from_json(&Json::parse(mutate).unwrap()).expect_err("must reject");
            assert!(err.contains(needle), "{err}");
        }
        // A hand-corrupted steps array is rejected, not trusted.
        let mut broken = good.clone();
        *member(&mut broken, "steps") = Json::Arr(vec![Json::obj().field("step", 1u64)]);
        assert!(SessionSnapshot::from_json(&broken).is_err());
        // Out-of-range members are rejected by name, not truncated or
        // billed: a `generations` past u32 (JSON carries integers to
        // 2^53) and negative or infinite billed time.
        for (in_step, key, value) in [
            (true, "generations", 4_294_967_296.0),
            (false, "driven_ms", -1.0),
            (false, "driven_ms", f64::INFINITY),
            (true, "wall_ms", -0.5),
            (true, "wall_ms", f64::INFINITY),
        ] {
            let mut bad = good.clone();
            let owner = match member(&mut bad, "steps") {
                Json::Arr(steps) if in_step => &mut steps[0],
                _ => &mut bad,
            };
            *member(owner, key) = Json::Num(value);
            let err = SessionSnapshot::from_json(&bad).expect_err(key);
            assert!(err.contains(&format!("'{key}'")), "{key} = {value}: {err}");
        }
    }

    #[test]
    fn restore_rejects_checkpoints_that_do_not_fit_the_case() {
        let spec = RunSpec::new("ESS", "meadow_small").max_steps(2).scale(0.15);
        let mut session = spec.session().expect("session");
        while !session.is_done() {
            session.advance();
        }
        let snapshot = session.snapshot().expect("snapshot");

        // Steps renumbered out of sequence → BadSpec, not a panic.
        let mut bad = snapshot.clone();
        bad.steps[0].step = 5;
        assert!(matches!(
            bad.restore(),
            Err(ServiceError::BadSpec(ref m)) if m.contains("sequential")
        ));

        // Replicate index beyond the spec's count → BadSpec.
        let mut bad = snapshot.clone();
        bad.replicate = 7;
        assert!(matches!(
            bad.restore(),
            Err(ServiceError::BadSpec(ref m)) if m.contains("replicate")
        ));

        // A carried Kign that is no probability → BadSpec naming the step
        // and the value, not a panic in the next step's Prediction Stage.
        for kign in [7.5, -0.25, f64::NAN] {
            let mut bad = snapshot.clone();
            bad.steps[1].kign = kign;
            let needle = format!("step 2 carries kign {kign}");
            assert!(matches!(
                bad.restore(),
                Err(ServiceError::BadSpec(ref m)) if m.contains(&needle)
            ));
        }
        // Both ends of the range are thresholds the next step predicts
        // with ("everything burns" and "only the consensus").
        let mut session = RunSpec::new("ESS", "meadow_small")
            .scale(0.15)
            .session()
            .expect("session");
        session.advance();
        let snapshot = session.snapshot().expect("snapshot");
        for kign in [0.0, 1.0] {
            let mut edge = snapshot.clone();
            edge.steps[0].kign = kign;
            let mut restored = edge.restore().expect("a probability restores");
            let crate::SessionEvent::StepCompleted(step) = restored.advance() else {
                panic!("the restored session has steps left");
            };
            assert!(step.quality.is_some_and(|q| (0.0..=1.0).contains(&q)));
        }
    }

    #[test]
    fn hand_built_sessions_cannot_snapshot() {
        use ess::cases;
        let case = cases::by_name("meadow_small").expect("case");
        let optimizer = crate::systems::by_name("ESS").expect("system").make(0.2);
        let session = PredictionSession::new(
            case,
            optimizer,
            standalone_pool(),
            1,
            crate::spec::Budget::unlimited(),
        );
        assert!(matches!(
            session.snapshot(),
            Err(ServiceError::BadSpec(ref m)) if m.contains("provenance")
        ));
    }
}
