//! [`RunSpec`]: the one request type of the run API.
//!
//! A spec names a system (resolved through [`crate::systems::by_name`])
//! and a case (taken from the process-wide [`crate::store`] over
//! `ess::cases::by_name` — hand-built library or workload corpus), and
//! sets the seed, replicate count, budget scale, fair-share weight and
//! optional stopping budgets. Every way of running a prediction — batch,
//! session, scheduler, serve protocol — starts from one of these.
//!
//! A spec says *what* to predict, never *how* to run it. Every session
//! evaluates on a pool: the one chosen once per process — `serve
//! --backend`, or whatever is handed to [`RunSpec::sessions_on`] — or,
//! for a standalone [`RunSpec::session`] / [`RunSpec::run`], a serial
//! pool built here, once per call.

use crate::jsonio::{Json, MAX_EXACT_INT};
use crate::session::{PredictionSession, Provenance};
use crate::{store, systems};
use ess::cases::BurnCase;
use ess::error::ServiceError;
use ess::fitness::{EvalBackend, SharedScenarioPool};
use ess::pipeline::{RunReport, StepDriver, StepReport};
use std::sync::Arc;
use std::time::Duration;

/// Stopping budgets enforced *between* prediction steps (a running step is
/// never interrupted, so a budget can be overshot by at most one step).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budget {
    /// Stop after this many prediction steps.
    pub max_steps: Option<usize>,
    /// Stop once this many scenario evaluations were spent.
    pub max_evaluations: Option<u64>,
    /// Stop once this much wall-clock time passed since the first
    /// `advance` call.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// No budgets: run every step.
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// A builder-style run request: system × case × seed × replicates ×
/// budgets.
///
/// ```no_run
/// use ess_service::RunSpec;
///
/// let report = RunSpec::new("ESS-NS", "meadow_small")
///     .seed(7)
///     .scale(0.5)
///     .max_steps(3)
///     .run()
///     .unwrap();
/// println!("{}: mean quality {:.4}", report.case, report.mean_quality());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    system: String,
    case: String,
    seed: u64,
    replicates: usize,
    scale: f64,
    weight: f64,
    budget: Budget,
}

impl RunSpec {
    /// A spec for `system` on `case` with the defaults: seed 1, one
    /// replicate, unit budget scale and weight, no stopping budgets.
    pub fn new(system: impl Into<String>, case: impl Into<String>) -> Self {
        Self {
            system: system.into(),
            case: case.into(),
            seed: 1,
            replicates: 1,
            scale: 1.0,
            weight: 1.0,
            budget: Budget::unlimited(),
        }
    }

    /// Base RNG seed of replicate 0; replicate `r` derives its own stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of independent replicates (≥ 1).
    pub fn replicates(mut self, replicates: usize) -> Self {
        self.replicates = replicates;
        self
    }

    /// Evaluation-budget scale (the per-step search budget is roughly
    /// `scale × 400` evaluations).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Fair-share weight (> 0, default 1): under weighted-fair-share
    /// scheduling, a weight-2 session receives twice the step rate of a
    /// weight-1 peer. Other policies ignore it; results never depend on
    /// it.
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// The configured fair-share weight.
    pub fn share_weight(&self) -> f64 {
        self.weight
    }

    /// Stop after `n` prediction steps.
    pub fn max_steps(mut self, n: usize) -> Self {
        self.budget.max_steps = Some(n);
        self
    }

    /// Stop once `n` scenario evaluations were spent.
    pub fn max_evaluations(mut self, n: u64) -> Self {
        self.budget.max_evaluations = Some(n);
        self
    }

    /// Stop after `ms` wall-clock milliseconds of driving.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.budget.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// The requested case name.
    pub fn case_name(&self) -> &str {
        &self.case
    }

    /// The most replicates one spec may request. Sessions are materialised
    /// eagerly (each owns its case and optimizer), so an unbounded count
    /// would let a single serve request allocate the server to death; runs
    /// wanting more statistical replicates than this submit more specs.
    pub const MAX_REPLICATES: usize = 1024;

    /// The largest budget scale one spec may request. The scale sizes
    /// every population, offspring pool, archive and result set of the
    /// row, the first step draws the whole population, and budgets are
    /// checked only between steps — so an unbounded scale would let a
    /// single serve request exhaust the server's memory or start a step no
    /// budget can stop. 16 is four times the largest scale the repository
    /// itself sends.
    pub const MAX_SCALE: f64 = 16.0;

    /// Validates the non-name fields.
    ///
    /// # Errors
    /// [`ServiceError::BadSpec`] on zero or more than
    /// [`RunSpec::MAX_REPLICATES`] replicates, a non-positive or
    /// non-finite scale or weight, a scale above [`RunSpec::MAX_SCALE`], a
    /// zero budget (a budget of 0 can never admit a step, which is always
    /// a mistake — omit the budget instead), or a seed or budget above
    /// 2^53 (it would not survive the wire or a snapshot). Every message
    /// names the offending field.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.replicates == 0 {
            return Err(ServiceError::BadSpec("replicates must be ≥ 1".into()));
        }
        if self.replicates > Self::MAX_REPLICATES {
            return Err(ServiceError::BadSpec(format!(
                "replicates must be ≤ {} (got {}); submit more specs to run additional replicates",
                Self::MAX_REPLICATES,
                self.replicates
            )));
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(ServiceError::BadSpec(format!(
                "scale must be a positive, finite number (got {})",
                self.scale
            )));
        }
        if self.scale > Self::MAX_SCALE {
            return Err(ServiceError::BadSpec(format!(
                "scale must be ≤ {} (got {})",
                Self::MAX_SCALE,
                self.scale
            )));
        }
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(ServiceError::BadSpec(format!(
                "weight must be a positive, finite number (got {})",
                self.weight
            )));
        }
        let budget = self.budget;
        for (field, min, value) in [
            ("seed", 0, Some(self.seed)),
            ("max_steps", 1, budget.max_steps.map(|n| n as u64)),
            ("max_evaluations", 1, budget.max_evaluations),
            ("deadline_ms", 1, self.deadline_millis()),
        ] {
            if let Some(v) = value.filter(|v| !(min..=MAX_EXACT_INT).contains(v)) {
                return Err(ServiceError::BadSpec(format!(
                    "{field} must be in {min}..={MAX_EXACT_INT} (got {v}; 2^53 is the largest \
                     integer the JSON wire carries exactly)"
                )));
            }
        }
        Ok(())
    }

    /// Resolves both names and validates the spec. The case comes from the
    /// shared [`store`], so only the first request for a name builds it.
    fn resolve(&self) -> Result<(&'static systems::SystemSpec, BurnCase), ServiceError> {
        self.validate()?;
        let system = systems::resolve(&self.system)?;
        Ok((system, store::case(&self.case)?))
    }

    /// The deadline budget in whole milliseconds, as the wire carries it.
    fn deadline_millis(&self) -> Option<u64> {
        self.budget.deadline.map(|d| d.as_millis() as u64)
    }

    /// Seed of replicate `r` (replicate 0 uses the spec seed unchanged, so
    /// single-replicate sessions reproduce the batch path bit for bit).
    fn replicate_seed(&self, replicate: usize) -> u64 {
        self.seed
            .wrapping_add((replicate as u64).wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Builds the replicate-0 session on a serial pool of its own.
    pub fn session(&self) -> Result<PredictionSession, ServiceError> {
        let (system, case) = self.resolve()?;
        Ok(self.assemble(system, case, standalone_pool(), 0))
    }

    /// Builds one session per replicate, all multiplexing `pool` — the
    /// scheduler configuration: no new worker threads are spawned.
    pub fn sessions_on(
        &self,
        pool: &Arc<SharedScenarioPool>,
    ) -> Result<Vec<PredictionSession>, ServiceError> {
        let (system, case) = self.resolve()?;
        Ok((0..self.replicates)
            .map(|r| self.assemble(system, case.clone(), Arc::clone(pool), r))
            .collect())
    }

    fn assemble(
        &self,
        system: &systems::SystemSpec,
        case: BurnCase,
        pool: Arc<SharedScenarioPool>,
        replicate: usize,
    ) -> PredictionSession {
        let mut session = PredictionSession::new(
            case,
            system.make(self.scale),
            pool,
            self.replicate_seed(replicate),
            self.budget,
        );
        session.set_provenance(Provenance {
            system: system.name,
            spec: self.clone(),
            replicate,
        });
        session
    }

    /// Rebuilds the session a snapshot describes: a driver positioned
    /// after `steps.len()` completed steps (carrying the last step's
    /// `Kign`), a fresh optimizer, and the accumulated reports — the
    /// checkpoint/resume engine behind
    /// [`crate::SessionSnapshot::restore_on`].
    ///
    /// # Errors
    /// Name/spec errors from resolution, plus [`ServiceError::BadSpec`]
    /// when the checkpoint does not fit the case (more completed steps
    /// than the case has, non-sequential step indices, a `kign` that is
    /// not a probability) or `replicate` exceeds the spec's replicate
    /// count.
    pub(crate) fn restore_session(
        &self,
        replicate: usize,
        steps: Vec<StepReport>,
        driven_ms: f64,
        pool: Arc<SharedScenarioPool>,
    ) -> Result<PredictionSession, ServiceError> {
        let (system, case) = self.resolve()?;
        if replicate >= self.replicates {
            return Err(ServiceError::BadSpec(format!(
                "snapshot replicate {} out of range for a {}-replicate spec",
                replicate, self.replicates
            )));
        }
        let total = case.intervals().saturating_sub(1);
        if steps.len() > total {
            return Err(ServiceError::BadSpec(format!(
                "snapshot has {} completed steps but case '{}' runs only {}",
                steps.len(),
                self.case,
                total
            )));
        }
        if let Some((i, s)) = steps.iter().enumerate().find(|(i, s)| s.step != i + 1) {
            return Err(ServiceError::BadSpec(format!(
                "snapshot steps must be sequential from 1 (entry {} reports step {})",
                i, s.step
            )));
        }
        // The last step's Kign is carried into the next step's Prediction
        // Stage, which takes a probability threshold and nothing else.
        if let Some(s) = steps.iter().find(|s| !(0.0..=1.0).contains(&s.kign)) {
            return Err(ServiceError::BadSpec(format!(
                "snapshot step {} carries kign {} outside [0, 1]",
                s.step, s.kign
            )));
        }
        let carried_kign = steps.last().map(|s| s.kign);
        let driver = StepDriver::restore(
            case,
            pool,
            self.replicate_seed(replicate),
            steps.len(),
            carried_kign,
        );
        Ok(PredictionSession::restored(
            driver,
            system.make(self.scale),
            self.budget,
            self.weight,
            steps,
            driven_ms,
            Provenance {
                system: system.name,
                spec: self.clone(),
                replicate,
            },
        ))
    }

    /// Every member [`RunSpec::to_json`] writes — the only ones
    /// [`RunSpec::from_json`] accepts.
    const MEMBERS: &[&str] = &[
        "system",
        "case",
        "seed",
        "replicates",
        "scale",
        "weight",
        "max_steps",
        "max_evaluations",
        "deadline_ms",
    ];

    /// Serializes the spec as the protocol-v2 / snapshot JSON object.
    /// Unset budgets serialize as `null`, and [`RunSpec::validate`] keeps
    /// every integer inside the range a JSON number carries exactly, so
    /// `RunSpec::from_json(spec.to_json())` reproduces a valid spec
    /// exactly.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("system", self.system.as_str())
            .field("case", self.case.as_str())
            .field("seed", self.seed)
            .field("replicates", self.replicates)
            .field("scale", self.scale)
            .field("weight", self.weight)
            .field("max_steps", self.budget.max_steps)
            .field("max_evaluations", self.budget.max_evaluations)
            .field("deadline_ms", self.deadline_millis())
    }

    /// Parses a spec object (a `run` request's `spec` payload or a
    /// snapshot's embedded spec) and validates it. Only the members
    /// [`RunSpec::to_json`] writes are legal — a misspelt budget must not
    /// silently run unbudgeted; `null` means "unset".
    ///
    /// # Errors
    /// A one-line description naming the offending field.
    pub fn from_json(v: &Json) -> Result<RunSpec, String> {
        if let Json::Obj(members) = v {
            if let Some((key, _)) = members
                .iter()
                .find(|(key, _)| !Self::MEMBERS.contains(&key.as_str()))
            {
                return Err(format!("unknown spec member '{key}'"));
            }
        }
        let present = |key: &str| v.get(key).filter(|j| !matches!(j, Json::Null));
        let system = present("system")
            .and_then(Json::as_str)
            .ok_or("spec needs a 'system' string")?;
        let case = present("case")
            .and_then(Json::as_str)
            .ok_or("spec needs a 'case' string")?;
        let mut spec = RunSpec::new(system, case);
        let int = |key: &str| {
            present(key)
                .map(|x| {
                    x.as_u64().ok_or_else(|| {
                        format!("'{key}' must be an integer in 0..={MAX_EXACT_INT} (2^53)")
                    })
                })
                .transpose()
        };
        if let Some(n) = int("seed")? {
            spec = spec.seed(n);
        }
        if let Some(n) = int("replicates")? {
            spec = spec.replicates(n as usize);
        }
        if let Some(x) = present("scale") {
            spec = spec.scale(x.as_f64().ok_or("'scale' must be a number")?);
        }
        if let Some(x) = present("weight") {
            spec = spec.weight(x.as_f64().ok_or("'weight' must be a number")?);
        }
        if let Some(n) = int("max_steps")? {
            spec = spec.max_steps(n as usize);
        }
        if let Some(n) = int("max_evaluations")? {
            spec = spec.max_evaluations(n);
        }
        if let Some(n) = int("deadline_ms")? {
            spec = spec.deadline_ms(n);
        }
        spec.validate().map_err(|e| e.to_string())?;
        Ok(spec)
    }

    /// The batch entry point: builds the replicate-0 session and drains
    /// it, on a serial pool of its own.
    ///
    /// # Errors
    /// Name/spec errors from building, or
    /// [`ServiceError::BudgetExhausted`] when a budget stopped the run
    /// early (the partial report rides in the error).
    pub fn run(&self) -> Result<RunReport, ServiceError> {
        self.session()?.drain()
    }
}

/// The pool of the standalone configuration ([`RunSpec::session`],
/// [`RunSpec::run`],
/// [`crate::SessionSnapshot::restore`]): serial, evaluating in the caller.
pub(crate) fn standalone_pool() -> Arc<SharedScenarioPool> {
    Arc::new(SharedScenarioPool::new(EvalBackend::Serial))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builder_chain() {
        let spec = RunSpec::new("ESS-NS", "meadow_small")
            .seed(9)
            .replicates(3)
            .scale(0.5)
            .max_steps(2)
            .max_evaluations(1000)
            .deadline_ms(5000);
        assert_eq!(spec.system, "ESS-NS");
        assert_eq!(spec.case_name(), "meadow_small");
        assert_eq!(spec.replicates, 3);
        assert_eq!(spec.budget.max_steps, Some(2));
        assert!(spec.validate().is_ok());
        assert_eq!(spec.replicate_seed(0), 9);
        assert_ne!(spec.replicate_seed(1), 9);
    }

    #[test]
    fn bad_specs_are_rejected_with_bad_spec() {
        let base = RunSpec::new("ESS", "grass_uniform");
        for bad in [
            base.clone().replicates(0),
            base.clone().replicates(RunSpec::MAX_REPLICATES + 1),
            base.clone().scale(0.0),
            base.clone().scale(-1.0),
            base.clone().scale(f64::NAN),
            base.clone().scale(f64::INFINITY),
            base.clone().scale(RunSpec::MAX_SCALE * 1.000_001),
            base.clone().scale(1e9),
            base.clone().weight(0.0),
            base.clone().weight(-2.0),
            base.clone().weight(f64::NAN),
            base.clone().weight(f64::INFINITY),
            base.clone().max_steps(0),
            base.clone().max_evaluations(0),
            base.clone().seed((1 << 53) + 1),
            base.clone().seed(1 << 60),
            base.clone().seed(u64::MAX),
            base.clone().max_evaluations((1 << 53) + 1),
        ] {
            assert!(matches!(bad.validate(), Err(ServiceError::BadSpec(_))));
            assert!(matches!(bad.run(), Err(ServiceError::BadSpec(_))));
        }
    }

    #[test]
    fn validation_errors_are_one_line_and_name_the_field() {
        let base = RunSpec::new("ESS", "grass_uniform");
        for (bad, field) in [
            (base.clone().scale(0.0), "scale"),
            (base.clone().scale(f64::NEG_INFINITY), "scale"),
            (
                base.clone().scale(1e12),
                "scale must be ≤ 16 (got 1000000000000)",
            ),
            (base.clone().weight(f64::NAN), "weight"),
            (base.clone().replicates(0), "replicates"),
            (base.clone().max_steps(0), "max_steps"),
            (base.clone().max_evaluations(0), "max_evaluations"),
            (base.clone().deadline_ms(0), "deadline"),
            (base.clone().seed((1 << 53) + 1), "seed must be in 0..="),
            (base.clone().seed(1 << 60), "seed must be in 0..="),
            (base.clone().seed(u64::MAX), "..=9007199254740992 (got"),
            (base.clone().max_evaluations(u64::MAX), "max_evaluations"),
            (base.clone().max_steps(usize::MAX), "max_steps"),
            (base.clone().deadline_ms(u64::MAX), "deadline_ms"),
        ] {
            let message = bad.validate().expect_err("must reject").to_string();
            assert!(
                message.contains(field),
                "message must name '{field}': {message}"
            );
            assert!(!message.contains('\n'), "must be one line: {message}");
        }
    }

    #[test]
    fn replicate_cap_message_states_cap_and_workaround() {
        let err = RunSpec::new("ESS", "grass_uniform")
            .replicates(RunSpec::MAX_REPLICATES + 1)
            .validate()
            .expect_err("over the cap");
        assert_eq!(
            err.to_string(),
            "bad run spec: replicates must be ≤ 1024 (got 1025); \
             submit more specs to run additional replicates"
        );
    }

    #[test]
    fn spec_json_round_trips_exactly() {
        let full = RunSpec::new("ESS-NS", "meadow_small")
            .seed(99)
            .replicates(3)
            .scale(0.375)
            .weight(2.5)
            .max_steps(4)
            .max_evaluations(10_000)
            .deadline_ms(30_000);
        let minimal = RunSpec::new("ESS", "grass_uniform");
        // The largest seed the wire carries exactly is still a valid spec.
        let boundary = minimal.clone().seed(1 << 53);
        // So is the largest scale.
        let largest = minimal.clone().scale(RunSpec::MAX_SCALE);
        for spec in [full, minimal, boundary, largest] {
            let round = RunSpec::from_json(&spec.to_json()).expect("own json parses");
            assert_eq!(round, spec);
            // And through the actual wire text, not just the value tree.
            let text = spec.to_json().to_string();
            let reparsed =
                RunSpec::from_json(&Json::parse(&text).expect("valid text")).expect("parses");
            assert_eq!(reparsed, spec);
        }
    }

    #[test]
    fn from_json_names_the_offending_field() {
        assert_eq!(RunSpec::MEMBERS.len(), 9);
        for (line, needle) in [
            (r#"{"case":"meadow_small"}"#, "'system'"),
            (r#"{"system":"ESS"}"#, "'case'"),
            (
                r#"{"system":"ESS","case":"meadow_small","seed":-4}"#,
                "'seed'",
            ),
            (
                r#"{"system":"ESS","case":"meadow_small","scale":"big"}"#,
                "'scale'",
            ),
            (
                r#"{"system":"ESS","case":"meadow_small","weight":0}"#,
                "weight",
            ),
            (
                r#"{"system":"ESS","case":"meadow_small","scale":1e9}"#,
                "scale must be ≤ 16",
            ),
            (
                r#"{"system":"ESS","case":"meadow_small","seed":1152921504606846976}"#,
                "'seed' must be an integer in 0..=9007199254740992",
            ),
            (
                r#"{"system":"ESS","case":"meadow_small","backend":"serial"}"#,
                "unknown spec member 'backend'",
            ),
            (
                r#"{"system":"ESS","case":"meadow_small","novelty":"sorted"}"#,
                "unknown spec member 'novelty'",
            ),
            (
                r#"{"system":"ESS","case":"meadow_small","kernel":"bucket"}"#,
                "unknown spec member 'kernel'",
            ),
            (
                r#"{"system":"ESS","case":"meadow_small","max_step":1}"#,
                "'max_step'",
            ),
        ] {
            let err = RunSpec::from_json(&Json::parse(line).expect("valid json"))
                .expect_err("must reject");
            assert!(err.contains(needle), "{line} → {err}");
        }
    }

    #[test]
    fn unknown_names_resolve_to_typed_errors() {
        assert!(matches!(
            RunSpec::new("ESS-XL", "meadow_small").session(),
            Err(ServiceError::UnknownSystem(ref n)) if n == "ESS-XL"
        ));
        assert!(matches!(
            RunSpec::new("ESS", "atlantis_burn").session(),
            Err(ServiceError::UnknownCase(ref n)) if n == "atlantis_burn"
        ));
    }
}
