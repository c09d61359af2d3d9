//! Pluggable scheduling policies: *which* live sessions advance in a
//! scheduler round, and in what order.
//!
//! The PR 3 scheduler hard-wired one discipline — every live session, one
//! step each, submission order. That is [`RoundRobin`] here; protocol v2
//! makes the discipline a [`SchedulePolicy`] object selected per `serve`
//! invocation ([`PolicyKind`] parses the `--policy` flag), so a deployment
//! can also run:
//!
//! * [`WeightedFairShare`] — each round advances the session(s) with the
//!   lowest *virtual time* `completed_steps / weight`, so a weight-2
//!   session receives twice the step rate of a weight-1 peer;
//! * [`DeadlineFirst`] — every session still advances each round, but
//!   deadline-constrained sessions go first (nearest deadline wins),
//!   so urgent work is never stuck behind unconstrained batch runs.
//!
//! Sessions are deterministic given their spec and seed — per-step seeds
//! depend only on the session's own seed stream, never on scheduling
//! order — so every policy produces bit-identical per-session reports;
//! policies change *latency and fairness*, not results. The fleet column
//! of the workspace's `tests/conformance.rs` asserts exactly that on every
//! backend, and its wire column again over the protocol.

use crate::scheduler::SessionId;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// What a policy may observe about one live session when planning a round.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Scheduler-assigned id.
    pub id: SessionId,
    /// Prediction steps completed so far.
    pub completed: usize,
    /// Steps a full run would execute.
    pub total_steps: usize,
    /// Scenario evaluations spent so far.
    pub evaluations_spent: u64,
    /// Fair-share weight from the spec (≥ `0`, default 1).
    pub weight: f64,
    /// Wall-clock time *remaining* before the deadline budget fires, when
    /// the spec set one (recomputed every round, so urgency reflects how
    /// long each session has already been running).
    pub deadline: Option<Duration>,
}

/// A round-planning discipline. [`SchedulePolicy::plan`] receives the live
/// sessions in submission order and returns the indices to advance this
/// round, in execution order. Indices out of range or repeated are
/// ignored; an empty plan falls back to advancing the oldest session, so
/// no policy can livelock a drain.
pub trait SchedulePolicy: Send {
    /// Report name of the policy.
    fn name(&self) -> &'static str;

    /// Indices into `live` to advance this round, in order.
    fn plan(&mut self, live: &[SessionMeta]) -> Vec<usize>;
}

/// Every live session advances one step per round, submission order — the
/// PR 3 behaviour, and the default.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl SchedulePolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn plan(&mut self, live: &[SessionMeta]) -> Vec<usize> {
        (0..live.len()).collect()
    }
}

/// Advances the session(s) whose virtual time `completed / weight` is
/// minimal (all ties advance, submission order), so step rates converge to
/// the weight ratios: over any window, a weight-2 session completes ~2×
/// the steps of a weight-1 session.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedFairShare;

impl WeightedFairShare {
    fn virtual_time(meta: &SessionMeta) -> f64 {
        // Weights are validated positive by `RunSpec::validate`; guard
        // anyway so a hand-built session cannot produce NaN ordering.
        meta.completed as f64 / meta.weight.max(f64::MIN_POSITIVE)
    }
}

impl SchedulePolicy for WeightedFairShare {
    fn name(&self) -> &'static str {
        "weighted-fair-share"
    }

    fn plan(&mut self, live: &[SessionMeta]) -> Vec<usize> {
        let Some(min) = live.iter().map(Self::virtual_time).min_by(f64::total_cmp) else {
            return Vec::new();
        };
        live.iter()
            .enumerate()
            .filter(|(_, meta)| Self::virtual_time(meta).total_cmp(&min).is_eq())
            .map(|(i, _)| i)
            .collect()
    }
}

/// Every live session advances each round (no starvation), ordered by
/// urgency: least wall-clock time remaining before its deadline first
/// ([`SessionMeta::deadline`] is the *remaining* time, recomputed every
/// round), deadline-free sessions last, ties by submission order.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadlineFirst;

impl SchedulePolicy for DeadlineFirst {
    fn name(&self) -> &'static str {
        "deadline-first"
    }

    fn plan(&mut self, live: &[SessionMeta]) -> Vec<usize> {
        let mut order: Vec<(Duration, usize)> = live
            .iter()
            .enumerate()
            .map(|(i, meta)| (meta.deadline.unwrap_or(Duration::MAX), i))
            .collect();
        order.sort();
        order.into_iter().map(|(_, i)| i).collect()
    }
}

/// The nameable policies — the value the `serve --policy` flag selects
/// by. Parses from `round-robin` / `rr`, `weighted-fair-share` / `wfs` /
/// `fair`, `deadline-first` / `deadline` / `edf`; the `Display` form
/// round-trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// [`RoundRobin`].
    #[default]
    RoundRobin,
    /// [`WeightedFairShare`].
    WeightedFairShare,
    /// [`DeadlineFirst`].
    DeadlineFirst,
}

impl PolicyKind {
    /// Every selectable policy, declaration order.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::RoundRobin,
        PolicyKind::WeightedFairShare,
        PolicyKind::DeadlineFirst,
    ];

    /// Canonical name (the `Display`/`FromStr` round-trip form).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::WeightedFairShare => "weighted-fair-share",
            PolicyKind::DeadlineFirst => "deadline-first",
        }
    }

    /// Instantiates the policy object.
    pub fn build(&self) -> Box<dyn SchedulePolicy> {
        match self {
            PolicyKind::RoundRobin => Box::new(RoundRobin),
            PolicyKind::WeightedFairShare => Box::new(WeightedFairShare),
            PolicyKind::DeadlineFirst => Box::new(DeadlineFirst),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`PolicyKind`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid scheduling policy '{}' (expected round-robin | weighted-fair-share | deadline-first)",
            self.0
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for PolicyKind {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "round-robin" | "roundrobin" | "rr" => Ok(PolicyKind::RoundRobin),
            "weighted-fair-share" | "wfs" | "fair" => Ok(PolicyKind::WeightedFairShare),
            "deadline-first" | "deadline" | "edf" => Ok(PolicyKind::DeadlineFirst),
            _ => Err(ParsePolicyError(s.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: SessionId, completed: usize, weight: f64, deadline_ms: Option<u64>) -> SessionMeta {
        SessionMeta {
            id,
            completed,
            total_steps: 10,
            evaluations_spent: 0,
            weight,
            deadline: deadline_ms.map(Duration::from_millis),
        }
    }

    #[test]
    fn round_robin_advances_everyone_in_submission_order() {
        let live = vec![meta(1, 0, 1.0, None), meta(2, 5, 1.0, None)];
        assert_eq!(RoundRobin.plan(&live), vec![0, 1]);
        assert!(RoundRobin.plan(&[]).is_empty());
    }

    #[test]
    fn weighted_fair_share_tracks_virtual_time() {
        // Session 2 has weight 2: it lags in virtual time until it has
        // run twice as many steps as session 1.
        let mut policy = WeightedFairShare;
        assert_eq!(
            policy.plan(&[meta(1, 1, 1.0, None), meta(2, 1, 2.0, None)]),
            vec![1]
        );
        // Equal virtual times all advance (ties keep submission order).
        assert_eq!(
            policy.plan(&[meta(1, 1, 1.0, None), meta(2, 2, 2.0, None)]),
            vec![0, 1]
        );
    }

    #[test]
    fn deadline_first_orders_by_urgency_without_starvation() {
        let live = vec![
            meta(1, 0, 1.0, None),
            meta(2, 0, 1.0, Some(5_000)),
            meta(3, 0, 1.0, Some(1_000)),
        ];
        // Everyone advances; the tightest deadline goes first and the
        // deadline-free session last.
        assert_eq!(DeadlineFirst.plan(&live), vec![2, 1, 0]);
    }

    #[test]
    fn policy_kind_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.name().parse::<PolicyKind>().unwrap(), kind);
            assert_eq!(kind.build().name(), kind.name());
        }
        for (alias, kind) in [
            ("rr", PolicyKind::RoundRobin),
            ("WFS", PolicyKind::WeightedFairShare),
            ("edf", PolicyKind::DeadlineFirst),
        ] {
            assert_eq!(alias.parse::<PolicyKind>().unwrap(), kind);
        }
        assert!("fifo".parse::<PolicyKind>().is_err());
        assert_eq!(PolicyKind::default(), PolicyKind::RoundRobin);
    }
}
