//! Conformance replay of the v2 session lifecycle through the real serve
//! loop.
//!
//! A small state machine ([`MState`]) encodes the specified lifecycle
//! rules of `ess_service::serve` — every live session steps once per
//! scheduler round, the terminal frame lands one round after the last
//! step, cancel removes a session without a terminal frame, drain leaves
//! nothing live — and checks them after every operation.
//! [`replay_conformance`] renders generated operation scripts into real
//! request lines, feeds them through the real `serve_configured` loop on
//! an in-memory transport, and holds the output stream to what the model
//! predicts. Restore is not in the alphabet: a pre-rendered input buffer
//! cannot feed a captured snapshot back in, and the checkpoint and wire
//! columns of the run-level conformance matrix (`tests/conformance.rs`)
//! cover it.

use ess::fitness::EvalBackend;
use ess_service::jsonio::Json;
use ess_service::policy::PolicyKind;
use ess_service::proto::{Frame, Reply};
use ess_service::serve::serve_configured;

/// Steps every model session runs; 2 keeps the scripts short while still
/// exposing the partially-advanced states a snapshot cares about.
const TOTAL_STEPS: u32 = 2;
/// Live-session cap: bounds the branching factor without losing the
/// multi-session interleavings.
const MAX_LIVE: usize = 2;
/// A session id no admission can produce.
const UNKNOWN_SID: u64 = 9999;

/// The operation alphabet of a replay script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum POp {
    /// `run` with `watch: true`.
    SubmitWatched,
    /// `run` with `watch: false`.
    Submit,
    /// `advance` one scheduler round.
    Advance,
    /// `snapshot` of the oldest live session.
    Snapshot,
    /// `cancel` of the oldest live session.
    CancelFirst,
    /// `cancel` of a session id that does not exist.
    CancelUnknown,
    /// `drain`.
    Drain,
}

/// One admitted session in the model.
#[derive(Debug, Clone)]
struct MSession {
    sid: u64,
    watch: bool,
    steps_done: u32,
    live: bool,
    cancelled: bool,
    done: bool,
}

/// One observable the model predicts the serve loop will stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A completed step: a `progress` frame when (and only when) the
    /// session is watched.
    Step { sid: u64, watch: bool },
    /// The terminal `done` frame.
    Done { sid: u64 },
}

/// The whole protocol-visible state.
#[derive(Debug, Clone, Default)]
struct MState {
    next_sid: u64,
    sessions: Vec<MSession>,
    /// Whether a snapshot was taken: a script takes at most one.
    snapped: bool,
    audit: Vec<Ev>,
    errors: u64,
    cancels: u64,
}

impl MState {
    fn new() -> Self {
        MState {
            next_sid: 1,
            ..MState::default()
        }
    }

    fn live_count(&self) -> usize {
        self.sessions.iter().filter(|s| s.live).count()
    }

    fn first_live(&self) -> Option<u64> {
        self.sessions.iter().find(|s| s.live).map(|s| s.sid)
    }

    fn admit(&mut self, watch: bool, steps_done: u32) {
        self.sessions.push(MSession {
            sid: self.next_sid,
            watch,
            steps_done,
            live: true,
            cancelled: false,
            done: false,
        });
        self.next_sid += 1;
    }

    /// One scheduler round: every live session steps; a session whose
    /// steps are already spent emits its terminal frame instead.
    fn round(&mut self) -> Result<(), String> {
        for s in self.sessions.iter_mut().filter(|s| s.live) {
            if s.steps_done < TOTAL_STEPS {
                s.steps_done += 1;
                self.audit.push(Ev::Step {
                    sid: s.sid,
                    watch: s.watch,
                });
            } else {
                if s.done {
                    return Err(format!("session {} emitted a second terminal frame", s.sid));
                }
                s.done = true;
                s.live = false;
                self.audit.push(Ev::Done { sid: s.sid });
            }
        }
        Ok(())
    }

    /// Which operations are legal (i.e., worth branching on) here.
    fn available(&self) -> Vec<POp> {
        let mut ops = Vec::with_capacity(8);
        if self.live_count() < MAX_LIVE {
            ops.extend([POp::SubmitWatched, POp::Submit]);
        }
        ops.push(POp::Advance);
        if !self.snapped && self.first_live().is_some() {
            ops.push(POp::Snapshot);
        }
        if self.first_live().is_some() {
            ops.push(POp::CancelFirst);
        }
        ops.push(POp::CancelUnknown);
        ops.push(POp::Drain);
        ops
    }

    fn apply(&mut self, op: POp) -> Result<(), String> {
        match op {
            POp::SubmitWatched => {
                self.admit(true, 0);
            }
            POp::Submit => {
                self.admit(false, 0);
            }
            POp::Advance => self.round()?,
            POp::Snapshot => {
                self.first_live().ok_or("snapshot with nothing live")?;
                self.snapped = true;
            }
            POp::CancelFirst => {
                let sid = self.first_live().ok_or("cancel with nothing live")?;
                let s = self.sessions.iter_mut().find(|s| s.sid == sid).unwrap();
                s.live = false;
                s.cancelled = true;
                self.cancels += 1;
            }
            POp::CancelUnknown => {
                // An error reply; nothing else may change.
                self.errors += 1;
            }
            POp::Drain => {
                let mut guard = 0;
                while self.live_count() > 0 {
                    self.round()?;
                    guard += 1;
                    if guard > 1000 {
                        return Err("drain did not terminate".to_string());
                    }
                }
            }
        }
        self.check(op)
    }

    /// The lifecycle invariants, checked after every operation.
    fn check(&self, op: POp) -> Result<(), String> {
        for s in &self.sessions {
            if s.done && s.live {
                return Err(format!("session {} both done and live", s.sid));
            }
            if s.cancelled && s.done {
                return Err(format!("cancelled session {} got a terminal frame", s.sid));
            }
            if s.steps_done > TOTAL_STEPS {
                return Err(format!("session {} overran its step budget", s.sid));
            }
            // Watch discipline + terminal stickiness over the audit stream.
            let mut seen_done = false;
            for ev in &self.audit {
                match *ev {
                    Ev::Step { sid, watch } if sid == s.sid => {
                        if seen_done {
                            return Err(format!("session {sid} streamed after its terminal frame"));
                        }
                        if watch != s.watch {
                            return Err(format!("session {sid} changed its watch flag mid-stream"));
                        }
                    }
                    Ev::Done { sid } if sid == s.sid => {
                        if seen_done {
                            return Err(format!("session {sid} got two terminal frames"));
                        }
                        seen_done = true;
                    }
                    _ => {}
                }
            }
            if seen_done != s.done {
                return Err(format!("session {} done flag out of sync", s.sid));
            }
        }
        if op == POp::Drain {
            if self.live_count() != 0 {
                return Err("sessions still live after drain".to_string());
            }
            for s in &self.sessions {
                if !s.cancelled && !s.done {
                    return Err(format!(
                        "session {} neither cancelled nor terminal after drain",
                        s.sid
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Counters from a conformance replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ReplayStats {
    /// Scripts driven through the real serve loop.
    scripts: u64,
    /// Request lines across all scripts.
    requests: u64,
    /// Output lines checked across all scripts.
    frames: u64,
}

/// Renders one model op into a request line, with the 1-based request
/// index as its correlation id.
fn render(op: POp, id: usize, target: Option<u64>) -> String {
    const SPEC: &str = r#"{"system":"ESS","case":"meadow_small","seed":7,"replicates":1,"scale":0.05,"max_steps":2}"#;
    match op {
        POp::SubmitWatched => {
            format!(r#"{{"v":2,"id":{id},"kind":"run","watch":true,"spec":{SPEC}}}"#)
        }
        POp::Submit => format!(r#"{{"v":2,"id":{id},"kind":"run","watch":false,"spec":{SPEC}}}"#),
        POp::Advance => format!(r#"{{"v":2,"id":{id},"kind":"advance","rounds":1}}"#),
        POp::Snapshot => format!(
            r#"{{"v":2,"id":{id},"kind":"snapshot","session":{}}}"#,
            target.expect("snapshot needs a live target")
        ),
        POp::CancelFirst => format!(
            r#"{{"v":2,"id":{id},"kind":"cancel","session":{}}}"#,
            target.expect("cancel needs a live target")
        ),
        POp::CancelUnknown => {
            format!(r#"{{"v":2,"id":{id},"kind":"cancel","session":{UNKNOWN_SID}}}"#)
        }
        POp::Drain => format!(r#"{{"v":2,"id":{id},"kind":"drain"}}"#),
    }
}

/// What the model predicts one script's output must satisfy.
#[derive(Debug, Default)]
struct Prediction {
    /// (sid, watched, cancelled) for every admitted session.
    sessions: Vec<(u64, bool, bool)>,
    /// Request lines sent; ids `1..=requests` each get exactly one reply.
    requests: u64,
    /// Error replies the script must provoke.
    errors: u64,
    cancelled: u64,
}

/// Runs `ops` through the model to predict observables, rendering the
/// request lines along the way.
fn predict(ops: &[POp]) -> (String, Prediction) {
    let mut state = MState::new();
    let mut lines = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        lines.push(render(op, i + 1, state.first_live()));
        state.apply(op).expect("generator scripts are legal");
    }
    let p = Prediction {
        sessions: state
            .sessions
            .iter()
            .map(|s| (s.sid, s.watch, s.cancelled))
            .collect(),
        requests: ops.len() as u64,
        errors: state.errors,
        cancelled: state.cancels,
    };
    (lines.join("\n") + "\n", p)
}

/// Parses one output line of the serve loop as a v2 [`Frame`].
pub(super) fn parse_frame(line: &str) -> Result<Frame, String> {
    let json = Json::parse(line).map_err(|e| e.to_string())?;
    Frame::from_json(&json)
}

/// Checks one serve run's output stream against the prediction.
fn check_output(script: &str, output: &str, p: &Prediction) -> Result<u64, String> {
    let fail = |msg: String| Err(format!("script:\n{script}\noutput:\n{output}\n{msg}"));
    let mut frames = 0u64;
    let mut reply_ids: Vec<u64> = Vec::new();
    let mut progress_sids: Vec<u64> = Vec::new();
    let mut done_sids: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    for line in output.lines().filter(|l| !l.trim().is_empty()) {
        frames += 1;
        match parse_frame(line) {
            Ok(Frame::Progress { session, .. }) => progress_sids.push(session),
            Ok(Frame::Done(done)) => done_sids.push(done.session),
            Ok(Frame::Reply { id, reply }) => {
                errors += u64::from(matches!(reply, Reply::Error { .. }));
                reply_ids.push(id);
            }
            Err(e) => return fail(format!("output line is not a v2 frame ({e}): {line}")),
        }
    }

    // Every request got exactly one correlated reply.
    for id in 1..=p.requests {
        let count = reply_ids.iter().filter(|&&rid| rid == id).count();
        if count != 1 {
            return fail(format!("request id {id} got {count} replies, wanted 1"));
        }
    }
    // Watch discipline and terminal frames, per session.
    for &(sid, watch, cancelled) in &p.sessions {
        if !watch && progress_sids.contains(&sid) {
            return fail(format!("unwatched session {sid} got progress frames"));
        }
        let done_count = done_sids.iter().filter(|&&s| s == sid).count();
        if done_count != usize::from(!cancelled) {
            return fail(format!(
                "session {sid} (cancelled: {cancelled}) got {done_count} terminal frames"
            ));
        }
    }
    if errors != p.errors {
        return fail(format!("{errors} error replies, predicted {}", p.errors));
    }
    Ok(frames)
}

/// Drives generated request scripts through the real serve loop and
/// checks the output stream against the model's predictions. Scripts
/// cover every legal ≤2-op sequence exhaustively plus `sampled` seeded
/// deeper sequences (depth 4), all ending at EOF so the implied
/// drain/quit path runs every time.
///
/// # Errors
/// The first conformance mismatch, with the offending script and output.
fn replay_conformance(sampled: usize) -> Result<ReplayStats, String> {
    let mut stats = ReplayStats::default();
    let mut scripts: Vec<Vec<POp>> = vec![vec![]];
    // Exhaustive depth ≤ 2.
    let mut frontier: Vec<(MState, Vec<POp>)> = vec![(MState::new(), vec![])];
    for _ in 0..2 {
        let mut next_frontier = Vec::new();
        for (state, ops) in &frontier {
            for op in state.available() {
                let mut ns = state.clone();
                ns.apply(op).map_err(|e| format!("generator: {e}"))?;
                let mut nops = ops.clone();
                nops.push(op);
                scripts.push(nops.clone());
                next_frontier.push((ns, nops));
            }
        }
        frontier = next_frontier;
    }
    // Seeded deeper samples: depth 4, deterministic op choice by index.
    for k in 0..sampled {
        let mut state = MState::new();
        let mut ops = Vec::new();
        let mut pick = k as u64;
        for _ in 0..4 {
            let avail = state.available();
            let op = avail[(pick % avail.len() as u64) as usize];
            pick = pick
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state.apply(op).map_err(|e| format!("generator: {e}"))?;
            ops.push(op);
        }
        scripts.push(ops);
    }

    for ops in &scripts {
        let (script, prediction) = predict(ops);
        let mut output = Vec::new();
        let summary = serve_configured(
            script.as_bytes(),
            &mut output,
            EvalBackend::Serial,
            PolicyKind::RoundRobin,
            false,
        )
        .map_err(|e| format!("serve I/O on script:\n{script}\n{e}"))?;
        let output = String::from_utf8_lossy(&output);
        stats.scripts += 1;
        stats.requests += ops.len() as u64;
        stats.frames += check_output(&script, &output, &prediction)?;
        if summary.accepted != prediction.sessions.len() {
            return Err(format!(
                "script:\n{script}\nsummary accepted {} != predicted {}",
                summary.accepted,
                prediction.sessions.len()
            ));
        }
        if summary.cancelled as u64 != prediction.cancelled {
            return Err(format!(
                "script:\n{script}\nsummary cancelled {} != predicted {}",
                summary.cancelled, prediction.cancelled
            ));
        }
        if summary.errors as u64 != prediction.errors {
            return Err(format!(
                "script:\n{script}\nsummary errors {} != predicted {}",
                summary.errors, prediction.errors
            ));
        }
    }
    Ok(stats)
}

#[test]
fn the_serve_loop_follows_the_lifecycle_model() {
    // Every ≤ 2-op script plus eight seeded depth-4 ones, each predicted
    // by the model and replayed through the real serve loop.
    let stats = replay_conformance(8).expect("conformance");
    let want = ReplayStats {
        scripts: 43,
        requests: 95,
        frames: 240,
    };
    assert_eq!(stats, want, "the generated scripts changed");
}

#[test]
fn model_catches_double_done() {
    // Force the bug by hand: a session marked not-done after its
    // terminal frame must trip the audit.
    let mut s = MState::new();
    s.admit(false, TOTAL_STEPS);
    s.apply(POp::Advance).unwrap(); // emits the terminal frame
    s.sessions[0].done = false;
    s.sessions[0].live = true;
    let err = s.apply(POp::Advance).unwrap_err();
    assert!(err.contains("two terminal frames"), "{err}");
}

#[test]
fn drain_invariant_catches_stranded_sessions() {
    let mut s = MState::new();
    s.admit(false, 0);
    s.apply(POp::Drain).unwrap();
    // Resurrect a drained session illegally: the next drain check
    // must notice a live session remains after drain.
    s.sessions[0].live = true;
    s.sessions[0].done = false;
    let err = s.check(POp::Drain).unwrap_err();
    assert!(
        err.contains("done flag out of sync") || err.contains("still live"),
        "{err}"
    );
}
