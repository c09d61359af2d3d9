//! The line-delimited JSON serve loop: protocol v2 over one transport.
//!
//! One request per input line, one or more JSON objects per line of
//! output — dependency-free, so `harness serve` can speak it over
//! stdin/stdout and tests can drive it through in-memory buffers.
//!
//! Every request is a [`crate::proto`] envelope — `{"v":2,"id":N,"kind":…}`
//! — and every output line is a [`Frame`]: a reply echoing the request's
//! `id`, or an async `progress`/`done` event keyed by session. The request
//! kinds are documented in [`crate::proto`]: `run`, `advance` (run a
//! bounded number of scheduler rounds, so clients can interleave control
//! with execution), `snapshot`/`restore` (checkpoint/resume via
//! [`crate::SessionSnapshot`]), `cancel`, `drain`, `quit`; sessions
//! submitted with `"watch":true` stream per-step `progress` frames.
//!
//! There is one dialect. Protocol v1 (`{"op":…}` lines) was retired: a
//! line without a `"v"` member is malformed input like any other and gets
//! an `error` reply saying so.
//!
//! Execution always happens on the **server's** shared pool (every session
//! of every client multiplexes one worker pool — that is the point of the
//! serving layer): a spec says what to predict, and one that names a
//! `backend`, `novelty` or `kernel` is rejected like any other unknown
//! member. The pool and the scheduling discipline are chosen per serve
//! invocation ([`EvalBackend`] and [`PolicyKind`], the harness `--backend`
//! and `--policy` flags). End of input implies `drain` (pending sessions still
//! run) and then `quit`, answered with correlation id 0, so piping a
//! canned request file works without a trailing quit line. Malformed lines
//! produce an `error` reply (the line's `id` when it has one, else 0) and
//! the loop continues — one bad request must not take down a server
//! multiplexing other clients' sessions.

use crate::jsonio::Json;
use crate::policy::PolicyKind;
use crate::proto::{DoneFrame, Frame, Reply, Request, RequestKind};
use crate::scheduler::{Scheduler, SessionId, SessionOutcome};
use crate::session::SessionEvent;
use ess::error::BudgetReason;
use ess::fitness::EvalBackend;
use ess::pipeline::RunReport;
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, Write};

/// Counters the serve loop reports when it exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Sessions accepted (including restored ones).
    pub accepted: usize,
    /// Sessions that ran every step.
    pub finished: usize,
    /// Sessions stopped by a budget.
    pub exhausted: usize,
    /// Sessions cancelled by request.
    pub cancelled: usize,
    /// Request lines answered with an error reply.
    pub errors: usize,
    /// Snapshots handed out.
    pub snapshots: usize,
    /// Sessions restored from a snapshot.
    pub restored: usize,
}

/// Per-connection streaming state: which sessions stream progress, and
/// every live session's cumulative (evaluations, best fitness) counters
/// for the progress frames.
#[derive(Default)]
struct Streams {
    watched: HashSet<SessionId>,
    totals: HashMap<SessionId, (u64, f64)>,
}

impl Streams {
    fn admit(&mut self, id: SessionId, watch: bool, evaluations: u64, best: f64) {
        if watch {
            self.watched.insert(id);
        }
        self.totals.insert(id, (evaluations, best));
    }

    fn retire(&mut self, id: SessionId) {
        self.watched.remove(&id);
        self.totals.remove(&id);
    }
}

/// Runs the serve loop: reads requests from `input` until `quit` or end
/// of input, writes frames to `out`, and executes every session on one
/// shared pool built from `backend`, scheduled under `policy` — the
/// `harness serve` entry point. With `fused` on, every scheduler round
/// runs its planned sessions' steps concurrently and fuses their
/// evaluation batches into one shared-pool mega-batch per wave
/// ([`Scheduler::set_fused`]) — the protocol stream is identical, frame
/// for frame, because fused rounds are bit-identical to unfused ones.
///
/// # Errors
/// Propagates I/O errors from the transport; protocol-level problems are
/// reported in-band as error replies.
pub fn serve_configured<R: BufRead, W: Write>(
    input: R,
    mut out: W,
    backend: EvalBackend,
    policy: PolicyKind,
    fused: bool,
) -> io::Result<ServeSummary> {
    let mut scheduler = Scheduler::with_policy(backend, policy);
    scheduler.set_fused(fused);
    let mut summary = ServeSummary::default();
    let mut streams = Streams::default();

    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let request = match Json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                emit_error(&mut out, &mut summary, 0, &e.to_string())?;
                continue;
            }
        };
        match Request::from_json(&request) {
            Ok(req) => {
                if handle(&mut scheduler, &mut out, &mut summary, &mut streams, req)? {
                    return Ok(summary);
                }
            }
            Err(reason) => {
                let id = request.get("id").and_then(Json::as_u64).unwrap_or(0);
                emit_error(&mut out, &mut summary, id, &reason)?;
            }
        }
    }
    // End of input: run whatever is still pending, then leave (correlation
    // id 0 — there was no request line).
    let (_, drained) = run_rounds(&mut scheduler, &mut out, &mut summary, &mut streams, None)?;
    reply(&mut out, 0, Reply::Drained { sessions: drained })?;
    reply(&mut out, 0, Reply::Bye)?;
    Ok(summary)
}

/// Handles one request; returns `true` when the loop should end.
fn handle<W: Write>(
    scheduler: &mut Scheduler,
    out: &mut W,
    summary: &mut ServeSummary,
    streams: &mut Streams,
    req: Request,
) -> io::Result<bool> {
    let id = req.id;
    match req.kind {
        RequestKind::Run { spec, watch } => match scheduler.submit(&spec) {
            Ok(ids) => {
                summary.accepted += ids.len();
                for &sid in &ids {
                    streams.admit(sid, watch, 0, f64::NEG_INFINITY);
                }
                reply(out, id, Reply::Accepted { sessions: ids })?;
            }
            Err(e) => emit_error(out, summary, id, &e.to_string())?,
        },
        RequestKind::Restore { snapshot, watch } => match snapshot.restore_on(scheduler.pool()) {
            Ok(session) => {
                let evaluations = session.evaluations_spent();
                let best = session
                    .steps()
                    .iter()
                    .map(|s| s.os_best_fitness)
                    .fold(f64::NEG_INFINITY, f64::max);
                let sid = scheduler.submit_session(session);
                summary.accepted += 1;
                summary.restored += 1;
                streams.admit(sid, watch, evaluations, best);
                reply(
                    out,
                    id,
                    Reply::Accepted {
                        sessions: vec![sid],
                    },
                )?;
            }
            Err(e) => emit_error(out, summary, id, &e.to_string())?,
        },
        RequestKind::Advance { rounds } => {
            let (ran, _) = run_rounds(scheduler, out, summary, streams, Some(rounds))?;
            reply(
                out,
                id,
                Reply::Advanced {
                    rounds: ran,
                    live: scheduler.live_count(),
                },
            )?;
        }
        RequestKind::Snapshot { session } => {
            match scheduler.live().find(|(sid, _)| *sid == session) {
                Some((_, live)) => match live.snapshot() {
                    Ok(snapshot) => {
                        summary.snapshots += 1;
                        reply(
                            out,
                            id,
                            Reply::Snapshot {
                                session,
                                snapshot: Box::new(snapshot),
                            },
                        )?;
                    }
                    Err(e) => emit_error(out, summary, id, &e.to_string())?,
                },
                None => emit_error(
                    out,
                    summary,
                    id,
                    &format!("no live session {session} to snapshot"),
                )?,
            }
        }
        RequestKind::Cancel { session } => {
            if scheduler.cancel(session) {
                summary.cancelled += 1;
                streams.retire(session);
                reply(out, id, Reply::Cancelled { session })?;
            } else {
                emit_error(
                    out,
                    summary,
                    id,
                    &format!("no live session {session} to cancel"),
                )?;
            }
        }
        RequestKind::Drain => {
            let (_, drained) = run_rounds(scheduler, out, summary, streams, None)?;
            reply(out, id, Reply::Drained { sessions: drained })?;
        }
        RequestKind::Quit => {
            reply(out, id, Reply::Bye)?;
            return Ok(true);
        }
    }
    Ok(false)
}

/// Runs scheduler rounds (all of them, or at most `max_rounds`),
/// streaming every event, and folds the newly completed outcomes into the
/// summary. Returns (rounds run, sessions that reached a terminal event).
fn run_rounds<W: Write>(
    scheduler: &mut Scheduler,
    out: &mut W,
    summary: &mut ServeSummary,
    streams: &mut Streams,
    max_rounds: Option<usize>,
) -> io::Result<(usize, usize)> {
    let before = scheduler.outcomes().len();
    let mut rounds = 0usize;
    while scheduler.live_count() > 0 && max_rounds.is_none_or(|m| rounds < m) {
        let events = scheduler.round();
        rounds += 1;
        for (id, event) in events {
            emit_session_event(out, streams, id, &event)?;
        }
    }
    for (_, outcome) in scheduler.outcomes().get(before..).unwrap_or_default() {
        match outcome {
            SessionOutcome::Finished(_) => summary.finished += 1,
            SessionOutcome::Exhausted { .. } => summary.exhausted += 1,
        }
    }
    let drained = scheduler.outcomes().len() - before;
    // Release the retained reports: a server process drains many times,
    // and nothing reads an outcome after its `done` event went out.
    let _ = scheduler.take_outcomes();
    Ok((rounds, drained))
}

/// Streams one session event: a `progress` frame per step of a watched
/// session, a `done` frame per terminal event.
fn emit_session_event<W: Write>(
    out: &mut W,
    streams: &mut Streams,
    id: SessionId,
    event: &SessionEvent,
) -> io::Result<()> {
    match event {
        SessionEvent::StepCompleted(step) => {
            let (evaluations, best) = {
                let t = streams.totals.entry(id).or_insert((0, f64::NEG_INFINITY));
                t.0 += step.evaluations;
                t.1 = t.1.max(step.os_best_fitness);
                *t
            };
            if streams.watched.contains(&id) {
                emit(
                    out,
                    Frame::Progress {
                        session: id,
                        step: step.step,
                        evaluations,
                        best,
                    }
                    .to_json(),
                )?;
            }
            Ok(())
        }
        SessionEvent::Finished(report) => {
            streams.retire(id);
            emit(out, done_frame(id, "finished", None, report).to_json())
        }
        SessionEvent::BudgetExhausted { reason, partial } => {
            streams.retire(id);
            let status = match reason {
                BudgetReason::Cancelled => "cancelled",
                _ => "exhausted",
            };
            emit(
                out,
                done_frame(id, status, Some(&reason.to_string()), partial).to_json(),
            )
        }
    }
}

/// The terminal frame for one completed session.
fn done_frame(id: SessionId, status: &str, reason: Option<&str>, report: &RunReport) -> Frame {
    Frame::Done(DoneFrame {
        session: id,
        status: status.to_string(),
        reason: reason.map(str::to_string),
        system: report.system.to_string(),
        case: report.case.to_string(),
        steps: report.steps.len(),
        mean_quality: report.mean_quality(),
        total_evaluations: report.total_evaluations(),
        wall_ms: report.total_ms,
    })
}

fn emit<W: Write>(out: &mut W, event: Json) -> io::Result<()> {
    writeln!(out, "{event}")
}

fn reply<W: Write>(out: &mut W, id: u64, reply: Reply) -> io::Result<()> {
    emit(out, Frame::Reply { id, reply }.to_json())
}

fn emit_error<W: Write>(
    out: &mut W,
    summary: &mut ServeSummary,
    id: u64,
    message: &str,
) -> io::Result<()> {
    summary.errors += 1;
    reply(
        out,
        id,
        Reply::Error {
            message: message.to_string(),
        },
    )
}
