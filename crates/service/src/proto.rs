//! Protocol v2: the versioned, typed request/response envelope — the one
//! dialect `serve` speaks.
//!
//! Every line is a JSON object carrying `"v":2`. Client → server lines
//! are **requests** — `{"v":2,"id":N,"kind":...}` with a client-chosen
//! correlation id — and server → client lines are **frames**: either a
//! *reply* (echoes the request's `id`) or an *async event* (no `id`;
//! `progress` and `done`, keyed by session). The serve loop and the
//! `ess-client` crate both build and parse these through this module, so
//! the two sides cannot drift.
//!
//! ```text
//! request kinds                      reply kinds
//!   run      {spec, watch}     →       accepted  {sessions}
//!   restore  {snapshot, watch} →       accepted  {sessions}
//!   advance  {rounds}          →       advanced  {rounds, live}
//!   snapshot {session}         →       snapshot  {session, snapshot}
//!   cancel   {session}         →       cancelled {session}
//!   drain    {}                →       drained   {sessions}
//!   quit     {}                →       bye       {}
//!   (anything malformed)       →       error     {message}
//!
//! async frames (between request handling, as scheduler rounds advance)
//!   progress {session, step, evaluations, best}     — watched sessions
//!   done     {session, status, reason, system, case,
//!             steps, mean_quality, total_evaluations, wall_ms}
//! ```
//!
//! There is no version sniff: protocol v1 (`{"op":…}` lines) was retired,
//! so a line without a `"v"` member is malformed and [`Request::from_json`]
//! rejects it with a message that says so and shows the envelope to send.

use crate::jsonio::Json;
use crate::scheduler::SessionId;
use crate::snapshot::SessionSnapshot;
use crate::spec::RunSpec;

/// The protocol version this module speaks.
pub const VERSION: u64 = 2;

/// A client → server envelope: correlation id + payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the reply.
    pub id: u64,
    /// The operation.
    pub kind: RequestKind,
}

/// Every v2 request payload.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Submit every replicate of a spec; `watch` subscribes the client to
    /// `progress` frames for the accepted sessions.
    Run {
        /// The run request.
        spec: RunSpec,
        /// Subscribe to per-step progress frames.
        watch: bool,
    },
    /// Resume a checkpointed session from its snapshot.
    Restore {
        /// The serialized checkpoint.
        snapshot: SessionSnapshot,
        /// Subscribe to per-step progress frames.
        watch: bool,
    },
    /// Run up to this many scheduler rounds (0 is allowed and a no-op),
    /// streaming events, then report how many rounds ran and how many
    /// sessions are still live.
    Advance {
        /// Upper bound on rounds to run.
        rounds: usize,
    },
    /// Checkpoint a live session.
    Snapshot {
        /// The session to checkpoint.
        session: SessionId,
    },
    /// Cancel a live session between steps.
    Cancel {
        /// The session to cancel.
        session: SessionId,
    },
    /// Run rounds until no session is live.
    Drain,
    /// End the serve loop.
    Quit,
}

impl Request {
    /// Serializes the envelope (`{"v":2,"id":…,"kind":…,…}`).
    pub fn to_json(&self) -> Json {
        let base = Json::obj().field("v", VERSION).field("id", self.id);
        match &self.kind {
            RequestKind::Run { spec, watch } => base
                .field("kind", "run")
                .field("spec", spec.to_json())
                .field("watch", *watch),
            RequestKind::Restore { snapshot, watch } => base
                .field("kind", "restore")
                .field("snapshot", snapshot.to_json())
                .field("watch", *watch),
            RequestKind::Advance { rounds } => {
                base.field("kind", "advance").field("rounds", *rounds)
            }
            RequestKind::Snapshot { session } => {
                base.field("kind", "snapshot").field("session", *session)
            }
            RequestKind::Cancel { session } => {
                base.field("kind", "cancel").field("session", *session)
            }
            RequestKind::Drain => base.field("kind", "drain"),
            RequestKind::Quit => base.field("kind", "quit"),
        }
    }

    /// Parses a request envelope.
    ///
    /// # Errors
    /// A one-line description naming the offending member; a line with no
    /// `"v"` at all (every old v1 `{"op":…}` line) is told v1 was retired.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        match v.get("v").map(Json::as_u64) {
            Some(Some(VERSION)) => {}
            Some(Some(other)) => {
                return Err(format!(
                    "unsupported protocol version {other} (this server speaks v{VERSION})"
                ))
            }
            Some(None) => return Err("request needs a numeric 'v'".into()),
            None => {
                return Err("request has no \"v\": protocol v1 was retired, send \
                     {\"v\":2,\"id\":N,\"kind\":…}"
                    .into())
            }
        }
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("request needs a non-negative 'id' integer")?;
        // Absent means unwatched; a mistyped value must not silently
        // unsubscribe the client.
        let watch = || match v.get("watch") {
            None => Ok(false),
            Some(w) => w.as_bool().ok_or("'watch' must be a boolean"),
        };
        let session = || {
            v.get("session")
                .and_then(Json::as_u64)
                .ok_or("request needs a 'session' id")
        };
        let kind = match v.get("kind").and_then(Json::as_str) {
            Some("run") => RequestKind::Run {
                spec: RunSpec::from_json(v.get("spec").ok_or("run needs a 'spec' object")?)?,
                watch: watch()?,
            },
            Some("restore") => RequestKind::Restore {
                snapshot: SessionSnapshot::from_json(
                    v.get("snapshot")
                        .ok_or("restore needs a 'snapshot' object")?,
                )?,
                watch: watch()?,
            },
            Some("advance") => RequestKind::Advance {
                rounds: v
                    .get("rounds")
                    .and_then(Json::as_u64)
                    .ok_or("advance needs a non-negative 'rounds' integer")?
                    as usize,
            },
            Some("snapshot") => RequestKind::Snapshot {
                session: session()?,
            },
            Some("cancel") => RequestKind::Cancel {
                session: session()?,
            },
            Some("drain") => RequestKind::Drain,
            Some("quit") => RequestKind::Quit,
            Some(other) => return Err(format!("unknown v2 request kind '{other}'")),
            None => return Err("request needs a 'kind' string".into()),
        };
        Ok(Request { id, kind })
    }
}

/// The terminal status carried by a [`Frame::Done`] event.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneFrame {
    /// Which session finished.
    pub session: SessionId,
    /// `"finished"`, `"exhausted"` or `"cancelled"`.
    pub status: String,
    /// The budget reason for non-finished sessions.
    pub reason: Option<String>,
    /// System name.
    pub system: String,
    /// Case name.
    pub case: String,
    /// Steps completed.
    pub steps: usize,
    /// Mean prediction quality over the scored steps.
    pub mean_quality: f64,
    /// Total scenario evaluations spent.
    pub total_evaluations: u64,
    /// Wall-clock milliseconds billed to the session.
    pub wall_ms: f64,
}

/// A server → client envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// One watched session completed one step.
    Progress {
        /// Which session stepped.
        session: SessionId,
        /// Step index just completed.
        step: usize,
        /// Scenario evaluations spent so far (cumulative).
        evaluations: u64,
        /// Best optimizer fitness seen so far across steps.
        best: f64,
    },
    /// A session reached its terminal event.
    Done(DoneFrame),
    /// A reply to the request with this correlation id.
    Reply {
        /// Echo of the request id.
        id: u64,
        /// The reply payload.
        reply: Reply,
    },
}

/// Every v2 reply payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Sessions were admitted (one per replicate, submission order).
    Accepted {
        /// Assigned session ids.
        sessions: Vec<SessionId>,
    },
    /// An `advance` request completed.
    Advanced {
        /// Rounds actually run (≤ requested).
        rounds: usize,
        /// Sessions still live afterwards.
        live: usize,
    },
    /// A checkpoint of the requested session.
    Snapshot {
        /// The checkpointed session.
        session: SessionId,
        /// The serialized checkpoint (boxed: a snapshot embeds the whole
        /// spec and step history, far larger than any other reply).
        snapshot: Box<SessionSnapshot>,
    },
    /// The session was cancelled.
    Cancelled {
        /// The cancelled session.
        session: SessionId,
    },
    /// A `drain` request completed.
    Drained {
        /// Sessions that reached a terminal event during the drain.
        sessions: usize,
    },
    /// The serve loop is ending.
    Bye,
    /// The request failed; nothing was enqueued.
    Error {
        /// One-line description.
        message: String,
    },
}

impl Frame {
    /// Serializes the frame (`{"v":2,...}`).
    pub fn to_json(&self) -> Json {
        let base = Json::obj().field("v", VERSION);
        match self {
            Frame::Progress {
                session,
                step,
                evaluations,
                best,
            } => base
                .field("kind", "progress")
                .field("session", *session)
                .field("step", *step)
                .field("evaluations", *evaluations)
                .field("best", *best),
            Frame::Done(d) => base
                .field("kind", "done")
                .field("session", d.session)
                .field("status", d.status.as_str())
                .field("reason", d.reason.clone())
                .field("system", d.system.as_str())
                .field("case", d.case.as_str())
                .field("steps", d.steps)
                .field("mean_quality", d.mean_quality)
                .field("total_evaluations", d.total_evaluations)
                .field("wall_ms", d.wall_ms),
            Frame::Reply { id, reply } => {
                let base = base.field("id", *id);
                match reply {
                    Reply::Accepted { sessions } => base.field("kind", "accepted").field(
                        "sessions",
                        Json::Arr(sessions.iter().map(|s| Json::from(*s)).collect()),
                    ),
                    Reply::Advanced { rounds, live } => base
                        .field("kind", "advanced")
                        .field("rounds", *rounds)
                        .field("live", *live),
                    Reply::Snapshot { session, snapshot } => base
                        .field("kind", "snapshot")
                        .field("session", *session)
                        .field("snapshot", snapshot.to_json()),
                    Reply::Cancelled { session } => {
                        base.field("kind", "cancelled").field("session", *session)
                    }
                    Reply::Drained { sessions } => {
                        base.field("kind", "drained").field("sessions", *sessions)
                    }
                    Reply::Bye => base.field("kind", "bye"),
                    Reply::Error { message } => base
                        .field("kind", "error")
                        .field("message", message.as_str()),
                }
            }
        }
    }

    /// Parses a v2 frame.
    ///
    /// # Errors
    /// A one-line description naming the offending member.
    pub fn from_json(v: &Json) -> Result<Frame, String> {
        match v.get("v").and_then(Json::as_u64) {
            Some(VERSION) => {}
            _ => return Err("frame needs '\"v\":2'".into()),
        }
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("frame needs a 'kind' string")?;
        let session = || {
            v.get("session")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("'{kind}' frame needs a 'session' id"))
        };
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("'{kind}' frame needs a numeric '{key}'"))
        };
        let int = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("'{kind}' frame needs a non-negative '{key}' integer"))
        };
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("'{kind}' frame needs a '{key}' string"))
        };
        if kind == "progress" {
            return Ok(Frame::Progress {
                session: session()?,
                step: int("step")? as usize,
                evaluations: int("evaluations")?,
                best: num("best")?,
            });
        }
        if kind == "done" {
            return Ok(Frame::Done(DoneFrame {
                session: session()?,
                status: text("status")?,
                reason: match v.get("reason") {
                    None | Some(Json::Null) => None,
                    Some(r) => Some(
                        r.as_str()
                            .ok_or("'reason' must be a string or null")?
                            .to_string(),
                    ),
                },
                system: text("system")?,
                case: text("case")?,
                steps: int("steps")? as usize,
                mean_quality: num("mean_quality")?,
                total_evaluations: int("total_evaluations")?,
                wall_ms: num("wall_ms")?,
            }));
        }
        // Everything else is a reply and must carry the correlation id.
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("'{kind}' reply needs an 'id'"))?;
        let reply = match kind {
            "accepted" => Reply::Accepted {
                sessions: v
                    .get("sessions")
                    .and_then(Json::as_arr)
                    .ok_or("'accepted' reply needs a 'sessions' array")?
                    .iter()
                    .map(|s| {
                        s.as_u64()
                            .ok_or("session ids must be non-negative integers")
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            },
            "advanced" => Reply::Advanced {
                rounds: int("rounds")? as usize,
                live: int("live")? as usize,
            },
            "snapshot" => Reply::Snapshot {
                session: session()?,
                snapshot: Box::new(SessionSnapshot::from_json(
                    v.get("snapshot")
                        .ok_or("'snapshot' reply needs a 'snapshot' object")?,
                )?),
            },
            "cancelled" => Reply::Cancelled {
                session: session()?,
            },
            "drained" => Reply::Drained {
                sessions: int("sessions")? as usize,
            },
            "bye" => Reply::Bye,
            "error" => Reply::Error {
                message: text("message")?,
            },
            other => return Err(format!("unknown v2 frame kind '{other}'")),
        };
        Ok(Frame::Reply { id, reply })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let spec = RunSpec::new("ESS-NS", "meadow_small")
            .seed(3)
            .scale(0.25)
            .weight(2.0)
            .max_steps(2);
        let requests = vec![
            Request {
                id: 1,
                kind: RequestKind::Run {
                    spec: spec.clone(),
                    watch: true,
                },
            },
            Request {
                id: 2,
                kind: RequestKind::Advance { rounds: 3 },
            },
            Request {
                id: 3,
                kind: RequestKind::Snapshot { session: 4 },
            },
            Request {
                id: 4,
                kind: RequestKind::Cancel { session: 4 },
            },
            Request {
                id: 5,
                kind: RequestKind::Drain,
            },
            Request {
                id: 6,
                kind: RequestKind::Quit,
            },
        ];
        for request in requests {
            let line = request.to_json().to_string();
            let parsed = Request::from_json(&Json::parse(&line).expect("valid line"))
                .expect("request parses");
            assert_eq!(parsed, request, "{line}");
        }
    }

    #[test]
    fn mistyped_watch_is_an_error_not_a_silent_unsubscribe() {
        for (watch, expect) in [
            ("", Ok(false)),
            (r#""watch":true,"#, Ok(true)),
            (r#""watch":"yes","#, Err("'watch' must be a boolean")),
            (r#""watch":1,"#, Err("'watch' must be a boolean")),
            (r#""watch":null,"#, Err("'watch' must be a boolean")),
        ] {
            let line = format!(
                r#"{{"v":2,"id":1,"kind":"run",{watch}"spec":{{"system":"ESS","case":"meadow_small"}}}}"#
            );
            let got = Request::from_json(&Json::parse(&line).expect("valid line"));
            let got = got.map(|r| matches!(r.kind, RequestKind::Run { watch: true, .. }));
            assert_eq!(got, expect.map_err(str::to_string), "{line}");
        }
    }

    #[test]
    fn version_sniff_rejects_other_versions() {
        let err = Request::from_json(&Json::parse(r#"{"v":3,"id":1,"kind":"drain"}"#).unwrap())
            .expect_err("v3 rejected");
        assert!(err.contains("unsupported protocol version 3"), "{err}");
    }

    #[test]
    fn frames_round_trip_through_json() {
        let frames = vec![
            Frame::Progress {
                session: 2,
                step: 3,
                evaluations: 120,
                best: 0.875,
            },
            Frame::Done(DoneFrame {
                session: 2,
                status: "exhausted".into(),
                reason: Some("max-steps".into()),
                system: "ESS-NS".into(),
                case: "meadow_small".into(),
                steps: 3,
                mean_quality: 0.5,
                total_evaluations: 360,
                wall_ms: 12.25,
            }),
            Frame::Reply {
                id: 9,
                reply: Reply::Accepted {
                    sessions: vec![1, 2],
                },
            },
            Frame::Reply {
                id: 10,
                reply: Reply::Advanced { rounds: 2, live: 1 },
            },
            Frame::Reply {
                id: 11,
                reply: Reply::Cancelled { session: 1 },
            },
            Frame::Reply {
                id: 12,
                reply: Reply::Drained { sessions: 4 },
            },
            Frame::Reply {
                id: 13,
                reply: Reply::Bye,
            },
            Frame::Reply {
                id: 14,
                reply: Reply::Error {
                    message: "unknown case 'x'".into(),
                },
            },
        ];
        for frame in frames {
            let line = frame.to_json().to_string();
            let parsed =
                Frame::from_json(&Json::parse(&line).expect("valid line")).expect("frame parses");
            assert_eq!(parsed, frame, "{line}");
        }
    }
}
