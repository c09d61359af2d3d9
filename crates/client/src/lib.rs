//! `ess-client` — the typed protocol-v2 client for the prediction
//! service.
//!
//! A [`Client`] speaks the versioned envelope of `ess_service::proto`
//! over **any** `BufRead`/`Write` pair: a child process's stdin/stdout,
//! an in-memory [`pipe`] to a serve loop in another thread (the wire
//! column of the run-level conformance matrix and the benchmark's
//! configuration), or any socket-like transport the caller wraps. Every request gets a correlation id; the client reads frames
//! until the matching reply arrives, stashing the async `progress`/`done`
//! frames that stream in between (retrieve them with
//! [`Client::take_events`]).
//!
//! ```no_run
//! use ess_client::Client;
//! use ess_service::RunSpec;
//! use std::io::{stdin, stdout};
//!
//! let mut client = Client::new(stdin().lock(), stdout());
//! let sessions = client
//!     .run(&RunSpec::new("ESS-NS", "meadow_small").scale(0.25), true)
//!     .unwrap();
//! let snapshot = client.snapshot(sessions[0]).unwrap(); // checkpoint
//! client.cancel(sessions[0]).unwrap(); // "kill" it …
//! let resumed = client.restore(&snapshot, true).unwrap(); // … and resume
//! client.drain().unwrap();
//! for done in client.take_events() {
//!     println!("{done:?}");
//! }
//! # let _ = resumed;
//! ```

pub mod pipe;

use ess_service::jsonio::Json;
use ess_service::proto::{Frame, Reply, Request, RequestKind};
use ess_service::snapshot::SessionSnapshot;
use ess_service::{RunSpec, SessionId};
use std::fmt;
use std::io::{BufRead, Write};

/// Everything that can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (or EOF'd before the reply).
    Transport(std::io::Error),
    /// The server sent something the protocol does not allow here.
    Protocol(String),
    /// The server answered the request with an error reply.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Transport(e)
    }
}

/// A typed v2 client over one request/response transport.
pub struct Client<R: BufRead, W: Write> {
    input: R,
    output: W,
    next_id: u64,
    events: Vec<Frame>,
}

impl<R: BufRead, W: Write> Client<R, W> {
    /// A client reading frames from `input` and writing requests to
    /// `output`, with correlation ids starting at 1.
    pub fn new(input: R, output: W) -> Self {
        Self::with_id_base(input, output, 0)
    }

    /// [`Client::new`] with correlation ids starting at `base + 1` —
    /// give each client of a shared transport its own id namespace so a
    /// demultiplexer can route replies by id range.
    pub fn with_id_base(input: R, output: W, base: u64) -> Self {
        Self {
            input,
            output,
            next_id: base,
            events: Vec::new(),
        }
    }

    /// Submits every replicate of `spec`; returns the assigned session
    /// ids. `watch` subscribes to per-step `progress` frames.
    ///
    /// # Errors
    /// Transport, protocol, or server-side spec errors.
    pub fn run(&mut self, spec: &RunSpec, watch: bool) -> Result<Vec<SessionId>, ClientError> {
        match self.request(RequestKind::Run {
            spec: spec.clone(),
            watch,
        })? {
            Reply::Accepted { sessions } => Ok(sessions),
            other => Err(unexpected("accepted", &other)),
        }
    }

    /// Resumes a checkpointed session; returns its new session id.
    ///
    /// # Errors
    /// Transport, protocol, or server-side snapshot errors.
    pub fn restore(
        &mut self,
        snapshot: &SessionSnapshot,
        watch: bool,
    ) -> Result<SessionId, ClientError> {
        match self.request(RequestKind::Restore {
            snapshot: snapshot.clone(),
            watch,
        })? {
            Reply::Accepted { sessions } => sessions
                .first()
                .copied()
                .ok_or_else(|| ClientError::Protocol("restore accepted no session".into())),
            other => Err(unexpected("accepted", &other)),
        }
    }

    /// Runs up to `rounds` scheduler rounds server-side; returns
    /// `(rounds actually run, sessions still live)`. Streamed frames land
    /// in [`Client::take_events`].
    ///
    /// # Errors
    /// Transport or protocol errors.
    pub fn advance(&mut self, rounds: usize) -> Result<(usize, usize), ClientError> {
        match self.request(RequestKind::Advance { rounds })? {
            Reply::Advanced { rounds, live } => Ok((rounds, live)),
            other => Err(unexpected("advanced", &other)),
        }
    }

    /// Checkpoints a live session.
    ///
    /// # Errors
    /// Transport, protocol, or server-side errors (unknown session).
    pub fn snapshot(&mut self, session: SessionId) -> Result<SessionSnapshot, ClientError> {
        match self.request(RequestKind::Snapshot { session })? {
            Reply::Snapshot { snapshot, .. } => Ok(*snapshot),
            other => Err(unexpected("snapshot", &other)),
        }
    }

    /// Cancels a live session between steps.
    ///
    /// # Errors
    /// Transport, protocol, or server-side errors (unknown session).
    pub fn cancel(&mut self, session: SessionId) -> Result<(), ClientError> {
        match self.request(RequestKind::Cancel { session })? {
            Reply::Cancelled { .. } => Ok(()),
            other => Err(unexpected("cancelled", &other)),
        }
    }

    /// Drains every live session; returns how many reached a terminal
    /// event during the drain. The per-session `done` frames land in
    /// [`Client::take_events`].
    ///
    /// # Errors
    /// Transport or protocol errors.
    pub fn drain(&mut self) -> Result<usize, ClientError> {
        match self.request(RequestKind::Drain)? {
            Reply::Drained { sessions } => Ok(sessions),
            other => Err(unexpected("drained", &other)),
        }
    }

    /// Ends the serve loop.
    ///
    /// # Errors
    /// Transport or protocol errors.
    pub fn quit(&mut self) -> Result<(), ClientError> {
        match self.request(RequestKind::Quit)? {
            Reply::Bye => Ok(()),
            other => Err(unexpected("bye", &other)),
        }
    }

    /// Removes and returns the async frames (`progress`, `done`) received
    /// so far, in arrival order.
    pub fn take_events(&mut self) -> Vec<Frame> {
        std::mem::take(&mut self.events)
    }

    /// Sends one request and reads frames until its reply arrives.
    fn request(&mut self, kind: RequestKind) -> Result<Reply, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        // One write call per line so clients sharing a chunk-atomic
        // transport (see `pipe`) never interleave mid-line.
        let mut line = Request { id, kind }.to_json().to_string();
        line.push('\n');
        self.output.write_all(line.as_bytes())?;
        self.output.flush()?;
        loop {
            match self.read_frame()? {
                Frame::Reply { id: got, reply } if got == id => {
                    return match reply {
                        Reply::Error { message } => Err(ClientError::Server(message)),
                        reply => Ok(reply),
                    };
                }
                Frame::Reply { id: got, .. } => {
                    return Err(ClientError::Protocol(format!(
                        "reply for request {got} while waiting for {id} \
                         (transport shared without a demultiplexer?)"
                    )));
                }
                event => self.events.push(event),
            }
        }
    }

    fn read_frame(&mut self) -> Result<Frame, ClientError> {
        loop {
            let mut line = String::new();
            if self.input.read_line(&mut line)? == 0 {
                return Err(ClientError::Transport(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the stream before replying",
                )));
            }
            if line.trim().is_empty() {
                continue;
            }
            let json = Json::parse(line.trim_end())
                .map_err(|e| ClientError::Protocol(format!("unparseable frame: {e}")))?;
            return Frame::from_json(&json).map_err(ClientError::Protocol);
        }
    }
}

fn unexpected(wanted: &str, got: &Reply) -> ClientError {
    ClientError::Protocol(format!("expected a '{wanted}' reply, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ess_service::proto::DoneFrame;

    /// Scripted server: a canned byte stream for the reader side plus a
    /// sink for requests.
    fn canned(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            out.extend_from_slice(f.to_json().to_string().as_bytes());
            out.push(b'\n');
        }
        out
    }

    #[test]
    fn replies_resolve_and_async_frames_are_stashed() {
        let frames = canned(&[
            Frame::Progress {
                session: 1,
                step: 1,
                evaluations: 40,
                best: 0.5,
            },
            Frame::Done(DoneFrame {
                session: 1,
                status: "finished".into(),
                reason: None,
                system: "ESS".into(),
                case: "meadow_small".into(),
                steps: 2,
                mean_quality: 0.25,
                total_evaluations: 80,
                wall_ms: 1.0,
            }),
            Frame::Reply {
                id: 1,
                reply: Reply::Drained { sessions: 1 },
            },
        ]);
        let mut requests = Vec::new();
        let mut client = Client::new(frames.as_slice(), &mut requests);
        assert_eq!(client.drain().expect("drain reply"), 1);
        assert_eq!(client.take_events().len(), 2);
        assert!(client.take_events().is_empty(), "take_events drains");
        let sent = String::from_utf8(requests).unwrap();
        assert!(sent.contains(r#""kind":"drain""#), "{sent}");
        assert!(sent.contains(r#""v":2"#), "{sent}");
    }

    #[test]
    fn server_errors_surface_as_client_errors() {
        let frames = canned(&[Frame::Reply {
            id: 1,
            reply: Reply::Error {
                message: "unknown case or workload 'atlantis'".into(),
            },
        }]);
        let mut sink = Vec::new();
        let mut client = Client::new(frames.as_slice(), &mut sink);
        match client.cancel(7) {
            Err(ClientError::Server(m)) => assert!(m.contains("atlantis")),
            other => panic!("expected a server error, got {other:?}"),
        }
    }

    #[test]
    fn eof_before_the_reply_is_a_transport_error() {
        let mut sink = Vec::new();
        let mut client = Client::new(&[] as &[u8], &mut sink);
        assert!(matches!(client.drain(), Err(ClientError::Transport(_))));
    }

    #[test]
    fn id_namespaces_keep_clients_distinct() {
        let frames = canned(&[Frame::Reply {
            id: (3 << 32) + 1,
            reply: Reply::Drained { sessions: 0 },
        }]);
        let mut sink = Vec::new();
        let mut client = Client::with_id_base(frames.as_slice(), &mut sink, 3 << 32);
        assert_eq!(client.drain().expect("namespaced reply"), 0);
    }
}
