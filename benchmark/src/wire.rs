//! The end-to-end path: an in-process `serve_configured` loop on its own
//! thread, one `ess_client::Client` connection over in-memory pipes, and
//! the closed-loop driver that keeps a fixed number of sessions live.
//!
//! Closed loop: the client sends `advance{rounds:1}`, reads the frames it
//! produced, and submits the next scripted spec for every `done` it saw —
//! a slow server receives less load. One process, one connection.

use crate::calibrate::{Calibrator, Timeline};
use crate::clock::{now_ns, process_cpu_ms, secs_since};
use crate::spawn;
use crate::workload::{one_case_per_grid_shape, Fingerprint, Golden, Slot, Workload};
use ess::fitness::EvalBackend;
use ess_client::pipe::{duplex, PipeReader, PipeWriter};
use ess_client::{Client, ClientError};
use ess_service::proto::{DoneFrame, Frame};
use ess_service::serve::{serve_configured, ServeSummary};
use ess_service::{PolicyKind, RunSpec, SessionId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, LineWriter, Read, Write};
use std::rc::Rc;
use std::thread::JoinHandle;

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pool workers: every core up to four (the paper's farm is small, and
/// the load generator itself must not be starved).
pub fn pool_workers() -> usize {
    cores().min(4)
}

pub fn backend() -> EvalBackend {
    EvalBackend::WorkerPool(pool_workers())
}

/// What the taps on the two pipe ends observe: when each request line was
/// written and each frame line read, and (in the traced run only) the
/// lines themselves for the jsonio probes.
#[derive(Default)]
pub struct Tap {
    /// When the most recent request line was handed to the pipe.
    pub last_write_ns: u64,
    /// `(read time, is a reply)` per frame line since the last drain.
    reads: Vec<(u64, bool)>,
    keep_lines: bool,
    pub request_lines: Vec<String>,
    pub frame_lines: Vec<String>,
}

type SharedTap = Rc<RefCell<Tap>>;

pub struct TapWriter {
    inner: PipeWriter,
    tap: SharedTap,
}

impl Write for TapWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        let mut tap = self.tap.borrow_mut();
        tap.last_write_ns = now_ns();
        if tap.keep_lines {
            tap.request_lines
                .push(String::from_utf8_lossy(buf).trim_end().to_string());
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

pub struct TapReader {
    inner: BufReader<PipeReader>,
    tap: SharedTap,
}

impl Read for TapReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl BufRead for TapReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }

    /// The client reads one frame per `read_line`, so stamping here times
    /// "that frame read" exactly.
    fn read_line(&mut self, buf: &mut String) -> io::Result<usize> {
        let start = buf.len();
        let n = self.inner.read_line(buf)?;
        if n > 0 {
            let line = &buf[start..];
            let mut tap = self.tap.borrow_mut();
            // Replies carry the request's correlation id right after the
            // version; async frames (progress, done) have none.
            tap.reads
                .push((now_ns(), line.starts_with("{\"v\":2,\"id\":")));
            if tap.keep_lines {
                tap.frame_lines.push(line.trim_end().to_string());
            }
        }
        Ok(n)
    }
}

/// A live serve loop and the one client connected to it.
pub struct Harness {
    pub client: Client<TapReader, TapWriter>,
    pub tap: SharedTap,
    server: JoinHandle<io::Result<ServeSummary>>,
}

fn client_err(what: &str) -> impl Fn(ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Harness {
    pub fn start(fused: bool, keep_lines: bool) -> Result<Harness, String> {
        let (req_w, req_r) = duplex();
        let (resp_w, resp_r) = duplex();
        let backend = backend();
        // LineWriter: one pipe chunk per frame line, the buffering stdout
        // gives `harness serve`.
        let server = spawn::thread("serve", move || {
            serve_configured(
                BufReader::new(req_r),
                LineWriter::new(resp_w),
                backend,
                PolicyKind::RoundRobin,
                fused,
            )
        })
        .map_err(|e| format!("spawn serve thread: {e}"))?;
        let tap: SharedTap = Rc::new(RefCell::new(Tap {
            keep_lines,
            ..Tap::default()
        }));
        let client = Client::new(
            TapReader {
                inner: BufReader::new(resp_r),
                tap: Rc::clone(&tap),
            },
            TapWriter {
                inner: req_w,
                tap: Rc::clone(&tap),
            },
        );
        Ok(Harness {
            client,
            tap,
            server,
        })
    }

    /// Ends the serve loop and waits for its thread.
    pub fn shutdown(mut self) -> Result<ServeSummary, String> {
        self.client.quit().map_err(client_err("quit"))?;
        self.server
            .join()
            .map_err(|_| "serve thread panicked".to_string())?
            .map_err(|e| format!("serve I/O: {e}"))
    }

    /// The async frames since the last call, each with its read time.
    fn timed_events(&mut self) -> Result<Vec<(u64, Frame)>, String> {
        let events = self.client.take_events();
        let reads = std::mem::take(&mut self.tap.borrow_mut().reads);
        let stamps: Vec<u64> = reads
            .into_iter()
            .filter(|(_, reply)| !reply)
            .map(|(t, _)| t)
            .collect();
        if stamps.len() != events.len() {
            return Err(format!(
                "tap saw {} async frames, client delivered {}",
                stamps.len(),
                events.len()
            ));
        }
        Ok(stamps.into_iter().zip(events).collect())
    }

    /// One untimed one-step session per distinct grid shape, so first-touch
    /// costs (rasters, arenas, lazy tables) are paid before timing starts.
    fn warm_up(&mut self, script: &[Slot]) -> Result<(), String> {
        for case in one_case_per_grid_shape(script) {
            let spec = RunSpec::new("ESS", case).scale(0.1).max_steps(1);
            self.client
                .run(&spec, false)
                .map_err(client_err("warm-up run"))?;
        }
        self.client.drain().map_err(client_err("warm-up drain"))?;
        for (_, frame) in self.timed_events()? {
            match frame {
                Frame::Done(d) if d.status == "exhausted" => {}
                other => return Err(format!("warm-up: unexpected frame {other:?}")),
            }
        }
        Ok(())
    }

    /// Round-trip time of an `advance` with nothing live: the fixed cost
    /// the wire adds to every step.
    pub fn idle_rtt_us(&mut self, calls: usize) -> Result<f64, String> {
        let start = now_ns();
        for _ in 0..calls {
            self.client.advance(1).map_err(client_err("idle advance"))?;
        }
        Ok((now_ns() - start) as f64 / 1e3 / calls as f64)
    }
}

/// Everything a set-up produces: the live harness, the script of the
/// seed's first repetition and the golden fingerprints, plus how long it
/// took.
pub struct Ready {
    pub harness: Harness,
    pub script: Vec<Slot>,
    pub golden: Golden,
    pub setup_s: f64,
}

/// Set-up as a user pays it, timed from entry to "ready for the first
/// timed request": spawn the pool and the serve thread, generate the
/// script, load the goldens, warm every grid shape.
pub fn set_up(
    workload: &Workload,
    seed: u64,
    tiny: bool,
    golden_dir: &std::path::Path,
    keep_lines: bool,
) -> Result<Ready, String> {
    let start_ns = now_ns();
    let mut harness = Harness::start(workload.fused, keep_lines)?;
    let script = workload.script(seed, 0, tiny);
    let golden = Golden::load(golden_dir, workload.name)?;
    harness.warm_up(&script)?;
    Ok(Ready {
        harness,
        script,
        golden,
        setup_s: secs_since(start_ns),
    })
}

/// What one repetition of a workload measured. Times are on the
/// calibrated clock (`calibrate`), except `raw_s`.
#[derive(Debug, Default)]
pub struct Repetition {
    pub wall_s: f64,
    /// Uncalibrated wall of the repetition, reference slices included:
    /// what the run's time budget is spent in.
    pub raw_s: f64,
    pub cpu_ms: f64,
    pub attempted: usize,
    pub finished: usize,
    pub evaluations: u64,
    pub step_latency_ms: Vec<f64>,
    pub session_latency_ms: Vec<f64>,
    pub checkpoint_cycle_ms: Vec<f64>,
    /// Sessions that did not finish, digest mismatches, protocol errors.
    pub failures: Vec<String>,
}

fn done_fingerprint(d: &DoneFrame) -> Fingerprint {
    Fingerprint {
        steps: d.steps,
        mean_quality_bits: d.mean_quality.to_bits(),
        total_evaluations: d.total_evaluations,
    }
}

struct Live {
    slot: usize,
    submitted_ns: u64,
}

/// Drives one repetition of `script` through the wire. Every pass of the
/// closed loop is one stretch of the calibrated timeline, closed by a
/// reference slice; latencies are collected as raw clock readings and put
/// on the timeline at the end.
pub fn run_repetition(
    harness: &mut Harness,
    workload: &Workload,
    script: &[Slot],
    golden: &Golden,
    calibrator: &mut Calibrator,
) -> Result<Repetition, String> {
    let mut rep = Repetition {
        attempted: script.len(),
        ..Repetition::default()
    };
    let mut live: HashMap<SessionId, Live> = HashMap::new();
    let mut next = 0usize;
    // `(from, to)` raw readings of every latency sample.
    let (mut steps, mut sessions, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
    let mut timeline = Timeline::default();
    let slices_before = calibrator.slices_ns.len();
    let cpu_start = process_cpu_ms();
    let start = now_ns();
    let mut stretch_start = start;
    let mut idle_rounds = 0;
    loop {
        while next < script.len() && live.len() < workload.concurrency {
            let ids = harness
                .client
                .run(&script[next].spec(), true)
                .map_err(client_err("run"))?;
            let submitted_ns = harness.tap.borrow().last_write_ns;
            for id in ids {
                live.insert(
                    id,
                    Live {
                        slot: next,
                        submitted_ns,
                    },
                );
            }
            next += 1;
        }
        if live.is_empty() {
            break;
        }
        let (ran, _) = harness.client.advance(1).map_err(client_err("advance"))?;
        let advanced_ns = harness.tap.borrow().last_write_ns;
        let events = harness.timed_events()?;
        idle_rounds = if ran == 0 || events.is_empty() {
            idle_rounds + 1
        } else {
            0
        };
        if idle_rounds > 100 {
            return Err(format!("{} sessions never reported done", live.len()));
        }
        for (read_ns, frame) in events {
            match frame {
                Frame::Progress { .. } => steps.push((advanced_ns, read_ns)),
                Frame::Done(d) => {
                    let Some(l) = live.remove(&d.session) else {
                        rep.failures
                            .push(format!("done for unknown session {}", d.session));
                        continue;
                    };
                    sessions.push((l.submitted_ns, read_ns));
                    if d.status == "finished" {
                        rep.finished += 1;
                        rep.evaluations += d.total_evaluations;
                    }
                    let digest = done_fingerprint(&d);
                    if let Err(e) = golden.check(&script[l.slot], &d.status, digest) {
                        rep.failures.push(e);
                    }
                }
                Frame::Reply { .. } => {}
            }
        }
        if workload.churn {
            // Session-id order: the kill/resume sequence is part of the
            // input, so it must not depend on hash iteration.
            let mut ids: Vec<SessionId> = live.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let snapshot = harness
                    .client
                    .snapshot(id)
                    .map_err(client_err("snapshot"))?;
                let cycle_start = harness.tap.borrow().last_write_ns;
                harness.client.cancel(id).map_err(client_err("cancel"))?;
                let resumed = harness
                    .client
                    .restore(&snapshot, true)
                    .map_err(client_err("restore"))?;
                cycles.push((cycle_start, now_ns()));
                if let Some(l) = live.remove(&id) {
                    live.insert(resumed, l);
                }
            }
        }
        let stretch_end = now_ns();
        timeline.push(stretch_start, stretch_end, calibrator.scale());
        stretch_start = now_ns();
    }
    rep.raw_s = secs_since(start);
    rep.wall_s = timeline.total_ns() / 1e9;
    let on_timeline = |samples: &[(u64, u64)]| -> Vec<f64> {
        samples
            .iter()
            .map(|&(from, to)| timeline.ms_between(from, to))
            .collect()
    };
    rep.step_latency_ms = on_timeline(&steps);
    rep.session_latency_ms = on_timeline(&sessions);
    rep.checkpoint_cycle_ms = on_timeline(&cycles);
    // The slices are CPU time of this process but not of the program:
    // taken off, and the rest scaled like the wall it was spent in.
    let slices_ms = calibrator.slices_ns[slices_before..].iter().sum::<f64>() / 1e6;
    rep.cpu_ms = match (cpu_start, process_cpu_ms()) {
        (Some(a), Some(b)) if timeline.raw_ns() > 0 => {
            (b - a - slices_ms).max(0.0) * timeline.total_ns() / timeline.raw_ns() as f64
        }
        _ => 0.0,
    };
    Ok(rep)
}
