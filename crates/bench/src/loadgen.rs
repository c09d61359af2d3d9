//! The protocol-v2 load generator and the serve smoke test.
//!
//! [`loadgen_sweep`] drives N concurrent typed clients × M sessions each
//! against **one** in-process serve loop — every client on its own
//! thread with its own `ess_client::Client`, all multiplexed over one
//! request pipe (chunk-atomic writes) and demultiplexed by correlation-id
//! namespace and session ownership on the response side, exactly the
//! fan-in shape a socket deployment would have. The sweep repeats the
//! identical workload under every [`PolicyKind`], asserts the per-session
//! reports are **identical across policies** (scheduling must move
//! latency, never results), and writes `BENCH_serve_v2.json` with
//! sessions/sec, events/sec and the observed fairness skew per policy —
//! plus a fused-vs-unfused section comparing evals/sec at 1, 4, 16 and 64
//! concurrent sessions with the cross-path identity asserted in-run.
//!
//! [`serve_self_test`] is the CI smoke: a recorded multi-client-shaped
//! script (all four systems, watched) runs once uninterrupted to produce
//! a golden transcript, then again with one session checkpointed,
//! killed mid-script and restored from its snapshot — and the final
//! reports are diffed line-by-line against the golden transcript.

use crate::experiments::write_bench_json;
use ess::fitness::EvalBackend;
use ess::report::{f2, TextTable};
use ess_client::pipe::{duplex, PipeReader, PipeWriter};
use ess_client::{Client, ClientError};
use ess_service::jsonio::Json;
use ess_service::proto::{DoneFrame, Frame, Reply};
use ess_service::serve::{serve_configured, serve_with};
use ess_service::{PolicyKind, RunSpec};
use parworker::Stopwatch;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::thread;

/// The deterministic fields of a terminal frame (wall time excluded).
type Fingerprint = (String, String, String, usize, u64, u64);

fn fingerprint(d: &DoneFrame) -> Fingerprint {
    (
        d.status.clone(),
        d.system.clone(),
        d.case.clone(),
        d.steps,
        d.mean_quality.to_bits(),
        d.total_evaluations,
    )
}

/// One client's scripted workload: the specs it submits, in order.
fn client_scripts(clients: usize, specs_per_client: usize, scale: f64) -> Vec<Vec<RunSpec>> {
    let systems = ess_service::systems::names();
    (0..clients)
        .map(|c| {
            (0..specs_per_client)
                .map(|i| {
                    let system = systems[(c + i) % systems.len()];
                    let mut spec = RunSpec::new(system, "meadow_small")
                        .seed(9000 + (c as u64) * 100 + i as u64)
                        .scale(scale)
                        .replicates(1 + i % 2)
                        // Client weights differ so weighted-fair-share has
                        // something to equalize.
                        .weight(1.0 + c as f64);
                    if i % 2 == 1 {
                        // A deadline far beyond any plausible run time: it
                        // orders deadline-first scheduling without ever
                        // firing as a budget (results must stay
                        // policy-independent).
                        spec = spec.deadline_ms(600_000);
                    }
                    spec
                })
                .collect()
        })
        .collect()
}

/// Scheduler-visible happenings, in server emission order, for the
/// fairness post-processing.
enum Ev {
    Accept(Vec<u64>),
    Step(u64, usize),
    Done(u64),
}

/// What one policy run produced.
struct PolicyRun {
    wall_ms: f64,
    frames: usize,
    sessions: usize,
    steps: usize,
    /// (client, spec index, replicate) → terminal fingerprint.
    reports: BTreeMap<(usize, usize, usize), Fingerprint>,
    /// Max step-count spread among concurrently-live sessions.
    raw_skew: usize,
    /// Max spread of `completed / weight` among concurrently-live
    /// sessions — the quantity weighted-fair-share equalizes.
    virtual_skew: f64,
}

/// Runs the whole scripted workload once under `policy`; with `fused` on,
/// the server's scheduler rounds fuse every planned session's evaluation
/// batches into shared-pool mega-batches.
fn run_policy(
    policy: PolicyKind,
    scripts: &[Vec<RunSpec>],
    backend: EvalBackend,
    fused: bool,
) -> Result<PolicyRun, String> {
    let clients = scripts.len();
    let (req_w, req_r) = duplex();
    let (resp_w, resp_r) = duplex();
    // audit: allow(layer) — bench-only client/server harness threads; no evaluation work runs on them
    // lint: allow(thread-spawn) — the load generator hosts the serve loop on its own thread
    let server = thread::spawn(move || {
        serve_configured(BufReader::new(req_r), resp_w, backend, policy, fused)
    });

    // Demultiplexer: one pipe per client (the coordinator is client
    // `clients`), routing replies by id namespace and async frames by
    // session ownership learned from `accepted` replies.
    let mut to_client: Vec<PipeWriter> = Vec::new();
    let mut client_ends: Vec<Option<PipeReader>> = Vec::new();
    for _ in 0..=clients {
        let (w, r) = duplex();
        to_client.push(w);
        client_ends.push(Some(r));
    }
    type DemuxOut = (usize, Vec<Ev>, HashMap<u64, usize>);
    // audit: allow(layer) — bench-only client/server harness threads; no evaluation work runs on them
    // lint: allow(thread-spawn) — response demultiplexer thread for the simulated clients
    let demux = thread::spawn(move || -> Result<DemuxOut, String> {
        let mut owner: HashMap<u64, usize> = HashMap::new();
        let mut events: Vec<Ev> = Vec::new();
        let mut frames = 0usize;
        for line in BufReader::new(resp_r).lines() {
            let line = line.map_err(|e| format!("response pipe: {e}"))?;
            frames += 1;
            let json = Json::parse(&line).map_err(|e| format!("unparseable frame: {e}"))?;
            let frame = Frame::from_json(&json)?;
            let target = match &frame {
                Frame::Reply { id, reply } => {
                    let c = ((id >> 32) as usize).saturating_sub(1);
                    if let Reply::Accepted { sessions } = reply {
                        events.push(Ev::Accept(sessions.clone()));
                        for s in sessions {
                            owner.insert(*s, c);
                        }
                    }
                    Some(c)
                }
                Frame::Progress { session, step, .. } => {
                    events.push(Ev::Step(*session, *step));
                    owner.get(session).copied()
                }
                Frame::Done(d) => {
                    events.push(Ev::Done(d.session));
                    owner.get(&d.session).copied()
                }
            };
            if let Some(c) = target {
                let mut buf = line.into_bytes();
                buf.push(b'\n');
                if let Some(w) = to_client.get_mut(c) {
                    // A closed per-client pipe just means that client
                    // already finished; late frames for it are dropped.
                    let _ = w.write_all(&buf);
                }
            }
        }
        Ok((frames, events, owner))
    });

    // Client threads: submit every spec, then advance one round at a time
    // until all own sessions reported done.
    let sw = Stopwatch::start();
    let mut handles = Vec::new();
    for (c, script) in scripts.iter().enumerate() {
        let script = script.to_vec();
        let reader = client_ends[c].take().expect("one reader per client");
        let req_w = req_w.clone();
        // audit: allow(layer) — bench-only client/server harness threads; no evaluation work runs on them
        // lint: allow(thread-spawn) — one generator thread per simulated client
        handles.push(thread::spawn(
            move || -> Result<BTreeMap<(usize, usize, usize), Fingerprint>, String> {
                let err = |e: ClientError| format!("client {c}: {e}");
                let mut client =
                    Client::with_id_base(BufReader::new(reader), req_w, ((c + 1) as u64) << 32);
                let mut mine: HashMap<u64, (usize, usize)> = HashMap::new();
                for (i, spec) in script.iter().enumerate() {
                    let ids = client.run(spec, true).map_err(err)?;
                    for (r, id) in ids.into_iter().enumerate() {
                        mine.insert(id, (i, r));
                    }
                }
                let mut reports = BTreeMap::new();
                let mut idle_rounds = 0usize;
                while reports.len() < mine.len() {
                    let (ran, _live) = client.advance(1).map_err(err)?;
                    for frame in client.take_events() {
                        if let Frame::Done(d) = frame {
                            if let Some(&(i, r)) = mine.get(&d.session) {
                                reports.insert((c, i, r), fingerprint(&d));
                            }
                        }
                    }
                    idle_rounds = if ran == 0 { idle_rounds + 1 } else { 0 };
                    if idle_rounds > 1_000 {
                        return Err(format!(
                            "client {c}: {} of {} sessions never reported done",
                            mine.len() - reports.len(),
                            mine.len()
                        ));
                    }
                }
                Ok(reports)
            },
        ));
    }

    let mut reports = BTreeMap::new();
    let mut failures = Vec::new();
    for handle in handles {
        match handle.join().expect("client thread must not panic") {
            Ok(r) => reports.extend(r),
            Err(e) => failures.push(e),
        }
    }
    let wall_ms = sw.elapsed_ms();

    // Coordinator: stop the server, then the demux sees EOF and returns.
    let coordinator_end = client_ends[clients].take().expect("coordinator reader");
    let mut coordinator = Client::with_id_base(
        BufReader::new(coordinator_end),
        req_w,
        ((clients + 1) as u64) << 32,
    );
    coordinator
        .quit()
        .map_err(|e| format!("coordinator: {e}"))?;
    drop(coordinator);
    server
        .join()
        .expect("server thread must not panic")
        .map_err(|e| format!("serve I/O: {e}"))?;
    let (frames, events, owner) = demux.join().expect("demux thread must not panic")?;
    if let Some(failure) = failures.into_iter().next() {
        return Err(failure);
    }

    // Fairness post-processing over the ordered event log. Every spec of
    // client `c` carries weight `1 + c` (see `client_scripts`), so a
    // session's weight follows from its owner.
    let weight_of = |id: &u64| 1.0 + owner.get(id).copied().unwrap_or(0) as f64;
    let mut live: HashMap<u64, usize> = HashMap::new();
    let mut raw_skew = 0usize;
    let mut virtual_skew = 0.0f64;
    let mut steps = 0usize;
    for ev in &events {
        match ev {
            Ev::Accept(ids) => {
                for id in ids {
                    live.insert(*id, 0);
                }
            }
            Ev::Step(id, step) => {
                steps += 1;
                if let Some(done) = live.get_mut(id) {
                    *done = *step;
                }
                if live.len() > 1 {
                    let max = live.values().max().copied().unwrap_or(0);
                    let min = live.values().min().copied().unwrap_or(0);
                    raw_skew = raw_skew.max(max - min);
                    let virt: Vec<f64> = live
                        .iter()
                        .map(|(id, done)| *done as f64 / weight_of(id))
                        .collect();
                    let vmax = virt.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let vmin = virt.iter().copied().fold(f64::INFINITY, f64::min);
                    virtual_skew = virtual_skew.max(vmax - vmin);
                }
            }
            Ev::Done(id) => {
                live.remove(id);
            }
        }
    }

    Ok(PolicyRun {
        wall_ms,
        frames,
        sessions: reports.len(),
        steps,
        reports,
        raw_skew,
        virtual_skew,
    })
}

/// The loadgen benchmark: the identical N-client workload under every
/// scheduling policy, with the cross-policy result-identity assertion.
/// Writes `BENCH_serve_v2.json` into `out` and returns the report table.
///
/// `quick` shrinks the fleet (the CI smoke configuration).
///
/// # Panics
/// Panics when a policy run fails or when any policy's reports diverge
/// from round-robin's — both are protocol bugs, not workload noise.
/// The session counts the quick fused-vs-unfused section sweeps.
const QUICK_FUSED_COUNTS: [usize; 3] = [1, 4, 16];

pub fn loadgen_sweep(quick: bool, out: &std::path::Path) -> TextTable {
    let (clients, specs_per_client, scale) = if quick { (2, 2, 0.12) } else { (4, 3, 0.25) };
    let backend = EvalBackend::WorkerPool(2);
    let scripts = client_scripts(clients, specs_per_client, scale);

    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("[warn] could not create {}: {e}", out.display());
    }

    let mut t = TextTable::new([
        "policy",
        "clients",
        "sessions",
        "steps",
        "frames",
        "wall_ms",
        "sessions_per_sec",
        "events_per_sec",
        "step_skew",
        "virtual_skew",
    ]);
    let mut reference: Option<BTreeMap<(usize, usize, usize), Fingerprint>> = None;
    let mut json_policies: Vec<Json> = Vec::new();
    for policy in PolicyKind::ALL {
        let run = run_policy(policy, &scripts, backend, false)
            .unwrap_or_else(|e| panic!("loadgen under {policy}: {e}"));
        match &reference {
            None => reference = Some(run.reports.clone()),
            Some(expected) => assert_eq!(
                expected, &run.reports,
                "policy {policy} changed session results — scheduling must only move latency"
            ),
        }
        assert!(
            run.reports.values().all(|f| f.0 == "finished"),
            "every loadgen session must finish under {policy}"
        );
        let secs = run.wall_ms / 1000.0;
        let sessions_per_sec = run.sessions as f64 / secs;
        let events_per_sec = run.frames as f64 / secs;
        t.row([
            policy.name().to_string(),
            clients.to_string(),
            run.sessions.to_string(),
            run.steps.to_string(),
            run.frames.to_string(),
            f2(run.wall_ms),
            f2(sessions_per_sec),
            f2(events_per_sec),
            run.raw_skew.to_string(),
            f2(run.virtual_skew),
        ]);
        json_policies.push(
            Json::obj()
                .field("policy", policy.name())
                .field("clients", clients)
                .field("sessions", run.sessions)
                .field("steps", run.steps)
                .field("frames", run.frames)
                .field("wall_ms", run.wall_ms)
                .field("sessions_per_sec", sessions_per_sec)
                .field("events_per_sec", events_per_sec)
                .field("step_skew", run.raw_skew)
                .field("virtual_skew", run.virtual_skew)
                .field("reports_identical_to_round_robin", true),
        );
    }

    // Fused-vs-unfused mode: the identical single-client workload at each
    // concurrency level, once with per-session rounds and once with the
    // scheduler fusing every planned session's batches into shared-pool
    // mega-batches. Results must be bit-identical — fusion may only move
    // throughput — and that identity is asserted right here, inside the
    // run the CI smoke job executes.
    let counts: &[usize] = if quick {
        &QUICK_FUSED_COUNTS
    } else {
        &[1, 4, 16, 64]
    };
    let mut json_fused: Vec<Json> = Vec::new();
    for &sessions in counts {
        let scripts = concurrency_scripts(sessions, scale);
        let unfused = run_policy(PolicyKind::RoundRobin, &scripts, backend, false)
            .unwrap_or_else(|e| panic!("loadgen unfused at {sessions} sessions: {e}"));
        let fused = run_policy(PolicyKind::RoundRobin, &scripts, backend, true)
            .unwrap_or_else(|e| panic!("loadgen fused at {sessions} sessions: {e}"));
        assert_eq!(
            unfused.reports, fused.reports,
            "fused rounds changed session results at {sessions} sessions — \
             fusion must only move throughput"
        );
        let evals: u64 = unfused.reports.values().map(|f| f.5).sum();
        let speedup = unfused.wall_ms / fused.wall_ms;
        for (mode, run) in [("unfused", &unfused), ("fused", &fused)] {
            let secs = run.wall_ms / 1000.0;
            t.row([
                format!("{mode}@{sessions}"),
                "1".into(),
                run.sessions.to_string(),
                run.steps.to_string(),
                run.frames.to_string(),
                f2(run.wall_ms),
                f2(run.sessions as f64 / secs),
                f2(run.frames as f64 / secs),
                run.raw_skew.to_string(),
                f2(run.virtual_skew),
            ]);
        }
        json_fused.push(
            Json::obj()
                .field("sessions", sessions)
                .field("evaluations", evals)
                .field("unfused_wall_ms", unfused.wall_ms)
                .field("fused_wall_ms", fused.wall_ms)
                .field(
                    "unfused_evals_per_sec",
                    evals as f64 / (unfused.wall_ms / 1000.0),
                )
                .field(
                    "fused_evals_per_sec",
                    evals as f64 / (fused.wall_ms / 1000.0),
                )
                .field("fused_speedup", speedup)
                .field("reports_identical", true),
        );
    }

    let json = Json::obj()
        .field("bench_format", 1u64)
        .field("suite", "serve_v2_loadgen")
        .field("case", "meadow_small")
        .field("scale", scale)
        .field("quick", quick)
        .field("backend", backend.name())
        .field("clients", clients)
        .field("specs_per_client", specs_per_client)
        .field("policies", Json::Arr(json_policies))
        .field("fused_mode", Json::Arr(json_fused));
    write_bench_json(&out.join("BENCH_serve_v2.json"), &json);
    t
}

/// One client submitting exactly `sessions` single-replicate specs — the
/// concurrency axis of the fused-vs-unfused comparison.
fn concurrency_scripts(sessions: usize, scale: f64) -> Vec<Vec<RunSpec>> {
    let systems = ess_service::systems::names();
    vec![(0..sessions)
        .map(|i| {
            RunSpec::new(systems[i % systems.len()], "meadow_small")
                .seed(11_000 + i as u64)
                .scale(scale)
                .replicates(1)
        })
        .collect()]
}

/// The serve smoke: runs the recorded multi-client-shaped script (all four
/// systems, watched) once uninterrupted to record the golden transcript,
/// then again with the ESS-NS session checkpointed, killed and restored
/// from its snapshot mid-script, and diffs the final reports.
///
/// Returns the matching transcript on success.
///
/// # Errors
/// The first transcript mismatch, or any transport/protocol failure.
pub fn serve_self_test(backend: EvalBackend) -> Result<String, String> {
    let specs: Vec<RunSpec> = ess_service::systems::names()
        .iter()
        .enumerate()
        .map(|(i, name)| {
            RunSpec::new(*name, "meadow_small")
                .seed(7_500 + i as u64)
                .scale(0.15)
                .weight(1.0 + i as f64)
        })
        .collect();
    // The interruption victim: ESS-NS, the paper's headline system.
    let victim = specs.len() - 1;
    let golden = smoke_transcript(backend, &specs, None)?;
    let resumed = smoke_transcript(backend, &specs, Some(victim))?;
    if golden != resumed {
        let diff: Vec<String> = golden
            .iter()
            .zip(&resumed)
            .filter(|(g, r)| g != r)
            .map(|(g, r)| format!("golden: {g}\nkilled+resumed: {r}"))
            .collect();
        return Err(format!(
            "serve self-test: resumed transcript diverged from golden\n{}",
            diff.join("\n")
        ));
    }
    Ok(golden.join("\n"))
}

/// Runs the smoke script once; `interrupt` names the spec whose session
/// is snapshotted, cancelled and restored after two scheduler rounds.
/// Returns one transcript line per spec (deterministic fields only),
/// spec order.
fn smoke_transcript(
    backend: EvalBackend,
    specs: &[RunSpec],
    interrupt: Option<usize>,
) -> Result<Vec<String>, String> {
    let err = |e: ClientError| format!("smoke client: {e}");
    let (req_w, req_r) = duplex();
    let (resp_w, resp_r) = duplex();
    // audit: allow(layer) — bench-only client/server harness threads; no evaluation work runs on them
    // lint: allow(thread-spawn) — smoke test hosts the serve loop on its own thread
    let server = thread::spawn(move || {
        serve_with(
            BufReader::new(req_r),
            resp_w,
            backend,
            PolicyKind::RoundRobin,
        )
    });
    let mut client = Client::new(BufReader::new(resp_r), req_w);

    let mut spec_of: HashMap<u64, usize> = HashMap::new();
    for (i, spec) in specs.iter().enumerate() {
        let ids = client.run(spec, true).map_err(err)?;
        for id in ids {
            spec_of.insert(id, i);
        }
    }
    if let Some(k) = interrupt {
        client.advance(2).map_err(err)?;
        let (&victim, _) = spec_of
            .iter()
            .find(|(_, i)| **i == k)
            .expect("victim session exists");
        let snapshot = client.snapshot(victim).map_err(err)?;
        client.cancel(victim).map_err(err)?;
        let restored = client.restore(&snapshot, true).map_err(err)?;
        spec_of.insert(restored, k);
    }
    client.drain().map_err(err)?;
    let mut lines: Vec<Option<String>> = vec![None; specs.len()];
    for frame in client.take_events() {
        if let Frame::Done(d) = frame {
            let i = spec_of[&d.session];
            let (status, system, case, steps, quality_bits, evals) = fingerprint(&d);
            lines[i] = Some(format!(
                "{system} {case} {status} steps={steps} quality_bits={quality_bits:016x} evaluations={evals}"
            ));
        }
    }
    client.quit().map_err(err)?;
    server
        .join()
        .expect("server thread must not panic")
        .map_err(|e| format!("serve I/O: {e}"))?;
    lines
        .into_iter()
        .enumerate()
        .map(|(i, l)| l.ok_or(format!("no terminal report for spec {i}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_loadgen_sweep_is_policy_invariant() {
        let dir = std::env::temp_dir().join("ess_loadgen_test");
        let table = loadgen_sweep(true, &dir);
        // One row per policy, then an unfused/fused pair per session count.
        assert_eq!(
            table.len(),
            PolicyKind::ALL.len() + 2 * QUICK_FUSED_COUNTS.len()
        );
        let bench = std::fs::read_to_string(dir.join("BENCH_serve_v2.json"))
            .expect("bench artifact written");
        assert!(bench.contains("\"sessions_per_sec\""));
        assert!(bench.contains("\"reports_identical_to_round_robin\": true"));
        assert!(bench.contains("\"reports_identical\": true"));
        assert!(bench.contains("\"fused_speedup\""));
    }

    #[test]
    fn serve_v2_smoke_passes_on_a_shared_pool() {
        let transcript = serve_self_test(EvalBackend::WorkerPool(2)).expect("smoke must pass");
        assert_eq!(transcript.lines().count(), 4, "one line per system");
        assert!(transcript.contains("ESS-NS"));
    }
}
