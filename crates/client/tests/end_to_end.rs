//! End-to-end protocol v2: a typed [`Client`] driving a real serve loop
//! in another thread over in-memory pipes — submit, stream, checkpoint,
//! kill and resume. That the resumed run's `done` frame is the
//! uninterrupted run's is the wire column of `tests/conformance.rs`.

#![allow(clippy::disallowed_macros, reason = "a test's asserts are its checks")]
#![expect(
    clippy::disallowed_methods,
    reason = "the serve loop runs on its own thread beside the client, as a deployment would"
)]

use ess::fitness::EvalBackend;
use ess_client::{pipe, Client};
use ess_service::proto::Frame;
use ess_service::serve::serve_configured;
use ess_service::{PolicyKind, RunSpec};
use std::io::BufReader;
use std::thread;

fn spawn_server(
    policy: PolicyKind,
) -> (
    Client<BufReader<pipe::PipeReader>, pipe::PipeWriter>,
    thread::JoinHandle<std::io::Result<ess_service::ServeSummary>>,
) {
    let (req_w, req_r) = pipe::duplex();
    let (resp_w, resp_r) = pipe::duplex();
    let server = thread::spawn(move || {
        serve_configured(
            BufReader::new(req_r),
            resp_w,
            EvalBackend::WorkerPool(2),
            policy,
            false,
        )
    });
    (Client::new(BufReader::new(resp_r), req_w), server)
}

#[test]
fn kill_and_resume_continues_where_the_checkpoint_stopped() {
    let (mut client, server) = spawn_server(PolicyKind::RoundRobin);
    let spec = RunSpec::new("ESS-NS", "meadow_small").seed(5).scale(0.2);

    // Advance a little, checkpoint, kill, resume, drain.
    let ids = client.run(&spec, true).expect("accepted");
    let (ran, live) = client.advance(2).expect("advance");
    assert_eq!(ran, 2);
    assert_eq!(live, 1);
    let snapshot = client.snapshot(ids[0]).expect("snapshot");
    assert_eq!(snapshot.completed(), 2);
    client.cancel(ids[0]).expect("kill");
    let resumed = client.restore(&snapshot, true).expect("resume");
    assert_ne!(resumed, ids[0], "resume gets a fresh session id");
    client.drain().expect("drain");

    let events = client.take_events();
    let done: Vec<&str> = events
        .iter()
        .filter_map(|f| match f {
            Frame::Done(d) if d.session == resumed => Some(d.status.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(
        done,
        ["finished"],
        "exactly one terminal frame for the resume"
    );

    // The watched resume streams progress from the checkpointed step on,
    // not from scratch.
    let resumed_steps: Vec<usize> = events
        .iter()
        .filter_map(|f| match f {
            Frame::Progress { session, step, .. } if *session == resumed => Some(*step),
            _ => None,
        })
        .collect();
    assert_eq!(
        resumed_steps,
        [3],
        "resume continues at the checkpointed step"
    );

    client.quit().expect("quit");
    let summary = server.join().expect("server thread").expect("serve I/O");
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.restored, 1);
    assert_eq!(summary.snapshots, 1);
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.finished, 1);
}

#[test]
fn server_side_spec_errors_do_not_kill_the_connection() {
    let (mut client, server) = spawn_server(PolicyKind::WeightedFairShare);
    let err = client
        .run(&RunSpec::new("ESS-9000", "meadow_small"), false)
        .expect_err("unknown system");
    assert!(err.to_string().contains("ESS-9000"), "{err}");
    // The loop survives: a valid run still works afterwards.
    let ids = client
        .run(
            &RunSpec::new("ESS", "meadow_small").scale(0.15).max_steps(1),
            false,
        )
        .expect("valid run accepted");
    assert_eq!(ids.len(), 1);
    client.drain().expect("drains");
    client.quit().expect("quit");
    let summary = server.join().unwrap().unwrap();
    assert_eq!(summary.errors, 1);
    assert_eq!(summary.exhausted, 1);
}
