//! Checkpoint/resume and protocol v2, end to end: a serve loop in a
//! background thread, a typed client over in-memory pipes, a session
//! streamed, checkpointed, killed, restored from its serialized snapshot
//! — and the resumed report verified bit-identical (deterministic
//! fields) to an uninterrupted run of the same spec.
//!
//! ```sh
//! cargo run --release --example checkpoint_resume
//! ```

use essns_repro::ess::fitness::EvalBackend;
use essns_repro::ess_client::{pipe, Client};
use essns_repro::ess_service::proto::Frame;
use essns_repro::ess_service::serve::serve_configured;
use essns_repro::ess_service::{PolicyKind, RunSpec};
use std::io::BufReader;

fn main() {
    // One serve loop, weighted-fair-share scheduling, a 2-worker pool.
    let (req_w, req_r) = pipe::duplex();
    let (resp_w, resp_r) = pipe::duplex();
    #[expect(
        clippy::disallowed_methods,
        reason = "the example hosts the server on a helper thread to drive it in-process"
    )]
    let server = std::thread::spawn(move || {
        serve_configured(
            BufReader::new(req_r),
            resp_w,
            EvalBackend::WorkerPool(2),
            PolicyKind::WeightedFairShare,
            false,
        )
    });
    let mut client = Client::new(BufReader::new(resp_r), req_w);

    let spec = RunSpec::new("ESS-NS", "meadow_small").seed(7).scale(0.3);

    // The uninterrupted reference.
    let reference = client.run(&spec, false).expect("accepted")[0];
    client.drain().expect("drains");
    let reference_done = take_done(&mut client, reference);
    println!(
        "reference     : {} steps, mean quality {:.4}",
        reference_done.steps, reference_done.mean_quality
    );

    // Watch a second run, stop it mid-flight, checkpoint, kill, resume.
    let session = client.run(&spec, true).expect("accepted")[0];
    client.advance(2).expect("two rounds");
    for frame in client.take_events() {
        if let Frame::Progress {
            step, evaluations, ..
        } = frame
        {
            println!("progress      : step {step}, {evaluations} evaluations spent");
        }
    }
    let snapshot = client.snapshot(session).expect("checkpoint");
    println!(
        "checkpoint    : {} steps serialized ({} bytes of JSON)",
        snapshot.completed(),
        snapshot.to_json().to_string().len()
    );
    client.cancel(session).expect("kill");
    let resumed = client.restore(&snapshot, false).expect("resume");
    client.drain().expect("drains");
    let resumed_done = take_done(&mut client, resumed);
    println!(
        "killed+resumed: {} steps, mean quality {:.4}",
        resumed_done.steps, resumed_done.mean_quality
    );

    assert_eq!(resumed_done.steps, reference_done.steps);
    assert_eq!(
        resumed_done.mean_quality.to_bits(),
        reference_done.mean_quality.to_bits(),
        "resume must be bit-identical to never having stopped"
    );
    println!("bit-identical : yes");

    client.quit().expect("quit");
    let summary = server.join().expect("server").expect("serve I/O");
    println!(
        "server summary: {} accepted, {} finished, {} cancelled, {} restored",
        summary.accepted, summary.finished, summary.cancelled, summary.restored
    );
}

fn take_done(
    client: &mut Client<BufReader<pipe::PipeReader>, pipe::PipeWriter>,
    session: u64,
) -> essns_repro::ess_service::proto::DoneFrame {
    client
        .take_events()
        .into_iter()
        .find_map(|f| match f {
            Frame::Done(d) if d.session == session => Some(d),
            _ => None,
        })
        .expect("terminal frame for the session")
}
