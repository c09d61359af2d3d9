//! The serve smoke test behind `harness serve --self-test`.
//!
//! [`serve_self_test`] is the CI smoke: a recorded multi-client-shaped
//! script (all four systems, watched) runs once uninterrupted to produce
//! a golden transcript, then again with one session checkpointed,
//! killed mid-script and restored from its snapshot — and the final
//! reports are diffed line-by-line against the golden transcript.

use ess::fitness::EvalBackend;
use ess_client::pipe::duplex;
use ess_client::{Client, ClientError};
use ess_service::proto::Frame;
use ess_service::serve::serve_with;
use ess_service::{PolicyKind, RunSpec};
use std::collections::HashMap;
use std::io::BufReader;
use std::thread;

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
    // lint: allow(layer) — bench-only client/server harness threads; no evaluation work runs on them
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
            // The deterministic fields of the terminal frame (no wall time).
            lines[spec_of[&d.session]] = Some(format!(
                "{} {} {} steps={} quality_bits={:016x} evaluations={}",
                d.system,
                d.case,
                d.status,
                d.steps,
                d.mean_quality.to_bits(),
                d.total_evaluations
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
    fn serve_v2_smoke_passes_on_a_shared_pool() {
        let transcript = serve_self_test(EvalBackend::WorkerPool(2)).expect("smoke must pass");
        assert_eq!(transcript.lines().count(), 4, "one line per system");
        assert!(transcript.contains("ESS-NS"));
    }
}
