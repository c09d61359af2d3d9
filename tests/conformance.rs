//! The bit-identity contract, stated once: where and how a run executes —
//! on which backend, under which scheduling policy, fused with its peers
//! or not, checkpointed and resumed, next to a cancelled peer, or over the
//! wire — changes wall time, never results.
//!
//! One generated differential table. A **row** is a [`RunSpec`]; its
//! reference is `PredictionPipeline::run` on a serial pool. A **column**
//! runs rows its own way and reduces each outcome to a [`Digest`]: every
//! deterministic `StepReport` field as bits, plus how the run ended. A
//! cell passes when its digest is the reference's, cut where the row's
//! budget stops it. A knob joins by adding an entry to a column's const
//! list ([`BACKENDS`], [`FUSED`], `PolicyKind::ALL`) and leaves by
//! deleting one.
//!
//! The *inline* rows run `meadow_small` in every column; their batches
//! stay within `DEFAULT_INLINE_THRESHOLD`, so only a fused round hands
//! them to a pool's workers. The *dispatched* rows (one per family on the
//! per-cell wind case) have batches above it. A step of theirs costs ten
//! meadow steps, so they run one step, in the drain column and in the
//! fleets whose pool dispatches, under the first policy: scheduling order
//! does not depend on batch size.

#![expect(
    clippy::disallowed_methods,
    reason = "the wire column hosts the serve loop on its own thread beside the client"
)]

use essns_repro::ess::cases;
use essns_repro::ess::fitness::{EvalBackend, SharedScenarioPool};
use essns_repro::ess::pipeline::{PredictionPipeline, RunReport, StepReport};
use essns_repro::ess_client::{pipe, Client};
use essns_repro::ess_service::jsonio::Json;
use essns_repro::ess_service::proto::{DoneFrame, Frame};
use essns_repro::ess_service::{
    serve_configured, systems, BudgetReason, DrainSignal, PolicyKind, PredictionSession, RunSpec,
    Scheduler, ServiceError, SessionEvent, SessionId, SessionOutcome, SessionSnapshot,
};
use essns_repro::evoalg::diversity::DiversityReport;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::sync::{Arc, OnceLock};
use std::thread;

/// Every evaluation backend, multi-worker ones at two workers. The
/// `match` is exhaustive, so a new `EvalBackend` fails to compile here
/// until it has a column, and a deleted one until its column goes.
const BACKENDS: [EvalBackend; 3] = {
    let backends = [
        EvalBackend::Serial,
        EvalBackend::WorkerPool(2),
        EvalBackend::Rayon(2),
    ];
    let mut i = 0;
    while i < backends.len() {
        let column = match backends[i] {
            EvalBackend::Serial => 0,
            EvalBackend::WorkerPool(_) => 1,
            EvalBackend::Rayon(_) => 2,
        };
        assert!(column == i, "one column per backend, in declaration order");
        i += 1;
    }
    backends
};

/// Batch fusion off and on.
const FUSED: [bool; 2] = [false, true];

/// The pool of the columns that serve one: multi-worker, so a fused
/// round's pooled batches go to its workers.
const SHARED: EvalBackend = EvalBackend::WorkerPool(2);

/// One step report's deterministic fields: the quality, then the rest.
type StepBits = (Option<u64>, [u64; 10]);

/// Every field but `wall_ms`, floats as bits. The destructuring is
/// exhaustive, so a new field fails to compile here until it joins the
/// digest or is declared nondeterministic.
fn step_bits(s: &StepReport) -> StepBits {
    let StepReport {
        step,
        quality,
        kign,
        calibration_fitness,
        os_best_fitness,
        diversity,
        evaluations,
        generations,
        wall_ms: _,
    } = s;
    let DiversityReport {
        mean_pairwise,
        mean_gene_std,
        distinct,
        size,
    } = diversity;
    let bits = [
        *step as u64,
        kign.to_bits(),
        calibration_fitness.to_bits(),
        os_best_fitness.to_bits(),
        mean_pairwise.to_bits(),
        mean_gene_std.to_bits(),
        *distinct as u64,
        *size as u64,
        *evaluations,
        u64::from(*generations),
    ];
    (quality.map(f64::to_bits), bits)
}

/// One cell: the report's names and steps, and how it ended (`None` =
/// finished; a cancellation is a reason like any budget).
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    system: &'static str,
    case: &'static str,
    end: Option<BudgetReason>,
    steps: Vec<StepBits>,
}

impl Digest {
    fn of(end: Option<BudgetReason>, report: &RunReport) -> Self {
        Self {
            system: report.system,
            case: report.case,
            end,
            steps: report.steps.iter().map(step_bits).collect(),
        }
    }

    fn of_drain(drained: Result<RunReport, ServiceError>) -> Self {
        match drained {
            Ok(report) => Self::of(None, &report),
            Err(ServiceError::BudgetExhausted { reason, partial }) => {
                Self::of(Some(reason), &partial)
            }
            Err(e) => panic!("a matrix row failed to drain: {e}"),
        }
    }

    /// The digest of session `id` among a scheduler's outcomes.
    fn of_outcome(outcomes: &[(SessionId, SessionOutcome)], id: SessionId) -> Self {
        match outcomes.iter().find(|(done, _)| *done == id) {
            Some((_, SessionOutcome::Finished(report))) => Self::of(None, report),
            Some((_, SessionOutcome::Exhausted { reason, partial })) => {
                Self::of(Some(*reason), partial)
            }
            None => panic!("session {id} never ended"),
        }
    }
}

/// One scheduler event: a step, or the terminal report.
#[derive(Debug, PartialEq)]
enum Seen {
    Step(StepBits),
    End(Digest),
}

fn seen(event: &SessionEvent) -> Seen {
    match event {
        SessionEvent::StepCompleted(step) => Seen::Step(step_bits(step)),
        SessionEvent::Finished(report) => Seen::End(Digest::of(None, report)),
        SessionEvent::BudgetExhausted { reason, partial } => {
            Seen::End(Digest::of(Some(*reason), partial))
        }
    }
}

/// A `done` frame without its session id and billed time, mean quality as
/// bits.
type DoneBits = (String, Option<String>, String, String, usize, u64, u64);

fn done_bits(d: &DoneFrame) -> DoneBits {
    (
        d.status.clone(),
        d.reason.clone(),
        d.system.clone(),
        d.case.clone(),
        d.steps,
        d.mean_quality.to_bits(),
        d.total_evaluations,
    )
}

/// One row to build: system, case, scale, stop and replicate count.
type Plan = (&'static str, &'static str, f64, Stop, usize);

/// Where a row's run stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    Finish,
    MaxSteps(usize),
    MaxEvaluations(u64),
}

/// One row: a spec and its serial reference.
struct Row {
    system: &'static str,
    spec: RunSpec,
    stop: Stop,
    /// Its batches exceed the inline threshold.
    dispatched: bool,
    reference: RunReport,
}

impl Row {
    /// Row `i` of the plan, with its reference run. A row is the last
    /// replicate of its spec.
    fn new(i: usize, (name, case, scale, stop, replicates): Plan) -> Self {
        let seed = 40 + i as u64;
        // The seed `RunSpec` derives for that replicate.
        let last = replicates as u64 - 1;
        let replicate_seed = seed.wrapping_add(last.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let system = systems::resolve(name).expect("a registry row");
        let mut burn = cases::by_name(case).expect("a named case");
        let steps = burn.intervals() - 1;
        // A step budget ends the reference where it ends the run: the case
        // keeps only the intervals those steps observe and predict.
        if let Stop::MaxSteps(n) = stop {
            burn.times.truncate(n + 2);
        }
        let reference = PredictionPipeline::new(EvalBackend::Serial, replicate_seed)
            .run(&burn, &mut *system.make(scale));
        // Distinct weights and deadlines give every policy an order to
        // impose, and the weighted one lone rounds; no deadline fires.
        let spec = RunSpec::new(name, case)
            .scale(scale)
            .seed(seed)
            .replicates(replicates)
            .weight(1.0 + i as f64)
            .deadline_ms(3_600_000 + i as u64 * 600_000);
        let row = Row {
            system: system.name,
            spec: match stop {
                Stop::Finish => spec,
                Stop::MaxSteps(n) => spec.max_steps(n),
                Stop::MaxEvaluations(n) => spec.max_evaluations(n),
            },
            stop,
            dispatched: case == "gusty_channel",
            reference,
        };
        assert!(
            matches!(stop, Stop::Finish) == (row.expected().steps.len() == steps),
            "{name} on {case}: a budget must stop the run early, and only a budget"
        );
        row
    }

    /// The reference's steps the row runs, and how it ends.
    fn expected_report(&self) -> (Option<BudgetReason>, RunReport) {
        let steps = &self.reference.steps;
        let (end, len) = match self.stop {
            Stop::Finish => (None, steps.len()),
            Stop::MaxSteps(n) => (Some(BudgetReason::MaxSteps), n),
            Stop::MaxEvaluations(max) => {
                let mut spent = 0;
                let under = steps.iter().take_while(|s| {
                    spent += s.evaluations;
                    spent < max
                });
                (Some(BudgetReason::MaxEvaluations), under.count() + 1)
            }
        };
        let report = RunReport {
            system: self.system,
            steps: steps[..len.min(steps.len())].to_vec(),
            ..self.reference.clone()
        };
        (end, report)
    }

    /// The row's session on a serial pool of its own.
    fn session(&self) -> PredictionSession {
        let pool = Arc::new(SharedScenarioPool::new(EvalBackend::Serial));
        let mut sessions = self.spec.sessions_on(&pool).expect("row resolves");
        sessions.pop().expect("a replicate")
    }

    fn expected(&self) -> Digest {
        let (end, report) = self.expected_report();
        Digest::of(end, &report)
    }

    /// The `done` frame the wire owes this row.
    fn expected_done(&self) -> DoneBits {
        let (end, report) = self.expected_report();
        let status = match end {
            None => "finished",
            Some(BudgetReason::Cancelled) => "cancelled",
            Some(_) => "exhausted",
        };
        (
            status.to_string(),
            end.map(|r| r.to_string()),
            report.system.to_string(),
            report.case.to_string(),
            report.steps.len(),
            report.mean_quality().to_bits(),
            report.total_evaluations(),
        )
    }

    fn check(&self, column: &str, got: &Digest) {
        let (system, case) = (self.system, self.reference.case);
        assert_eq!(got, &self.expected(), "{column}: {system} on {case}");
    }
}

/// Every row, its reference computed once per test binary.
fn rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let small = |name, stop, replicates| (name, "meadow_small", 0.15, stop, replicates);
        let paper = systems::all().iter().map(|s| s.name);
        let mut plan: Vec<Plan> = paper
            .clone()
            .map(|name| small(name, Stop::Finish, 1))
            .collect();
        // A §IV variant row, as the second replicate of its spec.
        plan.push(small("ESS-NS/w=0.50", Stop::Finish, 2));
        // Both countable budgets, each firing mid-run.
        plan.push(small("ESS", Stop::MaxSteps(2), 1));
        plan.push(small("ESSIM-DE", Stop::MaxEvaluations(120), 1));
        // At scale 0.6 an ESS or ESS-NS generation is a 19-row batch and
        // an ESSIM island generation a 21-row one.
        plan.extend(paper.map(|name| (name, "gusty_channel", 0.6, Stop::MaxSteps(1), 1)));
        plan.into_iter()
            .enumerate()
            .map(|(i, row)| Row::new(i, row))
            .collect()
    })
}

/// The rows every column runs.
fn inline_rows() -> Vec<&'static Row> {
    rows().iter().filter(|row| !row.dispatched).collect()
}

/// Submits `rows`; their sessions' ids in row order.
fn submit(scheduler: &mut Scheduler, rows: &[&Row]) -> Vec<SessionId> {
    rows.iter()
        .map(|row| {
            let ids = scheduler.submit(&row.spec).expect("row resolves");
            *ids.last().expect("a replicate")
        })
        .collect()
}

/// FNV-1a over a digest: names, ending and every step's bits.
fn fingerprint(digest: &Digest) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(digest.system.as_bytes());
    eat(digest.case.as_bytes());
    eat(format!("{:?}", digest.end).as_bytes());
    for (quality, bits) in &digest.steps {
        eat(&quality.map_or([0xff; 8], u64::to_le_bytes));
        for b in bits {
            eat(&b.to_le_bytes());
        }
    }
    hash
}

/// Every row's expected digest, fingerprinted, in plan order. A change
/// that moves every column at once — how the evaluator answers a genome,
/// how the stage tail folds a result set — passes every differential
/// cell, so the references themselves are pinned. When the numbers are
/// meant to move, the failure prints the new list.
const PINNED: [u64; 11] = [
    0x0c19_df63_4862_30a4,
    0xc66f_b771_3578_2a94,
    0x6c2e_5e11_1cb3_7aa3,
    0xafae_667b_b446_1f3d,
    0x9f27_e026_f564_b9d4,
    0x8b4d_2764_b30f_1677,
    0x97c7_d44a_bd18_4d0e,
    0x214e_44ba_b371_7b39,
    0x82a6_3ead_dea2_f71f,
    0xe474_c798_422c_bad5,
    0x0044_087f_5287_6ee5,
];

/// The references: each row's expected digest is the pinned one.
#[test]
fn every_reference_is_pinned() {
    let got: Vec<u64> = rows()
        .iter()
        .map(|row| fingerprint(&row.expected()))
        .collect();
    assert_eq!(got, PINNED, "reference fingerprints moved: {got:#018x?}");
}

/// Column: the row's session drained on its own serial pool.
#[test]
fn a_drained_session_is_its_reference() {
    for row in rows() {
        let drained = row.session().drain();
        row.check("session.drain()", &Digest::of_drain(drained));
    }
}

/// Column: one scheduler fleet per BACKENDS × PolicyKind::ALL × FUSED.
/// Fleets that differ only in fusion run in lockstep, and every round must
/// step the same sessions to the same events.
#[test]
fn a_fleet_is_its_references_on_every_backend_policy_and_fusion() {
    for backend in BACKENDS {
        for policy in PolicyKind::ALL {
            let dispatching = backend.workers() > 1 && policy == PolicyKind::ALL[0];
            let rows: Vec<&Row> = rows()
                .iter()
                .filter(|row| dispatching || !row.dispatched)
                .collect();
            let mut fleets: Vec<(Scheduler, Vec<SessionId>)> = FUSED
                .iter()
                .map(|&fused| {
                    let mut scheduler = Scheduler::with_policy(backend, policy);
                    scheduler.set_fused(fused);
                    let ids = submit(&mut scheduler, &rows);
                    (scheduler, ids)
                })
                .collect();
            let mut round = 0;
            while fleets.iter().any(|(s, _)| s.live_count() > 0) {
                // Keyed by session: deadline-first orders by wall-clock
                // time left, so equal deadlines tie on clock readings.
                let events: Vec<BTreeMap<SessionId, Seen>> = fleets
                    .iter_mut()
                    .map(|(s, _)| s.round().iter().map(|(id, e)| (*id, seen(e))).collect())
                    .collect();
                for (fused, got) in FUSED.iter().zip(&events).skip(1) {
                    let at = format!("{backend} {policy}, round {round}, fused={fused}");
                    assert_eq!(got, &events[0], "{at}");
                }
                round += 1;
            }
            for ((scheduler, ids), fused) in fleets.iter().zip(FUSED) {
                let column = format!("fleet {backend} {policy} fused={fused}");
                for (row, &id) in rows.iter().zip(ids) {
                    row.check(&column, &Digest::of_outcome(scheduler.outcomes(), id));
                }
            }
        }
    }
}

/// Column: a checkpoint at every step k, through the snapshot's JSON text
/// and back, restored onto each backend's pool in turn and drained.
#[test]
fn a_session_resumed_from_any_step_is_its_reference() {
    let pools = BACKENDS.map(|b| Arc::new(SharedScenarioPool::new(b)));
    for row in inline_rows() {
        let mut session = row.session();
        for k in 0..=row.expected().steps.len() {
            let text = session.snapshot().expect("spec-built").to_json();
            let json = Json::parse(&text.to_string()).expect("valid JSON");
            let snapshot = SessionSnapshot::from_json(&json).expect("a snapshot parses");
            assert_eq!(snapshot.completed(), k);
            let pool = &pools[k % pools.len()];
            let resumed = snapshot.restore_on(pool).expect("restores").drain();
            let column = format!("checkpoint at step {k} onto {}", pool.name());
            row.check(&column, &Digest::of_drain(resumed));
            session.advance();
        }
    }
}

/// Column: every row next to a peer, a copy of the first row, that a
/// `drain_controlled` callback cancels after round 1.
#[test]
fn a_cancelled_peer_perturbs_no_row() {
    let rows = inline_rows();
    for fused in FUSED {
        let mut scheduler = Scheduler::new(SHARED);
        scheduler.set_fused(fused);
        let ids = submit(&mut scheduler, &rows);
        let peer = submit(&mut scheduler, &rows[..1])[0];
        let outcomes = scheduler.drain_controlled(|id, event| match event {
            SessionEvent::StepCompleted(_) if id == peer => DrainSignal::Cancel(peer),
            _ => DrainSignal::Continue,
        });
        let column = format!("cancelled peer, fused={fused}");
        for (row, &id) in rows.iter().zip(&ids) {
            row.check(&column, &Digest::of_outcome(outcomes, id));
        }
        let mut cancelled = rows[0].expected();
        cancelled.end = Some(BudgetReason::Cancelled);
        cancelled.steps.truncate(1);
        let got = Digest::of_outcome(outcomes, peer);
        assert_eq!(got, cancelled, "{column}: the peer itself");
    }
}

/// Column: the wire. `serve_configured` driven by `ess_client::Client`
/// over in-memory pipes; every row runs twice, once straight through and
/// once checkpointed after round 1, killed and resumed from its snapshot.
/// Both `done` frames must be the reference's.
#[test]
fn the_wire_reports_every_reference() {
    let rows = inline_rows();
    for fused in FUSED {
        let (request_tx, request_rx) = pipe::duplex();
        let (frame_tx, frame_rx) = pipe::duplex();
        let server = thread::spawn(move || {
            let requests = BufReader::new(request_rx);
            serve_configured(requests, frame_tx, SHARED, PolicyKind::ALL[0], fused)
        });
        let mut client = Client::new(BufReader::new(frame_rx), request_tx);
        let mut run = |row: &&Row| {
            let ids = client.run(&row.spec, false).expect("accepted");
            *ids.last().expect("a replicate")
        };
        let straight: Vec<SessionId> = rows.iter().map(&mut run).collect();
        let killed: Vec<SessionId> = rows.iter().map(&mut run).collect();
        client.advance(1).expect("one round");
        let mut resume = |id| {
            let snapshot = client.snapshot(id).expect("a live session snapshots");
            client.cancel(id).expect("kill");
            client.restore(&snapshot, false).expect("resume")
        };
        let resumed: Vec<SessionId> = killed.into_iter().map(&mut resume).collect();
        client.drain().expect("drain");
        let events = client.take_events();
        client.quit().expect("quit");
        server.join().expect("serve thread").expect("serve I/O");
        for (path, ids) in [("straight", straight), ("resumed", resumed)] {
            for (row, id) in rows.iter().zip(ids) {
                let done = events.iter().find_map(|frame| match frame {
                    Frame::Done(d) if d.session == id => Some(done_bits(d)),
                    _ => None,
                });
                let at = format!("wire fused={fused}, {path}: {}", row.system);
                assert_eq!(done, Some(row.expected_done()), "{at}");
            }
        }
    }
}
