//! Property test (seeded loop, repo style): the jsonio pretty printer and
//! the strict parser round-trip **every** v2 envelope kind — requests and
//! frames, with hostile strings (escapes, control characters, unicode),
//! extreme-but-finite floats, and nested snapshot payloads — and the
//! re-canonicalised compact form is byte-for-byte stable:
//! `parse(pretty(x)).to_string() == x.to_string()`.

use ess_service::jsonio::Json;
use ess_service::proto::{DoneFrame, Frame, Reply, Request, RequestKind};
use ess_service::{systems, RunSpec, SessionSnapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A string that stresses the escaper: quotes, backslashes, newlines,
/// tabs, control characters, unicode, and `\uXXXX`-escapable points.
fn hostile_string(rng: &mut StdRng) -> String {
    let alphabet: &[&str] = &[
        "a", "Z", "7", " ", "\"", "\\", "\n", "\r", "\t", "\u{0001}", "\u{001f}", "é", "🔥", "{",
        "}", "[", "]", ":", ",", "null", "\\u0041",
    ];
    let len = rng.random_range(0..12usize);
    (0..len)
        .map(|_| alphabet[rng.random_range(0..alphabet.len())])
        .collect()
}

/// A finite f64 across many magnitudes (including negative zero, exact
/// integers, and subnormal-adjacent values).
fn finite_f64(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..6u32) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.random_range(0..1_000_000u64) as f64, // exact integer
        3 => rng.random::<f64>(),                      // [0, 1)
        4 => rng.random::<f64>() * 1e12 - 5e11,
        _ => rng.random::<f64>() * 1e-9,
    }
}

/// A random valid spec (names must resolve because snapshots validate).
/// Seeds cover the whole range the wire carries exactly, 2^53 — the
/// largest one `RunSpec::validate` admits — included.
fn random_spec(rng: &mut StdRng) -> RunSpec {
    let systems = systems::all();
    let seed = match rng.random_range(0..8u32) {
        0 => 1 << 53,
        _ => rng.random::<u64>() >> 11,
    };
    let mut spec = RunSpec::new(
        systems[rng.random_range(0..systems.len())].name,
        "meadow_small",
    )
    .seed(seed)
    .replicates(1 + rng.random_range(0..4usize))
    .scale(0.05 + rng.random::<f64>())
    .weight(0.5 + rng.random::<f64>() * 4.0);
    if rng.random_bool(0.5) {
        spec = spec.max_steps(1 + rng.random_range(0..9usize));
    }
    if rng.random_bool(0.5) {
        spec = spec.max_evaluations(1 + (rng.random::<u64>() >> 40));
    }
    if rng.random_bool(0.5) {
        spec = spec.deadline_ms(1 + (rng.random::<u64>() >> 44));
    }
    spec
}

/// A random snapshot: a real session advanced a random number of steps.
/// (Building it from a live session keeps the steps internally
/// consistent, which `SessionSnapshot::from_json` enforces.)
fn random_snapshot(rng: &mut StdRng) -> SessionSnapshot {
    let spec = random_spec(rng);
    let mut session = spec.session().expect("random spec resolves");
    let advances = rng.random_range(0..3usize);
    for _ in 0..advances {
        if session.is_done() {
            break;
        }
        session.advance();
    }
    session.snapshot().expect("spec-built session snapshots")
}

fn random_request(rng: &mut StdRng) -> Request {
    let id = rng.random::<u64>() >> 12;
    let kind = match rng.random_range(0..7u32) {
        0 => RequestKind::Run {
            spec: random_spec(rng),
            watch: rng.random_bool(0.5),
        },
        1 => RequestKind::Restore {
            snapshot: random_snapshot(rng),
            watch: rng.random_bool(0.5),
        },
        2 => RequestKind::Advance {
            rounds: rng.random_range(0..1000usize),
        },
        3 => RequestKind::Snapshot {
            session: rng.random::<u64>() >> 12,
        },
        4 => RequestKind::Cancel {
            session: rng.random::<u64>() >> 12,
        },
        5 => RequestKind::Drain,
        _ => RequestKind::Quit,
    };
    Request { id, kind }
}

fn random_frame(rng: &mut StdRng) -> Frame {
    match rng.random_range(0..9u32) {
        0 => Frame::Progress {
            session: rng.random::<u64>() >> 12,
            step: rng.random_range(0..100usize),
            evaluations: rng.random::<u64>() >> 20,
            best: finite_f64(rng),
        },
        1 => Frame::Done(DoneFrame {
            session: rng.random::<u64>() >> 12,
            status: ["finished", "exhausted", "cancelled"][rng.random_range(0..3usize)].into(),
            reason: if rng.random_bool(0.5) {
                Some(hostile_string(rng))
            } else {
                None
            },
            system: hostile_string(rng),
            case: hostile_string(rng),
            steps: rng.random_range(0..50usize),
            mean_quality: finite_f64(rng),
            total_evaluations: rng.random::<u64>() >> 20,
            wall_ms: finite_f64(rng).abs(),
        }),
        n => Frame::Reply {
            id: rng.random::<u64>() >> 12,
            reply: match n {
                2 => Reply::Accepted {
                    sessions: (0..rng.random_range(0..6usize))
                        .map(|_| rng.random::<u64>() >> 12)
                        .collect(),
                },
                3 => Reply::Advanced {
                    rounds: rng.random_range(0..100usize),
                    live: rng.random_range(0..100usize),
                },
                4 => Reply::Snapshot {
                    session: rng.random::<u64>() >> 12,
                    snapshot: Box::new(random_snapshot(rng)),
                },
                5 => Reply::Cancelled {
                    session: rng.random::<u64>() >> 12,
                },
                6 => Reply::Drained {
                    sessions: rng.random_range(0..100usize),
                },
                7 => Reply::Bye,
                _ => Reply::Error {
                    message: hostile_string(rng),
                },
            },
        },
    }
}

/// The core property: pretty → strict parse reproduces the value tree,
/// and re-canonicalising gives the compact form byte-for-byte.
fn assert_round_trip(json: &Json, context: &str) {
    let compact = json.to_string();
    let pretty = json.to_pretty();
    let from_pretty = Json::parse(&pretty)
        .unwrap_or_else(|e| panic!("{context}: pretty output must parse: {e}\n{pretty}"));
    assert_eq!(&from_pretty, json, "{context}: pretty round trip");
    assert_eq!(
        from_pretty.to_string(),
        compact,
        "{context}: re-canonicalised compact form must be byte-identical"
    );
    let from_compact = Json::parse(&compact)
        .unwrap_or_else(|e| panic!("{context}: compact output must parse: {e}\n{compact}"));
    assert_eq!(&from_compact, json, "{context}: compact round trip");
}

#[test]
fn every_request_kind_round_trips_through_pretty_and_compact() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for i in 0..200 {
        let request = random_request(&mut rng);
        let json = request.to_json();
        assert_round_trip(&json, &format!("request {i} ({request:?})"));
        // And the typed layer agrees with the value layer.
        let reparsed = Request::from_json(&Json::parse(&json.to_pretty()).expect("parses"))
            .unwrap_or_else(|e| panic!("request {i}: typed parse failed: {e}"));
        assert_eq!(reparsed, request, "request {i}: typed round trip");
    }
}

#[test]
fn every_frame_kind_round_trips_through_pretty_and_compact() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for i in 0..300 {
        let frame = random_frame(&mut rng);
        let json = frame.to_json();
        assert_round_trip(&json, &format!("frame {i}"));
        let reparsed = Frame::from_json(&Json::parse(&json.to_pretty()).expect("parses"))
            .unwrap_or_else(|e| panic!("frame {i}: typed parse failed: {e}"));
        assert_eq!(reparsed, frame, "frame {i}: typed round trip");
    }
}

#[test]
fn hostile_json_values_round_trip_byte_for_byte() {
    // Raw value-tree fuzzing under the same property, so the printer and
    // parser agree beyond the envelope shapes too.
    let mut rng = StdRng::seed_from_u64(0xFACADE);
    for i in 0..500 {
        let value = random_value(&mut rng, 0);
        assert_round_trip(&value, &format!("value {i}"));
    }
}

fn random_value(rng: &mut StdRng, depth: usize) -> Json {
    let leaf_only = depth >= 4;
    match rng.random_range(0..if leaf_only { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.random_bool(0.5)),
        2 => Json::Num(finite_f64(rng)),
        3 => Json::Str(hostile_string(rng)),
        4 => Json::Arr(
            (0..rng.random_range(0..4usize))
                .map(|_| random_value(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.random_range(0..4usize))
                .map(|k| {
                    (
                        format!("{}{k}", hostile_string(rng)),
                        random_value(rng, depth + 1),
                    )
                })
                .collect(),
        ),
    }
}
