//! Wire conformance: every output line is a v2 frame — replies, async
//! events, the EOF-implied drain/quit (also on an empty input) and the
//! answers to garbage, envelope-less objects, retired v1 lines, specs
//! naming a retired execution member, a mistyped `watch` and a snapshot
//! whose carried `kign` is no probability.

#![allow(
    clippy::disallowed_macros,
    clippy::expect_used,
    clippy::panic,
    reason = "a test's asserts are its checks, and helpers outside a #[test] fn fail the test they serve as an assert in it would"
)]

use ess::fitness::EvalBackend;
use ess_service::jsonio::Json;
use ess_service::proto::{Frame, Reply};
use ess_service::serve::{serve_configured, ServeSummary};
use ess_service::{PolicyKind, RunSpec};

/// One serve run on a serial pool under the default policy, unfused.
fn serve(script: &[u8], out: &mut Vec<u8>) -> ServeSummary {
    serve_configured(
        script,
        out,
        EvalBackend::Serial,
        PolicyKind::RoundRobin,
        false,
    )
    .expect("serve I/O")
}

/// The output split into frames; any line that is not a v2 frame fails
/// the test.
fn frames(text: &str) -> Vec<Frame> {
    text.lines()
        .map(|line| {
            let json = Json::parse(line).expect("every line parses");
            Frame::from_json(&json).unwrap_or_else(|e| panic!("non-v2 line: {line} ({e})"))
        })
        .collect()
}

#[test]
fn pure_v2_connections_get_v2_frames_even_at_eof() {
    // No explicit drain/quit: EOF implies both.
    let script = concat!(
        r#"{"v":2,"id":1,"kind":"run","watch":true,"spec":{"system":"ESS","case":"meadow_small","seed":4,"scale":0.15,"max_steps":1}}"#,
        "\n",
    );
    let mut out = Vec::new();
    let summary = serve(script.as_bytes(), &mut out);
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.exhausted, 1);
    let text = String::from_utf8(out).expect("utf-8");
    frames(&text);
    assert!(text.contains(r#""kind":"progress""#), "{text}");
    assert!(text.contains(r#""kind":"done""#), "{text}");
    assert!(text.contains(r#""kind":"drained""#), "{text}");
    assert!(text.contains(r#""kind":"bye""#), "{text}");
}

#[test]
fn dialectless_garbage_does_not_flip_a_v2_connection_to_v1() {
    // A corrupted line and a no-envelope object between valid v2 requests
    // must be answered as v2 errors, like everything else on the wire.
    let script = concat!(
        r#"{"v":2,"id":1,"kind":"run","spec":{"system":"ESS","case":"meadow_small","scale":0.15,"max_steps":1}}"#,
        "\n",
        "not json at all\n",
        r#"{"typo":1}"#,
        "\n",
    );
    let mut out = Vec::new();
    let summary = serve(script.as_bytes(), &mut out);
    assert_eq!(summary.errors, 2);
    let text = String::from_utf8(out).expect("utf-8");
    frames(&text);
    assert!(text.contains(r#""kind":"bye""#), "{text}");
}

#[test]
fn retired_v1_lines_and_stray_objects_get_v2_error_frames() {
    // An old v1 request, an envelope-less object, three `run`s whose spec
    // says how to execute (a request may only say what to predict) and one
    // whose `watch` is not a boolean, between valid v2 requests: one v2
    // `error` frame each, no session created, and the v2 session is
    // unharmed.
    let script = concat!(
        r#"{"v":2,"id":1,"kind":"run","spec":{"system":"ESS","case":"meadow_small","scale":0.15,"max_steps":1}}"#,
        "\n",
        r#"{"op":"run","id":7,"system":"ESS","case":"meadow_small","scale":0.15,"max_steps":1}"#,
        "\n",
        r#"{"typo":1}"#,
        "\n",
        r#"{"v":2,"id":8,"kind":"run","spec":{"system":"ESS","case":"meadow_small","kernel":"tiled:1x4096"}}"#,
        "\n",
        r#"{"v":2,"id":9,"kind":"run","spec":{"system":"ESS","case":"meadow_small","novelty":"sorted"}}"#,
        "\n",
        r#"{"v":2,"id":10,"kind":"run","spec":{"system":"ESS","case":"meadow_small","backend":"serial"}}"#,
        "\n",
        r#"{"v":2,"id":11,"kind":"run","watch":"yes","spec":{"system":"ESS","case":"meadow_small"}}"#,
        "\n",
        r#"{"v":2,"id":2,"kind":"drain"}"#,
        "\n",
    );
    let mut out = Vec::new();
    let summary = serve(script.as_bytes(), &mut out);
    assert_eq!(summary.errors, 6);
    assert_eq!((summary.accepted, summary.exhausted), (1, 1));
    let text = String::from_utf8(out).expect("utf-8");
    let errors: Vec<(u64, String)> = frames(&text)
        .into_iter()
        .filter_map(|frame| match frame {
            Frame::Reply {
                id,
                reply: Reply::Error { message },
            } => Some((id, message)),
            _ => None,
        })
        .collect();
    // The line's own id is echoed when it has one, else 0.
    let ids: Vec<u64> = errors.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, [7, 0, 8, 9, 10, 11], "{text}");
    for (_, message) in &errors[..2] {
        assert!(message.contains("v1 was retired"), "{message}");
        assert!(message.contains(r#"{"v":2,"#), "{message}");
    }
    for ((_, message), member) in errors[2..5].iter().zip(["kernel", "novelty", "backend"]) {
        let needle = format!("unknown spec member '{member}'");
        assert!(message.contains(&needle), "{message}");
    }
    assert_eq!(errors[5].1, "'watch' must be a boolean");
    assert!(text.contains(r#""kind":"done","session":1"#), "{text}");
    assert!(!text.contains(r#""session":2"#), "{text}");
}

#[test]
fn a_snapshot_with_a_corrupt_kign_is_one_error_frame_and_the_loop_carries_on() {
    // A checkpoint edited so that its last step carries `kign` 7.5 must be
    // refused at `restore` — not accepted and left to panic the serve
    // thread in the next step's Prediction Stage. The untouched snapshot
    // on the next line restores and drains as usual.
    let mut session = RunSpec::new("ESS", "meadow_small")
        .scale(0.15)
        .max_steps(2)
        .session()
        .expect("spec resolves");
    session.advance();
    let good = session.snapshot().expect("snapshots").to_json().to_string();
    let kign = good.find(r#""kign":"#).expect("a step carries kign") + r#""kign":"#.len();
    let end = kign + good[kign..].find(',').expect("more members follow");
    let corrupt = format!("{}7.5{}", &good[..kign], &good[end..]);
    let script = format!(
        "{{\"v\":2,\"id\":1,\"kind\":\"restore\",\"snapshot\":{corrupt}}}\n\
         {{\"v\":2,\"id\":2,\"kind\":\"restore\",\"snapshot\":{good}}}\n\
         {{\"v\":2,\"id\":3,\"kind\":\"drain\"}}\n"
    );
    let mut out = Vec::new();
    let summary = serve(script.as_bytes(), &mut out);
    assert_eq!(summary.errors, 1);
    assert_eq!((summary.accepted, summary.restored), (1, 1));
    let text = String::from_utf8(out).expect("utf-8");
    let frames = frames(&text);
    assert!(
        matches!(
            &frames[0],
            Frame::Reply { id: 1, reply: Reply::Error { message } }
                if message.contains("step 1 carries kign 7.5 outside [0, 1]")
        ),
        "{text}"
    );
    assert!(text.contains(r#""kind":"done","session":1"#), "{text}");
    assert!(text.contains(r#""kind":"drained""#), "{text}");
}

#[test]
fn empty_input_still_answers_in_v2() {
    let mut out = Vec::new();
    let summary = serve(b"", &mut out);
    assert_eq!(summary, Default::default());
    assert_eq!(
        frames(&String::from_utf8(out).expect("utf-8")),
        [
            Frame::Reply {
                id: 0,
                reply: Reply::Drained { sessions: 0 }
            },
            Frame::Reply {
                id: 0,
                reply: Reply::Bye
            },
        ]
    );
}
