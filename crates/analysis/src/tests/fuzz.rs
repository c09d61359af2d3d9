//! Seeded structured-mutation fuzzing for the parsing surface.
//!
//! Three targets, all driven from one deterministic [`rand::StdRng`]
//! stream (same seed → same inputs, so a CI failure replays locally):
//!
//! - [`fuzz_jsonio`] — `Json::parse` on valid documents, mutated
//!   documents (truncation, byte flips, splices) and crafted hostiles
//!   (depth bombs, unpaired surrogates, duplicate keys, huge numbers,
//!   raw control bytes). The parser must return `Ok`/`Err`, never panic,
//!   and every `Ok` must round-trip (`to_string` → reparse → equal) in
//!   both compact and pretty renderings.
//! - [`fuzz_envelopes`] — the v2 envelope surface: `Request::from_json`,
//!   `Frame::from_json` and `RunSpec::from_json` over mutated envelopes.
//!   Same contract: clean errors, no panics.
//! - [`fuzz_serve_loop`] — hostile byte lines straight into the real
//!   serve loop; it must answer every line and reach the EOF path without
//!   admitting a session or dying.

use super::SEED;
use ess::fitness::EvalBackend;
use ess_service::jsonio::Json;
use ess_service::policy::PolicyKind;
use ess_service::proto::{Frame, Request, RequestKind};
use ess_service::serve::serve_configured;
use ess_service::spec::RunSpec;
use ess_service::systems;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Counters from one fuzz loop.
#[derive(Debug, Clone, Copy, Default)]
struct FuzzStats {
    /// Inputs fed to the target.
    inputs: u64,
    /// Inputs the parser accepted.
    accepted: u64,
    /// Inputs the parser rejected with a clean error.
    rejected: u64,
}

/// Key alphabet for generated objects. Deliberately disjoint from every
/// protocol keyword (`v`, `id`, `kind`, `system`, …) so a generated line
/// can never accidentally be a well-formed request — [`fuzz_serve_loop`]
/// relies on that to assert `accepted == 0`.
const KEYS: &[&str] = &["k0", "k1", "k2", "zz", "qq", "xx"];

/// Builds a random valid document of bounded depth.
fn gen_doc(rng: &mut StdRng, depth: usize) -> Json {
    let pick = if depth == 0 {
        rng.random_range(0..4u32)
    } else {
        rng.random_range(0..6u32)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.random_range(0..2u32) == 0),
        2 => {
            // Mix of magnitudes, signs and fractions.
            let mag = rng.random_range(-12i64..13) as f64;
            Json::Num((rng.random_range(-1.0..1.0) * 10f64.powf(mag) * 1e6).round() / 1e6)
        }
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = rng.random_range(0..4usize);
            Json::Arr((0..n).map(|_| gen_doc(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.random_range(0..4usize);
            Json::Obj(
                (0..n)
                    .map(|_| {
                        (
                            KEYS[rng.random_range(0..KEYS.len())].to_string(),
                            gen_doc(rng, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

/// Strings that stress the escape paths: quotes, backslashes, newlines,
/// control characters, astral-plane and boundary code points.
fn gen_string(rng: &mut StdRng) -> String {
    const POOL: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\t',
        '\r',
        '\u{0}',
        '\u{1}',
        '\u{1f}',
        '\u{7f}',
        'é',
        'ß',
        '中',
        '\u{1F525}',
        '\u{FFFD}',
        '\u{E000}',
        '\u{D7FF}',
    ];
    let n = rng.random_range(0..10usize);
    (0..n)
        .map(|_| POOL[rng.random_range(0..POOL.len())])
        .collect()
}

/// Mutates a rendering into hostile bytes. Returns a lossy string — the
/// parser takes `&str`, and invalid UTF-8 from byte flips degrades to
/// replacement characters, which is itself a hostile shape.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.random_range(0..8u32) {
        // Truncation — mid-token, mid-string, mid-escape.
        0 => {
            if !bytes.is_empty() {
                bytes.truncate(rng.random_range(0..bytes.len()));
            }
        }
        // Byte flips.
        1 => {
            for _ in 0..rng.random_range(1..4u32) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= 1 << rng.random_range(0..8u32);
            }
        }
        // Splice random bytes in.
        2 => {
            let at = rng.random_range(0..bytes.len() + 1);
            let garbage: Vec<u8> = (0..rng.random_range(1..6usize))
                .map(|_| rng.random_range(0..256u32) as u8)
                .collect();
            bytes.splice(at..at, garbage);
        }
        // Depth bomb: nest far past MAX_DEPTH.
        3 => {
            let n = rng.random_range(130..400usize);
            let mut s = "[".repeat(n);
            s.push_str(text);
            s.push_str(&"]".repeat(n));
            return s;
        }
        // Unpaired surrogate escapes (must be rejected, not decoded).
        4 => {
            let tail: String = text
                .chars()
                .take(8)
                .filter(|c| *c != '"' && *c != '\\')
                .collect();
            return format!(r#"{{"k0":"\ud800{tail}"}}"#);
        }
        // Duplicate keys.
        5 => return format!(r#"{{"k0":1,"k0":{text}}}"#),
        // Numeric edge cases.
        6 => {
            const NUMS: &[&str] = &[
                "1e999",
                "-1e999",
                "1e-999",
                "99999999999999999999999999999999",
                "-0.0",
                "0.000000000000000000000001",
                "1e308",
                "2e308",
                "5e-324",
                "-5e-324",
            ];
            return format!(r#"[{}]"#, NUMS[rng.random_range(0..NUMS.len())]);
        }
        // Raw control bytes inside a string literal.
        _ => {
            let c = rng.random_range(0..0x20u32) as u8;
            return format!("{{\"k0\":\"{}\"}}", c as char);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One adversarial input per iteration: a fresh valid document (which
/// must parse and round-trip) or a mutation of one (which must parse or
/// error cleanly). `iterations` counts inputs.
///
/// # Errors
/// A description of the first panic or round-trip failure, with the
/// offending input.
fn fuzz_jsonio(seed: u64, iterations: u64) -> Result<FuzzStats, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = FuzzStats::default();
    for i in 0..iterations {
        let doc = gen_doc(&mut rng, 4);
        let rendered = doc.to_string();
        let input = if i % 3 == 0 {
            rendered.clone()
        } else {
            mutate(&mut rng, &rendered)
        };
        stats.inputs += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| Json::parse(&input)));
        match outcome {
            Err(_) => return Err(format!("Json::parse panicked on: {input}")),
            Ok(Ok(parsed)) => {
                stats.accepted += 1;
                // Canonicalization closure: print → reparse → print must be
                // a fixed point through both renderers. (Value equality is
                // too strong: `1e999` parses to an infinite Num, which the
                // writer deliberately renders as `null`; the *second*
                // rendering must then be stable.)
                let compact = parsed.to_string();
                let again = Json::parse(&compact)
                    .map_err(|e| format!("reparse of {compact} failed: {e}"))?;
                if again.to_string() != compact {
                    return Err(format!("round-trip changed the document: {input}"));
                }
                let pretty = again.to_pretty();
                let third = Json::parse(&pretty)
                    .map_err(|e| format!("pretty reparse of {input} failed: {e}"))?;
                if third.to_string() != compact {
                    return Err(format!("pretty round-trip changed the document: {input}"));
                }
            }
            Ok(Err(_)) => stats.rejected += 1,
        }
    }
    Ok(stats)
}

/// The name of every registry row: paper systems, then variants.
fn registry_rows() -> Vec<&'static str> {
    let rows = [systems::all(), &systems::variants().concat()].concat();
    rows.iter().map(|row| row.name).collect()
}

/// A plausible v2 request line to mutate (ids and minor fields vary).
fn gen_envelope(rng: &mut StdRng) -> String {
    let id = rng.random_range(0..100u64);
    match rng.random_range(0..8u32) {
        0 => {
            // Any registry row, spelt canonically, in an accepted alias, or
            // mangled into a name no row has.
            let rows = registry_rows();
            let row = rows[rng.random_range(0..rows.len())];
            let system = match rng.random_range(0..4u32) {
                0 => row.to_lowercase().replace('-', "_"),
                1 => format!("{row}/k=3"),
                2 => row.replacen(|c: char| c.is_ascii_digit(), "7", 1),
                _ => row.to_string(),
            };
            format!(
                r#"{{"v":2,"id":{id},"kind":"run","watch":true,"spec":{{"system":"{system}","case":"meadow_small","seed":7,"replicates":1,"scale":0.1,"max_steps":2}}}}"#
            )
        }
        1 => format!(
            r#"{{"v":2,"id":{id},"kind":"advance","rounds":{}}}"#,
            rng.random_range(0..9u32)
        ),
        2 => format!(
            r#"{{"v":2,"id":{id},"kind":"cancel","session":{}}}"#,
            rng.random_range(0..9u32)
        ),
        3 => format!(
            r#"{{"v":2,"id":{id},"kind":"snapshot","session":{}}}"#,
            rng.random_range(0..9u32)
        ),
        4 => format!(r#"{{"v":2,"id":{id},"kind":"drain"}}"#),
        5 => format!(
            r#"{{"v":2,"id":{id},"kind":"run","watch":"yes","spec":{{"system":"ESS","case":"meadow_small"}}}}"#
        ),
        6 => {
            // A checkpoint whose one completed step carries a `kign`, a
            // `generations` count and billed times that may or may not be
            // in range.
            const KIGNS: &[&str] = &[
                "0.5",
                "0",
                "1",
                "7.5",
                "-0.25",
                "1.0000000000000002",
                "1e308",
            ];
            const GENERATIONS: &[&str] = &["3", "4294967295", "4294967296", "9007199254740992"];
            const MILLIS: &[&str] = &["1.5", "0", "-0.5", "-1e308", "1e999"];
            let mut pick = |values: &[&'static str]| values[rng.random_range(0..values.len())];
            let (kign, generations) = (pick(KIGNS), pick(GENERATIONS));
            let (driven_ms, wall_ms) = (pick(MILLIS), pick(MILLIS));
            format!(
                r#"{{"v":2,"id":{id},"kind":"restore","snapshot":{{"format":"ess-session-snapshot/2","spec":{{"system":"ESS","case":"meadow_small","seed":7,"replicates":1,"scale":0.1,"max_steps":2}},"replicate":0,"driven_ms":{driven_ms},"steps":[{{"step":1,"quality":null,"kign":{kign},"calibration_fitness":0.5,"os_best_fitness":0.5,"diversity":{{"mean_pairwise":0.1,"mean_gene_std":0.1,"distinct":4,"size":4}},"evaluations":40,"generations":{generations},"wall_ms":{wall_ms}}}]}}}}"#
            )
        }
        _ => format!(
            r#"{{"v":2,"kind":"progress","session":{},"step":1,"evaluations":40,"best":-0.5}}"#,
            rng.random_range(0..9u32)
        ),
    }
}

/// Mutated protocol envelopes through every typed `from_json` surface.
/// Whatever the bytes, the decoders must answer `Ok` or `Err` — never
/// panic, never decode an envelope `Json::parse` rejected, and never take
/// a `run`/`restore` whose `watch` is present but not a boolean (a silent
/// `false` would unsubscribe the client). A decoded `restore` is also
/// restored: whatever the checkpoint says, that answers `Ok` or `Err`, and
/// never `Ok` with a carried `kign` the next step's Prediction Stage would
/// panic on, a negative or infinite billed time, or a `generations` count
/// other than the one sent. And whatever string a spec names as its
/// system, the registry's allocation-free lookup answers as the plain one
/// would: a hit is the row whose name, lower-cased with `_` read as `-`,
/// is the string's.
///
/// # Errors
/// A description of the first panic or contract violation, with the
/// offending input.
fn fuzz_envelopes(seed: u64, iterations: u64) -> Result<FuzzStats, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = FuzzStats::default();
    let rows = registry_rows();
    for i in 0..iterations {
        let line = gen_envelope(&mut rng);
        let input = if i % 4 == 0 {
            line
        } else {
            mutate(&mut rng, &line)
        };
        stats.inputs += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(doc) = Json::parse(&input) else {
                return Ok(false);
            };
            // Every typed decoder must tolerate every parsed document.
            let request = Request::from_json(&doc);
            let _ = Frame::from_json(&doc);
            let _ = RunSpec::from_json(&doc);
            let kind = request.map(|r| r.kind);
            let system = doc.get("spec").and_then(|spec| spec.get("system"));
            if let Some(name) = system.and_then(Json::as_str) {
                let plain = |s: &str| s.trim().to_ascii_lowercase().replace('_', "-");
                let expected = rows.iter().find(|row| plain(row) == plain(name));
                if systems::by_name(name).map(|row| row.name) != expected.copied() {
                    return Err("the registry lookup disagrees with plain normalisation");
                }
            }
            if let Ok(RequestKind::Restore { snapshot, .. }) = &kind {
                if let Ok(session) = snapshot.restore() {
                    let steps = session.steps();
                    if !steps.iter().all(|s| (0.0..=1.0).contains(&s.kign)) {
                        return Err("a 'kign' outside [0, 1] was restored");
                    }
                    let billed = |ms: f64| ms.is_finite() && ms >= 0.0;
                    let report = session.report();
                    if !(billed(report.total_ms) && steps.iter().all(|s| billed(s.wall_ms))) {
                        return Err("a negative or infinite billed time was restored");
                    }
                    let sent = doc
                        .get("snapshot")
                        .and_then(|s| s.get("steps"))
                        .and_then(Json::as_arr)
                        .unwrap_or_default()
                        .iter()
                        .map(|s| s.get("generations").and_then(Json::as_u64));
                    if !sent.eq(steps.iter().map(|s| Some(u64::from(s.generations)))) {
                        return Err("a 'generations' count other than the one sent was restored");
                    }
                }
            }
            let watched = matches!(
                kind,
                Ok(RequestKind::Run { .. } | RequestKind::Restore { .. })
            );
            let mistyped = doc.get("watch").is_some_and(|w| w.as_bool().is_none());
            if watched && mistyped {
                return Err("a non-boolean 'watch' was accepted");
            }
            Ok(true)
        }));
        match outcome {
            Err(_) => return Err(format!("envelope decoding panicked on: {input}")),
            Ok(Err(what)) => return Err(format!("{what}: {input}")),
            Ok(Ok(true)) => stats.accepted += 1,
            Ok(Ok(false)) => stats.rejected += 1,
        }
    }
    Ok(stats)
}

/// Hostile lines straight into the real serve loop. The generated keys
/// never collide with protocol keywords, so every line must be answered
/// with an error (or parsed-and-rejected) and the loop must reach its
/// EOF path with zero sessions admitted.
///
/// # Errors
/// A description of the first transport failure or contract violation.
fn fuzz_serve_loop(seed: u64, lines: u64) -> Result<FuzzStats, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = FuzzStats::default();
    let mut script = String::new();
    for _ in 0..lines {
        let doc = gen_doc(&mut rng, 3).to_string();
        let mutated = mutate(&mut rng, &doc);
        // One request per line: strip interior newlines the mutators may
        // have produced, and drop anything resembling a quit (ending the
        // loop early would skip the remaining hostile lines).
        let flat: String = mutated
            .chars()
            .filter(|c| *c != '\n' && *c != '\r')
            .collect();
        if flat.contains("quit") {
            continue;
        }
        stats.inputs += 1;
        script.push_str(&flat);
        script.push('\n');
    }
    let mut output = Vec::new();
    let summary = serve_configured(
        script.as_bytes(),
        &mut output,
        EvalBackend::Serial,
        PolicyKind::RoundRobin,
        false,
    )
    .map_err(|e| format!("serve loop died on hostile input: {e}"))?;
    if summary.accepted != 0 {
        return Err(format!(
            "hostile input admitted {} sessions",
            summary.accepted
        ));
    }
    // Every output line must itself be a well-formed v2 frame.
    for line in String::from_utf8_lossy(&output).lines() {
        if line.trim().is_empty() {
            continue;
        }
        super::protocol::parse_frame(line)
            .map_err(|e| format!("serve emitted a non-v2 line ({e}): {line}"))?;
    }
    stats.rejected = summary.errors as u64;
    Ok(stats)
}

#[test]
fn jsonio_survives_a_seeded_burst() {
    let stats = fuzz_jsonio(SEED, 20_000).expect("no panics");
    assert_eq!(stats.inputs, 20_000);
    // Both outcomes must actually occur or the generator is broken.
    assert!(stats.accepted > 1_000, "{stats:?}");
    assert!(stats.rejected > 1_000, "{stats:?}");
}

#[test]
fn envelopes_survive_a_seeded_burst() {
    let stats = fuzz_envelopes(SEED ^ 0x1111, 10_000).expect("no panics");
    assert_eq!(stats.inputs, 10_000);
    assert!(
        stats.accepted > 1_000 && stats.rejected > 1_000,
        "{stats:?}"
    );
}

#[test]
fn serve_loop_survives_hostile_lines() {
    let stats = fuzz_serve_loop(SEED ^ 0x2222, 400).expect("loop survives");
    assert_eq!(stats.inputs, 400, "{stats:?}");
    assert!(stats.rejected > 0, "{stats:?}");
}

#[test]
fn determinism_same_seed_same_outcome() {
    let a = fuzz_jsonio(42, 2_000).unwrap();
    let b = fuzz_jsonio(42, 2_000).unwrap();
    assert_eq!(
        (a.accepted, a.rejected),
        (b.accepted, b.rejected),
        "fuzz stream must be reproducible"
    );
}
