//! The harness CLI's argument errors, end to end: a bad invocation is one
//! line on stderr and exit 1, never a panic mid-experiment.

use std::process::Command;

#[test]
fn retired_timing_experiments_and_their_flag_are_unknown() {
    // E3 and E4 read a clock; they live in `cargo bench` and the
    // benchmark's per-layer readings, and the harness keeps no alias.
    for id in ["e3-speedup", "e4-throughput"] {
        let out = Command::new(env!("CARGO_BIN_EXE_harness"))
            .arg(id)
            .output()
            .expect("harness binary runs");
        assert_eq!(out.status.code(), Some(1), "{id}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("unknown experiment '{id}'\nusage: harness <")),
            "{stderr}"
        );
        assert!(!stderr.contains("|e3-speedup|"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing ran");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["e1-quality", "--workers", "2"])
        .output()
        .expect("harness binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("unknown flag --workers\n"), "{stderr}");
    assert!(out.stdout.is_empty(), "no table was started");
}

#[test]
fn scales_the_wire_rejects_are_rejected_before_any_experiment_runs() {
    // `RunSpec::validate` refuses these; the harness used to run every
    // system at the 4-genome floor instead (`NaN.max(4.0) == 4.0`).
    for scale in ["0", "-1", "nan", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(["e1-quality", "--scale", scale])
            .output()
            .expect("harness binary runs");
        assert_eq!(out.status.code(), Some(1), "--scale {scale}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("--scale must be a positive, finite number (got "),
            "{stderr}"
        );
        assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
        assert!(out.stdout.is_empty(), "no table was started");
    }
}

#[test]
fn usage_lists_every_experiment_and_says_who_reads_cases() {
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .output()
        .expect("harness binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let synopsis = stderr.lines().next().expect("a usage line");
    assert!(
        synopsis.contains("--cases a,b (E1 and E2 only"),
        "{synopsis}"
    );
    for id in [
        "table1",
        "e1-quality",
        "e10-noise",
        "all",
        "serve",
        "bench-row",
    ] {
        assert!(synopsis.contains(id), "{id} missing from: {synopsis}");
    }
    // One titled line per experiment and tool under the synopsis, then
    // the registry: a heading, the four paper systems, and per comparison
    // set what it varies and its rows.
    assert_eq!(
        stderr.trim().lines().count(),
        1 + 12 + 2 + 1 + 4 + 2 * 4,
        "{stderr}"
    );
    assert!(stderr.contains("\n    ESSIM-DE/untuned ESSIM-DE/tuned\n"));
    for row in ess_service::systems::variants().concat() {
        assert!(stderr.contains(row.name), "{} missing: {stderr}", row.name);
    }
}

#[test]
fn retired_flags_are_unknown_flags() {
    // Kernels are compared at `simulate_arena_kernel`, never selected per
    // run; the invariant drivers and the serve kill/resume check are
    // `cargo test`s. Each flag is gone, not ignored.
    for args in [
        &["e1-quality", "--kernel", "bucket"][..],
        &["serve", "--self-test"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(args)
            .output()
            .expect("harness binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let line = format!("unknown flag {}\n", args[1]);
        assert!(stderr.starts_with(&line), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing was started");
    }
}

#[test]
fn retired_tools_are_unknown_experiments() {
    // The static rules are clippy's and the invariant drivers run under
    // `cargo test`; there is no alias.
    for id in ["audit", "lint", "verify-invariants"] {
        let out = Command::new(env!("CARGO_BIN_EXE_harness"))
            .arg(id)
            .output()
            .expect("harness binary runs");
        assert_eq!(out.status.code(), Some(1), "{id}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("unknown experiment '{id}'\nusage: harness <")),
            "{stderr}"
        );
        assert!(!stderr.contains(&format!("|{id}")), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing ran");
    }
}
