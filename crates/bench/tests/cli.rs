//! The harness CLI's argument errors, end to end: a bad invocation is one
//! line on stderr and exit 1, never a panic mid-experiment.

use std::process::Command;

#[test]
fn zero_workers_is_rejected_before_any_experiment_runs() {
    for workers in ["0", "2,0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(["e3-speedup", "--workers", workers])
            .output()
            .expect("harness binary runs");
        assert_eq!(out.status.code(), Some(1), "--workers {workers}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim(),
            "--workers must be positive"
        );
        assert!(out.stdout.is_empty(), "no table was started");
    }
}

#[test]
fn retired_kernel_flag_is_an_unknown_flag() {
    // Kernels are compared at `simulate_arena_kernel`, never selected per
    // run: the flag is gone, not ignored.
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["e1-quality", "--kernel", "bucket"])
        .output()
        .expect("harness binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("unknown flag --kernel\n"), "{stderr}");
    assert!(out.stdout.is_empty(), "no table was started");
}

#[test]
fn retired_audit_subcommand_is_an_unknown_experiment() {
    // The graph passes run under `harness lint`; there is no alias.
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .arg("audit")
        .output()
        .expect("harness binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("unknown experiment 'audit'\nusage: harness <"),
        "{stderr}"
    );
    assert!(!stderr.contains("|audit|"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}
