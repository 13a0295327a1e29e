//! The `fargo-check` command line as CI drives it: a small window of
//! each sweep mode exits clean and says so.

use std::process::Command;

/// Runs `fargo-check` with `args` and returns its stdout, failing the
/// test with its stderr when it exits non-zero.
fn fargo_check(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fargo-check"))
        .args(args)
        // A failing sweep writes its shrunk schedules to the working
        // directory; keep them out of the source tree.
        .current_dir(std::env::temp_dir())
        .env_remove("FARGO_CHECK_SEED")
        .output()
        .expect("spawn fargo-check");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "fargo-check {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn smoke_window_sweeps_clean() {
    let out = fargo_check(&["--seeds", "3", "--ops", "8", "--no-shrink"]);
    assert!(out.contains("swept 3 seed(s) [0..3] x 8 ops"), "{out}");
    assert!(out.trim_end().ends_with(": clean"), "{out}");
}

/// 50 seeds of 16 ops: a 3 × 10 window is too small to catch an
/// acknowledged write that never reached the log.
#[test]
fn fault_smoke_sweep_is_clean() {
    let out = fargo_check(&["--seeds", "50", "--ops", "16", "--faults", "--no-shrink"]);
    assert!(out.contains("swept 50 seed(s) [0..50] x 16 ops"), "{out}");
    assert!(out.trim_end().ends_with(": clean"), "{out}");
}
