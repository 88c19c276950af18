//! The `wavecheck` binary driven as a process: a fan-out limit outside
//! the §IV range is a usage error (exit 2 with the pipeline error on
//! stderr), not a panic.

use std::process::Command;

#[test]
fn out_of_range_fanout_limit_is_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_wavecheck"))
        .args(["--fanout-limit", "7"])
        .output()
        .expect("run wavecheck");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|line| line.contains("fan-out limit 7") && line.contains("2..=5")),
        "stderr names the feasible range: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
