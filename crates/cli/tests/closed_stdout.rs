//! A reader that stops early (`atp help | head -1`) closes `atp`'s stdout
//! under it. The command must then end quietly with exit 0, the way the
//! rest of a pipeline expects, rather than panic with exit 101.

use std::process::{Command, Stdio};

/// Runs `atp args`, closing the read end of its stdout as soon as it has
/// started, and returns its exit code and what it wrote to stderr.
fn run_with_stdout_closed(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_atp"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("atp starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("atp runs to its end");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn help_exits_zero_when_stdout_is_closed() {
    let (code, stderr) = run_with_stdout_closed(&["help"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(stderr, "");
}

#[test]
fn simulate_exits_zero_when_stdout_is_closed() {
    let (code, stderr) = run_with_stdout_closed(&[
        "simulate",
        "--workload",
        "zipf",
        "--manager",
        "x",
        "--phys",
        "2^12",
        "--accesses",
        "20k",
        "--warmup",
        "10k",
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(stderr, "");
}
