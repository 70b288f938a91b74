//! CLI contract tests for the `grid` binary: exit codes for malformed
//! flags (the `--max-cells 0` regression in particular), the
//! run-fingerprint gate of `--resume`, and what `--list` reports after
//! a budget stop.
//!
//! Exit-code convention under test: 0 done, 2 usage/configuration
//! error, 3 interrupted (cells still pending).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A per-test scratch directory (fresh on every run).
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("csmaprobe-grid-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the `grid` bin in `dir` with a pinned worker count (the output
/// contract is worker-count-invariant; pinning just keeps CI quiet).
fn grid(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grid"))
        .current_dir(dir)
        .env("CSMAPROBE_WORKERS", "2")
        .args(args)
        .output()
        .expect("spawn grid")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("grid terminated by signal")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The cheap 2-cell grid every end-to-end test below sweeps.
const AXES: [&str; 6] = [
    "--links",
    "wired",
    "--trains",
    "short,mid",
    "--tools",
    "train",
];

#[test]
fn zero_max_cells_is_a_usage_error_not_a_silent_no_op() {
    let dir = scratch("maxcells0");
    let out = grid(&dir, &["--max-cells", "0"]);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("--max-cells 0"), "names the flag: {err}");
    assert!(err.contains("usage:"), "shows usage: {err}");
    assert!(
        !dir.join("grid_rows.jsonl").exists(),
        "a usage error must not touch the row file"
    );
}

#[test]
fn malformed_flag_values_exit_2() {
    let dir = scratch("badflags");
    for args in [&["--jobs", "0"][..], &["--links", "no_such_link"][..]] {
        let out = grid(&dir, args);
        assert_eq!(code(&out), 2, "args {args:?}; stderr: {}", stderr(&out));
    }
    // Unparseable numbers and nonsensical scales are refused the way
    // `all_figures` refuses them: one error line naming the flag, then
    // the usage text. A wrongly accepted value would let `--list` exit
    // 0 at once.
    for args in [
        ["--max-cells", "nope"],
        ["--seed", "-1"],
        ["--jobs", "two"],
        ["--scale", "abc"],
        ["--scale", "nan"],
        ["--scale", "inf"],
        ["--scale", "-1"],
        ["--scale", "0"],
    ] {
        let out = grid(&dir, &[args[0], args[1], "--list"]);
        let err = stderr(&out);
        assert_eq!(code(&out), 2, "args {args:?}; stderr: {err}");
        let first = err.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error:") && first.contains(args[0]),
            "args {args:?}: the first line names the flag: {err}"
        );
        assert!(err.contains("usage:"), "args {args:?} shows usage: {err}");
        assert!(out.stdout.is_empty(), "args {args:?}: nothing listed");
    }
}

/// Run the 2-cell grid under `--seed 7` until the budget stops it
/// after its first cell (exit 3), leaving `rows.jsonl` half done.
fn budget_stop(dir: &Path) {
    let mut args = AXES.to_vec();
    args.extend(["--seed", "7", "--out", "rows.jsonl", "--max-cells", "1"]);
    let out = grid(dir, &args);
    assert_eq!(code(&out), 3, "stderr: {}", stderr(&out));
}

#[test]
fn list_reports_done_and_pending_cells() {
    let dir = scratch("list");
    budget_stop(&dir);
    let mut args = AXES.to_vec();
    args.extend(["--seed", "7", "--out", "rows.jsonl", "--list"]);
    let out = grid(&dir, &args);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains("0\tdone\twired/short/train\n"),
        "the budgeted cell is done: {text}"
    );
    assert!(
        text.contains("1\tpending\twired/mid/train\n"),
        "the other cell is pending: {text}"
    );
}

#[test]
fn resume_refuses_a_row_file_from_a_different_configuration() {
    let dir = scratch("fingerprint");
    budget_stop(&dir);
    let before = std::fs::read(dir.join("rows.jsonl")).unwrap();
    let mut args = AXES.to_vec();
    args.extend(["--seed", "8", "--out", "rows.jsonl", "--resume"]);
    let out = grid(&dir, &args);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("different grid configuration"),
        "the gate names the cause: {err}"
    );
    assert_eq!(
        std::fs::read(dir.join("rows.jsonl")).unwrap(),
        before,
        "a refused resume must leave the row file as it was"
    );
}
