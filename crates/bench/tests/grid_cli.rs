//! CLI contract tests for the `grid` binary: a bad flag, value or
//! `CSMAPROBE_WORKERS` is refused with exit 2 before anything runs, and
//! the table a run writes does not depend on the worker count.

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

/// Run the `grid` bin in `dir` under `CSMAPROBE_WORKERS=workers`.
fn grid(dir: &Path, workers: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grid"))
        .current_dir(dir)
        .env("CSMAPROBE_WORKERS", workers)
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

/// A cheap grid over both link families and two tool families.
const AXES: [&str; 8] = [
    "--links",
    "wired,wlan_low",
    "--trains",
    "short",
    "--tools",
    "train,slops",
    "--scale",
    "0.05",
];

/// Exit 2 with a first stderr line `error: …` naming `flag`, then the
/// usage text, and nothing on stdout or on disk.
fn assert_usage_error(dir: &Path, out: &Output, case: &str, flag: &str) {
    let err = stderr(out);
    assert_eq!(code(out), 2, "{case}: stderr {err}");
    let first = err.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error:") && first.contains(flag),
        "{case}: the first line names {flag}: {err}"
    );
    assert!(err.contains("usage:"), "{case}: shows usage: {err}");
    assert!(out.stdout.is_empty(), "{case}: nothing printed");
    assert!(!dir.join("grid.json").exists(), "{case}: no table written");
}

#[test]
fn malformed_flag_values_exit_2() {
    let dir = scratch("badflags");
    let out = grid(&dir, "2", &["--links", "no_such_link"]);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    // Unparseable numbers and nonsensical scales are refused the way
    // `all_figures` refuses them: one error line naming the flag, then
    // the usage text. A wrongly accepted value would let `--list` exit
    // 0 at once.
    for args in [
        ["--seed", "-1"],
        ["--scale", "abc"],
        ["--scale", "nan"],
        ["--scale", "inf"],
        ["--scale", "-1"],
        ["--scale", "0"],
    ] {
        let out = grid(&dir, "2", &[args[0], args[1], "--list"]);
        assert_usage_error(&dir, &out, &args.join(" "), args[0]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_and_retired_flags_exit_2_naming_the_flag() {
    let dir = scratch("unknown");
    let cases: [&[&str]; 6] = [
        &["--resume"],
        &["--max-cells", "1"],
        &["--out", "x"],
        &["--jobs", "2"],
        &["--scael", "2"],
        &["--table"],
    ];
    for case in cases {
        let mut args = AXES.to_vec();
        args.extend(case);
        let out = grid(&dir, "2", &args);
        assert_usage_error(&dir, &out, &case.join(" "), case[0]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_worker_env_exits_2_before_any_work() {
    let dir = scratch("workers-env");
    for workers in ["abc", "-1", "4x", "0", ""] {
        let out = grid(&dir, workers, &AXES);
        let err = stderr(&out);
        assert_eq!(code(&out), 2, "CSMAPROBE_WORKERS={workers:?}: {err}");
        assert_eq!(err.lines().count(), 1, "one line: {err}");
        assert!(
            err.contains(&format!("CSMAPROBE_WORKERS={workers:?}")),
            "names the variable and its value: {err}"
        );
        assert!(out.stdout.is_empty(), "{workers:?}: nothing printed");
        assert!(!dir.join("grid.json").exists(), "{workers:?}: no table");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table_bytes_are_equal_under_1_and_4_workers() {
    let runs: Vec<(Vec<u8>, Vec<u8>)> = ["1", "4"]
        .into_iter()
        .map(|workers| {
            let dir = scratch(&format!("workers-{workers}"));
            let mut args = AXES.to_vec();
            args.extend(["--seed", "7", "--table", "t.json"]);
            let out = grid(&dir, workers, &args);
            assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
            let table = std::fs::read(dir.join("t.json")).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            (table, out.stdout)
        })
        .collect();
    let (table, tsv) = &runs[0];
    let text = String::from_utf8_lossy(table);
    assert!(text.starts_with("[\n  {\"cell\":0,\"key\":\"wired/short/train\""));
    assert_eq!(text.lines().count(), 2 + 4, "4 cells, one row per line");
    assert_eq!(String::from_utf8_lossy(tsv).lines().count(), 1 + 4);
    assert_eq!(&runs[1], &runs[0], "table and TSV bytes, 1 vs 4 workers");
}
