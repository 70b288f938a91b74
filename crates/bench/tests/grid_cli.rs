//! CLI contract tests for the `grid` binary: exit codes for malformed
//! flags (the `--max-cells 0` regression in particular), the
//! shard-fingerprint resume gate, and the end-to-end sharded-campaign
//! flow — two shards plus `--merge` must reproduce the unsharded
//! table byte for byte, with the shard row files left untouched.
//!
//! Exit-code convention under test: 0 done, 2 usage/configuration
//! error, 3 interrupted (cells or shards still pending).

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

/// The cheap 2-cell campaign every end-to-end test below sweeps.
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
    for args in [
        &["--jobs", "0"][..],
        &["--shard", "2/2"][..],
        &["--shard", "0/0"][..],
        &["--shard", "x"][..],
        &["--shard", "1"][..],
        &["--links", "no_such_link"][..],
    ] {
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

#[test]
fn list_audits_the_shard_partition() {
    let dir = scratch("list");
    let mut args = AXES.to_vec();
    args.extend(["--shard", "0/2", "--list"]);
    let out = grid(&dir, &args);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    // Name-keyed order: wired/mid/train sorts before wired/short/train,
    // so shard 0 owns mid and shard 1 owns short.
    assert!(
        text.contains("0/2\tpending\twired/mid/train"),
        "owned cell listed pending: {text}"
    );
    assert!(
        text.contains("1/2\tother\twired/short/train"),
        "foreign cell carries its owning shard: {text}"
    );
}

#[test]
fn resume_refuses_a_row_file_from_a_different_shard_spec() {
    let dir = scratch("shardgate");
    let shard0: Vec<&str> = AXES
        .iter()
        .copied()
        .chain([
            "--shard",
            "0/2",
            "--out",
            "s0.jsonl",
            "--manifest",
            "m.json",
        ])
        .collect();
    let out = grid(&dir, &shard0);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));

    let mut wrong = AXES.to_vec();
    wrong.extend([
        "--shard",
        "1/2",
        "--out",
        "s0.jsonl",
        "--manifest",
        "m.json",
        "--resume",
    ]);
    let out = grid(&dir, &wrong);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("different --shard"),
        "gate names the shard spec: {err}"
    );
}

#[test]
fn sharded_campaign_merges_byte_identical_to_the_unsharded_run() {
    let dir = scratch("merge");

    // The unsharded golden table.
    let full: Vec<&str> = AXES
        .iter()
        .copied()
        .chain(["--out", "full.jsonl", "--table", "full.json"])
        .collect();
    let out = grid(&dir, &full);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));

    // Shard 0 of 2, then a premature merge (campaign incomplete -> 3).
    let shard0: Vec<&str> = AXES
        .iter()
        .copied()
        .chain([
            "--shard",
            "0/2",
            "--out",
            "s0.jsonl",
            "--manifest",
            "m.json",
        ])
        .collect();
    let out = grid(&dir, &shard0);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let out = grid(
        &dir,
        &["--merge", "--manifest", "m.json", "--table", "merged.json"],
    );
    assert_eq!(code(&out), 3, "incomplete campaign: {}", stderr(&out));

    // Shard 1 of 2, then the real merge.
    let shard1: Vec<&str> = AXES
        .iter()
        .copied()
        .chain([
            "--shard",
            "1/2",
            "--out",
            "s1.jsonl",
            "--manifest",
            "m.json",
        ])
        .collect();
    let out = grid(&dir, &shard1);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));

    let s0_before = std::fs::read(dir.join("s0.jsonl")).unwrap();
    let s1_before = std::fs::read(dir.join("s1.jsonl")).unwrap();
    let out = grid(
        &dir,
        &["--merge", "--manifest", "m.json", "--table", "merged.json"],
    );
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));

    let full_table = std::fs::read(dir.join("full.json")).unwrap();
    let merged_table = std::fs::read(dir.join("merged.json")).unwrap();
    assert_eq!(
        full_table, merged_table,
        "merged table must be byte-identical to the unsharded run"
    );
    assert_eq!(
        std::fs::read(dir.join("s0.jsonl")).unwrap(),
        s0_before,
        "merge must leave shard files untouched"
    );
    assert_eq!(
        std::fs::read(dir.join("s1.jsonl")).unwrap(),
        s1_before,
        "merge must leave shard files untouched"
    );
}
