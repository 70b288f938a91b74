//! The `csmaprobe` CLI refuses flag values the models cannot run: each
//! one exits 2 with a message naming the flag, instead of hanging,
//! aborting on an allocation, panicking or printing NaN. A
//! `CSMAPROBE_WORKERS` or a `serve` worker count outside `1..=1024` is
//! refused the same way, before any thread starts. A malformed command
//! line exits 2 with an error line naming what it refuses, then the
//! usage text. An output pipe whose reader has gone costs no exit code.

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Long enough for a valid debug-build run; a refusal takes
/// milliseconds.
const DEADLINE: Duration = Duration::from_secs(10);

/// Run `csmaprobe args…` and return its exit code (`None` if it was
/// killed at the deadline or died on a signal) and its stderr.
///
/// The child's address space is capped at 4 GB, so a run whose queue
/// grows without bound aborts instead of exhausting the host's memory
/// before the deadline.
fn run(args: &[&str]) -> (Option<i32>, String) {
    run_with_workers(None, args)
}

/// [`run`] with `CSMAPROBE_WORKERS` set to `workers` (inherited when
/// `None`).
fn run_with_workers(workers: Option<&str>, args: &[&str]) -> (Option<i32>, String) {
    let mut cmd = Command::new("sh");
    if let Some(w) = workers {
        cmd.env("CSMAPROBE_WORKERS", w);
    }
    let mut child = cmd
        .args(["-c", "ulimit -v 4000000 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_csmaprobe"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn csmaprobe");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll csmaprobe") {
            break Some(status);
        }
        if started.elapsed() > DEADLINE {
            child.kill().expect("kill csmaprobe");
            child.wait().expect("reap csmaprobe");
            break None;
        }
        sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (status.and_then(|s| s.code()), stderr)
}

/// The write end of a pipe whose reader has exited.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new("true").stdin(Stdio::piped()).spawn().unwrap();
    let writer = reader.stdin.take().unwrap();
    reader.wait().unwrap();
    Stdio::from(writer)
}

#[test]
fn closed_output_pipes_leave_the_exit_code_alone() {
    let valid = "train --wired 10 --cross 4 --n 5 --reps 2";
    for (args, code) in [("--bogus", 2), ("train --n 1", 2), (valid, 0)] {
        let status = Command::new(env!("CARGO_BIN_EXE_csmaprobe"))
            .args(args.split(' '))
            .stdout(closed_pipe())
            .stderr(closed_pipe())
            .status()
            .expect("run csmaprobe");
        assert_eq!(status.code(), Some(code), "csmaprobe {args}");
    }
}

#[test]
fn out_of_bound_values_exit_2_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["train", "--cross", "1e300", "--n", "5", "--reps", "1"],
            "--cross",
        ),
        (&["steady", "--rate", "1e300"], "--rate"),
        (&["train", "--n", "10000000000", "--reps", "1"], "--n"),
        (
            &["train", "--wired", "1e-15", "--n", "5", "--reps", "2"],
            "--wired",
        ),
        (&["train", "--wired", "10", "--cross", "20"], "--cross"),
        (&["train", "--rate", "nan"], "--rate"),
        (&["train", "--reps", "0"], "--reps"),
        (&["train", "--n", "0"], "--n"),
        (&["train", "--n", "1"], "--n"),
        (&["train", "--cross", "-3"], "--cross"),
        (&["pair", "--pairs", "0"], "--pairs"),
        (&["steady", "--bytes", "0"], "--bytes"),
        (
            &["train", "--bytes", "0", "--n", "5", "--reps", "2"],
            "--bytes",
        ),
        (&["pair", "--bytes", "0", "--pairs", "5"], "--bytes"),
        (&["capacity", "--bytes", "0"], "--bytes"),
        (
            &["train", "--rate", "1e-12", "--n", "5", "--reps", "2"],
            "--rate",
        ),
        (
            &[
                "train", "--rate", "1e-12", "--n", "5", "--reps", "2", "--wired", "10",
            ],
            "--rate",
        ),
    ];
    for &(args, flag) in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "csmaprobe {args:?}: stderr {stderr:?}");
        assert_eq!(stderr.lines().count(), 1, "csmaprobe {args:?}: {stderr:?}");
        assert!(stderr.contains(flag), "csmaprobe {args:?}: {stderr:?}");
    }
}

#[test]
fn a_valid_run_exits_0() {
    let (code, stderr) = run(&[
        "train", "--wired", "10", "--cross", "4", "--n", "5", "--reps", "2",
    ]);
    assert_eq!(code, Some(0), "stderr {stderr:?}");
}

#[test]
fn a_bad_worker_env_exits_2_naming_the_variable() {
    let valid = [
        "train", "--wired", "10", "--cross", "4", "--n", "5", "--reps", "2",
    ];
    for workers in ["abc", "-1", "4x", "0", ""] {
        let (code, stderr) = run_with_workers(Some(workers), &valid);
        assert_eq!(code, Some(2), "CSMAPROBE_WORKERS={workers:?}: {stderr:?}");
        assert_eq!(stderr.lines().count(), 1, "{workers:?}: {stderr:?}");
        assert!(
            stderr.contains(&format!("CSMAPROBE_WORKERS={workers:?}")),
            "{workers:?}: {stderr:?}"
        );
    }
    let (code, stderr) = run_with_workers(Some("2"), &valid);
    assert_eq!(code, Some(0), "a positive count runs: {stderr:?}");
}

#[test]
fn serve_refuses_worker_counts_below_1_before_binding() {
    let out = std::env::temp_dir().join(format!("csmaprobe-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let out_dir = out.to_str().expect("utf-8 temp path");
    for (flag, value) in [("--workers", "0"), ("--workers", "two")] {
        let args = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--out-dir",
            out_dir,
            flag,
            value,
        ];
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "serve {flag} {value}: {stderr:?}");
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}: {stderr:?}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr:?}");
        assert!(!out.exists(), "{flag} {value}: no daemon started");
    }
}

#[test]
fn worker_counts_above_the_bound_exit_2_naming_the_variable_or_flag() {
    // `--bogus` makes each line a parse error even where the bound is
    // not checked, so no case can start the refused number of threads.
    let cases: [(Option<&str>, &[&str], &str); 2] = [
        (Some("100000"), &["--bogus"], "CSMAPROBE_WORKERS"),
        (
            None,
            &["serve", "--workers", "100000", "--bogus"],
            "--workers",
        ),
    ];
    for (workers, args, name) in cases {
        let (code, stderr) = run_with_workers(workers, args);
        assert_eq!(code, Some(2), "{workers:?} {args:?}: {stderr:?}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.contains(name) && first.contains("1024"),
            "{workers:?} {args:?}: the first line names {name} and the bound: {stderr:?}"
        );
    }
}

#[test]
fn malformed_command_lines_exit_2_naming_what_they_refuse() {
    let out = std::env::temp_dir().join(format!("csmaprobe-cli-usage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let out_dir = out.to_str().expect("utf-8 temp path");
    let serve = |flags: &[&'static str]| -> Vec<&str> {
        let mut args = vec!["serve", "--addr", "127.0.0.1:0", "--out-dir", out_dir];
        args.extend(flags);
        args
    };
    // (arguments, what the error line must name)
    let cases: Vec<(Vec<&str>, &[&str])> = vec![
        (vec!["train", "--n", "abc"], &["--n", "\"abc\""]),
        (vec!["pair", "--seed", "-1"], &["--seed", "\"-1\""]),
        (vec!["steady", "--rate", "fast"], &["--rate", "\"fast\""]),
        (vec!["train", "--n"], &["--n"]),
        (vec!["train", "--bogus", "1"], &["--bogus"]),
        (vec!["bogus"], &["\"bogus\""]),
        (vec!["--n", "5"], &["\"--n\""]),
        (vec![], &["subcommand"]),
        (serve(&["--bogus", "1"]), &["--bogus"]),
        (serve(&["--workers"]), &["--workers"]),
        // A flag is never another flag's value.
        (vec!["serve", "--out-dir", "--workers", "2"], &["--out-dir"]),
        // Session drivers follow `--workers`: there is no `--drivers`.
        (serve(&["--drivers", "2", "--workers", "0"]), &["--drivers"]),
    ];
    for (args, names) in cases {
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "csmaprobe {args:?}: stderr {stderr:?}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error:"),
            "csmaprobe {args:?}: {stderr:?}"
        );
        for name in names {
            assert!(first.contains(name), "csmaprobe {args:?}: {stderr:?}");
        }
        assert!(
            stderr
                .lines()
                .nth(1)
                .is_some_and(|l| l.starts_with("usage:")),
            "csmaprobe {args:?}: the usage text follows: {stderr:?}"
        );
    }
    assert!(!out.exists(), "no daemon started");
}
