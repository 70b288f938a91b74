//! Start-up contract of the figure entry point: `all_figures` refuses
//! an unknown flag, a bad flag value or a `CSMAPROBE_WORKERS` outside
//! `1..=1024`. A refusal is exit code 2 and one stderr line
//! naming the offending flag or variable, before any figure runs. An
//! output pipe whose reader has gone costs neither the exit code nor
//! `experiments.json`.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("csmaprobe-cli-flags-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(dir: &PathBuf, workers: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .current_dir(dir)
        .env("CSMAPROBE_WORKERS", workers)
        .args(args)
        .output()
        .expect("spawn all_figures")
}

/// The write end of a pipe whose reader has exited.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new("true").stdin(Stdio::piped()).spawn().unwrap();
    let writer = reader.stdin.take().unwrap();
    reader.wait().unwrap();
    Stdio::from(writer)
}

/// Exit 2, nothing on stdout, and one stderr line containing every
/// `needle`.
fn assert_refused(out: &Output, case: &str, needles: &[&str]) {
    assert_eq!(out.status.code(), Some(2), "{case}: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 1, "{case}: one line, got {err:?}");
    for needle in needles {
        assert!(lines[0].contains(needle), "{case}: names {needle}: {err}");
    }
    assert!(out.stdout.is_empty(), "{case}: no work before refusing");
}

#[test]
fn all_figures_refuses_bad_flags() {
    let cases: [(&[&str], &str); 5] = [
        (&["--list", "--scael", "2"], "--scael"),
        (&["--list", "--scale", "fast"], "--scale"),
        (&["--list", "--seed", "-1"], "--seed"),
        (&["--list", "--jobs", "0"], "--jobs"),
        (&["--only", "fig01", "--scale", "0.02", "--seed"], "--seed"),
    ];
    for (i, (args, flag)) in cases.into_iter().enumerate() {
        let dir = scratch(&format!("flag-{i}"));
        let out = run(&dir, "1", args);
        let case = args.join(" ");
        assert_refused(&out, &case, &[flag]);
        assert!(!dir.join("experiments.json").exists(), "{case}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn all_figures_refuses_a_bad_worker_env() {
    for (i, workers) in ["abc", "-1", "4x", "0", ""].into_iter().enumerate() {
        let dir = scratch(&format!("workers-{i}"));
        let out = run(&dir, workers, &["--only", "fig01", "--scale", "0.02"]);
        let case = format!("CSMAPROBE_WORKERS={workers:?}");
        assert_refused(&out, &case, &[&case]);
        assert!(!dir.join("experiments.json").exists(), "{case}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn closed_output_pipes_leave_the_exit_code_and_the_data_alone() {
    let run = "--only fig01 --scale 0.01";
    // (arguments, closed stdout (else closed stderr), exit code)
    let cases = [("--bogus", false, 2), (run, true, 0), (run, false, 0)];
    for (i, (args, closed_stdout, code)) in cases.into_iter().enumerate() {
        let dir = scratch(&format!("closed-pipe-{i}"));
        let pipe = |closed| if closed { closed_pipe() } else { Stdio::null() };
        let status = Command::new(env!("CARGO_BIN_EXE_all_figures"))
            .current_dir(&dir)
            .args(args.split(' '))
            .stdout(pipe(closed_stdout))
            .stderr(pipe(!closed_stdout))
            .status()
            .expect("run all_figures");
        let case = format!("{args} (closed stdout: {closed_stdout})");
        assert_eq!(status.code(), Some(code), "{case}");
        assert_eq!(dir.join("experiments.json").exists(), code == 0, "{case}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
