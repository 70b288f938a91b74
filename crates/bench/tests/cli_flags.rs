//! Start-up contract of the figure entry point: `all_figures` refuses
//! an unknown flag or a bad flag value. A refusal is exit code 2 and
//! one stderr line naming the offending flag, before any figure runs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("csmaprobe-cli-flags-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .current_dir(dir)
        .env("CSMAPROBE_WORKERS", "1")
        .args(args)
        .output()
        .expect("spawn all_figures")
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
        let out = run(&dir, args);
        let case = args.join(" ");
        assert_refused(&out, &case, &[flag]);
        assert!(!dir.join("experiments.json").exists(), "{case}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
