//! Start-up contract of the figure and grid entry points. They accept
//! exactly `auto|event` for `CSMAPROBE_ENGINE` and refuse anything
//! else — the retired `slotted` and `analytic` values and typos alike —
//! and `all_figures` refuses an unknown flag or a bad flag value. A refusal
//! is exit code 2 and one stderr line naming the offending value or
//! flag, before any figure runs or any row file is written.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "csmaprobe-engine-env-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, dir: &PathBuf, engine: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .current_dir(dir)
        .env("CSMAPROBE_ENGINE", engine)
        .env("CSMAPROBE_WORKERS", "1")
        .args(args)
        .output()
        .expect("spawn binary")
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
fn all_figures_refuses_retired_and_misspelt_engines() {
    for engine in ["slotted", "analytic", "evnet"] {
        let dir = scratch(&format!("figs-{engine}"));
        let out = run(
            env!("CARGO_BIN_EXE_all_figures"),
            &dir,
            engine,
            &["--only", "fig01", "--scale", "0.02"],
        );
        assert_refused(&out, engine, &[engine, "auto|event"]);
        assert!(!dir.join("experiments.json").exists(), "{engine}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn grid_refuses_retired_and_misspelt_engines() {
    for engine in ["slotted", "analytic", "evnet"] {
        let dir = scratch(&format!("grid-{engine}"));
        let out = run(
            env!("CARGO_BIN_EXE_grid"),
            &dir,
            engine,
            &["--links", "wired", "--trains", "short", "--tools", "train"],
        );
        assert_refused(&out, engine, &[engine, "auto|event"]);
        assert!(!dir.join("grid_rows.jsonl").exists(), "{engine}");
        let _ = std::fs::remove_dir_all(&dir);
    }
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
        let out = run(env!("CARGO_BIN_EXE_all_figures"), &dir, "auto", args);
        let case = args.join(" ");
        assert_refused(&out, &case, &[flag]);
        assert!(!dir.join("experiments.json").exists(), "{case}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn accepted_engine_values_run() {
    for engine in ["auto", "event"] {
        let dir = scratch(&format!("ok-{engine}"));
        let out = run(env!("CARGO_BIN_EXE_all_figures"), &dir, engine, &["--list"]);
        assert_eq!(out.status.code(), Some(0), "{engine}: {out:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
