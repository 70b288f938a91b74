//! CLI contract for `CSMAPROBE_ENGINE`: the figure and grid entry
//! points accept exactly `auto|event|analytic` and refuse anything else
//! — the retired `slotted` tier and typos alike — at start-up, with
//! exit code 2 and one line naming the accepted values, before any
//! figure runs or any row file is written.

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

fn assert_refused(out: &Output, engine: &str) {
    assert_eq!(out.status.code(), Some(2), "{engine}: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 1, "{engine}: one line, got {err:?}");
    assert!(
        lines[0].contains(engine),
        "{engine}: names the value: {err}"
    );
    assert!(
        lines[0].contains("auto|event|analytic"),
        "{engine}: names the accepted values: {err}"
    );
    assert!(out.stdout.is_empty(), "{engine}: no work before refusing");
}

#[test]
fn all_figures_refuses_retired_and_misspelt_engines() {
    for engine in ["slotted", "evnet"] {
        let dir = scratch(&format!("figs-{engine}"));
        let out = run(
            env!("CARGO_BIN_EXE_all_figures"),
            &dir,
            engine,
            &["--only", "fig01", "--scale", "0.02"],
        );
        assert_refused(&out, engine);
        assert!(!dir.join("experiments.json").exists(), "{engine}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn grid_refuses_retired_and_misspelt_engines() {
    for engine in ["slotted", "evnet"] {
        let dir = scratch(&format!("grid-{engine}"));
        let out = run(
            env!("CARGO_BIN_EXE_grid"),
            &dir,
            engine,
            &["--links", "wired", "--trains", "short", "--tools", "train"],
        );
        assert_refused(&out, engine);
        assert!(!dir.join("grid_rows.jsonl").exists(), "{engine}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn accepted_engine_values_run() {
    for engine in ["auto", "event", "analytic"] {
        let dir = scratch(&format!("ok-{engine}"));
        let out = run(env!("CARGO_BIN_EXE_all_figures"), &dir, engine, &["--list"]);
        assert_eq!(out.status.code(), Some(0), "{engine}: {out:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
