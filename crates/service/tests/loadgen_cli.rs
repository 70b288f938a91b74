//! The `loadgen` CLI refuses what it cannot run: a malformed command
//! line exits 2 with an error line naming the flag (and the value),
//! then the usage text; a `--reps` outside the daemon's bounds or a
//! `--conns` outside `1..=256` exits 2 with one error line naming the
//! flag, in batch mode too. No refusal writes a table. An output pipe
//! whose reader has gone costs no exit code and no table.

use csmaprobe_service::wire::MAX_REPS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// A per-test scratch directory (fresh on every run).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loadgen-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `loadgen args…` in `dir`.
fn loadgen(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn loadgen")
}

/// The write end of a pipe whose reader has exited.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new("true").stdin(Stdio::piped()).spawn().unwrap();
    let writer = reader.stdin.take().unwrap();
    reader.wait().unwrap();
    Stdio::from(writer)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn malformed_command_lines_exit_2_naming_what_they_refuse() {
    let dir = scratch("usage");
    // (arguments, what the error line must name)
    let cases: &[(&[&str], &[&str])] = &[
        (
            &["--batch", "--table", "t.json", "--sessions", "abc"],
            &["--sessions", "\"abc\""],
        ),
        (
            &["--batch", "--table", "t.json", "--reps", "many"],
            &["--reps", "\"many\""],
        ),
        (&["--batch", "--table", "t.json", "--seed"], &["--seed"]),
        (
            &["--batch", "--table", "t.json", "--bogus", "1"],
            &["--bogus"],
        ),
        (&["--batch", "--sessions", "3"], &["--table"]),
        // A flag is never another flag's value.
        (&["--batch", "--table", "--sessions", "1"], &["--table"]),
        (&["--sessions", "3"], &["--addr", "--port-file"]),
    ];
    for &(args, names) in cases {
        let out = loadgen(&dir, args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "loadgen {args:?}: {err:?}");
        let first = err.lines().next().unwrap_or_default();
        assert!(first.starts_with("error:"), "loadgen {args:?}: {err:?}");
        for name in names {
            assert!(first.contains(name), "loadgen {args:?}: {err:?}");
        }
        assert!(
            err.lines().nth(1).is_some_and(|l| l.starts_with("usage:")),
            "loadgen {args:?}: the usage text follows: {err:?}"
        );
        assert!(!dir.join("t.json").exists(), "loadgen {args:?}: no table");
    }
}

#[test]
fn reps_and_conns_out_of_the_daemons_bounds_exit_2_naming_the_flag() {
    let dir = scratch("bounds");
    let too_many = (MAX_REPS + 1).to_string();
    let batch = ["--batch", "--table", "t.json", "--sessions", "3"];
    // Batch mode only: a client run that was not refused would start
    // one thread per connection.
    for (flag, value) in [
        ("--reps", "0"),
        ("--reps", too_many.as_str()),
        ("--conns", "0"),
        ("--conns", "100000"),
    ] {
        let mut args = batch.to_vec();
        args.extend([flag, value]);
        let out = loadgen(&dir, &args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {err:?}");
        assert_eq!(err.lines().count(), 1, "{flag} {value}: {err:?}");
        assert!(err.starts_with("error:") && err.contains(flag), "{err:?}");
        assert!(!dir.join("t.json").exists(), "{flag} {value}: no table");
    }
    // The bounds themselves are accepted.
    let mut args = batch.to_vec();
    args.extend(["--reps", "1", "--conns", "1"]);
    let out = loadgen(&dir, &args);
    assert_eq!(out.status.code(), Some(0), "{:?}", stderr(&out));
    let table = std::fs::read_to_string(dir.join("t.json")).expect("table written");
    assert_eq!(table.matches("\"reps\":1,").count(), 3, "{table}");
}

#[test]
fn closed_output_pipes_leave_the_exit_code_and_the_table_alone() {
    let dir = scratch("closed-pipes");
    let batch = "--batch --table t.json --sessions 3 --reps 1";
    for (args, code) in [("--bogus", 2), (batch, 0)] {
        let status = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .current_dir(&dir)
            .args(args.split(' '))
            .stdout(closed_pipe())
            .stderr(closed_pipe())
            .status()
            .expect("run loadgen");
        assert_eq!(status.code(), Some(code), "loadgen {args}");
    }
    let table = std::fs::read_to_string(dir.join("t.json")).expect("table written");
    assert_eq!(table.matches("\"reps\":1,").count(), 3, "{table}");
}
