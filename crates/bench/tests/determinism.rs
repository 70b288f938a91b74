//! The engine's bit-reproducibility contract, pinned in CI: a full
//! `all_figures` run is a pure function of `(scale, seed)` — the
//! `experiments.json` payload is byte-identical across runs, across
//! **worker counts** (`CSMAPROBE_WORKERS`, including oversubscribed
//! ones), and across figure-level concurrency (`--jobs`, which turns
//! every figure into a task on the shared work-stealing executor) —
//! modulo the wall-clock `elapsed_s` and `wallclock` fields.
//!
//! This is the executable form of what README/rustdoc promise in
//! prose: chunk-gridded reduction makes floating-point results
//! independent of scheduling — plain replications, sweeps, the
//! two-phase MSER passes, and cross-submission work stealing alike.

use std::path::Path;
use std::process::Command;

/// Run the `all_figures` binary in `dir` with `workers` pinned and
/// `jobs` figures scheduled concurrently, and return the
/// `experiments.json` payload it wrote.
fn run_all_figures(dir: &Path, workers: usize, jobs: usize) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args([
            "--scale",
            "0.05",
            "--seed",
            "42",
            "--jobs",
            &jobs.to_string(),
        ])
        .env("CSMAPROBE_WORKERS", workers.to_string())
        .current_dir(dir)
        .output()
        .expect("spawn all_figures");
    // Check outcomes are part of the compared payload, so a failed
    // check (possible at smoke scale) must not abort the test — only a
    // crash should.
    assert!(
        out.status.code().is_some(),
        "all_figures killed by signal: {:?}",
        out.status
    );
    std::fs::read_to_string(dir.join("experiments.json")).expect("experiments.json written")
}

/// Drop every `"elapsed_s":<number>` field and every
/// `"wallclock":[[..]..]` array (the two sanctioned non-deterministic
/// channels of a report — see `FigureReport::wallclock`).
fn strip_elapsed(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len());
    let mut rest = payload;
    while let Some(at) = rest.find(",\"elapsed_s\":") {
        out.push_str(&rest[..at]);
        let tail = &rest[at + ",\"elapsed_s\":".len()..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    let payload = out;

    let mut out = String::with_capacity(payload.len());
    let mut rest = payload.as_str();
    while let Some(at) = rest.find(",\"wallclock\":[") {
        out.push_str(&rest[..at]);
        let tail = &rest[at + ",\"wallclock\":".len()..];
        // The value is a JSON array of [name, number] pairs with no
        // nested strings containing brackets: bracket depth suffices.
        let mut depth = 0usize;
        let mut end = tail.len();
        for (i, b) in tail.bytes().enumerate() {
            match b {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn experiments_json_identical_across_worker_counts() {
    let base = std::env::temp_dir().join(format!("csmaprobe-determinism-{}", std::process::id()));
    // Both ends of the worker range plus an oversubscribed point (8
    // workers on whatever the CI runner has), with figures scheduled
    // concurrently under the last two — the executor must reduce every
    // figure bit-identically no matter what else is stealing from it.
    let configs: [(usize, usize); 3] = [(1, 1), (4, 4), (8, 8)];
    let payloads: Vec<String> = configs
        .iter()
        .map(|&(workers, jobs)| {
            let dir = base.join(format!("workers{workers}jobs{jobs}"));
            std::fs::create_dir_all(&dir).expect("create run dir");
            let payload = run_all_figures(&dir, workers, jobs);
            assert!(
                payload.contains("\"id\":\"fig13\"") && payload.contains("\"id\":\"fig17\""),
                "payload looks truncated ({} bytes)",
                payload.len()
            );
            payload
        })
        .collect();
    let golden = strip_elapsed(&payloads[0]);
    for (i, payload) in payloads.iter().enumerate().skip(1) {
        let stripped = strip_elapsed(payload);
        assert!(
            golden == stripped,
            "experiments.json differs between {:?} and {:?} (modulo elapsed_s): \
             {} vs {} bytes",
            configs[0],
            configs[i],
            golden.len(),
            stripped.len()
        );
    }
    // elapsed_s was actually present and stripped — guard against the
    // field being renamed and the test silently comparing nothing.
    assert!(payloads[0].contains("elapsed_s"), "elapsed_s field gone?");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn strip_elapsed_removes_only_the_timing_field() {
    let raw = r#"{"id":"a","elapsed_s":1.25e0}|{"id":"b","checks":[],"elapsed_s":0.5}"#;
    // Note: the field always follows another field in real payloads,
    // hence the leading comma in the pattern.
    let cooked = strip_elapsed(&raw.replace("\",\"elapsed_s\"", "\",\"x\":0,\"elapsed_s\""));
    assert!(!cooked.contains("elapsed_s"));
    assert!(cooked.contains("\"id\":\"a\""));
    assert!(cooked.contains("\"checks\":[]"));
}

#[test]
fn strip_elapsed_removes_the_wallclock_array() {
    let raw = concat!(
        r#"{"id":"tier_speedup","rows":[[1,2]],"#,
        r#""wallclock":[["a_event_s",0.52],["a_speedup",1.3e1]],"elapsed_s":0.9}"#,
        r#"|{"id":"b","checks":[]}"#
    );
    let cooked = strip_elapsed(raw);
    assert!(!cooked.contains("wallclock"));
    assert!(!cooked.contains("elapsed_s"));
    assert!(cooked.contains(r#""rows":[[1,2]]"#), "{cooked}");
    assert!(cooked.contains(r#"{"id":"b","checks":[]}"#));
}
