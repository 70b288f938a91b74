//! Regenerate every data figure of the paper in one run and write
//! `experiments.json` next to the workspace root.
//!
//! Usage: `cargo run --release -p csmaprobe-bench --bin all_figures
//! [--scale F] [--seed N] [--only fig08,fig13] [--list] [--jobs N]`.
//! An unknown flag or a bad value exits 2 with one stderr line naming
//! the flag, before any output (`csmaprobe_bench::cli_options_from`).
//!
//! Figures come from `figures::REGISTRY` and are submitted — by
//! descending cost weight — as one task batch to the process-wide
//! work-stealing chunk executor (`csmaprobe_desim::executor`), the same
//! pool their replication reduces run on. `--jobs` caps how many
//! figures execute concurrently; a figure that finishes hands its
//! workers to the remaining figures' replication chunks mid-flight, so
//! the multi-figure tail no longer serialises on one core. Reports are
//! printed and serialised in registry order regardless of completion
//! order, and per-figure wall-clock lands in `experiments.json` as
//! `elapsed_s` — the only field that varies between otherwise identical
//! runs.

use csmaprobe_bench::figures::{self, FigureDef};
use csmaprobe_bench::report::FigureReport;
use csmaprobe_desim::replicate;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = csmaprobe_bench::cli_options_from(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    if opts.list {
        for d in figures::REGISTRY {
            println!("{:<16} {}", d.id, d.title);
        }
        return;
    }

    // Resolve the selection against the registry, keeping report order.
    let selected: Vec<&'static FigureDef> = match &opts.only {
        None => figures::REGISTRY.iter().collect(),
        Some(ids) => {
            let unknown: Vec<&String> = ids
                .iter()
                .filter(|id| figures::find(id).is_none())
                .collect();
            if !unknown.is_empty() {
                eprintln!(
                    "error: unknown figure id(s) {:?}; run with --list to see the registry",
                    unknown
                );
                std::process::exit(2);
            }
            figures::REGISTRY
                .iter()
                .filter(|d| ids.iter().any(|id| id == d.id))
                .collect()
        }
    };

    if selected.is_empty() {
        eprintln!("error: --only selected no figures; run with --list to see the registry");
        std::process::exit(2);
    }

    let jobs = opts.jobs.min(selected.len()).max(1);
    eprintln!(
        "running {} experiment(s) at scale {} (seed {}, {} figure job(s))...",
        selected.len(),
        opts.scale,
        opts.seed,
        jobs
    );
    let t_all = std::time::Instant::now();

    // Submit expensive figures first so short ones pack the tail; the
    // executor hands a finished figure's workers to the replication
    // chunks of whatever is still running.
    let mut order: Vec<usize> = (0..selected.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(selected[i].weight));

    let scale = opts.scale;
    let seed = opts.seed;
    let tasks: Vec<_> = order
        .iter()
        .map(|&pos| {
            let def = selected[pos];
            move || {
                let t0 = std::time::Instant::now();
                let mut rep = (def.run)(scale, seed);
                rep.elapsed_s = Some(t0.elapsed().as_secs_f64());
                eprintln!(
                    "{}: {} checks, {} — {:.1}s",
                    def.id,
                    rep.checks.len(),
                    if rep.all_passed() {
                        "ALL PASS"
                    } else {
                        "FAILURES"
                    },
                    t0.elapsed().as_secs_f64()
                );
                (pos, rep)
            }
        })
        .collect();

    let mut slots: Vec<Option<FigureReport>> = Vec::new();
    slots.resize_with(selected.len(), || None);
    for (pos, rep) in replicate::run_tasks(jobs, tasks) {
        slots[pos] = Some(rep);
    }

    let reports: Vec<FigureReport> = slots
        .into_iter()
        .map(|s| s.expect("figure slot not filled"))
        .collect();
    for rep in &reports {
        rep.print();
        println!();
    }

    let json = csmaprobe_bench::report::reports_to_json(&reports);
    std::fs::write("experiments.json", &json).expect("write experiments.json");
    let total: usize = reports.iter().map(|r| r.checks.len()).sum();
    let passed: usize = reports
        .iter()
        .flat_map(|r| &r.checks)
        .filter(|c| c.passed)
        .count();
    eprintln!(
        "== {passed}/{total} qualitative checks passed; experiments.json written ({:.1}s total) ==",
        t_all.elapsed().as_secs_f64()
    );
    if passed != total {
        std::process::exit(1);
    }
}
