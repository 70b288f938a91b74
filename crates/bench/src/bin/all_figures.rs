//! Regenerate every data figure of the paper in one run and write
//! `experiments.json` next to the workspace root.
//!
//! Usage: `cargo run --release -p csmaprobe-bench --bin all_figures
//! [--scale F] [--seed N] [--only fig08,fig13] [--list] [--jobs N]`.
//! An unknown flag or a bad value exits 2 with one stderr line naming
//! the flag, before any output (`csmaprobe_bench::cli_options_from`);
//! so does a `CSMAPROBE_WORKERS` outside `1..=1024`.
//!
//! Figures come from `figures::REGISTRY` and run — by descending cost
//! weight — through `replicate::run_tasks` as `--jobs` lanes on the
//! process-wide work-stealing chunk executor
//! (`csmaprobe_desim::executor`), the same pool their replication
//! reduces run on. Each lane starts the next figure not yet started, so
//! at most `--jobs` figures run at once; a lane with none left hands its
//! thread to the remaining figures' replication chunks mid-flight, so
//! the multi-figure tail does not serialise on one core. Reports are
//! printed and serialised in registry order regardless of completion
//! order, and per-figure wall-clock lands in `experiments.json` as
//! `elapsed_s` — the only field that varies between otherwise identical
//! runs.

use csmaprobe_bench::figures::{self, FigureDef};
use csmaprobe_bench::report::FigureReport;
use csmaprobe_desim::{errln, executor, outln, replicate};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = executor::env_worker_limit()
        .and_then(|_| csmaprobe_bench::cli_options_from(&args))
        .unwrap_or_else(|e| {
            errln!("error: {e}");
            std::process::exit(2);
        });

    if opts.list {
        for d in figures::REGISTRY {
            outln!("{:<16} {}", d.id, d.title);
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
                errln!(
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
        errln!("error: --only selected no figures; run with --list to see the registry");
        std::process::exit(2);
    }

    let jobs = opts.jobs.min(selected.len()).max(1);
    errln!(
        "running {} experiment(s) at scale {} (seed {}, {} figure lane(s))...",
        selected.len(),
        opts.scale,
        opts.seed,
        jobs
    );
    let t_all = std::time::Instant::now();

    // Start expensive figures first so short ones pack the tail; a lane
    // with no figure left to start steals the replication chunks of
    // whatever is still running.
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
                errln!(
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
    // Written before anything is printed, so a reader that stops early
    // cannot cost the run its data.
    let json = csmaprobe_bench::report::reports_to_json(&reports);
    std::fs::write("experiments.json", &json).expect("write experiments.json");
    for rep in &reports {
        rep.print();
        outln!();
    }
    let total: usize = reports.iter().map(|r| r.checks.len()).sum();
    let passed: usize = reports
        .iter()
        .flat_map(|r| &r.checks)
        .filter(|c| c.passed)
        .count();
    errln!(
        "== {passed}/{total} qualitative checks passed; experiments.json written ({:.1}s total) ==",
        t_all.elapsed().as_secs_f64()
    );
    if passed != total {
        std::process::exit(1);
    }
}
