//! The scenario **grid runner**: sweep the link × train × tool product
//! space in one invocation, persisting each finished cell incrementally
//! so huge grids never materialise in memory and an interrupted run
//! resumes where it stopped.
//!
//! Usage:
//! `cargo run --release -p csmaprobe-bench --bin grid --
//!    [--links wired,wlan_low,wlan_mid] [--trains short,mid,long]
//!    [--tools train,slops] [--scale F] [--seed N] [--jobs N]
//!    [--out grid_rows.jsonl] [--table grid.json] [--resume]
//!    [--max-cells K] [--list]`
//!
//! `--links` and `--trains` accept **inline specs** alongside catalog
//! names: `--links wlan:cross=6e6,fifo=1e6,wired` composes a custom
//! CSMA/CA link into the axis, `--trains short,n=50` a custom train
//! length. Inline points get canonical parameter-spelling names that
//! fold into every row's run-config fingerprint, so `--resume` rejects
//! a file produced by a different spec exactly as it rejects a changed
//! axis selection.
//!
//! Rows stream into `--out` as append-only JSONL (one line per cell,
//! flushed as the cell completes; see `report::RowSink`). With
//! `--resume`, already-persisted cells are skipped and a torn tail line
//! (from a kill mid-write) is truncated away — by the engine's
//! cell-local chunk-grid contract the re-run produces rows
//! **bit-identical** to what an uninterrupted run would have written,
//! so interrupted-plus-resumed and uninterrupted runs end with the same
//! row set. The finalize step assembles the rows (sorted by cell, so
//! completion order never shows) into the `--table` JSON array.
//!
//! `--resume` refuses a row file written by a different grid
//! configuration (its rows carry another run fingerprint) or holding a
//! row whose key is not a cell of this grid. `--list` prints the cell
//! space and each cell's status in `--out`, reading the file without
//! writing to it.
//!
//! `--max-cells K` stops after K cells (exit code 3, "interrupted by
//! budget") — a deterministic interruption for the CI resume proof.
//! Exit codes: 0 done, 2 usage/configuration error, 3 interrupted
//! (cells still pending).

use csmaprobe_bench::grid::{parse_links, parse_tools, parse_trains, BiasGrid, GridRow};
use csmaprobe_bench::report::{row_cell, RowSink};
use csmaprobe_bench::{parse_scale, parse_value};
use csmaprobe_core::sweep::{run_sweep_cells, SweepScenario};
use csmaprobe_desim::replicate;

const DEFAULT_LINKS: &str = "wired,wlan_low,wlan_mid";
const DEFAULT_TRAINS: &str = "short,mid,long";
const DEFAULT_TOOLS: &str = "train,slops";

struct Options {
    links: String,
    trains: String,
    tools: String,
    scale: f64,
    seed: u64,
    jobs: usize,
    out: String,
    table: String,
    resume: bool,
    max_cells: usize,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: grid [--links a,b] [--trains a,b] [--tools a,b] [--scale F] [--seed N] \
         [--jobs N] [--out rows.jsonl] [--table grid.json] [--resume] [--max-cells K] \
         [--list]\n\
         inline axis specs: --links wlan:cross=<bps>,fifo=<bps> | \
         wired:capacity=<bps>,cross=<bps>; --trains n=<packets>"
    );
    std::process::exit(2);
}

/// A malformed flag value: name the problem, then the usage text.
fn usage_error(msg: String) -> ! {
    eprintln!("error: {msg}");
    usage();
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().collect();
    let mut o = Options {
        links: DEFAULT_LINKS.to_string(),
        trains: DEFAULT_TRAINS.to_string(),
        tools: DEFAULT_TOOLS.to_string(),
        scale: csmaprobe_bench::DEFAULT_SCALE,
        seed: csmaprobe_bench::DEFAULT_SEED,
        jobs: 0,
        out: "grid_rows.jsonl".to_string(),
        table: "grid.json".to_string(),
        resume: false,
        max_cells: usize::MAX,
        list: false,
    };
    let mut i = 1;
    while i < args.len() {
        let value = || -> String { args.get(i + 1).cloned().unwrap_or_else(|| usage()) };
        match args[i].as_str() {
            "--links" => {
                o.links = value();
                i += 1;
            }
            "--trains" => {
                o.trains = value();
                i += 1;
            }
            "--tools" => {
                o.tools = value();
                i += 1;
            }
            "--scale" => {
                o.scale = parse_scale(&value()).unwrap_or_else(|e| usage_error(e));
                i += 1;
            }
            "--seed" => {
                o.seed = parse_value("--seed", &value()).unwrap_or_else(|e| usage_error(e));
                i += 1;
            }
            "--jobs" => {
                o.jobs = parse_value("--jobs", &value()).unwrap_or_else(|e| usage_error(e));
                if o.jobs == 0 {
                    usage_error("--jobs must be at least 1".to_string());
                }
                i += 1;
            }
            "--out" => {
                o.out = value();
                i += 1;
            }
            "--table" => {
                o.table = value();
                i += 1;
            }
            "--max-cells" => {
                o.max_cells =
                    parse_value("--max-cells", &value()).unwrap_or_else(|e| usage_error(e));
                if o.max_cells == 0 {
                    // A zero budget used to be accepted as a silent
                    // no-op run that still exited 3 ("interrupted") —
                    // make the contradiction explicit instead.
                    usage_error(
                        "--max-cells 0 would run nothing and exit as interrupted; \
                         give a positive budget (or omit the flag)"
                            .to_string(),
                    );
                }
                i += 1;
            }
            "--resume" => o.resume = true,
            "--list" => o.list = true,
            _ => usage(),
        }
        i += 1;
    }
    o
}

fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Print cell-sorted rows as the human-readable TSV table.
fn print_tsv(rows: &[String]) {
    println!("link\ttrain\ttool\test_mbps\tci95_mbps\ttrue_A_mbps\treps\tfailed");
    for line in rows {
        // Rows are our own serialisation; a light scan prints the TSV.
        let field = |name: &str| -> String {
            let pat = format!("\"{name}\":");
            line.find(&pat)
                .map(|at| {
                    let rest = &line[at + pat.len()..];
                    // Quoted values (inline-spec names contain commas)
                    // end at the closing quote, bare ones at , or }.
                    if let Some(quoted) = rest.strip_prefix('"') {
                        let end = quoted.find('"').unwrap_or(quoted.len());
                        quoted[..end].to_string()
                    } else {
                        let end = rest.find([',', '}']).unwrap_or(rest.len());
                        rest[..end].to_string()
                    }
                })
                .unwrap_or_default()
        };
        let mbps = |name: &str| -> String {
            field(name)
                .parse::<f64>()
                .map(|v| format!("{:.3}", v / 1e6))
                .unwrap_or_else(|_| "nan".to_string())
        };
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            field("link"),
            field("train"),
            field("tool"),
            mbps("mean_bps"),
            mbps("ci95_bps"),
            mbps("available_bps"),
            field("reps"),
            field("failed"),
        );
    }
}

/// `--list`: the catalogs, then the cell space with each cell's
/// persistence status. Reads the `--out` file (if any) strictly
/// read-only.
fn list(grid: &BiasGrid, opts: &Options) -> ! {
    println!("links:");
    for l in csmaprobe_bench::grid::LINKS {
        println!("  {:<10} {}", l.name, l.title);
    }
    println!("trains:");
    for t in csmaprobe_bench::grid::TRAINS {
        println!("  {:<10} {} packets", t.name, t.n);
    }
    println!("tools:");
    for t in csmaprobe_probe::tool::ToolKind::ALL {
        println!("  {}", t.name());
    }
    println!(
        "inline specs: --links wlan:cross=<bps>,fifo=<bps> | \
         wired:capacity=<bps>,cross=<bps>; --trains n=<packets>"
    );

    let total = grid.points();
    let persisted = match RowSink::load(&opts.out) {
        Ok(file) => (0..total).map(|f| file.contains(&grid.key_of(f))).collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => vec![false; total],
        Err(e) => fail(format!("cannot read {}: {e}", opts.out)),
    };
    println!("cells: {total} total");
    println!("cell\tstatus\tkey");
    for (flat, done) in persisted.into_iter().enumerate() {
        let status = if done { "done" } else { "pending" };
        println!("{flat}\t{status}\t{}", grid.key_of(flat));
    }
    std::process::exit(0);
}

fn main() {
    let opts = parse_options();

    let links = parse_links(&opts.links).unwrap_or_else(|e| fail(e));
    let trains = parse_trains(&opts.trains).unwrap_or_else(|e| fail(e));
    let tools = parse_tools(&opts.tools).unwrap_or_else(|e| fail(e));

    if opts.jobs > 0 {
        replicate::set_worker_limit(opts.jobs);
    }

    let grid = BiasGrid::new(links, trains, tools, opts.scale, opts.seed);
    let total = grid.points();

    if opts.list {
        list(&grid, &opts);
    }

    let mut sink = if opts.resume {
        RowSink::resume(&opts.out)
    } else {
        RowSink::create(&opts.out)
    }
    .unwrap_or_else(|e| fail(format!("cannot open {}: {e}", opts.out)));

    // A resumed file must come from this exact grid configuration:
    // every persisted row must carry this run's fingerprint (axes,
    // order, scale, seed) and a key of this grid. Anything else would
    // silently mix statistical populations in the final table.
    if opts.resume && !sink.is_empty() {
        let expected: std::collections::BTreeSet<String> =
            (0..total).map(|f| grid.key_of(f)).collect();
        let fingerprint = grid.fingerprint();
        let rows = sink
            .read_rows()
            .unwrap_or_else(|e| fail(format!("reading {}: {e}", opts.out)));
        for line in &rows {
            let key = csmaprobe_bench::report::row_key(line).unwrap_or("?");
            if GridRow::run_of(line) != Some(fingerprint) {
                fail(format!(
                    "{} row {key} was produced by a different grid configuration \
                     (axes/order, --scale or --seed differ); \
                     delete the file or re-run with the original options",
                    opts.out
                ));
            }
            if !expected.contains(key) {
                fail(format!(
                    "{} row {key} is not a cell of this grid; delete the file or \
                     re-run with the original axis selection",
                    opts.out
                ));
            }
        }
    }

    // Schedule exactly the cells whose rows are not yet persisted.
    let pending: Vec<usize> = (0..total)
        .filter(|&f| !sink.contains(&grid.key_of(f)))
        .collect();
    let skipped = total - pending.len();
    let budgeted: &[usize] = &pending[..pending.len().min(opts.max_cells)];
    eprintln!(
        "grid: {total} cell(s) ({} links x {} trains x {} tools) at scale {}; \
         {skipped} already persisted, running {}{}",
        grid.axes().0.len(),
        grid.axes().1.len(),
        grid.axes().2.len(),
        opts.scale,
        budgeted.len(),
        if budgeted.len() < pending.len() {
            format!(" (of {} pending, --max-cells)", pending.len())
        } else {
            String::new()
        },
    );

    let t0 = std::time::Instant::now();
    let mut done = 0usize;
    let mut io_error: Option<std::io::Error> = None;
    run_sweep_cells(&grid, budgeted, |flat, row: GridRow| {
        if io_error.is_some() {
            return;
        }
        if let Err(e) = sink.append(&row.to_json()) {
            io_error = Some(e);
            return;
        }
        done += 1;
        eprintln!(
            "[{}/{total}] cell {flat} {}: {:.2} Mb/s (A {:.2}, {} rep(s), {} failed)",
            skipped + done,
            row.key(),
            row.mean_bps / 1e6,
            row.available_bps / 1e6,
            row.reps,
            row.failed,
        );
    });
    if let Some(e) = io_error {
        fail(format!("writing {}: {e}", opts.out));
    }

    if sink.len() < total {
        eprintln!(
            "== {done} cell(s) persisted in {:.1}s; {} still pending — re-run with --resume ==",
            t0.elapsed().as_secs_f64(),
            total - sink.len(),
        );
        std::process::exit(3);
    }

    let table = sink
        .finalize()
        .unwrap_or_else(|e| fail(format!("finalize: {e}")));
    std::fs::write(&opts.table, &table)
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", opts.table)));
    let mut rows = sink
        .read_rows()
        .unwrap_or_else(|e| fail(format!("read rows: {e}")));
    rows.sort_by_key(|l| row_cell(l).unwrap_or(u64::MAX));
    print_tsv(&rows);
    eprintln!(
        "== {done} cell(s) run, {} persisted in {}; table {} written ({:.1}s) ==",
        total,
        opts.out,
        opts.table,
        t0.elapsed().as_secs_f64(),
    );
}
