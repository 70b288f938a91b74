//! The scenario **grid runner**: sweep the link × train × tool product
//! space in one invocation and write its table.
//!
//! Usage:
//! `cargo run --release -p csmaprobe-bench --bin grid --
//!    [--links wired,wlan_low,wlan_mid] [--trains short,mid,long]
//!    [--tools train,slops] [--scale F] [--seed N] [--table grid.json]
//!    [--list]`
//!
//! `--links` and `--trains` accept **inline specs** alongside catalog
//! names: `--links wlan:cross=6e6,fifo=1e6,wired` composes a custom
//! CSMA/CA link into the axis, `--trains short,n=50` a custom train
//! length. Inline points get canonical parameter-spelling names, so
//! `6e6` and `6000000` name, key and seed the same cell.
//!
//! A run is one `run_sweep` of [`BiasGrid`]: it writes the rows, in
//! cell order, as a JSON array to `--table` and prints them as TSV.
//! Every cell is a pure function of its name and the seed, so the table
//! is byte-identical for any `CSMAPROBE_WORKERS`. `--list` prints the
//! catalogs and the selected cells without running or writing anything.
//!
//! Exit codes: 0 done, 2 usage or configuration error (an unknown flag,
//! a bad value, an unknown axis point or a `CSMAPROBE_WORKERS` that is
//! not a positive integer).

use csmaprobe_bench::grid::{parse_links, parse_tools, parse_trains, BiasGrid, GridRow};
use csmaprobe_bench::report::json_array;
use csmaprobe_bench::{parse_scale, parse_value};
use csmaprobe_core::sweep::{run_sweep, SweepScenario};
use csmaprobe_desim::executor;

const DEFAULT_LINKS: &str = "wired,wlan_low,wlan_mid";
const DEFAULT_TRAINS: &str = "short,mid,long";
const DEFAULT_TOOLS: &str = "train,slops";

struct Options {
    links: String,
    trains: String,
    tools: String,
    scale: f64,
    seed: u64,
    table: String,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: grid [--links a,b] [--trains a,b] [--tools a,b] [--scale F] [--seed N] \
         [--table grid.json] [--list]\n\
         inline axis specs: --links wlan:cross=<bps>,fifo=<bps> | \
         wired:capacity=<bps>,cross=<bps>; --trains n=<packets>"
    );
    std::process::exit(2);
}

/// A bad flag or value: name the problem, then the usage text.
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
        table: "grid.json".to_string(),
        list: false,
    };
    let mut it = args.iter().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_error(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--links" => o.links = value(),
            "--trains" => o.trains = value(),
            "--tools" => o.tools = value(),
            "--scale" => o.scale = parse_scale(&value()).unwrap_or_else(|e| usage_error(e)),
            "--seed" => o.seed = parse_value("--seed", &value()).unwrap_or_else(|e| usage_error(e)),
            "--table" => o.table = value(),
            "--list" => o.list = true,
            other => usage_error(format!("unknown flag {other:?}")),
        }
    }
    o
}

fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Print the rows as the human-readable TSV table.
fn print_tsv(rows: &[GridRow]) {
    let mbps = |bps: f64| {
        if bps.is_finite() {
            format!("{:.3}", bps / 1e6)
        } else {
            "nan".to_string()
        }
    };
    println!("link\ttrain\ttool\test_mbps\tci95_mbps\ttrue_A_mbps\treps\tfailed");
    for r in rows {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.link,
            r.train,
            r.tool,
            mbps(r.mean_bps),
            mbps(r.ci95_bps),
            mbps(r.available_bps),
            r.reps,
            r.failed,
        );
    }
}

/// `--list`: the catalogs, then the selected cells.
fn list(grid: &BiasGrid) {
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
    println!("cells: {} total", grid.points());
    println!("cell\tkey");
    for flat in 0..grid.points() {
        println!("{flat}\t{}", grid.key_of(flat));
    }
}

fn main() {
    executor::env_worker_limit().unwrap_or_else(|e| fail(e));
    let opts = parse_options();

    let links = parse_links(&opts.links).unwrap_or_else(|e| fail(e));
    let trains = parse_trains(&opts.trains).unwrap_or_else(|e| fail(e));
    let tools = parse_tools(&opts.tools).unwrap_or_else(|e| fail(e));
    let grid = BiasGrid::new(links, trains, tools, opts.scale, opts.seed);

    if opts.list {
        list(&grid);
        return;
    }

    let (links, trains, tools) = grid.axes();
    eprintln!(
        "grid: {} cell(s) ({} links x {} trains x {} tools) at scale {}",
        grid.points(),
        links.len(),
        trains.len(),
        tools.len(),
        opts.scale,
    );
    let t0 = std::time::Instant::now();
    let rows = run_sweep(&grid);
    std::fs::write(&opts.table, json_array(rows.iter().map(GridRow::to_json)))
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", opts.table)));
    print_tsv(&rows);
    eprintln!(
        "== {} cell(s) run; table {} written ({:.1}s) ==",
        rows.len(),
        opts.table,
        t0.elapsed().as_secs_f64(),
    );
}
