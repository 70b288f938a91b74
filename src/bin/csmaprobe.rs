//! `csmaprobe` — command-line front end to the measurement library.
//!
//! Configure a simulated WLAN (or wired) link and run any of the
//! bandwidth-measurement tools against it:
//!
//! ```text
//! csmaprobe capacity  [--bytes 1500]
//! csmaprobe steady    --rate 5.0 [link options]
//! csmaprobe train     --rate 5.0 --n 50 --reps 200 [link options]
//! csmaprobe pair      --pairs 300 [link options]
//! csmaprobe slops     [link options]
//! csmaprobe topp      [link options]
//! csmaprobe chirp     [link options]
//! csmaprobe transient --rate 5.0 --n 300 --reps 1000 [link options]
//! csmaprobe serve     [--addr H:P] [--out-dir D] [--drivers N]
//!                     [--table FILE] [--port-file FILE] [--workers W]
//!
//! link options:
//!   --cross <Mb/s>       contending Poisson cross-traffic (repeatable)
//!   --fifo-cross <Mb/s>  FIFO cross-traffic sharing the probe queue
//!   --wired <C Mb/s>     use a wired FIFO link of this capacity instead
//!   --seed <u64>         master seed (default 0xC5AA)
//! ```
//!
//! All rates are Mb/s on the command line; output is plain text. A
//! value the models cannot run is refused with exit 2, under the bounds
//! `grid` and the daemon's wire apply to the same quantities.

use csmaprobe::core::link::{
    LinkConfig, ProbeTarget, WiredLink, WlanLink, MAX_INLINE_BPS, MAX_TRAIN_PACKETS,
    MIN_WIRED_CAPACITY_BPS,
};
use csmaprobe::core::transient::{Columns, TransientExperiment};
use csmaprobe::desim::time::{Dur, Time};
use csmaprobe::mac::measured_standalone_capacity_bps;
use csmaprobe::phy::Phy;
use csmaprobe::probe::chirp::ChirpProbe;
use csmaprobe::probe::pair::PacketPairProbe;
use csmaprobe::probe::slops::SlopsEstimator;
use csmaprobe::probe::topp::ToppEstimator;
use csmaprobe::probe::train::TrainProbe;
use csmaprobe::service::wire::MAX_REPS;
use csmaprobe::traffic::probe::ProbeTrain;

struct Args {
    cmd: String,
    cross_mbps: Vec<f64>,
    fifo_cross_mbps: Option<f64>,
    wired_mbps: Option<f64>,
    rate_mbps: f64,
    n: usize,
    reps: usize,
    pairs: usize,
    bytes: u32,
    seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: csmaprobe <capacity|steady|train|pair|slops|topp|chirp|transient> \
         [--cross M]... [--fifo-cross M] [--wired C] [--rate M] [--n N] \
         [--reps R] [--pairs P] [--bytes B] [--seed S]\n\
         \x20      csmaprobe serve [--addr H:P] [--out-dir D] [--drivers N] \
         [--table FILE] [--port-file FILE] [--workers W]"
    );
    std::process::exit(2);
}

/// `csmaprobe serve`: run the resident session daemon until SIGTERM,
/// then drain, finalize the session table, and exit 0 iff the drain
/// audit held (every accepted session done-and-persisted or
/// cancelled).
fn serve_main(argv: &[String]) -> ! {
    let mut cfg = csmaprobe::service::server::ServeConfig::default();
    let mut workers: Option<usize> = None;
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> &str {
            argv.get(i + 1)
                .map(|s| s.as_str())
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--addr" => cfg.addr = need(i).to_string(),
            "--out-dir" => cfg.out_dir = need(i).into(),
            "--drivers" => cfg.drivers = need(i).parse().unwrap_or_else(|_| usage()),
            "--table" => cfg.table = Some(need(i).into()),
            "--port-file" => cfg.port_file = Some(need(i).into()),
            "--workers" => workers = Some(need(i).parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
        i += 2;
    }
    if let Some(w) = workers {
        csmaprobe::desim::executor::set_worker_limit(w);
    }
    match csmaprobe::service::server::serve(cfg) {
        Ok(summary) if summary.consistent => std::process::exit(0),
        Ok(summary) => {
            eprintln!(
                "csmaprobe serve: drain audit FAILED: accepted={} done={} cancelled={} persisted={}",
                summary.accepted, summary.done, summary.cancelled, summary.persisted
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("csmaprobe serve: {e}");
            std::process::exit(1);
        }
    }
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() < 2 {
        usage();
    }
    if argv[1] == "serve" {
        serve_main(&argv[2..]);
    }
    let mut args = Args {
        cmd: argv[1].clone(),
        cross_mbps: Vec::new(),
        fifo_cross_mbps: None,
        wired_mbps: None,
        rate_mbps: 5.0,
        n: 50,
        reps: 200,
        pairs: 300,
        bytes: 1500,
        seed: 0xC5AA,
    };
    let mut i = 2;
    while i < argv.len() {
        let need = |i: usize| -> &str {
            argv.get(i + 1)
                .map(|s| s.as_str())
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--cross" => args
                .cross_mbps
                .push(need(i).parse().unwrap_or_else(|_| usage())),
            "--fifo-cross" => {
                args.fifo_cross_mbps = Some(need(i).parse().unwrap_or_else(|_| usage()))
            }
            "--wired" => args.wired_mbps = Some(need(i).parse().unwrap_or_else(|_| usage())),
            "--rate" => args.rate_mbps = need(i).parse().unwrap_or_else(|_| usage()),
            "--n" => args.n = need(i).parse().unwrap_or_else(|_| usage()),
            "--reps" => args.reps = need(i).parse().unwrap_or_else(|_| usage()),
            "--pairs" => args.pairs = need(i).parse().unwrap_or_else(|_| usage()),
            "--bytes" => args.bytes = need(i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = need(i).parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        i += 2;
    }
    args
}

/// `Err` naming `flag` and its bound unless `lo <= v <= hi` (NaN is
/// out of every bound).
fn bounded<T: PartialOrd + std::fmt::Debug>(
    flag: &str,
    v: T,
    lo: T,
    hi: T,
    unit: &str,
) -> Result<(), String> {
    if lo <= v && v <= hi {
        Ok(())
    } else {
        Err(format!(
            "{flag} must be in {lo:?}..={hi:?}{unit} (got {v:?})"
        ))
    }
}

/// Refuse values out of the bounds the models run under; the flags
/// are in Mb/s, the bounds in bits/s.
fn check(args: &Args) -> Result<(), String> {
    let max = MAX_INLINE_BPS / 1e6;
    for &c in &args.cross_mbps {
        bounded("--cross", c, 0.0, max, " Mb/s")?;
    }
    if let Some(f) = args.fifo_cross_mbps {
        bounded("--fifo-cross", f, 0.0, max, " Mb/s")?;
    }
    if !(args.rate_mbps > 0.0 && args.rate_mbps <= max) {
        let rate = args.rate_mbps;
        return Err(format!(
            "--rate must be in (0, {max:?}] Mb/s (got {rate:?})"
        ));
    }
    if let Some(c) = args.wired_mbps {
        bounded("--wired", c, MIN_WIRED_CAPACITY_BPS / 1e6, max, " Mb/s")?;
        let cross: f64 = args.cross_mbps.iter().sum();
        if cross >= c {
            return Err(format!(
                "--cross must total below the --wired capacity {c:?} Mb/s (got {cross:?})"
            ));
        }
    }
    bounded("--n", args.n, 2, MAX_TRAIN_PACKETS, "")?;
    bounded("--bytes", args.bytes, 1, u32::MAX, " B")?;
    // The train's last packet arrives (n − 1) gaps after the warm-up;
    // that instant must fit the nanosecond clock.
    let span_s = (args.n - 1) as f64 * 8.0 * f64::from(args.bytes) / (args.rate_mbps * 1e6);
    let room_s = Time::MAX
        .since(Time::ZERO + LinkConfig::default().warmup)
        .as_secs_f64();
    if span_s >= room_s {
        let rate = args.rate_mbps;
        return Err(format!(
            "--rate {rate:?} Mb/s is too low: a {}-packet train of {} B spans {span_s:.3e} s, \
             beyond the {room_s:.3e} s the simulation clock holds",
            args.n, args.bytes
        ));
    }
    bounded("--reps", args.reps, 1, MAX_REPS, "")?;
    bounded("--pairs", args.pairs, 1, MAX_REPS, "")
}

fn build_wlan(args: &Args) -> WlanLink {
    let mut cfg = LinkConfig::default().probe_bytes(args.bytes);
    for &c in &args.cross_mbps {
        cfg = cfg.contending_bps(c * 1e6);
    }
    if let Some(f) = args.fifo_cross_mbps {
        cfg = cfg.fifo_cross_bps(f * 1e6);
    }
    WlanLink::new(cfg)
}

fn target(args: &Args) -> Box<dyn ProbeTarget> {
    match args.wired_mbps {
        Some(c) => {
            let cross = args.cross_mbps.iter().sum::<f64>() * 1e6;
            Box::new(WiredLink::new(c * 1e6, cross))
        }
        None => Box::new(build_wlan(args)),
    }
}

fn main() {
    let args = parse();
    if let Err(e) = check(&args) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    match args.cmd.as_str() {
        "capacity" => {
            let c =
                measured_standalone_capacity_bps(&Phy::dsss_11mbps(), args.bytes, 3000, args.seed);
            println!(
                "stand-alone DCF capacity ({}B frames): {:.3} Mb/s",
                args.bytes,
                c / 1e6
            );
        }
        "steady" => {
            let link = build_wlan(&args);
            let pt = link.steady_state(args.rate_mbps * 1e6, Dur::from_secs(8), args.seed);
            println!("input rate:   {:.3} Mb/s", pt.input_rate_bps / 1e6);
            println!("probe output: {:.3} Mb/s", pt.output_rate_bps / 1e6);
            for (k, c) in pt.contending_bps.iter().enumerate() {
                println!("contender {k}:  {:.3} Mb/s", c / 1e6);
            }
            if pt.fifo_cross_bps > 0.0 {
                println!("fifo cross:   {:.3} Mb/s", pt.fifo_cross_bps / 1e6);
            }
        }
        "train" => {
            let t = target(&args);
            let m = TrainProbe::new(args.n, args.bytes, args.rate_mbps * 1e6).measure(
                t.as_ref(),
                args.reps,
                args.seed,
            );
            println!(
                "{}-packet trains at {:.2} Mb/s over {} reps:",
                args.n, args.rate_mbps, args.reps
            );
            println!(
                "E[gO]   = {:.6} ms (95% ±{:.6})",
                m.mean_output_gap_s() * 1e3,
                m.gap_ci95_s() * 1e3
            );
            println!("L/E[gO] = {:.3} Mb/s", m.output_rate_bps() / 1e6);
        }
        "pair" => {
            let t = target(&args);
            let m = PacketPairProbe::new(args.bytes, args.pairs).measure(t.as_ref(), args.seed);
            println!("packet pairs ({}):", args.pairs);
            println!(
                "mean-dispersion rate:   {:.3} Mb/s",
                m.rate_from_mean_bps() / 1e6
            );
            println!(
                "median-dispersion rate: {:.3} Mb/s",
                m.rate_from_median_bps() / 1e6
            );
            println!(
                "min-dispersion rate:    {:.3} Mb/s",
                m.rate_from_min_bps() / 1e6
            );
        }
        "slops" => {
            let t = target(&args);
            let r = SlopsEstimator::default().run(t.as_ref(), args.seed);
            println!("SLoPS-style estimate: {:.3} Mb/s", r.estimate_bps / 1e6);
        }
        "topp" => {
            let t = target(&args);
            match ToppEstimator::default().run(t.as_ref(), args.seed) {
                Some(r) => {
                    println!(
                        "TOPP available bandwidth: {:.3} Mb/s",
                        r.available_bps / 1e6
                    );
                    println!("TOPP capacity:            {:.3} Mb/s", r.capacity_bps / 1e6);
                }
                None => println!("TOPP: no congestion within the probed range"),
            }
        }
        "chirp" => {
            let t = target(&args);
            let r = ChirpProbe::default().measure(t.as_ref(), args.seed);
            println!(
                "chirp estimate: {:.3} Mb/s ({} chirps uncongested, {} fully congested)",
                r.estimate_bps() / 1e6,
                r.saturated_high,
                r.saturated_low
            );
        }
        "transient" => {
            let exp = TransientExperiment {
                link: build_wlan(&args),
                train: ProbeTrain::from_rate(args.n, args.bytes, args.rate_mbps * 1e6),
                reps: args.reps,
                seed: args.seed,
            };
            let data = exp.run_columns(Columns::DELAYS);
            let steady = data.steady_mean(args.n / 2);
            let profile = data.mean_profile();
            println!("steady-state mean access delay: {:.4} ms", steady * 1e3);
            println!("first-packet mean access delay: {:.4} ms", profile[0] * 1e3);
            for tol in [0.1, 0.01] {
                let est = data.transient_length(args.n / 2, tol);
                println!(
                    "transient length (rel. tol {tol}): {:?} packets",
                    est.first_within.map(|i| i + 1)
                );
            }
        }
        _ => usage(),
    }
}
