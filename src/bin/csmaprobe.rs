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
//! csmaprobe serve     [--addr H:P] [--out-dir D] [--table FILE]
//!                     [--port-file FILE] [--workers W]
//!
//! link options:
//!   --cross <Mb/s>       contending Poisson cross-traffic (repeatable)
//!   --fifo-cross <Mb/s>  FIFO cross-traffic sharing the probe queue
//!   --wired <C Mb/s>     use a wired FIFO link of this capacity instead
//!   --seed <u64>         master seed (default 0xC5AA)
//! ```
//!
//! All rates are Mb/s on the command line; output is plain text. A
//! value the models cannot run is refused with exit 2 and one error
//! line, under the bounds the daemon's wire applies to the same
//! quantities; so are a `serve --workers` and a `CSMAPROBE_WORKERS`
//! outside `1..=MAX_WORKERS` (1024). A malformed command line (a
//! missing or unknown subcommand, an unknown flag, a missing or
//! unparseable value) exits 2 with one error line naming it, then the
//! usage text. A flag's value is never another flag: `--out-dir
//! --workers 2` is a missing `--out-dir` value (a negative number such
//! as `-1` is still a value).
//!
//! `serve --workers W` sets the executor's concurrency ceiling (else
//! `CSMAPROBE_WORKERS`, else the hardware parallelism), and the daemon
//! runs one session driver per unit of it.

use csmaprobe::core::link::{
    LinkConfig, ProbeTarget, WiredLink, WlanLink, MAX_INLINE_BPS, MAX_TRAIN_PACKETS,
    MIN_WIRED_CAPACITY_BPS,
};
use csmaprobe::core::transient::{Columns, TransientExperiment};
use csmaprobe::desim::executor::MAX_WORKERS;
use csmaprobe::desim::time::{Dur, Time};
use csmaprobe::desim::{errln, outln};
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
    errln!(
        "usage: csmaprobe <{}> \
         [--cross M]... [--fifo-cross M] [--wired C] [--rate M] [--n N] \
         [--reps R] [--pairs P] [--bytes B] [--seed S]\n\
         \x20      csmaprobe serve [--addr H:P] [--out-dir D] [--table FILE] \
         [--port-file FILE] [--workers W]",
        COMMANDS.join("|")
    );
    std::process::exit(2);
}

/// Print one error line and exit 2.
fn refuse(msg: String) -> ! {
    errln!("error: {msg}");
    std::process::exit(2);
}

/// A malformed command line: one error line naming the problem, then
/// the usage text, exit 2.
fn usage_error(msg: String) -> ! {
    errln!("error: {msg}");
    usage();
}

/// Parse `flag`'s value, or refuse naming the flag and the value.
fn value<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage_error(format!("invalid {flag} value {v:?}")))
}

/// The value after the flag at `argv[i]`, or refuse naming the flag
/// when it is missing or is another flag.
fn need(argv: &[String], i: usize) -> &str {
    argv.get(i + 1)
        .map(|s| s.as_str())
        .filter(|v| !v.starts_with("--"))
        .unwrap_or_else(|| usage_error(format!("{} needs a value", argv[i])))
}

/// The measurement subcommands (`serve` is parsed on its own).
const COMMANDS: [&str; 8] = [
    "capacity",
    "steady",
    "train",
    "pair",
    "slops",
    "topp",
    "chirp",
    "transient",
];

/// `serve --workers`: an integer in `1..=MAX_WORKERS`, checked before
/// any thread starts; the error names the flag and the bound.
fn workers(v: &str) -> usize {
    match v.parse() {
        Ok(n) if (1..=MAX_WORKERS).contains(&n) => n,
        _ => refuse(format!(
            "--workers must be an integer in 1..={MAX_WORKERS} (got {v:?})"
        )),
    }
}

/// `csmaprobe serve`: run the resident session daemon until SIGTERM,
/// then drain, finalize the session table, and exit 0 iff the drain
/// audit held (every accepted session done-and-persisted or
/// cancelled).
fn serve_main(argv: &[String]) -> ! {
    let mut cfg = csmaprobe::service::server::ServeConfig::default();
    let mut limit: Option<usize> = None;
    let mut i = 0;
    while i < argv.len() {
        let v = || need(argv, i);
        match argv[i].as_str() {
            "--addr" => cfg.addr = v().to_string(),
            "--out-dir" => cfg.out_dir = v().into(),
            "--table" => cfg.table = Some(v().into()),
            "--port-file" => cfg.port_file = Some(v().into()),
            "--workers" => limit = Some(workers(v())),
            other => usage_error(format!("unknown serve flag {other:?}")),
        }
        i += 2;
    }
    if let Some(w) = limit {
        csmaprobe::desim::executor::set_worker_limit(w);
    }
    match csmaprobe::service::server::serve(cfg) {
        Ok(summary) if summary.consistent => std::process::exit(0),
        Ok(summary) => {
            errln!(
                "csmaprobe serve: drain audit FAILED: accepted={} done={} cancelled={} persisted={}",
                summary.accepted, summary.done, summary.cancelled, summary.persisted
            );
            std::process::exit(1);
        }
        Err(e) => {
            errln!("csmaprobe serve: {e}");
            std::process::exit(1);
        }
    }
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let Some(cmd) = argv.get(1) else {
        usage_error("missing subcommand".to_string())
    };
    if cmd == "serve" {
        serve_main(&argv[2..]);
    }
    if !COMMANDS.contains(&cmd.as_str()) {
        usage_error(format!("unknown subcommand {cmd:?}"));
    }
    let mut args = Args {
        cmd: cmd.clone(),
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
        let flag = argv[i].as_str();
        let v = || need(&argv, i);
        match flag {
            "--cross" => args.cross_mbps.push(value(flag, v())),
            "--fifo-cross" => args.fifo_cross_mbps = Some(value(flag, v())),
            "--wired" => args.wired_mbps = Some(value(flag, v())),
            "--rate" => args.rate_mbps = value(flag, v()),
            "--n" => args.n = value(flag, v()),
            "--reps" => args.reps = value(flag, v()),
            "--pairs" => args.pairs = value(flag, v()),
            "--bytes" => args.bytes = value(flag, v()),
            "--seed" => args.seed = value(flag, v()),
            other => usage_error(format!("unknown {cmd} flag {other:?}")),
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
    csmaprobe::desim::executor::env_worker_limit().unwrap_or_else(|e| refuse(e));
    let args = parse();
    check(&args).unwrap_or_else(|e| refuse(e));
    match args.cmd.as_str() {
        "capacity" => {
            let c =
                measured_standalone_capacity_bps(&Phy::dsss_11mbps(), args.bytes, 3000, args.seed);
            outln!(
                "stand-alone DCF capacity ({}B frames): {:.3} Mb/s",
                args.bytes,
                c / 1e6
            );
        }
        "steady" => {
            let link = build_wlan(&args);
            let pt = link.steady_state(args.rate_mbps * 1e6, Dur::from_secs(8), args.seed);
            outln!("input rate:   {:.3} Mb/s", pt.input_rate_bps / 1e6);
            outln!("probe output: {:.3} Mb/s", pt.output_rate_bps / 1e6);
            for (k, c) in pt.contending_bps.iter().enumerate() {
                outln!("contender {k}:  {:.3} Mb/s", c / 1e6);
            }
            if pt.fifo_cross_bps > 0.0 {
                outln!("fifo cross:   {:.3} Mb/s", pt.fifo_cross_bps / 1e6);
            }
        }
        "train" => {
            let t = target(&args);
            let m = TrainProbe::new(args.n, args.bytes, args.rate_mbps * 1e6).measure(
                t.as_ref(),
                args.reps,
                args.seed,
            );
            outln!(
                "{}-packet trains at {:.2} Mb/s over {} reps:",
                args.n,
                args.rate_mbps,
                args.reps
            );
            outln!(
                "E[gO]   = {:.6} ms (95% ±{:.6})",
                m.mean_output_gap_s() * 1e3,
                m.gap_ci95_s() * 1e3
            );
            outln!("L/E[gO] = {:.3} Mb/s", m.output_rate_bps() / 1e6);
        }
        "pair" => {
            let t = target(&args);
            let m = PacketPairProbe::new(args.bytes, args.pairs).measure(t.as_ref(), args.seed);
            outln!("packet pairs ({}):", args.pairs);
            outln!(
                "mean-dispersion rate:   {:.3} Mb/s",
                m.rate_from_mean_bps() / 1e6
            );
            outln!(
                "median-dispersion rate: {:.3} Mb/s",
                m.rate_from_median_bps() / 1e6
            );
            outln!(
                "min-dispersion rate:    {:.3} Mb/s",
                m.rate_from_min_bps() / 1e6
            );
        }
        "slops" => {
            let t = target(&args);
            let r = SlopsEstimator::default().run(t.as_ref(), args.seed);
            outln!("SLoPS-style estimate: {:.3} Mb/s", r.estimate_bps / 1e6);
        }
        "topp" => {
            let t = target(&args);
            match ToppEstimator::default().run(t.as_ref(), args.seed) {
                Some(r) => {
                    outln!(
                        "TOPP available bandwidth: {:.3} Mb/s",
                        r.available_bps / 1e6
                    );
                    outln!("TOPP capacity:            {:.3} Mb/s", r.capacity_bps / 1e6);
                }
                None => outln!("TOPP: no congestion within the probed range"),
            }
        }
        "chirp" => {
            let t = target(&args);
            let r = ChirpProbe::default().measure(t.as_ref(), args.seed);
            outln!(
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
            outln!("steady-state mean access delay: {:.4} ms", steady * 1e3);
            outln!("first-packet mean access delay: {:.4} ms", profile[0] * 1e3);
            for tol in [0.1, 0.01] {
                let est = data.transient_length(args.n / 2, tol);
                outln!(
                    "transient length (rel. tol {tol}): {:?} packets",
                    est.first_within.map(|i| i + 1)
                );
            }
        }
        other => unreachable!("parse() admits no subcommand {other:?}"),
    }
}
