//! `perfbench` — helper binary of `perfbench/run.py`.
//!
//! ```text
//! perfbench replay  --workload transient|sweep --seed S
//! perfbench replay  --workload serve --seed M --sessions N --frames FILE --scratch DIR
//! perfbench client  --port-file FILE --seed M --sessions N [--conns C] [--poll-us U] [--frames-out FILE]
//! perfbench oneshot --seed M --sessions N --table FILE [--threads T]
//! perfbench calibrate
//! ```
//!
//! Every command prints one JSON object on stdout. `replay` runs at one
//! executor worker and reports span totals by name, work counters, the
//! replay's wall time and the part of it covered by layer spans.

use csmaprobe_bench::report::{json_f64, json_str, reports_to_json};
use csmaprobe_perfbench::{calibrate, serve, sweep, trace, transient};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench replay --workload transient|sweep --seed S\n\
         \x20      perfbench replay --workload serve --seed M --sessions N --frames FILE --scratch DIR\n\
         \x20      perfbench client --port-file FILE --seed M --sessions N [--conns C] [--poll-us U] [--frames-out FILE]\n\
         \x20      perfbench oneshot --seed M --sessions N --table FILE [--threads T]\n\
         \x20      perfbench calibrate"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut m = HashMap::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let Some(name) = k.strip_prefix("--") else {
                usage()
            };
            let Some(v) = it.next() else { usage() };
            m.insert(name.to_string(), v.clone());
        }
        Opts(m)
    }
    fn str(&self, k: &str) -> &str {
        self.0.get(k).map(String::as_str).unwrap_or_else(|| usage())
    }
    fn num<T: std::str::FromStr>(&self, k: &str, default: Option<T>) -> T {
        match self.0.get(k) {
            Some(v) => v.parse().unwrap_or_else(|_| usage()),
            None => default.unwrap_or_else(|| usage()),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    let opts = Opts::parse(rest);
    match cmd.as_str() {
        "replay" => replay_main(&opts),
        "client" => client_main(&opts),
        "oneshot" => oneshot_main(&opts),
        "calibrate" => {
            let t = std::time::Instant::now();
            let sum = calibrate::kernel(calibrate::EVENTS);
            println!(
                "{{\"seconds\":{},\"checksum\":{sum}}}",
                json_f64(t.elapsed().as_secs_f64())
            );
        }
        _ => usage(),
    }
}

fn json_list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

fn replay_main(opts: &Opts) {
    csmaprobe_desim::replicate::set_worker_limit(1);
    let workload = opts.str("workload").to_string();
    let seed: u64 = opts.num("seed", None);
    trace::set_run(seed);
    let mut extra = String::new();
    let root = || match workload.as_str() {
        "transient" | "sweep" => {
            let r = if workload == "transient" {
                transient::replay(seed)
            } else {
                sweep::replay(seed)
            };
            trace::span("bench.report", || {
                for rep in &r.reports {
                    std::hint::black_box(rep.render());
                }
                std::hint::black_box(reports_to_json(&r.reports));
            });
            let replayed: Vec<_> = r
                .reports
                .into_iter()
                .filter(|rep| r.replayed.contains(&rep.id))
                .collect();
            format!(
                ",\"replayed\":{},\"reports\":{}",
                json_list(replayed.iter().map(|r| json_str(&r.id))),
                reports_to_json(&replayed)
            )
        }
        "serve" => {
            let reqs = serve::select(seed, opts.num("sessions", None)).unwrap_or_else(|e| fail(e));
            let frames: Vec<String> = std::fs::read_to_string(opts.str("frames"))
                .unwrap_or_else(|e| fail(e))
                .lines()
                .map(str::to_string)
                .collect();
            let scratch = Path::new(opts.str("scratch")).join("replay-rows.jsonl");
            let r = serve::replay(&reqs, &frames, &scratch).unwrap_or_else(|e| fail(e));
            format!(
                ",\"table\":{},\"compute_ms\":{}",
                json_str(&r.table),
                json_list(r.compute_ms.iter().map(|&v| json_f64(v)))
            )
        }
        _ => usage(),
    };
    extra.push_str(&trace::span("replay", root));

    let (spans, counts) = trace::take();
    let root = spans
        .iter()
        .find(|s| s.name == "replay")
        .expect("root span recorded");
    let layer: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name != "replay" && s.name != "bench.figure")
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let attributed = trace::covered_ns(&layer, root.start_ns, root.end_ns);
    let totals = trace::totals_by_name(&spans);
    println!(
        "{{\"workload\":{},\"seed\":{seed},\"run\":{},\"wall_ns\":{},\"attributed_ns\":{attributed},\
         \"totals\":{{{}}},\"counts\":{{{}}}{extra}}}",
        json_str(&workload),
        root.run,
        root.duration_ns(),
        totals
            .iter()
            .map(|(name, t)| format!(
                "{}:{{\"spans\":{},\"total_ns\":{},\"self_ns\":{}}}",
                json_str(name),
                t.spans,
                t.total_ns,
                t.self_ns
            ))
            .collect::<Vec<_>>()
            .join(","),
        counts
            .iter()
            .map(|(name, n)| format!("{}:{n}", json_str(name)))
            .collect::<Vec<_>>()
            .join(","),
    );
}

fn wait_for_addr(port_file: &Path) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if text.ends_with('\n') {
                return text.trim().to_string();
            }
        }
        if std::time::Instant::now() > deadline {
            fail(format!("no address in {}", port_file.display()));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn client_main(opts: &Opts) {
    let reqs = serve::select(opts.num("seed", None), opts.num("sessions", None))
        .unwrap_or_else(|e| fail(e));
    let addr = wait_for_addr(&PathBuf::from(opts.str("port-file")));
    let poll = Duration::from_micros(opts.num("poll-us", Some(1000)));
    let r =
        serve::drive(&addr, &reqs, opts.num("conns", Some(2)), poll).unwrap_or_else(|e| fail(e));
    if let Some(path) = opts.0.get("frames-out") {
        let mut text = r.frames.join("\n");
        text.push('\n');
        std::fs::write(path, text).unwrap_or_else(|e| fail(e));
    }
    println!(
        "{{\"wall_s\":{},\"refused\":{},\"failed\":{},\"cancelled\":{},\"latency_ms\":{}}}",
        json_f64(r.wall_s),
        r.refused,
        r.failed,
        r.cancelled,
        json_list(r.latency_s.iter().map(|l| match l {
            Some(s) => json_f64(s * 1e3),
            None => "null".to_string(),
        }))
    );
}

fn oneshot_main(opts: &Opts) {
    let reqs = serve::select(opts.num("seed", None), opts.num("sessions", None))
        .unwrap_or_else(|e| fail(e));
    let table = PathBuf::from(opts.str("table"));
    let text = serve::reference(
        &reqs,
        opts.num("threads", Some(2)),
        &table.with_extension("rows.tmp"),
    )
    .unwrap_or_else(|e| fail(e));
    std::fs::write(&table, text).unwrap_or_else(|e| fail(e));
    println!("{{\"sessions\":{}}}", reqs.len());
}
