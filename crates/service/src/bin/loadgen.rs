//! Load generator for `csmaprobe serve` — and the one-shot batch
//! reference the served results are byte-compared against.
//!
//! Client mode opens `--conns` concurrent connections, submits a
//! deterministic mix of `--sessions` sessions (see
//! [`csmaprobe_service::mix`]), polls them to completion, and reports
//! submit/poll/complete latency percentiles plus sustained
//! sessions/sec.
//!
//! `--batch --table <path>` skips the server entirely: it computes the
//! *same* session mix through one-shot `run_reduce` and finalizes one
//! session table. The `service-smoke` CI job byte-compares that file
//! against the drained server's table — the end-to-end determinism
//! gate.

use csmaprobe_bench::report::RowSink;
use csmaprobe_service::mix::{session_request, session_specs, MixConfig};
use csmaprobe_service::session::{one_shot, row_json};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT | --port-file PATH] [--sessions N] [--conns C]\n\
         \x20              [--reps R] [--seed S]\n\
         \x20      loadgen --batch --table FILE.jsonl [--sessions N] [--reps R] [--seed S]\n\
         \n\
         Client mode drives a running `csmaprobe serve`; batch mode writes the\n\
         equivalent one-shot session table for byte-comparison."
    );
    std::process::exit(2);
}

struct Args {
    addr: Option<String>,
    port_file: Option<PathBuf>,
    sessions: u64,
    conns: usize,
    reps: usize,
    seed: u64,
    batch: bool,
    table: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        port_file: None,
        sessions: 200,
        conns: 4,
        reps: 32,
        seed: 2009,
        batch: false,
        table: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("loadgen: {name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(val("--addr")),
            "--port-file" => args.port_file = Some(PathBuf::from(val("--port-file"))),
            "--sessions" => args.sessions = val("--sessions").parse().unwrap_or_else(|_| usage()),
            "--conns" => args.conns = val("--conns").parse().unwrap_or_else(|_| usage()),
            "--reps" => args.reps = val("--reps").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = true,
            "--table" => args.table = Some(PathBuf::from(val("--table"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("loadgen: unknown flag {other:?}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mix = MixConfig {
        reps: args.reps,
        ..MixConfig::default()
    };
    if args.batch {
        let Some(table) = &args.table else {
            eprintln!("loadgen: --batch needs --table");
            usage();
        };
        run_batch(&mix, args.seed, args.sessions, table);
        return;
    }
    let addr = resolve_addr(&args);
    run_client(&args, &mix, &addr);
}

/// Batch reference: same mix, one-shot `run_reduce` per session, one
/// finalized table.
fn run_batch(mix: &MixConfig, seed: u64, sessions: u64, table: &PathBuf) {
    let specs = match session_specs(mix, seed, sessions) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: bad mix: {e}");
            std::process::exit(1);
        }
    };
    let tmp = table.with_extension("rows.tmp");
    let mut sink = RowSink::create(&tmp).unwrap_or_else(|e| {
        eprintln!("loadgen: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    });
    let t0 = Instant::now();
    for spec in &specs {
        let acc = one_shot(spec);
        if let Err(e) = sink.append(&row_json(spec, &acc)) {
            eprintln!("loadgen: append failed: {e}");
            std::process::exit(1);
        }
    }
    let text = sink.finalize().unwrap_or_else(|e| {
        eprintln!("loadgen: finalize failed: {e}");
        std::process::exit(1);
    });
    std::fs::write(table, &text).unwrap_or_else(|e| {
        eprintln!("loadgen: cannot write {}: {e}", table.display());
        std::process::exit(1);
    });
    let _ = std::fs::remove_file(&tmp);
    eprintln!(
        "loadgen: batch reference: {} sessions in {:.2}s -> {}",
        specs.len(),
        t0.elapsed().as_secs_f64(),
        table.display()
    );
}

/// Find the server: explicit --addr, or poll --port-file until the
/// server writes its bound address (it binds port 0 in CI).
fn resolve_addr(args: &Args) -> String {
    if let Some(a) = &args.addr {
        return a.clone();
    }
    let Some(pf) = &args.port_file else {
        eprintln!("loadgen: need --addr or --port-file");
        usage();
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(pf) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        if Instant::now() > deadline {
            eprintln!("loadgen: timed out waiting for {}", pf.display());
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Latencies one connection worker records (seconds).
#[derive(Default)]
struct Lats {
    submit: Vec<f64>,
    poll: Vec<f64>,
    complete: Vec<f64>,
    cancelled: usize,
}

fn run_client(args: &Args, mix: &MixConfig, addr: &str) {
    let conns = args.conns.max(1);
    let t0 = Instant::now();
    let workers: Vec<std::thread::JoinHandle<Lats>> = (0..conns)
        .map(|w| {
            let addr = addr.to_string();
            let mix = mix.clone();
            let seed = args.seed;
            let sessions = args.sessions;
            let conns = conns as u64;
            std::thread::spawn(move || {
                drive_connection(&addr, &mix, seed, sessions, w as u64, conns)
            })
        })
        .collect();
    let mut all = Lats::default();
    for w in workers {
        match w.join() {
            Ok(l) => {
                all.submit.extend(l.submit);
                all.poll.extend(l.poll);
                all.complete.extend(l.complete);
                all.cancelled += l.cancelled;
            }
            Err(_) => {
                eprintln!("loadgen: a connection worker panicked");
                std::process::exit(1);
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let done = all.complete.len();
    let rate = done as f64 / wall.max(1e-9);
    let pct = |v: &mut Vec<f64>, p: f64| -> f64 {
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
        v[idx]
    };
    let (sub50, sub99) = (pct(&mut all.submit, 0.50), pct(&mut all.submit, 0.99));
    let (poll50, poll99) = (pct(&mut all.poll, 0.50), pct(&mut all.poll, 0.99));
    let (cmp50, cmp99) = (pct(&mut all.complete, 0.50), pct(&mut all.complete, 0.99));
    println!(
        "loadgen: {done} sessions done, {} cancelled, {wall:.2}s wall",
        all.cancelled
    );
    println!("loadgen: throughput {rate:.1} sessions/s");
    println!(
        "loadgen: submit latency p50 {:.6}s p99 {:.6}s",
        sub50, sub99
    );
    println!(
        "loadgen: poll   latency p50 {:.6}s p99 {:.6}s",
        poll50, poll99
    );
    println!(
        "loadgen: complete       p50 {:.6}s p99 {:.6}s",
        cmp50, cmp99
    );
    if done as u64 != args.sessions {
        eprintln!("loadgen: only {done}/{} sessions completed", args.sessions);
        std::process::exit(1);
    }
}

/// One connection worker: submit its share of the mix (sessions with
/// `i % conns == w`), then poll round-robin until all are terminal.
fn drive_connection(
    addr: &str,
    mix: &MixConfig,
    seed: u64,
    sessions: u64,
    w: u64,
    conns: u64,
) -> Lats {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("loadgen: connect {addr}: {e}");
        std::process::exit(1);
    });
    let write_half = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let mut rpc = move |line: &str| -> String {
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .unwrap_or_else(|e| {
                eprintln!("loadgen: write: {e}");
                std::process::exit(1);
            });
        let mut resp = String::new();
        match reader.read_line(&mut resp) {
            Ok(0) => {
                eprintln!("loadgen: server closed the connection");
                std::process::exit(1);
            }
            Ok(_) => resp.trim_end().to_string(),
            Err(e) => {
                eprintln!("loadgen: read: {e}");
                std::process::exit(1);
            }
        }
    };

    let mut lats = Lats::default();
    let mine: Vec<u64> = (0..sessions).filter(|i| i % conns == w).collect();
    let mut open: Vec<(String, Instant)> = Vec::with_capacity(mine.len());
    for &i in &mine {
        let req = session_request(mix, seed, i);
        let line = format!(
            "{{\"op\":\"submit\",\"id\":{},\"cell\":{},\"link\":{},\"train\":{},\"tool\":{},\"reps\":{},\"seed\":{}}}",
            csmaprobe_bench::report::json_str(&req.id),
            req.cell,
            csmaprobe_bench::report::json_str(&req.link),
            csmaprobe_bench::report::json_str(&req.train),
            csmaprobe_bench::report::json_str(&req.tool),
            req.reps,
            req.seed
        );
        let t = Instant::now();
        let resp = rpc(&line);
        lats.submit.push(t.elapsed().as_secs_f64());
        if !resp.starts_with("{\"ok\":true") {
            eprintln!("loadgen: submit {} refused: {resp}", req.id);
            std::process::exit(1);
        }
        open.push((req.id, t));
    }
    while !open.is_empty() {
        let mut still_open = Vec::with_capacity(open.len());
        for (id, t_submit) in open {
            let t = Instant::now();
            let resp = rpc(&format!(
                "{{\"op\":\"poll\",\"id\":{}}}",
                csmaprobe_bench::report::json_str(&id)
            ));
            lats.poll.push(t.elapsed().as_secs_f64());
            if resp.contains("\"state\":\"done\"") {
                lats.complete.push(t_submit.elapsed().as_secs_f64());
            } else if resp.contains("\"state\":\"cancelled\"") {
                lats.cancelled += 1;
            } else if resp.starts_with("{\"ok\":false") {
                eprintln!("loadgen: poll {id} failed: {resp}");
                std::process::exit(1);
            } else {
                still_open.push((id, t_submit));
            }
        }
        open = still_open;
        if !open.is_empty() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    lats
}
