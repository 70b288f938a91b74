//! The `serve` workload: the session mix, the closed-loop client that
//! drives `csmaprobe serve`, the one-shot reference table, and the traced
//! replay of the served sessions.
//!
//! Sessions come from `service::mix::session_request` with the default
//! pools. A batch takes them in mix order, but each (link, train, tool)
//! stratum only up to its share of the batch, so every batch of a given
//! size has the same composition: a WLAN session costs far more than a
//! wired one, and a free draw would make the work of a run depend on how
//! many WLAN sessions the seed happened to pick.

use crate::layers::{tool_run, Traced};
use crate::trace;
use csmaprobe_bench::report::{json_str, RowSink};
use csmaprobe_desim::replicate;
use csmaprobe_service::mix::{session_request, MixConfig};
use csmaprobe_service::session::{one_shot, row_json, SessionAcc, SessionSpec};
use csmaprobe_service::wire::{Request, SubmitRequest};
use csmaprobe_stats::Accumulate;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Mix draws scanned before a batch gives up filling its strata.
const MAX_DRAWS: u64 = 1_000_000;

/// `sessions` submits from the default mix at master seed `master`, in
/// mix order, each (link, train, tool) stratum filled to its pool share.
pub fn select(master: u64, sessions: usize) -> Result<Vec<SubmitRequest>, String> {
    let cfg = MixConfig::default();
    let mut weight: BTreeMap<(&str, &str, &str), usize> = BTreeMap::new();
    for l in &cfg.links {
        for t in &cfg.trains {
            for k in &cfg.tools {
                *weight.entry((l, t, k)).or_insert(0) += 1;
            }
        }
    }
    let total: usize = weight.values().sum();
    if sessions % total != 0 {
        return Err(format!("sessions must be a multiple of {total}"));
    }
    let mut room: BTreeMap<(String, String, String), usize> = weight
        .iter()
        .map(|(&(l, t, k), &w)| ((l.into(), t.into(), k.into()), w * sessions / total))
        .collect();
    let mut out = Vec::with_capacity(sessions);
    for i in 0..MAX_DRAWS {
        if out.len() == sessions {
            return Ok(out);
        }
        let req = session_request(&cfg, master, i);
        let key = (req.link.clone(), req.train.clone(), req.tool.clone());
        if let Some(r) = room.get_mut(&key).filter(|r| **r > 0) {
            *r -= 1;
            out.push(req);
        }
    }
    Err(format!("mix strata not filled after {MAX_DRAWS} draws"))
}

/// The wire frame that submits `req`.
pub fn submit_frame(req: &SubmitRequest) -> String {
    format!(
        "{{\"op\":\"submit\",\"id\":{},\"cell\":{},\"link\":{},\"train\":{},\"tool\":{},\"reps\":{},\"seed\":{}}}",
        json_str(&req.id),
        req.cell,
        json_str(&req.link),
        json_str(&req.train),
        json_str(&req.tool),
        req.reps,
        req.seed
    )
}

/// What the closed-loop client saw.
#[derive(Debug, Default)]
pub struct ClientResult {
    /// Submit-to-done latency of each completed session, seconds, in
    /// batch order (`None` for sessions that did not complete).
    pub latency_s: Vec<Option<f64>>,
    /// Submits the server refused.
    pub refused: usize,
    /// Polls answered with an error.
    pub failed: usize,
    /// Sessions that ended cancelled.
    pub cancelled: usize,
    /// First submit to last completion, seconds.
    pub wall_s: f64,
    /// Every frame sent, in send order per connection.
    pub frames: Vec<String>,
}

/// Drive `reqs` closed-loop over `conns` connections: each connection
/// keeps one session in flight — submit, poll every `poll` until the
/// session is terminal, then take the next one.
pub fn drive(
    addr: &str,
    reqs: &[SubmitRequest],
    conns: usize,
    poll: Duration,
) -> std::io::Result<ClientResult> {
    let next = AtomicUsize::new(0);
    let result = Mutex::new(ClientResult {
        latency_s: vec![None; reqs.len()],
        ..ClientResult::default()
    });
    let t0 = Instant::now();
    std::thread::scope(|s| -> std::io::Result<()> {
        let workers: Vec<_> = (0..conns.max(1))
            .map(|_| s.spawn(|| connection(addr, reqs, &next, &result, poll)))
            .collect();
        for w in workers {
            w.join().expect("client connection panicked")?;
        }
        Ok(())
    })?;
    let mut r = result.into_inner().unwrap_or_else(|e| e.into_inner());
    r.wall_s = t0.elapsed().as_secs_f64();
    Ok(r)
}

fn connection(
    addr: &str,
    reqs: &[SubmitRequest],
    next: &AtomicUsize,
    result: &Mutex<ClientResult>,
    poll: Duration,
) -> std::io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut frames = Vec::new();
    let mut rpc = |line: String| -> std::io::Result<String> {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        frames.push(line);
        let mut resp = String::new();
        if reader.read_line(&mut resp)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        Ok(resp)
    };
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(req) = reqs.get(i) else { break };
        let t = Instant::now();
        if !rpc(submit_frame(req))?.starts_with("{\"ok\":true") {
            result.lock().unwrap_or_else(|e| e.into_inner()).refused += 1;
            continue;
        }
        let poll_frame = format!("{{\"op\":\"poll\",\"id\":{}}}", json_str(&req.id));
        loop {
            std::thread::sleep(poll);
            let resp = rpc(poll_frame.clone())?;
            let mut r = result.lock().unwrap_or_else(|e| e.into_inner());
            if resp.contains("\"state\":\"done\"") {
                r.latency_s[i] = Some(t.elapsed().as_secs_f64());
            } else if resp.contains("\"state\":\"cancelled\"") {
                r.cancelled += 1;
            } else if resp.starts_with("{\"ok\":false") {
                r.failed += 1;
            } else {
                continue;
            }
            break;
        }
    }
    result
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .frames
        .extend(frames);
    Ok(())
}

fn resolve(reqs: &[SubmitRequest]) -> Result<Vec<SessionSpec>, String> {
    reqs.iter()
        .map(|r| SessionSpec::resolve(r).map_err(|e| format!("session {}: {}", r.id, e.detail())))
        .collect()
}

/// Finalize rows into a session table the way the server and
/// `loadgen --batch` do, through a scratch [`RowSink`] at `scratch`.
fn finalize(rows: &[String], scratch: &Path) -> std::io::Result<String> {
    let mut sink = RowSink::create(scratch)?;
    for row in rows {
        sink.append(row)?;
    }
    let text = sink.finalize();
    let _ = std::fs::remove_file(scratch);
    text
}

/// The one-shot reference table of a batch: `session::one_shot` and
/// `row_json` per session, computed on `threads` threads.
pub fn reference(reqs: &[SubmitRequest], threads: usize, scratch: &Path) -> Result<String, String> {
    let specs = resolve(reqs)?;
    let next = AtomicUsize::new(0);
    let rows = Mutex::new(vec![String::new(); specs.len()]);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let row = row_json(spec, &one_shot(spec));
                rows.lock().unwrap_or_else(|e| e.into_inner())[i] = row;
            });
        }
    });
    let rows = rows.into_inner().unwrap_or_else(|e| e.into_inner());
    finalize(&rows, scratch).map_err(|e| e.to_string())
}

/// What the traced serve replay produced.
pub struct ServeReplay {
    /// Finalized session table of the replayed sessions.
    pub table: String,
    /// Replayed compute time of each session, ms, in batch order.
    pub compute_ms: Vec<f64>,
}

/// Replay a served batch: parse every frame the client sent, then run
/// each session's `one_shot` through traced layers.
pub fn replay(
    reqs: &[SubmitRequest],
    frames: &[String],
    scratch: &Path,
) -> Result<ServeReplay, String> {
    for f in frames {
        trace::count("service.frames", 1);
        trace::span("service.parse", || Request::parse(f)).map_err(|e| e.detail())?;
    }
    let specs = resolve(reqs)?;
    let mut rows = Vec::with_capacity(specs.len());
    let mut compute_ms = Vec::with_capacity(specs.len());
    for spec in &specs {
        let t = Instant::now();
        let acc = trace::span("service.compute", || traced_one_shot(spec));
        compute_ms.push(t.elapsed().as_secs_f64() * 1e3);
        trace::count("service.reps", spec.reps as u64);
        rows.push(row_json(spec, &acc));
    }
    let table =
        trace::span("bench.report", || finalize(&rows, scratch)).map_err(|e| e.to_string())?;
    Ok(ServeReplay { table, compute_ms })
}

/// `session::one_shot` with the target, the tool runs and the reduce
/// traced.
fn traced_one_shot(spec: &SessionSpec) -> SessionAcc {
    let target = spec.link.build();
    let traced = Traced(&target);
    let probe = spec.tool_probe();
    trace::span("desim.reduce", || {
        replicate::run_reduce(
            spec.reps,
            spec.seed,
            |_i, seed, acc: &mut SessionAcc| {
                let est = tool_run(|| probe.estimate_once(&traced, seed), |v| v.is_finite());
                // A finite estimate is pushed into the mean and both P² quantiles.
                trace::count("stats.samples", if est.is_finite() { 3 } else { 0 });
                trace::span("stats.push", || acc.observe(est));
            },
            || {
                trace::count("desim.chunks", 1);
                SessionAcc::default()
            },
            |a, b| trace::span("desim.merge", || a.merge(b)),
        )
    })
}
