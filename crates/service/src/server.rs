//! The TCP front end: accept loop, per-connection protocol dispatch,
//! the `/metrics` text scrape, and the graceful-drain shutdown path.
//!
//! Accepted sessions run on one session driver per unit of the
//! executor's concurrency ceiling ([`executor::concurrency`], which
//! `csmaprobe serve --workers` sets), so the number of sessions running
//! at once follows the cores the server may use.
//!
//! Shutdown contract (what the `service-smoke` CI job pins): on
//! SIGTERM (or SIGINT), the server stops accepting connections and
//! sessions, drains every *accepted* session to a terminal phase,
//! finalizes its one session row file into the session table, audits
//! `accepted == done + cancelled` and `persisted == done`, prints a
//! one-line summary, and exits 0 — so every session a client got an
//! `{"ok":true}` submit ack for is either complete (one table row) or
//! was explicitly cancelled. Connection threads still blocked on reads
//! are abandoned at exit; rows are written line-at-a-time to an
//! unbuffered file, so no acknowledged state is lost.
//!
//! A restarted server resumes `<out-dir>/sessions.jsonl`: the ids and
//! cells of its rows stay taken, so resubmitting one is refused
//! (`duplicate_id`, `duplicate_cell`) instead of run twice.

use crate::metrics::Metrics;
use crate::session::{row_json, Session, SessionManager, SessionSpec};
use crate::wire::{json_str, read_frame, Request, WireError};
use csmaprobe_bench::report::{row_cell, RowSink};
use csmaprobe_desim::replicate::CHUNK;
use csmaprobe_desim::{errln, executor, outln};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// POSIX signal plumbing. The only unsafe in the crate: registering a
/// handler that stores to a static atomic (async-signal-safe). Gated
/// to unix; elsewhere shutdown is reachable only via
/// [`request_shutdown`].
#[cfg(unix)]
#[allow(unsafe_code)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" {
        // Provided by libc, which std already links. `sighandler_t`
        // is a function pointer — pointer-sized on every supported
        // target, so `usize` matches the ABI.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        // SAFETY: `signal` is the libc registration call; the handler
        // only stores to a static atomic, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::AtomicBool;

    pub static TERM: AtomicBool = AtomicBool::new(false);

    pub fn install() {}
}

/// Trip the shutdown flag from inside the process — what SIGTERM does,
/// callable from tests (and the only path on non-unix).
pub fn request_shutdown() {
    sig::TERM.store(true, Ordering::SeqCst);
}

/// Server configuration (the `csmaprobe serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see `port_file`).
    pub addr: String,
    /// Directory for the session row file (`sessions.jsonl`) and the
    /// finalized table.
    pub out_dir: PathBuf,
    /// Finalized table path (default `<out_dir>/session_table.jsonl`).
    pub table: Option<PathBuf>,
    /// If set, the actual bound `host:port` is written here once
    /// listening — how scripts find a port-0 server.
    pub port_file: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            out_dir: PathBuf::from("serve-out"),
            table: None,
            port_file: None,
        }
    }
}

/// What a drained server reports back to `main`.
#[derive(Debug)]
pub struct ServeSummary {
    /// Sessions accepted over the server's lifetime.
    pub accepted: usize,
    /// Sessions that completed with a final estimate.
    pub done: usize,
    /// Sessions cancelled before completion.
    pub cancelled: usize,
    /// Session-table rows persisted.
    pub persisted: u64,
    /// Where the finalized table was written.
    pub table: PathBuf,
    /// Did the drain audit hold (`accepted == done + cancelled` and
    /// `persisted == done`)?
    pub consistent: bool,
}

struct Shared {
    mgr: SessionManager,
    metrics: Arc<Metrics>,
    sink: Arc<Mutex<RowSink>>,
}

/// Run the server until SIGTERM/SIGINT (or [`request_shutdown`]),
/// then drain and finalize. Returns the drain summary; the caller
/// maps `consistent` to the exit code.
pub fn serve(cfg: ServeConfig) -> std::io::Result<ServeSummary> {
    sig::install();
    std::fs::create_dir_all(&cfg.out_dir)?;
    // Resume keeps rows from a previous (killed) server run, which is
    // what makes accepted-then-persisted sessions survive a crash:
    // their ids and cells are refused as duplicates on resubmit.
    let sink = RowSink::resume(cfg.out_dir.join("sessions.jsonl"))?;
    let held_cells: Vec<u64> = sink
        .read_rows()?
        .iter()
        .filter_map(|l| row_cell(l))
        .collect();
    let sink = Arc::new(Mutex::new(sink));
    let metrics = Arc::new(Metrics::default());

    let hook: Box<dyn Fn(&Session) + Send + Sync> = {
        let sink = Arc::clone(&sink);
        let metrics = Arc::clone(&metrics);
        Box::new(move |s: &Session| {
            let snap = s.snapshot();
            let line = row_json(s.spec(), &snap.acc);
            let mut sink = sink.lock().unwrap_or_else(|e| e.into_inner());
            if !sink.contains(&s.spec().id) {
                match sink.append(&line) {
                    Ok(()) => {
                        metrics.rows_persisted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => errln!(
                        "csmaprobe serve: failed to persist session {:?}: {e}",
                        s.spec().id
                    ),
                }
            }
            metrics
                .reps
                .fetch_add(snap.reps_done as u64, Ordering::Relaxed);
            metrics
                .chunks
                .fetch_add(snap.reps_done.div_ceil(CHUNK) as u64, Ordering::Relaxed);
            metrics
                .reps_stolen
                .fetch_add(s.reps_stolen() as u64, Ordering::Relaxed);
            metrics.observe_session_latency(snap.elapsed_s);
        })
    };
    let mgr = SessionManager::new(executor::concurrency(), Some(hook));
    mgr.hold_cells(held_cells);
    let shared = Arc::new(Shared { mgr, metrics, sink });

    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    if let Some(pf) = &cfg.port_file {
        std::fs::write(pf, format!("{local}\n"))?;
    }
    errln!("csmaprobe serve: listening on {local}");

    while !sig::TERM.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || handle_conn(stream, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    drop(listener);

    // Graceful drain: no new sessions, run every accepted one to a
    // terminal phase (completion hooks persist the rows), then finalize
    // the row file into the table.
    errln!("csmaprobe serve: draining");
    shared.mgr.shutdown();
    let counts = shared.mgr.counts();
    let (table, rows) = {
        let sink = shared.sink.lock().unwrap_or_else(|e| e.into_inner());
        (sink.finalize()?, sink.len())
    };
    let table_path = cfg
        .table
        .clone()
        .unwrap_or_else(|| cfg.out_dir.join("session_table.jsonl"));
    std::fs::write(&table_path, &table)?;
    let persisted = shared.metrics.rows_persisted.load(Ordering::Relaxed);
    // `persisted` counts this process's appends; `rows` is the total
    // row count including rows inherited from a previous run.
    let consistent = counts.accepted == counts.done + counts.cancelled
        && persisted == counts.done as u64
        && rows >= persisted as usize;
    outln!(
        "drained: accepted={} done={} cancelled={} persisted={} table={}",
        counts.accepted,
        counts.done,
        counts.cancelled,
        persisted,
        table_path.display()
    );
    Ok(ServeSummary {
        accepted: counts.accepted,
        done: counts.done,
        cancelled: counts.cancelled,
        persisted,
        table: table_path,
        consistent,
    })
}

/// One client connection: NDJSON request/response, or a one-shot
/// HTTP-ish `/metrics` scrape if the first bytes are `GET `.
fn handle_conn(stream: TcpStream, shared: &Shared) {
    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Sniff a metrics scrape without consuming protocol bytes.
    if let Ok(buf) = reader.fill_buf() {
        if buf.starts_with(b"GET ") {
            let body = shared.metrics.render(shared.mgr.counts());
            let mut w = BufWriter::new(write_half);
            let _ = write!(
                w,
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            );
            let _ = w.flush();
            return;
        }
    }
    let mut writer = BufWriter::new(write_half);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return, // EOF or transport error
        };
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let response = match frame {
            Ok(line) => dispatch(&line, shared),
            Err(e) => Err(e),
        };
        let line = match response {
            Ok(line) => line,
            Err(e) => {
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                e.to_json()
            }
        };
        if writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Execute one parsed-or-parseable request line.
fn dispatch(line: &str, shared: &Shared) -> Result<String, WireError> {
    match Request::parse(line)? {
        Request::Submit(req) => {
            let spec = SessionSpec::resolve(&req)?;
            // A row persisted by a previous run of this server owns
            // its id forever — resubmitting it is a duplicate, which
            // is what makes a killed-and-restarted server resumable
            // without double-running sessions. Its cell is held by the
            // manager (`hold_cells`).
            if shared
                .sink
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains(&spec.id)
            {
                return Err(WireError::DuplicateId { id: spec.id });
            }
            let id = spec.id.clone();
            shared.mgr.submit(spec)?;
            Ok(format!(
                "{{\"ok\":true,\"op\":\"submit\",\"id\":{},\"state\":\"queued\"}}",
                json_str(&id)
            ))
        }
        Request::Poll { id } => Ok(shared.mgr.poll(&id)?.to_json()),
        Request::Cancel { id } => {
            shared.mgr.cancel(&id)?;
            Ok(format!(
                "{{\"ok\":true,\"op\":\"cancel\",\"id\":{}}}",
                json_str(&id)
            ))
        }
        Request::Drain => {
            shared.mgr.drain();
            let c = shared.mgr.counts();
            Ok(format!(
                "{{\"ok\":true,\"op\":\"drain\",\"accepted\":{},\"done\":{},\"cancelled\":{}}}",
                c.accepted, c.done, c.cancelled
            ))
        }
        Request::Metrics => Ok(format!(
            "{{\"ok\":true,\"op\":\"metrics\",\"text\":{}}}",
            json_str(&shared.metrics.render(shared.mgr.counts()))
        )),
    }
}
