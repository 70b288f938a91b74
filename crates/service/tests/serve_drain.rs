//! End-to-end in-process server test: pipelined NDJSON requests over
//! real TCP, the `/metrics` scrape, and the graceful drain path
//! ([`request_shutdown`] is exactly what the SIGTERM handler does, so
//! this drives the same shutdown code the `service-smoke` CI job kills
//! with a real signal).
//!
//! Single `#[test]` on purpose: the shutdown flag and the worker limit
//! are process-wide.

use csmaprobe_desim::executor;
use csmaprobe_service::server::{request_shutdown, serve, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("csmaprobe-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn pipelined_protocol_and_graceful_drain() {
    let dir = temp_dir("drain");
    let port_file = dir.join("port");
    let cfg = ServeConfig {
        out_dir: dir.clone(),
        port_file: Some(port_file.clone()),
        ..ServeConfig::default()
    };
    // What `csmaprobe serve --workers 1` sets: one session driver, and
    // every replication runs on it, so none is stolen.
    executor::set_worker_limit(1);
    let server = std::thread::spawn(move || serve(cfg).expect("serve runs"));

    // Wait for the bound address.
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            let a = text.trim().to_string();
            if !a.is_empty() {
                break a;
            }
        }
        assert!(Instant::now() < deadline, "server never wrote its port");
        std::thread::sleep(Duration::from_millis(20));
    };

    // Pipeline a batch of requests in one write; responses must come
    // back one line each, in order, with typed errors inline.
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let submit = |id: &str, cell: u64| {
        format!(
            "{{\"op\":\"submit\",\"id\":\"{id}\",\"cell\":{cell},\"link\":\"wired\",\
             \"train\":\"short\",\"tool\":\"train\",\"reps\":8,\"seed\":9}}\n"
        )
    };
    let mut batch = String::new();
    batch.push_str(&submit("a", 0));
    batch.push_str(&submit("b", 1));
    batch.push_str(&submit("a", 2)); // duplicate id
    batch.push_str(&submit("c", 0)); // duplicate cell
    batch.push_str("{\"op\":\"fly\"}\n"); // unknown op
    batch.push_str("{\"op\":\"poll\",\"id\":\"nope\"}\n"); // unknown id
    batch.push_str("{\"op\":\"submit\",\"id\":\"t\n"); // malformed (torn line)
    batch.push_str("{\"op\":\"drain\"}\n");
    writer.write_all(batch.as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut line = String::new();
    let mut next = || {
        line.clear();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };
    assert!(next().starts_with("{\"ok\":true,\"op\":\"submit\""));
    assert!(next().starts_with("{\"ok\":true,\"op\":\"submit\""));
    assert!(next().contains("\"error\":\"duplicate_id\""));
    assert!(next().contains("\"error\":\"duplicate_cell\""));
    assert!(next().contains("\"error\":\"unknown_op\""));
    assert!(next().contains("\"error\":\"unknown_id\""));
    assert!(next().contains("\"error\":\"malformed_request\""));
    let drain = next();
    assert!(
        drain.contains("\"op\":\"drain\"") && drain.contains("\"done\":2"),
        "{drain}"
    );

    // Both sessions now poll as done, and cancel-after-complete is the
    // typed error.
    writer
        .write_all(b"{\"op\":\"poll\",\"id\":\"a\"}\n{\"op\":\"cancel\",\"id\":\"a\"}\n")
        .unwrap();
    let poll = next();
    assert!(
        poll.contains("\"state\":\"done\"") && poll.contains("\"reps_done\":8"),
        "{poll}"
    );
    assert!(next().contains("\"error\":\"already_complete\""));

    // Plain-text metrics scrape on a fresh connection.
    let mut scrape = TcpStream::connect(&addr).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut text = String::new();
    scrape.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");
    assert!(text.contains("csmaprobe_sessions_done 2"), "{text}");
    assert!(text.contains("csmaprobe_sessions_accepted 2"), "{text}");
    assert!(text.contains("csmaprobe_reps_total 16\n"), "{text}");
    assert!(text.contains("csmaprobe_reps_stolen_total 0\n"), "{text}");

    // Graceful drain: what SIGTERM triggers.
    request_shutdown();
    let summary = server.join().expect("server thread");
    assert!(summary.consistent, "drain audit failed: {summary:?}");
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.done, 2);
    assert_eq!(summary.persisted, 2);
    // The finalized table exists, has one row per completed session in
    // cell order, and survives a RowSink reload.
    let table = std::fs::read_to_string(&summary.table).unwrap();
    let keys: Vec<_> = table
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter_map(csmaprobe_bench::report::row_key)
        .collect();
    assert_eq!(keys, ["a", "b"]);
    let _ = std::fs::remove_dir_all(&dir);
}
