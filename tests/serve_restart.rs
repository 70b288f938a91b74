//! A restarted `csmaprobe serve` keeps the sessions its row file already
//! holds. Over one `--out-dir`, the second run refuses a persisted id
//! (`duplicate_id`) and a persisted cell (`duplicate_cell`), still runs
//! a new session, and drains to a table that holds each session once.
//! A daemon whose stdout and stderr readers have gone still serves,
//! drains and exits 0.
//!
//! Each run is a real process stopped with SIGTERM: `serve()` cannot run
//! twice in one process, because its shutdown flag is process-wide.

use csmaprobe_bench::report::row_key;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Long enough for a debug-build daemon to start, run a few small
/// sessions and drain.
const DEADLINE: Duration = Duration::from_secs(60);

/// A running `csmaprobe serve`, killed when dropped so that a failing
/// test leaves no daemon behind.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Start the daemon over `dir`, writing its stdout and stderr to
    /// `out` and `err`, and wait until it listens.
    fn start(dir: &Path, port_file: &Path, out: Stdio, err: Stdio) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_csmaprobe"))
            .arg("serve")
            .arg("--out-dir")
            .arg(dir)
            .arg("--port-file")
            .arg(port_file)
            .args(["--workers", "1"])
            .stdout(out)
            .stderr(err)
            .spawn()
            .expect("spawn csmaprobe serve");
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let started = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    return daemon;
                }
            }
            if let Some(status) = daemon.child.try_wait().expect("poll csmaprobe serve") {
                panic!("csmaprobe serve exited before listening: {status}");
            }
            assert!(
                started.elapsed() < DEADLINE,
                "csmaprobe serve never wrote its port"
            );
            sleep(Duration::from_millis(20));
        }
    }

    /// Send the request lines on one connection and return one reply
    /// line per request, in order.
    fn exchange(&self, requests: &[String]) -> Vec<String> {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        stream.set_read_timeout(Some(DEADLINE)).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        requests
            .iter()
            .map(|request| {
                writeln!(stream, "{request}").unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("reply");
                reply
            })
            .collect()
    }

    /// SIGTERM the daemon and return its exit code (`None` if it still
    /// runs at the deadline; the drop then kills it).
    fn stop(mut self) -> Option<i32> {
        let sent = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(sent.success(), "kill -TERM failed");
        let started = Instant::now();
        while started.elapsed() < DEADLINE {
            if let Some(status) = self.child.try_wait().expect("poll csmaprobe serve") {
                return status.code();
            }
            sleep(Duration::from_millis(20));
        }
        None
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Both fail only when the daemon has already been reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The write end of a pipe whose reader has exited.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new("true").stdin(Stdio::piped()).spawn().unwrap();
    let writer = reader.stdin.take().unwrap();
    reader.wait().unwrap();
    Stdio::from(writer)
}

fn submit(id: &str, cell: u64) -> String {
    format!(
        "{{\"op\":\"submit\",\"id\":\"{id}\",\"cell\":{cell},\"link\":\"wired\",\
         \"train\":\"short\",\"tool\":\"train\",\"reps\":8,\"seed\":1}}"
    )
}

/// The rows of a finalized session table, without the array framing.
fn table_rows(dir: &Path) -> Vec<String> {
    std::fs::read_to_string(dir.join("session_table.jsonl"))
        .expect("session table written")
        .lines()
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .filter(|l| row_key(l).is_some())
        .collect()
}

#[test]
fn a_restarted_daemon_refuses_the_ids_and_cells_its_table_holds() {
    let dir = std::env::temp_dir().join(format!("csmaprobe-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let drain = "{\"op\":\"drain\"}".to_string();

    let daemon = Daemon::start(&dir, &dir.join("port-1"), Stdio::null(), Stdio::null());
    let replies = daemon.exchange(&[submit("s1", 1), drain.clone()]);
    assert!(replies[0].contains("\"ok\":true"), "{replies:?}");
    assert!(replies[1].contains("\"done\":1"), "{replies:?}");
    assert_eq!(daemon.stop(), Some(0), "run 1 drains and exits 0");
    let first = table_rows(&dir);
    assert_eq!(first.len(), 1, "{first:?}");

    let daemon = Daemon::start(&dir, &dir.join("port-2"), Stdio::null(), Stdio::null());
    let replies = daemon.exchange(&[submit("s1", 2), submit("s9", 1), submit("s2", 2), drain]);
    assert!(
        replies[0].contains("\"error\":\"duplicate_id\""),
        "a persisted id is refused: {replies:?}"
    );
    assert!(
        replies[1].contains("\"error\":\"duplicate_cell\""),
        "a persisted cell is refused: {replies:?}"
    );
    assert!(replies[2].contains("\"ok\":true"), "{replies:?}");
    assert!(replies[3].contains("\"done\":1"), "{replies:?}");
    assert_eq!(daemon.stop(), Some(0), "run 2 drains and exits 0");

    let second = table_rows(&dir);
    let keys: Vec<&str> = second.iter().filter_map(|l| row_key(l)).collect();
    assert_eq!(keys, ["s1", "s2"]);
    assert_eq!(second[0], first[0], "run 1's row is kept byte for byte");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_daemon_whose_output_pipes_are_closed_still_serves_and_drains() {
    let dir = std::env::temp_dir().join(format!("csmaprobe-serve-pipes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = Daemon::start(&dir, &dir.join("port"), closed_pipe(), closed_pipe());
    let replies = daemon.exchange(&[submit("s1", 1), "{\"op\":\"drain\"}".to_string()]);
    assert!(replies[0].contains("\"ok\":true"), "{replies:?}");
    assert!(replies[1].contains("\"done\":1"), "{replies:?}");
    assert_eq!(daemon.stop(), Some(0), "drains and exits 0");
    assert_eq!(table_rows(&dir).len(), 1, "its table is written");
    let _ = std::fs::remove_dir_all(&dir);
}
