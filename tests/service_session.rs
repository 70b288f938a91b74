//! Golden determinism gate for the serving layer: a session's final
//! estimate through the resident [`SessionManager`] is **bit-identical**
//! to the equivalent one-shot `run_reduce` batch — for worker counts 1,
//! 4 and 8, with well over 100 sessions in flight at once, with the
//! pool interleaving every session's replications freely, and for
//! sessions that span several fold chunks. A cancelled session keeps a
//! prefix of whole chunks that is itself bit-identical to a one-shot
//! batch of that length.
//!
//! The `service-smoke` CI job proves the same thing end-to-end over TCP
//! by byte-comparing finalized session tables.

use csmaprobe::desim::executor;
use csmaprobe::desim::replicate::CHUNK;
use csmaprobe::service::mix::{session_specs, MixConfig};
use csmaprobe::service::session::{one_shot, Phase, SessionAcc, SessionManager, SessionSpec};
use csmaprobe::service::wire::{SubmitRequest, MAX_REPS};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes tests that pin the process-wide worker limit.
static WORKER_LOCK: Mutex<()> = Mutex::new(());

/// A mix heavy on the cheap wired link so 120 sessions replicate
/// quickly, but still crossing every tool family.
fn mix() -> MixConfig {
    MixConfig {
        trains: vec!["short".into()],
        reps: 16,
        ..MixConfig::default()
    }
}

fn key_bits(acc: &SessionAcc) -> (u64, u64, u64, u64, u64, usize) {
    (
        acc.est.count(),
        acc.est.mean().to_bits(),
        acc.est.std_dev().to_bits(),
        acc.p50.value().to_bits(),
        acc.p95.value().to_bits(),
        acc.failed,
    )
}

/// A catalog session; `i` keeps ids and cells clear of the mix's.
fn spec(i: u64, link: &str, train: &str, tool: &str, reps: usize) -> SessionSpec {
    SessionSpec::resolve(&SubmitRequest {
        id: format!("x{i:02}"),
        cell: 1000 + i,
        link: link.into(),
        train: train.into(),
        tool: tool.into(),
        reps,
        seed: 0x70_0000 + i,
    })
    .expect("catalog axes resolve")
}

#[test]
fn resident_sessions_match_one_shot_bitwise_for_any_worker_count() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut specs = session_specs(&mix(), 0xC5AA_2009, 120).expect("mix resolves");
    // The mix's sessions are one chunk each. These span two full chunks
    // and a partial one, over both links, both trains and all four
    // tools, so every merge the fold makes is compared too.
    let mut i = 0;
    for link in ["wired", "wlan_low"] {
        for train in ["short", "mid"] {
            for tool in ["train", "slops", "topp", "chirp"] {
                specs.push(spec(i, link, train, tool, 2 * CHUNK + 6));
                i += 1;
            }
        }
    }
    let sessions = specs.len();

    // One-shot references, computed under the default worker limit —
    // run_reduce's own contract makes them worker-count independent.
    let references: Vec<_> = specs.iter().map(one_shot).collect();

    for workers in [1usize, 4, 8] {
        executor::set_worker_limit(workers);
        // 6 drivers: at least 100 sessions queued (in flight) while
        // the first ones replicate, and several sessions' replications
        // interleave in the shared pool at any instant.
        let mgr = SessionManager::new(6, None);
        for spec in &specs {
            mgr.submit(spec.clone()).expect("submit");
        }
        mgr.drain();
        for (spec, reference) in specs.iter().zip(&references) {
            let snap = mgr.poll(&spec.id).expect("poll");
            assert_eq!(
                snap.phase,
                Phase::Done,
                "{} under {workers} workers",
                spec.id
            );
            assert_eq!(snap.reps_done, spec.reps);
            assert_eq!(
                key_bits(&snap.acc),
                key_bits(reference),
                "session {} ({} {} {}, {} reps) diverged from its one-shot reference under \
                 {workers} worker(s)",
                spec.id,
                spec.link.name,
                spec.train.name,
                spec.tool.name(),
                spec.reps
            );
        }
        let counts = mgr.counts();
        assert_eq!(counts.accepted, sessions);
        assert_eq!(counts.done, sessions);
        assert_eq!(counts.cancelled, 0);
        mgr.shutdown();
    }
    executor::set_worker_limit(0);
}

#[test]
fn a_cancelled_session_keeps_a_bit_exact_prefix() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for workers in [1usize, 4] {
        executor::set_worker_limit(workers);
        let mgr = SessionManager::new(1, None);
        let long = spec(1, "wired", "short", "train", MAX_REPS);
        mgr.submit(long.clone()).expect("submit");
        let deadline = Instant::now() + Duration::from_secs(60);
        while mgr.poll(&long.id).expect("poll").reps_done < CHUNK {
            assert!(Instant::now() < deadline, "no chunk folded within 60 s");
            std::thread::sleep(Duration::from_millis(1));
        }
        mgr.cancel(&long.id)
            .expect("a running session can be cancelled");
        mgr.drain();
        let snap = mgr.poll(&long.id).expect("poll");
        assert_eq!(snap.phase, Phase::Cancelled, "under {workers} workers");
        let done = snap.reps_done;
        assert!(
            done >= CHUNK && done % CHUNK == 0 && done < long.reps,
            "reps_done {done}"
        );
        assert_eq!(snap.acc.est.count() as usize + snap.acc.failed, done);
        let prefix = SessionSpec { reps: done, ..long };
        assert_eq!(
            key_bits(&snap.acc),
            key_bits(&one_shot(&prefix)),
            "the cancelled prefix of {done} replications under {workers} worker(s)"
        );
        mgr.shutdown();
    }
    executor::set_worker_limit(0);
}
