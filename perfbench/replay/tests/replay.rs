//! The replay's own contracts: traced cells reproduce the library's
//! transient profiles bit for bit, and span self times subtract exactly
//! the part of a span its children cover.

use csmaprobe_core::link::{LinkConfig, WlanLink};
use csmaprobe_core::transient::TransientExperiment;
use csmaprobe_perfbench::trace::{self, covered_ns, self_times, Span};
use csmaprobe_perfbench::transient;
use csmaprobe_traffic::probe::ProbeTrain;
use std::sync::{Mutex, MutexGuard};

/// The recorder is process-wide: tests that record spans take turns.
fn recorder() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::take();
    guard
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn small_cell() -> TransientExperiment {
    TransientExperiment {
        link: WlanLink::new(LinkConfig::default().contending_bps(3_000_000.0)),
        train: ProbeTrain::from_rate(60, 1500, 5_000_000.0),
        // Not a multiple of the chunk size, so a partial chunk merges too.
        reps: 70,
        seed: 0xBE4C,
    }
}

#[test]
fn traced_summary_is_bitwise_the_library_run() {
    let _g = recorder();
    let exp = small_cell();
    let lib = exp.run();
    let replay = transient::summary(&exp.link, exp.train, exp.reps, exp.seed);
    assert_eq!(bits(&replay.mean_profile()), bits(&lib.mean_profile()));
    assert_eq!(bits(&replay.p95_profile()), bits(&lib.p95_profile()));
    assert_eq!(bits(&replay.queue_profile()), bits(&lib.queue_profile()));
    assert_eq!(
        replay.steady_mean(30).to_bits(),
        lib.steady_mean(30).to_bits()
    );
}

#[test]
fn traced_dense_is_bitwise_the_library_run() {
    let _g = recorder();
    let exp = small_cell();
    let lib = exp.run_dense(40);
    let replay = transient::dense(&exp.link, exp.train, exp.reps, exp.seed, 40);
    for i in 0..exp.train.n {
        assert_eq!(
            bits(replay.delays.sample(i)),
            bits(lib.delays.sample(i)),
            "index {i}"
        );
    }
    assert_eq!(bits(&replay.queue_profile()), bits(&lib.queue_profile()));
    assert_eq!(bits(&replay.p95_profile()), bits(&lib.p95_profile()));
}

#[test]
fn replay_counts_the_work_it_traces() {
    let _g = recorder();
    let exp = small_cell();
    transient::summary(&exp.link, exp.train, exp.reps, exp.seed);
    let (spans, first) = trace::take();
    // Two delay pushes and one queue push per probe packet; 70 reps are
    // two full chunks and a partial one.
    assert_eq!(first["stats.samples"], 3 * 60 * 70);
    assert_eq!(first["core.transient.queue_samples"], 60 * 70);
    assert_eq!(first["desim.chunks"], 3);
    assert!(first["mac.events"] > first["mac.collisions"]);
    assert_eq!(spans.iter().filter(|s| s.name == "stats.push").count(), 70);
    // The counts are deterministic: a second replay repeats them exactly.
    transient::summary(&exp.link, exp.train, exp.reps, exp.seed);
    assert_eq!(trace::take().1, first);
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "t",
        start_ns,
        end_ns,
        run: 0,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    // root [0,100) > a [10,40) > b [20,30); root > c [50,60).
    let spans = vec![
        span(1, None, 0, 100),
        span(2, Some(1), 10, 40),
        span(3, Some(2), 20, 30),
        span(4, Some(1), 50, 60),
    ];
    let st = self_times(&spans);
    assert_eq!(st[&1], 100 - 30 - 10);
    assert_eq!(st[&2], 30 - 10);
    assert_eq!(st[&3], 10);
    assert_eq!(st[&4], 10);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    // Two children on different threads overlap in [30,40); a third
    // sticks out past the parent's end.
    let spans = vec![
        span(1, None, 0, 100),
        span(2, Some(1), 20, 40),
        span(3, Some(1), 30, 50),
        span(4, Some(1), 90, 120),
    ];
    let st = self_times(&spans);
    // Covered: [20,50) and [90,100) = 40.
    assert_eq!(st[&1], 60);
    assert_eq!(covered_ns(&[(20, 40), (30, 50), (90, 120)], 0, 100), 40);
    assert_eq!(covered_ns(&[], 0, 100), 0);
    assert_eq!(covered_ns(&[(5, 5), (200, 300)], 0, 100), 0);
}

#[test]
fn spans_nest_through_the_recorder() {
    let _g = recorder();
    let (outer, inner) = trace::span("outer", || {
        (trace::current(), trace::span("inner", trace::current))
    });
    let (spans, _) = trace::take();
    let find = |id| spans.iter().find(|s| Some(s.id) == id).expect("recorded");
    assert_eq!(find(inner).parent, outer);
    assert!(find(outer).start_ns <= find(inner).start_ns);
    assert!(find(inner).end_ns <= find(outer).end_ns);
}
