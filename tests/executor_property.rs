//! Property and stress tests of the process-wide work-stealing chunk
//! executor (`desim::executor`) under **concurrent** submissions — the
//! scenarios the per-runner suites cannot reach.
//!
//! The contracts pinned here:
//!
//! 1. **Concurrent bit-identity** — N threads running `run_cells`
//!    grids at once (randomized cell budgets, worker counts, staggered
//!    submission order) each produce rows bitwise-equal to their own
//!    standalone sequential reference. Stealing across submissions must
//!    never leak into results.
//! 2. **No starvation** — a small job submitted while a large grid
//!    saturates the pool completes while the grid is still in flight
//!    (the submitting thread always drives its own chunks).
//! 3. **Mid-flight hand-back** — workers freed by a finished submission
//!    join one still running (observed as cross-thread execution of the
//!    survivor's chunks).

use csmaprobe::desim::replicate::{self, CHUNK};
use csmaprobe::desim::rng::{derive_seed, SimRng};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serialises tests in this binary: they pin the global worker limit.
fn limit_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// One synthetic grid cell reduction: (count, xor-of-seeds, f64 sum) —
/// count and xor catch coverage bugs, the float sum catches any
/// merge-order deviation at the bit level.
type Acc = (u64, u64, f64);

fn run_grid_with(cells: &[usize], base: u64) -> Vec<Acc> {
    replicate::run_cells(
        cells,
        |c, r, acc: &mut Acc| {
            let seed = derive_seed(derive_seed(base, c as u64), r as u64);
            acc.0 += 1;
            acc.1 ^= seed;
            acc.2 += SimRng::new(seed).f64();
        },
        |_| (0u64, 0u64, 0.0f64),
        |a, b| {
            a.0 += b.0;
            a.1 ^= b.1;
            a.2 += b.2;
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Contract 1: concurrent callers, randomized everything.
    #[test]
    fn concurrent_grids_bitwise_equal_their_sequential_references(
        grids in prop::collection::vec(
            prop::collection::vec(0usize..(3 * CHUNK), 1..8),
            2..5,
        ),
        base in any::<u64>(),
        workers in 2usize..6,
        stagger_us in prop::collection::vec(0u64..300, 2..5),
    ) {
        let _g = limit_guard();
        // Standalone sequential references, one per grid.
        replicate::set_worker_limit(1);
        let references: Vec<Vec<Acc>> = grids
            .iter()
            .enumerate()
            .map(|(i, cells)| run_grid_with(cells, derive_seed(base, i as u64)))
            .collect();
        // The same grids, submitted concurrently from one thread each,
        // in a randomized staggered order, stealing across each other.
        replicate::set_worker_limit(workers);
        let outputs: Vec<Vec<Acc>> = std::thread::scope(|scope| {
            let handles: Vec<_> = grids
                .iter()
                .enumerate()
                .map(|(i, cells)| {
                    let delay = *stagger_us.get(i % stagger_us.len()).unwrap_or(&0);
                    scope.spawn(move || {
                        std::thread::sleep(Duration::from_micros(delay));
                        run_grid_with(cells, derive_seed(base, i as u64))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        replicate::set_worker_limit(0);
        for (i, (got, want)) in outputs.iter().zip(&references).enumerate() {
            prop_assert_eq!(got.len(), want.len(), "grid {} row count", i);
            for (c, (g, w)) in got.iter().zip(want).enumerate() {
                prop_assert_eq!(g.0, w.0, "grid {} cell {} count", i, c);
                prop_assert_eq!(g.1, w.1, "grid {} cell {} seeds", i, c);
                prop_assert_eq!(
                    g.2.to_bits(), w.2.to_bits(),
                    "grid {} cell {} float sum", i, c
                );
            }
        }
    }
}

/// Contract 2: a late-arriving small job is not starved by a large
/// in-flight grid — the submitting thread always executes its own
/// chunks, so the small job's latency is bounded by its own work, not
/// the grid's.
#[test]
fn late_small_job_completes_while_large_grid_is_in_flight() {
    let _g = limit_guard();
    replicate::set_worker_limit(4);
    let big_done = AtomicBool::new(false);
    let big_started = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // ~40 chunks x 40 ms: >= 400 ms wall even on 4 workers.
            replicate::run_reduce(
                40 * CHUNK,
                7,
                |i, _, acc: &mut u64| {
                    big_started.store(true, Ordering::SeqCst);
                    if i % CHUNK == 0 {
                        std::thread::sleep(Duration::from_millis(40));
                    }
                    *acc += 1;
                },
                || 0u64,
                |a, b| *a += b,
            );
            big_done.store(true, Ordering::SeqCst);
        });
        while !big_started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        let small = replicate::run_reduce(
            2 * CHUNK,
            11,
            |_, _, acc: &mut u64| *acc += 1,
            || 0u64,
            |a, b| *a += b,
        );
        let latency = t0.elapsed();
        assert_eq!(small, (2 * CHUNK) as u64);
        assert!(
            !big_done.load(Ordering::SeqCst),
            "the large grid should still be in flight when the small job returns \
             (small-job latency: {latency:?})"
        );
        assert!(
            latency < Duration::from_millis(500),
            "small job took {latency:?} behind the large grid"
        );
    });
    replicate::set_worker_limit(0);
}

/// Contract 3: when one submission finishes, its workers move into the
/// other submission mid-flight — the survivor's chunks are executed by
/// more than one thread even though it was submitted from a single
/// thread.
#[test]
fn finished_submission_hands_workers_to_the_survivor() {
    let _g = limit_guard();
    replicate::set_worker_limit(4);
    let survivor_threads = Mutex::new(std::collections::BTreeSet::new());
    let note = |set: &Mutex<std::collections::BTreeSet<String>>| {
        set.lock()
            .unwrap()
            .insert(format!("{:?}", std::thread::current().id()));
    };
    std::thread::scope(|scope| {
        // A short job that ends quickly, freeing its helpers.
        scope.spawn(|| {
            replicate::run_reduce(
                4 * CHUNK,
                3,
                |_, _, acc: &mut u64| *acc += 1,
                || 0u64,
                |a, b| *a += b,
            );
        });
        // The survivor: long enough that freed workers join it.
        replicate::run_reduce(
            24 * CHUNK,
            5,
            |i, _, acc: &mut u64| {
                note(&survivor_threads);
                if i % CHUNK == 0 {
                    std::thread::sleep(Duration::from_millis(10));
                }
                *acc += 1;
            },
            || 0u64,
            |a, b| *a += b,
        );
    });
    replicate::set_worker_limit(0);
    let threads = survivor_threads.lock().unwrap().len();
    assert!(
        threads >= 2,
        "expected pool workers to steal into the surviving submission, \
         saw {threads} executing thread(s)"
    );
}

/// The executor under oversubscription: more workers than cores, more
/// jobs than workers — results identical to the 1-worker run (the CI
/// oversubscription leg in miniature, in-process).
#[test]
fn oversubscribed_worker_counts_are_bit_identical() {
    let _g = limit_guard();
    let cells: Vec<usize> = vec![5, 0, 70, CHUNK, 3 * CHUNK + 1, 1];
    replicate::set_worker_limit(1);
    let reference = run_grid_with(&cells, 0xABBA);
    for workers in [8usize, 16] {
        replicate::set_worker_limit(workers);
        let got = run_grid_with(&cells, 0xABBA);
        for (c, (g, w)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(g.0, w.0, "cell {c} count, {workers} workers");
            assert_eq!(g.1, w.1, "cell {c} seeds, {workers} workers");
            assert_eq!(
                g.2.to_bits(),
                w.2.to_bits(),
                "cell {c} sum, {workers} workers"
            );
        }
    }
    replicate::set_worker_limit(0);
}

/// Many tiny concurrent submissions (the sweep-figure shape) neither
/// deadlock nor cross-contaminate.
#[test]
fn many_small_concurrent_submissions_complete_correctly() {
    let _g = limit_guard();
    replicate::set_worker_limit(3);
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let failures = &failures;
            scope.spawn(move || {
                for round in 0..20u64 {
                    let reps = ((t * 31 + round * 17) % 100) as usize;
                    let n = replicate::run_reduce(
                        reps,
                        derive_seed(t, round),
                        |_, _, acc: &mut u64| *acc += 1,
                        || 0u64,
                        |a, b| *a += b,
                    );
                    if n != reps as u64 {
                        failures.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    replicate::set_worker_limit(0);
    assert_eq!(failures.load(Ordering::SeqCst), 0);
}
