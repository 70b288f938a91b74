//! Thread-parallel Monte-Carlo replication: the scenario engine's
//! streaming map-reduce spine.
//!
//! The paper's results are averages over very many independent
//! repetitions (80 testbed runs; 25 000 NS2 runs; 70 000 Matlab runs).
//! One chunked reduction core serves every one of them:
//!
//! * [`run_cells`] — map-reduce over a list of independently
//!   accumulated **cells** (one per sweep point or grid cell). Each
//!   worker folds its replications directly into a chunk accumulator,
//!   chunk accumulators merge **in deterministic chunk order**, and the
//!   reduced accumulators return in cell order — so peak memory is
//!   O(workers + cells) accumulators, never O(reps × output).
//! * [`run_reduce`] — the one-cell case, with replication `i` seeded
//!   `derive_seed(master, i)`: the hot path behind every transient
//!   experiment and probing tool.
//!
//! Determinism: every cell's replications fold on the cell-local
//! [`CHUNK`] grid and its chunk accumulators merge in ascending chunk
//! index, regardless of which thread executes what. A cell's result is
//! a pure function of its replications — bit-identical across repeated
//! runs, across differing worker counts and whatever other cells share
//! the call.
//!
//! Execution: every runner submits its chunk tasks to the process-wide
//! **work-stealing chunk executor** ([`crate::executor`]). One pool of
//! workers serves every concurrent caller (figures scheduled by
//! `all_figures` via [`run_tasks`], sweeps, grids), stealing chunks
//! across all live submissions — so a figure that finishes hands its
//! cores to whatever is still running, mid-flight, and nested
//! parallelism never oversubscribes the machine. [`set_worker_limit`]
//! (or the `CSMAPROBE_WORKERS` environment variable, a positive
//! integer) pins the process-wide concurrency ceiling explicitly —
//! useful for tests and for reproducing scheduling-sensitive timings;
//! results never depend on it.

use crate::executor;
use crate::rng::derive_seed;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Replications per chunk. The chunk grid is what makes streaming
/// reduction deterministic: merges always happen on chunk boundaries in
/// chunk order, so floating-point results do not depend on the worker
/// count. Smaller chunks increase scheduling overhead; larger chunks
/// reduce load-balance quality.
pub const CHUNK: usize = 32;

/// Pin the process-wide concurrency ceiling every subsequent
/// replication call runs under. `0` restores automatic sizing (the
/// hardware parallelism).
///
/// Results never depend on this — it exists for tests that prove that
/// claim and for controlled benchmarking. Delegates to
/// [`executor::set_worker_limit`].
pub fn set_worker_limit(n: usize) {
    executor::set_worker_limit(n);
}

/// Run `tasks` — the figure-level scheduling primitive behind
/// `all_figures` — returning each task's output **in task order**.
///
/// `width` (the `--jobs` knob) is enforced here, not in the executor:
/// `min(width, tasks)` lanes run as one executor submission, and each
/// lane takes the next unstarted task in order until none is left, so
/// at most `width` tasks run at once and they start in the order given.
/// The calling thread runs a lane itself; a pool worker whose lane runs
/// dry goes back to stealing, mid-flight, *into the replication chunks
/// of tasks still running*. A task's panic reaches the caller once the
/// other lanes finish their current task; no lane starts a task after
/// it.
pub fn run_tasks<T, F>(width: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let take = || queue.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    executor::submit(
        width.max(1).min(n),
        |_lane| {
            let mut ran = Vec::new();
            loop {
                // The lock ends with this statement, before the task runs.
                let Some((i, task)) = take().next() else {
                    return ran;
                };
                match catch_unwind(AssertUnwindSafe(task)) {
                    Ok(t) => ran.push((i, t)),
                    Err(payload) => {
                        // Empty the queue: no lane starts a task after this.
                        take().by_ref().for_each(drop);
                        resume_unwind(payload);
                    }
                }
            }
        },
        |ran| {
            for (i, t) in ran {
                out[i] = Some(t);
            }
        },
    );
    out.into_iter()
        .map(|t| t.expect("every task ran"))
        .collect()
}

/// Map-reduce over a list of **cells** — the one chunked reduction
/// core every runner shares — returning each cell's reduced
/// accumulator in cell order.
///
/// `cells[c]` is the replication count of cell `c` (e.g. one cell per
/// probing rate of a rate-response sweep). Every `(cell, replication)`
/// pair becomes one unit of work on the shared worker pool, so a sweep
/// of 20 × 1 one-replication cells parallelises exactly as well as one
/// 20-replication cell — this is what gives sweep figures intra-figure
/// parallelism instead of serialising their rate points.
///
/// `map(c, r, &mut acc)` folds replication `r` of cell `c` into a chunk
/// accumulator created by `identity(c)`. A cell's first chunk
/// accumulator becomes the cell's, and each later chunk merges into it
/// with `merge`; a zero-replication cell yields `identity(c)`. Seed
/// derivation is the caller's job (`map` receives the raw `(c, r)`
/// pair), which lets a ported sweep reproduce the exact seeds its
/// hand-rolled loop used.
///
/// Memory: O(workers) in-flight chunk accumulators plus one reduced
/// accumulator per cell. `merge` runs under the submission's sink lock
/// ([`executor::submit`]), on whichever worker completes the next chunk
/// in order; out-of-order chunk outputs wait in a bounded reorder
/// window (about one entry per worker).
///
/// **Bit-compatibility contract:** each cell's replications are chunked
/// on its own [`CHUNK`] grid, so the cell-local chunk boundaries — and
/// therefore the merge tree — do not depend on the surrounding cells.
/// The result for cell `c` is bit-identical to a one-cell call over the
/// same replications (a [`run_reduce`] with the same seeds), for any
/// worker count and any surrounding cell list.
pub fn run_cells<A, F, I, M>(cells: &[usize], map: F, identity: I, merge: M) -> Vec<A>
where
    A: Send,
    F: Fn(usize, usize, &mut A) + Sync,
    I: Fn(usize) -> A + Sync,
    M: Fn(&mut A, A) + Send + Sync,
{
    // Chunk-count prefix sums: cell `c` owns global chunks
    // `chunk_offset[c] .. chunk_offset[c + 1]`, each fully inside one
    // cell so the cell-local chunk grid never depends on its neighbours.
    let mut chunk_offset = Vec::with_capacity(cells.len() + 1);
    let mut total_chunks = 0usize;
    chunk_offset.push(0);
    for &reps in cells {
        total_chunks += reps.div_ceil(CHUNK);
        chunk_offset.push(total_chunks);
    }

    // Chunk outputs arrive in ascending global-chunk order (the
    // executor's contract), so each cell's chunks merge in ascending
    // chunk order into the accumulator its first chunk left.
    let mut reduced: Vec<Option<A>> = std::iter::repeat_with(|| None).take(cells.len()).collect();
    executor::submit(
        total_chunks,
        |gchunk| {
            // The owning cell: last offset <= gchunk. Zero-rep cells
            // contribute no chunks and are skipped by partition_point.
            let cell = chunk_offset.partition_point(|&o| o <= gchunk) - 1;
            let first = (gchunk - chunk_offset[cell]) * CHUNK;
            let mut acc = identity(cell);
            for r in first..(first + CHUNK).min(cells[cell]) {
                map(cell, r, &mut acc);
            }
            (cell, acc)
        },
        |(cell, acc)| match reduced[cell].as_mut() {
            Some(seeded) => merge(seeded, acc),
            None => reduced[cell] = Some(acc),
        },
    );
    reduced
        .into_iter()
        .enumerate()
        .map(|(cell, acc)| acc.unwrap_or_else(|| identity(cell)))
        .collect()
}

/// Fully streaming map-reduce over `reps` replications: the one-cell
/// [`run_cells`], with replication `i` seeded
/// `derive_seed(master_seed, i)`.
///
/// Each worker folds replications straight into a chunk accumulator
/// (`map(i, seed, &mut acc)`) created by `identity()`; chunk
/// accumulators are merged with `merge` in **deterministic chunk
/// order**. Nothing per-replication is ever materialised, so peak
/// memory is O(workers × accumulator) — this is the hot path behind
/// every transient experiment. An accumulator that collects per-chunk
/// `Vec`s receives them in replication order.
///
/// The result is bit-identical across worker counts because the chunk
/// grid ([`CHUNK`]) and the merge order are fixed.
///
/// ```
/// use csmaprobe_desim::replicate;
///
/// // Streaming mean over 10_000 replications, no Vec of outputs.
/// let (n, sum) = replicate::run_reduce(
///     10_000,
///     42,
///     |_, seed, acc: &mut (u64, f64)| {
///         let mut rng = csmaprobe_desim::rng::SimRng::new(seed);
///         acc.0 += 1;
///         acc.1 += rng.f64();
///     },
///     || (0u64, 0.0f64),
///     |a, b| {
///         a.0 += b.0;
///         a.1 += b.1;
///     },
/// );
/// assert_eq!(n, 10_000);
/// assert!((sum / n as f64 - 0.5).abs() < 0.02);
/// ```
pub fn run_reduce<A, F, I, M>(reps: usize, master_seed: u64, map: F, identity: I, merge: M) -> A
where
    A: Send,
    F: Fn(usize, u64, &mut A) + Sync,
    I: Fn() -> A + Sync,
    M: Fn(&mut A, A) + Send + Sync,
{
    run_cells(
        &[reps],
        |_, r, acc: &mut A| map(r, derive_seed(master_seed, r as u64), acc),
        |_| identity(),
        merge,
    )
    .pop()
    .expect("a one-cell call reduces its cell")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngCore;
    use crate::rng::SimRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn zero_reps_is_empty() {
        let reduced = run_reduce(0, 1, |_, _, a: &mut u64| *a += 1, || 0u64, |a, b| *a += b);
        assert_eq!(reduced, 0);
    }

    #[test]
    fn run_reduce_counts_every_replication() {
        let n = run_reduce(
            1000,
            1,
            |_, _, acc: &mut u64| *acc += 1,
            || 0u64,
            |a, b| *a += b,
        );
        assert_eq!(n, 1000);
    }

    #[test]
    fn run_reduce_sees_correct_seeds_in_chunk_order() {
        // Accumulate (index, seed) pairs; deterministic chunk-ordered
        // merge must reconstruct exact replication order.
        let pairs = run_reduce(
            150,
            11,
            |i, s, acc: &mut Vec<(usize, u64)>| acc.push((i, s)),
            Vec::new,
            |a, b| a.extend(b),
        );
        assert_eq!(pairs.len(), 150);
        for (i, (idx, seed)) in pairs.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*seed, derive_seed(11, i as u64));
        }
    }

    #[test]
    fn run_reduce_bit_identical_across_worker_counts() {
        let _g = executor::limit_guard();
        // Floating-point accumulation is merge-order sensitive; the
        // chunk grid must make the result independent of worker count.
        let job = || {
            run_reduce(
                500,
                0xD15C,
                |_, seed, acc: &mut (f64, f64)| {
                    let x = SimRng::new(seed).f64();
                    acc.0 += x;
                    acc.1 += x * x;
                },
                || (0.0f64, 0.0f64),
                |a, b| {
                    a.0 += b.0;
                    a.1 += b.1;
                },
            )
        };
        set_worker_limit(1);
        let solo = job();
        set_worker_limit(4);
        let quad = job();
        set_worker_limit(0);
        assert_eq!(solo.0.to_bits(), quad.0.to_bits());
        assert_eq!(solo.1.to_bits(), quad.1.to_bits());
    }

    #[test]
    fn run_cells_counts_and_orders_every_cell() {
        let cells = [5usize, 0, 70, 1];
        let out = run_cells(
            &cells,
            |c, r, acc: &mut Vec<(usize, usize)>| acc.push((c, r)),
            |_| Vec::new(),
            |a, b| a.extend(b),
        );
        assert_eq!(out.len(), 4);
        for (c, pairs) in out.iter().enumerate() {
            assert_eq!(pairs.len(), cells[c], "cell {c}");
            for (i, &(pc, pr)) in pairs.iter().enumerate() {
                assert_eq!(pc, c);
                assert_eq!(pr, i, "cell {c} replication order");
            }
        }
    }

    #[test]
    fn run_cells_matches_standalone_run_reduce_bitwise() {
        let _g = executor::limit_guard();
        // The contract core::sweep relies on: a cell embedded in any
        // grid reduces bit-identically to its own run_reduce, because
        // the cell-local chunk grid and merge order are preserved.
        let cell_reps = [7usize, 33, 100, 64];
        let standalone: Vec<(f64, f64)> = cell_reps
            .iter()
            .enumerate()
            .map(|(c, &reps)| {
                run_reduce(
                    reps,
                    derive_seed(0xCE11, c as u64),
                    |_, seed, acc: &mut (f64, f64)| {
                        let x = SimRng::new(seed).f64();
                        acc.0 += x;
                        acc.1 += x * x;
                    },
                    || (0.0f64, 0.0f64),
                    |a, b| {
                        a.0 += b.0;
                        a.1 += b.1;
                    },
                )
            })
            .collect();
        for workers in [1usize, 3] {
            set_worker_limit(workers);
            let grid = run_cells(
                &cell_reps,
                |c, r, acc: &mut (f64, f64)| {
                    let seed = derive_seed(derive_seed(0xCE11, c as u64), r as u64);
                    let x = SimRng::new(seed).f64();
                    acc.0 += x;
                    acc.1 += x * x;
                },
                |_| (0.0f64, 0.0f64),
                |a, b| {
                    a.0 += b.0;
                    a.1 += b.1;
                },
            );
            set_worker_limit(0);
            for (c, (g, s)) in grid.iter().zip(&standalone).enumerate() {
                assert_eq!(
                    g.0.to_bits(),
                    s.0.to_bits(),
                    "cell {c} sum, {workers} workers"
                );
                assert_eq!(
                    g.1.to_bits(),
                    s.1.to_bits(),
                    "cell {c} sumsq, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn run_cells_seeds_each_cell_with_its_first_chunk() {
        let _g = executor::limit_guard();
        // (replications, merges, cell tag): a cell of k chunks merges
        // k − 1 times, never into a fresh identity, and zero-rep cells at
        // the head, middle and tail yield their own identity in place.
        let cells = [0usize, 40, 0, 0, 7, 0, 97];
        for workers in [1usize, 4] {
            set_worker_limit(workers);
            let out = run_cells(
                &cells,
                |_c, _r, acc: &mut (usize, usize, usize)| acc.0 += 1,
                |c| (0, 0, c),
                |a, b| {
                    a.0 += b.0;
                    a.1 += 1 + b.1;
                },
            );
            set_worker_limit(0);
            assert_eq!(out.len(), cells.len());
            for (c, &(reps, merges, tag)) in out.iter().enumerate() {
                assert_eq!(tag, c, "cell order");
                assert_eq!(reps, cells[c], "replication count");
                assert_eq!(merges, cells[c].div_ceil(CHUNK).saturating_sub(1));
            }
        }
    }

    #[test]
    fn run_tasks_returns_in_task_order_with_at_most_width_running() {
        let _g = executor::limit_guard();
        for limit in [1usize, 8] {
            set_worker_limit(limit);
            let (active, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let tasks: Vec<_> = (0..23)
                .map(|i| {
                    let (active, peak) = (&active, &peak);
                    move || {
                        peak.fetch_max(active.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(2));
                        active.fetch_sub(1, Ordering::SeqCst);
                        i * i
                    }
                })
                .collect();
            let out = run_tasks(3, tasks);
            set_worker_limit(0);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
            assert!(
                peak.into_inner() <= 3,
                "limit {limit}: more than 3 ran at once"
            );
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_no_lane_starts_another() {
        let _g = executor::limit_guard();
        set_worker_limit(4);
        // (width, most tasks started): at width 1 only the panicking
        // one; at width 2 the other lane may finish the task it holds.
        for (width, most) in [(1usize, 1usize), (2, 10)] {
            let started = AtomicUsize::new(0);
            let tasks: Vec<_> = (0..20)
                .map(|i| {
                    let started = &started;
                    move || {
                        started.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(20));
                        if i == 0 {
                            panic!("task 0 exploded");
                        }
                    }
                })
                .collect();
            let result = catch_unwind(AssertUnwindSafe(|| run_tasks(width, tasks)));
            assert!(
                result.is_err(),
                "width {width}: the panic reaches the caller"
            );
            let started = started.into_inner();
            assert!(
                started <= most,
                "width {width}: {started} of 20 tasks started"
            );
        }
        set_worker_limit(0);
    }

    #[test]
    fn run_tasks_nests_replication_calls() {
        // The figure-scheduler shape: tasks that themselves run
        // reduces on the same executor.
        let _g = executor::limit_guard();
        set_worker_limit(4);
        let tasks: Vec<_> = (0..5u64)
            .map(|t| {
                move || {
                    run_reduce(
                        100,
                        t,
                        |_, seed, acc: &mut u64| *acc ^= SimRng::new(seed).next_u64(),
                        || 0u64,
                        |a, b| *a ^= b,
                    )
                }
            })
            .collect();
        let nested = run_tasks(2, tasks);
        set_worker_limit(1);
        let solo: Vec<u64> = (0..5u64)
            .map(|t| {
                run_reduce(
                    100,
                    t,
                    |_, seed, acc: &mut u64| *acc ^= SimRng::new(seed).next_u64(),
                    || 0u64,
                    |a, b| *a ^= b,
                )
            })
            .collect();
        set_worker_limit(0);
        assert_eq!(nested, solo);
    }
}
