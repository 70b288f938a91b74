//! Thread-parallel Monte-Carlo replication: the scenario engine's
//! streaming map-reduce spine.
//!
//! The paper's results are averages over very many independent
//! repetitions (80 testbed runs; 25 000 NS2 runs; 70 000 Matlab runs).
//! One chunked reduction core serves every one of them:
//!
//! * [`run_cells_emit`] — streaming map-reduce over a list of
//!   independently accumulated **cells** (one per sweep point or grid
//!   cell). Each worker folds its replications directly into a chunk
//!   accumulator, chunk accumulators merge **in deterministic chunk
//!   order**, and each finished cell is handed to a consumer in
//!   ascending cell order — so peak memory is O(workers × accumulator),
//!   never O(reps × output) or O(cells × accumulator).
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
//! (or the `CSMAPROBE_WORKERS` environment variable) pins the
//! process-wide concurrency ceiling explicitly — useful for tests and
//! for reproducing scheduling-sensitive timings; results never depend
//! on it.

use crate::executor;
use crate::rng::derive_seed;
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

/// Run `tasks` as one executor submission — the figure-level scheduling
/// primitive behind `all_figures` — returning each task's output **in
/// task order**.
///
/// At most `width` tasks execute concurrently (the `--jobs` knob); the
/// calling thread always works on its own tasks, and pool workers steal
/// the rest across every live submission, so a finished task's core
/// immediately moves to other tasks *or into the replication chunks of
/// tasks still running* — the mid-flight hand-back that retired the old
/// acquire/release worker budget. Panics from tasks propagate to the
/// caller after in-flight tasks finish.
pub fn run_tasks<T, F>(width: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let mut out: Vec<T> = Vec::with_capacity(n);
    executor::submit(
        n,
        width,
        |i| {
            let task = slots[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("each task is claimed exactly once");
            task()
        },
        |t| out.push(t),
    );
    out
}

/// Streaming map-reduce over a list of **cells** — the one chunked
/// reduction core every runner shares.
///
/// `cells[c]` is the replication count of cell `c` (e.g. one cell per
/// probing rate of a rate-response sweep). Every `(cell, replication)`
/// pair becomes one unit of work on the shared worker pool, so a sweep
/// of 20 × 1 one-replication cells parallelises exactly as well as one
/// 20-replication cell — this is what gives sweep figures intra-figure
/// parallelism instead of serialising their rate points.
///
/// `map(c, r, &mut acc)` folds replication `r` of cell `c` into that
/// cell's accumulator (created by `identity(c)`); per-cell accumulators
/// are combined with `merge`, and each fully-reduced cell is handed to
/// `emit(cell, acc)` in ascending cell order as soon as its last chunk
/// has merged. Zero-replication cells emit `identity(cell)` at their
/// position in the order. Seed derivation is the caller's job (`map`
/// receives the raw `(c, r)` pair), which lets a ported sweep reproduce
/// the exact seeds its hand-rolled loop used.
///
/// Streaming: a huge cell list holds O(workers) in-flight chunk
/// accumulators plus at most one pending cell, never one accumulator
/// per cell, and a crash loses only cells not yet emitted — the basis
/// of incremental grid persistence. `merge` and `emit` run under the
/// submission's sink lock ([`executor::submit`]), on whichever worker
/// completes the next chunk in order; out-of-order chunk outputs wait
/// in a bounded reorder window (about one entry per worker).
///
/// **Bit-compatibility contract:** each cell's replications are chunked
/// on its own [`CHUNK`] grid, so the cell-local chunk boundaries — and
/// therefore the merge tree — do not depend on the surrounding cells.
/// The result for cell `c` is bit-identical to a one-cell call over the
/// same replications (a [`run_reduce`] with the same seeds), for any
/// worker count and any surrounding cell list.
pub fn run_cells_emit<A, F, I, M, E>(cells: &[usize], map: F, identity: I, merge: M, mut emit: E)
where
    A: Send,
    F: Fn(usize, usize, &mut A) + Sync,
    I: Fn(usize) -> A + Sync,
    M: Fn(&mut A, A) + Send + Sync,
    E: FnMut(usize, A) + Send,
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
    // executor's contract) and each cell's chunks are contiguous, so
    // incoming cell indices are non-decreasing: one pending cell
    // suffices. `next_cell` is the lowest not-yet-emitted cell;
    // zero-rep cells produce no chunks and are emitted as identities
    // when the stream steps past them.
    let mut pending: Option<(usize, A)> = None;
    let mut next_cell = 0usize;
    {
        let mut flush_through = |upto: usize, pending: &mut Option<(usize, A)>, emit: &mut E| {
            if let Some((c, acc)) = pending.take() {
                debug_assert_eq!(c, next_cell);
                emit(c, acc);
                next_cell = c + 1;
            }
            while next_cell < upto {
                debug_assert_eq!(cells[next_cell], 0, "non-empty cell skipped");
                emit(next_cell, identity(next_cell));
                next_cell += 1;
            }
        };
        executor::submit(
            total_chunks,
            usize::MAX,
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
            |(cell, acc)| match &mut pending {
                Some((c, g)) if *c == cell => merge(g, acc),
                _ => {
                    flush_through(cell, &mut pending, &mut emit);
                    pending = Some((cell, acc));
                }
            },
        );
        flush_through(cells.len(), &mut pending, &mut emit);
    }
}

/// Fully streaming map-reduce over `reps` replications: the one-cell
/// [`run_cells_emit`], with replication `i` seeded
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
    let mut out = None;
    run_cells_emit(
        &[reps],
        |_, r, acc: &mut A| map(r, derive_seed(master_seed, r as u64), acc),
        |_| identity(),
        merge,
        |_, acc| out = Some(acc),
    );
    out.expect("a one-cell call emits its cell")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngCore;
    use crate::rng::SimRng;

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
        let mut out = Vec::new();
        run_cells_emit(
            &cells,
            |c, r, acc: &mut Vec<(usize, usize)>| acc.push((c, r)),
            |_| Vec::new(),
            |a, b| a.extend(b),
            |_, acc| out.push(acc),
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
            let mut grid = Vec::new();
            run_cells_emit(
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
                |_, acc| grid.push(acc),
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
    fn run_cells_emit_streams_in_cell_order() {
        // Zero-rep cells at the head, middle and tail must all emit
        // their identity at the right position.
        let cells = [0usize, 40, 0, 0, 7, 0];
        for workers in [1usize, 4] {
            set_worker_limit(workers);
            let mut emitted: Vec<(usize, u64)> = Vec::new();
            run_cells_emit(
                &cells,
                |_c, _r, acc: &mut u64| *acc += 1,
                |c| (c as u64) << 32,
                |a, b| *a += b & 0xFFFF_FFFF,
                |cell, acc| emitted.push((cell, acc)),
            );
            set_worker_limit(0);
            assert_eq!(emitted.len(), cells.len());
            for (i, &(cell, acc)) in emitted.iter().enumerate() {
                assert_eq!(cell, i, "ascending emission order");
                assert_eq!(acc >> 32, i as u64, "identity tagged with its cell");
                assert_eq!(acc & 0xFFFF_FFFF, cells[i] as u64, "replication count");
            }
        }
    }

    #[test]
    fn run_tasks_returns_in_task_order() {
        for limit in [1usize, 4] {
            set_worker_limit(limit);
            let tasks: Vec<_> = (0..23).map(|i| move || i * i).collect();
            let out = run_tasks(3, tasks);
            set_worker_limit(0);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_tasks_nests_replication_calls() {
        // The figure-scheduler shape: tasks that themselves run
        // reduces on the same executor.
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
