//! The process-wide **work-stealing chunk executor** behind every
//! replication runner.
//!
//! One persistent pool of worker threads serves every concurrent
//! [`submit`] in the process. A submission is an ordered list of chunk
//! tasks (`make(chunk_index)`) whose outputs are handed to a `consume`
//! callback in **ascending chunk index order** through a bounded
//! reorder window. Pool workers steal chunks across *all* live
//! submissions, so when one submission runs out of work its workers
//! move to whatever else is in flight **mid-run** — there is no
//! acquire-at-spawn/release-at-end seam where cores sit idle while a
//! long submission still has chunks left.
//!
//! # Scheduling model
//!
//! * Every submitting thread works on its own submission too (and only
//!   on its own), so a submission always makes progress even when every
//!   pool worker is busy elsewhere — this is what makes a late-arriving
//!   small job finish promptly while a large grid saturates the pool,
//!   and what makes nested submissions (a scheduled figure running its
//!   own replication reduces) deadlock-free: the innermost chunk tasks
//!   never block, and every waiting thread drives its own work first.
//! * Pool workers scan live submissions round-robin and claim the next
//!   chunk of the first one with unclaimed chunks. Claimed chunks run to
//!   completion; nothing is preempted.
//! * The submitter claims chunks until none is left, then waits once for
//!   the last claimed chunk to finish.
//! * The executor knows only the ceiling below. A caller that wants
//!   fewer of its tasks running at once submits fewer chunks:
//!   `replicate::run_tasks` runs `--jobs` figures as that many lanes.
//!
//! # Concurrency ceiling
//!
//! The pool keeps [`concurrency`]`() − 1` workers live — one fewer than
//! the ceiling because each submitting thread executes chunks itself.
//! The ceiling is the explicit [`set_worker_limit`] /
//! `CSMAPROBE_WORKERS` value when set, else the hardware parallelism.
//! The variable must be an integer in `1..=`[`MAX_WORKERS`]:
//! [`env_worker_limit`] refuses anything else, and [`worker_limit`]
//! panics on it.
//! Lowering the limit parks excess workers (they re-check the target on
//! every wakeup); a limit of 1 makes every submission run inline on its
//! calling thread, with no pool interaction at all.
//!
//! # Determinism
//!
//! Results never depend on the worker count, the stealing order, or
//! which submissions happen to be in flight: chunk outputs are consumed
//! in ascending chunk order per submission, so any reduction whose
//! merge follows that order is a pure function of the submission alone.
//! The property suites in `tests/executor_property.rs` pin this for
//! concurrent submissions, not just solo ones.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Explicit concurrency override; 0 means "auto" (hardware).
static WORKER_LIMIT: AtomicUsize = AtomicUsize::new(0);

/// Monotonic submission ids (registry membership is id-keyed).
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Pin the process-wide concurrency ceiling every subsequent submission
/// runs under (pool workers + submitting threads). `0` restores
/// automatic sizing (the hardware parallelism).
///
/// Results never depend on this — it exists for tests that prove that
/// claim and for controlled benchmarking. Excess pool workers park; a
/// raised limit takes effect at the next submission.
pub fn set_worker_limit(n: usize) {
    WORKER_LIMIT.store(n, Ordering::Relaxed);
    // Parked pool workers re-read the target on every wakeup.
    if let Some(reg) = REGISTRY.get() {
        reg.work_cv.notify_all();
    }
}

/// The environment variable that sets the concurrency ceiling.
const WORKERS_ENV: &str = "CSMAPROBE_WORKERS";

/// The largest ceiling `CSMAPROBE_WORKERS` (and `csmaprobe serve
/// --workers`) accepts. The pool starts `ceiling − 1` threads at the
/// first submission, and the daemon one session driver per unit at
/// start-up, so the bound caps what one value can ask for.
pub const MAX_WORKERS: usize = 1024;

/// Read `CSMAPROBE_WORKERS`: unset means "auto" (`Ok(0)`, the hardware
/// parallelism), an integer in `1..=`[`MAX_WORKERS`] sets the ceiling,
/// and anything else is an `Err` naming the variable, its value and
/// the bound. Binaries call this before any work and exit 2 on the
/// error.
pub fn env_worker_limit() -> Result<usize, String> {
    parse_worker_env(std::env::var_os(WORKERS_ENV).as_deref())
}

fn parse_worker_env(value: Option<&std::ffi::OsStr>) -> Result<usize, String> {
    let Some(value) = value else { return Ok(0) };
    match value.to_str().map(str::parse::<usize>) {
        Some(Ok(n)) if (1..=MAX_WORKERS).contains(&n) => Ok(n),
        _ => Err(format!(
            "{WORKERS_ENV}={value:?} is not an integer in 1..={MAX_WORKERS}; \
             unset it to use the hardware parallelism"
        )),
    }
}

/// The `CSMAPROBE_WORKERS` ceiling at first use, overridden by
/// [`set_worker_limit`]; 0 means "auto".
///
/// # Panics
/// If the variable is set to anything but an integer in
/// `1..=`[`MAX_WORKERS`] (the [`env_worker_limit`] error).
pub fn worker_limit() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    let env = *ENV.get_or_init(|| env_worker_limit().unwrap_or_else(|e| panic!("{e}")));
    let set = WORKER_LIMIT.load(Ordering::Relaxed);
    if set > 0 {
        set
    } else {
        env
    }
}

/// Hardware parallelism (≥ 1).
fn hardware_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The effective concurrency ceiling: the explicit limit when set, else
/// the hardware parallelism.
pub fn concurrency() -> usize {
    let limit = worker_limit();
    if limit > 0 {
        limit
    } else {
        hardware_workers()
    }
}

/// Live pool workers to aim for: one fewer than the ceiling, because
/// every submitting thread executes chunks of its own submission.
fn pool_target() -> usize {
    concurrency().saturating_sub(1)
}

/// Lock a mutex, riding through poisoning (a panicking chunk poisons
/// its submission's locks; the panic is re-thrown at the submitter, so
/// later lockers just need the data).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Type-independent scheduling state of one submission.
///
/// Termination protocol: every one of the `total` chunks is claimed
/// exactly once (`next` is a claim ticket counter) and every claimed
/// chunk bumps `finished` when its execution ends — **including after a
/// panic**, where remaining claims drain as no-ops instead of being cut
/// short. The submitter returns only when `finished == total`, so no
/// thread can still be inside (or about to enter) `make`/`consume` once
/// `submit` returns — the invariant the registry's lifetime erasure
/// rests on. (A claimed-then-counted scheme with an early-exit
/// predicate would race: a worker between "claim" and "count" is
/// invisible to the submitter.)
struct Control {
    id: u64,
    /// Total chunk count; `next >= total` means nothing left to claim.
    total: usize,
    /// Next chunk index to claim (claims are always in ascending order;
    /// every index below `total` is claimed exactly once, panic or not).
    next: AtomicUsize,
    /// Completion state, guarded for `done_cv`.
    done: Mutex<Done>,
    done_cv: Condvar,
}

struct Done {
    /// Chunks whose execution has finished (drained no-ops included);
    /// the submission is complete exactly when this reaches `total`.
    finished: usize,
    /// A chunk panicked: later chunks skip `make`/`consume` and drain.
    /// (Plain bool under the `done` lock — `run_chunk` takes it anyway.)
    poisoned: bool,
    /// First panic payload raised by a chunk, re-thrown at the caller.
    panic: Option<Box<dyn Any + Send>>,
}

/// The reorder window: chunk outputs parked until their predecessors
/// have been consumed, so `consume` always sees ascending chunk order.
struct Sink<C, G> {
    next_emit: usize,
    pending: BTreeMap<usize, C>,
    consume: G,
}

/// Object-safe face of a typed submission, as stored in the registry.
trait Task: Send + Sync {
    fn control(&self) -> &Control;
    /// Execute chunk `idx`: run `make`, deliver through the reorder
    /// window, record completion (or the panic) on the control block.
    fn run_chunk(&self, idx: usize);
}

struct Submission<C, F, G> {
    control: Control,
    make: F,
    sink: Mutex<Sink<C, G>>,
}

impl<C, F, G> Task for Submission<C, F, G>
where
    C: Send,
    F: Fn(usize) -> C + Sync + Send,
    G: FnMut(C) + Send,
{
    fn control(&self) -> &Control {
        &self.control
    }

    fn run_chunk(&self, idx: usize) {
        if lock(&self.control.done).poisoned {
            // The submission already failed: this claim just drains so
            // `finished` still reaches `total` (parked outputs and the
            // remaining work are dropped; the submitter re-throws).
            self.finish_chunk(Ok(()));
            return;
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            let out = (self.make)(idx);
            let mut sink = lock(&self.sink);
            let Sink {
                next_emit,
                pending,
                consume,
            } = &mut *sink;
            if idx == *next_emit {
                consume(out);
                *next_emit += 1;
                loop {
                    let k = *next_emit;
                    match pending.remove(&k) {
                        Some(ready) => {
                            consume(ready);
                            *next_emit += 1;
                        }
                        None => break,
                    }
                }
            } else {
                pending.insert(idx, out);
            }
        }));
        self.finish_chunk(result);
    }
}

impl<C, F, G> Submission<C, F, G> {
    /// Record one chunk's end (success, drain, or panic); the last one
    /// wakes the submitter.
    fn finish_chunk(&self, result: Result<(), Box<dyn Any + Send>>) {
        let c = &self.control;
        let mut done = lock(&c.done);
        if let Err(payload) = result {
            done.poisoned = true;
            if done.panic.is_none() {
                done.panic = Some(payload);
            }
        }
        done.finished += 1;
        if done.finished == c.total {
            c.done_cv.notify_all();
        }
    }
}

/// The pool registry: live submissions plus worker bookkeeping.
struct Registry {
    state: Mutex<RegState>,
    work_cv: Condvar,
}

struct RegState {
    subs: Vec<Arc<dyn Task>>,
    /// Round-robin scan cursor, so late submissions get workers as
    /// chunks finish instead of starving behind an early long one.
    cursor: usize,
    spawned: usize,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        state: Mutex::new(RegState {
            subs: Vec::new(),
            cursor: 0,
            spawned: 0,
        }),
        work_cv: Condvar::new(),
    })
}

/// Claim and execute one chunk of `task`. Returns `false` when no
/// chunk was left to claim.
fn try_run_one(task: &dyn Task) -> bool {
    let c = task.control();
    let idx = c.next.fetch_add(1, Ordering::SeqCst);
    if idx >= c.total {
        return false;
    }
    task.run_chunk(idx);
    true
}

/// One pool worker: scan for claimable work, execute one chunk, repeat.
/// Workers with an index at or beyond the current target park until the
/// limit rises again.
fn worker_loop(index: usize) {
    let reg = registry();
    loop {
        let task: Arc<dyn Task> = {
            let mut s = lock(&reg.state);
            loop {
                if index < pool_target() {
                    if let Some(t) = pick(&mut s) {
                        break t;
                    }
                }
                // The timeout is a belt-and-braces guard against missed
                // wakeups (notifies happen outside this lock); idle
                // workers re-scan a few times a second at worst.
                let (guard, _) = reg
                    .work_cv
                    .wait_timeout(s, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                s = guard;
            }
        };
        let _ = try_run_one(&*task);
    }
}

/// The next submission with claimable work, round-robin from the
/// cursor.
fn pick(s: &mut RegState) -> Option<Arc<dyn Task>> {
    let n = s.subs.len();
    for k in 0..n {
        let i = (s.cursor + k) % n;
        let c = s.subs[i].control();
        if c.next.load(Ordering::Relaxed) < c.total {
            s.cursor = (i + 1) % n;
            return Some(Arc::clone(&s.subs[i]));
        }
    }
    None
}

fn register(task: Arc<dyn Task>) {
    let reg = registry();
    let mut s = lock(&reg.state);
    s.subs.push(task);
    // Spawn lazily up to the current target; the pool never shrinks,
    // excess workers park via the index check in `worker_loop`.
    while s.spawned < pool_target() {
        let index = s.spawned;
        std::thread::Builder::new()
            .name(format!("csmaprobe-worker-{index}"))
            .spawn(move || worker_loop(index))
            .expect("spawn pool worker");
        s.spawned += 1;
    }
    drop(s);
    reg.work_cv.notify_all();
}

fn unregister(id: u64) {
    let mut s = lock(&registry().state);
    s.subs.retain(|t| t.control().id != id);
}

/// Run `chunks` chunk tasks through the shared pool: `make(idx)`
/// produces chunk `idx`'s output, `consume` receives the outputs in
/// **ascending chunk index order**. Blocks until every chunk has been
/// consumed; re-throws the first panic any chunk raised.
///
/// The calling thread works on its own submission; pool workers steal
/// the rest, across every live submission in the process.
pub fn submit<C, F, G>(chunks: usize, make: F, mut consume: G)
where
    C: Send,
    F: Fn(usize) -> C + Sync + Send,
    G: FnMut(C) + Send,
{
    if chunks == 0 {
        return;
    }
    // Inline path: a single chunk or a concurrency ceiling of 1 means
    // the caller just runs everything itself.
    if chunks == 1 || pool_target() == 0 {
        for idx in 0..chunks {
            consume(make(idx));
        }
        return;
    }

    let sub = Arc::new(Submission {
        control: Control {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            total: chunks,
            next: AtomicUsize::new(0),
            done: Mutex::new(Done {
                finished: 0,
                poisoned: false,
                panic: None,
            }),
            done_cv: Condvar::new(),
        },
        make,
        sink: Mutex::new(Sink {
            next_emit: 0,
            pending: BTreeMap::new(),
            consume,
        }),
    });

    {
        let erased: Arc<dyn Task + '_> = sub.clone();
        // SAFETY: the registry holds tasks as `'static`, but this
        // submission borrows the caller's stack. `submit` does not
        // return until `finished == total` — every chunk claimed and
        // run to its end (see the `Control` termination protocol) — so
        // no pool worker can be inside, or later reach, `make`/
        // `consume` — and thereby the borrowed data — after this frame
        // ends. Workers may retain the Arc briefly afterwards, but
        // only to fail a claim against the atomics in the (heap-owned)
        // control block and drop their reference.
        // The one unsafe block in the workspace: the scoped-task-on-
        // pool lifetime erasure every shared-pool executor needs (the
        // blocking contract above is what makes it sound).
        #[allow(unsafe_code)]
        let erased: Arc<dyn Task> =
            unsafe { std::mem::transmute::<Arc<dyn Task + '_>, Arc<dyn Task + 'static>>(erased) };
        register(erased);
    }

    let c = &sub.control;
    // Drive our own submission until every chunk is claimed. A claimed
    // chunk always runs to its `finish_chunk`, even on a worker parked
    // by a lowered limit right after it, so the chunks still running
    // elsewhere need no help: wait for the last one. It notifies under
    // `done`, so checking the count under the same lock cannot miss it.
    while try_run_one(sub.as_ref()) {}
    let mut done = lock(&c.done);
    while done.finished < c.total {
        done = c.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
    }
    let panicked = done.panic.take();
    drop(done);
    unregister(c.id);
    // Make this thread the one that drops the submission (the closures
    // and any parked chunk outputs — present after a panic): once
    // unregistered no new worker can pick it up, and a worker still
    // holding a clone from `pick` can only fail a claim and drop its
    // reference, so this wait is brief. Without it, a caller type whose
    // `Drop` touches borrowed data could run on a pool thread after
    // this frame ended.
    while Arc::strong_count(&sub) > 1 {
        std::thread::yield_now();
    }
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
}

/// Serialises tests that pin the global worker limit.
#[cfg(test)]
pub(crate) fn limit_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    lock(&GUARD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn worker_env_takes_only_a_positive_integer() {
        let parse = |v: &str| parse_worker_env(Some(std::ffi::OsStr::new(v)));
        assert_eq!(parse_worker_env(None), Ok(0), "unset means auto");
        assert_eq!(parse("1"), Ok(1));
        assert_eq!(parse("8"), Ok(8));
        for bad in ["abc", "-1", "4x", "0", "", " 2"] {
            let err = parse(bad).expect_err(bad);
            assert!(err.starts_with("CSMAPROBE_WORKERS="), "{bad:?}: {err}");
            assert!(err.contains(&format!("{bad:?}")), "{bad:?}: {err}");
        }
    }

    #[test]
    fn worker_env_refuses_counts_above_the_bound() {
        // Parsing only: no test ever starts the refused number of
        // threads.
        let parse = |v: &str| parse_worker_env(Some(std::ffi::OsStr::new(v)));
        assert_eq!(parse("1024"), Ok(1024));
        for bad in ["1025", "100000", "18446744073709551615"] {
            let err = parse(bad).expect_err(bad);
            assert!(err.starts_with("CSMAPROBE_WORKERS="), "{bad:?}: {err}");
            assert!(err.contains("1..=1024"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn outputs_arrive_in_ascending_chunk_order() {
        let _g = limit_guard();
        for limit in [1usize, 4] {
            set_worker_limit(limit);
            let mut seen = Vec::new();
            submit(97, |i| i, |i| seen.push(i));
            set_worker_limit(0);
            assert_eq!(seen, (0..97).collect::<Vec<_>>(), "limit {limit}");
        }
    }

    #[test]
    fn workers_parked_mid_run_leave_no_chunk_behind() {
        // One chunk lowers the limit to 1: every pool worker parks after
        // its current chunk, and the submitter runs what is left.
        let _g = limit_guard();
        set_worker_limit(4);
        let mut seen = Vec::new();
        submit(
            64,
            |i| {
                if i == 5 {
                    set_worker_limit(1);
                }
                std::thread::sleep(Duration::from_micros(200));
                i
            },
            |i| seen.push(i),
        );
        set_worker_limit(0);
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_chunk_propagates_to_submitter() {
        let _g = limit_guard();
        set_worker_limit(2);
        let hit = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            submit(
                16,
                |i| {
                    if i == 7 {
                        panic!("chunk 7 exploded");
                    }
                    i
                },
                |_| {
                    hit.store(true, Ordering::SeqCst);
                },
            );
        }));
        set_worker_limit(0);
        assert!(result.is_err(), "panic must reach the submitter");
        assert!(hit.load(Ordering::SeqCst), "chunks before the panic ran");
    }

    #[test]
    fn nested_submissions_complete() {
        let _g = limit_guard();
        set_worker_limit(4);
        let mut totals = Vec::new();
        submit(
            6,
            |outer| {
                // Each outer chunk runs its own inner submission — the
                // figure-inside-scheduler shape.
                let inner = Mutex::new(0usize);
                submit(5, |i| i + outer, |v| *lock(&inner) += v);
                let total = *lock(&inner);
                total
            },
            |t| totals.push(t),
        );
        set_worker_limit(0);
        let expect: Vec<usize> = (0..6).map(|o| (0..5).map(|i| i + o).sum()).collect();
        assert_eq!(totals, expect);
    }
}
