//! Submits the daemon refuses leave nothing behind: a client that sends
//! distinct inline axis points (`wired:…`, `wlan:…`, `n=…`) which are
//! refused as duplicate ids, as duplicate cells or while draining keeps
//! the process's live heap flat, however many it sends.
//!
//! The counting allocator sees the whole process, so this binary holds
//! this one test.

use csmaprobe::service::session::{SessionManager, SessionSpec};
use csmaprobe::service::wire::SubmitRequest;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes of the process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes.
struct Counting;

// Implementing the allocator trait takes `unsafe`; every call forwards
// its arguments to the system allocator unchanged.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for
        // `layout`, which is the system allocator's too.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc` above with this `layout`, so the
        // system allocator handed it out.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Refusals per round, per kind of refusal.
const ROUND: u64 = 400;

/// A submit whose link and train are inline points no other `i` uses.
fn inline_request(i: u64, id: String, cell: u64) -> SubmitRequest {
    let link = if i % 2 == 0 {
        format!("wired:capacity={},cross=1e6", 2_000_000 + i)
    } else {
        format!("wlan:cross={},fifo=0", 100_000 + i)
    };
    SubmitRequest {
        id,
        cell,
        link,
        train: format!("n={}", 2 + i),
        tool: "train".to_string(),
        reps: 1,
        seed: i,
    }
}

/// Resolve and submit the requests `make` builds for `from..from +
/// ROUND`, each of which `mgr` must refuse with `code`; returns the live
/// heap bytes afterwards.
fn refuse_round(
    mgr: &SessionManager,
    from: u64,
    code: &str,
    make: &dyn Fn(u64) -> SubmitRequest,
) -> isize {
    for i in from..from + ROUND {
        let spec = SessionSpec::resolve(&make(i)).expect("inline axes resolve");
        assert_eq!(mgr.submit(spec).unwrap_err().code(), code, "request {i}");
    }
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn refused_inline_submits_leave_live_bytes_flat() {
    let mgr = SessionManager::new(1, None);
    let taken = SubmitRequest {
        id: "taken".to_string(),
        cell: 0,
        link: "wired".to_string(),
        train: "short".to_string(),
        tool: "train".to_string(),
        reps: 1,
        seed: 0,
    };
    mgr.submit(SessionSpec::resolve(&taken).unwrap()).unwrap();
    mgr.drain();

    // Each kind of refusal: one round to warm up, then four more rounds
    // of distinct points, which must not grow the heap. A leak of even
    // a few bytes per point would show as several kilobytes.
    let flat = |code: &str, make: &dyn Fn(u64) -> SubmitRequest| {
        let warm = refuse_round(&mgr, 0, code, make);
        let after = (1..5)
            .map(|round| refuse_round(&mgr, round * ROUND, code, make))
            .last()
            .unwrap();
        assert!(
            after - warm < 1024,
            "{code}: live heap grew by {} bytes over {} refused submits",
            after - warm,
            4 * ROUND
        );
    };
    flat("duplicate_id", &|i| {
        inline_request(i, "taken".to_string(), 1_000_000 + i)
    });
    flat("duplicate_cell", &|i| inline_request(i, format!("c{i}"), 0));
    mgr.close_submissions();
    flat("draining", &|i| {
        inline_request(i, format!("f{i}"), 2_000_000 + i)
    });
    mgr.shutdown();
}
