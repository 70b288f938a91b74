//! A fixed reference kernel that measures how fast the host runs right
//! now, independently of the program under test.
//!
//! The reference host is shared: other tenants slow it by up to half, in
//! bursts of seconds and in stretches of minutes, and every timing of the
//! program moves with them. The kernel has the shape of the simulator's
//! inner loop — an event heap, a xorshift stream and scattered updates of
//! a table that fits in the L2 cache — and shares no code with it, so a
//! change to the program cannot move it. `perfbench/run.py` runs it
//! between repetitions and scales each repetition's timings by how much
//! slower than its reference time the kernel ran.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Events of one calibration: ~0.1 s on the quiet reference host.
pub const EVENTS: u64 = 2_000_000;

/// Run the kernel for `events` events; returns a checksum so the work
/// cannot be optimised away.
pub fn kernel(events: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table = vec![0u64; 1 << 16];
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..1024)
        .map(|id| Reverse((next() % 1_000_000, id)))
        .collect();
    let mut sum = 0u64;
    for _ in 0..events {
        let Reverse((t, id)) = heap.pop().expect("the heap never empties");
        let r = next();
        let slot = (r ^ id) as usize & 0xFFFF;
        table[slot] = table[slot].wrapping_add(t);
        if r & 7 == 0 {
            sum = sum.wrapping_add(table[(r >> 12) as usize & 0xFFFF]);
        }
        heap.push(Reverse((t + 1 + r % 5000, id)));
    }
    sum
}
