//! # csmaprobe-desim
//!
//! Discrete-event simulation substrate for the `csmaprobe` workspace
//! (reproduction of *"Impact of Transient CSMA/CA Access Delays on
//! Active Bandwidth Measurements"*, IMC 2009).
//!
//! This crate contains nothing about 802.11 — it is the neutral engine
//! the protocol models are built on:
//!
//! * [`time`] — integer-nanosecond [`time::Time`] / [`time::Dur`]
//!   newtypes. No floating point in scheduling.
//! * [`rng`] — seeded, reproducible xoshiro256++ streams and SplitMix64
//!   seed derivation.
//! * [`executor`] — the process-wide work-stealing chunk executor: one
//!   worker pool serving every concurrent submission, with ascending
//!   chunk-order delivery (the determinism backbone).
//! * [`replicate`] — the Monte-Carlo replication runners built on it,
//!   whose output is bit-identical to a sequential run.
//!
//! Design note: per the workspace guides, CPU-bound simulation is kept
//! off async runtimes entirely; parallelism is a plain thread pool over
//! independent replication chunks.

pub mod executor;
pub mod replicate;
pub mod rng;
pub mod time;

pub use rng::{derive_seed, split_mix64, RngCore, SimRng};
pub use time::{Dur, Time};

/// `println!` with the write error ignored: a stdout whose reader has
/// gone (`| head -1`) drops the line instead of panicking, so it cannot
/// turn a refusal or a finished run into exit 101.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {{
        use ::std::io::Write as _;
        let _ = ::std::writeln!(::std::io::stdout(), $($arg)*);
    }};
}

/// `eprintln!` with the write error ignored, as [`outln!`].
#[macro_export]
macro_rules! errln {
    ($($arg:tt)*) => {{
        use ::std::io::Write as _;
        let _ = ::std::writeln!(::std::io::stderr(), $($arg)*);
    }};
}
