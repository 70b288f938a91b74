//! # csmaprobe-queueing
//!
//! FIFO queueing substrate — the wired half of the paper's link model
//! (Fig 3).
//!
//! * [`fifo`] — exact Lindley-recursion service of a time-ordered job
//!   trace, with per-job start/departure records and the workload each
//!   job finds, and the one-pass probe departures of the wired link.

pub mod fifo;

pub use fifo::{fifo_serve, Job, Served};
