//! # csmaprobe-queueing
//!
//! FIFO queueing substrate — the wired half of the paper's link model
//! (Fig 3) and the replacement for its Matlab trace-driven queueing
//! simulator (appendix A: "convolves a series of packet arrivals with a
//! series of service times").
//!
//! * [`fifo`] — exact Lindley-recursion service of a time-ordered job
//!   trace, with per-job start/departure records and queue-length
//!   observation, and the one-pass probe departures of the wired link.
//! * [`workload`] — the sample-path processes of §5.1.4: hop workload
//!   `W(t)`, utilisation `U(t)` and its window averages
//!   `u_fifo(t, t+τ)`, offered workload `X(t)` and `Y(t, t+τ)`.
//! * [`trace_sim`] — the Matlab-simulator equivalent: convolve probe
//!   arrivals, FIFO cross-traffic, and a per-packet service-time
//!   process (e.g. empirical access delays) into departures, queue
//!   lengths, and output dispersions.
//! * [`analytic`] — M/M/1 and M/D/1 closed forms used to validate the
//!   queue against theory.

pub mod analytic;
pub mod fifo;
pub mod trace_sim;
pub mod workload;

pub use fifo::{fifo_serve, Job, Served};
pub use trace_sim::{FlowTag, TaggedJob, TraceOutcome};
pub use workload::{BusyIntervals, WorkloadProcess};
