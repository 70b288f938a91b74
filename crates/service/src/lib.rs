//! The serving layer: `csmaprobe serve` as a library.
//!
//! The paper's estimators run here as **resident probe sessions**
//! instead of one-shot binaries: a client submits a session (link ×
//! train × tool × replication budget × seed) over a newline-delimited
//! JSON protocol ([`wire`]), a session manager ([`session`]) schedules
//! its replications, one task each, through the process-wide
//! work-stealing executor ([`csmaprobe_desim::executor`]), streams
//! partial estimates
//! into per-session [`csmaprobe_stats::Accumulate`] state, and persists
//! each finished session as one row of a crash-tolerant
//! session table ([`csmaprobe_bench::report::RowSink`]). The TCP
//! front end, graceful SIGTERM drain and the `/metrics` text endpoint
//! live in [`server`]; live counters in [`metrics`]; the deterministic
//! load-generator session mixes in [`mix`].
//!
//! **Determinism contract.** A session's final estimate is a pure
//! function of its spec: replication `i` runs
//! `estimate_once(target, derive_seed(spec.seed, i))`, estimates fold
//! in replication order into chunks on the engine-wide
//! [`csmaprobe_desim::replicate::CHUNK`] grid, and chunk accumulators
//! merge in ascending chunk order — exactly the merge tree of a
//! one-shot [`csmaprobe_desim::replicate::run_reduce`]`(reps, seed, …)`.
//! The result is therefore **bit-identical** to the equivalent batch
//! run for any worker count, any number of concurrently running
//! sessions, and any interleaving of their replications (pinned by
//! `tests/service_session.rs` and the `service-smoke` CI job).

pub mod metrics;
pub mod mix;
pub mod server;
pub mod session;
pub mod wire;
