//! # csmaprobe
//!
//! A Rust reproduction of **"Impact of Transient CSMA/CA Access Delays
//! on Active Bandwidth Measurements"** (Portoles-Comeras, Cabellos-
//! Aparicio, Banchs, Mangues-Bafalluy, Domingo-Pascual — IMC 2009).
//!
//! This facade crate re-exports the whole workspace under stable paths:
//!
//! | module | contents |
//! |---|---|
//! | [`desim`] | discrete-event engine, integer time, seeded RNG, replication |
//! | [`phy`] | IEEE 802.11b/g PHY timing (airtimes, SIFS/DIFS/slots, CW) |
//! | [`mac`] | DCF CSMA/CA simulator + Bianchi saturation model |
//! | [`traffic`] | Poisson/CBR/on-off/trace sources, probe trains |
//! | [`queueing`] | FIFO substrate: Lindley-recursion service, wired probe departures |
//! | [`stats`] | KS test, MSER-m, histograms, transient-length estimation |
//! | [`core`] | the paper's models: rate-response curves, dispersion bounds |
//! | [`probe`] | measurement tools: packet pair/train, chirps, MSER, SLoPS/TOPP |
//! | [`service`] | resident probe-session daemon (`csmaprobe serve`) |
//!
//! ## Quickstart
//!
//! ```
//! use csmaprobe::core::link::{WlanLink, LinkConfig};
//! use csmaprobe::probe::train::TrainProbe;
//!
//! // A WLAN link at 11 Mb/s with one contending station offering 2 Mb/s.
//! let cfg = LinkConfig::default().contending_bps(2_000_000.0);
//! let link = WlanLink::new(cfg);
//!
//! // Measure the rate response at 5 Mb/s input with 10-packet trains.
//! let probe = TrainProbe::new(10, 1500, 5_000_000.0);
//! let m = probe.measure(&link, 5, 0xC0FFEE);
//! assert!(m.output_rate_bps() > 0.0);
//! ```

pub use csmaprobe_core as core;
pub use csmaprobe_desim as desim;
pub use csmaprobe_mac as mac;
pub use csmaprobe_phy as phy;
pub use csmaprobe_probe as probe;
pub use csmaprobe_queueing as queueing;
pub use csmaprobe_service as service;
pub use csmaprobe_stats as stats;
pub use csmaprobe_traffic as traffic;
