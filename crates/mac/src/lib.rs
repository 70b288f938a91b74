//! # csmaprobe-mac
//!
//! The IEEE 802.11 **DCF (CSMA/CA)** MAC simulator — the
//! NS2-replacement substrate of the reproduction — plus the analytic
//! models the engine router may answer steady-state cells with:
//!
//! * [`sim`] — [`WlanSim`], the one DCF kernel: a slot-synchronised
//!   next-event loop (no event calendar) that every simulated cell
//!   runs on — transient trains, probe sequences, steady cells, grid
//!   cells and served sessions;
//! * [`bianchi`] — the Bianchi saturation model ([`BianchiModel`]);
//! * [`bianchi_nonsat`] — the certified finite-offered-load fixed point
//!   ([`NonSatModel`]);
//! * [`options`] — the MAC behaviour switches ([`MacOptions`]).
//!
//! The simulator models a single collision domain (every station hears
//! every other, as in the paper's equally-spaced single-BSS layout)
//! with:
//!
//! * per-station infinite FIFO transmission queues (the paper's NS2
//!   setting: "the queues used are infinite");
//! * slot-synchronised backoff with freezing, binary exponential
//!   contention windows, retry limits, and immediate access after DIFS
//!   on an idle medium;
//! * collisions when two stations' counters expire in the same slot,
//!   occupying the channel for the longest colliding frame plus the
//!   ACK-timeout;
//! * exact integer-nanosecond per-packet timestamps: queue arrival,
//!   head-of-queue instant, receiver (data-end) time, and completion
//!   (ACK-end) time.
//!
//! The **access delay** `μ_i` of the paper — "the delay since they are
//! at the head of the transmission (FIFO) queue until they are
//! completely transmitted (i.e. scheduling + transmission time)" — is
//! [`PacketRecord::access_delay`].
//!
//! Modelling simplifications (all documented in `DESIGN.md`): EIFS
//! after collisions is folded into a common channel-busy interval of
//! `max(colliding airtimes) + SIFS + ACK`, so all stations stay on one
//! slot grid; a station whose queue empties does not carry residual
//! post-backoff to the next packet (NS2 2.29's stock MAC behaves the
//! same way); immediate access is quantised to the current slot grid,
//! which preserves the slot-level collision vulnerability window.
//!
//! ```
//! use csmaprobe_mac::{saturated_source, WlanSim};
//! use csmaprobe_phy::Phy;
//! use csmaprobe_desim::time::Time;
//!
//! // Two saturated stations contending for 20 frames each.
//! let mut sim = WlanSim::new(Phy::dsss_11mbps(), 42);
//! let a = sim.add_station(saturated_source(1500, 20));
//! let b = sim.add_station(saturated_source(1500, 20));
//! let out = sim.run(Time::MAX);
//! assert_eq!(out.records(a).len(), 20);
//! assert_eq!(out.records(b).len(), 20);
//! // Every record carries the paper's access delay μ.
//! assert!(out.records(a)[1].access_delay().as_micros_f64() > 0.0);
//! ```

pub mod bianchi;
pub mod bianchi_nonsat;
pub mod options;
pub mod sim;

pub use bianchi::BianchiModel;
pub use bianchi_nonsat::{NonSatError, NonSatModel, NonSatStation};
pub use options::MacOptions;
pub use sim::{ChannelStats, PacketRecord, SimOutput, StationId, WlanSim};

use csmaprobe_desim::time::{Dur, Time};
use csmaprobe_phy::Phy;
use csmaprobe_traffic::{PacketArrival, TraceSource};

/// Measure the stand-alone saturation throughput (the paper's capacity
/// `C`) of one station sending `bytes`-byte frames: simulate `packets`
/// back-to-back frames with nobody contending and divide delivered bits
/// by elapsed time.
///
/// This is the normaliser for offered loads expressed in Erlangs
/// (Fig 10).
pub fn measured_standalone_capacity_bps(phy: &Phy, bytes: u32, packets: usize, seed: u64) -> f64 {
    let mut sim = WlanSim::new(phy.clone(), seed);
    // All packets queued at t=0: the station stays saturated throughout.
    let st = sim.add_station(saturated_source(bytes, packets));
    let out = sim.run(Time::MAX);
    let recs = out.records(st);
    assert_eq!(recs.len(), packets);
    let first = recs.first().unwrap();
    let last = recs.last().unwrap();
    // Skip the first frame: it gets immediate access and would bias the
    // cycle estimate.
    let bits = (packets as f64 - 1.0) * bytes as f64 * 8.0;
    bits / (last.done - first.done).as_secs_f64()
}

/// Convenience constructor for saturated-station simulations: a source
/// whose queue never empties (everything arrives at t = 0).
pub fn saturated_source(bytes: u32, packets: usize) -> Box<TraceSource> {
    let arrivals: Vec<PacketArrival> = (0..packets)
        .map(|_| PacketArrival::new(Time::ZERO, bytes))
        .collect();
    Box::new(TraceSource::new(arrivals))
}

/// The mean DCF overhead cycle for a lone station (DIFS plus mean
/// backoff plus exchange) — analytic counterpart of
/// [`measured_standalone_capacity_bps`].
pub fn standalone_cycle(phy: &Phy, bytes: u32) -> Dur {
    let mean_backoff = phy.slot * (phy.cw_min as u64) / 2;
    phy.difs() + mean_backoff + phy.success_exchange(bytes)
}
