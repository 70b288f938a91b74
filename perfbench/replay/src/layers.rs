//! Span wrappers around the public entry points of each layer.
//!
//! [`Traced`] is a [`ProbeTarget`] that forwards every method of the
//! wrapped target — `probe_train_batch` included, so batched chunks stay
//! batched — inside a span named after the layer that serves the train:
//! `core.link` for a WLAN link (the engine router plus the DCF kernel),
//! `queueing` for a wired FIFO link. Each forwarded train is one routing
//! decision of `core::engine`, counted per tier.

use crate::trace;
use csmaprobe_bench::grid::GridTarget;
use csmaprobe_core::engine::{self, EngineTier};
use csmaprobe_core::link::{ProbeTarget, TrainObservation, WiredLink, WlanLink};
use csmaprobe_desim::time::Dur;
use csmaprobe_traffic::probe::ProbeTrain;

/// What a wrapped target tells the tracer about itself.
pub trait Layered: ProbeTarget {
    /// Span name of the layer serving this target's trains.
    fn layer(&self) -> &'static str;
    /// Engine tier the router picks for one train, for routed targets.
    fn train_tier(&self) -> Option<EngineTier>;
}

impl Layered for WlanLink {
    fn layer(&self) -> &'static str {
        "core.link"
    }
    fn train_tier(&self) -> Option<EngineTier> {
        Some(engine::train_tier(self.config()))
    }
}

impl Layered for WiredLink {
    fn layer(&self) -> &'static str {
        "queueing"
    }
    fn train_tier(&self) -> Option<EngineTier> {
        None
    }
}

impl Layered for GridTarget {
    fn layer(&self) -> &'static str {
        match self {
            GridTarget::Wired(l) => l.layer(),
            GridTarget::Wlan(l) => l.layer(),
        }
    }
    fn train_tier(&self) -> Option<EngineTier> {
        match self {
            GridTarget::Wired(l) => l.train_tier(),
            GridTarget::Wlan(l) => l.train_tier(),
        }
    }
}

/// Count `n` routing decisions for tier `tier`.
pub fn count_tier(tier: EngineTier, n: u64) {
    trace::count(
        match tier {
            EngineTier::Event => "core.engine.cells_event",
            EngineTier::Slotted => "core.engine.cells_slotted",
            EngineTier::Analytic => "core.engine.cells_analytic",
        },
        n,
    );
}

/// A [`ProbeTarget`] that records a layer span around every call.
pub struct Traced<'a, T: ?Sized>(pub &'a T);

impl<T: Layered + ?Sized> Traced<'_, T> {
    fn forward<R>(&self, trains: u64, f: impl FnOnce() -> R) -> R {
        let layer = self.0.layer();
        if let Some(tier) = self.0.train_tier() {
            count_tier(tier, trains);
        }
        trace::count(
            if layer == "queueing" {
                "queueing.trains"
            } else {
                "core.link.trains"
            },
            trains,
        );
        trace::span(layer, f)
    }
}

impl<T: Layered + ?Sized> ProbeTarget for Traced<'_, T> {
    fn probe_train(&self, train: ProbeTrain, seed: u64) -> TrainObservation {
        self.forward(1, || self.0.probe_train(train, seed))
    }

    fn probe_train_batch(&self, train: ProbeTrain, seeds: &[u64]) -> Vec<TrainObservation> {
        self.forward(seeds.len() as u64, || {
            self.0.probe_train_batch(train, seeds)
        })
    }

    fn probe_sequence(&self, offsets: &[Dur], bytes: u32, seed: u64) -> TrainObservation {
        self.forward(1, || self.0.probe_sequence(offsets, bytes, seed))
    }

    fn probe_bytes(&self) -> u32 {
        self.0.probe_bytes()
    }
}

/// Run one probing-tool estimate inside a `probe` span and count it;
/// `ok` says whether the tool produced an estimate.
pub fn tool_run<R>(f: impl FnOnce() -> R, ok: impl FnOnce(&R) -> bool) -> R {
    let out = trace::span("probe", f);
    trace::count("probe.tool_runs", 1);
    if !ok(&out) {
        trace::count("probe.failed_runs", 1);
    }
    out
}
