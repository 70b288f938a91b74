//! The DCF contention simulator.
//!
//! ## Model
//!
//! Time is continuous (integer nanoseconds) but contention is
//! slot-synchronised, as in Bianchi's model and NS2: after every busy
//! period the idle slot grid is anchored at `channel_free_at + DIFS`,
//! and a station's backoff counter positions its (potential)
//! transmission at `anchor + slots_left · slot`. Two stations whose
//! counters expire on the same grid point collide. A station that
//! starts contending in the middle of an idle period first observes
//! DIFS of idle medium and then joins the *same* grid (its start point
//! is rounded up to the next grid slot), which keeps the slot-level
//! vulnerability window of real DCF.
//!
//! ## Per-packet lifecycle
//!
//! ```text
//! arrival ──(queueing)──> head-of-queue ──(DIFS+backoff+retries)──> data on air
//!    │                        │ head_since                             │
//!    └─> PacketRecord.arrival └─> access delay μ starts            rx_end = data end
//!                                                       done = ACK end (μ ends)
//! ```
//!
//! ## Per-event costs
//!
//! Each station has one pending event: its next arrival while its
//! queue is empty, its next transmission while it is backlogged. One
//! scan over the stations finds the earliest of them, so a loop event
//! is an arrival to an empty queue (it arms contention) or a
//! transmission. An arrival to a backlogged queue arms nothing and
//! touches no channel state, so it is not an event: it joins its queue
//! when the station's arrivals are folded in — for every backlogged
//! station, through the instant `t` of each transmission, at the top of
//! that transmission's freeze pass, and, when the run reaches its
//! horizon, strictly before the horizon (a stop-rule exit needs no
//! flush: its last transmission folded every station through its
//! instant). A folded arrival still pulls its successor from the
//! station's own source and stream, and the fold runs before any draw
//! the transmission makes for that station (lost immediate access,
//! frame error, collision redraw, post-completion rearm), just as the
//! arrivals at or before `t` came first when each was an event. Each
//! station's draws therefore keep their order, and every record,
//! channel total and leftover queue is what one event per arrival gave.
//! At the paper's 1-Erlang probe about half the arrivals join a
//! backlogged queue.
//!
//! A station alone on the channel needs no scan at all. When the scan
//! finds exactly one contending station and its next transmission comes
//! strictly before both the earliest idle station's next arrival and
//! the horizon, an inner loop steps that station by itself: each pass
//! folds its arrivals through the transmission instant, transmits
//! (the same single-winner step the scan's loop calls: success, frame
//! error or drop, with the stop-rule count), frees the channel and
//! re-anchors the station, or, once its queue is empty, arms it on its
//! own next arrival through the same arming step an arrival event
//! takes. The loop exits when the station's next event (transmission or
//! own arrival) reaches the earliest idle arrival, which goes first on a
//! tie, as in the scan; when it reaches the horizon, where the scan's
//! loop does the horizon flush; or when the stop rule is met. Nothing
//! else contends, so there is nobody to freeze, no collision and no
//! other station's draw in between: the station makes exactly the
//! draws, in the same order, that one scan per event gave it, and the
//! other stations make none until the scan resumes. Single-contender
//! links spend most of their simulated time this way — the warm-up of
//! every replication, in which only the cross-traffic contends, and
//! the solo stretches of a probe train.
//!
//! The loop also keeps per-arrival and per-transmission work that is
//! not simulation off its path: each station holds its arrival
//! look-ahead as plain fields (no `Option` to reload) and memoises its
//! last data airtime, so the airtime's division runs about once per
//! station per replication.

use crate::options::MacOptions;
use csmaprobe_desim::rng::{derive_seed, SimRng};
use csmaprobe_desim::time::{Dur, Time};
use csmaprobe_phy::Phy;
use csmaprobe_traffic::{PacketArrival, Source};
use std::collections::VecDeque;

/// Thread-local recycling of per-replication simulation allocations.
///
/// Monte-Carlo replication builds and tears down a [`WlanSim`] per
/// replication; within one worker thread the transmission-queue deques
/// and packet-record vectors are identical in shape run after run, so
/// they are parked here instead of returned to the allocator. A run
/// reclaims its queues automatically; record buffers flow back when the
/// consumer calls [`SimOutput::recycle`] after extracting what it
/// needs. Purely an allocation cache — contents are always cleared, so
/// simulation results are unaffected.
mod pool {
    use super::PacketRecord;
    use csmaprobe_desim::time::Time;
    use std::cell::RefCell;
    use std::collections::VecDeque;

    /// Spare buffers kept per thread (beyond this, buffers drop).
    const MAX_SPARES: usize = 64;

    #[derive(Default)]
    struct Pool {
        queues: Vec<VecDeque<(Time, u32, u16)>>,
        records: Vec<Vec<PacketRecord>>,
        reuses: u64,
    }

    thread_local! {
        static POOL: RefCell<Pool> = RefCell::new(Pool::default());
    }

    pub(super) fn take_queue() -> VecDeque<(Time, u32, u16)> {
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            match p.queues.pop() {
                Some(q) => {
                    p.reuses += 1;
                    q
                }
                None => VecDeque::new(),
            }
        })
    }

    pub(super) fn give_queue(mut q: VecDeque<(Time, u32, u16)>) {
        q.clear();
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.queues.len() < MAX_SPARES {
                p.queues.push(q);
            }
        });
    }

    pub(super) fn take_records() -> Vec<PacketRecord> {
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            match p.records.pop() {
                Some(v) => {
                    p.reuses += 1;
                    v
                }
                None => Vec::new(),
            }
        })
    }

    pub(super) fn give_records(mut v: Vec<PacketRecord>) {
        v.clear();
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.records.len() < MAX_SPARES {
                p.records.push(v);
            }
        });
    }

    /// How many buffers this thread has reused so far (for tests and
    /// diagnostics).
    pub fn reuse_count() -> u64 {
        POOL.with(|p| p.borrow().reuses)
    }
}

/// Number of recycled simulation buffers this thread has reused (see
/// the module-internal pool; exposed for tests and diagnostics).
pub fn sim_pool_reuses() -> u64 {
    pool::reuse_count()
}

/// Identifier of a station inside one [`WlanSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StationId(pub usize);

/// Full schedule of one transmitted (or dropped) packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRecord {
    /// Arrival at the transmission queue.
    pub arrival: Time,
    /// Instant the packet reached the head of the queue and medium
    /// access began (the start of the paper's access delay μ).
    pub head: Time,
    /// End of the successful data frame on the air — the receiver-side
    /// timestamp used for dispersion measurements. For dropped packets
    /// this is the end of the last failed attempt.
    pub rx_end: Time,
    /// Completion: ACK fully received (successful) or drop declared.
    pub done: Time,
    /// Payload bytes.
    pub bytes: u32,
    /// Number of retransmission attempts (0 = first attempt succeeded).
    pub retries: u32,
    /// True when the retry limit was exceeded and the frame was lost.
    pub dropped: bool,
    /// Flow tag copied from the arrival (distinguishes probe packets
    /// from FIFO cross-traffic sharing the same queue).
    pub flow: u16,
}

impl PacketRecord {
    /// The paper's access delay μ: head-of-queue to complete
    /// transmission.
    #[inline]
    pub fn access_delay(&self) -> Dur {
        self.done - self.head
    }

    /// Total sojourn (arrival to completion) — `Z_i` of eq. (15).
    #[inline]
    pub fn sojourn(&self) -> Dur {
        self.done - self.arrival
    }
}

/// Per-station contention state.
struct Station {
    source: Box<dyn Source>,
    rng: SimRng,
    /// The source's next arrival, [`Time::MAX`] once it is spent (so a
    /// source that emitted an arrival at `Time::MAX` ends the run as
    /// one that stopped). Plain fields rather than an
    /// `Option<PacketArrival>`: the arrival scan compares `next.time`
    /// alone, and [`PacketArrival::pull`] stores what the source returns
    /// field by field, so no arrival pays a failed store-to-load
    /// forward.
    next: PacketArrival,
    /// The last payload size this station put on the air and its data
    /// airtime. Every path that needs a data airtime (success, frame
    /// error, collision, drop) reads it here, so the airtime's 64-bit
    /// division runs once per size change — about once per replication,
    /// as every source in the program sends one fixed size.
    airtime_memo: (u32, Dur),
    /// FIFO transmission queue: `(arrival, bytes, flow)`; the head is
    /// the packet currently contending.
    queue: VecDeque<(Time, u32, u16)>,
    /// When the current head reached the head of the queue.
    head_since: Time,
    /// Remaining backoff slots for the head packet.
    slots_left: u32,
    /// Grid-aligned instant this station's countdown (re)starts.
    count_start: Time,
    /// Whether the head packet currently has contention state armed.
    contending: bool,
    /// Backoff stage (contention window doublings so far).
    stage: u32,
    /// Retry count of the head packet.
    retries: u32,
    /// Completed packet records, in completion order.
    records: Vec<PacketRecord>,
}

impl Station {
    fn tx_time(&self, slot: Dur) -> Time {
        debug_assert!(self.contending);
        self.count_start + slot * self.slots_left as u64
    }

    /// `phy.data_airtime(bytes)`, through the station's memo.
    #[inline]
    fn data_airtime(&mut self, phy: &Phy, bytes: u32) -> Dur {
        if self.airtime_memo.0 != bytes {
            self.airtime_memo = (bytes, phy.data_airtime(bytes));
        }
        self.airtime_memo.1
    }

    /// Queue the look-ahead arrival and pull its successor from the
    /// station's source and stream; returns the queued arrival.
    #[inline]
    fn queue_next(&mut self) -> PacketArrival {
        let pkt = self.next;
        self.next.pull(self.source.as_mut(), &mut self.rng);
        debug_assert!(
            self.next.time >= pkt.time,
            "source emitted decreasing arrival times"
        );
        self.queue.push_back((pkt.time, pkt.bytes, pkt.flow));
        pkt
    }

    /// Queue every arrival strictly before `end`, in time order. Only
    /// for a backlogged station: such arrivals arm nothing.
    #[inline]
    fn queue_arrivals_before(&mut self, end: Time) {
        debug_assert!(self.contending);
        while self.next.time < end {
            self.queue_next();
        }
    }

    /// This station's next arrival finds its queue empty: queue it and
    /// arm contention for it.
    #[inline(always)]
    fn arm(&mut self, run: &Run) {
        let pkt = self.queue_next();
        self.head_since = pkt.time;
        self.stage = 0;
        self.retries = 0;
        self.contending = true;
        let anchor = run.free_at + run.difs;
        if pkt.time < run.free_at {
            // Medium busy: classic backoff, counted from the next idle
            // period.
            self.slots_left = self.rng.range_inclusive(0, run.cw0) as u32;
            self.count_start = anchor;
        } else {
            // Medium idle: immediate access after DIFS, quantised onto
            // the current idle grid (unless the ablation switch forces a
            // backoff draw).
            self.slots_left = if run.options.immediate_access {
                0
            } else {
                self.rng.range_inclusive(0, run.cw0) as u32
            };
            self.count_start = WlanSim::align_up(anchor, run.slot, pkt.time + run.difs);
        }
    }

    /// This station, station `id`, transmits at `t` with nobody
    /// colliding: a success, or (under frame-error injection) a
    /// corrupted frame that backs off for a retry or, past the retry
    /// limit, is dropped. Returns the instant the channel frees.
    #[inline(always)]
    fn transmit_alone(&mut self, id: usize, t: Time, phy: &Phy, run: &mut Run) -> Time {
        let fer = run.options.frame_error_rate;
        let failed = fer > 0.0 && self.rng.f64() < fer;
        let (arrival, bytes, flow) = *self.queue.front().expect("winner with empty queue");
        let preface = if run.options.uses_rts(bytes) {
            run.rts_preface
        } else {
            Dur::ZERO
        };
        let rx_end = t + preface + self.data_airtime(phy, bytes);
        let done = if failed {
            // ---- corrupted data frame: no ACK, BEB retry ----
            run.channel.frame_errors += 1;
            let fail_end = rx_end + run.ack_timeout;
            run.channel.error_time += fail_end - t;
            self.retries += 1;
            self.stage += 1;
            if self.retries <= run.retry_limit {
                let cw = phy.cw_at_stage(self.stage);
                self.slots_left = self.rng.range_inclusive(0, cw as u64) as u32;
                return fail_end;
            }
            fail_end
        } else {
            // ---- success ----
            let done = rx_end + run.sifs_ack;
            run.channel.success_time += done - t;
            done
        };
        self.records.push(PacketRecord {
            arrival,
            head: self.head_since,
            rx_end,
            done,
            bytes,
            retries: self.retries,
            dropped: failed,
            flow,
        });
        run.completed(id, flow, done);
        self.queue.pop_front();
        self.rearm_after_completion(run.cw0, done);
        done
    }

    /// Step this station, station `id`, while it is the only one
    /// contending. Its next transmission is due strictly before `bound`,
    /// the earliest next arrival of an idle station or the horizon,
    /// whichever comes first. Each pass folds in its arrivals through
    /// the transmission instant, transmits, frees the channel and
    /// re-anchors the station, or arms it on its own next arrival once
    /// its queue is empty. The loop returns when the stop rule is met or
    /// when the station's next event, transmission or arrival, is not
    /// before `bound`; an idle station's arrival at the same instant
    /// therefore goes first.
    #[inline(always)]
    fn step_alone(&mut self, id: usize, bound: Time, phy: &Phy, run: &mut Run) {
        loop {
            let t = self.tx_time(run.slot);
            debug_assert!(t < bound);
            self.queue_arrivals_before(t + Dur::from_nanos(1));
            let busy_end = self.transmit_alone(id, t, phy, run);
            run.free_at = busy_end;
            if run.stopped() {
                return;
            }
            if self.contending {
                self.count_start = busy_end + run.difs;
            } else if self.next.time < bound {
                self.arm(run);
            } else {
                return;
            }
            if self.tx_time(run.slot) >= bound {
                return;
            }
        }
    }

    /// After the head packet completes (success or drop): reset the
    /// contention window and arm the next head, if any, with a fresh
    /// post-transmission backoff drawn from `[0, cw0]` (the stage-0
    /// window).
    fn rearm_after_completion(&mut self, cw0: u64, done: Time) {
        self.stage = 0;
        self.retries = 0;
        if self.queue.is_empty() {
            self.contending = false;
        } else {
            self.head_since = done;
            self.slots_left = self.rng.range_inclusive(0, cw0) as u32;
            self.contending = true;
            // count_start is set by the caller's re-anchoring.
        }
    }
}

/// Early-termination rule: stop once a station has completed a number
/// of packets of one flow.
#[derive(Debug, Clone, Copy)]
struct StopRule {
    station: usize,
    flow: u16,
    remaining: usize,
}

/// One run's constants of the transmission step, and the channel state
/// and totals its transmissions advance.
struct Run {
    options: MacOptions,
    slot: Dur,
    difs: Dur,
    sifs_ack: Dur,
    ack_timeout: Dur,
    rts_preface: Dur,
    rts_airtime: Dur,
    retry_limit: u32,
    /// The stage-0 contention window.
    cw0: u64,
    /// When the current busy period ends (the idle grid's anchor is
    /// DIFS later).
    free_at: Time,
    /// Time of the last completed packet across all stations.
    last_done: Time,
    channel: ChannelStats,
    stop: Option<StopRule>,
}

impl Run {
    fn new(phy: &Phy, options: MacOptions, stop: Option<StopRule>) -> Self {
        Run {
            options,
            slot: phy.slot,
            difs: phy.difs(),
            sifs_ack: phy.sifs + phy.ack_airtime(),
            ack_timeout: phy.ack_timeout(),
            rts_preface: phy.rts_cts_preface(),
            rts_airtime: phy.rts_airtime(),
            retry_limit: phy.retry_limit,
            cw0: phy.cw_at_stage(0) as u64,
            free_at: Time::ZERO,
            last_done: Time::ZERO,
            channel: ChannelStats::default(),
            stop,
        }
    }

    /// Whether the stop rule's flow has fully completed.
    #[inline]
    fn stopped(&self) -> bool {
        self.stop.is_some_and(|s| s.remaining == 0)
    }

    /// Station `station` completed (delivered or dropped) a packet of
    /// `flow` at `done`.
    #[inline]
    fn completed(&mut self, station: usize, flow: u16, done: Time) {
        if let Some(s) = self.stop.as_mut() {
            if s.station == station && s.flow == flow {
                s.remaining = s.remaining.saturating_sub(1);
            }
        }
        self.last_done = self.last_done.max(done);
    }
}

/// One collision-domain WLAN simulation.
///
/// Build with [`WlanSim::new`], attach stations ([`WlanSim::add_station`]),
/// then [`WlanSim::run`]. Each station's RNG stream is derived from the
/// master seed and the station index, so results are a pure function of
/// `(phy, sources, seed)`.
pub struct WlanSim {
    phy: Phy,
    seed: u64,
    options: MacOptions,
    stations: Vec<Station>,
    stop_rule: Option<StopRule>,
}

/// Aggregate channel airtime accounting over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Airtime consumed by successful exchanges (data + SIFS + ACK,
    /// plus the RTS/CTS preface when used).
    pub success_time: Dur,
    /// Airtime wasted on collisions (longest frame + ACK timeout).
    pub collision_time: Dur,
    /// Airtime wasted on corrupted frames (frame-error injection).
    pub error_time: Dur,
    /// Number of collision events.
    pub collisions: u64,
    /// Number of corrupted-frame events.
    pub frame_errors: u64,
}

impl ChannelStats {
    /// Total busy airtime.
    pub fn busy_time(&self) -> Dur {
        self.success_time + self.collision_time + self.error_time
    }

    /// Fraction of `[0, until]` the channel was busy.
    pub fn utilisation(&self, until: Time) -> f64 {
        if until == Time::ZERO {
            return 0.0;
        }
        self.busy_time().as_secs_f64() / until.as_secs_f64()
    }
}

/// Everything a finished simulation produced.
pub struct SimOutput {
    /// Per-station completed packet records (completion order).
    station_records: Vec<Vec<PacketRecord>>,
    /// Arrival times of packets still queued when the run ended.
    unfinished: Vec<Vec<Time>>,
    /// Number of collision events on the channel.
    pub collisions: u64,
    /// Channel airtime accounting.
    pub channel: ChannelStats,
    /// Time of the last completed packet across all stations.
    pub last_done: Time,
}

impl WlanSim {
    /// A simulation over `phy` timing with the given master seed.
    pub fn new(phy: Phy, seed: u64) -> Self {
        WlanSim {
            phy,
            seed,
            options: MacOptions::default(),
            stations: Vec::new(),
            stop_rule: None,
        }
    }

    /// Stop the run as soon as `station` has completed (delivered or
    /// dropped) `count` packets of `flow` — everything before the stop
    /// instant is identical to an un-stopped run, so probing
    /// experiments skip the dead cross-traffic-only tail of their
    /// worst-case horizon.
    pub fn stop_after_flow(&mut self, station: StationId, flow: u16, count: usize) {
        self.stop_rule = Some(StopRule {
            station: station.0,
            flow,
            remaining: count,
        });
    }

    /// Override the MAC behaviour options (defaults to the paper's
    /// configuration).
    pub fn with_options(mut self, options: MacOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach a station fed by `source`. Returns its id; ids are dense
    /// indices in attach order.
    pub fn add_station(&mut self, source: Box<dyn Source>) -> StationId {
        let idx = self.stations.len();
        let rng = SimRng::new(derive_seed(self.seed, idx as u64 + 1));
        self.stations.push(Station {
            source,
            rng,
            // Both set when the run primes its look-ahead.
            next: PacketArrival::new(Time::MAX, 0),
            airtime_memo: (0, Dur::ZERO),
            queue: pool::take_queue(),
            head_since: Time::ZERO,
            slots_left: 0,
            count_start: Time::ZERO,
            contending: false,
            stage: 0,
            retries: 0,
            records: pool::take_records(),
        });
        StationId(idx)
    }

    /// Align `t` up to the idle-period slot grid anchored at `anchor`.
    fn align_up(anchor: Time, slot: Dur, t: Time) -> Time {
        if t <= anchor {
            return anchor;
        }
        let offset = t - anchor;
        anchor + slot * offset.div_ceil_dur(slot)
    }

    /// Run until `horizon` (exclusive) or until no event remains.
    pub fn run(mut self, horizon: Time) -> SimOutput {
        let mut run = Run::new(&self.phy, self.options, self.stop_rule);
        // The stations whose transmission is due at the earliest
        // candidate instant, in index order; one buffer for the run.
        let mut winners: Vec<usize> = Vec::with_capacity(self.stations.len());

        // Prime every station's arrival look-ahead, and its airtime memo
        // with the first arrival's size.
        for st in &mut self.stations {
            st.next.pull(st.source.as_mut(), &mut st.rng);
            st.airtime_memo = (st.next.bytes, self.phy.data_airtime(st.next.bytes));
        }

        loop {
            // Early termination: the watched flow has fully completed;
            // everything recorded so far is identical to an un-stopped
            // run, and the rest of the horizon is dead weight.
            if run.stopped() {
                break;
            }

            // Each station's one pending event: the next arrival of an
            // idle station, the next transmission of a backlogged one.
            // The earliest arrival, and the earliest candidate
            // transmission with every station due at it.
            let mut next_arr = Time::MAX;
            let mut arr_station = usize::MAX;
            let mut next_tx = Time::MAX;
            let mut contending = 0usize;
            winners.clear();
            for (i, st) in self.stations.iter().enumerate() {
                if st.contending {
                    contending += 1;
                    let t = st.tx_time(run.slot);
                    if t < next_tx {
                        next_tx = t;
                        winners.clear();
                    }
                    if t == next_tx {
                        winners.push(i);
                    }
                } else if st.next.time < next_arr {
                    next_arr = st.next.time;
                    arr_station = i;
                }
            }

            let next_event = next_arr.min(next_tx);
            if next_event == Time::MAX || next_event >= horizon {
                // Every arrival before the horizon counts as queued.
                for st in self.stations.iter_mut().filter(|st| st.contending) {
                    st.queue_arrivals_before(horizon);
                }
                break;
            }

            if next_arr <= next_tx {
                // ---- arrival to an empty queue: arm contention ----
                self.stations[arr_station].arm(&run);
                continue;
            }

            // ---- transmission(s) at next_tx ----
            debug_assert!(!winners.is_empty());
            if contending == 1 {
                // ---- a station alone on the channel ----
                let w = winners[0];
                self.stations[w].step_alone(w, next_arr.min(horizon), &self.phy, &mut run);
                continue;
            }
            let t = next_tx;

            // Queue each backlogged station's arrivals through `t` (ties
            // go to arrivals) before any of its draws below, then freeze
            // every contending station that does not transmit.
            let through = t + Dur::from_nanos(1);
            for st in &mut self.stations {
                if !st.contending {
                    continue;
                }
                st.queue_arrivals_before(through);
                if st.tx_time(run.slot) == t {
                    continue;
                }
                if st.count_start <= t {
                    let elapsed = (t - st.count_start).div_dur(run.slot) as u32;
                    debug_assert!(
                        st.slots_left > elapsed,
                        "non-winner should not have expired"
                    );
                    st.slots_left -= elapsed;
                } else if st.slots_left == 0 {
                    // Lost its immediate-access opportunity to this busy
                    // period: must back off like everyone else.
                    st.slots_left = st
                        .rng
                        .range_inclusive(0, self.phy.cw_at_stage(st.stage) as u64)
                        as u32;
                }
            }

            let busy_end = if let [w] = winners[..] {
                self.stations[w].transmit_alone(w, t, &self.phy, &mut run)
            } else {
                // ---- collision ----
                run.channel.collisions += 1;
                let mut max_frame = Dur::ZERO;
                for &i in &winners {
                    let st = &mut self.stations[i];
                    let (_, bytes, _) = *st.queue.front().unwrap();
                    let frame = if run.options.uses_rts(bytes) {
                        // RTS/CTS: only the short RTS collides.
                        run.rts_airtime
                    } else {
                        st.data_airtime(&self.phy, bytes)
                    };
                    max_frame = max_frame.max(frame);
                }
                // The channel is unusable for the longest frame plus the
                // ACK/CTS-timeout the colliders observe before resuming.
                let busy_end = t + max_frame + run.sifs_ack;
                run.channel.collision_time += busy_end - t;
                for &i in &winners {
                    let st = &mut self.stations[i];
                    st.retries += 1;
                    st.stage += 1;
                    if st.retries > run.retry_limit {
                        // Drop the frame.
                        let (arrival, bytes, flow) = *st.queue.front().unwrap();
                        let rx_end = t + st.data_airtime(&self.phy, bytes);
                        st.records.push(PacketRecord {
                            arrival,
                            head: st.head_since,
                            rx_end,
                            done: busy_end,
                            bytes,
                            retries: st.retries,
                            dropped: true,
                            flow,
                        });
                        run.completed(i, flow, busy_end);
                        st.queue.pop_front();
                        st.rearm_after_completion(run.cw0, busy_end);
                    } else {
                        let cw = self.phy.cw_at_stage(st.stage);
                        st.slots_left = st.rng.range_inclusive(0, cw as u64) as u32;
                    }
                }
                busy_end
            };

            run.free_at = busy_end;
            // Re-anchor every contending station on the new idle grid.
            let anchor = busy_end + run.difs;
            for st in &mut self.stations {
                if st.contending {
                    st.count_start = anchor;
                }
            }
        }

        // Teardown doubles as the reuse path: queue deques go straight
        // back to the thread-local pool, record buffers follow when the
        // consumer calls [`SimOutput::recycle`].
        let mut station_records = Vec::with_capacity(self.stations.len());
        let mut unfinished = Vec::with_capacity(self.stations.len());
        for st in &mut self.stations {
            station_records.push(std::mem::take(&mut st.records));
            unfinished.push(st.queue.iter().map(|&(a, _, _)| a).collect());
            pool::give_queue(std::mem::take(&mut st.queue));
        }

        SimOutput {
            station_records,
            unfinished,
            collisions: run.channel.collisions,
            channel: run.channel,
            last_done: run.last_done,
        }
    }
}

impl SimOutput {
    /// Completed packet records of a station, in completion order.
    pub fn records(&self, id: StationId) -> &[PacketRecord] {
        &self.station_records[id.0]
    }

    /// Records of one flow within a station (probe vs FIFO
    /// cross-traffic sharing the queue), in completion order.
    pub fn flow_records(&self, id: StationId, flow: u16) -> Vec<PacketRecord> {
        let recs = &self.station_records[id.0];
        // Count first, so the copy allocates once and never grows.
        let mut out = Vec::with_capacity(recs.iter().filter(|r| r.flow == flow).count());
        out.extend(recs.iter().filter(|r| r.flow == flow));
        out
    }

    /// Number of stations simulated.
    pub fn station_count(&self) -> usize {
        self.station_records.len()
    }

    /// Access-delay sequence μ_1..μ_n of a station's completed packets,
    /// in seconds.
    pub fn access_delays_s(&self, id: StationId) -> Vec<f64> {
        self.station_records[id.0]
            .iter()
            .map(|r| r.access_delay().as_secs_f64())
            .collect()
    }

    /// Delivered throughput of a station over `[0, until]`, counting
    /// frames whose data transmission completed by `until`.
    pub fn throughput_bps(&self, id: StationId, until: Time) -> f64 {
        let bits: u64 = self.station_records[id.0]
            .iter()
            .filter(|r| !r.dropped && r.rx_end <= until)
            .map(|r| r.bytes as u64 * 8)
            .sum();
        if until == Time::ZERO {
            return 0.0;
        }
        bits as f64 / until.as_secs_f64()
    }

    /// Queue length (packets in the station's transmission queue,
    /// including the head in contention/service) at time `t`.
    ///
    /// Reconstructed from arrivals and completions; `O(log n)`. For a
    /// whole ascending sequence of instants, [`SimOutput::queue_lens_at`]
    /// gives the same counts in one pass.
    pub fn queue_len_at(&self, id: StationId, t: Time) -> usize {
        let recs = &self.station_records[id.0];
        // Arrivals of completed packets are sorted (per-station FIFO);
        // records are in completion order so `done` is sorted too.
        let completed_arrived = recs.partition_point(|r| r.arrival <= t);
        let departed = recs.partition_point(|r| r.done <= t);
        let unfinished_arrived = self.unfinished[id.0].partition_point(|&a| a <= t);
        completed_arrived + unfinished_arrived - departed
    }

    /// [`SimOutput::queue_len_at`] at every instant of the ascending
    /// sequence `times`, by one merge walk: three cursors — over the
    /// completed packets' arrivals, their completions, and the
    /// unfinished packets' arrivals — only move forward, so the whole
    /// sequence costs `O(records + instants)` instead of three binary
    /// searches per instant.
    pub fn queue_lens_at<'a>(
        &'a self,
        id: StationId,
        times: impl IntoIterator<Item = Time> + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        let recs = &self.station_records[id.0];
        let unfinished = &self.unfinished[id.0];
        let (mut arrived, mut departed, mut pending) = (0, 0, 0);
        let mut prev = Time::ZERO;
        times.into_iter().map(move |t| {
            debug_assert!(t >= prev, "queue_lens_at: instants must ascend");
            prev = t;
            while arrived < recs.len() && recs[arrived].arrival <= t {
                arrived += 1;
            }
            while departed < recs.len() && recs[departed].done <= t {
                departed += 1;
            }
            while pending < unfinished.len() && unfinished[pending] <= t {
                pending += 1;
            }
            arrived + pending - departed
        })
    }

    /// Return this output's record buffers to the thread-local
    /// simulation pool so the next [`WlanSim`] on this worker reuses
    /// their allocations. Call after extracting everything needed; the
    /// buffers are cleared, never the data copied.
    pub fn recycle(mut self) {
        for v in self.station_records.drain(..) {
            pool::give_records(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measured_standalone_capacity_bps, saturated_source, standalone_cycle};
    use csmaprobe_traffic::{PoissonSource, SizeModel, TraceSource};

    fn phy() -> Phy {
        Phy::dsss_11mbps()
    }

    fn trace(times_us: &[u64], bytes: u32) -> Box<TraceSource> {
        Box::new(TraceSource::new(
            times_us
                .iter()
                .map(|&t| PacketArrival::new(Time::from_micros(t), bytes))
                .collect(),
        ))
    }

    #[test]
    fn lone_packet_gets_immediate_access() {
        let mut sim = WlanSim::new(phy(), 1);
        let st = sim.add_station(trace(&[1000], 1500));
        let out = sim.run(Time::MAX);
        let recs = out.records(st);
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        // Immediate access: DIFS (grid-aligned) + exchange; no backoff.
        // Arrival at 1000us, grid anchor 50us + k*20us, so tx at 1050us.
        let p = phy();
        let expected_tx = Time::from_micros(1050);
        assert_eq!(r.rx_end, expected_tx + p.data_airtime(1500));
        assert_eq!(r.done, r.rx_end + p.sifs + p.ack_airtime());
        assert_eq!(r.head, Time::from_micros(1000));
        assert_eq!(r.retries, 0);
        assert!(!r.dropped);
    }

    #[test]
    fn saturated_station_backoffs_every_frame() {
        let mut sim = WlanSim::new(phy(), 2);
        let st = sim.add_station(saturated_source(1500, 200));
        let out = sim.run(Time::MAX);
        let recs = out.records(st);
        assert_eq!(recs.len(), 200);
        let p = phy();
        let exchange = p.success_exchange(1500);
        // Every frame after the first: access delay = DIFS + b*slot + exchange
        // with b in [0, 31].
        let mut backoffs = Vec::new();
        for r in &recs[1..] {
            let overhead = r.access_delay() - exchange - p.difs();
            let slots = overhead.div_dur(p.slot);
            assert_eq!(overhead, p.slot * slots, "backoff must be whole slots");
            assert!(slots <= 31, "slots {slots} out of CWmin range");
            backoffs.push(slots);
        }
        // Mean backoff near 15.5 slots.
        let mean = backoffs.iter().sum::<u64>() as f64 / backoffs.len() as f64;
        assert!((mean - 15.5).abs() < 2.0, "mean backoff {mean}");
        // First frame: no backoff at all (immediate access).
        assert_eq!(recs[0].access_delay(), p.difs() + exchange);
    }

    #[test]
    fn fifo_order_and_headship() {
        // Three packets arriving while the first is in service: each
        // head_since equals the predecessor's completion.
        let mut sim = WlanSim::new(phy(), 3);
        let st = sim.add_station(trace(&[0, 10, 20], 1500));
        let out = sim.run(Time::MAX);
        let recs = out.records(st);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].head, Time::ZERO);
        assert_eq!(recs[1].head, recs[0].done);
        assert_eq!(recs[2].head, recs[1].done);
        // Departures strictly ordered.
        assert!(recs[0].done < recs[1].done && recs[1].done < recs[2].done);
        // Packet 2 queues through the service of 0 and 1.
        assert_eq!(
            recs[2].head - recs[2].arrival,
            recs[1].done - recs[2].arrival
        );
    }

    #[test]
    fn standalone_capacity_matches_analytic_cycle() {
        let p = phy();
        let measured = measured_standalone_capacity_bps(&p, 1500, 2000, 42);
        let analytic = 1500.0 * 8.0 / standalone_cycle(&p, 1500).as_secs_f64();
        let rel = (measured - analytic).abs() / analytic;
        assert!(
            rel < 0.02,
            "measured {measured:.0} vs analytic {analytic:.0} ({rel:.3})"
        );
        // And in the paper's ballpark (C ≈ 6.2-6.5 Mb/s).
        assert!((5.9e6..6.6e6).contains(&measured), "{measured}");
    }

    #[test]
    fn two_saturated_stations_share_fairly_and_collide() {
        let mut sim = WlanSim::new(phy(), 7);
        let a = sim.add_station(saturated_source(1500, 3000));
        let b = sim.add_station(saturated_source(1500, 3000));
        let out = sim.run(Time::MAX);
        let horizon = out
            .records(a)
            .last()
            .unwrap()
            .done
            .min(out.records(b).last().unwrap().done);
        let ta = out.throughput_bps(a, horizon);
        let tb = out.throughput_bps(b, horizon);
        // Fairness within 5%.
        let unfairness = (ta - tb).abs() / (ta + tb);
        assert!(unfairness < 0.05, "ta {ta} tb {tb}");
        // Aggregate slightly above stand-alone capacity (two contenders
        // waste less idle backoff; collisions still rare at n=2).
        let agg = ta + tb;
        assert!((5.9e6..6.8e6).contains(&agg), "aggregate {agg}");
        // Collisions do happen for two saturated stations.
        assert!(out.collisions > 0);
        // Collision probability per attempt should be near Bianchi's
        // p = 1-(1-tau)^(n-1); for n=2, W=32, m=5: p ≈ 0.06. Count
        // retries as a proxy.
        let retries: u32 = out.records(a).iter().map(|r| r.retries).sum();
        let p_est = retries as f64 / out.records(a).len() as f64;
        assert!((0.02..0.14).contains(&p_est), "collision rate {p_est}");
    }

    #[test]
    fn unsaturated_station_gets_its_offered_rate() {
        let p = phy();
        let horizon = Time::from_secs_f64(30.0);
        let mut sim = WlanSim::new(p, 11);
        let st = sim.add_station(Box::new(PoissonSource::from_bitrate(
            2_000_000.0,
            SizeModel::Fixed(1500),
            Time::ZERO,
            horizon,
        )));
        let out = sim.run(Time::MAX);
        let tput = out.throughput_bps(st, horizon);
        assert!(
            (tput - 2_000_000.0).abs() / 2_000_000.0 < 0.03,
            "throughput {tput}"
        );
    }

    #[test]
    fn contention_slows_access_delay() {
        // Station A saturated alone vs saturated against a contender:
        // mean access delay must grow.
        let solo = {
            let mut sim = WlanSim::new(phy(), 13);
            let st = sim.add_station(saturated_source(1500, 500));
            let out = sim.run(Time::MAX);
            let d = out.access_delays_s(st);
            d.iter().sum::<f64>() / d.len() as f64
        };
        let contested = {
            let mut sim = WlanSim::new(phy(), 13);
            let st = sim.add_station(saturated_source(1500, 500));
            let _other = sim.add_station(saturated_source(1500, 500));
            let out = sim.run(Time::MAX);
            let d = out.access_delays_s(st);
            d.iter().sum::<f64>() / d.len() as f64
        };
        assert!(
            contested > solo * 1.5,
            "solo {solo:.6} contested {contested:.6}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = WlanSim::new(phy(), seed);
            let a = sim.add_station(saturated_source(1500, 300));
            let _b = sim.add_station(saturated_source(1000, 300));
            let out = sim.run(Time::MAX);
            out.records(a).to_vec()
        };
        let r1 = run(99);
        let r2 = run(99);
        assert_eq!(r1, r2);
        let r3 = run(100);
        assert_ne!(r1, r3);
    }

    #[test]
    fn queue_len_reconstruction() {
        let mut sim = WlanSim::new(phy(), 17);
        let st = sim.add_station(trace(&[5, 10, 20, 30], 1500));
        let out = sim.run(Time::MAX);
        // Before anything arrives: empty.
        assert_eq!(out.queue_len_at(st, Time::from_micros(4)), 0);
        // An arrival counts from its own instant on.
        assert_eq!(out.queue_len_at(st, Time::from_micros(5)), 1);
        // All four arrive before the first completes (~1.6ms).
        assert_eq!(out.queue_len_at(st, Time::from_micros(35)), 4);
        let recs = out.records(st);
        // Just after the first completion: 3 left.
        assert_eq!(out.queue_len_at(st, recs[0].done), 3);
        // After the last completion: empty.
        assert_eq!(out.queue_len_at(st, recs[3].done), 0);
        // The merge walk agrees at every one of those instants.
        let at = [
            Time::from_micros(4),
            Time::from_micros(5),
            Time::from_micros(35),
            recs[0].done,
            recs[3].done,
        ];
        let walked: Vec<usize> = out.queue_lens_at(st, at).collect();
        assert_eq!(walked, [0, 1, 4, 3, 0]);
    }

    #[test]
    fn horizon_cuts_the_run() {
        let mut sim = WlanSim::new(phy(), 19);
        let st = sim.add_station(saturated_source(1500, 100_000));
        let horizon = Time::from_secs_f64(0.5);
        let out = sim.run(horizon);
        let recs = out.records(st);
        assert!(!recs.is_empty());
        assert!(recs.len() < 100_000);
        // ~0.5s / ~1.93ms per frame ≈ 259 frames.
        assert!((200..320).contains(&recs.len()), "{}", recs.len());
    }

    #[test]
    fn different_frame_sizes_coexist() {
        let mut sim = WlanSim::new(phy(), 29);
        let small = sim.add_station(saturated_source(40, 2000));
        let big = sim.add_station(saturated_source(1500, 2000));
        let out = sim.run(Time::MAX);
        let horizon = out
            .records(small)
            .last()
            .unwrap()
            .done
            .min(out.records(big).last().unwrap().done);
        let ts = out.throughput_bps(small, horizon);
        let tb = out.throughput_bps(big, horizon);
        // DCF is per-frame fair, so byte throughput favours big frames.
        assert!(tb > 5.0 * ts, "small {ts} big {tb}");
    }

    #[test]
    fn early_stop_preserves_watched_flow_records() {
        // A probe-like trace against a long-lived cross source: stopping
        // when the trace completes must leave the trace's records
        // bit-identical to the full-horizon run.
        let horizon = Time::from_secs_f64(20.0);
        let build = |stop: bool| {
            let mut sim = WlanSim::new(phy(), 4242);
            let probe = sim.add_station(trace(&[1000, 3000, 5000, 7000, 9000], 1500));
            let _cross = sim.add_station(Box::new(PoissonSource::from_bitrate(
                2_000_000.0,
                SizeModel::Fixed(1500),
                Time::ZERO,
                horizon,
            )));
            if stop {
                sim.stop_after_flow(probe, 0, 5);
            }
            let out = sim.run(horizon);
            (out.records(probe).to_vec(), out.last_done)
        };
        let (full, _) = build(false);
        let (stopped, stopped_last) = build(true);
        assert_eq!(full, stopped);
        // And the stopped run really ended early: nothing after the
        // probe's completion was simulated.
        assert_eq!(stopped_last, stopped.last().unwrap().done);
    }

    #[test]
    fn early_stop_counts_drops_too() {
        // Saturated colliding stations with a tiny retry budget drop
        // frames; the stop rule must count those completions as well
        // and terminate.
        let mut p = phy();
        p.retry_limit = 0;
        let mut sim = WlanSim::new(p, 77);
        let a = sim.add_station(saturated_source(1500, 50));
        let _b = sim.add_station(saturated_source(1500, 50));
        sim.stop_after_flow(a, 0, 10);
        let out = sim.run(Time::MAX);
        assert_eq!(out.records(a).len(), 10);
    }

    #[test]
    fn pool_reuses_buffers_across_runs() {
        let run_once = || {
            let mut sim = WlanSim::new(phy(), 5);
            let st = sim.add_station(trace(&[0, 10, 20], 1500));
            let out = sim.run(Time::MAX);
            assert_eq!(out.records(st).len(), 3);
            out.recycle();
        };
        run_once(); // seeds the pool (queue recycled at teardown)
        let before = sim_pool_reuses();
        run_once(); // must draw both queue and records from the pool
        let after = sim_pool_reuses();
        assert!(
            after >= before + 2,
            "expected ≥2 buffer reuses, got {}",
            after - before
        );
    }

    #[test]
    fn recycled_runs_stay_deterministic() {
        let run_once = || {
            let mut sim = WlanSim::new(phy(), 99);
            let a = sim.add_station(saturated_source(1500, 200));
            let _b = sim.add_station(saturated_source(1000, 200));
            let out = sim.run(Time::MAX);
            let recs = out.records(a).to_vec();
            out.recycle();
            recs
        };
        let r1 = run_once();
        let r2 = run_once();
        assert_eq!(r1, r2);
    }

    #[test]
    fn collision_resolution_eventually_delivers() {
        // Two stations with identical deterministic arrival patterns;
        // they will collide sometimes but everything must be delivered.
        let mut sim = WlanSim::new(phy(), 31);
        let n = 500;
        let a = sim.add_station(saturated_source(1500, n));
        let b = sim.add_station(saturated_source(1500, n));
        let out = sim.run(Time::MAX);
        let delivered = |id| out.records(id).iter().filter(|r| !r.dropped).count();
        // Retry limit 7 with CWmax 1023 makes drops essentially
        // impossible for 2 stations.
        assert_eq!(delivered(a), n);
        assert_eq!(delivered(b), n);
    }
}
