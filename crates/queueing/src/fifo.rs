//! Exact FIFO (single-server, work-conserving) service of a job trace
//! via the Lindley recursion.

use csmaprobe_desim::time::{Dur, Time};

/// A unit of work offered to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Arrival instant at the queue.
    pub arrival: Time,
    /// Service requirement (time the server is held once the job
    /// reaches the head).
    pub service: Dur,
}

impl Job {
    /// The Lindley step: serve this job on a server that is free from
    /// `free` on. It starts at `max(arrival, free)` and departs one
    /// service time later.
    #[inline]
    fn serve(self, free: Time) -> Served {
        let start = self.arrival.max(free);
        Served {
            arrival: self.arrival,
            start,
            depart: start + self.service,
        }
    }
}

/// A served job with its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Arrival instant.
    pub arrival: Time,
    /// Instant service began (head of queue reached AND server free).
    pub start: Time,
    /// Departure (service completion) instant.
    pub depart: Time,
}

impl Served {
    /// Time spent waiting before service.
    #[inline]
    pub fn wait(&self) -> Dur {
        self.start - self.arrival
    }

    /// Total sojourn time (wait + service).
    #[inline]
    pub fn sojourn(&self) -> Dur {
        self.depart - self.arrival
    }

    /// Service duration.
    #[inline]
    pub fn service(&self) -> Dur {
        self.depart - self.start
    }
}

/// Serve `jobs` (which must be sorted by arrival time) through a single
/// FIFO server. Pure Lindley recursion:
///
/// ```text
/// start_i  = max(arrival_i, depart_{i−1})
/// depart_i = start_i + service_i
/// ```
///
/// Panics if arrivals are out of order.
///
/// ```
/// use csmaprobe_queueing::fifo::{fifo_serve, Job};
/// use csmaprobe_desim::time::{Dur, Time};
///
/// let jobs = vec![
///     Job { arrival: Time::ZERO, service: Dur::from_micros(10) },
///     Job { arrival: Time::from_micros(4), service: Dur::from_micros(10) },
/// ];
/// let served = fifo_serve(&jobs);
/// assert_eq!(served[1].start, Time::from_micros(10)); // waited 6 µs
/// assert_eq!(served[1].wait(), Dur::from_micros(6));
/// ```
pub fn fifo_serve(jobs: &[Job]) -> Vec<Served> {
    let mut out = Vec::with_capacity(jobs.len());
    let mut server_free = Time::ZERO;
    let mut prev_arrival = Time::ZERO;
    for job in jobs {
        assert!(
            job.arrival >= prev_arrival,
            "fifo_serve requires time-ordered arrivals"
        );
        prev_arrival = job.arrival;
        let served = job.serve(server_free);
        server_free = served.depart;
        out.push(served);
    }
    out
}

/// Departures of probes arriving at the time-ordered `probes`, each
/// needing `service`, from a FIFO server they share with the
/// time-ordered `cross` jobs, in one pass over both.
///
/// A cross job is served only if it arrives strictly before the next
/// probe: one arriving at a probe's instant queues behind that probe,
/// and none is served after the last probe, since it cannot delay any
/// probe. `cross` is pulled at most one job past the last probe, so it
/// may be endless. `WiredLink` ends its Poisson stream at the last
/// probe anyway; that stream draws two gaps ahead of the job it yields.
///
/// Panics if `probes` decreases.
pub fn probe_departures(
    probes: &[Time],
    service: Dur,
    cross: impl IntoIterator<Item = Job>,
) -> Vec<Time> {
    assert!(
        probes.windows(2).all(|w| w[0] <= w[1]),
        "trace arrivals must be time-ordered"
    );
    let mut cross = cross.into_iter().peekable();
    let mut free = Time::ZERO;
    probes
        .iter()
        .map(|&arrival| {
            while let Some(job) = cross.next_if(|job| job.arrival < arrival) {
                free = job.serve(free).depart;
            }
            free = Job { arrival, service }.serve(free).depart;
            free
        })
        .collect()
}

/// The workload (virtual waiting time) found by each job **just before**
/// its own arrival: the total unfinished work of previously-arrived
/// jobs. This is `W(a_i^-)` of §5.1.4 when the trace holds only
/// cross-traffic, and the basis for the intrusion-residual recursion.
pub fn workload_at_arrivals(jobs: &[Job]) -> Vec<Dur> {
    let mut out = Vec::with_capacity(jobs.len());
    let mut w = Dur::ZERO; // unfinished work right after previous arrival
    let mut prev = Time::ZERO;
    for job in jobs {
        debug_assert!(job.arrival >= prev);
        let idle = job.arrival - prev;
        w = w.saturating_sub(idle);
        out.push(w);
        w += job.service;
        prev = job.arrival;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(a_us: u64, s_us: u64) -> Job {
        Job {
            arrival: Time::from_micros(a_us),
            service: Dur::from_micros(s_us),
        }
    }

    #[test]
    fn empty_trace() {
        assert!(fifo_serve(&[]).is_empty());
        assert!(workload_at_arrivals(&[]).is_empty());
    }

    #[test]
    fn isolated_jobs_start_immediately() {
        let served = fifo_serve(&[j(0, 10), j(100, 10)]);
        assert_eq!(served[0].start, Time::from_micros(0));
        assert_eq!(served[0].depart, Time::from_micros(10));
        assert_eq!(served[1].start, Time::from_micros(100));
        assert_eq!(served[1].wait(), Dur::ZERO);
    }

    #[test]
    fn back_to_back_jobs_queue_up() {
        let served = fifo_serve(&[j(0, 10), j(0, 10), j(0, 10)]);
        assert_eq!(served[0].depart, Time::from_micros(10));
        assert_eq!(served[1].start, Time::from_micros(10));
        assert_eq!(served[1].wait(), Dur::from_micros(10));
        assert_eq!(served[2].depart, Time::from_micros(30));
        assert_eq!(served[2].sojourn(), Dur::from_micros(30));
    }

    #[test]
    fn partial_overlap() {
        let served = fifo_serve(&[j(0, 10), j(5, 10), j(30, 5)]);
        assert_eq!(served[1].start, Time::from_micros(10));
        assert_eq!(served[1].depart, Time::from_micros(20));
        // Third job arrives after the busy period ends.
        assert_eq!(served[2].start, Time::from_micros(30));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_arrivals_panic() {
        fifo_serve(&[j(10, 1), j(5, 1)]);
    }

    #[test]
    fn cross_at_a_probe_instant_queues_behind_it() {
        let probe = [Time::from_micros(100)];
        let service = Dur::from_micros(10);
        // Same instant: the probe is served first.
        let tie = probe_departures(&probe, service, [j(100, 7)]);
        assert_eq!(tie, [Time::from_micros(110)]);
        // 1 ns earlier: the cross job is served ahead of the probe.
        let early = Job {
            arrival: Time::from_nanos(99_999),
            service: Dur::from_micros(7),
        };
        let ahead = probe_departures(&probe, service, [early]);
        assert_eq!(ahead, [Time::from_nanos(99_999 + 17_000)]);
    }

    #[test]
    fn workload_matches_waits() {
        // For a FIFO queue the wait of job i equals the workload it
        // finds at arrival (all earlier unfinished work).
        let jobs = vec![j(0, 10), j(3, 7), j(4, 2), j(50, 5), j(51, 1)];
        let served = fifo_serve(&jobs);
        let wl = workload_at_arrivals(&jobs);
        for (s, w) in served.iter().zip(&wl) {
            assert_eq!(s.wait(), *w);
        }
    }

    #[test]
    fn conservation_total_busy_time() {
        // Sum of service = total busy time = last departure minus idle.
        let jobs = vec![j(0, 5), j(2, 5), j(20, 5)];
        let served = fifo_serve(&jobs);
        let total_service: u64 = jobs.iter().map(|x| x.service.as_nanos()).sum();
        let busy: u64 = served.iter().map(|s| (s.depart - s.start).as_nanos()).sum();
        assert_eq!(total_service, busy);
        assert_eq!(served.last().unwrap().depart, Time::from_micros(25));
    }
}
