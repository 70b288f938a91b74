"""Pure helpers of the csmaprobe benchmark: percentiles with their
support rule, the experiments.json payload digest, run keys, and the
per-layer metric arithmetic. `run.py` does the process work; everything
here is a function of its arguments, so `test_benchlib.py` can pin it.
"""

import hashlib
import math
import os
import platform
import re

# Fields of experiments.json that legitimately vary between identical
# runs, stripped exactly as the CI determinism jobs strip them.
_ELAPSED = re.compile(r',"elapsed_s":[0-9.eE+-]+')
_WALLCLOCK = re.compile(r',"wallclock":\[(\[[^]]*\],?)*\]')

# Figure seeds at which the parent passes every qualitative check at
# scale 1; the workload seed picks one. The first is the figures'
# default seed 0xC5AA2009.
FIGURE_SEEDS = [
    0xC5AA2009, 0xC5AA200A, 0xC5AA200B, 0xC5AA200C, 0xC5AA200D,
    0xC5AA200E, 0xC5AA200F, 0xC5AA2010, 0xC5AA2012, 0xC5AA2013,
]

# Units of the per-layer metrics `--trace 1` prints.
LAYER_UNITS = {
    "mac.events": "count", "mac.collisions": "count", "mac.ns_per_event": "ns",
    "traffic.arrivals": "count", "traffic.ns_per_arrival": "ns",
    "stats.samples": "count", "stats.ns_per_sample": "ns",
    "core.transient.queue_ns_per_sample": "ns", "stats.ks_ms": "ms",
    "core.engine.cells_event": "count", "core.engine.cells_slotted": "count",
    "core.engine.cells_analytic": "count",
    "core.link.us_per_train": "us", "core.steady.us_per_cell": "us",
    "core.analytic.solves": "count", "core.analytic.us_per_solve": "us",
    "probe.tool_runs": "count", "probe.failed_runs": "count", "probe.us_per_tool_run": "us",
    "queueing.us_per_train": "us",
    "desim.chunks": "count", "desim.merge_us_per_chunk": "us", "desim.wait_frac": "share",
    "service.parse_us": "us", "service.compute_ms": "ms", "service.overhead_ms": "ms",
    "service.requests": "count", "service.request_errors": "count",
    "service.chunks": "count", "service.reps": "count",
    "bench.report_ms": "ms",
    "trace.overhead_frac": "share", "trace.unattributed_frac": "share",
}

# The fields two results must share before they may be compared.
KEY_FIELDS = ("workload", "scale", "seed", "workers", "host")


def figure_seed(seed):
    """The figure seed a workload seed runs at."""
    return FIGURE_SEEDS[seed % len(FIGURE_SEEDS)]


def payload_digest(text):
    """sha256 of an experiments.json payload without its timing fields."""
    stripped = _WALLCLOCK.sub("", _ELAPSED.sub("", text))
    return hashlib.sha256(stripped.encode()).hexdigest()


def percentile(values, p):
    """Nearest-rank `p` quantile of `values` and the number of samples
    above it."""
    xs = sorted(values)
    rank = max(1, math.ceil(p * len(xs)))
    return xs[rank - 1], len(xs) - rank


def supported_percentile(values, p, beyond=10):
    """`percentile`, or None unless at least `beyond` samples lie above
    it (a p95 needs 200 samples)."""
    if not values:
        return None
    value, above = percentile(values, p)
    return value if above >= beyond else None


def highest_supported(values, p, beyond=10):
    """The `p` quantile if the samples support it, else the highest
    nearest-rank quantile below `p` with `beyond` samples above it, else
    the median. Returns (value, quantile used)."""
    n = len(values)
    rank = min(math.ceil(p * n), n - beyond)
    if rank < math.ceil(0.5 * n):
        return percentile(values, 0.5)[0], 0.5
    return sorted(values)[rank - 1], min(p, rank / n)


def speed_factors(cal_seconds, ref_seconds):
    """Per repetition, `ref_seconds` over the mean of the two calibrations
    that bracket it (`cal_seconds` has one more entry than there are
    repetitions). A repetition's timings times its factor read as
    timings at the reference speed."""
    return [2 * ref_seconds / (a + b) for a, b in zip(cal_seconds, cal_seconds[1:])]


def host_fingerprint():
    """`<cores>x<arch>`, the format `bench::trend::host_fingerprint` uses."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return f"{cores}x{platform.machine()}"


def run_key(workload, seed, workers, commit, parent, scale=1):
    return {
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "workers": workers,
        "host": host_fingerprint(),
        "commit": commit,
        "parent": parent,
    }


def comparable(a, b):
    """Why two run keys may not be compared, or None if they may.

    They must agree on every field of KEY_FIELDS, and be runs of the same
    commit or of a commit and its parent."""
    for f in KEY_FIELDS:
        if a.get(f) != b.get(f):
            return f"{f} differs: {a.get(f)!r} vs {b.get(f)!r}"
    same = a["commit"] == b["commit"]
    lineage = a["commit"] == b.get("parent") or b["commit"] == a.get("parent")
    if not (same or lineage):
        return f"commits {a['commit']} and {b['commit']} are neither equal nor parent and child"
    return None


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(replay, extra=None):
    """Per-layer metrics from a `perfbench replay` record.

    Per-unit timings divide a layer's self time by the work counted at
    the same boundary; a layer the workload does not reach reads 0."""
    totals = replay["totals"]
    counts = replay["counts"]

    def self_ns(name):
        return totals.get(name, {}).get("self_ns", 0)

    def total_ns(name):
        return totals.get(name, {}).get("total_ns", 0)

    def n(name):
        return counts.get(name, 0)

    sessions = len(replay.get("compute_ms", []))
    m = {
        "mac.events": n("mac.events"),
        "mac.collisions": n("mac.collisions"),
        "mac.ns_per_event": ratio(self_ns("mac"), n("mac.events")),
        "traffic.arrivals": n("traffic.arrivals"),
        "traffic.ns_per_arrival": ratio(self_ns("traffic"), n("traffic.arrivals")),
        "stats.samples": n("stats.samples"),
        "stats.ns_per_sample": ratio(self_ns("stats.push"), n("stats.samples")),
        "core.transient.queue_ns_per_sample": ratio(
            self_ns("core.transient.queue"), n("core.transient.queue_samples")),
        "stats.ks_ms": self_ns("stats.ks") / 1e6,
        "core.engine.cells_event": n("core.engine.cells_event"),
        "core.engine.cells_slotted": n("core.engine.cells_slotted"),
        "core.engine.cells_analytic": n("core.engine.cells_analytic"),
        "core.link.us_per_train": ratio(self_ns("core.link") / 1e3, n("core.link.trains")),
        "core.steady.us_per_cell": ratio(self_ns("core.steady") / 1e3, n("core.steady.cells")),
        "core.analytic.solves": n("core.analytic.solves"),
        "core.analytic.us_per_solve": ratio(self_ns("core.analytic") / 1e3, n("core.analytic.solves")),
        "probe.tool_runs": n("probe.tool_runs"),
        "probe.failed_runs": n("probe.failed_runs"),
        "probe.us_per_tool_run": ratio(self_ns("probe") / 1e3, n("probe.tool_runs")),
        "queueing.us_per_train": ratio(self_ns("queueing") / 1e3, n("queueing.trains")),
        "desim.chunks": n("desim.chunks"),
        "desim.merge_us_per_chunk": ratio(total_ns("desim.merge") / 1e3, n("desim.chunks")),
        "desim.wait_frac": ratio(self_ns("desim.reduce"), total_ns("desim.reduce")),
        "service.parse_us": ratio(self_ns("service.parse") / 1e3, n("service.frames")),
        "service.compute_ms": ratio(total_ns("service.compute") / 1e6, sessions),
        "bench.report_ms": total_ns("bench.report") / 1e6,
        "trace.unattributed_frac": 1.0 - ratio(replay["attributed_ns"], replay["wall_ns"]),
    }
    m.update(extra or {})
    return m
