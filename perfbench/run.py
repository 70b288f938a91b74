#!/usr/bin/env python3
"""The csmaprobe benchmark: one command runs a workload at a seed, checks
the program's outputs, and prints every metric by name with its unit.

    python3 perfbench/run.py --workload transient|sweep|serve [--seed N]
        [--seconds S] [--trace 0|1] [--figure-seed N] [--out FILE]
    python3 perfbench/run.py --compare A.json B.json

Run it from the root of a source checkout; it builds the program there
(into $CARGO_TARGET_DIR, default .bench_build) and works in .bench_run/.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` times the entry points
users run; `--trace 1` makes one untraced pass plus a traced replay of
the same cells and reports per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

ROOT = Path.cwd()
RUN_DIR = ROOT / ".bench_run"

FIGURES = {
    "transient": ["fig06", "fig07", "fig08", "fig09", "fig10", "ablation_access", "ext_ofdm"],
    "sweep": ["fig01", "fig04", "fig13", "fig15", "fig16", "fig17", "bounds_check", "tool_bias",
              "grid_bias", "ext_impairments", "ext_burstiness", "tier_equivalence", "tier_speedup"],
}
WORKLOADS = ["transient", "sweep", "serve"]

FIGURE_WORKERS = 1     # CSMAPROBE_WORKERS of the figure workloads
MIN_FIGURE_REPS = 3    # all_figures runs per timed run, at least
SERVE_WORKERS = 2      # csmaprobe serve --workers
SERVE_CONNS = 2        # closed-loop connections, one session in flight each
SERVE_BATCH = 1024     # sessions per daemon; a multiple of the mix's 64 strata
MIN_SERVE_BATCHES = 2
POLL_US = 1000         # poll interval; a session runs ~18 ms on one core
SETUP_PROBES = 15      # start-ups per run timed for setup_s, stopped once ready
READY_TIMEOUT_S = 30   # spawn until ready
EXIT_TIMEOUT_S = 120   # end of output (or SIGTERM) until exit
# Seconds `perfbench calibrate` takes on the quiet reference host. Each
# repetition's timings are scaled by REF_CAL_S over the mean of the
# calibrations before and after it, so they read as seconds on that host
# at its quiet speed (see perfbench/replay/src/calibrate.rs).
REF_CAL_S = 0.1
TIMING_UNITS = {"wall_s": "s", "sessions_per_s": "1/s", "session_p50_ms": "ms", "session_p95_ms": "ms"}
ALL_CPUS = os.sched_getaffinity(0)  # the CPUs this process may use


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Build the program's two entry points and the helper; return paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        log("perfbench: run from the root of a csmaprobe checkout (no Cargo.toml/crates here)")
        sys.exit(2)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = {**os.environ, "CARGO_TARGET_DIR": str(target)}
    for cmd in (
        ["cargo", "build", "--release", "--workspace", "--bin", "all_figures", "--bin", "csmaprobe"],
        ["cargo", "build", "--release", "--manifest-path", "perfbench/replay/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            log(f"perfbench: build failed: {' '.join(cmd)}")
            sys.exit(1)
    rel = target / "release"
    return {name: str(rel / name) for name in ("all_figures", "csmaprobe", "perfbench")}


def source_ids():
    """(commit, parent): git hashes in a git checkout, else a digest of
    the sources and $PERFBENCH_PARENT."""
    def git(*args):
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit is None:
        h = hashlib.sha256()
        files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
        for d in ("crates", "src", "perfbench"):
            files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
        for p in files:
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
        commit = "tree-" + h.hexdigest()[:16]
    parent = git("rev-parse", "HEAD^") or os.environ.get("PERFBENCH_PARENT", "unknown")
    return commit, parent


# -------------------------------------------------------------- processes

def reap(proc, timeout=EXIT_TIMEOUT_S):
    """Wait for `proc`, killing it after `timeout` seconds; return (exit
    code, peak RSS in MB)."""
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.001)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def popen_apart(argv, **kw):
    """Popen `argv` on the last CPU and move this process to the others
    until `setup_median` restores it. A set-up probe times the child's
    first sign of life; sharing a CPU, the harness's wake-up could queue
    behind the busy child for whole scheduler slices, which added 1-3 ms
    to a 1 ms start-up. The child inherits the affinity at spawn."""
    cpus = sorted(ALL_CPUS)
    if len(cpus) < 2:
        return subprocess.Popen(argv, **kw)
    os.sched_setaffinity(0, {cpus[-1]})
    try:
        return subprocess.Popen(argv, **kw)
    finally:
        os.sched_setaffinity(0, set(cpus[:-1]))


def setup_median(probe):
    """Median of SETUP_PROBES start-ups, each `probe(popen_apart)`."""
    try:
        return statistics.median(probe(popen_apart) for _ in range(SETUP_PROBES))
    finally:
        os.sched_setaffinity(0, ALL_CPUS)


def run_figures_once(argv, cwd, env, stop_when_ready=False, popen=subprocess.Popen):
    """One all_figures process: wall and set-up time (spawn to its
    `running …` line, or to its exit if it never gets there), exit code,
    peak RSS."""
    t0 = time.perf_counter()
    with open(cwd / "stdout.txt", "wb") as out:
        proc = popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.PIPE)
    setup = None
    for raw in iter(proc.stderr.readline, b""):
        if setup is None and raw.startswith(b"running "):
            setup = time.perf_counter() - t0
            if stop_when_ready:
                proc.kill()
    proc.stderr.close()
    code, rss = reap(proc)
    wall = time.perf_counter() - t0
    return {"wall": wall, "setup": wall if setup is None else setup, "code": code, "rss": rss}


def start_daemon(bins, d, popen=subprocess.Popen):
    """Spawn `csmaprobe serve` in `d`; return (process, address, set-up
    time = spawn until the port file holds the bound address)."""
    port = d / "port"
    t0 = time.perf_counter()
    with open(d / "daemon.log", "wb") as logf:
        proc = popen(
            [bins["csmaprobe"], "serve", "--workers", str(SERVE_WORKERS), "--port-file", str(port),
             "--out-dir", str(d / "out"), "--table", str(d / "table.jsonl")],
            cwd=d, stdout=logf, stderr=logf)
    while True:
        text = port.read_text() if port.exists() else ""
        if text.endswith("\n"):
            return proc, text.strip(), time.perf_counter() - t0, t0
        if proc.poll() is not None or time.perf_counter() - t0 > READY_TIMEOUT_S:
            proc.kill()
            reap(proc)
            raise RuntimeError("csmaprobe serve did not start")
        time.sleep(0.0002)


def stop_daemon(proc):
    proc.send_signal(signal.SIGTERM)
    return reap(proc)


def scrape_metrics(addr):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as s:
        s.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        data = b""
        while chunk := s.recv(65536):
            data += chunk
    out = {}
    for line in data.decode().split("\r\n\r\n", 1)[-1].splitlines():
        name, _, value = line.partition(" ")
        if name.startswith("csmaprobe_"):
            out[name[len("csmaprobe_"):]] = float(value)
    return out


def helper(bins, *args):
    try:
        r = subprocess.run([bins["perfbench"], *map(str, args)], cwd=ROOT, capture_output=True,
                           text=True, env={**os.environ, "CSMAPROBE_WORKERS": "1"},
                           timeout=EXIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"perfbench {args[0]} timed out")
    if r.returncode != 0:
        raise RuntimeError(f"perfbench {args[0]} failed: {r.stderr.strip()}")
    return json.loads(r.stdout)


def calibrate(bins):
    """Seconds the reference kernel takes on this host right now: the
    mean of one run pinned to each CPU at once. Other tenants slow the
    CPUs unevenly, and the program's threads may run on any of them."""
    procs = []
    for cpu in sorted(ALL_CPUS):
        proc = subprocess.Popen([bins["perfbench"], "calibrate"], cwd=ROOT, stdout=subprocess.PIPE)
        try:
            os.sched_setaffinity(proc.pid, {cpu})
        except ProcessLookupError:
            pass
        procs.append(proc)
    outs = [proc.communicate(timeout=EXIT_TIMEOUT_S)[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        raise RuntimeError("perfbench calibrate failed")
    return statistics.mean(json.loads(out)["seconds"] for out in outs)


# -------------------------------------------------------- figure workloads

def figure_argv(bins, workload, fseed):
    return [bins["all_figures"], "--only", ",".join(FIGURES[workload]), "--scale", "1",
            "--jobs", "1", "--seed", str(fseed)]


def figure_env():
    return {**os.environ, "CSMAPROBE_WORKERS": str(FIGURE_WORKERS)}


def figure_outcome(rep, cwd):
    """(checks run, checks failed, payload digest or None) of one run."""
    payload = cwd / "experiments.json"
    if rep["code"] not in (0, 1) or not payload.is_file():
        return 0, 0, None
    text = payload.read_text()
    checks = [c for fig in json.loads(text) for c in fig["checks"]]
    return len(checks), sum(not c["passed"] for c in checks), bl.payload_digest(text)


def figure_timings(walls):
    """The timing metrics of a figure run from its repetitions' walls."""
    lat_ms = [w * 1e3 for w in walls]
    # Too few runs support a p95: report the highest percentile they do.
    p95, q = bl.highest_supported(lat_ms, 0.95)
    return {
        "wall_s": statistics.median(walls),
        "sessions_per_s": len(walls) / sum(walls),
        "session_p50_ms": bl.percentile(lat_ms, 0.5)[0],
        "session_p95_ms": p95,
    }, q


def figure_timed(bins, workload, fseed, seconds, rundir):
    argv, env = figure_argv(bins, workload, fseed), figure_env()
    reps, outcomes, cals = [], [], [calibrate(bins)]
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_FIGURE_REPS or time.perf_counter() < deadline:
        d = rundir / f"rep{len(reps)}"
        d.mkdir()
        reps.append(run_figures_once(argv, d, env))
        outcomes.append(figure_outcome(reps[-1], d))
        cals.append(calibrate(bins))
    probe_dir = rundir / "setup"
    probe_dir.mkdir()
    setup = setup_median(lambda popen: run_figures_once(
        argv, probe_dir, env, stop_when_ready=True, popen=popen)["setup"])
    cals.append(calibrate(bins))

    per_run = max(n for n, _, _ in outcomes) or 1
    digests = {dg for _, _, dg in outcomes}
    attempted = per_run * len(reps)
    failed = sum(f for _, f, _ in outcomes)
    broken = None in digests or len(digests) != 1 or any(n != per_run for n, _, _ in outcomes)
    if broken:
        log(f"perfbench: a run crashed or its payload differed between repetitions: {sorted(map(str, digests))}")
        failed = attempted
    walls = [r["wall"] for r in reps]
    # One factor per repetition, then one for the start-ups.
    speed = bl.speed_factors(cals, REF_CAL_S)
    timings, q = figure_timings([w * s for w, s in zip(walls, speed)])
    info = {
        "repetitions": len(reps),
        "figure_seed": fseed,
        "digest": None if broken else digests.pop(),
        "session_samples": f"{len(walls)} runs; session_p95_ms reads the {q:.2f} quantile",
        "repetition_walls_s": [round(w, 4) for w in walls],
        "speed_factors": [round(s, 4) for s in speed],
        "unscaled": {**figure_timings(walls)[0], "setup_s": setup},
    }
    metrics = {k: (v, TIMING_UNITS[k]) for k, v in timings.items()}
    metrics["setup_s"] = (setup * speed[-1], "s")
    metrics["peak_rss_mb"] = (statistics.median(r["rss"] for r in reps), "MB")
    return attempted, failed, metrics, info


def figure_traced(bins, workload, fseed, rundir):
    argv = figure_argv(bins, workload, fseed)
    d = rundir / "untraced"
    d.mkdir()
    rep = run_figures_once(argv, d, figure_env())
    n, failed, digest = figure_outcome(rep, d)
    t0 = time.perf_counter()
    rec = helper(bins, "replay", "--workload", workload, "--seed", fseed)
    replay_wall = time.perf_counter() - t0

    attempted = n + len(rec["replayed"])
    mismatched = []
    if digest is None:
        failed, attempted = attempted or 1, attempted or 1
    else:
        program = {f["id"]: f["rows"] for f in json.loads((d / "experiments.json").read_text())}
        mismatched = [f["id"] for f in rec["reports"] if f["rows"] != program.get(f["id"])]
        failed += len(mismatched)
    extra = {
        "service.overhead_ms": 0.0,
        "service.requests": 0, "service.request_errors": 0, "service.chunks": 0, "service.reps": 0,
        "trace.overhead_frac": (replay_wall - rep["wall"]) / rep["wall"],
    }
    info = {"figure_seed": fseed, "replayed": rec["replayed"], "mismatched": mismatched,
            "untraced_wall_s": rep["wall"], "traced_wall_s": replay_wall, "digest": digest}
    return attempted, failed, bl.layer_metrics(rec, extra), info


# ------------------------------------------------------------------ serve

def serve_batch(bins, seed, d, frames=False):
    """One daemon life: start, drive the batch of mix seed `seed`
    closed-loop, SIGTERM-drain. A daemon that does not start or drops
    the client yields a batch without `client`."""
    try:
        proc, addr, _, t0 = start_daemon(bins, d)
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return {"dir": d, "client": None}
    args = ["client", "--port-file", d / "port", "--seed", seed, "--sessions", SERVE_BATCH,
            "--conns", SERVE_CONNS, "--poll-us", POLL_US]
    if frames:
        args += ["--frames-out", d / "frames.txt"]
    try:
        client = helper(bins, *args)
        scraped = scrape_metrics(addr) if frames else {}
    except (RuntimeError, OSError) as e:
        log(f"perfbench: {e}")
        proc.kill()
        reap(proc)
        return {"dir": d, "client": None}
    code, rss = stop_daemon(proc)
    return {"dir": d, "wall": time.perf_counter() - t0,
            "code": code, "rss": rss, "client": client, "metrics": scraped}


def batch_failures(b, reference):
    """Failed sessions of a batch: refused, failed, cancelled or missing;
    all of them when the batch broke, the drain failed or the table
    differs from the one-shot reference."""
    c = b["client"]
    table = b["dir"] / "table.jsonl"
    if c is None or b["code"] != 0 or not table.is_file() or table.read_bytes() != reference:
        return SERVE_BATCH
    return c["refused"] + sum(v is None for v in c["latency_ms"])


def reference_table(bins, seed, d, threads):
    t0 = time.perf_counter()
    helper(bins, "oneshot", "--seed", seed, "--sessions", SERVE_BATCH, "--table", d / "reference.jsonl",
           "--threads", threads)
    return (d / "reference.jsonl").read_bytes(), time.perf_counter() - t0


def serve_timed(bins, seed, seconds, rundir):
    """Repeat one batch, each time on a fresh daemon, until `seconds` have
    passed; every drained table must equal the one-shot reference."""
    batches, cals = [], [calibrate(bins)]
    deadline = time.perf_counter() + seconds
    while len(batches) < MIN_SERVE_BATCHES or time.perf_counter() < deadline:
        d = rundir / f"batch{len(batches)}"
        d.mkdir()
        batches.append(serve_batch(bins, seed, d))
        cals.append(calibrate(bins))

    def probe(popen):
        d = rundir / f"setup{time.perf_counter_ns()}"
        d.mkdir()
        proc, _, setup, _ = start_daemon(bins, d, popen)
        stop_daemon(proc)
        return setup

    setup = setup_median(probe)
    cals.append(calibrate(bins))
    # One factor per batch, then one for the start-ups.
    speed = bl.speed_factors(cals, REF_CAL_S)
    for b, s in zip(batches, speed):
        b["speed"] = s
    # Correctness after timing, so the reference never competes for cores.
    reference, _ = reference_table(bins, seed, rundir, 2)
    failed = sum(batch_failures(b, reference) for b in batches)
    attempted = SERVE_BATCH * len(batches)
    batches = [b for b in batches if b["client"] is not None]
    timings, samples = serve_timings(batches, lambda b: b["speed"])
    info = {
        "batches": len(batches),
        "digest": hashlib.sha256(reference).hexdigest(),
        "session_samples": samples,
        "poll_interval_ms": POLL_US / 1e3,
        "repetition_walls_s": [round(b["wall"], 4) for b in batches],
        "speed_factors": [round(s, 4) for s in speed],
        "unscaled": {**serve_timings(batches, lambda b: 1.0)[0], "setup_s": setup},
    }
    metrics = {k: (v, TIMING_UNITS[k]) for k, v in timings.items()}
    metrics["setup_s"] = (setup * speed[-1], "s")
    metrics["peak_rss_mb"] = (statistics.median(b["rss"] for b in batches), "MB")
    return attempted, failed, metrics, info


def serve_timings(batches, speed):
    """The timing metrics of served batches, each batch's timings scaled
    by `speed(batch)`, and the sample count behind the p95."""
    lat = [v * speed(b) for b in batches for v in b["client"]["latency_ms"] if v is not None]
    p95 = bl.supported_percentile(lat, 0.95)
    if p95 is None:
        raise RuntimeError(f"{len(lat)} session latencies cannot support a p95")
    return {
        "wall_s": statistics.median(b["wall"] * speed(b) for b in batches),
        "sessions_per_s": len(lat) / sum(b["client"]["wall_s"] * speed(b) for b in batches),
        "session_p50_ms": bl.percentile(lat, 0.5)[0],
        "session_p95_ms": p95,
    }, f"{len(lat)} sessions, {bl.percentile(lat, 0.95)[1]} beyond p95"


def serve_traced(bins, seed, rundir):
    d = rundir / "batch0"
    d.mkdir()
    b = serve_batch(bins, seed, d, frames=True)
    if b["client"] is None:
        raise RuntimeError("the traced batch did not complete")
    reference, ref_wall = reference_table(bins, seed, d, 1)
    failed = batch_failures(b, reference)
    t0 = time.perf_counter()
    rec = helper(bins, "replay", "--workload", "serve", "--seed", seed, "--sessions", SERVE_BATCH,
                 "--frames", d / "frames.txt", "--scratch", d)
    replay_wall = time.perf_counter() - t0
    if rec["table"].encode() != reference:
        failed = SERVE_BATCH
    lat = b["client"]["latency_ms"]
    overhead = [l - c for l, c in zip(lat, rec["compute_ms"]) if l is not None]
    m = b["metrics"]
    extra = {
        "service.overhead_ms": statistics.median(overhead) if overhead else 0.0,
        "service.requests": int(m.get("requests_total", 0)),
        "service.request_errors": int(m.get("request_errors_total", 0)),
        "service.chunks": int(m.get("chunks_total", 0)),
        "service.reps": int(m.get("reps_total", 0)),
        "trace.overhead_frac": (replay_wall - ref_wall) / ref_wall,
    }
    info = {"untraced_wall_s": ref_wall, "traced_wall_s": replay_wall}
    return SERVE_BATCH, failed, bl.layer_metrics(rec, extra), info


# ------------------------------------------------------------------- main

def compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    why = bl.comparable(a["key"], b["key"])
    if why:
        log(f"perfbench: refusing to compare: {why}")
        sys.exit(3)
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        change = (vb - va) / va if va else float("nan")
        print(f"{name:32s} {va:14.6g} {vb:14.6g} {change:+8.2%}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--figure-seed", type=int, default=None,
                    help="run the figure workloads at this figure seed instead of the vetted one")
    ap.add_argument("--out", help="also write the full result record (with its run key) here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out records")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")

    bins = build()
    commit, parent = source_ids()
    workers = SERVE_WORKERS if args.workload == "serve" else FIGURE_WORKERS
    key = bl.run_key(args.workload, args.seed, workers, commit, parent)
    rundir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        if args.workload == "serve":
            run = serve_traced(bins, args.seed, rundir) if args.trace else \
                serve_timed(bins, args.seed, args.seconds, rundir)
        else:
            fseed = args.figure_seed if args.figure_seed is not None else bl.figure_seed(args.seed)
            run = figure_traced(bins, args.workload, fseed, rundir) if args.trace else \
                figure_timed(bins, args.workload, fseed, args.seconds, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    attempted, failed, metrics, info = run
    if args.trace:
        metrics = {k: (v, None) for k, v in metrics.items()}
    out = {k: {"value": v, "unit": u or bl.LAYER_UNITS[k]} for k, (v, u) in metrics.items()}

    print(f"run_key {json.dumps(key, sort_keys=True)}")
    for k, v in info.items():
        print(f"info {k} {json.dumps(v)}")
    for k, m in out.items():
        print(f"metric {k} {m['value']!r} {m['unit']}")
    print(f"fail_frac {failed / max(attempted, 1)!r} ({failed}/{attempted})")
    if args.out:
        Path(args.out).write_text(json.dumps({"key": key, "info": info, "attempted": attempted,
                                              "failed": failed, "metrics": out}, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
