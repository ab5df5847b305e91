#!/usr/bin/env python3
"""The cni benchmark: one command, four workloads.

    python3 cnibench/run.py --workload macro --seed 1 --seconds 25 --trace 0

Run it from the root of a cni checkout. The first run builds the cni
library, cnid and cnibench from the checkout's sources (CMake, Release)
into $CARGO_TARGET_DIR/cnibench, or .bench_build/cnibench when that is
unset. Each run measures for --seconds seconds, checks every
operation's simulated result against cnibench/expected.json and prints
one JSON object as its last stdout line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics, and writes the run's spans as Chrome trace-event JSON under
<build>/traces/. See cnibench/README.md for what each number means.

Developer flags: --size tiny runs a seconds-long pass of every workload
(the tests use it); --pin rewrites expected.json from the current tree.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ["macro", "dirmesh-sweep", "sharded-mesh", "modelcheck"]

# name -> unit. The names are BENCHMARK.json's; test_cnibench.py keeps
# the two in step.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "points_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "states_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

APPS = ["spsolve", "gauss", "em3d", "moldyn", "appbt"]

PER_LAYER = {
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.run_s": "s",
    "sim.windows": "count",
    "sim.barrier_posts": "count",
    "sim.stalled_windows": "count",
    "sim.events_per_window": "count",
    "sim.shard_imbalance": "ratio",
    "core.build_s": "s",
    "core.teardown_s": "s",
    "core.report_s": "s",
    "mem.loads": "count",
    "mem.stores": "count",
    "mem.load_hit_ratio": "ratio",
    "mem.store_hit_ratio": "ratio",
    "bus.txns": "count",
    "bus.snoop_supplies": "count",
    "bus.membus_occupied_cycles": "cycles",
    "coh.protocol_msgs": "count",
    "coh.home_requests": "count",
    "coh.fwds": "count",
    "coh.dir_recalls": "count",
    "coh.dir_evictions": "count",
    "coh.updates_sent": "count",
    "coh.useless_update_ratio": "ratio",
    "coh.remote_miss_latency_mean_cycles": "cycles",
    "net.injected": "count",
    "net.delivered": "count",
    "net.delivery_retries": "count",
    "net.retry_ratio": "ratio",
    "net.link_wait_cycles": "cycles",
    "net.retry_wait_cycles": "cycles",
    "ni.sends": "count",
    "ni.recvs": "count",
    "ni.recv_empty_polls": "count",
    "ni.poll_yield": "ratio",
    "ni.send_full": "count",
    "msg.user_sends": "count",
    "msg.dispatches": "count",
    "msg.send_cycles_mean": "cycles",
    "msg.poll_wait_cycles_mean": "cycles",
    **{f"apps.{a}.run_s": "s" for a in APPS},
    "sweep.submit_ms_p50": "ms",
    "sweep.results_poll_ms_p50": "ms",
    "sweep.polls_per_job": "count",
    "sweep.cache_hit_ratio": "ratio",
    "mc.states": "count",
    "mc.transitions": "count",
    "mc.host_us_per_transition": "us",
    "trace.overhead_frac": "ratio",
}


def log(msg):
    print(f"cnibench: {msg}", file=sys.stderr, flush=True)


def ncpu():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def quantile(values, q):
    """Linear-interpolated quantile (numpy's default)."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def ratio(a, b):
    return a / b if b else 0.0


# --- build ------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "cnibench")


def build():
    """Configure once, then (re)build; False if the tree cannot build."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(ncpu(), 8))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


# --- in-process workloads (cnibench) ------------------------------------------

# A setup of a few milliseconds or less takes up to twice as long in one
# process as in the next (heap and address-space layout), so workloads
# that time setup alone also sample it in this many other processes.
SETUP_PROCESSES = 10

# cnibench's SpeedProbe pass takes about this many seconds on the host
# the benchmark was written on, when that host runs fast. cnibench runs
# the probe after every operation (dirmesh-sweep, in its own process,
# after every batch of jobs), and host times are reported at this
# reference speed: scaled by it over the mean of the run's own probe
# passes. That takes out the drifts of a shared host's speed, which last
# from seconds to minutes and so move whole runs.
SPEED_REF_S = 0.0055
# When the shared host slows, cnibench's simulations slow more than the
# probe does: over runs of ten seeds and a five-minute side by side
# recording, log(time) moved 1.45 to 1.9 times as far as log(probe time)
# on macro, sharded-mesh and modelcheck (correlation 0.99). Their
# scaling factor is raised to this power. dirmesh-sweep's elapsed times
# moved 0.8 to 1.2 times as far, so its batches are scaled linearly.
SPEED_SENSITIVITY = 1.5

_BATCH_TIMES = ("wall_s", "setup_s", "run_s", "report_s", "teardown_s")
_BATCH_TIME_LISTS = ("op_latency_s", "op_run_s", "job_latency_s")


def scale_batch(b, f):
    for k in _BATCH_TIMES:
        b[k] *= f
    for k in _BATCH_TIME_LISTS:
        b[k] = [x * f for x in b[k]]
    b["app_run_s"] = {a: x * f for a, x in b["app_run_s"].items()}


def at_reference_speed(doc):
    """Scale a cnibench document's host times to the reference speed."""
    f = (SPEED_REF_S / statistics.mean(doc["speed_samples"])) \
        ** SPEED_SENSITIVITY
    doc["speed_factor"] = f
    doc["setup_samples"] = [x * f for x in doc["setup_samples"]]
    for b in doc["batches"]:
        scale_batch(b, f)
    return doc


def run_cnibench(args, trace_out):
    cmd = [os.path.join(build_dir(), "cnibench"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]

    def run(extra):
        p = subprocess.run(cmd + extra, stdout=subprocess.PIPE, text=True,
                           timeout=170)
        if p.returncode != 0:
            raise RuntimeError(f"cnibench exited with {p.returncode}")
        return at_reference_speed(json.loads(p.stdout.strip().splitlines()[-1]))

    doc = run((["--trace-out", trace_out] if trace_out else []) +
              (["--all-variants"] if args.pin else []))
    if doc["setup_samples"] and not args.trace and not args.pin:
        for _ in range(SETUP_PROCESSES):
            doc["setup_samples"] += run(["--setup-only"])["setup_samples"]
    return doc


# --- dirmesh-sweep: a closed-loop client of a live cnid ---------------------

# A job is one kind's grid at two point seeds; the next job of that
# kind shifts the seeds by one, so exactly half of every job is in
# cnid's result cache. Point seeds only enter the content key, so every
# point's result is pinnable independently of the workload seed, which
# picks the seed bases and the axis orders. The coverage grid is split
# by sharing degree so that all three kinds cost about the same.
_COVERAGE_FULL = {"nodes": "64", "net": "mesh", "mesh-dims": "8x8",
                  "coherence": "directory"}
_COVERAGE_TINY = {"nodes": "16", "net": "mesh", "mesh-dims": "4x4",
                  "coherence": "directory"}
SWEEP_GRIDS = {  # kind -> (runner workload, base, axes)
    "full": {
        "coverage-s1": ("coverage", {**_COVERAGE_FULL, "sharing": "1"},
                        [("dir-entries", ["0", "8"]),
                         ("dir-hops", ["3", "4"])]),
        "coverage-s3": ("coverage", {**_COVERAGE_FULL, "sharing": "3"},
                        [("dir-entries", ["0", "8"]),
                         ("dir-hops", ["3", "4"])]),
        "roundtrip": ("roundtrip",
                      {"nodes": "16", "net": "mesh", "mesh-dims": "4x4",
                       "rounds": "4"},
                      [("coherence", ["directory", "dragon", "hybrid"]),
                       ("ni", ["NI2w", "CNI4", "CNI16Qm"]),
                       ("bytes", ["8", "64"])]),
    },
    "tiny": {
        "coverage-s1": ("coverage", {**_COVERAGE_TINY, "sharing": "1"},
                        [("dir-entries", ["0", "8"])]),
        "coverage-s3": ("coverage", {**_COVERAGE_TINY, "sharing": "3"},
                        [("dir-entries", ["0", "8"])]),
        "roundtrip": ("roundtrip",
                      {"nodes": "4", "net": "mesh", "mesh-dims": "2x2",
                       "rounds": "2"},
                      [("coherence", ["directory", "dragon"]),
                       ("ni", ["NI2w", "CNI4"])]),
    },
}
# Job kinds in the order the client submits them.
SWEEP_CYCLE = ["coverage-s1", "coverage-s3", "roundtrip"]
SWEEP_BATCH_JOBS = {"full": 12, "tiny": 3}
# Jobs a full-size run times at least, so p90 has ten samples beyond it.
SWEEP_MIN_JOBS = {"full": 100, "tiny": 0}
# cnid keeps every job and caches results, so its memory grows with the
# jobs it has served; peak_rss_mb is read after this many timed jobs,
# whatever the host's speed.
RSS_AT_JOB = {"full": 100, "tiny": 3}
SETUP_REPEATS = 10  # extra cnid start-ups timed for setup_s
POLL_SLEEP_S = 0.002
# SpeedProbe passes after the warm-up and after every batch, which
# scale the batch between them; a batch takes about a second and a half.
SWEEP_SPEED_SAMPLES = 5


def sweep_spec(size, kind, seeds, rng):
    workload, base, axes = SWEEP_GRIDS[size][kind]
    out_axes = []
    for name, values in axes:
        values = list(values)
        rng.shuffle(values)
        out_axes.append({"name": name, "values": values})
    return {"workload": workload, "base": base, "axes": out_axes,
            "seeds": seeds}


class Cnid:
    """One cnid process on an ephemeral loopback port."""

    def __init__(self, workers):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.join(build_dir(), "cnid"), "--port", "0",
             "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        m = re.search(r":(\d+) \(", line)
        if not m:
            self.stop()
            raise RuntimeError(f"cnid did not start: {line!r}")
        self.port = int(m.group(1))
        while True:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    break
            except OSError:
                if self.proc.poll() is not None or \
                        time.perf_counter() - t0 > 30:
                    self.stop()
                    raise RuntimeError("cnid never answered /healthz")
                time.sleep(0.0005)
        self.setup_s = time.perf_counter() - t0

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class SpeedProbe:
    """A `cnibench speed-probe` process: SpeedProbe passes on demand."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [os.path.join(build_dir(), "cnibench"), "speed-probe"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self, n):
        out = []
        for _ in range(n):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            out.append(float(self.proc.stdout.readline()))
        return out

    def stop(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


_LINE_HEAD = re.compile(r'^\{"key":"[0-9a-f]{16}","workload":"([a-z]+)",'
                        r'"seed":(\d+),')


def point_digest(line):
    """(op id, digest, seed, status) of one NDJSON result line.

    The digest covers the line minus its content key, point seed and
    the machine report's "kernel" section.
    """
    m = _LINE_HEAD.match(line)
    if not m:
        return None
    body = '{"workload":"%s",' % m.group(1) + line[m.end():]
    at = body.find(',"kernel":{')
    if at >= 0:
        end = body.index("}", at + len(',"kernel":{')) + 1
        body = body[:at] + body[end:]
    p0 = body.find('"params":')
    params = body[p0 + 9:body.index("}", p0) + 1]
    status = re.search(r'"status":"(\w+)"', body).group(1)
    digest = hashlib.sha256(body.encode()).hexdigest()[:16]
    return f"{m.group(1)}/{params}", digest, int(m.group(2)), status


def first_int(line, key):
    at = line.find(key)
    if at < 0:
        return 0
    m = re.match(r"\d+", line[at + len(key):])
    return int(m.group(0)) if m else 0


def add_report_counts(counts, machine):
    stats = machine.get("stats", {})
    for k, v in stats.get("counters", {}).items():
        counts[f"stats.{k}"] = counts.get(f"stats.{k}", 0) + v
    for k, s in stats.get("scalars", {}).items():
        for f in ("sum", "count"):
            key = f"scalar.{k}.{f}"
            counts[key] = counts.get(key, 0) + s[f]
    rt = machine.get("runtime", {})
    counts["runtime.membus_occupied_cycles"] = (
        counts.get("runtime.membus_occupied_cycles", 0)
        + rt.get("membus_occupied_cycles", 0))
    counts["kernel.executed"] = (counts.get("kernel.executed", 0)
                                 + machine.get("kernel", {}).get("executed", 0))


def run_sweep(args, trace_out):
    """Drive cnid like cnibench drives a workload; same output shape."""
    rng = random.Random(args.seed)
    workers = max(1, ncpu() - 2)  # client + acceptor + workers <= nproc
    doc = {"workload": args.workload, "attempted": 0, "failed": 0,
           "failures": [], "ops": {}, "setup_samples": [], "batches": [],
           "counts": {}, "sweep": {"submit_ms": [], "poll_ms": [],
                                   "polls": [], "points": 0, "cached": 0}}
    spans = []

    def span(name, parent, run, h0, h1):
        spans.append({"name": name, "parent": parent, "run": run,
                      "h0": h0, "h1": h1})
        return len(spans) - 1

    def fail(op, why):
        doc["failed"] += 1
        if len(doc["failures"]) < 20:
            doc["failures"].append(f"{op}: {why}")

    for _ in range(SETUP_REPEATS):
        d = Cnid(workers)
        doc["setup_samples"].append(d.setup_s)
        d.stop()
    probe, cnid = SpeedProbe(), None
    try:
        cnid = Cnid(workers)
        doc["setup_samples"].append(cnid.setup_s)
        kinds = SWEEP_CYCLE
        bases = {k: rng.randrange(1, 1 << 40) for k in kinds}
        jobs_done = {k: 0 for k in kinds}

        def submit(kind, seeds, traced, run, parent):
            """Run one job to its last line; returns (latency, lines)."""
            body = json.dumps(sweep_spec(args.size, kind, seeds, rng))
            t0 = time.perf_counter()
            job_span = len(spans)
            if traced:
                span(f"job {kind}", parent, run, t0, 0)
            status, reply = cnid.request("POST", "/jobs", body.encode())
            t1 = time.perf_counter()
            if traced:
                span("POST /jobs", job_span, run, t0, t1)
                doc["sweep"]["submit_ms"].append((t1 - t0) * 1e3)
            if status != 200:
                doc["attempted"] += 1
                fail(f"job {kind}", f"HTTP {status}: {reply[:200]!r}")
                return t1 - t0, []
            info = json.loads(reply)
            lines, polls = [], 0
            while len(lines) < info["points"]:
                p0 = time.perf_counter()
                status, chunk = cnid.request(
                    "GET", f"/jobs/{info['id']}/results?from={len(lines)}")
                p1 = time.perf_counter()
                polls += 1
                if traced:
                    span("GET results", job_span, run, p0, p1)
                    doc["sweep"]["poll_ms"].append((p1 - p0) * 1e3)
                if status != 200:
                    doc["attempted"] += 1
                    fail(f"job {kind}", f"HTTP {status} polling results")
                    break
                new = [l for l in chunk.decode().split("\n") if l]
                lines += new
                if not new:
                    time.sleep(POLL_SLEEP_S)
            latency = time.perf_counter() - t0
            if traced:
                spans[job_span]["h1"] = t0 + latency
                doc["sweep"]["polls"].append(polls)
                doc["sweep"]["points"] += info["points"]
                doc["sweep"]["cached"] += info["cached"]
            return latency, lines

        def check(lines, fresh_seed, batch, counts):
            for line in lines:
                doc["attempted"] += 1
                parsed = point_digest(line)
                if parsed is None:
                    fail("line", "unparseable result line")
                    continue
                op, digest, seed, status = parsed
                entry = doc["ops"].setdefault(
                    op, {"digest": digest, "runs": 0, "failed_runs": 0})
                entry["runs"] += 1
                why = (f"status {status}" if status != "ok" else
                       "digest differs between repeats"
                       if entry["digest"] != digest else None)
                if why:
                    entry["failed_runs"] += 1
                    fail(op, why)
                if seed == fresh_seed:
                    batch["sim_cycles"] += first_int(line, '"now_cycles":')
                    batch["states"] += first_int(line, '"executed":')
                    if counts is not None:
                        add_report_counts(counts,
                                          json.loads(line)["machine"])

        # Warm-up: one single-seed job per kind, so the first timed job
        # already finds half its points cached.
        for kind in kinds:
            _, lines = submit(kind, [bases[kind]], False, -1, -1)
            check(lines, bases[kind], {"sim_cycles": 0, "states": 0}, None)
        passes = [probe.sample(SWEEP_SPEED_SAMPLES)]

        start = time.perf_counter()
        n_jobs = SWEEP_BATCH_JOBS[args.size]
        timed_jobs = 0
        for run in range(1 << 30):
            traced = bool(args.trace) and run % 2 == 1
            batch = {"traced": traced, "wall_s": 0.0, "setup_s": 0.0,
                     "run_s": 0.0, "report_s": 0.0, "teardown_s": 0.0,
                     "sim_cycles": 0, "states": 0, "ops": 0,
                     "op_latency_s": [], "op_run_s": [],
                     "job_latency_s": [], "app_run_s": {}}
            counts = doc["counts"] if traced and not doc["counts"] else None
            b0 = time.perf_counter()
            batch_span = span("batch", -1, run, b0, 0) if traced else -1
            for j in range(n_jobs):
                kind = SWEEP_CYCLE[j % len(SWEEP_CYCLE)]
                k = jobs_done[kind]
                jobs_done[kind] += 1
                seeds = [bases[kind] + k, bases[kind] + k + 1]
                latency, lines = submit(kind, seeds, traced, run, batch_span)
                batch["op_latency_s"].append(latency)
                batch["op_run_s"].append(latency)
                batch["job_latency_s"].append(latency)
                batch["ops"] += len(lines)
                check(lines, seeds[1], batch, counts)
                timed_jobs += 1
                if timed_jobs == RSS_AT_JOB[args.size]:
                    doc["peak_rss_mb"] = cnid.peak_rss_mb()
            batch["wall_s"] = batch["run_s"] = time.perf_counter() - b0
            if traced:
                spans[batch_span]["h1"] = b0 + batch["wall_s"]
            passes.append(probe.sample(SWEEP_SPEED_SAMPLES))
            doc["batches"].append(batch)
            elapsed = time.perf_counter() - start
            jobs = (run + 1) * n_jobs
            if args.pin or ((not args.trace or run >= 1)
                            and elapsed >= args.seconds
                            and jobs >= SWEEP_MIN_JOBS[args.size]):
                break
        doc.setdefault("peak_rss_mb", cnid.peak_rss_mb())  # --pin
    finally:
        if cnid:
            cnid.stop()
        probe.stop()
    # Each batch at the speed of the probe passes either side of it,
    # which bracket it in time; cnid's start-ups at the run's mean speed.
    f = SPEED_REF_S / statistics.mean(s for p in passes for s in p)
    doc["speed_factor"] = f
    doc["setup_samples"] = [x * f for x in doc["setup_samples"]]
    for b, before, after in zip(doc["batches"], passes, passes[1:]):
        scale_batch(b, SPEED_REF_S / statistics.mean(before + after))

    if args.trace:
        probe = [os.path.join(build_dir(), "cnibench"), "report-probe"]
        for kind in SWEEP_CYCLE:
            probe += ["--spec", json.dumps(
                sweep_spec(args.size, kind, [1], random.Random(0)))]
        p = subprocess.run(probe, stdout=subprocess.PIPE, text=True,
                           timeout=170, check=True)
        result = json.loads(p.stdout)
        doc["report_probe_s"] = result["report_s"]
        doc["attempted"] += len(result["report_s"])
        for point in result["mismatched"]:
            fail(f"report-probe {point}",
                 "timed report differs from the one cnid renders")
        if trace_out:
            write_chrome_trace(trace_out, spans)
    return doc


def write_chrome_trace(path, spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += (s["h1"] - s["h0"]) * 1e6
    events = []
    for i, s in enumerate(spans):
        dur = (s["h1"] - s["h0"]) * 1e6
        events.append({"name": s["name"], "cat": "cnibench", "ph": "X",
                       "pid": 1, "tid": 0, "ts": s["h0"] * 1e6, "dur": dur,
                       "args": {"span": i, "parent": s["parent"],
                                "run": s["run"], "sim_start": 0,
                                "sim_end": 0, "self_us": dur - child[i]}})
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


# --- metrics --------------------------------------------------------------------

def op_times(batches, field):
    """Each operation's mean time over the batches, which run the same
    operations in the same order.

    Host times are scaled to the reference speed by the mean of probe
    passes taken between the batches' operations, so they take the
    mean, which matches it.
    """
    return [statistics.mean(col) for col in zip(*(x[field] for x in batches))]


# setup_s pools many samples; their low decile shrugs off slow spells
# without riding on one lucky sample.
LOW_DECILE = 0.1


def end_to_end(doc):
    b = [x for x in doc["batches"] if not x["traced"]]
    wall = sum(op_times(b, "op_latency_s"))
    run_s = sum(op_times(b, "op_run_s"))
    if doc["workload"] == "dirmesh-sweep":
        # Pooled over the run's jobs: at least 100, so p90 has ten
        # samples beyond it.
        latency = [l for x in b for l in x["job_latency_s"]]
    else:
        latency = op_times(b, "job_latency_s")
    # Workloads with cheap setup time it alone, repeatedly, before the
    # first batch; the others set up once per batch.
    setups = doc["setup_samples"] or [x["setup_s"] for x in b]
    return {
        "wall_s": wall,
        "setup_s": quantile(setups, LOW_DECILE),
        "sim_cycles_per_s": ratio(
            statistics.median(x["sim_cycles"] for x in b), run_s),
        "points_per_s": ratio(statistics.median(x["ops"] for x in b), wall),
        "job_latency_p50_s": quantile(latency, 0.5),
        "job_latency_p90_s": quantile(latency, 0.9),
        "states_per_s": ratio(
            statistics.median(x["states"] for x in b), run_s),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def per_layer(doc):
    traced = [x for x in doc["batches"] if x["traced"]]
    untraced = [x for x in doc["batches"] if not x["traced"]]
    c = doc["counts"]

    def g(*keys):
        return float(sum(c.get(k, 0) for k in keys))

    def med(field):
        return statistics.median(x[field] for x in traced)

    run_s = med("run_s")
    events = g("kernel.executed")
    loads = g("stats.load_hits", "stats.load_misses")
    stores = g("stats.store_hits", "stats.store_misses")
    sw = doc.get("sweep", {})
    m = {
        "sim.events": events,
        "sim.host_ns_per_event": ratio(run_s * 1e9, events),
        "sim.run_s": run_s,
        "sim.windows": g("kernel.windows"),
        "sim.barrier_posts": g("kernel.barrier_posts"),
        "sim.stalled_windows": g("kernel.stalled_windows"),
        "sim.events_per_window": ratio(events, g("kernel.windows")),
        "sim.shard_imbalance": ratio(g("kernel.shard_imbalance"),
                                     g("kernel.sharded_machines")),
        "core.build_s": med("setup_s"),
        "core.teardown_s": med("teardown_s"),
        "core.report_s": (statistics.median(doc["report_probe_s"])
                          if "report_probe_s" in doc else med("report_s")),
        "mem.loads": loads,
        "mem.stores": stores,
        "mem.load_hit_ratio": ratio(g("stats.load_hits"), loads),
        "mem.store_hit_ratio": ratio(g("stats.store_hits"), stores),
        "bus.txns": g("stats.txns"),
        "bus.snoop_supplies": g("stats.snoop_supplies"),
        "bus.membus_occupied_cycles": g("runtime.membus_occupied_cycles"),
        "coh.protocol_msgs": g("stats.protocol_msgs"),
        "coh.home_requests": g("stats.home_requests"),
        "coh.fwds": g("stats.fwds"),
        "coh.dir_recalls": g("stats.dir_recalls"),
        "coh.dir_evictions": g("stats.dir_evictions"),
        "coh.updates_sent": g("stats.updates_sent"),
        "coh.useless_update_ratio": ratio(g("stats.useless_updates"),
                                          g("stats.updates_sent")),
        "coh.remote_miss_latency_mean_cycles": ratio(
            g("scalar.remote_miss_latency.sum"),
            g("scalar.remote_miss_latency.count")),
        "net.injected": g("stats.injected"),
        "net.delivered": g("stats.delivered"),
        "net.delivery_retries": g("stats.delivery_retries"),
        "net.retry_ratio": ratio(g("stats.delivery_retries"),
                                 g("stats.injected")),
        "net.link_wait_cycles": g("stats.link_wait_cycles"),
        "net.retry_wait_cycles": g("stats.retry_wait_cycles"),
        "ni.sends": g("stats.sends"),
        "ni.recvs": g("stats.recvs"),
        "ni.recv_empty_polls": g("stats.recv_empty_polls"),
        "ni.poll_yield": ratio(g("stats.recvs"),
                               g("stats.recvs", "stats.recv_empty_polls")),
        "ni.send_full": g("stats.send_full"),
        "msg.user_sends": g("stats.user_sends"),
        "msg.dispatches": g("stats.dispatches"),
        "msg.send_cycles_mean": ratio(g("msg.send_cycles_sum"),
                                      g("msg.send_count")),
        "msg.poll_wait_cycles_mean": ratio(g("msg.poll_cycles_sum"),
                                           g("msg.poll_count")),
        "sweep.submit_ms_p50": quantile(sw.get("submit_ms", []), 0.5),
        "sweep.results_poll_ms_p50": quantile(sw.get("poll_ms", []), 0.5),
        "sweep.polls_per_job": (statistics.mean(sw["polls"])
                                if sw.get("polls") else 0.0),
        "sweep.cache_hit_ratio": ratio(sw.get("cached", 0),
                                       sw.get("points", 0)),
        "mc.states": g("mc.states"),
        "mc.transitions": g("mc.transitions"),
        "mc.host_us_per_transition": ratio(run_s * 1e6,
                                           g("mc.transitions")),
        "trace.overhead_frac": ratio(
            statistics.median(x["wall_s"] for x in traced),
            statistics.median(x["wall_s"] for x in untraced)) - 1.0,
    }
    for a in APPS:
        m[f"apps.{a}.run_s"] = statistics.median(
            x["app_run_s"].get(a, 0.0) for x in traced)
    return m


# --- expectations -----------------------------------------------------------

def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def check_pins(doc, pins):
    """Fail every run of an op whose digest differs from its pin.

    Runs that already failed (bad status, digest changed between
    repeats) are counted once.
    """
    for op, entry in doc["ops"].items():
        want = pins.get(op)
        if want == entry["digest"]:
            continue
        doc["failed"] += entry["runs"] - entry["failed_runs"]
        why = "no pinned expectation" if want is None else \
            f"digest {entry['digest']} differs from pinned {want}"
        doc["failures"].append(f"{op}: {why}")


# Section 4.2 / 5.2 headline figures the macro cells reproduce.
PAPER_CNI16QM_GAIN_PCT = (17, 53)  # CNI16Qm/mem over NI2w/mem, per app
PAPER_CNI4_MEMBUS_REDUCTION_PCT = 23  # average over the five apps


def accuracy(ops):
    """Simulated-vs-paper gaps from the macro cells (paper inputs, v0)."""
    def cell(app, cfg):
        v0 = "/v0" if app in ("em3d", "spsolve") else ""
        return ops[f"macro/{app}/{cfg}/n16{v0}"]

    lo, hi = PAPER_CNI16QM_GAIN_PCT
    apps, reductions = {}, []
    for app in APPS:
        base = cell(app, "NI2w/mem")
        gain = 100 * (base["cycles"] / cell(app, "CNI16Qm/mem")["cycles"] - 1)
        red = 100 * (1 - cell(app, "CNI4/mem")["membus_cycles"]
                     / base["membus_cycles"])
        reductions.append(red)
        apps[app] = {
            "cni16qm_mem_gain_pct": round(gain, 1),
            "gain_gap_to_paper_range_pct": round(
                gain - hi if gain > hi else gain - lo if gain < lo else 0, 1),
            "cni4_membus_reduction_pct": round(red, 1),
        }
    avg = statistics.mean(reductions)
    return {
        "paper": {"cni16qm_mem_gain_pct": list(PAPER_CNI16QM_GAIN_PCT),
                  "cni4_membus_reduction_pct":
                      PAPER_CNI4_MEMBUS_REDUCTION_PCT},
        "apps": apps,
        "cni4_membus_reduction_avg_pct": round(avg, 1),
        "cni4_membus_reduction_gap_pct": round(
            avg - PAPER_CNI4_MEMBUS_REDUCTION_PCT, 1),
    }


def pin(args):
    """Record every op digest of every workload into expected.json."""
    try:
        expected = load_expected()
    except FileNotFoundError:
        expected = {}
    pins, cells = {}, {}
    for workload in WORKLOADS:
        for seed in (1, 2):  # the default seed and the held-out seed
            a = argparse.Namespace(**{**vars(args), "workload": workload,
                                      "seed": seed, "trace": 0,
                                      "seconds": 0.1})
            doc = measure(a, None)
            if doc["failed"]:
                log(f"{workload}: {doc['failures']}")
                return 1
            pins.update({op: e["digest"] for op, e in doc["ops"].items()})
            cells.update(doc["ops"])
    expected[args.size] = dict(sorted(pins.items()))
    if args.size == "full":
        expected["accuracy"] = accuracy(cells)
    expected["pinned_seeds"] = [1, 2]
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"pinned {len(pins)} {args.size} operations into {EXPECTED}")
    return 0


# --- main -------------------------------------------------------------------

def measure(args, trace_out):
    if args.workload == "dirmesh-sweep":
        doc = run_sweep(args, trace_out)
    else:
        doc = run_cnibench(args, trace_out)
    log(f"host times scaled by {doc['speed_factor']:.4f} to the "
        f"reference speed")
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--pin", action="store_true",
                    help="rewrite expected.json for --size")
    args = ap.parse_args()
    if not build():
        log("build failed")
        return 2
    if args.pin:
        return pin(args)
    if not args.workload:
        ap.error("--workload is required")

    pins = load_expected().get(args.size, {})
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
        trace_out = os.path.join(build_dir(), "traces",
                                 f"{args.workload}-seed{args.seed}.json")
    doc = measure(args, trace_out)
    check_pins(doc, pins)
    for f in doc["failures"]:
        log(f"FAILED {f}")
    if trace_out:
        log(f"trace written to {trace_out}")
    values = per_layer(doc) if args.trace else end_to_end(doc)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": doc["failed"] == 0 and doc["attempted"] > 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
