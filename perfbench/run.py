#!/usr/bin/env python3
"""gpx end-to-end benchmark: FASTQ in, SAM out, through gpx_map and gpx_serve.

Usage (from the repository root):

    python3 perfbench/run.py --workload map_lowerr_gz --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                  # every workload, trace off
    python3 perfbench/run.py --trace 1        # every workload, traced

The benchmark builds the tools from source into .bench_build/, derives
the reference, the reads and the v2 index from --seed (cached per
workload and seed), and drives the installed tools as a user would.

--trace 0 measures the end-to-end metrics with tracing off: repeated
gpx_map jobs on map workloads; on serve_128 a closed-loop gpx_serve pass
whose rate the server sets (pairs_per_s), then an open-loop pass at the
fixed offered rate (request latencies, printed but not bounded).
--trace 1 makes one traced single-process run with gpxbench, which
times the calls into each module's public functions, checks that its
SAM is byte-identical to gpx_map's, and reports the per-layer metrics;
its gpx_serve session gives the serve.* and loadgen.* metrics (every
workload reports every per-layer metric, so map workloads run one too,
at their own offered rate).

Every run is gated: exit codes 0, SAM record count equal to twice the
pairs, and gpx_mapeval accuracy at or above the workload's floor in
perfbench/config.json. A run that fails the gate reports no timing and
exits non-zero. The last line of standard output is the result JSON.
"""

import argparse
import gzip
import hashlib
import json
import math
import os
import random
import re
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
TARGETS = ["gpx_simulate", "gpx_index", "gpx_map", "gpx_mapeval",
           "gpx_serve", "gpxbench"]

with open(os.path.join(HERE, "config.json")) as _f:
    CONFIG = json.load(_f)

# gpx-serve-proto HELLO (src/serve/protocol.hh).
PROTO_MAGIC = 0x50585047
PROTO_VERSION = 2
FRAME_HELLO_REQUEST = 0x01
FRAME_HELLO_REPLY = 0x02
FRAME_SHUTDOWN_REQUEST = 0x30
FRAME_SHUTDOWN_REPLY = 0x31

# A percentile is reported only when at least this many samples lie
# beyond it; otherwise the next lower one on the ladder is reported.
MIN_BEYOND = 10
PERCENTILE_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

SERVE_CONNECTIONS = 4
PAIRS_PER_REQUEST = 128
# Open-loop requests per latency pass: enough for a supported p99.
LATENCY_REQUESTS = 1000
# A fresh gpx_serve warms up under closed-loop load; not measured.
SERVE_WARMUP_S = 2.0
# setup_s is the median of this many set-ups.
SETUP_REPEATS = 7
# pairs_per_s of a map workload is the median of at least this many jobs.
MIN_JOBS = 3
# Each data set takes a few hundred MB: keep only the most recent few.
CACHED_DATA_SETS = 3
# Layer self times must cover the traced wall time within this share.
TRACE_RECONCILE_TOLERANCE = 0.05


class GateError(Exception):
    """A correctness gate failed; the run reports no timing."""


# ---------------------------------------------------------------------
# Pure helpers (covered by perfbench/test_run.py).

def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile: (value, samples strictly beyond it)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def supported_percentile(values, pct):
    """Highest percentile <= pct with MIN_BEYOND samples beyond it.

    Failed requests enter as math.inf, so they count as over any limit.
    Returns (percentile, value) or None when even the median is
    unsupported.
    """
    ordered = sorted(values)
    for p in PERCENTILE_LADDER:
        if p > pct or not ordered:
            continue
        value, beyond = nearest_rank(ordered, p)
        if beyond >= MIN_BEYOND:
            return p, value
    return None


def percentile_name(prefix, pct, suffix):
    """req + 99.0 + ms -> req_p99_ms."""
    return "%s_p%g_%s" % (prefix, pct, suffix)


def open_loop_schedule(seed, rate, count):
    """Poisson arrivals: due offsets in microseconds, fixed by the seed.

    The arrivals of a Poisson process, given that count of them fall in
    [0, count / rate), are exponential gaps rescaled to that interval;
    so the offered rate is exact and only the burstiness varies by seed.
    """
    rng = random.Random("gpx-perfbench-arrivals-%d" % seed)
    gaps = [rng.expovariate(1.0) for _ in range(count + 1)]
    scale = count / rate / sum(gaps)
    due, t = [], 0.0
    for gap in gaps[:count]:
        due.append(int(t * scale * 1e6))
        t += gap
    return due


def request_latencies_ms(records):
    """Latency of each request from its due time; failures are inf."""
    return [(r["reply_ns"] - r["due_ns"]) / 1e6 if r["ok"] else math.inf
            for r in records]


def closed_loop_rate(records, warmup_s):
    """Pairs per second of the replies after the warm-up.

    The window runs from the end of the warm-up to the last reply, so
    the server, not the schedule, sets the rate.
    """
    start_ns = warmup_s * 1e9
    after = [r for r in records if r["ok"] and r["reply_ns"] > start_ns]
    if not after:
        raise GateError("no reply after the closed-loop warm-up")
    end_ns = max(r["reply_ns"] for r in after)
    return sum(r["pairs"] for r in after) / ((end_ns - start_ns) / 1e9)


def metric_line(workload, name, value, unit):
    """One human-readable metric line: workload, name, value, unit."""
    return "%s %s = %r %s" % (workload, name, value, unit)


def result_line(correct, attempted, failed, metrics):
    """The result JSON; metrics maps name -> (value, unit)."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


# ---------------------------------------------------------------------
# Build, data and processes.

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def tool(name):
    if name == "gpxbench":
        return os.path.join(CMAKE_DIR, "gpxbench")
    return os.path.join(CMAKE_DIR, "gpx", "tools", name)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("error: the gpx sources (CMakeLists.txt, src/) are not next "
            "to perfbench/; run from a full checkout")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(nproc()),
                  "--target"] + TARGETS)
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(build_log) as f:
                    log("".join(f.readlines()[-30:]))
                log("error: build failed (%s)" % " ".join(cmd))
                sys.exit(1)


def run_checked(cmd, out_path=None, timeout=170):
    """Run a preparation or checking step; failure aborts the run."""
    with open(out_path or os.devnull, "w") as out:
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                             cwd=ROOT, timeout=timeout)
    if rc != 0:
        raise GateError("%s exited %d" % (os.path.basename(cmd[0]), rc))


def timed_process(cmd, out_path, timeout=170):
    """Run cmd to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        try:
            _, status, usage = wait4_timeout(proc, timeout)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def wait4_timeout(proc, timeout):
    """os.wait4 on a Popen child; the child is killed after timeout s."""
    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if expired.is_set():
        raise GateError("%s timed out" % os.path.basename(proc.args[0]))
    return pid, status, usage


def prepare_data(name, wl, seed):
    """Reference, reads, truth and v2 index, all derived from the seed."""
    data = os.path.join(BUILD, "data", "%s-s%d" % (name, seed))
    files = {
        "ref": os.path.join(data, "sim.fa"),
        "index": os.path.join(data, "sim.gpx"),
        "truth": os.path.join(data, "sim.truth.tsv"),
        "r1": os.path.join(data, "sim_1.fq"),
        "r2": os.path.join(data, "sim_2.fq"),
        "e1": os.path.join(data, "empty_1.fq"),
        "e2": os.path.join(data, "empty_2.fq"),
    }
    files["map_r1"], files["map_r2"] = files["r1"], files["r2"]
    if wl["gzip"]:
        files["map_r1"], files["map_r2"] = files["r1"] + ".gz", files["r2"] + ".gz"
    done = os.path.join(data, "ready")
    if os.path.isfile(done):
        os.utime(done)
        return files
    parent = os.path.dirname(data)
    os.makedirs(parent, exist_ok=True)
    cached = sorted((os.path.getmtime(os.path.join(parent, d, "ready")), d)
                    for d in os.listdir(parent)
                    if os.path.isfile(os.path.join(parent, d, "ready")))
    for _, old in cached[:max(0, len(cached) - CACHED_DATA_SETS + 1)]:
        shutil.rmtree(os.path.join(parent, old))
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    sim = [tool("gpx_simulate"), "--out", os.path.join(data, "sim"),
           "--pairs", str(wl["pairs"]), "--seed", str(seed)]
    if wl["error_rate"] is not None:
        sim += ["--error-rate", str(wl["error_rate"])]
    run_checked(sim)
    run_checked([tool("gpx_index"), "--ref", files["ref"], "--out",
                 files["index"], "--format", "v2"])
    if wl["gzip"]:
        for src in (files["r1"], files["r2"]):
            with open(src, "rb") as fin, open(src + ".gz", "wb") as fout:
                with gzip.GzipFile(fileobj=fout, mode="wb", mtime=0,
                                   compresslevel=1, filename="") as gz:
                    shutil.copyfileobj(fin, gz, 1 << 20)
    for empty in (files["e1"], files["e2"]):
        open(empty, "w").close()
    open(done, "w").close()
    return files


def sam_summary(path):
    """(records, md5) of a SAM file; header lines are not records."""
    md5 = hashlib.md5()
    lines = 0
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            md5.update(block)
            lines += block.count(b"\n")
    headers = 0
    with open(path, "rb") as f:
        for line in f:
            if not line.startswith(b"@"):
                break
            headers += 1
    return lines - headers, md5.hexdigest()


def mapeval_accuracy(files, sam, out_path):
    """Overall correct fraction reported by gpx_mapeval."""
    run_checked([tool("gpx_mapeval"), "--ref", files["ref"], "--sam", sam,
                 "--truth", files["truth"]], out_path)
    with open(out_path) as f:
        m = re.search(r"overall: \d+ records, ([0-9.]+)% correct", f.read())
    if not m:
        raise GateError("gpx_mapeval printed no overall accuracy")
    return float(m.group(1)) / 100.0


def check_sam(sam, pairs, floor, files, run_dir, tag):
    """Gate: record count 2 x pairs and accuracy at or above the floor."""
    records, md5 = sam_summary(sam)
    if records != 2 * pairs:
        raise GateError("%s: %d SAM records for %d pairs"
                        % (tag, records, pairs))
    accuracy = mapeval_accuracy(files, sam,
                                os.path.join(run_dir, tag + ".mapeval.txt"))
    if accuracy < floor:
        raise GateError("%s: accuracy %.5f below floor %.5f"
                        % (tag, accuracy, floor))
    return md5, accuracy


def recv_exact(s, n):
    data = b""
    while len(data) < n:
        chunk = s.recv(n - len(data))
        if not chunk:
            raise OSError("gpx_serve closed the connection")
        data += chunk
    return data


def hello(path, shutdown=False):
    """HELLO over the Unix socket, then SHUTDOWN if asked.

    True when every reply is of the expected type.
    """
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(10)
        s.connect(path)
        payload = struct.pack("<IHH", PROTO_MAGIC, PROTO_VERSION, 0)
        frames = [(FRAME_HELLO_REQUEST, payload, FRAME_HELLO_REPLY)]
        if shutdown:
            frames.append((FRAME_SHUTDOWN_REQUEST, b"",
                           FRAME_SHUTDOWN_REPLY))
        for ftype, body, want in frames:
            s.sendall(struct.pack("<IB", len(body) + 1, ftype) + body)
            length, got = struct.unpack("<IB", recv_exact(s, 5))
            recv_exact(s, length - 1)
            if got != want:
                return False
        return True


class Server:
    """gpx_serve child process; setup_s is spawn to first HELLO."""

    def __init__(self, files, sock, log_path):
        if os.path.exists(sock):  # relative to ROOT, the working directory
            os.unlink(sock)
        self.sock = sock
        self.out = open(log_path, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [tool("gpx_serve"), "--ref", files["ref"], "--index",
             files["index"], "--socket", sock, "--threads", str(nproc())],
            stdout=self.out, stderr=subprocess.STDOUT, cwd=ROOT)
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                self.out.close()
                raise GateError("gpx_serve exited during start-up")
            try:
                if hello(sock):
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise GateError("gpx_serve did not answer HELLO")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - start

    def stop(self):
        """SHUTDOWN frame (graceful drain): (exit code, peak RSS MB).

        Not SIGTERM: gpx_serve answers HELLO before it installs its
        SIGTERM handler, so a SIGTERM soon after start-up can kill it
        instead of draining it. A server that cannot be asked is killed,
        and its exit code fails the caller's gate.
        """
        if self.proc.returncode is None:
            try:
                asked = hello(self.sock, shutdown=True)
            except OSError:
                asked = False
            if not asked:
                self.proc.kill()
        try:
            _, status, usage = wait4_timeout(self.proc, 60)
        finally:
            self.out.close()
        return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def loadgen(files, wl, sock, run_dir, tag, mode_args):
    """One gpxbench loadgen pass; its SAM is gated. Returns a dict."""
    sam = os.path.join(run_dir, tag + ".sam")
    req_log = os.path.join(run_dir, tag + "_requests.tsv")
    stats = os.path.join(run_dir, tag + "_stats.json")
    rc = subprocess.call(
        [tool("gpxbench"), "loadgen", "--socket", sock,
         "--r1", files["r1"], "--r2", files["r2"], "--sam", sam,
         "--log", req_log, "--stats", stats,
         "--conns", str(SERVE_CONNECTIONS),
         "--pairs-per-req", str(PAIRS_PER_REQUEST)] + mode_args,
        stdout=subprocess.DEVNULL, cwd=ROOT, timeout=150)
    if rc not in (0, 3):  # 3: some requests failed (counted by caller)
        raise GateError("%s load generator exited %d" % (tag, rc))
    records = []
    with open(req_log) as f:
        next(f)
        for line in f:
            _, block, pairs, d, s, r, ok = line.split("\t")
            records.append({"block": int(block), "pairs": int(pairs),
                            "due_ns": int(d), "send_ns": int(s),
                            "reply_ns": int(r), "ok": ok.strip() == "1"})
    if not records:
        raise GateError("%s load generator sent no request" % tag)
    # The SAM holds one reply per block answered; later replies of a
    # block were checked equal to it by the load generator.
    blocks = {r["block"]: r["pairs"] for r in records if r["ok"]}
    _, accuracy = check_sam(sam, sum(blocks.values()), wl["accuracy_floor"],
                            files, run_dir, tag)
    os.unlink(sam)
    with open(stats) as f:
        server_stats = json.load(f)["server"]
    return {"records": records, "accuracy": accuracy,
            "stats": server_stats}


def serve_session(files, wl, seed, run_dir, closed_s):
    """One gpx_serve process: a closed-loop pass, then an open-loop one.

    The closed-loop pass keeps every connection busy for
    SERVE_WARMUP_S + closed_s seconds; the warm-up is discarded and the
    rest gives the server's throughput. The open-loop pass then sends
    LATENCY_REQUESTS Poisson arrivals at the workload's offered rate.
    """
    sock = os.path.relpath(os.path.join(run_dir, "s.sock"), ROOT)
    due = open_loop_schedule(seed, wl["offered_req_per_s"], LATENCY_REQUESTS)
    schedule = os.path.join(run_dir, "schedule.txt")
    with open(schedule, "w") as f:
        f.write("".join("%d\n" % d for d in due))
    server = Server(files, sock, os.path.join(run_dir, "serve.log"))
    try:
        closed = loadgen(files, wl, sock, run_dir, "closed",
                         ["--closed-seconds", repr(SERVE_WARMUP_S + closed_s)])
        opened = loadgen(files, wl, sock, run_dir, "open",
                         ["--schedule", schedule])
    finally:
        server_rc, rss = server.stop()
    if server_rc != 0:
        raise GateError("gpx_serve exited %d" % server_rc)
    records = opened["records"]
    return {
        "setup_s": server.setup_s,
        "rss_mb": rss,
        "closed": closed,
        "open": opened,
        "latency_ms": request_latencies_ms(records),
        "lag_ms": [(r["send_ns"] - r["due_ns"]) / 1e6 for r in records],
        "requests": closed["records"] + records,
        "failed": sum(1 for r in closed["records"] + records
                      if not r["ok"]),
    }


def latency_metrics(prefix, values, pcts):
    """Supported percentiles of values, named by the percentile used."""
    out = {}
    for pct in pcts:
        got = supported_percentile(values, pct)
        if got is None:
            raise GateError("too few samples for a %s percentile" % prefix)
        p, v = got
        if math.isinf(v):
            raise GateError("%s p%g falls on a failed request" % (prefix, p))
        out[percentile_name(prefix, p, "ms")] = (v, "ms")
    return out


# ---------------------------------------------------------------------
# Workload runs.

def map_cmd(files, sam, r1, r2, stats=None):
    cmd = [tool("gpx_map"), "--ref", files["ref"], "--index",
           files["index"], "--r1", r1, "--r2", r2, "--out", sam,
           "--threads", str(nproc())]
    if stats:
        cmd += ["--stats-json", stats]
    return cmd


def run_untraced(name, wl, seed, seconds, files, run_dir):
    """End-to-end metrics with tracing off."""
    if wl["kind"] == "serve":
        return serve_untraced(name, wl, seed, seconds, files, run_dir)
    sam = os.path.join(run_dir, "out.sam")
    job = map_cmd(files, sam, files["map_r1"], files["map_r2"])
    job_log = os.path.join(run_dir, "gpx_map.log")
    # Discarded warm-up, which also fixes the reference SAM digest.
    rc, _, _ = timed_process(job, job_log)
    if rc != 0:
        raise GateError("warm-up gpx_map exited %d" % rc)
    ref_md5, accuracy = check_sam(sam, wl["pairs"], wl["accuracy_floor"],
                                  files, run_dir, "map")
    setups = []
    empty = map_cmd(files, os.path.join(run_dir, "empty.sam"),
                    files["e1"], files["e2"])
    # Write back what data preparation and the warm-up left dirty now,
    # rather than in the middle of the timed jobs.
    os.sync()
    for _ in range(SETUP_REPEATS):
        rc, wall, _ = timed_process(empty, job_log)
        if rc != 0:
            raise GateError("empty gpx_map exited %d" % rc)
        setups.append(wall)
    walls, rss = [], []
    while sum(walls) < seconds or len(walls) < MIN_JOBS:
        rc, wall, peak = timed_process(job, job_log)
        records, md5 = sam_summary(sam)
        # Deleted before writeback, so it does not load later jobs.
        os.unlink(sam)
        if rc != 0 or records != 2 * wl["pairs"] or md5 != ref_md5:
            raise GateError("gpx_map job %d: exit %d, %d records, md5 %s"
                            % (len(walls) + 1, rc, records, md5))
        walls.append(wall)
        rss.append(peak)
    metrics = {
        "pairs_per_s": (statistics.median(wl["pairs"] / w for w in walls),
                        "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "accuracy": (accuracy, "fraction"),
    }
    return metrics, len(walls), 0, {"job_walls_s": walls,
                                    "setup_walls_s": setups}


def serve_untraced(name, wl, seed, seconds, files, run_dir):
    sock = os.path.relpath(os.path.join(run_dir, "s.sock"), ROOT)
    os.sync()  # as in run_untraced: no writeback during the timed run
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        server = Server(files, sock, os.path.join(run_dir, "serve.log"))
        setups.append(server.setup_s)
        rc, _ = server.stop()
        if rc != 0:
            raise GateError("gpx_serve exited %d" % rc)
    served = serve_session(files, wl, seed, run_dir, seconds)
    setups.append(served["setup_s"])
    closed = served["closed"]
    metrics = {
        "pairs_per_s": (closed_loop_rate(closed["records"], SERVE_WARMUP_S),
                        "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (served["rss_mb"], "MB"),
        "accuracy": (closed["accuracy"], "fraction"),
    }
    # Request latency and failures are printed, not returned: their
    # spread across seeds is wider than any regression bound the
    # benchmark could hold them to. The traced run reports them as
    # serve.req_p50_ms, serve.req_p99_ms and serve.fail_frac.
    opened = served["open"]["records"]
    latency = latency_metrics("req", served["latency_ms"], (50, 99))
    latency["fail_frac"] = (sum(1 for r in opened if not r["ok"])
                            / len(opened), "fraction")
    for k, (v, unit) in latency.items():
        print(metric_line(name, k, v, unit) + " (not bounded)")
    counts = {"closed_requests": len(closed["records"]),
              "open_requests": len(opened),
              "offered_req_per_s": wl["offered_req_per_s"]}
    return metrics, len(served["requests"]), served["failed"], counts


def run_traced(name, wl, seed, seconds, files, run_dir):
    """Per-layer metrics from one traced single-process run."""
    pairs = wl["pairs"]
    # Production reference: the untraced multi-threaded gpx_map.
    sam = os.path.join(run_dir, "map.sam")
    stats_path = os.path.join(run_dir, "map_stats.json")
    rc, _, _ = timed_process(
        map_cmd(files, sam, files["map_r1"], files["map_r2"], stats_path),
        os.path.join(run_dir, "gpx_map.log"))
    if rc != 0:
        raise GateError("gpx_map exited %d" % rc)
    ref_md5, _ = check_sam(sam, pairs, wl["accuracy_floor"], files, run_dir,
                           "map")
    with open(stats_path) as f:
        io_stats = json.load(f)["io"]

    out = os.path.join(run_dir, "trace.sam")
    report = os.path.join(run_dir, "trace.json")
    run_checked([tool("gpxbench"), "trace", "--ref", files["ref"], "--index",
                 files["index"], "--r1", files["map_r1"], "--r2",
                 files["map_r2"], "--out", out, "--report", report,
                 "--spans", os.path.join(run_dir, "spans.tsv")],
                os.path.join(run_dir, "trace.log"))
    records, md5 = sam_summary(out)
    if records != 2 * pairs or md5 != ref_md5:
        raise GateError("traced SAM differs from gpx_map: %d records, "
                        "md5 %s vs %s" % (records, md5, ref_md5))
    with open(report) as f:
        rep = json.load(f)
    rep["sam_bytes"] = os.path.getsize(out)
    os.unlink(out)

    spans = rep["spans"]
    pipe = rep["pipeline"]
    stages = pipe["stages"]
    mm2 = rep["mm2"]

    def self_s(span):
        return spans[span]["self_s"] if span in spans else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    wall = spans["run"]["total_s"]
    covered = sum(v["self_s"] for k, v in spans.items() if k != "run")
    coverage = covered / wall
    if abs(coverage - 1.0) > TRACE_RECONCILE_TOLERANCE:
        raise GateError("layer self times cover %.4f of the traced wall "
                        "time" % coverage)

    m = {}
    m["genomics.ref_load_s"] = (self_s("genomics.ref_load"), "s")
    m["genpair.index_open_s"] = (self_s("genpair.index_open"), "s")
    m["baseline.minimizer_index_s"] = (self_s("baseline.minimizer_index"), "s")
    m["genomics.parse_s"] = (self_s("genomics.parse"), "s")
    m["genomics.parse_pairs_per_s"] = (
        ratio(rep["pairs"], self_s("genomics.parse")), "1/s")
    m["genomics.emit_s"] = (self_s("genomics.emit"), "s")
    m["genomics.emit_mb"] = (rep["sam_bytes"] / 1e6, "MB")
    m["genpair.reader_stall_s"] = (io_stats["reader_stall_seconds"], "s")
    m["genpair.writer_stall_s"] = (io_stats["writer_stall_seconds"], "s")
    for stage in ("seed", "query", "pa_filter", "light_align", "fallback"):
        m["genpair.%s.s" % stage] = (self_s("genpair." + stage), "s")
        m["genpair.%s.items_in" % stage] = (stages[stage]["items_in"], "count")
        m["genpair.%s.items_out" % stage] = (stages[stage]["items_out"],
                                             "count")
    la = stages["light_align"]
    m["genpair.light_align.accept_ratio"] = (
        ratio(la["items_out"], la["items_in"]), "ratio")
    m["genpair.light_align.attempts_per_pair"] = (
        ratio(pipe["light_aligns_attempted"], pipe["pairs_total"]), "ratio")
    m["genpair.query.locations_fetched"] = (
        pipe["query"]["locations_fetched"], "count")
    m["baseline.seeding_s"] = (mm2["seeding_s"], "s")
    m["baseline.chaining_s"] = (mm2["chaining_s"], "s")
    m["baseline.alignment_s"] = (mm2["alignment_s"], "s")
    m["align.dp_cells"] = (mm2["align_cells"], "count")
    m["align.cells_per_fallback_pair"] = (
        ratio(mm2["align_cells"], stages["fallback"]["items_in"]), "count")
    m["align.gcells_per_s"] = (
        ratio(mm2["align_cells"], mm2["alignment_s"]) / 1e9, "Gcells/s")
    m["trace.coverage"] = (coverage, "ratio")
    # Spans on / spans off, estimated within this run: the span count
    # times the cost of one span from gpxbench's calibration loop.
    traced_s = rep["wall_s"]
    m["trace.overhead"] = (
        traced_s / (traced_s - rep["span_count"] * rep["span_cost_s"]),
        "ratio")

    # Only the open-loop pass is needed here; the closed-loop pass is
    # just the server's warm-up.
    served = serve_session(files, wl, seed, run_dir, 0.0)
    opened = served["open"]["records"]
    # STATS counts from server start: take the open pass's share.
    st = {k: served["open"]["stats"][k] - served["closed"]["stats"][k]
          for k in ("map_seconds", "requests_served", "admission_waits")}
    map_ms = ratio(st["map_seconds"] * 1000.0, st["requests_served"])
    ok = [r for r in opened if r["ok"]]
    client_ms = statistics.mean((r["reply_ns"] - r["send_ns"]) / 1e6
                                for r in ok)
    m.update({"serve." + k: v for k, v in
              latency_metrics("req", served["latency_ms"], (50, 99)).items()})
    m["serve.fail_frac"] = (
        sum(1 for r in opened if not r["ok"]) / len(opened), "fraction")
    m["serve.map_ms_per_req"] = (map_ms, "ms")
    m["serve.admission_waits"] = (st["admission_waits"], "count")
    m["serve.overhead_ms"] = (client_ms - map_ms, "ms")
    m.update({"loadgen." + k: v for k, v in
              latency_metrics("lag", served["lag_ms"], (99,)).items()})
    # Gated runs: the gpx_map run, the traced run and every request.
    attempted = 2 + len(served["requests"])
    counts = {"closed_requests": len(served["closed"]["records"]),
              "open_requests": len(opened),
              "offered_req_per_s": wl["offered_req_per_s"]}
    return m, attempted, served["failed"], counts


def context(name, wl, seed, seconds, trace, counts):
    info = json.loads(subprocess.check_output([tool("gpxbench"), "info"],
                                              cwd=ROOT))
    try:
        commit = subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            stderr=subprocess.DEVNULL).decode().strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unavailable (not a git checkout)"
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        paths = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for p in paths:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    ctx = {"workload": name, "seed": seed, "seconds": seconds,
           "trace": trace, "nproc": nproc(), "threads": nproc(),
           "git_commit": commit, "source_sha256": digest.hexdigest(),
           "pairs": wl["pairs"], "error_rate": wl["error_rate"],
           "gzip": wl["gzip"], "connections": SERVE_CONNECTIONS,
           "pairs_per_request": PAIRS_PER_REQUEST,
           "accuracy_floor": wl["accuracy_floor"],
           "gpx_simd_env": os.environ.get("GPX_SIMD")}
    ctx.update(info)
    ctx.update(counts)
    return ctx


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns (result line, correct)."""
    wl = CONFIG["workloads"][name]
    # Only the latest run's outputs are kept (SAM files are large).
    shutil.rmtree(os.path.join(BUILD, "runs"), ignore_errors=True)
    run_dir = os.path.join(BUILD, "runs", "%s-s%d-t%d" % (name, seed, trace))
    os.makedirs(run_dir)
    files = prepare_data(name, wl, seed)
    try:
        fn = run_traced if trace else run_untraced
        metrics, attempted, failed, counts = fn(name, wl, seed, seconds,
                                                files, run_dir)
    except (GateError, subprocess.TimeoutExpired) as e:
        log("%s: correctness gate failed: %s" % (name, e))
        return result_line(False, 1, 1, {}), False
    print(json.dumps({"context": context(name, wl, seed, seconds, trace,
                                         counts)}))
    for k, (v, unit) in metrics.items():
        print(metric_line(name, k, v, unit))
    return result_line(failed == 0, attempted, failed, metrics), failed == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + list(CONFIG["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Socket paths stay relative (AF_UNIX paths are short).
    os.chdir(ROOT)
    build()
    names = (list(CONFIG["workloads"]) if args.workload == "all"
             else [args.workload])
    all_ok = True
    line = None
    for name in names:
        line, ok = run_workload(name, args.seed, args.seconds, args.trace)
        all_ok &= ok
        if len(names) > 1:
            print(line)
    if len(names) == 1:
        print(line)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
