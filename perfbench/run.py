#!/usr/bin/env python3
"""The WiScape serving benchmark: one command for every workload.

    python3 perfbench/run.py --workload ingest|serve|fleet --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the repository's src/)
into .bench_build/. Loops, shards, rates and depths are the workload's,
defined once in common.h (pb::workload_by_name); the servers report their
loops and shards and the generator its threads and connections. Each run
then

  1. prepares the workload's seeded warm state (snapshot + WAL), untimed;
  2. starts the server process(es) SETUPS times, timing spawn -> recovery
     (and, in fleet, the follower's snapshot catch-up) -> first HELLO
     answered; the last start serves the run;
  3. snapshots STATS from every server, runs the load generator for the
     measured window, flushes, snapshots STATS again;
  4. checks correctness: the server's table fingerprint equals the
     reference built from the ACKed records, the follower's equals the
     leader's, the leader's snapshot+WAL recover to its frozen epochs, and
     ACK + ERR == sent with ACKed records == the reports_accepted +
     reports_rejected delta;
  5. prints the end-to-end metrics (--trace 0), or the per-layer metrics
     from the STATS deltas plus the traced in-process replay (--trace 1).

The last line of stdout is one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
"""

import argparse
import json
import math
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARIES = ("pb_server", "pb_gen", "pb_trace", "pb_selftest")

WORKLOADS = ("ingest", "serve", "fleet")
SETUPS = 9

# The request whose stage table the traced run prints, and the end-to-end
# metric that is its client-observed time.
PRIMARY = {"ingest": ("reportb", "ack_p50_us"),
           "serve": ("query", "query_p50_us"),
           "fleet": ("checkin", "checkin_p50_us")}

# The serving process and the generator run on disjoint halves of the CPUs
# this process may use (when there are at least four), so they never
# preempt each other. The fleet's follower shares the servers' half.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = set(_CPUS[:len(_CPUS) // 2]) if len(_CPUS) >= 4 else set(_CPUS)
GEN_CPUS = set(_CPUS[len(_CPUS) // 2:]) if len(_CPUS) >= 4 else set(_CPUS)

# The guarded end-to-end metrics (BENCHMARK.json). The rates and latencies
# below them are printed by every run but not guarded: on a host whose CPUs
# are stolen in bursts they do not repeat run to run (README.md).
END_TO_END = [
    ("setup_s", "s"), ("server_cpu_us_per_req", "us"), ("peak_rss_mb", "MiB"),
]
PRINTED = [
    ("ingest_max_rps", "records/s"), ("query_lps", "lookups/s"),
    ("ack_p50_us", "us"), ("ack_p90_us", "us"), ("query_p50_us", "us"),
    ("query_p90_us", "us"), ("checkin_p50_us", "us"),
    ("checkin_p90_us", "us"), ("visible_p50_ms", "ms"),
    ("visible_p90_ms", "ms"), ("replica_visible_p90_ms", "ms"),
]


def log(msg):
    print(msg, flush=True)


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


# ---- build ------------------------------------------------------------------

def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: run from a full checkout", 2)
    os.makedirs(BUILD, exist_ok=True)
    out = os.path.join(BUILD, "build.log")
    with open(out, "a") as logf:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=logf, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                fail("cmake configure failed; see " + out)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                            "--target", *BINARIES],
                           stdout=logf, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            fail("build failed; see " + out)


def binary(name):
    return os.path.join(BUILD, name)


# ---- host stamp ---------------------------------------------------------------

def host_stamp(info, g):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler, build_type = "unknown", "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    ver = subprocess.run([path, "--version"], capture_output=True,
                                         text=True).stdout.splitlines()
                    compiler = ver[0] if ver else path
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    sha = "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(),
            "compiler": compiler, "build_type": build_type, "git_sha": sha,
            "transport": "loopback", "server_loops": int(info[0]["LOOPS"]),
            "server_shards": int(info[0]["SHARDS"]),
            "generator_threads": int(g["threads"]),
            "generator_connections": int(g["connections"])}


# ---- servers --------------------------------------------------------------------

class Server:
    """One pb_server process; commands go over its stdin."""

    def __init__(self, args, cpus):
        self.proc = subprocess.Popen(
            args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            bufsize=1, preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self.port = None
        self.info = {}
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited during setup")
            key, _, value = line.strip().partition(" ")
            if key == "PORT":
                self.port = int(value)
                break
            self.info[key] = float(value)

    def command(self, cmd):
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline().strip()
        if not line:
            raise RuntimeError("server died on " + cmd)
        return line

    def cpu_s(self):
        """CPU seconds of every live thread so far, from the scheduler's
        nanosecond counters (stolen time is not charged)."""
        task = "/proc/%d/task" % self.proc.pid
        total = 0
        for tid in os.listdir(task):
            try:
                with open("%s/%s/schedstat" % (task, tid)) as f:
                    total += int(f.read().split()[0])
            except (OSError, ValueError, IndexError):
                pass  # the thread ended
        return total / 1e9

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("QUIT\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


class CpuSampler:
    """Samples the servers' CPU seconds every quarter second on a thread of
    its own while the generator runs."""

    def __init__(self, servers):
        self.servers = servers
        self.samples = []
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._loop)

    def _loop(self):
        while True:
            self.samples.append((time.monotonic(),
                                 sum(s.cpu_s() for s in self.servers)))
            if self.done.wait(0.25):
                return

    def start(self):
        self.thread.start()

    def stop(self):
        self.done.set()
        self.thread.join()

    def per_request(self, g):
        """Server CPU seconds per completed request. Each sampling window
        inside the generator's steady span gives one ratio: the servers' CPU
        time in it over the requests completed in it (the generator's
        10 ms completion bins, split pro rata at the window's edges). The
        figure is their lower quartile: a window the host stole CPU from
        (its cache and TLB cost included) reads high, a slower program
        reads high in every window. Returns (figure, windows, requests/s)."""
        bins, t0, width = g["done_bins"], g["bins_t0_s"], g["bin_s"]

        def completed(a, b):
            total = 0.0
            first = max(0, int((a - t0) / width))
            last = min(len(bins), int(math.ceil((b - t0) / width)))
            for i in range(first, last):
                lo = t0 + i * width
                overlap = min(lo + width, b) - max(lo, a)
                if overlap > 0:
                    total += bins[i] * overlap / width
            return total

        ratios, done, span = [], 0.0, 0.0
        for (a, ca), (b, cb) in zip(self.samples, self.samples[1:]):
            if a >= g["span_from_s"] and b <= g["span_to_s"] and b > a:
                n = completed(a, b)
                if n > 0:
                    ratios.append((cb - ca) / n)
                    done += n
                    span += b - a
        if len(ratios) < 4:
            raise RuntimeError("too few CPU samples in the measured span")
        deciles = statistics.quantiles(ratios, n=10)
        log("  server CPU us per request by window: p10 %.4g  p50 %.4g  p90 %.4g"
            % (1e6 * deciles[0], 1e6 * deciles[4], 1e6 * deciles[8]))
        return statistics.quantiles(ratios, n=4)[0], len(ratios), done / span


def hello(port):
    with socket.create_connection(("127.0.0.1", port)) as s:
        s.sendall(b"HELLO ver=3\n")
        reply = s.makefile("rb").readline()
    if not reply.startswith(b"HELLO"):
        raise RuntimeError("bad HELLO reply")


def stats(port):
    """The server's STATS dump as {name: value}."""
    with socket.create_connection(("127.0.0.1", port)) as s:
        f = s.makefile("rwb")
        f.write(b"HELLO ver=3\nSTATS\n")
        f.flush()
        f.readline()
        n = int(f.readline().split()[1])
        out = {}
        for _ in range(n):
            name, value = f.readline().decode().split()
            out[name] = float(value)
    return out


def start_servers(wl, live, run_dir):
    """Starts the workload's server(s) over the warm state in `live`;
    returns (servers, setup seconds)."""
    t0 = time.perf_counter()
    servers = []
    try:
        role = "leader" if wl == "fleet" else "plain"
        servers.append(Server([binary("pb_server"), "serve", "--workload", wl,
                               "--dir", live, "--role", role], SERVER_CPUS))
        hello(servers[0].port)
        if wl == "fleet":
            fdir = os.path.join(run_dir, "follower")
            os.makedirs(fdir, exist_ok=True)
            servers.append(Server([binary("pb_server"), "serve", "--workload",
                                   wl, "--dir", fdir, "--role", "follower",
                                   "--leader-port", str(servers[0].port)],
                                  SERVER_CPUS))
            hello(servers[1].port)
    except Exception:
        for s in servers:
            s.stop()
        raise
    return servers, time.perf_counter() - t0


# ---- statistics ------------------------------------------------------------------

def delta(before, after, name):
    return after.get(name, 0.0) - before.get(name, 0.0)


def ratio(num, den):
    return num / den if den else 0.0


def summary_line(name, s, unit):
    """p50 and p90, then the highest percentile with ten samples beyond it
    (all as medians over the run's sub-windows)."""
    return ("  %-20s p50=%.4g %s  p90=%.4g %s  p%g=%.4g %s  "
            "(n=%d in %d windows, %d beyond the p%g in each)" % (
                name, s["p50"], unit, s["p90"], unit, s["tail_pct"], s["tail"],
                unit, s["n"], s["windows"], s["beyond"], s["tail_pct"]))


# ---- one run ------------------------------------------------------------------------

def run(wl, seed, seconds, traced):
    data =os.path.join(BUILD, "data", "%s-%d" % (wl, seed))
    base = os.path.join(data, "base")
    if not os.path.isdir(base):
        tmp = base + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        r = subprocess.run([binary("pb_server"), "prepare", "--workload", wl,
                            "--seed", str(seed), "--dir", tmp],
                           capture_output=True, text=True)
        if r.returncode != 0:
            fail("prepare failed: " + r.stderr.strip())
        os.rename(tmp, base)

    # One copy of the warm state serves every setup: recovery only reads it
    # (the run's own writes come after the last setup). Flushing the copy
    # first keeps write-back out of the timed recoveries.
    live = os.path.join(data, "live")
    shutil.rmtree(live, ignore_errors=True)
    shutil.copytree(base, live)
    os.sync()
    setups = []
    servers = []
    try:
        for i in range(SETUPS):
            servers, took = start_servers(wl, live, data)
            setups.append(took)
            if i + 1 < SETUPS:
                for s in reversed(servers):
                    s.stop()
        wal = os.path.join(data, "live", "wal")
        wal_before = os.path.getsize(wal) if os.path.exists(wal) else 0
        before = [stats(s.port) for s in servers]
        cpu_before = sum(s.cpu_s() for s in servers)
        gen = [binary("pb_gen"), "--workload", wl, "--seed", str(seed),
               "--port", str(servers[0].port), "--seconds", str(seconds),
               "--ref-dir", base]
        if wl == "fleet":
            gen += ["--follower-port", str(servers[1].port)]
        sampler = CpuSampler(servers)
        sampler.start()
        try:
            r = subprocess.run(gen, capture_output=True, text=True,
                               timeout=seconds + 120,
                               preexec_fn=lambda: os.sched_setaffinity(0, GEN_CPUS))
        finally:
            sampler.stop()
        if not r.stdout.strip():
            raise RuntimeError("generator failed: " + r.stderr.strip())
        g = json.loads(r.stdout.strip().splitlines()[-1])
        cpu_used = sum(s.cpu_s() for s in servers) - cpu_before
        fps =[s.command("FP").split()[1] for s in servers]
        verify = servers[0].command("VERIFY").split()
        after = [stats(s.port) for s in servers]
        rss = sum(s.peak_rss_mb() for s in servers)
        wal_after = os.path.getsize(wal) if os.path.exists(wal) else 0
        info = [dict(s.info) for s in servers]
    finally:
        for s in reversed(servers):
            s.stop()

    # ---- correctness --------------------------------------------------------------
    lb, la = before[0], after[0]
    records_delta = (delta(lb, la, "core.coordinator.reports_accepted") +
                     delta(lb, la, "core.coordinator.reports_rejected"))
    checks = [
        ("generator ran clean", g["error"] == "", g["error"]),
        ("table == reference of ACKed records", fps[0] == g["ref_fp"],
         "server %s, reference %s" % (fps[0], g["ref_fp"])),
        ("snapshot+WAL recover to the frozen epochs", verify[1] == "ok",
         " ".join(verify[2:4])),
        ("ACK + ERR == sent",
         g["acked"] + g["erred"] == g["sent"] and g["unanswered"] == 0,
         "acked %d erred %d sent %d unanswered %d" % (
             g["acked"], g["erred"], g["sent"], g["unanswered"])),
        ("ACKed records == reports_accepted + reports_rejected delta",
         g["acked_records"] == records_delta,
         "%d vs %d" % (g["acked_records"], records_delta)),
        ("query answers match their requests", g["query_bad"] == 0,
         "%d bad" % g["query_bad"]),
        ("every probe became visible", g["probes_failed"] == 0,
         "%d failed" % g["probes_failed"]),
    ]
    if wl == "fleet":
        checks.append(("follower table == leader table", fps[1] == fps[0],
                       "follower %s, leader %s" % (fps[1], fps[0])))
    correct = all(ok for _, ok, _ in checks)
    attempted = int(g["sent"])
    failed = int(g["erred"] + g["unanswered"])
    failed_frac = ratio(failed, attempted)

    stamp = host_stamp(info, g)
    log("perfbench %s seed=%d seconds=%g trace=%d" % (wl, seed, seconds, traced))
    log("stamp: " + json.dumps(stamp, sort_keys=True))
    for name, ok, detail in checks:
        log("check %-58s %s%s" % (name, "ok" if ok else "FAIL",
                                  "" if ok else "  (" + detail + ")"))
    log("failed_frac %.6g (failed %d of %d attempted)" % (
        failed_frac, failed, attempted))

    if not correct:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}, stamp

    cpu_per_req, cpu_windows, req_rate = sampler.per_request(g)
    rungs = g["rungs"]
    for r in rungs:
        log("  rung offered=%-9g achieved=%-11.6g ack_p99=%-9.4g us "
            "late_p99=%-8.4g us backlog_slope=%-10.4g rec/s  %s%s" % (
                r["offered"], r["achieved"], r["ack_p99_us"],
                r["late_p99_us"], r["backlog_slope"], r["verdict"],
                "  <- ingest_max_rps" if r["top"] else ""))
    log(summary_line("ack", g["ack_us"], "us"))
    log(summary_line("query", g["query_us"], "us"))
    log(summary_line("checkin", g["checkin_us"], "us"))
    log(summary_line("visible", g["visible_ms"], "ms"))
    if wl == "fleet":
        log(summary_line("replica_visible", g["replica_visible_ms"], "ms"))
    log(summary_line("generator lateness", g["late_us"], "us"))

    # setup_s: the fastest setup. Recovery is CPU-bound and the same work
    # every time, so a slower program is slower in every setup, while a
    # host stall slows only the setups it hits.
    m = {
        "setup_s": min(setups),
        "server_cpu_us_per_req": 1e6 * cpu_per_req,
        "peak_rss_mb": rss,
        "ingest_max_rps": g["rate_per_s"] if wl == "ingest" else 0.0,
        "query_lps": g["query_lps"],
        "ack_p50_us": g["ack_us"]["p50"],
        "ack_p90_us": g["ack_us"]["p90"],
        "query_p50_us": g["query_us"]["p50"],
        "query_p90_us": g["query_us"]["p90"],
        "checkin_p50_us": g["checkin_us"]["p50"],
        "checkin_p90_us": g["checkin_us"]["p90"],
        "visible_p50_ms": g["visible_ms"]["p50"],
        "visible_p90_ms": g["visible_ms"]["p90"],
        "replica_visible_p90_ms": g["replica_visible_ms"]["p90"],
    }
    log("end-to-end (%s), guarded:" % wl)
    for name, unit in END_TO_END:
        log("  %-24s %14.6g %s" % (name, m[name], unit))
    log("  (server_cpu_us_per_req: lower quartile of %d windows of %.6g "
        "requests/s; %.3f CPU s over the whole run)" % (
            cpu_windows, req_rate, cpu_used))
    log("end-to-end (%s), printed only:" % wl)
    for name, unit in PRINTED:
        if name == "ingest_max_rps" and wl == "ingest" and g["ladder_top"] < 0:
            # Every rung below the first slow one ran late: the ladder
            # measured the generator, so the figure is void, not 0.
            log("  %-24s %14s %s" % (name, "void", "(no valid passing rung)"))
            continue
        log("  %-24s %14.6g %s" % (name, m[name], unit))
    log("  %-24s %14.6g %s" % ("failed_frac", failed_frac, "ratio"))
    log("  setup_s runs: " + ", ".join("%.4f" % s for s in setups))

    if not traced:
        metrics = {name: {"value": m[name], "unit": unit}
                   for name, unit in END_TO_END}
        return {"correct": True, "attempted": attempted, "failed": failed,
                "metrics": metrics}, stamp

    per_layer = layer_metrics(wl, seed, seconds, base, data, g, m, before,
                              after, info, wal_after - wal_before)
    if per_layer is None:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}, stamp
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": per_layer}, stamp


# ---- per-layer metrics ------------------------------------------------------------------

def layer_metrics(wl, seed, seconds, base, data, g, m, before, after, info,
                  wal_growth):
    lb, la = before[0], after[0]
    fb, fa = (before[1], after[1]) if len(before) > 1 else ({}, {})
    shards = int(info[0]["SHARDS"])

    def d(name):
        return delta(lb, la, name)

    records = (d("core.coordinator.reports_accepted") +
               d("core.coordinator.reports_rejected"))
    replies = d("net.server.replies_per_flush.sum_s") * 1e3
    lookups = d("core.estimate_view.lookups")
    drained = [d("core.sharded.shard%d.drained" % i)
               for i in range(shards)]
    mean_drained = sum(drained) / len(drained)
    drain_s = d("core.sharded.drain_latency_s.sum_s")
    wal_appends = d("core.persist.wal_appends")

    tr = subprocess.run([binary("pb_trace"), "--workload", wl, "--seed",
                         str(seed), "--base", base, "--dir",
                         os.path.join(data, "trace")],
                        capture_output=True, text=True, timeout=170)
    if tr.returncode != 0 or not tr.stdout.strip():
        log("traced replay failed: " + tr.stderr.strip())
        return None
    t = json.loads(tr.stdout.strip().splitlines()[-1])
    for line in tr.stdout.strip().splitlines()[:-1]:
        log(line)

    # The stage table of the workload's primary request: each layer's self
    # time (its inclusive time in the replay minus the next inner layer's)
    # against the time the client observed for that request in the timed
    # run. What the replay cannot see -- kernel, wakeups, scheduling,
    # queueing behind other requests -- is the remainder, net.loopback_us.
    primary, client_metric = PRIMARY[wl]
    client = m[client_metric]
    ty = t["types"]

    def self_of(kind):
        r = ty[kind]
        inner = r["apply_us"] if r["apply_us"] > 0 else 0.0
        return {"net": max(0.0, r["pump_us"] - r["handle_us"]),
                "proto.handle": max(0.0, r["handle_us"] - r["codec_us"] -
                                    r["core_us"]),
                "proto.codec": r["codec_us"],
                "core": max(0.0, r["core_us"] - inner),
                "core.apply": inner}

    stages = self_of(primary)
    loopback = max(0.0, client - ty[primary]["pump_us"])
    log("stage table (%s, %s requests; client-observed %s = %.4g us):" % (
        wl, primary, client_metric, client))
    for name, us in list(stages.items()) + [("remainder (net.loopback_us)",
                                             loopback)]:
        log("  %-28s %10.3f us  %6.1f%%" % (name, us, 100.0 * ratio(us, client)))

    # (name, value, unit, base)
    rows = [
        ("net.pump_self_us", stages["net"], "us",
         "%s: session::pump minus handle, per request" % primary),
        ("net.replies_per_writev", ratio(replies, d("net.server.writev_calls")),
         "count", "%d replies / %d writev" % (replies, d("net.server.writev_calls"))),
        ("net.bytes_in_per_rec", ratio(d("net.server.bytes_in"), records),
         "bytes", "%d bytes / %d records" % (d("net.server.bytes_in"), records)),
        ("net.shed", d("net.server.shed_queries") + d("net.server.shed_reports"),
         "count", "shed_queries + shed_reports"),
        ("net.loopback_us", loopback, "us",
         "client-observed %s %.4g us - replayed pump %.4g us" % (
             client_metric, client, ty[primary]["pump_us"])),
    ]
    for k in ("reportb_v3", "report_text", "checkin", "query"):
        rows.append(("proto.decode_ns." + k, t["decode_ns"][k], "ns",
                     "per request decoded in the traced replay"))
    rows.append(("proto.encode_ns.est", t["encode_ns_est"], "ns",
                 "per estimate encoded (ESTB/EST)"))
    for k in ("reportb", "queryb", "query", "checkin", "report_group", "epoch"):
        rows.append(("proto.handle_self_us." + k, self_of(k)["proto.handle"],
                     "us", "handle minus codec and core, per request (n=%d)" %
                     ty[k]["n"]))
    errs = sum(d("proto.server.err_" + e) for e in
               ("parse", "unsupported", "stopped", "internal", "version",
                "overload"))
    rows += [
        ("proto.err", errs, "count", "ERR replies on the leader"),
        ("queue.enqueue_us", t["queue"]["enqueue_us"], "us",
         "report_batch per call, traced"),
        ("queue.flush_ms", t["queue"]["flush_ms"], "ms",
         "flush after the traced burst"),
        ("queue.producer_blocked", d("core.report_queue.producer_blocked"),
         "count", "STATS delta"),
        ("queue.depth_high_water", la.get("core.report_queue.depth_high_water", 0),
         "count", "STATS gauge after the run"),
        ("sharded.recs_per_drain_batch",
         ratio(sum(drained), d("core.sharded.drain_batches")), "count",
         "%d drained / %d batches" % (sum(drained), d("core.sharded.drain_batches"))),
        ("sharded.drain_busy_frac", ratio(drain_s, seconds * shards),
         "ratio", "%.4g s applying / (%g s x %d shards)" % (
             drain_s, seconds, shards)),
        ("sharded.shard_skew", ratio(max(drained), mean_drained), "ratio",
         "max / mean drained per shard"),
        ("apply.ns_per_rec", t["apply_ns_per_rec"], "ns",
         "synchronous single-shard apply, traced"),
        ("apply.rollovers_per_krec",
         1e3 * ratio(d("core.zone_table.rollovers"), records), "count",
         "%d rollovers / %d records" % (d("core.zone_table.rollovers"), records)),
        ("apply.streams", la.get("core.zone_table.streams", 0), "count",
         "zone_table streams after the run"),
        ("checkin.us", t["checkin_us"], "us", "sharded checkin, traced"),
        ("checkin.task_frac",
         ratio(d("core.coordinator.tasks_issued"), d("core.coordinator.checkins")),
         "ratio", "%d tasks / %d checkins" % (
             d("core.coordinator.tasks_issued"), d("core.coordinator.checkins"))),
        ("view.lookup_ns", t["lookup_ns"], "ns", "estimate_view::lookup, traced"),
        ("view.seqlock_retries_per_mlookup",
         1e6 * ratio(d("core.estimate_view.seqlock_retries"), lookups), "count",
         "%d retries / %d lookups" % (d("core.estimate_view.seqlock_retries"),
                                      lookups)),
        ("view.miss_frac", ratio(d("core.estimate_view.misses"), lookups),
         "ratio", "%d misses / %d lookups" % (d("core.estimate_view.misses"),
                                              lookups)),
        ("alerts.dropped", d("core.estimate_view.alerts_dropped"), "count",
         "STATS delta"),
        ("wal.append_us_p50", t["wal"]["append_us_p50"], "us",
         "durable_log::append, traced"),
        ("wal.append_us_p99", t["wal"]["append_us_p99"], "us",
         "durable_log::append, traced (p%g of %d)" % (
             t["wal"]["append_tail_pct"], t["wal"]["appends"])),
        ("wal.bytes_per_epoch", ratio(wal_growth, wal_appends), "bytes",
         "%d WAL bytes / %d appends" % (wal_growth, wal_appends)),
        ("wal.recover_s", info[0].get("RECOVER_S", 0.0), "s",
         "durable_log::recover at server start"),
        ("wal.checkpoint_s", t["wal"]["checkpoint_s"], "s",
         "durable_log::checkpoint, traced"),
        ("repl.on_epoch_us", t["repl"]["on_epoch_us"], "us",
         "epoch_log::on_epoch per rollover, traced"),
        ("repl.pull_us_per_rec", t["repl"]["pull_us_per_rec"], "us",
         "epoch_log::pull per record, traced"),
        ("repl.apply_us_per_rec", t["repl"]["apply_us_per_rec"], "us",
         "follower::apply per record, traced"),
        ("repl.recs_per_pull",
         ratio(d("repl.pull_records"), d("repl.pulls")), "count",
         "%d records / %d pulls" % (d("repl.pull_records"), d("repl.pulls"))),
        ("repl.catch_up_s",
         info[1].get("CATCHUP_S", 0.0) if len(info) > 1 else 0.0, "s",
         "follower snapshot catch-up at setup"),
        ("repl.duplicates", delta(fb, fa, "repl.duplicates"), "count",
         "follower STATS delta"),
        ("repl.log_evicted", d("repl.log_evicted"), "count",
         "leader STATS delta"),
    ]
    log("per-layer (%s):" % wl)
    for name, value, unit, basis in rows:
        log("  %-36s %14.6g %-6s  [%s]" % (name, value, unit, basis))
    log("  tracing overhead: %.2f%% (replay pass with spans on vs off)" % (
        100.0 * t["overhead_frac"]))
    return {name: {"value": value, "unit": unit}
            for name, value, unit, _ in rows}


def selftest():
    build()
    r = subprocess.run([binary("pb_selftest")])
    return r.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        sys.exit(selftest())
    if not a.workload:
        ap.error("--workload is required")
    build()
    try:
        result, stamp = run(a.workload, a.seed, a.seconds, bool(a.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        fail(str(e))
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "%s-%d-trace%d.json" % (
            a.workload, a.seed, a.trace)), "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=1)
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
