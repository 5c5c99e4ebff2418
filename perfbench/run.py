#!/usr/bin/env python3
"""The repository benchmark: three workloads over the shipped program.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of the repository. It builds `cws-exp` (the main
workspace) and `cws-perfbench` (this directory's harness) in release
mode into `$CARGO_TARGET_DIR` (default `.bench_build`), writes the
seeded inputs under `.perfbench_work/`, runs the workload in child
processes, checks every output, and prints one JSON object as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`END_TO_END`);
with `--trace 1` a separate instrumented run reports the per-layer ones
(`PER_LAYER`), timed from outside around each layer's public calls.
README.md defines every metric on every workload and maps each layer
metric to the end-to-end metric it should move.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
TARGET = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
EXP = TARGET / "release" / "cws-exp"
BENCH = TARGET / "release" / "cws-perfbench"

WORKLOADS = (
    "sweep-cybershake-traced",
    "serve-warm-pool",
    "daemon-open-loop",
)

# Seed 42 is the default; seed 7 is held out. For both, the checked
# output of every workload is pinned (sha256). Other seeds are checked
# for structure and for agreement between repetitions and oracles.
DEFAULT_SEED = 42
HELD_OUT_SEED = 7
PINNED = {
    "sweep-cybershake-traced": {
        DEFAULT_SEED: "bd0605e4ee45f52c42d675e30f23a90803e3ed51696b6d34af3586302bf5e57c",
        HELD_OUT_SEED: "b727d3daabc3f4e7dbcd7ec4147d4c5d015300e8a61809c7b1ce2917ff4a31cb",
    },
    "serve-warm-pool": {
        DEFAULT_SEED: "d069deb97352f93b4517c1ee60c02bade46dc3048d24798d89ec10a5dac20f4c",
        HELD_OUT_SEED: "2d6549ce0c20965f519edcaad9b61b115ee81f4a1c03c6b81d1e5af41d10f8d7",
    },
    "daemon-open-loop": {
        DEFAULT_SEED: "fecb7b8f02c3bc139f92496a81f37a2bfd99dea162922a4c2e5af8875e85d912",
        HELD_OUT_SEED: "94bebfc4257e4b80b8a4f4c7cd63997ead0d0e9b953c9da0599f9c46744ef3a6",
    },
}

# The 19 paper pairings, in the sweep CSV's row order.
LABELS = [
    f"{p}-{t}"
    for t in "sml"
    for p in (
        "StartParNotExceed",
        "StartParExceed",
        "AllParExceed",
        "AllParNotExceed",
        "OneVMperTask",
    )
] + ["CPA-Eager", "GAIN", "AllPar1LnS", "AllPar1LnSDyn"]

# serve-warm-pool: simulated hours of arrivals (~2000 submissions each;
# 2.5 h keeps a batch near 1 s, so a run holds enough batches for a
# steady median) and the floors below which the workload no longer
# exercises the warm pool it exists to measure.
SERVE_HOURS = 2.5
SERVE_HIT_FLOOR = 0.5
SERVE_POOL_FLOOR = 100

# daemon-open-loop: the request sequence, the closed-loop window (the
# requests in flight when measuring throughput), the fixed open-loop rates
# (req/s), the rate at which latency is reported, and the pass rule:
# p99 under the limit and no growing backlog (median latency of the
# last quarter under its limit). A rate at which the client itself fell
# behind its schedule (median lateness over the limit) is invalid and
# never passes.
DAEMON_REQUESTS = 6000
DAEMON_WINDOW = 32
DAEMON_RATES = (2000, 4000, 8000)
DAEMON_REF_RATE = 2000
DAEMON_P99_LIMIT_US = 50_000
DAEMON_BACKLOG_LIMIT_US = 5_000
DAEMON_LATE_LIMIT_US = 1_000

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mib": "MiB",
    "rate_per_s": "1/s",
}

PER_LAYER = {
    "dag.parse_s": "s",
    "dag.parse_mib_per_s": "MiB/s",
    "core.tables_s": "s",
    "core.baseline_s": "s",
    "core.plan_s": "s",
    **{f"core.plan_s.{label}": "s" for label in LABELS},
    "core.validate_s": "s",
    "sim.verify_s": "s",
    "sim.events_per_s": "1/s",
    "core.metrics_s": "s",
    "exp.render_s": "s",
    "obs.trace_events": "count",
    "obs.trace_overhead_s": "s",
    "obs.trace_mib": "MiB",
    "obs.reduce_s": "s",
    "obs.reduce_events_per_s": "1/s",
    "service.arrivals_s": "s",
    "core.pooled_plan_us": "us",
    "serve.warm_slots_us": "us",
    "serve.commit_us": "us",
    "serve.reclaim_us": "us",
    "serve.fold_us": "us",
    "serve.pool_size_max": "count",
    "serve.hit_rate": "ratio",
    "serve.submissions": "count",
    "serve.wire_parse_us": "us",
    "serve.submit_us": "us",
    "daemon.socket_wait_us": "us",
    "daemon.p50_us": "us",
    "daemon.p99_us": "us",
    "daemon.max_rps": "1/s",
    "daemon.late_p99_us": "us",
    "daemon.rates_invalid": "count",
    "kernel.probes": "count",
    "kernel.placements": "count",
    "kernel.schedules_built": "count",
    **{f"{layer}.self_s": "s" for layer in ("dag", "core", "sim", "exp", "obs", "service", "serve")},
    "unaccounted_frac": "ratio",
    "pass_s": "s",
    "failed_frac": "ratio",
}

CHILD_TIMEOUT_S = 170

# Set-up of the service workloads is a process start (milliseconds), so
# at least this many starts are sampled per repetition, spread over the
# run, and the median reported.
SETUP_SPAWNS = 2


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Child:
    """One finished child process: exit code, wall time, peak RSS, and
    `scale`, which turns its seconds into reference seconds (`cpus`)."""

    def __init__(self, code, wall_s, rss_mib, stdout, scale):
        self.code = code
        self.wall_s = wall_s
        self.rss_mib = rss_mib
        self.stdout = stdout
        self.scale = scale

    @property
    def ref_s(self):
        """The wall time in reference seconds."""
        return self.wall_s * self.scale

    def last_json(self):
        for line in reversed(self.stdout.splitlines()):
            if line.startswith("{"):
                try:
                    return json.loads(line)
                except ValueError:
                    return None
        return None


def alive(pid):
    try:
        return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
    except ChildProcessError:
        return False


class PeakRss(threading.Thread):
    """Samples a child's VmHWM every 10 ms until it exits.

    The kernel's own figure (`ru_maxrss` from wait4) also counts the
    memory of this Python process, which the child shares until it
    execs; VmHWM after the exec is the program's alone. Samples taken
    before the exec (the process still runs this interpreter) are
    skipped."""

    def __init__(self, pid, program):
        super().__init__(daemon=True)
        self.pid = pid
        self.program = Path(str(program)).name[:15]
        self.peak_kib = 0
        self.start()

    def run(self):
        status = f"/proc/{self.pid}/status"
        while alive(self.pid):
            try:
                fields = dict(
                    line.split(":", 1) for line in Path(status).read_text().splitlines()
                )
                if fields.get("Name", "").strip() == self.program:
                    hwm = int(fields.get("VmHWM", "0 kB").split()[0])
                    self.peak_kib = max(self.peak_kib, hwm)
            except (OSError, ValueError):
                pass
            time.sleep(0.01)


# Children not yet reaped; killed and reaped on the way out if a run
# aborts.
LIVE = set()


def spawn(args, out_path, cpu, stderr=subprocess.DEVNULL):
    """Start a child pinned to `cpu`."""
    out = open(out_path, "wb")
    proc = subprocess.Popen([str(a) for a in args], cwd=ROOT, stdout=out, stderr=stderr)
    LIVE.add(proc)
    out.close()
    os.sched_setaffinity(proc.pid, {cpu})
    proc.peak = PeakRss(proc.pid, args[0])
    return proc


# The probe: a fixed interpreter loop of PROBE_LOOPS iterations, and
# the time it takes on a reference CPU. REF_PROBE_S is close to the
# fastest probe times on a 2-vCPU Xeon VM with Python 3.11, so there
# reference seconds read close to wall seconds.
PROBE_LOOPS = 300_000
REF_PROBE_S = 0.0125


def probe(cpu):
    """Seconds the probe loop takes on `cpu` now."""
    mine = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        started = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i
        return time.perf_counter() - started
    finally:
        os.sched_setaffinity(0, mine)


def cpus():
    """This process's CPUs as `(cpu, probe seconds)`, fastest first.

    On a shared machine a CPU's speed depends on what its neighbours
    run. One of two CPUs often runs the probe at half the speed of the
    other, and which one changes every few seconds. Over minutes the
    whole machine speeds up and slows down by up to 1.7x, and the probe
    with it. So every timed child is pinned to the CPU that is fastest
    when it starts, and its times are reported in reference seconds:
    seconds × REF_PROBE_S / (the probe's time on that CPU, averaged
    before and after the child). The open-loop daemon client spins, so
    it gets the other CPU; the closed-loop client shares the daemon's:
    a reply then costs a local context switch, not a cross-CPU wake-up,
    whose price changes from run to run."""
    return sorted(((cpu, probe(cpu)) for cpu in sorted(os.sched_getaffinity(0))),
                  key=lambda pin: pin[1])


def scale(pin):
    """Reference seconds per second on `pin`'s CPU: the probe's time
    before the child (`pin[1]`) and now, averaged."""
    cpu, before = pin
    return REF_PROBE_S / ((before + probe(cpu)) / 2)


def reap(proc, started, out_path, pin):
    """Wait for `proc` (killing it after CHILD_TIMEOUT_S) and collect it."""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - started
    proc.peak.join()
    _, status, _ = os.wait4(proc.pid, 0)
    LIVE.discard(proc)
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = Path(out_path).read_text(errors="replace")
    return Child(proc.returncode, wall, proc.peak.peak_kib / 1024.0, stdout, scale(pin))


def run(args, pin=None, stderr=subprocess.DEVNULL):
    """Run a child to the end, pinned to `pin`'s CPU (default: the
    fastest now)."""
    out_path = WORK / "child.out"
    pin = cpus()[0] if pin is None else pin
    started = time.perf_counter()
    return reap(spawn(args, out_path, pin[0], stderr), started, out_path, pin)


def log_wall(b, pairs):
    """Log the median wall time of `(wall s, reference s)` pairs beside
    the median reference time."""
    wall = statistics.median(w for w, _ in pairs)
    ref = statistics.median(r for _, r in pairs)
    log(f"{b.workload} seed {b.seed}: run_s median {wall:.4f} s wall, {ref:.4f} reference s")


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Bench:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        """Count one checked operation, failed unless `ok`."""
        self.count(1, 0 if ok else 1, what)
        return ok

    def count(self, n, failed, what):
        """Count `n` operations of which `failed` failed."""
        self.attempted += n
        self.failed += failed
        if failed:
            log(f"{self.workload} seed {self.seed}: FAILED: {failed} of {n} {what}")

    def check_digest(self, text, digests):
        """Pin or cross-check the workload's output digest."""
        d = sha(text.strip())
        log(f"{self.workload} seed {self.seed}: output sha256 {d}")
        pinned = PINNED[self.workload].get(self.seed)
        if pinned is not None:
            self.check(d == pinned, f"output digest {d} != pinned {pinned}")
        if digests:
            self.check(d == digests[0], "output differs between repetitions")
        digests.append(d)

    def repeat(self, once, min_reps, seconds=None):
        """Call `once()` until `seconds` (default `--seconds`) have passed,
        at least `min_reps` times."""
        start = time.perf_counter()
        seconds = self.seconds if seconds is None else seconds
        n = 0
        while n < min_reps or time.perf_counter() - start < seconds:
            once()
            n += 1

    def gen(self, what, name, *extra):
        path = WORK / name
        child = run([BENCH, what, "--seed", self.seed, "--out", path, *extra])
        if child.code != 0:
            raise SystemExit(f"perfbench: input generator {what} failed")
        return path

    def setup_s(self, doc, reps):
        """`reps` timed set-ups of the document, in one child process."""
        child = run([BENCH, "setup", "--doc", doc, "--reps", reps])
        doc_json = child.last_json()
        ok = self.check(child.code == 0 and doc_json is not None, "setup failed")
        return [t * child.scale for t in doc_json["setup_s"]] if ok else [child.ref_s]

    def check_csv(self, csv):
        lines = csv.strip().splitlines()
        ok = bool(lines) and lines[0] == "strategy,makespan_s,cost_usd,vms,gain_pct,loss_pct"
        rows = [line.split(",") for line in lines[1:]]
        ok = ok and [r[0] for r in rows] == LABELS
        try:
            ok = ok and all(
                len(r) == 6
                and float(r[1]) > 0
                and float(r[2]) > 0
                and int(r[3]) >= 1
                and all(math.isfinite(float(x)) for x in r[1:])
                for r in rows
            )
            base = rows[LABELS.index("OneVMperTask-s")]
            ok = ok and float(base[4]) == 0 and float(base[5]) == 0
        except (ValueError, IndexError):
            ok = False
        return self.check(ok, "sweep CSV is malformed")


# --- sweep-cybershake-traced -------------------------------------------------


def sweep_doc(b):
    return b.gen("gen-cybershake", "cybershake.json")


def sweep_e2e(b):
    doc = sweep_doc(b)
    setups, sweeps, rss, digests, report_s, events = [], [], [], [], [], []
    trace = WORK / "sweep.trace"

    def once():
        setups.extend(b.setup_s(doc, 3))
        args = [EXP, "sweep", "--workflow", doc, "--threads", 1, "--format", "csv"]
        child = run(args + ["--trace", trace, "--metrics", "--manifest"])
        sweeps.append(child)
        rss.append(child.rss_mib)
        if b.check(child.code == 0, f"cws-exp sweep exited {child.code}"):
            b.check_csv(child.stdout)
            b.check_digest(child.stdout, digests)
        err = WORK / "report.err"
        with open(err, "wb") as f:
            report = run([EXP, "trace-report", trace, "--check"], stderr=f)
        report_s.append(report.ref_s)
        b.check(report.code == 0, "trace-report --check failed")
        n = parse_events(err.read_text(errors="replace"))
        b.check(n > 0, "the traced sweep wrote no events")
        events.append(n)

    b.repeat(once, 3)
    log_wall(b, [(c.wall_s, c.ref_s) for c in sweeps])
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(c.ref_s for c in sweeps),
        "peak_rss_mib": statistics.median(rss),
        "rate_per_s": statistics.median(events) / statistics.median(report_s),
    }


def parse_events(stderr):
    """Event count from `trace-report --check`'s "OK — ... (N events" line."""
    for line in stderr.splitlines():
        if "(" in line and " events" in line:
            try:
                return int(line.split("(")[1].split(" events")[0])
            except ValueError:
                return 0
    return 0


def sweep_layers(b):
    doc = sweep_doc(b)
    csv = WORK / "layers.csv"
    child = run(
        [BENCH, "layers-sweep", "--doc", doc, "--csv", csv, "--trace", WORK / "layers.trace"]
    )
    metrics = child.last_json()
    if not b.check(child.code == 0 and metrics is not None, "layers-sweep failed"):
        return {}
    text = csv.read_text()
    b.check_csv(text)
    b.check_digest(text, [])
    b.check(metrics.get("obs.trace_events", 0) > 0, "the traced sweep wrote no events")
    return metrics


# --- serve-warm-pool --------------------------------------------------------


def serve_e2e(b):
    setups, batches, rss, rates, digests = [], [], [], [], []

    def once():
        for _ in range(SETUP_SPAWNS):
            setups.append(run([BENCH, "serve", "--seed", b.seed, "--hours", 0]).ref_s)
        child = run([BENCH, "serve", "--seed", b.seed, "--hours", SERVE_HOURS])
        batches.append(child)
        rss.append(child.rss_mib)
        summary = child.last_json()
        if b.check(child.code == 0 and summary is not None, "serve failed"):
            b.check_digest(json.dumps(summary, sort_keys=True), digests)
            b.check(
                summary["hit_rate"] >= SERVE_HIT_FLOOR,
                f"hit rate {summary['hit_rate']} under the floor {SERVE_HIT_FLOOR}",
            )
            rates.append(summary["workflows"] / child.ref_s)

    b.repeat(once, 2)
    log_wall(b, [(c.wall_s, c.ref_s) for c in batches])
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(c.ref_s for c in batches),
        "peak_rss_mib": statistics.median(rss),
        "rate_per_s": statistics.median(rates) if rates else 1.0 / max(c.ref_s for c in batches),
    }


def serve_layers(b):
    child = run([BENCH, "layers-serve", "--seed", b.seed, "--hours", SERVE_HOURS])
    metrics = child.last_json()
    if not b.check(child.code == 0 and metrics is not None, "layers-serve failed"):
        return {}
    b.check(
        metrics["serve.hit_rate"] >= SERVE_HIT_FLOOR,
        f"hit rate {metrics['serve.hit_rate']} under the floor {SERVE_HIT_FLOOR}",
    )
    b.check(
        metrics["serve.pool_size_max"] >= SERVE_POOL_FLOOR,
        f"pool peaked at {metrics['serve.pool_size_max']} machines",
    )
    return metrics


# --- daemon-open-loop -------------------------------------------------------


class Daemon:
    """`cws-exp serve --listen` on a unix socket inside the work dir."""

    # Relative to the checkout: a unix socket path may not exceed 107
    # bytes, however deep the checkout sits.
    SOCK = ".perfbench_work/daemon.sock"

    def __init__(self, b, pin):
        if os.path.exists(self.SOCK):
            os.unlink(self.SOCK)
        self.out = WORK / "daemon.out"
        self.started = time.perf_counter()
        self.proc = spawn(
            [EXP, "serve", "--listen", self.SOCK, "--seed", b.seed],
            self.out,
            pin[0],
            stderr=subprocess.PIPE,
        )
        # The daemon announces itself on stderr once its socket is bound;
        # a blocking read wakes the moment it does. The pipe stays open
        # until the daemon exits.
        watchdog = threading.Timer(10, self.proc.kill)
        watchdog.start()
        line = self.proc.stderr.readline()
        watchdog.cancel()
        ready_s = time.perf_counter() - self.started
        self.pin = pin
        self.ready_s = ready_s * scale(pin) if b"listening" in line else None

    def shutdown(self):
        """Send `shutdown` ourselves; returns the reply line."""
        with socket.socket(socket.AF_UNIX) as s:
            s.settimeout(10)
            s.connect(self.SOCK)
            s.sendall(b'{"cmd":"shutdown"}\n')
            return s.makefile().readline()

    def reap(self):
        """Collect the daemon, killing it if it has not exited in 10 s."""
        deadline = time.perf_counter() + 10
        while alive(self.proc.pid) and time.perf_counter() < deadline:
            time.sleep(0.001)
        if alive(self.proc.pid):
            self.proc.kill()
        child = reap(self.proc, self.started, self.out, self.pin)
        self.proc.stderr.close()
        return child


def daemon_run(b):
    """Set-up, open-loop rates and closed-loop passes; returns the
    end-to-end metrics, the open-loop tallies by rate, the number of
    invalid rates and the request file."""
    requests = b.gen("gen-requests", "requests.jsonl", "--count", DAEMON_REQUESTS)
    child = run([BENCH, "daemon-expect", "--requests", requests, "--seed", b.seed])
    expected = child.stdout.strip()
    b.check(child.code == 0 and expected.startswith('{"ok":true'), "daemon-expect failed")
    b.check_digest(expected, [])

    setups, rss = [], []

    def setup():
        d = Daemon(b, cpus()[0])
        if b.check(d.ready_s is not None, "daemon never accepted a connection"):
            setups.append(d.ready_s)
            b.check(d.shutdown().startswith('{"ok":true'), "shutdown refused")
        d.reap()

    def phase(mode, open_loop):
        pins = cpus()
        fast, other = pins[0], pins[1 % len(pins)]
        d = Daemon(b, fast)
        if d.ready_s is None:
            b.count(DAEMON_REQUESTS, DAEMON_REQUESTS, "requests refused")
            d.reap()
            return None
        final = WORK / "final.json"
        client = run(
            [BENCH, "client", "--sock", Daemon.SOCK, "--requests", requests, "--final", final]
            + mode,
            pin=other if open_loop else fast,
        )
        daemon = d.reap()
        rss.append(daemon.rss_mib)
        tally = client.last_json()
        if not b.check(client.code == 0 and tally is not None, "daemon client failed"):
            return None
        lost = int(tally["sent"] - tally["replied"])
        b.count(DAEMON_REQUESTS, lost + int(tally["errors"]), "requests unanswered or refused")
        b.check(daemon.code == 0, f"daemon exited {daemon.code}")
        b.check(final.read_text().strip() == expected, "final report differs from ServeCore's")
        tally["ref_s"] = tally["wall_s"] * client.scale
        return tally

    def passes(rate, t):
        if t is None:
            return False
        if t["late_p50_us"] > DAEMON_LATE_LIMIT_US:
            log(f"rate {rate}/s invalid: the client ran {t['late_p50_us']:.0f} us late")
            return None
        return t["p99_us"] < DAEMON_P99_LIMIT_US and t["tail_p50_us"] < DAEMON_BACKLOG_LIMIT_US

    # A rate that misses is measured once more: one stall of the machine
    # must not decide the run.
    started = time.perf_counter()
    rates, passing, invalid = {}, [], 0
    for rate in DAEMON_RATES:
        for attempt in range(2):
            rates[rate] = phase(["--rate", rate], True)
            verdict = passes(rate, rates[rate])
            if verdict:
                passing.append(rate)
                break
            log(f"rate {rate}/s missed (attempt {attempt + 1})")
        invalid += verdict is None
    closed = []
    rest = b.seconds - (time.perf_counter() - started)

    def once():
        setup()
        closed.append(phase(["--window", DAEMON_WINDOW], False))

    b.repeat(once, SETUP_SPAWNS, rest)
    closed = [t for t in closed if t is not None]
    if closed:
        log_wall(b, [(t["wall_s"], t["ref_s"]) for t in closed])

    if b.check(bool(passing), "no open-loop rate kept its p99 under the limit"):
        max_rps = rates[max(passing)]["achieved_rps"]
    else:
        max_rps = min((t["achieved_rps"] for t in rates.values() if t), default=1.0)
    e2e = {
        "setup_s": statistics.median(setups) if setups else 10.0,
        "run_s": statistics.median(t["ref_s"] for t in closed) if closed else 1e3,
        "peak_rss_mib": statistics.median(rss) if rss else 0.0,
        "rate_per_s": max_rps,
    }
    return e2e, rates, invalid, requests


def daemon_e2e(b):
    return daemon_run(b)[0]


def daemon_layers(b):
    e2e, rates, invalid, requests = daemon_run(b)
    child = run([BENCH, "layers-daemon", "--requests", requests, "--seed", b.seed])
    metrics = child.last_json()
    if not b.check(child.code == 0 and metrics is not None, "layers-daemon failed"):
        return {}
    ref = rates.get(DAEMON_REF_RATE) or {}
    metrics.update(
        {
            "daemon.p50_us": ref.get("p50_us", 0.0),
            "daemon.p99_us": ref.get("p99_us", 0.0),
            "daemon.late_p99_us": max((t["late_p99_us"] for t in rates.values() if t), default=0.0),
            "daemon.max_rps": e2e["rate_per_s"],
            "daemon.rates_invalid": invalid,
            "daemon.socket_wait_us": max(
                ref.get("p50_us", 0.0) - metrics["serve.wire_parse_us"] - metrics["serve.submit_us"],
                0.0,
            ),
        }
    )
    # The daemon's end-to-end time is a request's round trip (the median
    # at the reference rate): what parse and submit do not account for
    # is socket and scheduling wait.
    p50 = metrics["daemon.p50_us"]
    metrics["unaccounted_frac"] = metrics["daemon.socket_wait_us"] / p50 if p50 else 0.0
    return metrics


# --- main -------------------------------------------------------------------

E2E = {
    "sweep-cybershake-traced": sweep_e2e,
    "serve-warm-pool": serve_e2e,
    "daemon-open-loop": daemon_e2e,
}
LAYERS = {
    "sweep-cybershake-traced": sweep_layers,
    "serve-warm-pool": serve_layers,
    "daemon-open-loop": daemon_layers,
}


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise SystemExit("perfbench: run from the repository root (no Cargo.toml/crates here)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(TARGET))
    for cmd in (
        ["--manifest-path", "Cargo.toml", "-p", "cws-experiments", "--bin", "cws-exp"],
        ["--manifest-path", "perfbench/Cargo.toml"],
    ):
        proc = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *cmd],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: build failed: cargo build {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    b = Bench(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            measured = LAYERS[args.workload](b)
            units = PER_LAYER
        else:
            measured = E2E[args.workload](b)
            units = END_TO_END
    finally:
        for proc in LIVE:
            proc.kill()
            os.waitpid(proc.pid, 0)
        shutil.rmtree(WORK, ignore_errors=True)
    if args.trace:
        measured["failed_frac"] = b.failed / max(b.attempted, 1)
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    print(
        json.dumps(
            {
                "correct": b.failed == 0 and b.attempted > 0,
                "attempted": max(b.attempted, 1),
                "failed": b.failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
