#!/usr/bin/env python3
"""End-to-end benchmark of the `wsnem` CLI.

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the release `wsnem` binary and the
traced-pass helper (`perfbench/trace`) into `$CARGO_TARGET_DIR` (default
`.bench_build`), generates the workload's inputs from `--seed` under
`.perfbench/`, then drives `wsnem` as a subprocess, one invocation at a
time, for `--seconds` seconds. Every output is checked; the last stdout
line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced in-process pass. See perfbench/README.md.
"""

import argparse
import functools
import hashlib
import itertools
import json
import os
import platform
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402
from common import CheckError, Reference, Tally, Usage, interdecile_mean, median  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
TRASH = WORK / "trash"
TARGET = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WSNEM = TARGET / "release" / "wsnem"
TRACER = TARGET / "release" / "perfbench-trace"

NPROC = os.cpu_count() or 1
WORKERS = min(2, NPROC)
FLEET_SIZE = 1000
FLEET_BACKENDS = ("Markov", "PetriNet", "Des")
MEGA_NODES = 1_000_000
# Set-up repeats: at least SETUP_MIN, then more until SETUP_SECONDS have
# been spent or SETUP_MAX were made; `setup_s` is their median.
SETUP_MIN = 3
SETUP_SECONDS = 1.0
SETUP_MAX = 31
MIN_INVOCATIONS = 3
TRACE_MIN_UNTRACED = 2
PROCESS_TIMEOUT_S = 120
ADDRESS_TIMEOUT_S = 30
# Host-speed calibration: a fixed pure-Python loop of CALIB_LOOPS steps,
# timed on each CPU in turn after every invocation for CALIB_SHARE of the
# invocation's wall time (at least one round). CALIB_REF_S is its median
# time per burst on the reference host (2-core Xeon VM), in wall and in CPU
# time alike; see `Calibration.scale`.
CALIB_LOOPS = 100_000
CALIB_SHARE = 0.1
CALIB_REF_S = 0.011

# The workloads, and which recorded digest each one's output must match.
DIGEST_KIND = {
    "fleet-cold": "fleet",
    "fleet-warm": "fleet",
    "fleet-dist": "fleet",
    "fleet-check": "check",
    "mega-tree": "mega",
}

# Metric names and units, as registered in BENCHMARK.json.
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Span self times behind the per-layer times: metric -> (segment, span name).
SPAN_METRICS = {
    "files.parse_s": ("fleet-warm", "files.parse"),
    "analysis.preflight_s": ("fleet-cold", "analysis.preflight"),
    "analysis.net_passes_s": ("fleet-check", "analysis.net_passes"),
    "cache.probe_s": ("fleet-warm", "cache.probe"),
    "cache.store_s": ("fleet-cold", "cache.store"),
    "core.solve_s.PetriNet": ("solve-pass", "core.solve.PetriNet"),
    "core.solve_s.Des": ("solve-pass", "core.solve.Des"),
    "core.solve_s.Markov": ("solve-pass", "core.solve.Markov"),
    "core.solve_s.Mg1": ("solve-pass", "core.solve.Mg1"),
    "wsn.build_soa_s": ("mega-tree", "wsn.build_soa"),
    "wsn.routing_s": ("mega-tree", "wsn.routing"),
    "wsn.aggregate_s": ("mega-tree", "wsn.aggregate"),
    "report.csv_s": ("fleet-cold", "report.csv"),
    "report.json_s": ("fleet-warm", "report.json"),
}
# Counts the traced pass reports directly.
COUNT_METRICS = (
    "analysis.diagnostics",
    "cache.hit_ratio",
    "cache.entry_bytes",
    "core.solves",
    "petri.firings",
    "des.events",
    "runner.busy_s",
    "runner.utilization",
    "runner.workers",
    "fleetd.worker_busy_frac",
    "fleetd.shards_remote",
    "fleetd.reassigned",
    "fleetd.rejected_frames",
    "sim_err_pp",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build --


def build():
    """Build `wsnem` and the traced-pass helper; a no-op when up to date."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "wsnem-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "trace" / "Cargo.toml")],
    ):
        r = subprocess.run(cmd + ["--target-dir", str(TARGET)], cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            raise SystemExit(f"build failed: {' '.join(cmd)}")


# ------------------------------------------------------------ processes --


class Invocation:
    """One closed-loop invocation: its processes' exit codes, wall time
    from the first spawn to the last exit, and their combined usage."""

    def __init__(self):
        self.procs = []
        self.exit_codes = []
        self.usage = Usage()
        self.started = time.perf_counter()
        self.wall_s = None

    def spawn(self, args, stdout=None, stderr=None):
        with open(stdout or os.devnull, "wb") as out, open(stderr or os.devnull, "wb") as err:
            p = subprocess.Popen([str(a) for a in args], cwd=ROOT, stdout=out, stderr=err)
        self.procs.append(p)
        return p

    def finish(self):
        """Wait for every process and take its rusage; a process still
        running after PROCESS_TIMEOUT_S is killed (and fails)."""
        for p in self.procs:
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
            watchdog.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                watchdog.cancel()
            p.returncode = os.waitstatus_to_exitcode(status)
            self.exit_codes.append(p.returncode)
            self.usage = self.usage + Usage.from_rusage(ru)
        self.wall_s = time.perf_counter() - self.started
        return self

    def abort(self):
        for p in self.procs:
            if p.returncode is None:
                p.kill()
                p.wait()


def run_once(args, stdout=None, stderr=None):
    inv = Invocation()
    try:
        inv.spawn(args, stdout, stderr)
        return inv.finish()
    finally:
        inv.abort()


def must_succeed(inv, what):
    if any(c != 0 for c in inv.exit_codes):
        raise SystemExit(f"set-up step failed: {what} (exit {inv.exit_codes})")
    return inv


def read_json(path):
    with open(path) as f:
        return json.load(f)


# --------------------------------------------------------------- inputs --


def gen_fleet(dir, seed):
    """A 1000-scenario Latin-hypercube fleet around `paper-defaults`,
    written over the files of an earlier fleet in `dir` if there is one
    (the file names do not depend on the seed)."""
    dir.parent.mkdir(parents=True, exist_ok=True)
    must_succeed(
        run_once([WSNEM, "gen", dir, "--method", "lhs", "--count", FLEET_SIZE, "--seed", seed % 2**64,
                  "--field", "lambda=0.25:0.75", "--field", "service-mean=0.0625:0.125"]),
        "wsnem gen",
    )
    return dir


def template_text(seed):
    """The scale-smoke 10^6-node fanout-4 tree on `Mg1`, with its arrival
    and event rates drawn from the seed."""
    rng = random.Random(seed)
    lam = 0.75 + 0.5 * rng.random()
    event_rate_micro = 4.0 + 2.0 * rng.random()
    return f"""schema_version = 5
name = "mega-tree"
description = "Million-node collection tree on the analytic M/G/1 fast path"
profile = "Pxa271"
battery = "TwoAa"
backends = ["Mg1"]

[cpu]
lambda = {lam:.6f}
mu = 10.0
power_down_threshold = 0.5
power_up_delay = 0.001
horizon = 1000.0
warmup = 0.0
replications = 2
master_seed = 7

[report]
energy_horizon_s = 1000.0

[network]
nodes = []

[network.topology.Tree]
fanout = 4

[network.template]
count = {MEGA_NODES}
prefix = "n"
event_rate = {event_rate_micro:.6f}e-6
tx_per_event = 1.0
rx_rate = 0.0
"""


def write_template(path, seed):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(template_text(seed))
    must_succeed(run_once([WSNEM, "validate", path]), "wsnem validate")
    return path


def discard(path):
    """Move `path` into the trash, which `empty_trash` deletes at the end
    of the run. On a `discard`-mounted ext4, deleting a cache right before
    an invocation made the invocation's own cache writes 0.1-0.2 s slower,
    and deleting ten thousand files slows file creation for minutes."""
    if path.exists():
        TRASH.mkdir(parents=True, exist_ok=True)
        path.rename(TRASH / f"{time.time_ns()}-{path.name}")


def empty_trash():
    if TRASH.exists():
        shutil.rmtree(TRASH)
        os.sync()


def clear_cache(fleet):
    discard(fleet / ".wsnem-cache")


def settle():
    """Flush pending writes before a timed step, so it does not pay for the
    previous step's writeback."""
    os.sync()


# ---------------------------------------------------------------- checks --


def check_fleet_csv(path, ref):
    with open(path) as f:
        rows = common.fleet_rows_from_csv(f.read())
    return ref.match(common.check_fleet_rows(rows, FLEET_SIZE, FLEET_BACKENDS), "fleet")


def check_fleet_json(doc, ref):
    rows = common.fleet_rows_from_json(doc)
    return ref.match(common.check_fleet_rows(rows, FLEET_SIZE, FLEET_BACKENDS), "fleet")


def check_warm(doc, ref):
    if doc["cache"] != {"hits": FLEET_SIZE, "misses": 0}:
        raise CheckError(f"warm run cache stats {doc['cache']}")
    return check_fleet_json(doc, ref)


def check_dist(doc, ref):
    d = doc["distributed"] or {}
    expected = {"workers_seen": WORKERS, "shards_remote": FLEET_SIZE, "shards_local": 0,
                "reassigned": 0, "rejected_frames": 0, "fell_back_local": False}
    got = {k: d.get(k) for k in expected}
    if got != expected:
        raise CheckError(f"distributed stats {got}, expected {expected}")
    return check_fleet_json(doc, ref)


def check_check(doc, ref):
    return ref.match(common.check_digest(doc, FLEET_SIZE), "check")


def check_mega(aggregate, ref):
    return ref.match(common.aggregate_digest(aggregate, MEGA_NODES), "mega")


# ------------------------------------------------------------ workloads --


class Workload:
    """Set-up and one invocation of a workload. `setup` makes the inputs
    from the seed; `invoke` runs `wsnem` once and returns the invocation
    and a check to run on its output."""

    def __init__(self, name, work, seed, refs):
        self.name = name
        self.work = work
        self.seed = seed
        self.refs = refs
        self.count = 0

    def setup(self):
        """(Re)generate the inputs under `inputs/`, in place: a repeated
        set-up rewrites the same files rather than creating new ones."""
        inputs = self.work / "inputs"
        if self.name == "mega-tree":
            self.template = write_template(inputs / "mega.toml", self.seed)
            return
        self.fleet = gen_fleet(inputs / "fleet", self.seed)
        if self.name == "fleet-warm":
            clear_cache(self.fleet)
            out = self.work / "fill.csv"
            must_succeed(run_once([WSNEM, "run", self.fleet, "--threads", NPROC, "--format", "csv", "-o", out]),
                         "warm-cache fill")
            check_fleet_csv(out, self.refs["fleet"])

    def invoke(self):
        self.count += 1
        out = self.work / f"out-{self.count % 2}"
        err = self.work / f"err-{self.count % 2}"
        ref = self.refs[DIGEST_KIND[self.name]]
        if self.name in ("fleet-cold", "fleet-dist"):
            clear_cache(self.fleet)
        settle()
        if self.name == "fleet-cold":
            inv = run_once([WSNEM, "run", self.fleet, "--threads", NPROC, "--format", "csv", "-o", out], stderr=err)

            def check():
                if f"cache: 0 hit(s), {FLEET_SIZE} miss(es)" not in err.read_text():
                    raise CheckError("cold run did not miss every scenario")
                return check_fleet_csv(out, ref)
            return inv, check
        if self.name == "fleet-warm":
            inv = run_once([WSNEM, "run", self.fleet, "--format", "json", "-o", out])
            return inv, lambda: check_warm(read_json(out), ref)
        if self.name == "mega-tree":
            inv = run_once([WSNEM, "run", self.template, "--format", "json", "-o", out])
            return inv, lambda: check_mega(read_json(out)["reports"][0]["network_aggregate"], ref)
        if self.name == "fleet-check":
            inv = run_once([WSNEM, "check", self.fleet, "--format", "json"], stdout=out)
            return inv, lambda: check_check(read_json(out), ref)
        return self.invoke_dist(out, err), lambda: check_dist(read_json(out), ref)

    def invoke_dist(self, out, err):
        """Coordinator on an ephemeral loopback port plus worker processes;
        the wall clock runs from the coordinator's spawn to the last exit."""
        inv = Invocation()
        try:
            inv.spawn([WSNEM, "run", self.fleet, "--distributed", "127.0.0.1:0", "--threads", NPROC,
                       "--format", "json", "-o", out], stderr=err)
            # Poll the log rather than the process: reaping it here would
            # lose its rusage.
            deadline = time.perf_counter() + ADDRESS_TIMEOUT_S
            m = None
            while m is None and time.perf_counter() < deadline:
                text = err.read_text()
                if "error:" in text:
                    break
                m = re.search(r"serving \d+ scenario\(s\) on (\S+)", text)
                time.sleep(0.001)
            for i in range(WORKERS if m else 0):
                inv.spawn([WSNEM, "worker", m.group(1), "--name", f"perfbench-{i}"])
            return inv.finish()
        finally:
            inv.abort()


# ---------------------------------------------------------------- runs --


def load_refs(seed):
    pinned = read_json(BENCH / "pinned.json")["seeds"].get(str(seed), {})
    if not pinned:
        log(f"seed {seed} has no recorded digests; outputs are checked against each other")
    return {kind: Reference(pinned.get(kind)) for kind in ("fleet", "check", "mega")}


def calibration_burst():
    """Wall and CPU seconds of CALIB_LOOPS steps of a fixed integer loop;
    it touches no file and no code of the repository."""
    wall, cpu = time.perf_counter(), time.thread_time()
    x = 0
    for i in range(CALIB_LOOPS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - wall, time.thread_time() - cpu


class Calibration:
    """The host's speed while a run measures. The shared VM's speed drifts
    by tens of percent over minutes, in CPU time as much as in wall time,
    so a run's raw medians follow the host as much as the program. Bursts
    of a fixed loop, pinned to each CPU in turn and interleaved with the
    invocations, sample the same drift."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.wall = []
        self.cpu = []

    def sample(self, seconds):
        """Rounds of one burst per CPU, at least one, until `seconds` have
        been spent. The affinity is restored before anything else runs, so
        invocations are scheduled as usual."""
        started = time.perf_counter()
        try:
            while True:
                for c in self.cpus:
                    os.sched_setaffinity(0, {c})
                    wall, cpu = calibration_burst()
                    self.wall.append(wall)
                    self.cpu.append(cpu)
                if time.perf_counter() - started >= seconds:
                    break
        finally:
            os.sched_setaffinity(0, self.cpus)

    def scale(self):
        """Factors that turn this run's wall and CPU seconds into seconds on
        the reference host: CALIB_REF_S over the interdecile mean burst
        time. A burst that waits for its CPU is slow in wall time only, one
        on a CPU that runs slower is slow in both, and each factor follows
        its own clock."""
        return CALIB_REF_S / interdecile_mean(self.wall), CALIB_REF_S / interdecile_mean(self.cpu)


def measure(wl, tally, seconds, minimum, calibration=None):
    """Closed loop: one invocation at a time until `seconds` have passed
    and at least `minimum` were attempted, each followed by calibration
    bursts when `calibration` is given. Returns the passing invocations."""
    passed = []
    deadline = time.perf_counter() + seconds
    if calibration:
        calibration.sample(0)
    for n in itertools.count():
        if n >= minimum and time.perf_counter() >= deadline:
            break
        inv, check = wl.invoke()
        if tally.record(inv.exit_codes, check) is not None:
            passed.append(inv)
        if calibration:
            calibration.sample(CALIB_SHARE * inv.wall_s)
    return passed


def timed_setup(wl):
    settle()
    started = time.perf_counter()
    wl.setup()
    return time.perf_counter() - started


def run_untraced(wl, seconds):
    """One set-up, the measurement loop, then the rest of the set-ups.
    Only the first follows the previous run's end-of-run deletion, whose
    after-effect on file creation the median of the set-ups drops.
    `wall_s` and `cpu_s` are interdecile means scaled to the reference
    host by the calibration interleaved with the invocations; `setup_s`
    takes the wall-time factor too."""
    tally = Tally()
    setups = [timed_setup(wl)]
    calibration = Calibration()
    passed = measure(wl, tally, seconds, MIN_INVOCATIONS, calibration)
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
        setups.append(timed_setup(wl))
    wall = interdecile_mean([i.wall_s for i in passed])
    cpu = interdecile_mean([i.usage.cpu_s for i in passed])
    setup = median(setups)
    wall_scale, cpu_scale = calibration.scale()
    values = {
        "wall_s": wall * wall_scale,
        "cpu_s": cpu * cpu_scale,
        "peak_rss_mb": median([i.usage.peak_rss_mb for i in passed]),
        "setup_s": setup * wall_scale,
    }
    samples = {"invocations": len(passed), "setups": len(setups),
               "raw_wall_s": wall, "raw_cpu_s": cpu, "raw_setup_s": setup,
               "wall_scale": wall_scale, "cpu_scale": cpu_scale, "calibration_bursts": len(calibration.wall),
               "wall_s": [i.wall_s for i in passed], "cpu_s": [i.usage.cpu_s for i in passed],
               "setup_s": setups}
    return tally, {k: (v, END_TO_END[k]) for k, v in values.items()}, samples


def traced_pass(wl, tally):
    """Run the helper over this seed's fleet and template; check its
    outputs against the same references as the untraced outputs."""
    inputs = wl.work / "trace-in"
    fleet = gen_fleet(inputs / "fleet", wl.seed)
    template = write_template(inputs / "mega.toml", wl.seed)
    out = wl.work / "trace-out"
    inv = run_once([TRACER, "--fleet", fleet, "--template", template, "--threads", NPROC,
                    "--workers", WORKERS, "--out", out], stderr=wl.work / "trace-err")

    def check():
        refs = wl.refs
        check_fleet_csv(out / "cold.csv", refs["fleet"])
        check_warm(read_json(out / "warm.json"), refs["fleet"])
        check_dist(read_json(out / "dist.json"), refs["fleet"])
        check_check(read_json(out / "check.json"), refs["check"])
        check_mega(read_json(out / "mega.json"), refs["mega"])
        counts = read_json(out / "counts.json")
        check_kernel_counts(wl.seed, counts)
        with open(out / "spans.jsonl") as f:
            return [json.loads(line) for line in f], counts
    return tally.record(inv.exit_codes, check)


def check_kernel_counts(seed, counts):
    """Kernel event counts must repeat exactly from run to run of a seed on
    the same sources: the first such run in a checkout records them, later
    ones compare. A change to the sources starts a new record."""
    path = WORK / "kernel-counts" / f"{source_digest()[:16]}-seed-{seed}.json"
    got = {k: counts[k] for k in ("petri.firings", "des.events")}
    if path.exists():
        if read_json(path) != got:
            raise CheckError(f"kernel counts {got} differ from an earlier run's {read_json(path)}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(got))


def run_traced(wl, seconds):
    """The traced pass, then untraced invocations of the workload for the
    rest of `seconds`. A failed run reports only `error_rate`."""
    tally = Tally()
    wl.setup()
    started = time.perf_counter()
    traced = traced_pass(wl, tally)
    passed = measure(wl, tally, seconds - (time.perf_counter() - started), TRACE_MIN_UNTRACED)
    error_rate = tally.failed / tally.attempted
    if traced is None or not passed:
        return tally, {"error_rate": (error_rate, PER_LAYER["error_rate"])}, {}
    spans, counts = traced
    wall = median([i.wall_s for i in passed])
    values = layer_metrics(spans, counts, wl.name, wall)
    values["error_rate"] = error_rate
    samples = {"untraced_invocations": len(passed), "untraced_wall_s": wall}
    return tally, {name: (values[name], unit) for name, unit in PER_LAYER.items()}, samples


def layer_metrics(spans, counts, workload, untraced_wall):
    """Per-layer metrics from the traced pass's spans and counts."""
    by_segment = {}
    for seg in ("fleet-cold", "fleet-warm", "fleet-check", "fleet-dist", "mega-tree", "solve-pass", "kernel-pass"):
        by_segment[seg] = common.self_time_by_name(common.segment(spans, seg)[1])
    v = {m: by_segment[seg].get(name, 0.0) for m, (seg, name) in SPAN_METRICS.items()}
    v.update({m: counts[m] for m in COUNT_METRICS})
    mega = by_segment["mega-tree"]
    # analyze_with repeats the routing pass the separate routing call timed.
    v["wsn.node_eval_s"] = mega["wsn.node_eval"] - mega["wsn.routing"]
    v["wsn.ns_per_node"] = 1e9 * v["wsn.node_eval_s"] / counts["wsn.nodes"]
    kernels = by_segment["kernel-pass"]
    v["petri.ns_per_firing"] = 1e9 * kernels["petri.noop"] / counts["petri.firings"]
    v["des.ns_per_event"] = 1e9 * kernels["des.noop"] / counts["des.events"]
    v["report.bytes"] = counts["report.csv_bytes"] + counts["report.json_bytes"]
    root, members = common.segment(spans, workload)
    traced_s = (root["end_ns"] - root["start_ns"]) / 1e9
    v["cli.unattributed_s"] = untraced_wall - common.covered_seconds(root, members)
    v["trace_overhead_frac"] = traced_s / untraced_wall - 1.0
    return v


# -------------------------------------------------------------- context --


@functools.lru_cache(maxsize=None)
def source_digest():
    """SHA-256 over the sources `wsnem` and the traced-pass helper are built
    from, for checkouts that carry no git metadata."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for base in (ROOT / "crates", ROOT / "src", BENCH / "trace"):
        files += sorted(p for p in base.rglob("*") if p.is_file() and p.suffix in (".rs", ".toml"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def command_output(args):
    try:
        r = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


def context(seed):
    try:
        cpu = common.cpu_model(Path("/proc/cpuinfo").read_text())
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "seed": seed,
        "nproc": NPROC,
        "cpu": cpu,
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "-V"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=DIGEST_KIND)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    build()
    # Set aside the previous run's outputs but keep its inputs, which this
    # run's set-ups regenerate in place.
    work = WORK / a.workload
    work.mkdir(parents=True, exist_ok=True)
    for old in work.iterdir():
        if old.name != "inputs":
            discard(old)
    wl = Workload(a.workload, work, a.seed, load_refs(a.seed))
    run = run_traced if a.trace else run_untraced
    tally, metrics, samples = run(wl, a.seconds)
    empty_trash()

    for e in tally.errors:
        log(f"failed invocation: {e}")
    record = {"workload": a.workload, "trace": a.trace, "context": context(a.seed), "samples": samples,
              "pinned_seed": all(r.pinned for r in wl.refs.values()), "errors": tally.errors,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps(record, indent=2))
    log(json.dumps(record["context"]))
    for name, (value, unit) in metrics.items():
        log(f"  {name:<24} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
