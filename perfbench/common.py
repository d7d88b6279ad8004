"""Pure helpers of the wsnem benchmark: output normalization and digests,
span self times, resource usage, failure counting and machine facts.

Nothing here starts a process; `run.py` does that. `test_common.py`
covers these functions.
"""

import hashlib
import json
import statistics

# The per-evaluation result columns of `wsnem run --format csv`, and where
# each lives in a `--format json` backend report. The wall-clock fields
# (`eval_seconds`, `scenario_elapsed_seconds`, `phase_seconds`,
# `elapsed_seconds`, `batch`) differ on every invocation and are left out.
RESULT_FIELDS = (
    ("standby_frac", ("fractions", "standby")),
    ("powerup_frac", ("fractions", "powerup")),
    ("idle_frac", ("fractions", "idle")),
    ("active_frac", ("fractions", "active")),
    ("mean_power_mw", ("mean_power_mw",)),
    ("standby_mj", ("energy", "standby_mj")),
    ("powerup_mj", ("energy", "powerup_mj")),
    ("idle_mj", ("energy", "idle_mj")),
    ("active_mj", ("energy", "active_mj")),
    ("total_mj", ("energy", "total_mj")),
    ("energy_horizon_s", ("energy", "time_s")),
    ("battery_lifetime_days", ("battery_lifetime_days",)),
    ("mean_jobs", ("mean_jobs",)),
    ("mean_latency_s", ("mean_latency",)),
    ("poisson_approximation", ("poisson_approximation",)),
)

# Fields of a `network_aggregate` report that the digest covers.
AGGREGATE_FIELDS = (
    "node_count",
    "first_death_days",
    "mean_lifetime_days",
    "total_power_mw",
    "sink_arrival_pkts_s",
    "max_hop_depth",
    "bottleneck",
    "bottleneck_relay",
    "hop_depth_percentiles",
    "lifetime_histogram",
    "worst_lifetime_cohort",
    "near_unstable_count",
)


class CheckError(Exception):
    """An output that fails its workload's check."""


def _value(v):
    """One normalized result value: numbers by their exact float value,
    missing values empty, booleans lower-case."""
    if v is None or v == "":
        return ""
    if isinstance(v, bool) or v in ("true", "false"):
        return str(v).lower()
    return repr(float(v))


def _sha(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fleet_rows_from_csv(text):
    """Backend rows of a `wsnem run --format csv` report, timing columns
    dropped, as `(scenario, backend, values...)` tuples."""
    lines = text.splitlines()
    if not lines:
        raise CheckError("empty CSV report")
    header = lines[0].split(",")
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c, _ in RESULT_FIELDS if c not in index]
    if missing or "scenario" not in index or "backend" not in index:
        raise CheckError(f"CSV header lacks {missing or 'scenario/backend'}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckError(f"CSV row has {len(cells)} cells, header {len(header)}")
        rows.append(
            (cells[index["scenario"]], cells[index["backend"]])
            + tuple(_value(cells[index[c]]) for c, _ in RESULT_FIELDS)
        )
    return rows


def fleet_rows_from_json(doc):
    """The same rows from a `wsnem run --format json` envelope."""
    rows = []
    for report in doc["reports"]:
        for b in report["backends"]:
            values = []
            for _, path in RESULT_FIELDS:
                v = b
                for key in path:
                    v = v[key]
                values.append(_value(v))
            rows.append((report["scenario"], b["backend"]) + tuple(values))
    return rows


def check_fleet_rows(rows, scenarios, backends):
    """Structural check of a fleet report: every scenario once per backend,
    state fractions summing to one. Returns the rows' digest."""
    seen = {}
    for row in rows:
        seen.setdefault(row[0], []).append(row[1])
        total = sum(float(x) for x in row[2:6])
        if abs(total - 1.0) > 1e-6:
            raise CheckError(f"{row[0]}/{row[1]}: fractions sum to {total}")
    if len(seen) != scenarios:
        raise CheckError(f"report covers {len(seen)} scenarios, expected {scenarios}")
    for name, got in seen.items():
        if sorted(got) != sorted(backends):
            raise CheckError(f"{name}: backends {got}, expected {list(backends)}")
    return _sha(rows)


def aggregate_digest(aggregate, nodes):
    """Check and digest a `network_aggregate` report: its lifetime histogram
    must count every node exactly once."""
    counted = sum(b["count"] for b in aggregate["lifetime_histogram"])
    if aggregate["node_count"] != nodes or counted != nodes:
        raise CheckError(
            f"aggregate counts {aggregate['node_count']} nodes, histogram {counted}, "
            f"expected {nodes}"
        )
    return _sha({k: aggregate[k] for k in AGGREGATE_FIELDS})


def check_digest(doc, targets):
    """Check and digest a `wsnem check --format json` report. File paths are
    left out, so the digest does not depend on where the fleet lives; the
    digest covers every diagnostic, so an equal digest means an equal count."""
    if doc["checked"] != targets:
        raise CheckError(f"checked {doc['checked']} targets, expected {targets}")
    if doc["counts"]["errors"] != 0:
        raise CheckError(f"check reported {doc['counts']['errors']} error(s)")
    diags = [
        (d["code"], d["severity"], d["location"].get("scenario"), d["location"].get("field"), d["message"])
        for d in doc["diagnostics"]
    ]
    return _sha(diags)


def self_times(spans):
    """Self time of each span in seconds, keyed by id: its duration minus
    the part of its interval that its child spans cover. Concurrent children
    that overlap count once."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = start
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start - covered) / 1e9
    return out


def segment(spans, root_name):
    """The root span named `root_name` and every span below it."""
    roots = [s for s in spans if s["name"] == root_name and s["parent"] == 0]
    if len(roots) != 1:
        raise CheckError(f"trace has {len(roots)} `{root_name}` root spans")
    below = {roots[0]["id"]}
    members = [roots[0]]
    for s in sorted(spans, key=lambda s: s["id"]):
        if s["parent"] in below:
            below.add(s["id"])
            members.append(s)
    return roots[0], members


def self_time_by_name(spans):
    """Summed self time in seconds of each span name."""
    own = self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
    return out


def covered_seconds(root, spans):
    """Seconds of the root's interval covered by its direct children."""
    return (root["end_ns"] - root["start_ns"]) / 1e9 - self_times(spans)[root["id"]]


class Usage:
    """CPU time and peak resident memory of one or more finished processes,
    from the `rusage` that `os.wait4` returns."""

    def __init__(self, cpu_s=0.0, peak_rss_mb=0.0):
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb

    @classmethod
    def from_rusage(cls, ru):
        # Linux reports ru_maxrss in KiB.
        return cls(ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)

    def __add__(self, other):
        """Processes of one invocation: CPU adds up, memory is the largest
        process's peak."""
        return Usage(self.cpu_s + other.cpu_s, max(self.peak_rss_mb, other.peak_rss_mb))


class Tally:
    """Attempted and failed invocations. An invocation fails when any of its
    processes exits non-zero or its output fails the workload's check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, exit_codes, check):
        """Count one invocation; `check` runs only when every process exited
        0. Returns the check's result, or None when the invocation failed."""
        self.attempted += 1
        try:
            bad = [c for c in exit_codes if c != 0]
            if bad:
                raise CheckError(f"exit code(s) {bad}")
            return check()
        except (CheckError, OSError, ValueError, KeyError, TypeError) as e:
            self.failed += 1
            self.errors.append(f"{type(e).__name__}: {e}")
            return None


class Reference:
    """The digest each output must match: the one recorded for the seed
    when there is one, else the first digest this run saw."""

    def __init__(self, pinned=None):
        self.value = pinned
        self.pinned = pinned is not None

    def match(self, digest, what):
        if self.value is None:
            self.value = digest
        elif digest != self.value:
            source = "recorded for this seed" if self.pinned else "of the first output"
            raise CheckError(f"{what} digest {digest[:12]} differs from the one {source} {self.value[:12]}")
        return digest


def median(values):
    """Median, or 0 for no values (a run with no passing invocation reports
    `correct: false` with zeroed metrics)."""
    return statistics.median(values) if values else 0.0


def interdecile_mean(values):
    """Mean of the values left after dropping the lowest and the highest
    tenth (rounded down), or 0 for no values. On a host that switches
    between speed regimes lasting seconds, it follows the share of time
    spent in each, where a median jumps from one regime's value to
    another's."""
    if not values:
        return 0.0
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def cpu_model(cpuinfo_text):
    """The CPU model name from /proc/cpuinfo text."""
    for line in cpuinfo_text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("model name", "Processor", "cpu model"):
            return value.strip()
    return "unknown"
