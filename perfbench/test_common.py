"""Tests of the benchmark harness's own logic.

    python3 -m unittest discover -s perfbench
"""

import json
import unittest
from collections import namedtuple

import common
from common import CheckError, Reference, Tally, Usage

HEADER = (
    "scenario,backend,sweep_axis,sweep_value,standby_frac,powerup_frac,idle_frac,active_frac,"
    "mean_power_mw,standby_mj,powerup_mj,idle_mj,active_mj,total_mj,energy_horizon_s,"
    "battery_lifetime_days,mean_jobs,mean_latency_s,eval_seconds,poisson_approximation,node,"
    "hop_depth,forwarded_rx_pkts_s,is_bottleneck_relay,radio_spec,radio_duty_cycle,"
    "radio_power_mw,scenario_elapsed_seconds"
)
FRACTIONS = {"Markov": (0.74, 0.0004, 0.2216, 0.038), "Des": (0.75, 0.0003, 0.2147, 0.035)}


def csv_report(eval_seconds, elapsed, active_markov=0.038):
    """A two-scenario fleet report whose timing columns are the arguments."""
    lines = [HEADER]
    for scenario in ("fleet-0001", "fleet-0002"):
        for backend, (s, p, i, a) in FRACTIONS.items():
            if backend == "Markov":
                a = active_markov
                i = 1.0 - s - p - a
            lines.append(
                f"{scenario},{backend},,,{s},{p},{i},{a},39.1,12613.8,74.7,19537.5,6871.8,39097.9,"
                f"1000,6.79,0.0369,,{eval_seconds},false,,,,,,,,{elapsed}"
            )
    return "\n".join(lines) + "\n"


def json_report():
    """The same fleet as `wsnem run --format json` renders it."""
    reports = []
    for scenario in ("fleet-0001", "fleet-0002"):
        backends = []
        for backend, (s, p, i, a) in FRACTIONS.items():
            backends.append({
                "backend": backend,
                "fractions": {"standby": s, "powerup": p, "idle": i, "active": a},
                "mean_power_mw": 39.1,
                "energy": {"standby_mj": 12613.8, "powerup_mj": 74.7, "idle_mj": 19537.5,
                           "active_mj": 6871.8, "total_mj": 39097.9, "time_s": 1000.0},
                "battery_lifetime_days": 6.79,
                "mean_jobs": 0.0369,
                "mean_latency": None,
                "eval_seconds": 0.5,
                "poisson_approximation": False,
            })
        reports.append({"scenario": scenario, "backends": backends, "elapsed_seconds": 3.0,
                        "phase_seconds": {"base_seconds": 2.0}})
    return json.loads(json.dumps({"batch": {"wall_seconds": 0.1}, "reports": reports}))


def digest(csv_text):
    rows = common.fleet_rows_from_csv(csv_text)
    return common.check_fleet_rows(rows, 2, ("Markov", "Des"))


class SelfTimeTest(unittest.TestCase):
    def spans(self):
        def span(id, parent, name, start, end):
            return {"id": id, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
        return [
            span(1, 0, "fleet-cold", 0, 100),
            span(2, 1, "files.parse", 10, 40),
            span(3, 2, "analysis.preflight", 15, 20),
            span(4, 1, "fleetd.worker", 30, 60),  # overlaps its sibling
            span(5, 0, "mega-tree", 200, 300),
            span(6, 5, "files.parse", 210, 220),
        ]

    def test_self_time_subtracts_children_once(self):
        own = common.self_times(self.spans())
        self.assertAlmostEqual(own[1] * 1e9, 100 - 50)  # children cover 10..60
        self.assertAlmostEqual(own[2] * 1e9, 30 - 5)
        self.assertAlmostEqual(own[3] * 1e9, 5)
        self.assertAlmostEqual(own[4] * 1e9, 30)

    def test_segment_keeps_only_its_subtree(self):
        root, members = common.segment(self.spans(), "fleet-cold")
        self.assertEqual(root["id"], 1)
        self.assertEqual(sorted(s["id"] for s in members), [1, 2, 3, 4])
        by_name = common.self_time_by_name(members)
        self.assertAlmostEqual(by_name["files.parse"] * 1e9, 25)
        self.assertAlmostEqual(common.covered_seconds(root, members) * 1e9, 50)

    def test_missing_segment_is_an_error(self):
        with self.assertRaises(CheckError):
            common.segment(self.spans(), "fleet-dist")


class DigestTest(unittest.TestCase):
    def test_cold_and_warm_csv_share_a_digest(self):
        cold = csv_report(eval_seconds=0.0017, elapsed=0.0021)
        warm = csv_report(eval_seconds=1.5e-05, elapsed=0.0099)
        self.assertNotEqual(cold, warm)
        self.assertEqual(digest(cold), digest(warm))

    def test_json_report_matches_csv_digest(self):
        rows = common.fleet_rows_from_json(json_report())
        self.assertEqual(common.check_fleet_rows(rows, 2, ("Markov", "Des")),
                         digest(csv_report(0.1, 0.2)))

    def test_a_changed_result_changes_the_digest(self):
        self.assertNotEqual(digest(csv_report(0.1, 0.2)), digest(csv_report(0.1, 0.2, active_markov=0.039)))

    def test_fractions_must_sum_to_one(self):
        bad = csv_report(0.1, 0.2).replace("fleet-0002,Des,,,0.75", "fleet-0002,Des,,,0.76")
        with self.assertRaises(CheckError):
            digest(bad)

    def test_missing_scenario_is_an_error(self):
        text = "\n".join(line for line in csv_report(0.1, 0.2).splitlines() if "fleet-0002" not in line)
        with self.assertRaises(CheckError):
            digest(text)

    def test_aggregate_histogram_must_count_every_node(self):
        agg = {k: 0 for k in common.AGGREGATE_FIELDS}
        agg.update(node_count=10, lifetime_histogram=[{"count": 4}, {"count": 6}])
        common.aggregate_digest(agg, 10)
        agg["lifetime_histogram"][0]["count"] = 3
        with self.assertRaises(CheckError):
            common.aggregate_digest(agg, 10)

    def test_check_digest_ignores_file_paths(self):
        def doc(path):
            return {"checked": 1, "counts": {"errors": 0},
                    "diagnostics": [{"code": "I001", "severity": "info", "message": "m",
                                     "location": {"file": path, "scenario": "s"}}]}
        self.assertEqual(common.check_digest(doc("a/f.toml"), 1), common.check_digest(doc("b/f.toml"), 1))
        failing = doc("a/f.toml")
        failing["counts"]["errors"] = 1
        with self.assertRaises(CheckError):
            common.check_digest(failing, 1)


class FailureCountTest(unittest.TestCase):
    def test_nonzero_exit_fails_without_running_the_check(self):
        t = Tally()
        ran = []
        self.assertIsNone(t.record([0, 0, 1], lambda: ran.append(1)))
        self.assertEqual((t.attempted, t.failed, ran), (1, 1, []))

    def test_wrong_output_fails(self):
        t = Tally()
        ref = Reference(digest(csv_report(0.1, 0.2)))
        self.assertIsNotNone(t.record([0], lambda: ref.match(digest(csv_report(0.3, 0.4)), "fleet")))
        corrupted = csv_report(0.1, 0.2, active_markov=0.039)
        self.assertIsNone(t.record([0], lambda: ref.match(digest(corrupted), "fleet")))
        self.assertIsNone(t.record([0], lambda: digest("")))
        self.assertEqual((t.attempted, t.failed), (3, 2))

    def test_unrecorded_reference_takes_the_first_digest(self):
        ref = Reference()
        ref.match("a" * 64, "fleet")
        self.assertFalse(ref.pinned)
        with self.assertRaises(CheckError):
            ref.match("b" * 64, "fleet")


class UsageTest(unittest.TestCase):
    RUsage = namedtuple("RUsage", "ru_utime ru_stime ru_maxrss")

    def test_rusage_converts_to_cpu_seconds_and_megabytes(self):
        u = Usage.from_rusage(self.RUsage(1.25, 0.5, 118_000))
        self.assertAlmostEqual(u.cpu_s, 1.75)
        self.assertAlmostEqual(u.peak_rss_mb, 118_000 / 1024)

    def test_processes_add_cpu_and_keep_the_largest_peak(self):
        coordinator = Usage.from_rusage(self.RUsage(0.5, 0.1, 30_000))
        worker = Usage.from_rusage(self.RUsage(2.0, 0.2, 20_000))
        total = Usage() + coordinator + worker
        self.assertAlmostEqual(total.cpu_s, 2.8)
        self.assertAlmostEqual(total.peak_rss_mb, 30_000 / 1024)

    def test_cpu_model_from_proc_cpuinfo(self):
        text = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\n"
        self.assertEqual(common.cpu_model(text), "Intel(R) Xeon(R) Processor")
        self.assertEqual(common.cpu_model(""), "unknown")


class InterdecileMeanTest(unittest.TestCase):
    def test_drops_the_lowest_and_highest_tenth(self):
        values = [100.0] + [1.0] * 9 + [2.0] * 9 + [0.0]
        self.assertEqual(common.interdecile_mean(values), 1.5)

    def test_fewer_than_ten_values_give_the_plain_mean(self):
        self.assertEqual(common.interdecile_mean([1.0, 2.0, 6.0]), 3.0)
        self.assertEqual(common.interdecile_mean([]), 0.0)

    def test_follows_the_share_of_each_regime(self):
        fast, slow = [0.6] * 12, [0.9] * 8
        # 20 values: two of each end are dropped, 16 remain.
        self.assertAlmostEqual(common.interdecile_mean(fast + slow), (10 * 0.6 + 6 * 0.9) / 16)
        self.assertAlmostEqual(common.interdecile_mean(fast[:8] + slow + [0.9] * 4), (6 * 0.6 + 10 * 0.9) / 16)


if __name__ == "__main__":
    unittest.main()
