"""Tests of run.py's bookkeeping that need no `wsnem` process.

    python3 -m unittest discover -s perfbench
"""

import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run
from common import CheckError


class FakeWorkload:
    name = "fleet-cold"

    def setup(self):
        pass


class TracedRunTest(unittest.TestCase):
    def test_failed_traced_pass_reports_only_its_error_rate(self):
        def failing_pass(wl, tally):
            return tally.record([1], lambda: None)

        def one_passing_invocation(wl, tally, seconds, minimum):
            tally.record([0], lambda: "digest")
            return [object()]

        with mock.patch.object(run, "traced_pass", failing_pass), \
                mock.patch.object(run, "measure", one_passing_invocation):
            tally, metrics, _ = run.run_traced(FakeWorkload(), 1.0)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(metrics, {"error_rate": (0.5, "fraction")})


class KernelCountTest(unittest.TestCase):
    def test_counts_are_compared_only_between_runs_of_the_same_sources(self):
        counts = {"petri.firings": 10, "des.events": 5}
        fewer = {"petri.firings": 9, "des.events": 5}
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(run, "WORK", Path(tmp)):
            with mock.patch.object(run, "source_digest", lambda: "a" * 64):
                run.check_kernel_counts(1, counts)
                run.check_kernel_counts(1, counts)
                with self.assertRaises(CheckError):
                    run.check_kernel_counts(1, fewer)
            with mock.patch.object(run, "source_digest", lambda: "b" * 64):
                run.check_kernel_counts(1, fewer)
            with mock.patch.object(run, "source_digest", lambda: "a" * 64):
                run.check_kernel_counts(2, fewer)


class CalibrationTest(unittest.TestCase):
    def test_one_round_pins_each_cpu_and_restores_the_affinity(self):
        pinned = []
        cal = run.Calibration()
        cal.cpus = [0, 1]
        with mock.patch.object(run.os, "sched_setaffinity", lambda pid, cpus: pinned.append(set(cpus))), \
                mock.patch.object(run, "calibration_burst", lambda: (0.02, 0.01)):
            cal.sample(0)
        self.assertEqual(pinned, [{0}, {1}, {0, 1}])
        self.assertEqual(len(cal.wall), 2)

    def test_scale_maps_burst_times_onto_the_reference_host(self):
        cal = run.Calibration()
        cal.wall = [2 * run.CALIB_REF_S] * 4
        cal.cpu = [run.CALIB_REF_S / 2] * 4
        self.assertEqual(cal.scale(), (0.5, 2.0))


if __name__ == "__main__":
    unittest.main()
