#!/usr/bin/env python3
"""Hygiene test for the benchmark binary.

  python3 perfbench/test_hygiene.py

Runs every workload briefly (traced and untraced) from an empty working
directory and checks that the run:
  * writes nothing but its private temporary directory, which is gone
    after exit (and the trace file it was asked to write);
  * reports one live thread and no child processes at exit;
  * prints a correct result with no failed op.
"""
import json
import os
import pathlib
import shutil
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402

WORK = run.OUT / "hygiene"
WORKLOADS = ("paper_verdicts", "horizon_sweep", "synthesis", "cached_replay")


class Hygiene(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def setUp(self):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        self.tmp_root = WORK / "tmp"
        self.tmp_root.mkdir()

    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def run_workload(self, workload, trace):
        args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tmp-root", str(self.tmp_root)]
        if trace:
            args += ["--trace-out", str(WORK / "trace.json")]
        # Backdate the root so that creating the private directory in it
        # shows as a later mtime whatever the filesystem's clock tick is.
        os.utime(self.tmp_root, (0, 0))
        result = run.run_binary(args, cwd=WORK, capture_output=True,
                                text=True)
        self.assertEqual(result.returncode, 0, result.stderr)
        lines = result.stdout.strip().splitlines()
        report = json.loads(lines[-2])["report"]
        final = json.loads(lines[-1])
        self.assertEqual(set(final), {"correct", "attempted", "failed",
                                      "metrics"})
        self.assertTrue(final["correct"], report["failures"])
        self.assertEqual(final["failed"], 0)
        self.assertEqual(report["threads_at_exit"], 1)
        self.assertEqual(report["children_at_exit"], 0)
        # The private directory was created under the root, then removed.
        self.assertGreater(self.tmp_root.stat().st_mtime, 0)
        self.assertEqual(list(self.tmp_root.iterdir()), [])
        expected = {"tmp", "trace.json"} if trace else {"tmp"}
        self.assertEqual({p.name for p in WORK.iterdir()}, expected)
        if trace:
            events = json.loads((WORK / "trace.json").read_text())
            self.assertTrue(any(e["name"] == "op"
                                for e in events["traceEvents"]))
        return final

    def test_untraced_runs_leave_nothing(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                final = self.run_workload(workload, 0)
                self.assertIn("setup_s", final["metrics"])

    def test_traced_runs_leave_only_the_trace(self):
        for workload in ("horizon_sweep", "cached_replay"):
            with self.subTest(workload=workload):
                final = self.run_workload(workload, 1)
                self.assertIn("process.cpu_s_per_op", final["metrics"])


if __name__ == "__main__":
    unittest.main()
