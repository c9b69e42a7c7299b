#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the repository root. Builds the binary the way run.py does,
then runs it at tiny lengths: every workload must print every metric
that BENCHMARK.json names, with its unit; a planted one-cycle mismatch
in the recorded stats must fail its cell and the run; a missing
expectations file must fail the run; and paper-grid must simulate the
same stats on 1 and 4 threads.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        build_dir = os.path.join(ROOT, target, "perfbench")
        cls.exe = run.build(build_dir)
        if cls.exe is None:
            raise RuntimeError("perfbench build failed")
        os.makedirs(os.path.join(build_dir, "work"), exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=os.path.join(build_dir, "work"))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def drive(self, *args):
        return subprocess.run(
            [self.exe, *args, "--work-dir", self.tmp],
            capture_output=True, text=True, cwd=ROOT)

    def short_run(self, workload, trace, expect=run.EXPECTED):
        return self.drive("--workload", workload, "--seed", "1",
                          "--seconds", "0.2", "--trace", str(trace),
                          "--expect", expect)

    def test_every_metric_prints_with_its_unit(self):
        for w in self.bench["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    p = self.short_run(w["name"], trace)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    result = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = [m["name"] for m in self.bench[key]]
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(names))
                    for m in self.bench[key]:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                        row = r"\n  %s +\S+  %s " % (
                            re.escape(m["name"]), re.escape(m["unit"]))
                        self.assertRegex(p.stdout, row)

    def test_planted_cycle_mismatch_fails_the_cell(self):
        planted = os.path.join(self.tmp, "planted.tsv")
        done = False
        with open(run.EXPECTED) as src, open(planted, "w") as dst:
            for line in src:
                f = line.rstrip("\n").split("\t")
                if not done and f[:2] == ["reexec-storm", "1"]:
                    f[3] = str(int(f[3]) + 1)
                    line = "\t".join(f) + "\n"
                    done = True
                dst.write(line)
        self.assertTrue(done, "no recorded reexec-storm seed 1 cell")
        p = self.short_run("reexec-storm", 0, expect=planted)
        self.assertNotEqual(p.returncode, 0)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertRegex(p.stdout, r"FAILED: .*cycles \d+ != recorded \d+")

    def test_missing_expectations_fail_the_run(self):
        p = self.short_run("reexec-storm", 0,
                           expect=os.path.join(self.tmp, "absent.tsv"))
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)

    def test_unrecorded_seed_falls_back_to_the_reference(self):
        p = self.drive("--workload", "memory-stall", "--seed", "987654",
                       "--seconds", "0.2", "--trace", "0",
                       "--expect", run.EXPECTED)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("checking the reference match only", p.stdout)

    def test_paper_grid_stats_do_not_depend_on_threads(self):
        files = []
        for threads in ("1", "4"):
            path = os.path.join(self.tmp, "grid-%s.tsv" % threads)
            p = self.drive("--workload", "paper-grid", "--seed", "1",
                           "--record", path, "--threads", threads)
            self.assertEqual(p.returncode, 0, p.stderr)
            with open(path) as f:
                files.append(f.read())
        self.assertEqual(files[0], files[1])
        with open(run.EXPECTED) as f:
            recorded = [l for l in f if l.startswith("paper-grid\t1\t")]
        self.assertEqual(files[0], "".join(recorded))


if __name__ == "__main__":
    unittest.main()
