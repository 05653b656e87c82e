#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_smoke.py

Builds the benchmark and its unit tests (tests/test_spans.cpp: interval
unions, the self-time fold on hand-built nested spans, the trace reader, the
engine-phase closure), then runs every workload in smoke mode — three rounds
per session — with tracing off and on, and checks that every metric named in
BENCHMARK.json is printed with its unit, that the closure fraction is
computed, that the source stamp marks uncommitted changes, and that the
refusals and the no-sources case exit without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, env=None, cwd=ROOT, script=None):
    cmd = [sys.executable, str(script or BENCH / "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def context_of(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("# context "):
            return json.loads(line[len("# context "):])
    return None


class UnitTests(unittest.TestCase):
    def test_unit_binary(self):
        out = run.build(["perfbench", "perfbench_tests"])
        proc = subprocess.run([str(out / "perfbench_tests")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class SourceStamp(unittest.TestCase):
    def test_stamp_marks_uncommitted_sources(self):
        tree = run.build_dir().parent / "stamp-tree"
        shutil.rmtree(tree, ignore_errors=True)
        (tree / "src").mkdir(parents=True)
        (tree / BENCH.name).mkdir()
        try:
            (tree / "CMakeLists.txt").write_text("project(x)\n")
            (tree / "src" / "a.cpp").write_text("int a;\n")
            (tree / BENCH.name / "run.py").write_text("\n")

            def git(*args):
                subprocess.run(["git", "-C", str(tree), "-c", "user.name=t",
                                "-c", "user.email=t@t", *args],
                               check=True, capture_output=True)

            git("init", "-q")
            git("add", ".")
            git("commit", "-q", "-m", "sources")
            rev = run.git(tree, "rev-parse", "HEAD")
            self.assertEqual(run.source_stamp(tree), "git:" + rev)
            (tree / "src" / "a.cpp").write_text("int b;\n")
            dirty = run.source_stamp(tree)
            self.assertEqual(dirty, f"git:{rev}+tree:{run.tree_digest(tree)}")
            (tree / "src" / "a.cpp").write_text("int c;\n")
            self.assertNotEqual(run.source_stamp(tree), dirty)
            # Outside git (a work tree above does not count): digest only.
            shutil.rmtree(tree / ".git")
            self.assertEqual(run.source_stamp(tree),
                             "tree:" + run.tree_digest(tree))
        finally:
            shutil.rmtree(tree, ignore_errors=True)


class SmokeRuns(unittest.TestCase):
    def check_metrics(self, res, metrics):
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        for m in metrics:
            self.assertIn(m["name"], res["metrics"])
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                proc = bench(w["name"], 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result_of(proc)
                self.check_metrics(res, SPEC["end_to_end"])
                self.assertGreater(res["metrics"]["setup_s"]["value"], 0.0)
                self.assertGreater(res["metrics"]["rounds_per_s"]["value"], 0.0)
                self.assertEqual(context_of(proc)["source"],
                                 run.source_stamp())
            with self.subTest(workload=w["name"], trace=1):
                proc = bench(w["name"], 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result_of(proc)
                self.check_metrics(res, SPEC["per_layer"])
                closure = res["metrics"]["fl.unaccounted_frac"]["value"]
                self.assertLessEqual(abs(closure), 0.05)
                self.assertGreater(res["metrics"]["fl.exchange_ms"]["value"],
                                   0.0)

    def test_refuses_more_threads_than_cpus(self):
        env = dict(os.environ)
        env["FEDTRANS_THREADS"] = str(run.host_cpus() + 1)
        proc = bench("pop-1m", 0, env=env)
        self.assertEqual(proc.returncode, 3)
        self.assertEqual(proc.stdout.strip(), "")

    def test_fails_without_sources(self):
        scratch = run.build_dir().parent / "no-sources"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(BENCH, scratch / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = bench("pop-1m", 0, env=env, cwd=scratch,
                         script=scratch / BENCH.name / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
