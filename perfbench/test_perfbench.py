"""Self-test of the benchmark: a tiny-size run of every workload.

    python3 -m pytest perfbench/test_perfbench.py      (from the repo root)

Each workload runs at ``--scale tiny`` for one second, untraced and
traced.  The test checks that every metric ``BENCHMARK.json`` declares
prints with its unit, that no verdict contradicts its known answer
(``wrong_verdicts`` 0, ``correct`` true) and that no operation failed
(``failed_frac`` 0) on the current code.  A unit test checks that the
traced mode wraps every binding of each traced function.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int,
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class ProbeCoverage(unittest.TestCase):
    def test_every_binding_is_wrapped(self) -> None:
        """No loaded ``repro`` module keeps an unwrapped copy of a traced
        function, and uninstalling restores every binding."""
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
        try:
            import repro
            from probes import Recorder, bindings_of

            for info in pkgutil.walk_packages(repro.__path__, "repro."):
                if not info.name.endswith("__main__"):
                    importlib.import_module(info.name)
            recorder = Recorder()
            recorder.install()
            try:
                originals = {id(original): original
                             for owner, __, original in recorder._undo
                             if isinstance(owner, types.ModuleType)}
                for original in originals.values():
                    self.assertEqual(bindings_of(original), [],
                                     original.__qualname__)
            finally:
                recorder.uninstall()
            for original in originals.values():
                self.assertNotEqual(bindings_of(original), [],
                                    original.__qualname__)
        finally:
            del sys.path[:2]


class TinyRuns(unittest.TestCase):
    def check(self, workload: str, trace: int, declared: list[dict]) -> None:
        done = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(
            set(result), {"correct", "attempted", "failed", "metrics"}
        )
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 100)
        self.assertEqual(result["failed"], 0, done.stdout)
        self.assertIn("  wrong_verdicts 0 count", lines)
        self.assertIn("  failed_frac 0.000000 ratio", done.stdout)
        printed = result["metrics"]
        self.assertEqual(
            sorted(printed), sorted(metric["name"] for metric in declared)
        )
        for metric in declared:
            value = printed[metric["name"]]
            self.assertEqual(value["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(value["value"], (int, float))
            self.assertTrue(
                any(line.startswith(f"  {metric['name']} ")
                    and line.endswith(f" {metric['unit']}") for line in lines),
                metric["name"],
            )

    def test_end_to_end_metrics(self) -> None:
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check(workload["name"], 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self) -> None:
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check(workload["name"], 1, SPEC["per_layer"])

    def test_fails_without_program_source(self) -> None:
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("cold-check", 0, cwd=Path(bare))
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
