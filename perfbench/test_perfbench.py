"""Self-checks of the benchmark.

    python3 -m unittest perfbench/test_perfbench.py

* BENCHMARK.json lists exactly the metrics porcbench reports, within the
  limits its format allows;
* every workload runs clean (all outputs correct, nothing failed) and
  reports every end-to-end metric as a positive number;
* the host-independent numbers — program costs, instruction counts, eqsat
  e-node counts, ring degrees, first-call noise budgets — are identical
  across two runs at a fixed seed;
* each workload's traced run reports every per-layer metric it owns, and
  0 for the others.

Builds porcbench through run.py on first use; takes about five minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root if root.is_absolute() else ROOT / root


def bench(*args):
    """Runs run.py with `args` and returns its standard output lines."""
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"run.py {args} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    return done.stdout.strip().splitlines()


def run_workload(workload, seconds, trace):
    lines = bench("--workload", workload, "--seed", str(SEED), "--seconds",
                  str(seconds), "--trace", str(trace))
    result = json.loads(lines[-1])
    record_path = (build_root() / "results" /
                   f"{workload}-seed{SEED}-trace{trace}.record.json")
    return result, json.loads(record_path.read_text())


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_metrics_match_porcbench(self):
        listed = json.loads("\n".join(bench("--list-metrics")))
        for group in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in self.spec[group]],
                [(m["name"], m["unit"]) for m in listed[group]], group)

    def test_format_limits(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = [w["name"] for w in spec["workloads"]]
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()),
                             64 * 1024)


class Determinism(unittest.TestCase):
    SECONDS = {"compile": 1, "run": 3, "serve": 3}

    def check(self, workload):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        records = []
        for _ in range(2):
            result, record = run_workload(workload, self.SECONDS[workload], 0)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], record["notes"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0, record["notes"])
            for m in spec["end_to_end"]:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   m["name"])
            records.append(record)
        self.assertTrue(records[0]["host_independent"])
        self.assertEqual(records[0]["host_independent"],
                         records[1]["host_independent"])
        for key in ("nproc", "threads", "build_type", "compiler", "seed"):
            self.assertIn(key, records[0]["host"])

    def test_compile(self):
        self.check("compile")

    def test_run(self):
        self.check("run")

    def test_serve(self):
        self.check("serve")


class TracedRun(unittest.TestCase):
    """Each workload's traced run reports every per-layer metric; the ones
    another workload owns read 0 (porcbench itself fails when one it owns
    is missing)."""

    def check(self, workload, seconds):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = json.loads("\n".join(bench("--list-metrics")))
        owned = {m["name"] for m in listed["per_layer"]
                 if workload in m["workloads"]}
        result, record = run_workload(workload, seconds, 1)
        self.assertTrue(result["correct"], record["notes"])
        self.assertEqual(result["failed"], 0, record["notes"])
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in spec["per_layer"]})
        for name, m in metrics.items():
            if name not in owned:
                self.assertEqual(m["value"], 0, name)
        trace = (build_root() / "results" /
                 f"{workload}-seed{SEED}-trace1.trace.json")
        events = json.loads(trace.read_text())["traceEvents"]
        return metrics, {e["cat"] for e in events}

    def test_compile(self):
        metrics, layers = self.check("compile", 1)
        for name in ("synth.time_s", "synth.nodes_explored",
                     "quill.eqsat.enodes", "driver.compile.lowered_set_s",
                     "program.instructions.conv2d", "self_s.quill.eqsat"):
            self.assertGreater(metrics[name]["value"], 0, name)
        self.assertTrue({"synth", "frontend", "quill", "quill.eqsat", "spec",
                         "backend"} <= layers)

    def test_run(self):
        metrics, layers = self.check("run", 3)
        self.assertEqual(metrics["driver.engine.hit_rate"]["value"], 1.0)
        self.assertGreater(metrics["bfv.op.rotate_us.n8192"]["value"], 0)
        self.assertGreater(metrics["backend.execute_ms.perceptron"]["value"],
                           0)
        self.assertTrue({"bfv", "math", "backend", "driver.engine"} <= layers)

    def test_serve(self):
        metrics, layers = self.check("serve", 3)
        for name in ("serve.capacity_rps", "serve.goodput_rps",
                     "driver.server.batch_size", "driver.server.exec_ms"):
            self.assertGreater(metrics[name]["value"], 0, name)
        self.assertTrue({"driver.server", "backend"} <= layers)


if __name__ == "__main__":
    unittest.main()
