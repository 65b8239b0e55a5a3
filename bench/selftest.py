"""Self-test of the benchmark: every workload, every check and the traced
path on tiny inputs, plus deliberately wrong outputs that must count as
failures.

    python3 bench/selftest.py

Takes about a minute.  It writes only under .bench_run/.
"""

import json
import shutil
import subprocess
import sys
import unittest
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import qiepulse.cli  # noqa: E402
import qiepulse.designer  # noqa: E402
from layers import METRICS  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def fast(workload, trace=False):
    result, record = run.run(workload, seed=7, seconds=1, trace=trace,
                             size="fast")
    return result, record


@contextmanager
def patched(module, attr, make):
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def lower_fidelity(by):
    """write_scan_csv that writes every fidelity `by` too low."""
    def make(write):
        def wrong(result, path, *args, **kwargs):
            result.fidelities = result.fidelities - by
            return write(result, path, *args, **kwargs)
        return wrong
    return make


class TestSpec(unittest.TestCase):
    def test_names_match_harness(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.NAMES))
        self.assertEqual(set(run.NAMES), set(WORKLOADS))
        emitted = [m for m, *_ in METRICS]
        emitted += ["dynamics.step_applications", "trace.overhead_ratio"]
        self.assertEqual(sorted(PER_LAYER), sorted(emitted))
        table = json.loads((BENCH / "layers.json").read_text())
        tabled = [m for row in table["layers"] for m in row["metrics"]]
        self.assertEqual(sorted(tabled), sorted(PER_LAYER))
        self.assertEqual(sorted(table["end_to_end"]), sorted(END_TO_END))

    def test_tail_has_ten_beyond_or_is_median(self):
        pct, value = run.tail(list(range(100)))
        self.assertEqual(value, 89)
        self.assertEqual(pct, 90.0)
        self.assertEqual(run.tail([3, 1, 2])[1], 2)

    def test_self_time_excludes_children(self):
        ns = type("ns", (), {})()
        ns.leaf = lambda: sum(range(1000))
        ns.root = lambda: [ns.leaf() for _ in range(3)]
        tracer = Tracer()
        tracer.wrap(ns, "leaf", "leaf")
        tracer.wrap(ns, "root", "root")
        ns.root()
        tracer.restore()
        calls, self_s, _ = tracer.aggregate(0, len(tracer))
        ids = {name: k for k, name in enumerate(tracer.names)}
        self.assertEqual(calls[ids["leaf"]], 3)
        self.assertEqual(calls[ids["root"]], 1)
        root_dur = tracer.end[0] - tracer.start[0]  # root opened first
        self.assertAlmostEqual(self_s.sum(), root_dur, delta=1e-12)
        self.assertFalse(hasattr(ns.leaf, "__wrapped__"))

    def test_fails_without_sources(self):
        bare = run.RUN_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload",
                 "report", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class TestWorkloads(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for name in run.NAMES:
            with self.subTest(workload=name):
                result, record = fast(name)
                self.assertTrue(result["correct"], record["failures"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(len(record["ops"]), 2)
                self.assertEqual(list(result["metrics"]), END_TO_END)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_split(self):
        spans = {}
        for name in run.NAMES:
            result, record = fast(name, trace=True)
            self.assertTrue(result["correct"], record["failures"])
            self.assertEqual(sorted(result["metrics"]), sorted(PER_LAYER))
            spans[name] = {m: v["value"] for m, v in result["metrics"].items()}
        self.assertEqual(spans["design_sweep"]["dynamics.final_states.calls"]
                         + spans["design_sweep"]["dynamics.propagate.calls"],
                         0)
        self.assertEqual(spans["design_sweep"]["pulse_io.write_pulse.bytes"],
                         0)
        self.assertGreater(spans["design_sweep"]["designer.rhs.calls"], 0)
        self.assertEqual(spans["pulse_files"]["designer.rhs.calls"], 0)
        self.assertEqual(
            spans["pulse_files"]["designer.design_pulse.self_s"], 0)
        self.assertEqual(spans["pulse_files"]["dynamics.propagate.calls"], 1)
        self.assertGreater(spans["pulse_files"]["pulse_io.read_pulse.bytes"],
                           0)
        report = spans["report"]
        self.assertEqual(report["dynamics.final_states.calls"], 9)
        self.assertGreater(report["plots.svg.self_s"], 0)
        for value in spans.values():
            self.assertGreater(value["trace.overhead_ratio"], 0)


class TestWrongOutputsFail(unittest.TestCase):
    def assertFails(self, workload):
        result, record = fast(workload)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        return record["failures"]

    def test_low_nominal_fidelity_in_report(self):
        with patched(qiepulse.cli, "write_scan_csv", lower_fidelity(1e-3)):
            failures = self.assertFails("report")
        self.assertIn("F(0)", " ".join(failures["op 0"]))

    def test_perturbed_fidelity_in_pulse_files(self):
        with patched(qiepulse.cli, "write_scan_csv", lower_fidelity(1e-9)):
            failures = self.assertFails("pulse_files")
        self.assertIn("closed form", " ".join(failures["prepare"]))
        self.assertIn("propagate F", " ".join(failures["op 0"]))

    def test_wrong_boundary_in_design_sweep(self):
        def make(design):
            def wrong(params):
                pulse, traj = design(params)
                traj.beta[0] = np.nextafter(traj.beta[0], 0.0)
                return pulse, traj
            return wrong
        with patched(qiepulse.designer, "design_pulse", make):
            failures = self.assertFails("design_sweep")
        self.assertIn("beta[0]", " ".join(failures["op 0"]))

    def test_nondeterministic_output_fails_repeat(self):
        calls = []

        def make(design):
            def drifting(params):
                pulse, traj = design(params)
                calls.append(1)
                pulse.omega[1] += len(calls) * 1e-15
                return pulse, traj
            return drifting
        with patched(qiepulse.designer, "design_pulse", make):
            failures = self.assertFails("design_sweep")
        self.assertEqual(list(failures), ["op 1"])
        self.assertIn("bit-identical", failures["op 1"][0])


if __name__ == "__main__":
    unittest.main()
