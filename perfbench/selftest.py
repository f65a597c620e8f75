"""Self-tests of the benchmark's own arithmetic and of its tracing switch.

    python3 perfbench/selftest.py

Run from the root of a source checkout (the package is imported from src/).
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

KG = run.import_package()


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ["solver", 0.0, 10.0, -1],
            ["operator.jacobian", 1.0, 3.0, 0],
            ["solver.linear", 2.0, 5.0, 0],       # overlaps its sibling
            ["operator.residual", 2.5, 4.0, 2],   # grandchild: not the solver's
            ["operator.residual", 6.0, 7.0, 0],
        ]
        self.assertEqual(tracing.self_times(spans), [5.0, 2.0, 1.5, 1.5, 1.0])

    def test_child_outside_parent_counts_only_inside(self):
        spans = [["cli", 0.0, 4.0, -1], ["solver", 3.0, 6.0, 0]]
        self.assertEqual(tracing.self_times(spans), [3.0, 3.0])

    def test_linesearch_trials_from_damping(self):
        # 2^-2 -> 3 trials, 1/2 -> 2, 1 -> 1, rejected -> every halving to 2^-20
        self.assertEqual(tracing.linesearch_trials([0.25, 0.5, 1.0, 0.0], 2.0 ** -20), 27)


class _FakeCli:
    def __init__(self, rc):
        self.rc = rc

    def main(self, argv):
        return self.rc


class _FakeReport:
    converged = False


class _FakeSolver:
    SolveConfig = KG.solver.SolveConfig

    @staticmethod
    def solve_dirichlet(model, dom, config=None):
        return _FakeReport()


class FailureCountingTest(unittest.TestCase):
    def test_non_converged_cli_solve_is_not_a_success(self):
        op = workloads._cli_op("solve", type("kg", (), {"cli": _FakeCli(2)}), [])
        self.assertFalse(op.converged)
        self.assertEqual(run.converged_frac([op, workloads.Op("x", converged=True)]), 0.5)

    def test_config_error_exit_is_a_failure(self):
        op = workloads._cli_op("solve", type("kg", (), {"cli": _FakeCli(1)}), [])
        self.assertTrue(op.failed)

    def test_non_converged_report_counts_against_the_converged_share(self):
        kg = type("kg", (), {k: getattr(KG, k) for k in vars(KG)})
        kg.solver = _FakeSolver
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.PuncturePair(kg, 0, Path(tmp))
            wl.prepare()
            ops, _ = wl._pairs(scale=4.0)
        self.assertEqual(len(ops), 4)
        self.assertTrue(all(not op.converged for op in ops))
        self.assertEqual(run.converged_frac(ops), 0.0)

    def test_failed_check_marks_the_operation(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.GrowthFlow(KG, 0, Path(tmp))
            wl.prepare()
            wl.r_out.mkdir()
            (wl.r_out / "radial.csv").write_text("r,u\n1,0.5\n", encoding="utf-8")
            wl.g_out.mkdir()
            (wl.g_out / "growth.csv").write_text("r,L_plain,L_weighted,g\n", encoding="utf-8")
            ops = [workloads.Op("growth", converged=True), workloads.Op("radial", converged=True)]
            wl.check(ops, None)
        self.assertTrue(all(op.failed for op in ops))
        self.assertEqual(run.converged_frac(ops), 0.0)


class _TinyPuncture(workloads.PuncturePair):
    """The puncture workload at a quarter of the resolution."""

    def run(self):
        self.seen = tracing.patch_points()
        return self._pairs(scale=4.0)


class TracingSwitchTest(unittest.TestCase):
    def _tiny(self, tmp):
        wl = _TinyPuncture(KG, 0, Path(tmp))
        wl.prepare()
        return wl

    def test_untraced_rounds_install_no_wrapper(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = self._tiny(tmp)
            run.run_rounds(wl, 0.0)
        self.assertFalse([k for k, v in wl.seen.items() if tracing.is_wrapped(v)])

    def test_traced_rounds_wrap_every_patch_point_and_restore_them(self):
        before = tracing.patch_points()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tempfile.TemporaryDirectory() as tmp:
                wl = self._tiny(tmp)
                _, _, layers = run.run_rounds(wl, 0.0, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual([k for k, v in wl.seen.items() if v is not None and not tracing.is_wrapped(v)], [])
        self.assertEqual(tracing.patch_points(), before)
        self.assertEqual(layers[0]["solver.solves"], 4)
        self.assertEqual(layers[0]["operator.cache_builds"], 4)
        self.assertEqual(layers[0]["solver.linear_solves"], layers[0]["operator.jacobian_calls"])
        self.assertEqual(set(layers[0]) | {"trace.overhead_s"}, set(run.PER_LAYER))


class DeclarationTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
