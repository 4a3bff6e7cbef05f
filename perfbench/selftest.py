"""Self-tests of the benchmark harness (not of liepde).

    python3 perfbench/selftest.py

They live here rather than under tests/ so that the repository's test suite
does not collect them.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(run.tail_percentile(range(99)))
        self.assertEqual(run.tail_percentile(range(1, 101)), (90.0, 90))
        self.assertEqual(run.tail_percentile(range(1, 201)), (95.0, 190))
        self.assertEqual(run.tail_percentile(range(1, 1001)), (99.0, 990))
        self.assertEqual(run.tail_percentile(range(1, 10001)), (99.9, 9990))

    def test_p90_omitted_below_a_hundred_samples(self):
        self.assertIsNone(run.percentile(list(range(99)), 90.0))
        values = list(range(1, 101))
        random.Random(0).shuffle(values)
        self.assertEqual(run.percentile(values, 90.0), 90)


class SpanArithmetic(unittest.TestCase):
    # (name, start, end, parent, op)
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 9.0, 0, 0),
        ("a", 6.0, 8.0, 3, 0),
    ]

    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(tracing.self_times(self.spans), [3.0, 2.0, 1.0, 2.0, 2.0])

    def test_self_times_add_up_to_the_root(self):
        self.assertAlmostEqual(sum(tracing.self_times(self.spans)), 10.0)

    def test_nested_spans_of_one_name_count_once(self):
        self.assertEqual(tracing.covered_time(self.spans, ["a"]), 10.0)
        self.assertEqual(tracing.covered_time(self.spans, ["b", "c"]), 3.0)
        self.assertEqual(tracing.call_count(self.spans, ["a"]), 2)


class FakeWorkload:
    """Ops are ints: negative gives a wrong answer, zero raises."""

    def run_op(self, ctx, op, key):
        ctx.append(key)
        if op["v"] == 0:
            raise ValueError("boom")
        return op["v"] > 0


class FailuresAreCounted(unittest.TestCase):
    def test_wrong_answers_and_errors_fail_and_the_run_goes_on(self):
        blocks = [[{"kind": "k", "v": v} for v in (1, -1, 0, 2)]]
        seen, tally = [], run.Tally()
        times, kinds, block_times = run.timed_blocks(FakeWorkload(), seen, blocks, 0.0, tally)
        self.assertEqual(seen, [(0, 0), (0, 1), (0, 2), (0, 3)])
        self.assertEqual((tally.attempted, tally.failed), (4, 2))
        self.assertEqual(len(times), 4)
        self.assertEqual(tally.errors, ["ValueError: boom"])


class InputDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in run.workload_names():
            workload = run.make_workload(name)
            a = run.inputs_digest(run.make_inputs(workload, 3))
            b = run.inputs_digest(run.make_inputs(workload, 3))
            c = run.inputs_digest(run.make_inputs(workload, 4))
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)


class CountStability(unittest.TestCase):
    def test_a_count_that_differs_is_unstable_and_a_time_is_not_a_count(self):
        first = {"expr.mul_calls": 5, "solver.candidates": 3, "expr.kernel_s": 0.1}
        second = {"expr.mul_calls": 6, "solver.candidates": 3, "expr.kernel_s": 0.2}
        self.assertEqual(run.unstable_counts(first, second), ["expr.mul_calls"])


class CliChildRss(unittest.TestCase):
    def test_each_command_reports_its_own_exit_code_output_and_rss(self):
        import tempfile
        import workloads
        with tempfile.TemporaryDirectory() as tmp:
            cli = workloads.Cli(HERE.parent, Path(tmp))
            code, stdout, rss_kb = cli.spawn(["verify", "--equation", "hpz",
                                              "--fixture", "paper", "--format", "json"])
        self.assertEqual(code, 0)
        self.assertTrue(json.loads(stdout)["all_ok"])
        self.assertGreater(rss_kb, 0)


class TracingRestoresEverything(unittest.TestCase):
    def snapshot(self):
        import liepde.cli  # noqa: F401  (binds residual, parse, ...)
        import liepde.expr
        spaces = {name: dict(vars(m)) for name, m in sys.modules.items()
                  if name == "liepde" or name.startswith("liepde.")}
        return spaces, dict(vars(liepde.expr.Expr))

    def test_wrapped_names_are_the_originals_after_a_traced_op(self):
        import liepde
        import liepde.prolong
        import liepde.solver
        from liepde.expr import Expr
        before = self.snapshot()
        originals = (liepde.prolong.residual, liepde.solver.residual, Expr.__mul__)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            self.assertIsNot(liepde.prolong.residual, originals[0])
            self.assertIs(liepde.solver.residual, liepde.prolong.residual)
            self.assertIs(Expr.__rmul__, Expr.__mul__)
            delta1 = liepde.known_basis()[0]
            self.assertTrue(liepde.solver.residual(delta1, liepde.make_hpz()).is_zero)
        finally:
            restore()
        self.assertEqual((liepde.prolong.residual, liepde.solver.residual, Expr.__mul__),
                         originals)
        after = self.snapshot()
        for name, space in before[0].items():
            for key, value in space.items():
                self.assertIs(after[0][name][key], value, f"{name}.{key}")
        for key, value in before[1].items():
            self.assertIs(after[1][key], value, f"Expr.{key}")
        metrics = tracing.layer_metrics(tracer)
        self.assertEqual(metrics["prolong.residual_calls"], 1)
        self.assertGreater(metrics["jet.total_derivative_calls"], 0)
        self.assertGreater(metrics["expr.mul_calls"], 0)


if __name__ == "__main__":
    unittest.main()
