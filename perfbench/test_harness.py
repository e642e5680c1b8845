"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 perfbench/test_harness.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        value, pct, n = harness.tail_stat([float(v) for v in range(30, 0, -1)])
        self.assertEqual((value, n), (20.0, 30))
        self.assertAlmostEqual(pct, 100 * 20 / 30)

    def test_eleven_jobs_leave_the_smallest(self):
        value, pct, n = harness.tail_stat([5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0, 11.0])
        self.assertEqual((value, n), (1.0, 11))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_too_few_jobs_report_the_maximum_at_p100(self):
        self.assertEqual(harness.tail_stat([3.0, 1.0, 2.0]), (3.0, 100.0, 3))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        clock = FakeClock()
        tracer = harness.Tracer(clock)

        def leaf():
            clock.advance(2)

        leaf = tracer.wrap("m.leaf", leaf)

        def middle():
            clock.advance(1)
            leaf()
            leaf()

        middle = tracer.wrap("m.middle", middle)

        def outer():
            clock.advance(3)
            middle()
            clock.advance(0.5)

        tracer.wrap("m.outer", outer)()
        agg = tracer.aggregate()
        self.assertEqual(agg["m.leaf"]["calls"], 2)
        self.assertAlmostEqual(agg["m.leaf"]["self_s"], 4)
        self.assertAlmostEqual(agg["m.middle"]["self_s"], 1)
        self.assertAlmostEqual(agg["m.middle"]["total_s"], 5)
        self.assertAlmostEqual(agg["m.outer"]["self_s"], 3.5)
        self.assertEqual(agg["m.leaf"]["parents"], {"m.middle": 2})

    def test_generator_is_charged_only_while_it_runs(self):
        clock = FakeClock()
        tracer = harness.Tracer(clock)
        leaf = tracer.wrap("m.leaf", lambda: clock.advance(1))

        def gen():
            for _ in range(2):
                leaf()
                clock.advance(0.25)
                yield 1

        def consumer():
            for _ in tracer.wrap("m.gen", gen)():
                clock.advance(10)

        tracer.wrap("m.consumer", consumer)()
        agg = tracer.aggregate()
        self.assertEqual(agg["m.gen"]["calls"], 3)  # two items, then exhaustion
        self.assertAlmostEqual(agg["m.gen"]["self_s"], 0.5)
        self.assertEqual(agg["m.leaf"]["parents"], {"m.gen": 2})
        self.assertAlmostEqual(agg["m.consumer"]["self_s"], 20)


class FailedFracTest(unittest.TestCase):
    """A job whose output differs from the reference counts as failed."""

    def test_corrupted_reference_is_a_failure(self):
        part = workloads.PARTS["fold"]
        cases = ["surgery-40-d0/0", "surgery-40-d1/3"]
        _, program, state = harness.timed_setup(part, part.prepare(cases))
        jobs = part.jobs(program, cases, state)
        batch = harness.run_batch(jobs)
        expected = {job.case: harness.digest(job.render(out)) for job, out in zip(jobs, batch.outputs)}
        self.assertEqual(harness.check_batch(jobs, batch, expected), [])

        corrupted = dict(expected)
        corrupted[cases[1]] = "0" * 16
        failures = harness.check_batch(jobs, batch, corrupted)
        self.assertEqual(len(failures), 1)
        self.assertIn(cases[1], failures[0])

    def test_shipped_reference_matches_this_program(self):
        part = workloads.PARTS["calculus"]
        cases = ["cx-100/0", "reduce-planted/0"]
        expected = json.loads((BENCH / "expected.json").read_text())["calculus"]
        _, program, state = harness.timed_setup(part, part.prepare(cases))
        jobs = part.jobs(program, cases, state)
        self.assertEqual(harness.check_batch(jobs, harness.run_batch(jobs), expected), [])


class SetupSampleTest(unittest.TestCase):
    def test_sample_between_jobs_keeps_the_running_program(self):
        part = workloads.PARTS["fold"]
        cases = ["surgery-40-d0/0", "surgery-40-d1/3"]
        raw = part.prepare(cases)
        _, program, state = harness.timed_setup(part, raw)
        running = {n: m for n, m in sys.modules.items() if n.startswith(harness.PACKAGE)}
        times = []
        jobs = part.jobs(program, cases, state)
        batch = harness.run_batch(jobs, lambda: times.append(harness.setup_sample(part, raw)))
        self.assertEqual(len(times), 2)
        self.assertEqual(batch.errors, [None, None])
        after = {n: m for n, m in sys.modules.items() if n.startswith(harness.PACKAGE)}
        self.assertEqual(after, running)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        import run

        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [m["name"] for m in spec["per_layer"]],
            [*harness.PER_LAYER, "traced_wall_s", "trace_overhead_frac"],
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_every_part_runs_in_one_workload(self):
        parts = [part.name for w in workloads.WORKLOADS.values() for part in w.parts]
        self.assertEqual(sorted(parts), sorted(workloads.PARTS))
        kinds = [kind.name for part in workloads.PARTS.values() for kind in part.kinds]
        self.assertEqual(len(kinds), len(set(kinds)))

    def test_refuses_to_run_without_the_program(self):
        (BENCH / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BENCH / "out") as empty:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", "graphs", "--seed", "1"],
                cwd=empty, capture_output=True, text=True, timeout=60,
            )
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
