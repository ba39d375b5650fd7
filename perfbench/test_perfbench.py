"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench

They need the checkout's src/ (imported the way run.py imports it) and
start a few short CLI processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import climix  # noqa: E402
import harness  # noqa: E402
import library  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Span, layer_metrics, self_times  # noqa: E402

ss = run.import_shiftspace()


def build(name, seed, workdir):
    if name == "cli-mix":
        return climix.cli_mix(ss, seed, workdir, climix.Runner(run.SRC))
    return {"exact-counts": library.exact_counts, "entropy-infer": library.entropy_infer}[name](
        ss, seed, workdir
    )


class TempDirs(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="perfbench-test-", dir=run.ROOT))
        self.addCleanup(shutil.rmtree, self.tmp, True)

    def workdir(self, name):
        path = self.tmp / name
        path.mkdir()
        return path


class SeedTest(TempDirs):
    def test_seed_changes_inputs_not_mix(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                one, two = self.workdir(f"{name}-1"), self.workdir(f"{name}-2")
                first, second = build(name, 1, one), build(name, 2, two)
                self.assertEqual([r.kind for r in first], [r.kind for r in second])
                self.assertGreaterEqual(len(first), 24)
                files = [sorted(p.read_text() for p in d.iterdir()) for d in (one, two)]
                self.assertNotEqual(files[0], files[1])

    def test_same_seed_same_inputs(self):
        one, two = self.workdir("a"), self.workdir("b")
        build("entropy-infer", 5, one), build("entropy-infer", 5, two)
        self.assertEqual(
            [p.read_text() for p in sorted(one.iterdir())],
            [p.read_text() for p in sorted(two.iterdir())],
        )

    def test_hard_cases_are_named(self):
        for name in run.WORKLOADS:
            requests = build(name, 3, self.workdir(name))
            for case in {r.case for r in requests if r.case}:
                self.assertIn(case, {**library.HARD_CASES, **climix.HARD_CASES})


class PlantedWrongValueTest(TempDirs):
    def outcome(self, request):
        done = harness.run_pass([request], harness.NullTracer())
        return done.outcomes[0]

    def test_wrong_count_is_failed_and_wrong(self):
        source = library.tmk_source(ss, 1, 2)
        good = library.count_request(ss, source, 30, "count_blocks")
        self.assertEqual(self.outcome(good).status, "ok")
        source.automaton = oracle.Automaton(2, [(1, 1, 1)])  # answers for another shift
        bad = library.count_request(ss, source, 30, "count_blocks")
        self.assertEqual(self.outcome(bad).status, "wrong")

    def test_wrong_entropy_is_wrong(self):
        source = library.tmk_source(ss, 2, 3)
        request = library.entropy_numeric_request(ss, source, ss.dominant_root(2, 3) + 1e-6)
        self.assertEqual(self.outcome(request).status, "wrong")

    def test_wrong_cli_output_is_wrong(self):
        runner = climix.Runner(run.SRC)
        argv = ["count", "--tmk", "1,2", "--n", "4"]
        self.assertEqual(self.outcome(climix.cli_request(runner, argv, "json", 8)).status, "ok")
        self.assertEqual(self.outcome(climix.cli_request(runner, argv, "json", 9)).status, "wrong")

    def test_error_is_failed_not_wrong(self):
        def refuse(t):
            raise ss.ResourceLimitError("refused")

        self.assertEqual(self.outcome(harness.Request("x", refuse, lambda v: None)).status, "failed")


class MeasureTest(unittest.TestCase):
    def test_first_pass_is_whole_and_later_ones_stop_at_the_deadline(self):
        requests = [
            harness.Request("x", lambda t: time.sleep(0.005), lambda v: None)
            for _ in range(harness.MIN_REQUESTS)
        ]
        passes, _ = harness.measure(requests, 0.8, traced=False)
        self.assertEqual(len(passes[0].outcomes), len(requests))
        self.assertLess(len(passes[-1].outcomes), len(requests))
        self.assertEqual(len(harness.scaled_latencies(passes)), len(requests))

    def test_latencies_scale_with_the_calibration(self):
        # a stretch at half speed doubles both the latencies and the calibration samples
        speeds = [1] * 20 + [2] * 20 + [1] * 20
        outcomes = [
            harness.Outcome(i, "x", "", latency=0.002 * slow, calibration=0.0005 * slow, status="ok")
            for i, slow in enumerate(speeds)
        ]
        passes = [harness.Pass(traced=False, wall=1.0, reference_s=0.0004, outcomes=outcomes)]
        for latency in harness.scaled_latencies(passes):
            self.assertAlmostEqual(latency, 0.0016)


class SelfTimeTest(unittest.TestCase):
    def spans(self):
        def span(i, parent, name, start, end):
            return Span(id=i, parent=parent, request=None, name=name, start=start, end=end)

        return [
            span(0, None, "pass", 0.0, 10.0),
            span(1, 0, "request", 1.0, 5.0),
            span(2, 1, "core.load", 1.0, 2.0),
            span(3, 1, "enumeration.count", 2.0, 4.5),
            span(4, 0, "request", 6.0, 9.0),
            span(5, 4, "transfer.build", 6.0, 7.5),
            span(6, 4, "transfer.trim", 7.5, 8.0),
        ]

    def test_self_times(self):
        own = self_times(self.spans())
        expected = {0: 3.0, 1: 0.5, 2: 1.0, 3: 2.5, 4: 1.0, 5: 1.5, 6: 0.5}
        for key, value in expected.items():
            self.assertAlmostEqual(own[key], value, msg=f"span {key}")

    def test_layer_metrics(self):
        metrics = layer_metrics(self.spans(), passes=1)
        self.assertAlmostEqual(metrics["trace.wall_s"], 4.0 + 3.0)
        self.assertAlmostEqual(metrics["trace.untraced_ratio"], (0.5 + 1.0) / 7.0)
        self.assertAlmostEqual(metrics["enumeration.count.busy_s"], 2.5)
        self.assertAlmostEqual(metrics["transfer.trim.busy_s"], 0.5)
        busy = sum(v for k, v in metrics.items() if k.endswith(".busy_s"))
        self.assertAlmostEqual(busy, 1.0 + 2.5 + 1.5 + 0.5)

    def test_uncovered_request_time_stops_the_run(self):
        class Recorded:
            spans = self.spans()

        passes = [harness.Pass(traced=t, wall=1.0, reference_s=1.0) for t in (False, True)]
        with self.assertRaises(harness.BenchError):
            harness.trace_summary(passes, Recorded)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = set(layer_metrics([], passes=1)) | set(climix.cli_metrics([], None))
        per_layer |= {"trace.overhead_ratio", "host.calibration_ms", "hard_cases.failed"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, per_layer)
        for metric in spec["per_layer"]:
            self.assertEqual(metric["unit"], run.per_layer_units(metric["name"]))
        end_to_end = {"wall_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"}
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, end_to_end)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))

    def test_runs_only_in_a_checkout(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as bare:
            shutil.copytree(run.ROOT / "perfbench", Path(bare) / "perfbench")
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "exact-counts", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=60,
            )
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
