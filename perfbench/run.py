"""shiftspace benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload exact-counts --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from a checkout: it imports shiftspace from ./src (and refuses to
run without it).  One client sends one request at a time (a closed loop,
no threads).  With --trace 0 the last stdout line is a JSON object whose
metrics are the end-to-end ones, measured with tracing off; with --trace 1
it holds the per-layer metrics of a run that alternates untraced and
traced passes.  Timings are scaled to a reference machine speed by a
calibration timed before each request (see harness).  The lines before
it give every metric with its unit and sample count, the timings as
measured, the failure ratio, the outcome of every hard case (run once,
untimed, after the passes), and where the time goes: untraced, each
request kind's share of wall_s and the kinds the latency percentiles lie
on; traced, each layer's share of trace.wall_s.  The exit code is 1 when any output is wrong, 2 when the
benchmark cannot run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import climix
import harness
import library
from harness import BenchError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-mix", "exact-counts", "entropy-infer")
SETUPS = 9  # set-up repetitions per run; setup_s is their median


def import_shiftspace():
    """A fresh import of shiftspace from the checkout's src/.

    Users pay compilation once, so the bytecode cache is written even where
    the environment turns it off (PYTHONDONTWRITEBYTECODE): the first
    set-up in a checkout compiles, and every later import, in process or
    in a CLI child, reads the cache.
    """
    if not (SRC / "shiftspace" / "__init__.py").is_file():
        raise BenchError(f"no shiftspace package under {SRC}")
    sys.dont_write_bytecode = False
    for name in [n for n in sys.modules if n == "shiftspace" or n.startswith("shiftspace.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("shiftspace")
    if Path(module.__file__).resolve().parent != (SRC / "shiftspace").resolve():
        raise BenchError(f"imported shiftspace from {module.__file__}, not from {SRC}")
    return module


def per_layer_units(name: str) -> str:
    if name == "hard_cases.failed":
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count/pass"


def run_workload(name, seed, seconds, traced):
    """Set up SETUPS times, measure, check, probe the hard cases; returns (report lines, result object)."""
    workdir = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    runner = climix.Runner(SRC) if name == "cli-mix" else None
    build = {
        "cli-mix": partial(climix.cli_mix, runner=runner),
        "exact-counts": library.exact_counts,
        "entropy-infer": library.entropy_infer,
    }[name]
    try:
        setup_times = []
        for _ in range(SETUPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            requests, seconds_taken = harness.scaled_call(lambda: build(import_shiftspace(), seed, workdir))
            setup_times.append(seconds_taken)
        timed = [r for r in requests if not r.case]
        hard = [r for r in requests if r.case]
        if runner is not None:
            timed[0].run(harness.NullTracer())  # fill the bytecode cache, untimed
            runner.probe()
        passes, tracer = harness.measure(
            timed,
            seconds,
            traced,
            after_pass=runner.probe if runner else None,
            calibration=runner.calibration if runner else harness.IN_PROCESS,
        )
        # the hard cases fail today, so they run once, untimed, outside the request list
        probe = harness.run_pass(hard, harness.NullTracer()).outcomes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    who = resource.RUSAGE_CHILDREN if runner is not None else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    outcomes = [o for p in passes for o in p.outcomes]
    hard_failed = sum(o.status != "ok" for o in probe)
    lines = []
    if traced:
        metrics = {k: (v, sum(p.traced for p in passes)) for k, v in harness.trace_summary(passes, tracer).items()}
        metrics.update(climix.cli_metrics(passes, runner))
        metrics["hard_cases.failed"] = (hard_failed, len(probe))
        shown = {k: (v, per_layer_units(k), n) for k, (v, n) in sorted(metrics.items())}
        wall = metrics["trace.wall_s"][0]
        for key, (value, _n) in sorted(metrics.items()):
            if key.endswith(".busy_s") and value:
                lines.append(f"{name} {key} share of trace.wall_s = {value / wall:.4f}")
    else:
        shown = harness.summarize(passes, setup_times, peak_rss_mb)
        for key, (value, unit, n) in harness.unscaled(passes).items():
            lines.append(f"{name} {key} = {value:.6g} {unit} (n={n}, as measured, reference)")
        if runner is not None:  # drift references, printed but not part of the result
            for key, (value, n) in climix.cli_metrics([], runner).items():
                if n:
                    lines.append(f"{name} {key} = {value:.6g} ms (n={n}, reference)")
        shares, at = harness.tiers(passes)
        for kind, count, share in shares:
            lines.append(f"{name} kind {kind}: {count} requests, share of wall_s = {share:.4f}")
        for q, kind in at.items():
            lines.append(f"{name} latency_p{q}_ms lies on request kind {kind}")
    failed = sum(o.status != "ok" for o in outcomes)
    wrong = [o for o in outcomes + probe if o.status == "wrong"]
    traced_passes = sum(p.traced for p in passes)
    lines.append(f"{name} passes = {len(passes) - traced_passes} untraced, {traced_passes} traced")
    for key, (value, unit, n) in shown.items():
        lines.append(f"{name} {key} = {value:.6g} {unit} (n={n})")
    lines.append(f"{name} fail_ratio = {failed / len(outcomes):.6g} ({failed} of {len(outcomes)} requests)")
    for o in probe:
        status = "ok" if o.status == "ok" else f"{o.status}: {o.detail[:160]}"
        lines.append(f"{name} hard case {o.case}: {status}")
    for o in wrong[:5]:
        lines.append(f"{name} WRONG {o.kind}: {o.detail[:300]}")
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in shown.items()},
    }
    return lines, result


def run_all(args):
    """Every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        sys.stderr.write(done.stderr)
        out = done.stdout.splitlines()
        if done.returncode == 2 or not out:
            raise BenchError(f"{name} did not run: {done.stderr.strip()[-500:]}")
        code = max(code, done.returncode)
        print("\n".join(out[:-1]), flush=True)
        result = json.loads(out[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
