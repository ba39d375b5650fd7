"""Closed-loop request runner: one client, one request at a time, no threads.

A workload is a fixed list of requests.  A run repeats the list in passes
until the time budget is spent, timing every request; outputs are checked
after each pass, outside the timed region.  Every request has a known
answer: a request that raises, or (CLI) exits without the answer, fails;
a request that answers wrongly fails and also makes the run incorrect.

On a shared machine, other tenants slow the CPU by up to about 1.8x for
stretches of seconds to minutes, longer than a run.  So before each
request the runner times a fixed piece of work that does not use
shiftspace (a Calibration): in process, a pure-Python loop; for the CLI,
an interpreter start (`python -c pass`).  Every latency is scaled to the
speed at which that work takes its reference time, using the median of
the calibration samples around the request.  A faster or slower program
moves the scaled times; a faster or slower machine moves the calibration
samples instead.  A request's time is the median of its scaled samples
over the run's passes.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from tracing import NullTracer, Tracer, layer_metrics

MIN_REQUESTS = 100  # p90 then has at least ten samples beyond it
COVERAGE = 0.05  # largest share of the traced wall time the layer spans may leave uncovered
CALIBRATION_LOOP = 1500  # iterations of the calibration loop
REFERENCE_S = 0.0004  # its time at the reference speed (a quiet 2-vCPU host, Python 3.11)
WINDOW = 8  # calibration samples on each side of a request that set its local speed


def calibrate() -> float:
    """Seconds one run of the calibration loop takes now.

    The loop does what shiftspace's interpreted code does most: it builds
    tuple keys, looks up and updates a dict, and builds and sorts a list.
    In contended stretches it slowed as much as the workloads did; a tight
    integer loop slowed only about two thirds as much (in log terms).  The
    cyclic garbage collector is off while it runs, so its time does not
    depend on how many objects the process holds (the program's caches, or
    the spans of a traced run).
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    counts: dict = {}
    for i in range(CALIBRATION_LOOP):
        key = (i % 13, i % 5)
        counts[key] = counts.get(key, 0) + i
    sorted([(k, v) for k, v in counts.items()])
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


@dataclass(frozen=True)
class Calibration:
    """Work timed before each request (returns its seconds), and its time at the reference speed."""

    run: Callable[[], float]
    reference_s: float


IN_PROCESS = Calibration(calibrate, REFERENCE_S)


def speed(samples: int = 9) -> float:
    """Median of a few calibration samples taken now."""
    return statistics.median(calibrate() for _ in range(samples))


def scaled_call(fn):
    """(result, seconds at the reference speed) of fn(), calibrated on both sides."""
    before = speed()
    t0 = perf_counter()
    result = fn()
    elapsed = perf_counter() - t0
    return result, elapsed * REFERENCE_S / statistics.median([before, speed()])


class BenchError(Exception):
    """The benchmark itself cannot run or its own bookkeeping is inconsistent."""


class WrongValue(Exception):
    """An output disagrees with its independently computed answer."""


class NoAnswer(Exception):
    """A request ended without an answer (a refusal, error exit, or traceback)."""


@dataclass
class Request:
    """One call of the workload: run(tracer) does it, check(result) judges it.

    kind names the request type (the mix is the same for every seed);
    case names a hard case from the benchmark rationale.
    """

    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    case: str = ""


@dataclass
class Outcome:
    index: int  # position of the request in the list
    kind: str
    case: str
    latency: float  # seconds, as measured
    calibration: float  # seconds the calibration took just before the request
    status: str  # "ok", "failed", or "wrong"
    detail: str = ""


@dataclass
class Pass:
    traced: bool
    wall: float
    reference_s: float  # the calibration's time at the reference speed
    outcomes: list[Outcome] = field(default_factory=list)


def run_pass(requests, tracer, until=None, calibration=IN_PROCESS) -> Pass:
    """Time every request (started before `until`), then check every result."""
    results = []
    pass_id = tracer.open("pass")
    start = perf_counter()
    for i, request in enumerate(requests):
        if until is not None and perf_counter() >= until:
            break
        calibrated = calibration.run()
        span = tracer.open("request", request=i)
        t0 = perf_counter()
        try:
            value, error = request.run(tracer), None
        except Exception as exc:  # any error, documented or not, is an outcome
            value, error = None, exc
        t1 = perf_counter()
        tracer.close(span)
        results.append((i, value, error, t1 - t0, calibrated))
    wall = perf_counter() - start
    tracer.close(pass_id)
    done = Pass(traced=tracer.traced, wall=wall, reference_s=calibration.reference_s)
    for i, value, error, latency, calibrated in results:
        request = requests[i]
        status, detail = "ok", ""
        if error is not None:
            status, detail = "failed", f"{type(error).__name__}: {error}"
        else:
            try:
                request.check(value)
            except NoAnswer as exc:
                status, detail = "failed", str(exc)
            except Exception as exc:  # WrongValue, or an output too malformed to check
                status, detail = "wrong", f"{type(exc).__name__}: {exc}"
        done.outcomes.append(Outcome(i, request.kind, request.case, latency, calibrated, status, detail))
    return done


def measure(
    requests, seconds: float, traced: bool, after_pass=None, calibration=IN_PROCESS
) -> tuple[list[Pass], Tracer | None]:
    """Repeat passes until the budget is spent; a traced run alternates off/on.

    An untraced run makes one whole pass, then passes that stop at the
    deadline.  A traced run starts untraced, so every traced pass has an
    untraced one to compare with, and stops before a pass would overrun
    the budget.  after_pass(), if given, runs untimed after every pass.
    """
    if len(requests) < MIN_REQUESTS:
        raise BenchError(f"{len(requests)} requests per pass; p90 needs at least {MIN_REQUESTS}")
    tracer = Tracer() if traced else None
    off = NullTracer()
    passes: list[Pass] = []
    deadline = perf_counter() + seconds
    while True:
        plain = sum(not p.traced for p in passes)
        enough = plain >= 1 and len(passes) - plain >= int(traced)
        left = deadline - perf_counter()
        if enough and (left <= 0 or traced and passes[-1].wall > left):
            return passes, tracer
        use = tracer if traced and len(passes) % 2 == 1 else off
        until = deadline if enough and not traced else None
        passes.append(run_pass(requests, use, until, calibration))
        # free the pass's garbage, so it neither adds to the peak memory nor
        # costs a collection inside a request of the next pass
        gc.collect()
        if after_pass is not None:
            after_pass()


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_latencies(passes) -> list[float]:
    """Each request's median latency over the given passes, in seconds at the reference speed.

    A sample is scaled by the median of the calibration samples within
    WINDOW requests of it, in the order the requests ran.  The first pass
    is whole; a later one may stop early.
    """
    outcomes = [o for p in passes for o in p.outcomes]
    calibrations = [o.calibration for o in outcomes]
    samples: list[list[float]] = [[] for _ in passes[0].outcomes]
    for j, outcome in enumerate(outcomes):
        local = statistics.median(calibrations[max(0, j - WINDOW): j + WINDOW + 1])
        samples[outcome.index].append(outcome.latency * passes[0].reference_s / local)
    return [statistics.median(s) for s in samples]


def summarize(passes, setup_times, peak_rss_mb) -> dict:
    """End-to-end metrics of the untraced passes, with sample counts.

    wall_s is the time the request list takes, the sum of the requests'
    scaled latencies; the latency percentiles are over the same latencies.
    """
    latencies = scaled_latencies([p for p in passes if not p.traced])
    ms = [x * 1e3 for x in latencies]
    return {
        "wall_s": (sum(latencies), "s", len(latencies)),
        "latency_p50_ms": (statistics.median(ms), "ms", len(ms)),
        "latency_p90_ms": (percentile(ms, 90), "ms", len(ms)),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def unscaled(passes) -> dict:
    """The untraced passes' figures as measured, and the calibration loop's time, for reference."""
    plain = [p for p in passes if not p.traced]
    samples: list[list[float]] = [[] for _ in plain[0].outcomes]
    for outcome in (o for p in plain for o in p.outcomes):
        samples[outcome.index].append(outcome.latency)
    ms = [statistics.median(s) * 1e3 for s in samples]
    return {
        "wall_s": (sum(ms) / 1e3, "s", len(ms)),
        "latency_p50_ms": (statistics.median(ms), "ms", len(ms)),
        "latency_p90_ms": (percentile(ms, 90), "ms", len(ms)),
        "host.calibration_ms": calibration_ms(plain),
    }


def calibration_ms(passes) -> tuple[float, str, int]:
    samples = [o.calibration * 1e3 for p in passes for o in p.outcomes]
    return statistics.median(samples), "ms", len(samples)


def tiers(passes) -> tuple[list[tuple[str, int, float]], dict[int, str]]:
    """Where the end-to-end time goes, by request kind, in the untraced passes.

    Returns (kind, requests, share of wall_s) per kind, largest share first,
    and the kind of the request at the rank of each latency percentile
    (50 and 90) of the scaled latencies.
    """
    plain = [p for p in passes if not p.traced]
    kinds = [o.kind for o in plain[0].outcomes]
    latencies = scaled_latencies(plain)
    total = sum(latencies)
    shares: dict[str, list] = {}
    for kind, latency in zip(kinds, latencies):
        entry = shares.setdefault(kind, [kind, 0, 0.0])
        entry[1] += 1
        entry[2] += latency / total
    ranked = sorted(range(len(latencies)), key=latencies.__getitem__)
    at = {q: kinds[ranked[round(q / 100 * (len(latencies) - 1))]] for q in (50, 90)}
    return sorted(map(tuple, shares.values()), key=lambda e: -e[2]), at


def trace_summary(passes, tracer) -> dict:
    """Per-layer metrics of the traced passes, plus the tracing overhead.

    Raises BenchError when more than COVERAGE of the traced wall time is
    spent inside requests but outside every layer span: the layer busy
    times would then miss work the program does.
    """
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics = layer_metrics(tracer.spans, len(traced))
    if metrics["trace.untraced_ratio"] > COVERAGE:
        raise BenchError(
            f"{metrics['trace.untraced_ratio']:.1%} of the traced wall time is inside "
            f"requests but outside every layer span (at most {COVERAGE:.0%} allowed)"
        )
    metrics["trace.overhead_ratio"] = sum(scaled_latencies(traced)) / sum(scaled_latencies(plain)) - 1.0
    metrics["host.calibration_ms"] = calibration_ms(passes)[0]
    return metrics
