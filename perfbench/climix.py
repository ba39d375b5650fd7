"""The cli-mix workload: short `python -m shiftspace` runs, one at a time.

Every pass runs each of the 7 subcommands in each of the 3 formats with 5
sets of small seeded arguments.  The CLI hard cases are built with them and
run once per run, after the passes.  Stdout is parsed back into values and
compared with the same computation done in process (or, for hard cases,
with the oracle).  Before every CLI run the interpreter floor
(`python -c pass`) is timed, and it calibrates the run's latency (see
harness); between passes the import time of shiftspace.cli is sampled.
So a slower machine shows apart from a slower program.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

import oracle
import harness
from harness import NoAnswer, Request, WrongValue
from library import SpecFiles, longest_within, random_words

COMMANDS = ("count", "enumerate", "sequence", "entropy", "verify", "design", "table")
VARIANTS = 5  # argument sets per subcommand and format: 105 runs plus the hard cases

HARD_CASES = {
    "cli-entropy-overflow": (
        "entropy --tmk 2000,1000 ends in an OverflowError traceback in "
        "CharacteristicPolynomial.value",
        "lambda0 = root of x^2001 - x^2000 - 999, or a documented error exit",
    ),
    "cli-design-overflow": (
        "design --target-ratio 1e200 --m 3 ends in an OverflowError traceback in "
        "k_for_target_ratio",
        "the exact k, no admissible k, or a documented error exit",
    ),
    "cli-entropy-both-5-20": (
        "entropy --tmk 5,20 --method both exits 1: the matrix method is refused by "
        "the k^window cap although only 96 windows are allowed",
        "two reports whose lambda0 is the root of x^6 - x^5 - 19",
    ),
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import shiftspace.cli; "
    "print(time.perf_counter() - t)"
)


# the interpreter floor's time at the reference speed (a quiet 2-vCPU host, Python 3.11)
FLOOR_REFERENCE_S = 0.05


class Runner:
    """Starts the CLI, the interpreter floor and the import probe against the checkout's src/."""

    def __init__(self, src):
        # children read the bytecode cache that run.import_shiftspace writes
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env = {**env, "PYTHONPATH": str(src)}
        self.cwd = str(src.parent)
        self.calibration = harness.Calibration(self.floor, FLOOR_REFERENCE_S)
        self.import_ms: list[float] = []

    def _python(self, *args, timeout, check=False):
        # output goes to pipes: without them, a wait with a timeout polls
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.cwd,
            timeout=timeout,
            check=check,
        )

    def cli(self, t, argv):
        return t.call("cli", self._python, "-m", "shiftspace", *argv, timeout=120)

    def floor(self) -> float:
        """Seconds one `python -c pass` takes now."""
        t0 = perf_counter()
        self._python("-c", "pass", check=True, timeout=60)
        return perf_counter() - t0

    def probe(self):
        """Sample the import time of shiftspace.cli twice, scaled like the CLI runs."""
        for _ in range(2):
            scale = FLOOR_REFERENCE_S / self.floor()
            done = self._python("-c", IMPORT_PROBE, check=True, timeout=60)
            self.import_ms.append(float(done.stdout) * 1e3 * scale)


# ---------------------------------------------------------------- parsing


def _csv(out):
    rows = list(csv.reader(io.StringIO(out)))
    return rows[1:]


def _pairs(line):
    return dict(token.split("=", 1) for token in line.split() if "=" in token)


def parse(command, fmt, out, *, ratio=False):
    """Stdout of one command in one format, as plain values."""
    if command == "count":
        if fmt == "text":
            return int(out)
        return int(_csv(out)[0][1]) if fmt == "csv" else int(json.loads(out)["count"])
    if command == "enumerate":
        if fmt == "text":
            return out.splitlines()
        return [r[0] for r in _csv(out)] if fmt == "csv" else json.loads(out)["blocks"]
    if command == "sequence":
        if fmt == "text":
            return [int(v) for v in out.strip().split(",")]
        rows = [r[1] for r in _csv(out)] if fmt == "csv" else json.loads(out)["counts"]
        return [int(v) for v in rows]
    if command == "entropy":
        if fmt == "text":
            reports = [_pairs(line) for line in out.splitlines()]
            return [(r["method"], float(r["lambda0"]), float(r["entropy"])) for r in reports]
        if fmt == "csv":
            return [(r[0], float(r[1]), float(r[2])) for r in _csv(out)]
        return [(r["method"], r["lambda0"], r["entropy"]) for r in json.loads(out)["reports"]]
    if command == "verify":
        def row(n, e, m, r):
            return int(n), int(e), int(m), None if r in ("-", "", None) else int(r)

        if fmt == "text":
            lines = out.splitlines()
            rows = [row(*line.split()[:4]) for line in lines[1:] if line.split()[0].isdigit()]
            return lines[-1].startswith("counts agree"), rows
        if fmt == "csv":
            rows = _csv(out)
            return all(r[4] == "true" for r in rows), [row(*r[:4]) for r in rows]
        doc = json.loads(out)
        return doc["agree"], [row(r["n"], r["enumeration"], r["matrix"], r["recurrence"]) for r in doc["rows"]]
    if command == "design":
        if ratio:
            if fmt == "text":
                return None if out.startswith("no admissible") else int(_pairs(out)["k"])
            if fmt == "csv":
                value = _csv(out)[0][1]
                return int(value) if value else None
            return json.loads(out)["k"]
        if fmt == "text":
            if out.startswith("no parameters"):
                return []
            return [(int(p["m"]), int(p["k"]), float(p["lambda0"])) for p in map(_pairs, out.splitlines())]
        if fmt == "csv":
            return [(int(r[0]), int(r[1]), float(r[2])) for r in _csv(out)]
        return [(r["m"], r["k"], r["lambda0"]) for r in json.loads(out)["results"]]
    if command == "table":
        if fmt == "text":
            rows = [line.split() for line in out.splitlines()[1:]]
        elif fmt == "csv":
            rows = _csv(out)
        else:
            rows = [(r["m"], r["k"], r["lambda0"], r["entropy"]) for r in json.loads(out)["rows"]]
        return [(int(m), int(k), float(lam), float(h)) for m, k, lam, h in rows]
    raise ValueError(f"unknown command {command}")


def same(actual, expected, rel):
    """Equal, with floats equal to a relative tolerance."""
    if isinstance(expected, float):
        return isinstance(actual, (int, float)) and abs(actual - expected) <= rel * max(1.0, abs(expected))
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(actual, (list, tuple))
            and len(actual) == len(expected)
            and all(same(a, e, rel) for a, e in zip(actual, expected))
        )
    return actual == expected


# ---------------------------------------------------------------- requests


def cli_request(runner, argv, fmt, expected, *, rel=1e-12, ratio=False, case="", accept_error=False):
    """One CLI run; expected is a value or, for verify, a predicate on the parsed output.

    accept_error lets a hard case pass with a documented error exit (1 or 2).
    """
    command = argv[0]
    argv = [*argv, "--format", fmt]

    def check(done):
        if "Traceback (most recent call last)" in done.stderr:
            raise NoAnswer(f"traceback: {done.stderr.strip().splitlines()[-1]}")
        if done.returncode not in (0, 1, 2, 3):
            raise NoAnswer(f"exit code {done.returncode}")
        if done.returncode == 3:
            raise WrongValue(f"verify reported a disagreement: {done.stdout[-200:]}")
        if done.returncode != 0:
            if accept_error:
                return
            raise NoAnswer(f"exit {done.returncode}: {done.stderr.strip()}")
        value = parse(command, fmt, done.stdout, ratio=ratio)
        good = expected(value) if callable(expected) else same(value, expected, rel)
        if not good:
            want = "a consistent answer" if callable(expected) else repr(expected)
            raise WrongValue(f"{' '.join(argv)}: got {value!r}, expected {want}")

    return Request(f"cli.{command}/{fmt}", lambda t: runner.cli(t, argv), check, case)


def _entropy_reports(ss, spec, m_k, method, base):
    reports = []
    if method in ("poly", "both"):
        reports.append(ss.entropy_tmk(*m_k, log_base=base))
    if method in ("matrix", "both"):
        reports.append(ss.entropy_numeric(spec, log_base=base))
    return [(r.method, r.lambda0, r.entropy) for r in reports]


def cli_mix(ss, seed, workdir, runner):
    """Process start, imports and argparse dominate; every subcommand, every format."""
    rng = random.Random(seed)
    files = SpecFiles(workdir)
    requests = []

    def tmk(m_hi=3, k_hi=5):
        m, k = rng.randint(1, m_hi), rng.randint(2, k_hi)
        return m, k, ss.tmk_spec(ss.TmkParams(m, k))

    def spec_file():
        k = rng.choice((3, 4))
        words, _ = random_words(rng, k)
        path, _raw = files.write(k, words)
        return str(path), ss.load_spec_file(path)

    def add(argv, fmt, expected, **kw):
        requests.append(cli_request(runner, [str(a) for a in argv], fmt, expected, **kw))

    def one_of_each():
        """Each subcommand once in each format, with fresh seeded arguments."""
        # count
        m, k, spec = tmk()
        n = rng.randint(10, 40)
        add(["count", "--tmk", f"{m},{k}", "--n", n], "text", ss.count_blocks(spec, n))
        path, spec = spec_file()
        n = rng.randint(10, 40)
        add(["count", "--spec", path, "--n", n], "csv", ss.count_blocks(spec, n))
        m, k, spec = tmk()
        n = rng.randint(60, 90)
        add(["count", "--tmk", f"{m},{k}", "--n", n], "json", ss.count_blocks(spec, n))

        # enumerate
        def texts(blocks, k):
            return [ss.block_text(b, k) for b in blocks]

        m, k, spec = tmk()
        n = longest_within(k, 256)
        add(["enumerate", "--tmk", f"{m},{k}", "--n", n], "text", texts(ss.enumerate_blocks(spec, n), k))
        path, spec = spec_file()
        n = longest_within(spec.alphabet_size, 256)
        add(["enumerate", "--spec", path, "--n", n], "csv", texts(ss.enumerate_blocks(spec, n), spec.alphabet_size))
        m, k, spec = tmk()
        n = longest_within(k, 256)
        constructive = ss.enumerate_blocks_constructive(ss.TmkParams(m, k), n)
        add(["enumerate", "--tmk", f"{m},{k}", "--n", n, "--order", "constructive"], "json", texts(constructive, k))

        # sequence
        m, k, spec = tmk()
        n = rng.randint(10, 20)
        add(["sequence", "--tmk", f"{m},{k}", "--n-max", n], "text", list(ss.count_sequence(spec, n)))
        path, spec = spec_file()
        n = rng.randint(10, 20)
        add(["sequence", "--spec", path, "--n-max", n], "csv", list(ss.count_sequence(spec, n)))
        n = rng.randint(10, 20)
        add(["sequence", "--three-symbol", "--n-max", n], "json", list(ss.sum_recurrence_three_symbol(n)))

        # entropy
        m, k = rng.randint(1, 4), rng.randint(2, 30)
        add(["entropy", "--tmk", f"{m},{k}"], "text", _entropy_reports(ss, None, (m, k), "poly", "e"))
        path, spec = spec_file()
        add(["entropy", "--spec", path], "csv", _entropy_reports(ss, spec, None, "matrix", "e"))
        m, k, spec = tmk(3, 4)
        add(
            ["entropy", "--tmk", f"{m},{k}", "--method", "both", "--base", "2"],
            "json",
            _entropy_reports(ss, spec, (m, k), "both", "2"),
        )

        # verify: every row agrees; the recurrence column, where given, too
        def agreeing(counts):
            def predicate(value):
                agree, rows = value
                return agree and [r[:3] for r in rows] == [(n, c, c) for n, c in enumerate(counts, 1)] and all(
                    r[3] in (None, r[1]) for r in rows
                )

            return predicate

        for fmt in ("text", "csv", "json"):
            if fmt == "csv":
                path, spec = spec_file()
                argv = ["verify", "--spec", path]
            else:
                m, k, spec = tmk(3, 4)
                argv = ["verify", "--tmk", f"{m},{k}"]
            n = rng.randint(8, 11)
            add([*argv, "--n-max", n], fmt, agreeing(list(ss.count_sequence(spec, n))))

        # design
        r, m = rng.randint(2, 9), rng.randint(1, 3)
        add(["design", "--target-ratio", r, "--m", m], "text", ss.k_for_target_ratio(float(r), m), ratio=True)
        for fmt, m_range, k_range in (("csv", (1, 3), (2, 30)), ("json", (1, 2), (2, 20))):
            target = ss.entropy_tmk(rng.randint(*m_range), rng.randint(*k_range)).entropy
            found = ss.design_for_entropy(target, m_range=m_range, k_range=k_range)
            add(
                ["design", "--target-entropy", repr(target), "--m-range", "{}..{}".format(*m_range),
                 "--k-range", "{}..{}".format(*k_range)],
                fmt,
                [(d.m, d.k, d.lambda0) for d in found],
            )

        # table
        for fmt, base in (("text", "e"), ("csv", "2"), ("json", "10")):
            m_range, k_range = (1, rng.randint(1, 3)), (2, rng.randint(5, 15))
            rows = ss.entropy_table(m_range=m_range, k_range=k_range, log_base=base)
            add(
                ["table", "--m-range", "{}..{}".format(*m_range), "--k-range", "{}..{}".format(*k_range),
                 "--base", base],
                fmt,
                [(row.m, row.k, row.lambda0, row.entropy) for row in rows],
            )

    for _ in range(VARIANTS):
        one_of_each()

    # hard cases, answers from the oracle
    root = oracle.tmk_root(2000, 1000)
    add(["entropy", "--tmk", "2000,1000"], "text", [("polynomial", root, math.log(root))],
        rel=1e-9, case="cli-entropy-overflow", accept_error=True)
    target = int(1e200)
    admissible = {target**4 - target**3 + 1, 10**800 - 10**600 + 1, None}
    add(["design", "--target-ratio", "1e200", "--m", "3"], "text", admissible.__contains__,
        ratio=True, case="cli-design-overflow", accept_error=True)
    root = oracle.tmk_root(5, 20)
    add(["entropy", "--tmk", "5,20", "--method", "both"], "text",
        [("polynomial", root, math.log(root)), ("transfer-matrix", root, math.log(root))],
        rel=3e-9, case="cli-entropy-both-5-20")
    return requests


def cli_metrics(passes, runner) -> dict[str, tuple[float, int]]:
    """cli.<command>.p50_ms of the requests' scaled latencies, the import time and the floor, with sample counts.

    cli.floor_ms is the median of the floor samples as measured: they
    calibrate the CLI runs, so they are not scaled.

    Workloads that never start the CLI read 0 with no samples.
    """
    kinds = [o.kind for o in passes[0].outcomes] if passes else []
    plain = [p for p in passes if not p.traced]
    times = harness.scaled_latencies(plain) if plain else []
    samples = {
        f"cli.{command}.p50_ms": [
            t * 1e3 for kind, t in zip(kinds, times) if kind.startswith(f"cli.{command}/")
        ]
        for command in COMMANDS
    }
    samples["cli.import_ms"] = runner.import_ms if runner else []
    samples["cli.floor_ms"] = [o.calibration * 1e3 for p in plain for o in p.outcomes] if runner else []
    return {k: (statistics.median(v) if v else 0.0, len(v)) for k, v in samples.items()}
