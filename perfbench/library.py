"""In-process workloads: exact-counts and entropy-infer.

Each workload function turns a seed into a fixed-size request list (the mix of
request kinds never depends on the seed), writes the spec files the
requests load, and computes every expected answer with the harness's own
oracle before anything is timed.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import oracle
from harness import Request, WrongValue

# a(n) is checked modulo this product of two Mersenne primes at large n.
MODULUS = (2**61 - 1) * (2**89 - 1)

# Hard cases of entropy-infer: name -> (why it is here, its correct answer).
HARD_CASES = {
    "reducible-k3": (
        "reducible k = 3 spec {01,02,10,20}: power iteration stalls and raises "
        "ConvergenceError after 10^6 iterations (about 6.7 s)",
        "ln 2",
    ),
    "tmk-5-20-matrix": (
        "entropy_numeric(tmk(5,20)) is refused by the k^window state cap although "
        "only 96 windows are allowed",
        "log of the root of x^6 - x^5 - 19",
    ),
}


def random_words(rng, k, lengths=(2, 2, 3)):
    """A small forbidden set over k symbols whose shift is irreducible, with a word of the longest length."""
    while True:
        words = {
            tuple(rng.randrange(k) for _ in range(rng.choice(lengths)))
            for _ in range(rng.randint(2, 4))
        }
        if max(map(len, words)) < max(lengths):
            continue
        automaton = oracle.Automaton(k, words)
        if automaton.is_irreducible():
            return sorted(words), automaton


class SpecFiles:
    """Writes spec files into the run's work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.written = 0

    def write(self, k, words, redundant=()):
        """Path and raw line count of a spec file; redundant lines contain a member."""
        lines = sorted({"".join(map(str, w)) for w in list(words) + list(redundant)})
        self.written += 1
        path = self.workdir / f"spec-{self.written:04d}.txt"
        path.write_text(f"k = {k}\n" + "".join(f"{line}\n" for line in lines))
        return path, len(lines)


class Source:
    """How a request obtains its spec: tmk_spec or load_spec_file."""

    def __init__(self, ss, k, words, automaton, params=None, path=None, raw=0):
        self.ss, self.k, self.words, self.automaton = ss, k, words, automaton
        self.params, self.path, self.raw = params, path, raw

    def load(self, t):
        if self.params is not None:
            return t.call("core.load", self.ss.tmk_spec, self.params)
        return t.call("core.load", self.ss.load_spec_file, self.path, note={"raw": self.raw})


def source_kind(source):
    return "tmk" if source.params is not None else ("word" if source.k == 2 else "random")


def tmk_source(ss, m, k):
    words = oracle.tmk_words(m, k)
    return Source(ss, k, words, oracle.Automaton(k, words), params=ss.TmkParams(m, k))


def random_source(ss, rng, files, ks=(3, 4), lengths=(2, 2, 3)):
    k = rng.choice(ks)
    words, automaton = random_words(rng, k, lengths)
    redundant = [w + (rng.randrange(k),) for w in rng.sample(words, min(2, len(words)))]
    path, raw = files.write(k, words, redundant)
    return Source(ss, k, words, automaton, path=path, raw=raw)


def word_source(ss, files, length):
    words = [(1,) * length]
    path, raw = files.write(2, words)
    return Source(ss, 2, words, oracle.Automaton(2, words), path=path, raw=raw)


def longest_within(k, cap):
    """Largest n with k^n <= cap."""
    n = 0
    while k ** (n + 1) <= cap:
        n += 1
    return n


def _expect_equal(actual, expected, what):
    if actual != expected:
        raise WrongValue(f"{what}: got {actual!r}, expected {expected!r}")


def _close(actual, expected, tol, what):
    if not abs(actual - expected) <= tol:
        raise WrongValue(f"{what}: got {actual!r}, expected {expected!r} within {tol:g}")


# ---------------------------------------------------------------- exact-counts


def count_request(ss, source, n, method):
    """count_blocks, count_sequence (n = n_max) or count_via_matrix on one spec."""
    terms = source.automaton.counts(n)

    if method == "count_blocks":
        def run(t):
            return t.call("enumeration.count", ss.count_blocks, source.load(t), n)
    elif method == "count_sequence":
        def run(t):
            seq = t.call("enumeration.count", ss.count_sequence, source.load(t), n)
            return (seq.n_min, tuple(seq.counts))
        terms = (1, tuple(terms[1:]))
    else:
        def run(t):
            automaton = t.call("transfer.build", ss.build_automaton, source.load(t))
            return t.call("transfer.path_count", ss.count_via_matrix, automaton, n)

    expected = terms if method == "count_sequence" else terms[n]
    return Request(
        f"{method}/{source_kind(source)}",
        run,
        lambda value: _expect_equal(value, expected, f"{method} n={n}"),
    )


def evaluate_request(ss, m, k, n):
    """evaluate(tmk_recurrence) at large n, checked modulo MODULUS."""
    params = ss.TmkParams(m, k)
    residue = oracle.tmk_count_mod(m, k, n, MODULUS)

    def run(t):
        rec = t.call("recurrence.evaluate", ss.tmk_recurrence, params)
        return t.call("recurrence.evaluate", ss.recurrence.evaluate, rec, n)

    def check(value):
        _expect_equal(value % MODULUS if value > 0 else None, residue, f"a({n}) of tmk({m},{k}) mod p")

    return Request("evaluate/tmk", run, check)


def enumerate_request(ss, source, n):
    """enumerate_blocks: strictly increasing, all allowed, as many as counted."""
    total = source.automaton.counts(n)[n]
    forbidden = ["".join(map(str, w)) for w in source.words]

    def run(t):
        return t.call("enumeration.enumerate", ss.enumerate_blocks, source.load(t), n)

    def check(blocks):
        _expect_equal(len(blocks), total, f"number of {n}-blocks")
        texts = ["".join(map(str, b.symbols)) for b in blocks]
        if any(len(x) != n for x in texts) or any(a >= b for a, b in zip(texts, texts[1:])):
            raise WrongValue("blocks are not distinct length-n words in lexicographic order")
        bad = next((x for x in texts if any(f in x for f in forbidden)), None)
        if bad is not None:
            raise WrongValue(f"block {bad} contains a forbidden word")

    return Request(f"enumerate/{source_kind(source)}", run, check)


def dp_length(source, method, work, jitter):
    """n at which one count request does about `work` steps of the window DP.

    A step of count_blocks/count_sequence touches every allowed window once
    per symbol and forbidden length; a step of count_via_matrix follows
    every edge (allowed block of the longest forbidden length) once.
    """
    longest = max(len(w) for w in source.words)
    counts = source.automaton.counts(longest)
    if method == "count_via_matrix":
        per_step = counts[longest]
    else:
        per_step = counts[longest - 1] * source.k * len({len(w) for w in source.words})
    return min(300, max(30, round(jitter * work / per_step)))


def evaluate_length(m, k, jitter):
    """n at which evaluating tmk(m,k) does about the same big-integer work for every pair.

    The work grows like n^2 * order * log2(lambda); the golden mean at
    n = 15 000 sets the scale.
    """
    golden = 15000**2 * 2 * math.log2((1 + 5**0.5) / 2)
    return int(jitter * math.sqrt(golden / ((m + 1) * math.log2(oracle.tmk_root(m, k)))))


def exact_counts(ss, seed, workdir):
    """Exact integer counting: window DP, path counting, big-int recurrences.

    Many small requests are drawn from fixed distributions so that latency
    quantiles hardly depend on the seed; the large ones have fixed sizes.
    """
    rng = random.Random(seed)
    files = SpecFiles(workdir)
    # every seed draws the same tmk pairs, in its own order
    tmk_pairs = [(m, k) for m in range(1, 4) for k in range(2, 6)]
    rng.shuffle(tmk_pairs)
    drawn = iter(tmk_pairs * 20)

    def small_tmk():
        return tmk_source(ss, *next(drawn))

    def sized(method, source, work):
        return count_request(ss, source, dp_length(source, method, work, rng.uniform(0.97, 1.03)), method)

    # 1^12 stands in for 1^16, whose counting at n = 200 takes about 27 s.
    word12 = word_source(ss, files, 12)
    requests = [
        count_request(ss, word12, 200, "count_blocks"),
        count_request(ss, word12, 200, "count_via_matrix"),
    ]
    for length in (6, 8, 10):
        requests.append(count_request(ss, word_source(ss, files, length), 200, "count_blocks"))
    # window-DP requests sized to equal work, so their latencies bunch up
    for method, copies, work in (
        ("count_blocks", 60, 6000),
        ("count_sequence", 20, 3000),
        ("count_via_matrix", 20, 3000),
    ):
        for _ in range(copies):
            requests.append(sized(method, small_tmk(), work))
            requests.append(sized(method, random_source(ss, rng, files), work))
    for _ in range(16):
        for source in (small_tmk(), random_source(ss, rng, files)):
            requests.append(enumerate_request(ss, source, longest_within(source.k, 1024)))
    # enough equal-work evaluations that p90 falls among them; every seed
    # draws each of the 9 pairs 3 or 4 times, at its own n
    pairs = [(m, k) for m in range(1, 4) for k in range(2, 5)]
    rng.shuffle(pairs)
    for i in range(30):
        m, k = pairs[i % len(pairs)]
        requests.append(evaluate_request(ss, m, k, evaluate_length(m, k, rng.uniform(0.98, 1.02))))
    return requests


# ---------------------------------------------------------------- entropy-infer


def entropy_numeric_request(ss, source, expected, case=""):
    """entropy_numeric, traced as build_automaton -> trim -> adjacency_matrix -> dominant_eigenvalue.

    The traced chain must give exactly the composite call's lambda0, and
    both must lie within the reported residual plus 1e-9 of the expected
    growth rate.
    """
    composite = {}

    def run(t):
        spec = source.load(t)
        if not t.traced:
            report = ss.entropy_numeric(spec)
            return report.lambda0, report.entropy, report.residual
        automaton = t.call("transfer.build", ss.build_automaton, spec)
        trimmed = t.call("transfer.trim", ss.trim, automaton)
        matrix = t.call("transfer.power", trimmed.adjacency_matrix)
        return t.call("transfer.power", ss.dominant_eigenvalue, matrix), None, None

    def check(value):
        lambda0, entropy, residual = value
        if residual is None:
            if "lambda0" in composite:
                _expect_equal(lambda0, composite["lambda0"], "traced chain vs entropy_numeric")
            residual = composite.get("residual", 0.0)
        else:
            composite.update(lambda0=lambda0, residual=residual)
            _close(entropy, math.log(lambda0), 1e-12, "entropy vs log(lambda0)")
        _close(lambda0, expected, residual + 1e-9, "entropy_numeric lambda0")

    return Request("entropy_numeric/" + (case or source_kind(source)), run, check, case)


def entropy_tmk_request(ss, m, k):
    expected = oracle.tmk_root(m, k)

    def run(t):
        report = t.call("spectral.root", ss.entropy_tmk, m, k)
        return report.lambda0, report.entropy

    def check(value):
        _close(value[0], expected, 1e-9 * expected, f"entropy_tmk({m},{k}) lambda0")
        _close(value[1], math.log(value[0]), 1e-12, "entropy vs log(lambda0)")

    return Request("entropy_tmk", run, check)


def infer_request(ss, source):
    """count_sequence then infer_recurrence, with max_order the oracle's state count.

    A found recurrence must match twice as many oracle terms.  None is a
    wrong answer only when the minimal recurrence has order <= max_order
    and a nonzero trailing coefficient (a nilpotent part makes it zero).
    """
    max_order = source.automaton.num_states
    n_terms = 2 * max_order + 2
    terms = source.automaton.counts(2 * n_terms)[1:]
    connection = oracle.berlekamp_massey(terms)
    must_find = len(connection) - 1 <= max_order and connection[-1] != 0

    def run(t):
        counts = t.call("enumeration.count", ss.count_sequence, source.load(t), n_terms)
        return t.call("recurrence.infer", ss.infer_recurrence, counts, max_order)

    def check(rec):
        if rec is None:
            if must_find:
                raise WrongValue(f"no recurrence found, but one of order {len(connection) - 1} exists")
            return
        status = ss.verify_recurrence(rec, ss.CountSequence(tuple(terms))).status
        _expect_equal(status, "match", f"inferred order-{rec.order} recurrence on {len(terms)} terms")

    return Request("infer_recurrence/" + source_kind(source), run, check)


def grid_roots(m_range, k_range):
    return {
        (m, k): oracle.tmk_root(m, k)
        for m in range(m_range[0], m_range[1] + 1)
        for k in range(k_range[0], k_range[1] + 1)
    }


def design_request(ss, target, roots):
    """design_for_entropy over the grid of roots, checked pair by pair."""
    tol = 1e-9
    m_range = (min(m for m, _ in roots), max(m for m, _ in roots))
    k_range = (min(k for _, k in roots), max(k for _, k in roots))
    must = {pair for pair, root in roots.items() if abs(math.log(root) - target) < tol * 0.99}
    may = {pair for pair, root in roots.items() if abs(math.log(root) - target) <= tol * 1.01}

    def run(t):
        results = t.call(
            "design", ss.design_for_entropy, target, m_range=m_range, k_range=k_range, tol=tol
        )
        return [(r.m, r.k, r.lambda0) for r in results]

    def check(found):
        pairs = {(m, k) for m, k, _ in found}
        if not must <= pairs <= may:
            raise WrongValue(f"design_for_entropy({target}) gave {sorted(pairs)}, expected {sorted(must)}")
        for m, k, lambda0 in found:
            _close(lambda0, roots[m, k], 1e-9 * lambda0, f"design lambda0 of ({m},{k})")

    return Request("design_for_entropy", run, check)


def table_request(ss, m_range, k_range):
    roots = grid_roots(m_range, k_range)

    def run(t):
        rows = t.call("design", ss.entropy_table, m_range=m_range, k_range=k_range)
        return [(r.m, r.k, r.lambda0, r.entropy) for r in rows]

    def check(rows):
        _expect_equal([(m, k) for m, k, _, _ in rows], list(roots), "entropy_table grid order")
        for m, k, lambda0, entropy in rows:
            _close(lambda0, roots[m, k], 1e-9 * lambda0, f"table lambda0 of ({m},{k})")
            _close(entropy, math.log(lambda0), 1e-12, "table entropy vs log(lambda0)")

    return Request("entropy_table", run, check)


def ratio_request(ss, target, m, expected):
    def run(t):
        return t.call("design", ss.k_for_target_ratio, target, m)

    return Request(
        "k_for_target_ratio",
        run,
        lambda value: _expect_equal(value, expected, f"k_for_target_ratio({target}, {m})"),
    )


def entropy_infer(ss, seed, workdir):
    """Float power iteration on small trimmed matrices, exact recurrence inference, design.

    Most requests are entropy_numeric on small tmk and random specs, so the
    median request is power iteration on a small trimmed matrix; the design
    scans sit above the 90th percentile's rank.  The two hard cases come
    last; the runner takes them out of the request list (they fail today).
    """
    rng = random.Random(seed)
    files = SpecFiles(workdir)
    requests = []

    # design scans over a 4 x 59 grid
    roots = grid_roots((1, 4), (2, 60))
    targets = sorted(p for p in roots if p[0] <= 3 and p[1] <= 30)
    for _ in range(40):
        requests.append(design_request(ss, math.log(roots[rng.choice(targets)]), roots))

    # small automata and recurrences
    pairs = [(m, k) for m in range(1, 4) for k in range(2, 5)]
    rng.shuffle(pairs)
    for i in range(30):  # each of the 9 pairs 3 or 4 times
        m, k = pairs[i % len(pairs)]
        requests.append(entropy_numeric_request(ss, tmk_source(ss, m, k), ss.dominant_root(m, k)))
    # every seed draws the same number of specs of each shape (alphabet size,
    # longest word), because the shape sets most of a request's cost; the
    # median request lies among the 80 of k = 4 with words of length 2
    for k, lengths, copies in ((3, (2,), 40), (4, (2,), 80), (3, (2, 2, 3), 15), (4, (2, 2, 3), 15)):
        for _ in range(copies):
            source = random_source(ss, rng, files, ks=(k,), lengths=lengths)
            requests.append(entropy_numeric_request(ss, source, oracle.growth_rate(source.automaton)))
    for _ in range(20):
        requests.append(infer_request(ss, random_source(ss, rng, files, ks=(3,), lengths=(2,))))
    for _ in range(10):
        k_lo = rng.randint(2, 12)
        requests.append(table_request(ss, (1, 3), (k_lo, k_lo + 28)))

    # closed-form calls
    for _ in range(20):
        requests.append(entropy_tmk_request(ss, rng.randint(1, 6), rng.randint(2, 40)))
    for _ in range(10):
        r, m = rng.randint(2, 9), rng.randint(1, 3)
        requests.append(ratio_request(ss, float(r), m, r ** (m + 1) - r**m + 1))
    for _ in range(5):
        requests.append(ratio_request(ss, rng.randint(2, 9) + 0.5, rng.randint(1, 3), None))

    # fixed large requests, last: a pass cut at the deadline then still
    # gives the many small requests another sample
    for length in (6, 8, 10):
        source = word_source(ss, files, length)
        requests.append(entropy_numeric_request(ss, source, oracle.growth_rate(source.automaton)))
    reducible = [(0, 1), (0, 2), (1, 0), (2, 0)]
    path, raw = files.write(3, reducible)
    source = Source(ss, 3, reducible, oracle.Automaton(3, reducible), path=path, raw=raw)
    requests.append(entropy_numeric_request(ss, source, 2.0, "reducible-k3"))
    requests.append(entropy_numeric_request(ss, tmk_source(ss, 5, 20), oracle.tmk_root(5, 20), "tmk-5-20-matrix"))
    for m in range(2, 13):
        requests.append(infer_request(ss, tmk_source(ss, m, 2)))
    return requests
