"""Independent reference computations for checking shiftspace outputs.

Nothing here imports shiftspace.  Counts come from a pattern-matching
automaton over the forbidden words (Aho-Corasick), whose state count bounds
the order of the count recurrence; growth rates come from the minimal
recurrence found by Berlekamp-Massey over the rationals and a bisection
root of its characteristic polynomial, or, for the spaced family, from a
bisection on log(x^m (x - 1)) = log(k - 1), which cannot overflow.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction


class Automaton:
    """Aho-Corasick automaton of a forbidden set, restricted to safe states.

    A state is the longest suffix of the word read so far that is a proper
    prefix of some forbidden word; reading a symbol that completes a
    forbidden word leads nowhere.  Allowed n-blocks are the n-step walks
    from the root.
    """

    def __init__(self, k: int, words):
        goto: list[dict[int, int]] = [{}]
        bad = [False]
        for word in words:
            state = 0
            for symbol in word:
                if symbol not in goto[state]:
                    goto[state][symbol] = len(goto)
                    goto.append({})
                    bad.append(False)
                state = goto[state][symbol]
            bad[state] = True
        fail = [0] * len(goto)
        delta = [[0] * k for _ in goto]
        queue = deque()
        for symbol in range(k):
            target = goto[0].get(symbol, 0)
            delta[0][symbol] = target
            if target:
                queue.append(target)
        while queue:
            state = queue.popleft()
            bad[state] = bad[state] or bad[fail[state]]
            for symbol in range(k):
                if symbol in goto[state]:
                    child = goto[state][symbol]
                    fail[child] = delta[fail[state]][symbol]
                    delta[state][symbol] = child
                    queue.append(child)
                else:
                    delta[state][symbol] = delta[fail[state]][symbol]
        live = [s for s in range(len(goto)) if not bad[s]]
        index = {s: i for i, s in enumerate(live)}
        # successor list per live state, one entry per allowed symbol
        self.out = [[index[delta[s][c]] for c in range(k) if not bad[delta[s][c]]] for s in live]

    @property
    def num_states(self) -> int:
        return len(self.out)

    def counts(self, n_max: int) -> list[int]:
        """Allowed block counts a(0), ..., a(n_max)."""
        weights = [1] * self.num_states  # walks of length 0 from each state
        tail = [1]
        for _ in range(n_max):
            weights = [sum(weights[t] for t in targets) for targets in self.out]
            tail.append(weights[0])
        return tail

    def recurrent_states(self) -> set[int]:
        """States on some bi-infinite walk: iteratively drop sources and sinks."""
        alive = set(range(self.num_states))
        while True:
            has_in = {t for s in alive for t in self.out[s] if t in alive}
            keep = {s for s in alive if s in has_in and any(t in alive for t in self.out[s])}
            if keep == alive:
                return alive
            alive = keep

    def is_irreducible(self) -> bool:
        """Whether the recurrent part is nonempty and strongly connected."""
        alive = self.recurrent_states()
        if not alive:
            return False
        forward = {s: [t for t in self.out[s] if t in alive] for s in alive}
        backward: dict[int, list[int]] = {s: [] for s in alive}
        for s, targets in forward.items():
            for t in targets:
                backward[t].append(s)
        start = next(iter(alive))
        return _reach(forward, start) == alive == _reach(backward, start)


def _reach(graph, start) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for t in graph[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def allowed(block, words) -> bool:
    """Direct factor scan of one block (a tuple) against forbidden tuples."""
    n = len(block)
    return not any(
        block[i : i + len(w)] == w for w in words for i in range(n - len(w) + 1)
    )


def berlekamp_massey(terms) -> list[Fraction]:
    """Minimal connection polynomial c with sum c[j] * t[i - j] = 0, c[0] = 1."""
    c = [Fraction(1)]
    b = [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    for i, term in enumerate(terms):
        d = term + sum(c[j] * terms[i - j] for j in range(1, length + 1))
        if d == 0:
            shift += 1
            continue
        previous = c[:]
        factor = d / last
        c = c + [Fraction(0)] * max(0, len(b) + shift - len(c))
        for j, value in enumerate(b):
            c[j + shift] -= factor * value
        if 2 * length <= i:
            length, b, last, shift = i + 1 - length, previous, d, 1
        else:
            shift += 1
    return (c + [Fraction(0)] * (length + 1))[: length + 1]


def _poly_rem(a, b):
    """Remainder of a by b; coefficient lists, highest degree first."""
    a = a[:]
    while len(a) >= len(b) and any(a):
        factor = a[0] / b[0]
        for j in range(len(b)):
            a[j] -= factor * b[j]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def _poly_div(a, b):
    a = a[:]
    quotient = []
    while len(a) >= len(b):
        factor = a[0] / b[0]
        quotient.append(factor)
        for j in range(len(b)):
            a[j] -= factor * b[j]
        a.pop(0)
    return quotient


def largest_real_root(poly) -> float:
    """Largest real root of a polynomial (highest degree first), at least 0.5.

    The square-free part p / gcd(p, p') changes sign at every real root, so
    a downward scan from the Cauchy bound finds the largest one, and
    bisection refines it.
    """
    p = [Fraction(v) for v in poly]
    while p and p[0] == 0:
        p.pop(0)
    degree = len(p) - 1
    derivative = [p[j] * (degree - j) for j in range(degree)]
    g, h = p, derivative
    while h:
        g, h = h, _poly_rem(g, h)
    core = _poly_div(p, g) if len(g) > 1 else p
    monic = [float(v / core[0]) for v in core]

    def value(x):
        acc = 0.0
        for coefficient in monic:
            acc = acc * x + coefficient
        return acc

    hi = 1.0 + max(abs(v) for v in monic[1:]) if len(monic) > 1 else 1.0
    lo = hi
    while value(lo) > 0.0:
        hi = lo
        lo /= 1.001
        if lo < 0.5:
            raise ArithmeticError("no real root above 0.5")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if value(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def growth_rate(automaton: Automaton) -> float:
    """Spectral radius of the automaton: its count sequence's dominant root."""
    terms = automaton.counts(2 * automaton.num_states + 2)
    connection = berlekamp_massey(terms)
    return largest_real_root(connection)


def tmk_root(m: int, k: int) -> float:
    """Root in (1, k] of x^(m+1) - x^m - (k-1), solved as m ln x + ln(x-1) = ln(k-1)."""
    target = math.log(k - 1)
    lo, hi = 1.0, float(k)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if m * math.log(mid) + math.log(mid - 1.0) < target:
            lo = mid
        else:
            hi = mid


def tmk_words(m: int, k: int) -> list[tuple[int, ...]]:
    """Forbidden words a 0^j b of the spaced family, a, b nonzero, j < m."""
    return [(a,) + (0,) * j + (b,) for a in range(1, k) for b in range(1, k) for j in range(m)]


def tmk_count_mod(m: int, k: int, n: int, modulus: int) -> int:
    """a(n) mod modulus for a(n) = a(n-1) + (k-1) a(n-m-1), a(j) = 1 + j(k-1), j <= m+1."""
    d = m + 1
    if n <= d:
        return (1 + n * (k - 1)) % modulus
    # companion matrix acting on (a(j), a(j-1), ..., a(j-m))
    step = [[0] * d for _ in range(d)]
    step[0][0] = 1
    step[0][d - 1] = k - 1
    for i in range(1, d):
        step[i][i - 1] = 1

    def mul(x, y):
        return [
            [sum(x[i][t] * y[t][j] for t in range(d)) % modulus for j in range(d)]
            for i in range(d)
        ]

    power = [[int(i == j) for j in range(d)] for i in range(d)]
    e = n - d
    while e:
        if e & 1:
            power = mul(power, step)
        step = mul(step, step)
        e >>= 1
    seed = [1 + (d - i) * (k - 1) for i in range(d)]  # a(d), a(d-1), ..., a(1)
    return sum(power[0][t] * seed[t] for t in range(d)) % modulus
