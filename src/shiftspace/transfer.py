"""Path counting and entropy through the block automaton.

States are the allowed blocks of length L-1, where L is at least 2 and at
least the longest forbidden block; an edge labeled s joins u to v when u
extended by s is allowed and v is that extension with the first symbol
dropped.  The build grows the allowed blocks one symbol at a time as base-k
integer codes: a block is allowed exactly when its prefix and its suffix one
shorter are and it is not itself forbidden, each layer within the state cap
MAX_STATES.  It imports nothing from enumeration, so the three methods stay
independent checks.

One stream counts the allowed blocks of every length: below the window it
yields the sizes of those layers, and allowed blocks of length n >= L-1
correspond one to one to paths of length n-L+1.  Entropy is the logarithm
of the dominant eigenvalue of the trimmed automaton, the states that start
and end infinite paths.  Paths and entropy are read off one quotient:
states with equal successor lists are merged, pass after pass, until no two
are equal.  The classes form an equitable partition, an amalgamation (Lind
and Marcus 1995, section 2.4): every state of a class has the same number
of edges into each class, so a vector constant on the classes stays so
under the adjacency matrix.  The 2^11 states of the automaton of 1^12 fall
into 12 classes, those of tmk(m, k) into m + 1.  Counts start from the
all-ones weights: the number of paths of a given length from a state
depends only on its class, and each count is a sum of class size times
class weight, exact and with no float step; the steps either walk the
quotient or power its class edge-count matrix by squaring, whichever the
operation counts say is cheaper.  Entropy comes from power iteration with a
Collatz-Wielandt enclosure over the classes' out-lists, one entry per edge,
so a step costs the merged edges, not states^2; each row sum is rounded
once by math.fsum, so the merged iteration gives the full automaton's bits.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from itertools import chain, islice, product, repeat
from math import fsum
from operator import add, and_, mul, truediv

from .core import Block, ShiftSpaceSpec, _require_int, _Value, validate_spec
from .errors import (
    ConvergenceError,
    EmptyShiftSpaceError,
    ParameterError,
    ResourceLimitError,
)
from .spectral import DEFAULT_TOL, EntropyReport, _log, _require_tol

MAX_STATES = 2**20
MAX_ITERATIONS = 10**6


class AdjacencyMatrix(_Value):
    """Integer edge-count matrix of an automaton, indexed like its states."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        _Value.__init__(self, rows)

    @property
    def size(self) -> int:
        return len(self.rows)


class TransferAutomaton(_Value):
    """The block automaton of a spec.

    states are the allowed (window)-blocks in lexicographic order; edges
    are (source index, target index, symbol) triples.
    """

    __slots__ = ("spec", "window", "states", "edges", "trimmed")

    def __init__(
        self,
        spec: ShiftSpaceSpec,
        window: int,
        states: tuple[Block, ...],
        edges: tuple[tuple[int, int, int], ...],
        trimmed: bool = False,
    ):
        _Value.__init__(self, spec, window, states, edges, trimmed)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def out_lists(self) -> list[list[int]]:
        """Target state indices per source state."""
        out: list[list[int]] = [[] for _ in self.states]
        for source, target, _symbol in self.edges:
            out[source].append(target)
        return out

    def adjacency_matrix(self) -> AdjacencyMatrix:
        n = self.num_states
        rows = [[0] * n for _ in range(n)]
        for source, target, _symbol in self.edges:
            rows[source][target] += 1
        return AdjacencyMatrix(rows=tuple(tuple(row) for row in rows))


def build_automaton(spec: ShiftSpaceSpec) -> TransferAutomaton:
    """Block automaton over windows of length max(2, longest forbidden) - 1.

    Raises ResourceLimitError as soon as a layer of allowed blocks, of a
    length up to the window, holds more than MAX_STATES.
    """
    validate_spec(spec)
    k = spec.alphabet_size
    window = max(2, spec.forbidden.max_length) - 1
    banned = _banned_codes(spec)
    # only the last layer is kept, so the shorter ones are freed as it grows
    codes = deque(_layers(k, banned, window), maxlen=1).pop()
    index = {code: i for i, code in enumerate(codes)}
    shifts = [s * k**window for s in range(k)]
    banned_edges = banned.get(window + 1, set())
    edges = [
        (i, target, s)
        for i, code in enumerate(codes)
        for s, shift in enumerate(shifts)
        if (target := index.get((g := code + shift) // k)) is not None and g not in banned_edges
    ]
    return TransferAutomaton(
        spec=spec,
        window=window,
        states=tuple(map(Block._of, _digits(codes, k, window))),
        edges=tuple(edges),
        trimmed=False,
    )


def _banned_codes(spec: ShiftSpaceSpec) -> dict[int, set[int]]:
    """The base-k codes of the forbidden blocks, first symbol least significant, by length."""
    k = spec.alphabet_size
    banned: dict[int, set[int]] = {}
    for block in spec.forbidden:
        code = 0
        for s in reversed(block.symbols):
            code = code * k + s
        banned.setdefault(len(block), set()).add(code)
    return banned


def _layers(k: int, banned: dict[int, set[int]], length: int) -> Iterator[list[int]]:
    """Yields a layer of codes of allowed blocks for each length 0, 1, ..., length.

    A block's code has its first symbol least significant, so appending s
    to a block of length j adds s k^j and dropping the first symbol is
    division by k; an extension of an allowed block is allowed exactly when
    its suffix is in the layer before and it is not forbidden.  Each layer
    extends the one before in order, so it keeps lexicographic order.
    A layer stops at MAX_STATES + 1 codes and raises ResourceLimitError.
    """
    codes = [0]
    yield codes
    stop = MAX_STATES + 1
    for j in range(1, length + 1):
        shorter = set(codes)
        shifts = [s * k ** (j - 1) for s in range(k)]
        forbidden = banned.get(j, ())
        grown = (
            g
            for code in codes
            for shift in shifts
            if (g := code + shift) // k in shorter and g not in forbidden
        )
        codes = list(islice(grown, stop))
        if len(codes) == stop:
            raise ResourceLimitError(
                f"the allowed blocks of length {j} exceed the cap of {MAX_STATES} states"
            )
        yield codes


def _digits(codes: list[int], k: int, width: int) -> list[tuple[int, ...]]:
    """The blocks of length width that the codes stand for.

    A table holds the blocks of every code below k^h, for the largest h
    with k^h at most the number of codes, or h = 1, so a code costs one
    lookup per h symbols and the table costs no more than the blocks, or
    than the k edges a state is tried for.
    """
    h = 1
    while h < width and k ** (h + 1) <= len(codes):
        h += 1
    table = [t[::-1] for t in product(range(k), repeat=h)]
    if h == width:
        return list(map(table.__getitem__, codes))
    chunk, pad = k**h, (0,) * width
    blocks = []
    for code in codes:
        parts = []
        while code:
            code, low = divmod(code, chunk)
            parts.append(table[low])
        blocks.append((*chain.from_iterable(parts), *pad)[:width])
    return blocks


def trim(automaton: TransferAutomaton) -> TransferAutomaton:
    """Keep the states that start an infinite path and end one, and their edges.

    This is the essential graph (Lind and Marcus 1995, section 2.2), which
    carries exactly the bi-infinite sequences, so it is the carrier for
    entropy; finite-block counts must use the untrimmed automaton.  When u
    has both paths, so does every state on them, so the intersection of
    the two one-sided peels is the joint peel of states without outgoing
    or incoming edges.
    """
    successors = automaton.out_lists()
    predecessors: list[list[int]] = [[] for _ in automaton.states]
    for source, target, _symbol in automaton.edges:
        predecessors[target].append(source)
    alive = list(map(and_, _lasting(successors, predecessors), _lasting(predecessors, successors)))
    # an automaton that loses no state keeps its tuples, which saves the
    # remap on the small, mostly live automata that entropy runs on
    states, edges = automaton.states, automaton.edges
    if not all(alive):
        keep = [u for u, living in enumerate(alive) if living]
        remap = {old: new for new, old in enumerate(keep)}
        states = tuple(states[old] for old in keep)
        edges = tuple(
            (remap[source], remap[target], symbol)
            for source, target, symbol in edges
            if alive[source] and alive[target]
        )
    return TransferAutomaton(
        spec=automaton.spec,
        window=automaton.window,
        states=states,
        edges=edges,
        trimmed=True,
    )


def _lasting(ahead: list[list[int]], behind: list[list[int]]) -> list[bool]:
    """Whether each state starts an infinite path along the ahead lists.

    A state whose count of unpeeled states ahead reaches 0 is peeled and
    taken once off the counts of the states behind it: O(V + E).
    """
    count = list(map(len, ahead))
    queue = [u for u, entries in enumerate(count) if not entries]
    while queue:
        for v in behind[queue.pop()]:
            count[v] -= 1
            if not count[v]:
                queue.append(v)
    return list(map(bool, count))


def count_via_matrix(automaton: TransferAutomaton, n: int) -> int:
    """Exact count of allowed blocks of length n via path counting.

    Below the window the count is term n of _path_counts, the length of the
    build's own layer; from the window on the paths are counted on the
    classes of _quotient from the all-ones weights, walking them or powering
    their edge-count matrix, whichever _squares finds cheaper.  The count
    is exact, since the path counts from a state depend only on its class.
    The automaton must be untrimmed, because trimming drops finite blocks
    that do not extend forever.
    """
    _require_int("block length", n, 0)
    if automaton.trimmed:
        raise ParameterError("block counting needs the untrimmed automaton")
    if n < automaton.window:
        return next(islice(_path_counts(automaton), n, None))
    sizes, rows = _quotient(automaton)
    steps = n - automaton.window
    if _squares(rows, steps):
        return _squared_count(sizes, rows, steps)
    return next(islice(_walk(sizes, rows), steps, None))


def _squares(rows: list[tuple[int, ...]], steps: int) -> bool:
    """Whether powering the quotient is cheaper than walking it steps times.

    A walk step adds each class's successor weights, about quotient edges
    + c operations for c classes; squaring costs about c^3 products per
    bit of steps, counting a product like an addition.
    """
    c = len(rows)
    return c**3 * steps.bit_length() < steps * (sum(map(len, rows)) + c)


def _squared_count(sizes: list[int], rows: list[tuple[int, ...]], steps: int) -> int:
    """sizes . R^steps 1, R the class edge-count matrix squared from the lowest bit up."""
    c = len(rows)
    weights = [1] * c
    matrix = [[0] * c for _ in rows]
    for line, row in zip(matrix, rows):
        for b in row:
            line[b] += 1
    while steps:
        if steps & 1:
            weights = [sum(map(mul, line, weights)) for line in matrix]
        steps >>= 1
        if steps:
            columns = list(zip(*matrix))
            matrix = [[sum(map(mul, line, column)) for column in columns] for line in matrix]
    return sum(map(mul, sizes, weights))


def _walk(sizes: list[int], rows: list[tuple[int, ...]]) -> Iterator[int]:
    """Yields sizes . R^j 1 for j = 0, 1, ...: each class sums its successors' weights."""
    weights = [1] * len(rows)
    while True:
        yield sum(map(mul, sizes, weights))
        weight = weights.__getitem__
        weights = [sum(map(weight, row)) for row in rows]


def _path_counts(automaton: TransferAutomaton) -> Iterator[int]:
    """Yields the number of allowed blocks of length 0, 1, 2, ..., the one count stream.

    The lengths below the window are the sizes of the build's layers, grown
    once more from _banned_codes built once.  From the window on, w_j[u],
    the number of paths of length j from state u, counts the allowed blocks
    of length window + j that start with u; on the classes of _quotient,
    computed only once the stream gets there, it is constant, and _walk
    steps it.  So each count is the sum over classes of size times weight.
    """
    spec = automaton.spec
    yield from map(len, _layers(spec.alphabet_size, _banned_codes(spec), automaton.window - 1))
    yield from _walk(*_quotient(automaton))


def _quotient(automaton: TransferAutomaton) -> tuple[list[int], list[tuple[int, ...]]]:
    """The size and the row of each class of _lumped on the automaton's out-lists."""
    classes, rows = _lumped(automaton.out_lists())
    sizes = [0] * len(rows)
    for c in classes:
        sizes[c] += 1
    return sizes, rows


def _lumped(out: list[list[int]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """The class of each state, and each class's out-list, after merging equal successor lists.

    A pass numbers the distinct sorted successor tuples, so states that list
    the same successors, with multiplicity, share a class, and rewrites each
    class's row in the new numbers; passes repeat until one merges nothing.
    Every pass keeps the partition equitable: the states of a class have
    the same number of edges into each class (an amalgamation, Lind and
    Marcus 1995, section 2.4), so a vector constant on the classes stays so
    under A.  The 2^9 states of the trimmed automaton of 1^10 fall into 10
    classes, those of tmk(m, k) into m + 1.
    """
    classes = list(range(len(out)))
    rows = list(map(tuple, map(sorted, out)))
    while True:
        numbers: dict[tuple[int, ...], int] = {}
        number = [numbers.setdefault(row, len(numbers)) for row in rows].__getitem__
        if len(numbers) == len(rows):
            return classes, rows
        classes = list(map(number, classes))
        rows = [tuple(sorted(map(number, row))) for row in numbers]


def _power_iteration(out: list[list[int]], tol: float) -> tuple[float, float, int]:
    """Collatz-Wielandt enclosure of the dominant eigenvalue of A + I.

    out lists each state's targets, one entry per edge, so an entry w of 2
    or more is listed w times.  The iteration runs on the classes of
    _lumped: the all-ones start is constant on them, and math.fsum rounds
    each row sum once, whatever the order of its terms, so every state of
    a class gets the same bits and the classes give the full automaton's
    enclosures, ratios and underflows exactly, on every Python version.
    Returns (eigenvalue of A, half-width of the final enclosure,
    iterations).  The shift by I keeps the iteration positive and removes
    periodicity, and the enclosure brackets the dominant eigenvalue of a
    nonnegative matrix at every step.  A state that grows slower than the
    top can see its entry underflow to 0.0; the iteration then ends in
    ConvergenceError with the last enclosure, as it does after
    MAX_ITERATIONS steps.
    """
    _classes, out = _lumped(out)
    vector = [1.0] * len(out)
    lo, hi = 0.0, float("inf")
    for iteration in range(1, MAX_ITERATIONS + 1):
        image = list(map(add, vector, map(fsum, map(map, repeat(vector.__getitem__), out))))
        try:
            ratios = list(map(truediv, image, vector))
        except ZeroDivisionError:
            message = f"power iteration underflowed a state's weight to 0.0 at iteration {iteration}"
            break
        lo, hi = min(ratios), max(ratios)
        if hi - lo < tol:
            return 0.5 * (lo + hi) - 1.0, 0.5 * (hi - lo), iteration
        top = max(image)
        vector = [value / top for value in image]
    else:
        message = (
            f"power iteration did not close the enclosure below tol={tol} "
            f"within {MAX_ITERATIONS} iterations"
        )
    raise ConvergenceError(
        message,
        last_estimate=0.5 * (lo + hi) - 1.0,
        residual=0.5 * (hi - lo),
        iterations=iteration,
    )


def dominant_eigenvalue(matrix: AdjacencyMatrix, tol: float = DEFAULT_TOL) -> float:
    """Dominant eigenvalue of a nonnegative integer matrix."""
    _require_tol(tol)
    if matrix.size == 0:
        raise EmptyShiftSpaceError("the automaton has no states; the shift space is empty")
    # column j listed weight times, the form entropy_numeric reads off the edges
    out = [[j for j, weight in enumerate(row) for _ in range(weight)] for row in matrix.rows]
    value, _residual, _iterations = _power_iteration(out, tol)
    return value


def entropy_numeric(
    spec: ShiftSpaceSpec, tol: float = DEFAULT_TOL, log_base: str = "e"
) -> EntropyReport:
    """Entropy of any finite-type spec from its trimmed automaton."""
    _require_tol(tol)
    return _automaton_entropy(build_automaton(spec), tol, log_base)


def _automaton_entropy(automaton: TransferAutomaton, tol: float, log_base: str) -> EntropyReport:
    """entropy_numeric from an automaton already built; tol must be checked first."""
    automaton = trim(automaton)
    if automaton.num_states == 0:
        raise EmptyShiftSpaceError(
            "every state dies under trimming; the shift space is empty and entropy is undefined"
        )
    value, residual, _iterations = _power_iteration(automaton.out_lists(), tol)
    return EntropyReport(
        lambda0=value,
        entropy=_log(value, log_base),
        log_base=log_base,
        method="transfer-matrix",
        residual=residual,
    )


def edge_list_text(automaton: TransferAutomaton) -> str:
    """One 'source target symbol' line per edge, sorted, trailing newline."""
    lines = [
        f"{source} {target} {symbol}"
        for source, target, symbol in sorted(automaton.edges, key=lambda e: (e[0], e[2], e[1]))
    ]
    return "\n".join(lines) + "\n" if lines else ""
