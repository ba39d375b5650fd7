"""Path counting and entropy through the block automaton.

States are the allowed blocks of length L-1, where L is at least 2 and at
least the longest forbidden block; an edge labeled s joins u to v when u
extended by s is allowed and v is that extension with the first symbol
dropped.  Allowed blocks of length n >= L-1 correspond one to one to paths
of length n-L+1, so counts come from iterating the adjacency matrix over
the integers.  The iteration runs on the quotient of the automaton by its
coarsest equitable partition, found by refining classes by their
successors' classes (Paige and Tarjan 1987): every state of a class has
the same number of edges into each class, so the number of paths of a
given length from a state depends only on its class, and each count is a
sum of class size times class weight, exact and with no float step.  Like
an amalgamation (Lind and Marcus 1995, section 2.4), the quotient keeps
every path count; the 2^11 states of the automaton of 1^12 fall into 12
classes.  Entropy comes from the dominant eigenvalue of the trimmed
automaton, computed by power iteration with a Collatz-Wielandt enclosure
that reads the same out-lists as the path counts, one entry per edge, so
one step costs the number of edges, not states^2.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from operator import mul, truediv

from .core import Block, ShiftSpaceSpec, _require_int, _Value, validate_spec
from .enumeration import _suffix_clear, _suffix_table, count_blocks, enumerate_blocks
from .errors import (
    ConvergenceError,
    EmptyShiftSpaceError,
    ParameterError,
    ResourceLimitError,
)
from .spectral import EntropyReport, _log, _require_tol

DEFAULT_MAX_STATES = 2**20
DEFAULT_MAX_ITERATIONS = 10**6
DEFAULT_TOL = 1e-9


class AdjacencyMatrix(_Value):
    """Integer edge-count matrix of an automaton, indexed like its states."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)

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
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "trimmed", trimmed)

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


def build_automaton(
    spec: ShiftSpaceSpec, *, max_states: int = DEFAULT_MAX_STATES
) -> TransferAutomaton:
    """Block automaton over windows of length max(2, longest forbidden) - 1.

    Raises ResourceLimitError when the number of allowed windows exceeds
    max_states; they are counted only when k^(L-1) exceeds the cap.
    """
    validate_spec(spec)
    k = spec.alphabet_size
    window = max(2, spec.forbidden.max_length) - 1
    if k**window > max_states:
        allowed = count_blocks(spec, window)
        if allowed > max_states:
            raise ResourceLimitError(
                f"the automaton would need {allowed} states (the allowed blocks of "
                f"length {window}), over the cap of {max_states}"
            )
    states = tuple(enumerate_blocks(spec, window, max_candidates=k**window))
    index = {state.symbols: i for i, state in enumerate(states)}
    table = _suffix_table(spec)
    edges: list[tuple[int, int, int]] = []
    for i, state in enumerate(states):
        for s in range(k):
            grown = state.symbols + (s,)
            if _suffix_clear(grown, table):
                edges.append((i, index[grown[1:]], s))
    return TransferAutomaton(
        spec=spec, window=window, states=states, edges=tuple(edges), trimmed=False
    )


def trim(automaton: TransferAutomaton) -> TransferAutomaton:
    """Drop states without outgoing or incoming edges until none remain.

    The surviving automaton carries exactly the bi-infinite sequences, so
    it is the right carrier for entropy; finite-block counts must use the
    untrimmed automaton.
    """
    successors: list[list[int]] = [[] for _ in automaton.states]
    predecessors: list[list[int]] = [[] for _ in automaton.states]
    for source, target, _symbol in automaton.edges:
        successors[source].append(target)
        predecessors[target].append(source)
    out_degree = list(map(len, successors))
    in_degree = list(map(len, predecessors))
    alive = list(map(bool, map(min, out_degree, in_degree)))
    # each state enters the queue once, as it dies, and takes its edges
    # away from the living, so the whole pass is O(V + E)
    queue = [u for u, living in enumerate(alive) if not living]
    while queue:
        u = queue.pop()
        for v in successors[u]:
            if alive[v]:
                in_degree[v] -= 1
                if not in_degree[v]:
                    alive[v] = False
                    queue.append(v)
        for v in predecessors[u]:
            if alive[v]:
                out_degree[v] -= 1
                if not out_degree[v]:
                    alive[v] = False
                    queue.append(v)
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


def count_via_matrix(automaton: TransferAutomaton, n: int) -> int:
    """Exact count of allowed blocks of length n via path counting.

    The paths are counted on the quotient of the automaton by its coarsest
    equitable partition, which is refined one round per step until it is
    stable; the count is exact, since the path counts from a state depend
    only on its class.  Lengths below the window fall back to the dynamic
    program; the automaton must be untrimmed, because trimming drops
    finite blocks that do not extend forever.
    """
    _require_int("block length", n, 0)
    if automaton.trimmed:
        raise ParameterError("block counting needs the untrimmed automaton")
    if n < automaton.window:
        return count_blocks(automaton.spec, n)
    return next(islice(_path_counts(automaton), n - automaton.window, None))


def _refine(
    classes: list[int], out: list[list[int]]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """One round of partition refinement by successor classes.

    A state's signature is its class followed by its successors' classes,
    sorted; states share a new class exactly when they share a signature.
    Returns the new class of every state and the signatures, one per new
    class.  Classes are numbered by first appearance in state order, so a
    round that splits nothing returns the numbering it was given.
    """
    signatures: dict[tuple[int, ...], int] = {}
    number = signatures.setdefault
    current = classes.__getitem__
    refined = [
        number((own, *sorted(map(current, targets))), len(signatures))
        for own, targets in zip(classes, out)
    ]
    return refined, list(signatures)


def _path_counts(automaton: TransferAutomaton) -> Iterator[int]:
    """Yields the number of allowed blocks of length window, window+1, ...

    w_j[u], the number of paths of length j from state u, counts the
    allowed blocks of length window + j that start with u.  After j rounds
    of _refine from a single class, w_j is constant on each class: w_0 = 1,
    and w_j[u] sums w_(j-1) over u's successors, which the signature lists
    by class.  So each count is the sum over classes of size times weight,
    with the weights indexed by class.  Refinement runs one round per
    count and stops for good after a round that splits nothing; the
    partition is then the coarsest equitable one (every state of a class
    has the same number of edges into each class), and the walk goes on
    over its quotient, whose edges are the last signatures.
    """
    out = automaton.out_lists()
    classes = [0] * len(out)
    sizes = [len(out)] if out else []
    weights = [1] * len(sizes)
    refining = True
    while True:
        yield sum(map(mul, sizes, weights))
        if refining:
            classes, signatures = _refine(classes, out)
            # the targets name the classes that weights is indexed by
            quotient = [signature[1:] for signature in signatures]
            refining = len(signatures) > len(sizes)
            if refining:
                sizes = [0] * len(signatures)
                for c in classes:
                    sizes[c] += 1
        weight = weights.__getitem__
        weights = [sum(map(weight, targets)) for targets in quotient]


def _power_iteration(
    out: list[list[int]], tol: float, max_iterations: int
) -> tuple[float, float, int]:
    """Collatz-Wielandt enclosure of the dominant eigenvalue of A + I.

    out lists each state's targets in column order, one entry per edge, so
    on a 0/1 matrix a step makes the same float operations, in the same
    order, as a dense row scan that skips zeros; an entry w of 2 or more is
    added w times.  Returns (eigenvalue of A, half-width of the final
    enclosure, iterations).  The shift by I keeps the iteration positive
    and removes periodicity, and the enclosure brackets the dominant
    eigenvalue of a nonnegative matrix at every step.  A state that grows
    slower than the top can see its entry underflow to 0.0; the iteration
    then ends in ConvergenceError with the last enclosure.
    """
    vector = [1.0] * len(out)
    lo, hi = 0.0, float("inf")
    for iteration in range(1, max_iterations + 1):
        entry = vector.__getitem__
        image = [own + sum(map(entry, targets)) for own, targets in zip(vector, out)]
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
        iteration = max_iterations
        message = (
            f"power iteration did not close the enclosure below tol={tol} "
            f"within {max_iterations} iterations"
        )
    raise ConvergenceError(
        message,
        last_estimate=0.5 * (lo + hi) - 1.0,
        residual=0.5 * (hi - lo),
        iterations=iteration,
    )


def dominant_eigenvalue(
    matrix: AdjacencyMatrix, tol: float = 1e-9, *, max_iterations: int = DEFAULT_MAX_ITERATIONS
) -> float:
    """Dominant eigenvalue of a nonnegative integer matrix."""
    _require_tol(tol)
    if matrix.size == 0:
        raise EmptyShiftSpaceError("the automaton has no states; the shift space is empty")
    # column j listed weight times, the form entropy_numeric reads off the edges
    out = [[j for j, weight in enumerate(row) for _ in range(weight)] for row in matrix.rows]
    value, _residual, _iterations = _power_iteration(out, tol, max_iterations)
    return value


def entropy_numeric(
    spec: ShiftSpaceSpec,
    tol: float = DEFAULT_TOL,
    log_base: str = "e",
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> EntropyReport:
    """Entropy of any finite-type spec from its trimmed automaton."""
    _require_tol(tol)
    automaton = build_automaton(spec, max_states=max_states)
    return _automaton_entropy(automaton, tol, log_base, max_iterations)


def _automaton_entropy(
    automaton: TransferAutomaton, tol: float, log_base: str, max_iterations: int
) -> EntropyReport:
    """entropy_numeric from an automaton already built; tol must be checked first."""
    automaton = trim(automaton)
    if automaton.num_states == 0:
        raise EmptyShiftSpaceError(
            "every state dies under trimming; the shift space is empty and entropy is undefined"
        )
    value, residual, _iterations = _power_iteration(automaton.out_lists(), tol, max_iterations)
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
