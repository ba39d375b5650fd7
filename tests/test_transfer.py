"""Tests for the block automaton: construction, counting, eigenvalues."""

import math
import re
import time
from collections import Counter
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftspace import (
    AdjacencyMatrix,
    Block,
    ConvergenceError,
    EmptyShiftSpaceError,
    EntropyReport,
    ParameterError,
    ResourceLimitError,
    ShiftSpaceSpec,
    TmkParams,
    build_automaton,
    count_blocks,
    count_via_matrix,
    dominant_eigenvalue,
    dominant_root,
    edge_list_text,
    entropy_numeric,
    tmk_spec,
    trim,
)
from shiftspace import enumeration, transfer
from shiftspace.enumeration import _suffix_clear, _suffix_table, enumerate_blocks
from shiftspace.spectral import DEFAULT_TOL, _log
from shiftspace.transfer import TransferAutomaton, _live, _lumped, _path_counts

from conftest import spec_from_tuples

PHI = (1 + math.sqrt(5)) / 2
FULL_SHIFT_2 = ShiftSpaceSpec(alphabet_size=2, forbidden=spec_from_tuples(2, []).forbidden)


def states_to_tuples(automaton):
    return [state.symbols for state in automaton.states]


def test_build_golden_automaton(golden_spec):
    automaton = build_automaton(golden_spec)
    assert automaton.window == 1
    assert states_to_tuples(automaton) == [(0,), (1,)]
    assert set(automaton.edges) == {(0, 0, 0), (0, 1, 1), (1, 0, 0)}
    assert automaton.trimmed is False
    matrix = automaton.adjacency_matrix()
    assert matrix.rows == ((1, 1), (1, 0))
    assert matrix.size == 2


def test_build_three_symbol_automaton(three_symbol_spec):
    automaton = build_automaton(three_symbol_spec)
    assert automaton.window == 1
    assert states_to_tuples(automaton) == [(0,), (1,), (2,)]
    assert len(automaton.edges) == 7
    assert automaton.adjacency_matrix().rows == ((1, 1, 1), (1, 0, 1), (1, 1, 0))


def test_build_min_gap_two_automaton(t22_spec):
    automaton = build_automaton(t22_spec)
    assert automaton.window == 2
    assert states_to_tuples(automaton) == [(0, 0), (0, 1), (1, 0)]
    assert set(automaton.edges) == {(0, 0, 0), (0, 1, 1), (1, 2, 0), (2, 0, 0)}


def test_build_full_shift_automaton():
    automaton = build_automaton(FULL_SHIFT_2)
    assert automaton.window == 1
    assert automaton.adjacency_matrix().rows == ((1, 1), (1, 1))


def reference_build(spec):
    """The build build_automaton used to run: enumeration's depth-first
    search for the states and its suffix check for the edges."""
    k = spec.alphabet_size
    window = max(2, spec.forbidden.max_length) - 1
    with patch.object(enumeration, "MAX_CANDIDATES", k**window):
        states = tuple(enumerate_blocks(spec, window))
    index = {state.symbols: i for i, state in enumerate(states)}
    table = _suffix_table(spec)
    edges = []
    for i, state in enumerate(states):
        for s in range(k):
            grown = state.symbols + (s,)
            if _suffix_clear(grown, table):
                edges.append((i, index[grown[1:]], s))
    return TransferAutomaton(spec=spec, window=window, states=states, edges=tuple(edges))


@pytest.mark.parametrize(
    "spec",
    [
        spec_from_tuples(1, []),
        spec_from_tuples(1, [(0, 0, 0)]),
        spec_from_tuples(1, [(0,)]),
        spec_from_tuples(2, [(0,), (1, 1)]),  # empty
        spec_from_tuples(2, [(0, 1), (1,) * 30]),  # long windows, few states
        spec_from_tuples(3, [(0, 0, 0, 0, 0, 0, 0, 1)]),  # codes over several table chunks
        tmk_spec(TmkParams(5, 20)),
        spec_from_tuples(2, [(1,) * 12]),
    ],
)
def test_build_equals_reference_build_examples(spec):
    assert build_automaton(spec) == reference_build(spec)


def test_build_state_cap(golden_spec, monkeypatch):
    spec = ShiftSpaceSpec(
        alphabet_size=2, forbidden=spec_from_tuples(2, [(1,) * 25]).forbidden
    )
    with pytest.raises(ResourceLimitError):
        build_automaton(spec)
    monkeypatch.setattr(transfer, "MAX_STATES", 1)
    with pytest.raises(ResourceLimitError):
        build_automaton(golden_spec)
    # the golden spec's 2 states pass a cap of 2, but its 3 edges do not
    monkeypatch.setattr(transfer, "MAX_STATES", 3)
    assert build_automaton(golden_spec).num_states == 2


def test_state_cap_counts_allowed_windows():
    # 20^5 windows of length 5 exceed the default cap, but only 96 are allowed
    spec = tmk_spec(TmkParams(5, 20))
    automaton = build_automaton(spec)
    assert automaton.num_states == 96
    report = entropy_numeric(spec)
    assert abs(report.lambda0 - dominant_root(5, 20)) <= report.residual + 1e-9


def test_state_cap_message_names_the_layer_over_it():
    # the blocks of length 21 pass the cap of 2^20 before the 2^24 windows are built
    spec = spec_from_tuples(2, [(1,) * 25])
    with pytest.raises(ResourceLimitError, match="blocks of length 21 exceed the cap of 1048576"):
        build_automaton(spec)


def test_state_cap_bounds_every_layer(monkeypatch):
    # every 3-block but 000 is forbidden and 1111 makes the window 3: the
    # layers hold 2, 4 and 1 blocks, so a cap of 3 refuses the second layer
    # although the automaton would have one state
    words = [tuple(map(int, f"{code:03b}")) for code in range(1, 8)] + [(1, 1, 1, 1)]
    spec = spec_from_tuples(2, words)
    monkeypatch.setattr(transfer, "MAX_STATES", 3)
    with pytest.raises(ResourceLimitError, match="blocks of length 2 exceed the cap of 3"):
        build_automaton(spec)
    monkeypatch.setattr(transfer, "MAX_STATES", 4)
    assert build_automaton(spec).num_states == 1


def test_state_cap_bounds_the_edges(monkeypatch):
    # 8 states fit a cap of 10, but the 64 - 1 allowed 2-blocks, one per edge, do not
    monkeypatch.setattr(transfer, "MAX_STATES", 10)
    with pytest.raises(ResourceLimitError) as info:
        build_automaton(spec_from_tuples(8, [(0, 0)]))
    assert str(info.value) == "the allowed blocks of length 2 exceed the cap of 10 states"
    monkeypatch.setattr(transfer, "MAX_STATES", 63)
    assert len(build_automaton(spec_from_tuples(8, [(0, 0)])).edges) == 63


def test_out_lists(golden_spec):
    automaton = build_automaton(golden_spec)
    assert automaton.out_lists() == [[0, 1], [0]]


def test_trim_keeps_biinfinite_states():
    spec = spec_from_tuples(2, [(0, 1), (1, 0)])
    trimmed = trim(build_automaton(spec))
    assert states_to_tuples(trimmed) == [(0,), (1,)]
    assert set(trimmed.edges) == {(0, 0, 0), (1, 1, 1)}
    assert trimmed.trimmed is True


def test_trim_drops_dead_states():
    spec = spec_from_tuples(2, [(0, 0), (0, 1)])
    trimmed = trim(build_automaton(spec))
    assert states_to_tuples(trimmed) == [(1,)]
    assert trimmed.edges == ((0, 0, 1),)


def test_trim_idempotent(t22_spec):
    once = trim(build_automaton(t22_spec))
    twice = trim(once)
    assert twice.states == once.states
    assert twice.edges == once.edges


def reference_trim(automaton):
    """The fixed-point loop trim used to run: rescan every edge until no state dies."""
    alive = set(range(automaton.num_states))
    while True:
        out_degree = {u: 0 for u in alive}
        in_degree = {u: 0 for u in alive}
        for source, target, _symbol in automaton.edges:
            if source in alive and target in alive:
                out_degree[source] += 1
                in_degree[target] += 1
        dead = {u for u in alive if out_degree[u] == 0 or in_degree[u] == 0}
        if not dead:
            break
        alive -= dead
    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    states = tuple(automaton.states[old] for old in keep)
    edges = tuple(
        (remap[source], remap[target], symbol)
        for source, target, symbol in automaton.edges
        if source in alive and target in alive
    )
    return TransferAutomaton(
        spec=automaton.spec, window=automaton.window, states=states, edges=edges, trimmed=True
    )


def synthetic_automaton(size, edges):
    """An automaton on states 0..size-1 with the given (source, target, symbol) edges."""
    return TransferAutomaton(
        spec=FULL_SHIFT_2,
        window=1,
        states=tuple(Block((i,)) for i in range(size)),
        edges=tuple(edges),
    )


@st.composite
def untrimmed_automata(draw):
    """Random automata: any states, and edges in any order, loops and chains included."""
    size = draw(st.integers(0, 10))
    if size == 0:
        edges = []
    else:
        state = st.integers(0, size - 1)
        edges = draw(st.lists(st.tuples(state, state, st.integers(0, 2)), max_size=30, unique=True))
    return synthetic_automaton(size, edges)


@settings(max_examples=500, deadline=None)
@given(untrimmed_automata())
# a source chain feeding a cycle: only the forward peel keeps the chain
@example(synthetic_automaton(5, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 2, 1)]))
# a cycle feeding a sink chain: only the backward peel keeps the chain
@example(synthetic_automaton(5, [(0, 1, 0), (1, 0, 0), (1, 2, 1), (2, 3, 0), (3, 4, 0)]))
# a lone self-loop among dead states, fed by one and feeding another
@example(synthetic_automaton(5, [(0, 2, 0), (2, 2, 0), (2, 3, 0), (4, 0, 1), (3, 1, 1)]))
def test_trim_equals_fixed_point_loop(automaton):
    trimmed = trim(automaton)
    assert trimmed == reference_trim(automaton)
    # the live pass entropy reads gives the trimmed automaton's out-lists
    assert _live(automaton.num_states, automaton.edges)[1] == trimmed.out_lists()


def test_trim_keeps_periodic_cycle():
    spec = spec_from_tuples(2, [(0, 0), (1, 1)])
    trimmed = trim(build_automaton(spec))
    assert len(trimmed.states) == 2
    assert dominant_eigenvalue(trimmed.adjacency_matrix()) == pytest.approx(1.0, abs=1e-9)


def test_count_via_matrix_examples(golden_spec, three_symbol_spec):
    assert count_via_matrix(build_automaton(golden_spec), 5) == 13
    assert count_via_matrix(build_automaton(three_symbol_spec), 3) == 17
    assert count_via_matrix(build_automaton(FULL_SHIFT_2), 8) == 256


def test_count_via_matrix_below_window(t22_spec):
    automaton = build_automaton(t22_spec)
    assert automaton.window == 2
    assert count_via_matrix(automaton, 0) == 1
    assert count_via_matrix(automaton, 1) == 2


def test_count_via_matrix_rejects_trimmed(golden_spec):
    trimmed = trim(build_automaton(golden_spec))
    with pytest.raises(ParameterError):
        count_via_matrix(trimmed, 4)


def test_count_via_matrix_rejects_negative(golden_spec):
    automaton = build_automaton(golden_spec)
    with pytest.raises(ParameterError):
        count_via_matrix(automaton, -1)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_count_via_matrix_matches_enumeration(m, k):
    spec = tmk_spec(TmkParams(m, k))
    automaton = build_automaton(spec)
    for n in range(0, 12):
        assert count_via_matrix(automaton, n) == count_blocks(spec, n)


def reference_path_counts(automaton):
    """The dense walk _path_counts used to make: every state at every step."""
    weights = [1] * automaton.num_states
    out = automaton.out_lists()
    while True:
        yield sum(weights)
        weights = [sum(weights[target] for target in targets) for targets in out]


def first_counts(counts, n=40):
    return list(islice(counts, n))


@st.composite
def random_specs(draw):
    """Specs of a few random words over 1 to 3 symbols; some shifts are empty."""
    k = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, k - 1), min_size=1, max_size=5).map(tuple)
    return spec_from_tuples(k, draw(st.lists(word, min_size=0, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(random_specs())
@example(spec_from_tuples(2, [(1,) * 12]))
@example(tmk_spec(TmkParams(4, 3)))
@example(tmk_spec(TmkParams(5, 20)))
def test_count_via_matrix_below_the_window_needs_no_counter(spec):
    # 20^5 windows of tmk(5,20) exceed the default cap, and the build still counts nothing
    expected = [count_blocks(spec, n) for n in range(max(2, spec.forbidden.max_length) - 1)]
    refuse = AssertionError("the build, count_via_matrix or the stream reached the counter")
    with patch.object(enumeration, "_count_iter", side_effect=refuse):
        automaton = build_automaton(spec)
        assert [count_via_matrix(automaton, n) for n in range(automaton.window)] == expected
        sizes, codes, edges = transfer._block_graph(spec)
        stream = _path_counts(sizes, transfer._out_lists(len(codes), edges))
        assert list(islice(stream, len(sizes))) == expected


@settings(max_examples=300, deadline=None)
@given(random_specs())
def test_path_counts_equal_dense_walk_on_spec_automata(spec):
    # the stream reads the block graph; the dense walk reads the automaton built from it
    sizes, codes, edges = transfer._block_graph(spec)
    stream = islice(_path_counts(sizes, transfer._out_lists(len(codes), edges)), len(sizes), None)
    assert first_counts(stream) == first_counts(reference_path_counts(build_automaton(spec)))


@settings(max_examples=500, deadline=None)
@given(untrimmed_automata())
@example(synthetic_automaton(0, []))
@example(synthetic_automaton(3, []))  # isolated states only
@example(synthetic_automaton(1, [(0, 0, 0)]))  # one self-loop
@example(synthetic_automaton(4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)]))  # a chain into a dead end
@example(synthetic_automaton(3, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (2, 2, 0)]))  # parallel loops
def test_path_counts_equal_dense_walk_on_synthetic_automata(automaton):
    # dead ends, self-loops, parallel edges, isolated states and no states at all
    stream = _path_counts([], automaton.out_lists())
    assert first_counts(stream) == first_counts(reference_path_counts(automaton))


@settings(max_examples=300, deadline=None)
@given(random_specs())
def test_build_equals_reference_build(spec):
    # the same states, edges and edge order as the depth-first build
    assert build_automaton(spec) == reference_build(spec)


def dense_count(automaton, n):
    return next(islice(reference_path_counts(automaton), n - automaton.window, None))


def counts_by_route(automaton, n):
    """count_via_matrix at n by its own rule, then forced to walk and to square."""
    counts = [count_via_matrix(automaton, n)]
    for squares in (False, True):
        with patch.object(transfer, "_squares", lambda rows, steps: squares):
            counts.append(count_via_matrix(automaton, n))
    return counts


@settings(max_examples=200, deadline=None)
@given(untrimmed_automata(), st.integers(0, 2000))
@example(synthetic_automaton(0, []), 2000)
@example(synthetic_automaton(4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)]), 1999)  # nilpotent
@example(synthetic_automaton(2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]), 2000)  # multigraph
def test_count_via_matrix_equals_dense_walk_on_both_routes(automaton, steps):
    n = automaton.window + steps
    assert counts_by_route(automaton, n) == [dense_count(automaton, n)] * 3


@settings(max_examples=100, deadline=None)
@given(random_specs(), st.integers(0, 400))
def test_count_via_matrix_equals_dense_walk_on_spec_automata(spec, steps):
    automaton = build_automaton(spec)
    n = automaton.window + steps
    assert counts_by_route(automaton, n) == [dense_count(automaton, n)] * 3


def test_squaring_rule_weighs_operation_counts():
    # 4 classes and 6 quotient edges: 4^3 products per bit against 10 additions per step
    rows = [(0, 1), (2,), (3,), (0, 0)]
    assert not transfer._squares(rows, 20)  # 64 * 5 = 320 >= 200
    assert transfer._squares(rows, 40)  # 64 * 6 = 384 < 400
    assert not transfer._squares(rows, 0)
    # the spaced family squares at the lengths the benchmark counts; 1^12 walks
    _classes, tmk = _lumped(build_automaton(tmk_spec(TmkParams(3, 5))).out_lists())
    _classes, word = _lumped(build_automaton(spec_from_tuples(2, [(1,) * 12])).out_lists())
    assert transfer._squares(tmk, 290)
    assert not transfer._squares(word, 190)


def trailing_ones(block):
    return len(block) - len(bytes(block.symbols).rstrip(b"\x01"))


def test_quotient_of_word_automaton_is_equitable():
    automaton = build_automaton(spec_from_tuples(2, [(1,) * 12]))
    assert (automaton.num_states, len(automaton.edges)) == (2048, 4095)
    out = automaton.out_lists()
    classes, _rows = _lumped(out)
    # the classes are the windows' numbers of trailing ones, 0 to 11
    assert len(set(classes)) == 12
    assert len(set(zip(map(trailing_ones, automaton.states), classes))) == 12
    # equitable: every state of a class has the same number of edges into each class
    profiles = {}
    for u, targets in enumerate(out):
        profile = Counter(classes[v] for v in targets)
        assert profiles.setdefault(classes[u], profile) == profile


@pytest.mark.parametrize(
    ("m", "k"), [*((m, k) for m in (1, 2, 3) for k in (2, 3, 4, 5)), (100, 20)]
)
@pytest.mark.parametrize("trimmed", [False, True])
def test_spaced_family_lumps_into_m_plus_one_classes(m, k, trimmed):
    automaton = build_automaton(tmk_spec(TmkParams(m, k)))
    if trimmed:
        automaton = trim(automaton)
    assert automaton.num_states == 1 + m * (k - 1)
    _classes, rows = _lumped(automaton.out_lists())
    assert len(rows) == m + 1


@pytest.mark.parametrize("length", [6, 8, 10, 12])
@pytest.mark.parametrize("trimmed", [False, True])
def test_run_of_ones_lumps_into_one_class_per_trailing_count(length, trimmed):
    automaton = build_automaton(spec_from_tuples(2, [(1,) * length]))
    if trimmed:
        automaton = trim(automaton)
    assert automaton.num_states == 2 ** (length - 1)
    classes, rows = _lumped(automaton.out_lists())
    assert len(rows) == length
    # the classes are the windows' numbers of trailing ones, 0 to length - 1
    assert len(set(zip(map(trailing_ones, automaton.states), classes))) == length


def assert_lumping_is_equitable(out):
    """Every state of a class lists its class's row, and no two rows are equal."""
    classes, rows = _lumped(out)
    assert sorted(set(classes)) == list(range(len(rows)))
    for u, targets in enumerate(out):
        assert Counter(classes[v] for v in targets) == Counter(rows[classes[u]])
    assert len(set(rows)) == len(rows)


@settings(max_examples=300, deadline=None)
@given(random_specs())
def test_lumping_is_equitable_on_spec_automata(spec):
    automaton = build_automaton(spec)
    assert_lumping_is_equitable(automaton.out_lists())
    assert_lumping_is_equitable(trim(automaton).out_lists())


@settings(max_examples=300, deadline=None)
@given(untrimmed_automata())
@example(synthetic_automaton(0, []))
@example(synthetic_automaton(3, []))  # isolated states only
@example(synthetic_automaton(3, [(0, 2, 0), (0, 2, 1), (1, 2, 0), (1, 2, 1)]))  # a doubled edge
def test_lumping_is_equitable_on_synthetic_automata(automaton):
    assert_lumping_is_equitable(automaton.out_lists())


def test_dominant_eigenvalue_golden(golden_spec):
    matrix = build_automaton(golden_spec).adjacency_matrix()
    assert abs(dominant_eigenvalue(matrix, tol=1e-12) - PHI) < 1e-11


def test_dominant_eigenvalue_three_symbol(three_symbol_spec):
    matrix = build_automaton(three_symbol_spec).adjacency_matrix()
    assert abs(dominant_eigenvalue(matrix, tol=1e-12) - (1 + math.sqrt(2))) < 1e-11


def test_dominant_eigenvalue_full_shift():
    matrix = build_automaton(FULL_SHIFT_2).adjacency_matrix()
    assert dominant_eigenvalue(matrix) == pytest.approx(2.0, abs=1e-9)


def test_dominant_eigenvalue_empty_matrix():
    with pytest.raises(EmptyShiftSpaceError):
        dominant_eigenvalue(AdjacencyMatrix(rows=()))


def test_dominant_eigenvalue_bad_tol(golden_spec):
    matrix = build_automaton(golden_spec).adjacency_matrix()
    with pytest.raises(ParameterError):
        dominant_eigenvalue(matrix, tol=0.0)


def test_power_iteration_convergence_failure(monkeypatch):
    # Reducible example whose enclosure stays [2, 3]: the all-zero state is
    # isolated from the dominant class, so its ratio never rises.
    spec = spec_from_tuples(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
    matrix = build_automaton(spec).adjacency_matrix()
    monkeypatch.setattr(transfer, "MAX_ITERATIONS", 2000)
    with pytest.raises(ConvergenceError) as info:
        dominant_eigenvalue(matrix, tol=1e-9)
    err = info.value
    assert err.iterations == 2000
    assert err.last_estimate == pytest.approx(1.5, abs=1e-12)
    assert err.residual == pytest.approx(0.5, abs=1e-12)


def reference_power_iteration(rows, tol, max_iterations):
    """The weighted loop over every state, (column, weight) pairs, each row sum rounded once."""
    size = len(rows)
    vector = [1.0] * size
    lo, hi = 0.0, float("inf")
    for iteration in range(1, max_iterations + 1):
        image = [
            vector[i] + math.fsum(weight * vector[j] for j, weight in row)
            for i, row in enumerate(rows)
        ]
        ratios = [image[i] / vector[i] for i in range(size)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo < tol:
            return 0.5 * (lo + hi) - 1.0, 0.5 * (hi - lo), iteration
        top = max(image)
        vector = [value / top for value in image]
    raise ConvergenceError(
        f"power iteration did not close the enclosure below tol={tol} "
        f"within {max_iterations} iterations",
        last_estimate=0.5 * (lo + hi) - 1.0,
        residual=0.5 * (hi - lo),
        iterations=max_iterations,
    )


def power_outcome(loop, *args):
    """The triple a loop returns, or the message and fields of its ConvergenceError."""
    try:
        return loop(*args)
    except ConvergenceError as err:
        return str(err), err.last_estimate, err.residual, err.iterations


# k = 4 with 30, 31 and 32 forbidden: state 3 loops only on itself, so its
# entry halves against the top at every step and underflows to 0.0
UNDERFLOW_SPEC = spec_from_tuples(4, [(3, 0), (3, 1), (3, 2)])


@st.composite
def power_iteration_inputs(draw):
    """Out-lists of trimmed spec automata or synthetic 0/1 matrices, a tol and an iteration cap."""
    if draw(st.booleans()):
        automaton = trim(build_automaton(draw(random_specs())))
        out = automaton.out_lists()
    else:
        size = draw(st.integers(1, 8))
        column = st.integers(0, size - 1)
        out = [sorted(draw(st.sets(column, max_size=size))) for _ in range(size)]
    tol = draw(st.sampled_from([1e-6, 1e-9, 1e-12]))
    return out, tol, draw(st.integers(1, 3000))


@settings(max_examples=300, deadline=None)
@given(power_iteration_inputs())
@example((trim(build_automaton(UNDERFLOW_SPEC)).out_lists(), 1e-9, 3000))
@example((trim(build_automaton(spec_from_tuples(2, [(1,) * 10]))).out_lists(), 1e-12, 3000))
@example(([[0, 0, 2], [2, 0, 0], [1]], 1e-12, 3000))  # rows that list column 0 twice
def test_power_iteration_equals_weighted_loop(inputs):
    out, tol, max_iterations = inputs
    if not out:
        return  # every state died; both public callers refuse before iterating
    rows = [[(j, 1) for j in targets] for targets in out]
    with patch.object(transfer, "MAX_ITERATIONS", max_iterations):
        new = power_outcome(transfer._power_iteration, out, tol)
    try:
        assert new == power_outcome(reference_power_iteration, rows, tol, max_iterations)
    except ZeroDivisionError:
        # the reference divides by a weight that underflowed to 0.0; the new
        # loop stops at that iteration with the enclosure the step before
        message, last_estimate, residual, iterations = new
        with pytest.raises(ZeroDivisionError):
            reference_power_iteration(rows, tol, iterations)
        before = power_outcome(reference_power_iteration, rows, tol, iterations - 1)
        assert (last_estimate, residual) == before[1:3]
        assert "underflow" in message


def test_underflow_ends_in_convergence_error():
    matrix = trim(build_automaton(UNDERFLOW_SPEC)).adjacency_matrix()
    for solve in (lambda: entropy_numeric(UNDERFLOW_SPEC), lambda: dominant_eigenvalue(matrix)):
        with pytest.raises(ConvergenceError, match="underflow") as info:
            solve()
        err = info.value
        # the enclosure stays [2, 4] for A + I: growth 1 on state 3, 3 on the rest
        assert (err.last_estimate, err.residual, err.iterations) == (2.0, 1.0, 1075)


def test_dominant_eigenvalue_of_a_multigraph():
    # an entry of 2 is column 0 listed twice; the eigenvalues are 2 and -1
    tol = 1e-9
    assert abs(dominant_eigenvalue(AdjacencyMatrix(((1, 1), (2, 0))), tol=tol) - 2.0) < tol


def test_entropy_numeric_golden(golden_spec):
    report = entropy_numeric(golden_spec, tol=1e-10)
    assert report.method == "transfer-matrix"
    assert report.log_base == "e"
    assert abs(report.lambda0 - PHI) < 1e-9
    assert abs(report.entropy - math.log(PHI)) < 1e-9
    assert report.residual < 1e-10


def test_entropy_numeric_full_shift_bases():
    nat = entropy_numeric(FULL_SHIFT_2, tol=1e-10)
    assert abs(nat.entropy - math.log(2.0)) < 1e-9
    base2 = entropy_numeric(FULL_SHIFT_2, tol=1e-10, log_base="2")
    assert abs(base2.entropy - 1.0) < 1e-9
    base10 = entropy_numeric(FULL_SHIFT_2, tol=1e-10, log_base="10")
    assert abs(base10.entropy - math.log10(2.0)) < 1e-9


def test_entropy_numeric_empty_space():
    spec = spec_from_tuples(2, [(0,), (1, 1)])
    with pytest.raises(EmptyShiftSpaceError):
        entropy_numeric(spec)


def test_entropy_numeric_bad_base(golden_spec):
    with pytest.raises(ParameterError):
        entropy_numeric(golden_spec, log_base="7")


# k = 3 with 01, 02, 10 and 20 forbidden: 0 loops alone beside the full
# shift on {1, 2}, so the enclosure of A + I stays [2, 3] and never closes
REDUCIBLE_K3 = spec_from_tuples(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
EMPTY_SPEC = spec_from_tuples(2, [(0,), (1, 1)])
# k = 3 with 20, 21 and 22 forbidden: state 2 has no successor, so the
# trimmed states are renumbered
DEAD_END_SPEC = spec_from_tuples(3, [(2, 0), (2, 1), (2, 2)])


@pytest.mark.parametrize("base", ["x", ["e"]])
@pytest.mark.parametrize("spec", [REDUCIBLE_K3, EMPTY_SPEC, UNDERFLOW_SPEC])
def test_entropy_numeric_refuses_a_bad_base_before_any_work(spec, base):
    # with the base read last, the reducible spec ran MAX_ITERATIONS steps and
    # the other two ended in EmptyShiftSpaceError and ConvergenceError; an
    # unhashable base ended in a TypeError
    message = rf"^log_base must be one of \['10', '2', 'e'\], got {re.escape(repr(base))}$"
    start = time.perf_counter()
    with pytest.raises(ParameterError, match=message):
        entropy_numeric(spec, log_base=base)
    assert time.perf_counter() - start < 0.1


def reference_entropy_numeric(spec, tol=DEFAULT_TOL, log_base="e"):
    """The route entropy_numeric used to run: both automaton records, then trim's out-lists."""
    automaton = trim(build_automaton(spec))
    if automaton.num_states == 0:
        raise EmptyShiftSpaceError(
            "every state dies under trimming; the shift space is empty and entropy is undefined"
        )
    value, residual, _iterations = transfer._power_iteration(automaton.out_lists(), tol)
    return EntropyReport(
        lambda0=value,
        entropy=_log(value, log_base),
        log_base=log_base,
        method="transfer-matrix",
        residual=residual,
    )


def entropy_outcome(solve, *args):
    """The report a route returns, or the type, message and fields of its error."""
    try:
        return solve(*args)
    except ConvergenceError as err:
        return type(err), str(err), err.last_estimate, err.residual, err.iterations
    except EmptyShiftSpaceError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(random_specs(), st.sampled_from([1e-6, 1e-9, 1e-12]), st.sampled_from([50, 3000]))
@example(UNDERFLOW_SPEC, 1e-9, 3000)
@example(REDUCIBLE_K3, 1e-9, 50)
@example(EMPTY_SPEC, 1e-9, 3000)
@example(DEAD_END_SPEC, 1e-12, 3000)
@example(spec_from_tuples(1, []), 1e-9, 3000)
@example(spec_from_tuples(1, [(0, 0)]), 1e-9, 3000)
@example(tmk_spec(TmkParams(3, 4)), 1e-12, 3000)
def test_entropy_numeric_equals_the_route_through_both_records(spec, tol, max_iterations):
    with patch.object(transfer, "MAX_ITERATIONS", max_iterations):
        new = entropy_outcome(entropy_numeric, spec, tol)
        assert new == entropy_outcome(reference_entropy_numeric, spec, tol)
        if isinstance(new, EntropyReport):
            # the chain the traced benchmark asserts bit for bit
            matrix = trim(build_automaton(spec)).adjacency_matrix()
            assert new.lambda0 == dominant_eigenvalue(matrix, tol=tol)


@pytest.mark.parametrize(
    "spec", [DEAD_END_SPEC, tmk_spec(TmkParams(2, 3)), spec_from_tuples(2, [(1,) * 6])]
)
def test_entropy_numeric_builds_no_block_and_no_automaton(no_block, monkeypatch, spec):
    def refuse(self, *args, **kwargs):
        raise AssertionError("TransferAutomaton built")

    monkeypatch.setattr(TransferAutomaton, "__init__", refuse)
    assert entropy_numeric(spec).lambda0 > 1.0


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_eigenvalue_matches_polynomial_root(m, k):
    spec = tmk_spec(TmkParams(m, k))
    matrix = trim(build_automaton(spec)).adjacency_matrix()
    eig = dominant_eigenvalue(matrix, tol=1e-12)
    root = dominant_root(m, k)
    assert abs(eig - root) < 1e-9
    assert 1.0 <= eig <= k


_EIGENVALUE_SPECS = [
    tmk_spec(TmkParams(1, 2)),
    spec_from_tuples(3, [(1, 1), (2, 2)]),
    *(tmk_spec(TmkParams(m, k)) for m in (1, 2, 3) for k in (2, 3, 4, 5)),
    spec_from_tuples(2, [(1,) * 8]),
    spec_from_tuples(3, [(0, 1), (1, 2, 2), (2, 0)]),
    spec_from_tuples(4, [(0, 0), (1, 3), (2, 1), (3, 0, 2)]),
]


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("spec", _EIGENVALUE_SPECS)
def test_entropy_numeric_equals_dense_matrix_chain(spec, tol):
    # entropy_numeric reads the out-lists off the edges; the public chain goes
    # through the dense matrix, and both must give the same bits
    matrix = trim(build_automaton(spec)).adjacency_matrix()
    assert entropy_numeric(spec, tol=tol).lambda0 == dominant_eigenvalue(matrix, tol=tol)


def test_edge_list_text_golden(golden_spec):
    automaton = build_automaton(golden_spec)
    assert edge_list_text(automaton) == "0 0 0\n0 1 1\n1 0 0\n"


def test_edge_list_text_empty():
    spec = spec_from_tuples(2, [(0,), (1, 1)])
    trimmed = trim(build_automaton(spec))
    assert edge_list_text(trimmed) == ""
