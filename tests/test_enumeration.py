import ast
import inspect
import random
import time
from itertools import islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_blocks, spec_from_tuples
from shiftspace import (
    Block,
    CountSequence,
    OutOfAlphabetError,
    ParameterError,
    ResourceLimitError,
    ShiftSpaceSpec,
    TmkParams,
    build_automaton,
    count_blocks,
    count_sequence,
    count_via_matrix,
    enumerate_blocks,
    enumerate_blocks_constructive,
    is_allowed,
    tmk_spec,
)
from shiftspace import core, enumeration, transfer
from shiftspace.enumeration import _successor_lists, _suffix_clear, _suffix_table, _walks

FULL_SHIFT_2 = ShiftSpaceSpec(2)
REDUCIBLE_K3 = spec_from_tuples(3, [(0, 1), (0, 2), (1, 0), (2, 0)])


def reference_count(spec, n):
    """The counter walked to length n one step at a time, without its recurrence."""
    out = _successor_lists(spec)
    weights = [1] * len(out)
    for _ in range(n):
        weights = [sum(weights[t] for t in targets) for targets in out]
    return weights[0]


def reference_enumerate(spec, n):
    """The plain depth-first search: every symbol at every prefix, checked by _suffix_clear."""
    k = spec.alphabet_size
    if n == 0:
        return [Block(())]
    table = _suffix_table(spec)
    out = []
    prefix = []
    pending = [0]
    while pending:
        s = pending[-1]
        if s == k:
            pending.pop()
            if prefix:
                prefix.pop()
            continue
        pending[-1] += 1
        prefix.append(s)
        if _suffix_clear(prefix, table):
            if len(prefix) == n:
                out.append(Block(tuple(prefix)))
                prefix.pop()
            else:
                pending.append(0)
        else:
            prefix.pop()
    return out


def first_recurrence_length(spec):
    """The least n at which count_blocks leaves the walk for the recurrence."""
    out = _successor_lists(spec)
    n = 2 * len(out) + 2
    while _walks(out, n):
        n += 1
    return n


def blocks_to_tuples(blocks):
    return [b.symbols for b in blocks]


def test_is_allowed_examples(golden_spec):
    assert is_allowed(golden_spec, Block((0, 1, 0, 1)))
    assert not is_allowed(golden_spec, Block((0, 1, 1, 0)))
    assert not is_allowed(tmk_spec(TmkParams(2, 3)), Block((1, 0, 2)))
    assert is_allowed(golden_spec, Block(()))


def test_is_allowed_rejects_out_of_alphabet(golden_spec):
    with pytest.raises(OutOfAlphabetError):
        is_allowed(golden_spec, Block((0, 2)))


def test_enumerate_golden_two(golden_spec):
    assert blocks_to_tuples(enumerate_blocks(golden_spec, 2)) == [(0, 0), (0, 1), (1, 0)]


def test_enumerate_t22_three(t22_spec):
    assert blocks_to_tuples(enumerate_blocks(t22_spec, 3)) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]


def test_enumerate_full_shift_one():
    assert blocks_to_tuples(enumerate_blocks(FULL_SHIFT_2, 1)) == [(0,), (1,)]


def test_enumerate_length_zero(golden_spec):
    assert enumerate_blocks(golden_spec, 0) == [Block(())]


def test_enumerate_is_sorted(three_symbol_spec):
    result = enumerate_blocks(three_symbol_spec, 5)
    assert result == sorted(result)


@pytest.mark.parametrize(
    "k,forbidden,n_top",
    [
        (2, [(1, 1)], 9),
        (2, [(1, 1), (1, 0, 1)], 9),
        (3, [(1, 1), (2, 2)], 6),
        (2, [(0, 0), (0, 1)], 7),
        (3, [(0, 1, 2)], 5),
        (2, [], 6),
        (1, [], 5),
    ],
)
def test_enumerate_matches_brute_force(k, forbidden, n_top):
    spec = spec_from_tuples(k, forbidden)
    for n in range(0, n_top + 1):
        expected = brute_force_blocks(k, forbidden, n)
        assert blocks_to_tuples(enumerate_blocks(spec, n)) == expected
        assert count_blocks(spec, n) == len(expected)


@st.composite
def _specs_to_enumerate(draw):
    """A spec over 1 to 4 symbols with words of length 1 to 6, and a length up to 8."""
    k = draw(st.integers(min_value=1, max_value=4))
    word = st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=6)
    spec = spec_from_tuples(k, map(tuple, draw(st.lists(word, max_size=6))))
    return spec, draw(st.integers(min_value=0, max_value=8))


@settings(max_examples=200, deadline=None)
@given(case=_specs_to_enumerate())
@example(case=(spec_from_tuples(3, []), 6))
@example(case=(spec_from_tuples(3, [(1,)]), 5))
@example(case=(spec_from_tuples(2, [(0,), (1,)]), 3))
# nilpotent: nothing of length 3 or more is allowed
@example(case=(spec_from_tuples(2, [(0, 0), (1, 1), (0, 1, 0), (1, 0, 1)]), 6))
# the tail length w = 5 exceeds n, equals it and is one less than it
@example(case=(spec_from_tuples(2, [(1, 0, 1, 1, 0, 1), (0, 0, 0)]), 3))
@example(case=(spec_from_tuples(2, [(1, 0, 1, 1, 0, 1), (0, 0, 0)]), 5))
@example(case=(spec_from_tuples(2, [(1, 0, 1, 1, 0, 1), (0, 0, 0)]), 6))
@example(case=(spec_from_tuples(2, [(1, 0, 1, 1, 0, 1), (0, 0, 0)]), 0))
# one symbol: every layer holds one block until the forbidden run of 0s
@example(case=(spec_from_tuples(1, []), 7))
@example(case=(spec_from_tuples(1, [(0, 0, 0, 0)]), 2))
@example(case=(spec_from_tuples(1, [(0, 0, 0, 0)]), 6))
@example(case=(spec_from_tuples(1, [(0,)]), 0))
def test_enumerate_matches_the_reference_search(case):
    spec, n = case
    assert enumerate_blocks(spec, n) == reference_enumerate(spec, n)


def test_enumeration_is_independent_of_the_counter_and_the_automaton(monkeypatch):
    cases = [
        (tmk_spec(TmkParams(2, 3)), 7),
        (REDUCIBLE_K3, 5),
        (FULL_SHIFT_2, 6),
        (spec_from_tuples(2, [(1, 1, 1, 1, 1)]), 8),
        (spec_from_tuples(4, [(0, 2, 0), (1, 2), (3, 3, 1)]), 5),
    ]
    expected = [enumerate_blocks(spec, n) for spec, n in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("enumeration reached the counter or the automaton")

    monkeypatch.setattr(enumeration, "_successor_lists", refuse)
    monkeypatch.setattr(enumeration, "_count_iter", refuse)
    monkeypatch.setattr(transfer, "build_automaton", refuse)
    assert [enumerate_blocks(spec, n) for spec, n in cases] == expected
    imported = {
        node.module
        for node in ast.walk(ast.parse(inspect.getsource(enumeration)))
        if isinstance(node, ast.ImportFrom)
    }
    assert "transfer" not in imported


def test_count_blocks_examples(golden_spec, t22_spec, three_symbol_spec):
    assert count_blocks(golden_spec, 4) == 8
    assert count_blocks(t22_spec, 5) == 9
    assert count_blocks(three_symbol_spec, 4) == 41
    assert count_blocks(golden_spec, 0) == 1
    assert count_blocks(tmk_spec(TmkParams(1, 21)), 3) == 461


def test_count_blocks_large_length_is_exact(golden_spec):
    # Fibonacci with a(1)=2, a(2)=3 reaches a(90) = F(92).
    assert count_blocks(golden_spec, 90) == 7540113804746346429


def test_count_sequence_examples(golden_spec):
    assert list(count_sequence(golden_spec, 5)) == [2, 3, 5, 8, 13]
    assert list(count_sequence(tmk_spec(TmkParams(1, 21)), 3)) == [21, 41, 461]
    assert list(count_sequence(FULL_SHIFT_2, 3)) == [2, 4, 8]


def test_count_sequence_matches_count_blocks(t22_spec):
    seq = count_sequence(t22_spec, 12)
    assert seq.n_min == 1 and seq.n_max == 12
    for n in range(1, 13):
        assert seq.value_at(n) == count_blocks(t22_spec, n)


@st.composite
def _overlapping_specs(draw):
    """Unnormalized forbidden sets of factors of one short word.

    Factors of a common word overlap one another as prefixes, suffixes and
    factors, which is what the failure links of the counting automaton
    have to resolve; duplicates and words containing other members stay.
    """
    k = draw(st.integers(min_value=1, max_value=3))
    text = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=7))
    words = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        start = draw(st.integers(min_value=0, max_value=len(text) - 1))
        length = draw(st.integers(min_value=1, max_value=min(4, len(text) - start)))
        words.append(tuple(text[start : start + length]))
    return spec_from_tuples(k, words)


@settings(max_examples=300, deadline=None)
@given(spec=_overlapping_specs())
def test_count_sequence_matches_is_allowed_brute_force(spec):
    k = spec.alphabet_size
    brute = [
        sum(is_allowed(spec, Block(word)) for word in product(range(k), repeat=n))
        for n in range(1, 8)
    ]
    assert list(count_sequence(spec, 7)) == brute


def test_count_single_long_word_follows_its_recurrence():
    # Avoiding 1^16 over two symbols: a(j) = 2^j below 16, then the
    # 16-step Fibonacci recurrence a(n) = a(n-1) + ... + a(n-16).
    spec = spec_from_tuples(2, [(1,) * 16])
    expected = [2**j for j in range(16)]
    while len(expected) <= 200:
        expected.append(sum(expected[-16:]))
    assert count_blocks(spec, 200) == expected[200]
    assert list(count_sequence(spec, 200)) == expected[1:]


def test_count_sequence_validation(golden_spec):
    with pytest.raises(ParameterError):
        count_sequence(golden_spec, 0)
    seq = count_sequence(golden_spec, 3)
    with pytest.raises(ParameterError):
        seq.value_at(0)
    with pytest.raises(ParameterError):
        seq.value_at(4)


def test_length_validation(golden_spec):
    with pytest.raises(ParameterError):
        enumerate_blocks(golden_spec, -1)
    with pytest.raises(ParameterError):
        count_blocks(golden_spec, -1)


def test_enumeration_resource_guard(golden_spec, monkeypatch):
    with pytest.raises(ResourceLimitError) as info:
        enumerate_blocks(FULL_SHIFT_2, 30)
    assert "count_blocks" in str(info.value)
    monkeypatch.setattr(enumeration, "MAX_CANDIDATES", 16)
    with pytest.raises(ResourceLimitError):
        enumerate_blocks(golden_spec, 5)
    assert count_blocks(FULL_SHIFT_2, 30) == 2**30


def test_enumeration_refuses_a_long_length_without_its_candidate_count():
    # 3^(10^8) has about 4.8e7 digits; a length of at least the cap's bit
    # length is refused before k^n is computed, with the same message
    spec = tmk_spec(TmkParams(1, 3))
    with pytest.raises(ResourceLimitError, match=r"^enumerating 3\^100000000 candidate blocks"):
        enumerate_blocks(spec, 10**8)


@pytest.mark.parametrize("k, n", [(2, 4), (4, 2), (16, 1)])
def test_enumeration_allows_a_candidate_space_equal_to_the_cap(monkeypatch, k, n):
    monkeypatch.setattr(enumeration, "MAX_CANDIDATES", 16)
    assert len(enumerate_blocks(ShiftSpaceSpec(k), n)) == 16
    with pytest.raises(ResourceLimitError):
        enumerate_blocks(ShiftSpaceSpec(k), n + 1)


def test_enumeration_never_refuses_one_symbol(monkeypatch):
    monkeypatch.setattr(enumeration, "MAX_CANDIDATES", 1)
    assert enumerate_blocks(ShiftSpaceSpec(1), 100) == [Block((0,) * 100)]


def test_enumeration_of_one_symbol_grows_no_layers():
    # 0^n is the one candidate; growing it a layer at a time copies the
    # prefix at every step, quadratic in n (about 23 s at n = 10^5)
    start = time.perf_counter()
    assert enumerate_blocks(ShiftSpaceSpec(1), 10**5) == [Block((0,) * 10**5)]
    assert time.perf_counter() - start < 1.0
    spec = spec_from_tuples(1, [(0,) * 6])
    assert enumerate_blocks(spec, 5) == [Block((0,) * 5)]
    assert enumerate_blocks(spec, 6) == []


def test_constructive_refuses_over_the_cap_without_its_count(monkeypatch):
    # a(200000) of the golden mean space has 41798 digits; the refusal
    # names the cap, never the count
    with pytest.raises(ResourceLimitError) as info:
        enumerate_blocks_constructive(TmkParams(1, 2), 200000)
    assert str(info.value) == (
        "materializing the allowed blocks of length 200000 exceeds the cap of 16777216 blocks"
    )
    # a(5) = 13 is the first count over a cap of 12
    monkeypatch.setattr(enumeration, "MAX_CANDIDATES", 12)
    with pytest.raises(ResourceLimitError):
        enumerate_blocks_constructive(TmkParams(1, 2), 5)
    monkeypatch.setattr(enumeration, "MAX_CANDIDATES", 13)
    assert len(enumerate_blocks_constructive(TmkParams(1, 2), 5)) == 13


def test_constructive_order_golden_mean():
    params = TmkParams(1, 2)
    assert blocks_to_tuples(enumerate_blocks_constructive(params, 3)) == [
        (0, 0, 0),
        (0, 1, 0),
        (1, 0, 0),
        (0, 0, 1),
        (1, 0, 1),
    ]
    assert blocks_to_tuples(enumerate_blocks_constructive(params, 4)) == [
        (0, 0, 0, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (1, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 1, 0, 1),
        (1, 0, 0, 1),
    ]


def test_constructive_order_min_gap_two():
    params = TmkParams(2, 2)
    assert blocks_to_tuples(enumerate_blocks_constructive(params, 4)) == [
        (0, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 1),
    ]
    assert blocks_to_tuples(enumerate_blocks_constructive(params, 5)) == [
        (0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0),
        (1, 0, 0, 0, 0),
        (0, 0, 0, 1, 0),
        (1, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
        (0, 1, 0, 0, 1),
        (1, 0, 0, 0, 1),
    ]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("k", [2, 3])
def test_constructive_is_a_reordering_of_lex(m, k):
    params = TmkParams(m, k)
    spec = tmk_spec(params)
    for n in range(0, 9):
        constructive = enumerate_blocks_constructive(params, n)
        lex = enumerate_blocks(spec, n)
        assert sorted(constructive) == lex
        assert len(set(constructive)) == len(constructive)


def test_constructive_seed_lengths_are_lexicographic():
    params = TmkParams(3, 3)
    spec = tmk_spec(params)
    for n in range(0, params.m + 2):
        assert enumerate_blocks_constructive(params, n) == enumerate_blocks(spec, n)


def test_constructive_resource_guard(monkeypatch):
    monkeypatch.setattr(enumeration, "MAX_CANDIDATES", 100)
    with pytest.raises(ResourceLimitError):
        enumerate_blocks_constructive(TmkParams(1, 2), 40)


def test_constructive_needs_neither_the_forbidden_set_nor_the_search_nor_the_counter(monkeypatch):
    spec_of, lex_order = core.tmk_spec, enumeration.enumerate_blocks

    def refuse(*args, **kwargs):
        raise AssertionError("the constructive order reached the forbidden set, search or counter")

    monkeypatch.setattr(core, "tmk_spec", refuse)
    for name in ("enumerate_blocks", "_successor_lists", "_count_iter"):
        monkeypatch.setattr(enumeration, name, refuse)
    # the lexicographic search below meets up to 5^12 candidates
    monkeypatch.setattr(enumeration, "MAX_CANDIDATES", 5**12)
    for m in range(1, 5):
        for k in range(2, 6):
            params = TmkParams(m, k)
            spec = spec_of(params)
            orders = {}
            for n in range(13):
                constructive = orders[n] = blocks_to_tuples(enumerate_blocks_constructive(params, n))
                lex = blocks_to_tuples(lex_order(spec, n))
                assert sorted(constructive) == lex
                if n <= m + 1:
                    assert constructive == lex
                else:
                    shorter = orders.pop(n - m - 1)
                    assert constructive == [t + (0,) for t in orders[n - 1]] + [
                        t + (0,) * m + (a,) for a in range(1, k) for t in shorter
                    ]
    assert not hasattr(enumeration, "tmk_spec")


def test_constructive_has_no_cap_on_its_seed_lengths():
    # 300^3 and 2000^2 candidates, but only 1 + n(k-1) blocks
    blocks = enumerate_blocks_constructive(TmkParams(3, 300), 3)
    assert len(blocks) == 898 and blocks == sorted(blocks)
    blocks = enumerate_blocks_constructive(TmkParams(1, 2000), 2)
    assert len(blocks) == 3999 and blocks == sorted(blocks)
    # a(2002) = a(2001) + a(1) = 2002 + 2 for m = 2000, k = 2: at most one
    # nonzero symbol, or two with at least 2000 zeroes between them
    blocks = enumerate_blocks_constructive(TmkParams(2000, 2), 2002)
    assert len(blocks) == len(set(blocks)) == 2004
    for block in blocks:
        ones = [i for i, s in enumerate(block) if s]
        assert len(block) == 2002 and all(b - a > 2000 for a, b in zip(ones, ones[1:]))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_short_length_count_formula(m, k):
    spec = tmk_spec(TmkParams(m, k))
    for n in range(1, m + 2):
        assert count_blocks(spec, n) == 1 + n * (k - 1)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_zero_append_monotonicity(m, k):
    counts = list(count_sequence(tmk_spec(TmkParams(m, k)), 14))
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_upper_bound_equality_iff_unconstrained(golden_spec):
    for n in range(1, 10):
        assert count_blocks(FULL_SHIFT_2, n) == 2**n
    assert count_blocks(golden_spec, 1) == 2
    for n in range(2, 10):
        assert count_blocks(golden_spec, n) < 2**n


def test_factor_closure(three_symbol_spec):
    for block in enumerate_blocks(three_symbol_spec, 6):
        for i in range(len(block)):
            for j in range(i + 1, len(block) + 1):
                assert is_allowed(three_symbol_spec, Block(block[i:j]))


def test_count_sequence_type_roundtrip():
    seq = CountSequence(counts=(2, 3, 5), n_min=1)
    assert len(seq) == 3
    assert seq.value_at(2) == 3
    assert list(seq) == [2, 3, 5]


@st.composite
def _specs_around_the_rule(draw):
    """A spec over 1 to 4 symbols and a length within reach of the walk rule."""
    k = draw(st.integers(min_value=1, max_value=4))
    word = st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=4)
    spec = spec_from_tuples(k, map(tuple, draw(st.lists(word, max_size=7))))
    switch = first_recurrence_length(spec)
    n = draw(
        st.integers(min_value=0, max_value=switch - 1)
        | st.integers(min_value=switch, max_value=switch + 200)
    )
    return spec, n


@settings(max_examples=300, deadline=None)
@given(case=_specs_around_the_rule())
# the empty shift, at once and after two lengths (nilpotent counters)
@example(case=(spec_from_tuples(2, [(0,), (1,)]), 40))
@example(case=(spec_from_tuples(2, [(0, 0), (1, 1), (0, 1, 0), (1, 0, 1)]), 40))
# a root 0: a(n) = 3a(n-1) - 2a(n-2) holds from n = 3 on, offset 1
@example(case=(REDUCIBLE_K3, 60))
@example(case=(FULL_SHIFT_2, 0))
def test_count_blocks_matches_the_walk(case):
    spec, n = case
    assert count_blocks(spec, n) == reference_count(spec, n)


def test_count_blocks_never_walks_past_the_proof(monkeypatch, golden_spec):
    count_iter = enumeration._count_iter

    def bounded(out):
        # the proof reads 2s + 2 counts, s the counter's state count
        yield from islice(count_iter(out), 2 * len(out) + 2)
        raise AssertionError("walked past the proof terms")

    monkeypatch.setattr(enumeration, "_count_iter", bounded)
    p = 2**61 - 1
    a, b = 1, 2  # golden mean counts a(0), a(1)
    for _ in range(10**5 - 1):
        a, b = b, (a + b) % p
    assert count_blocks(golden_spec, 10**5) % p == b
    # blocks over {1, 2} and 0^n
    assert count_blocks(REDUCIBLE_K3, 10**5) == 2**100000 + 1


def test_count_blocks_walks_when_the_proof_fails(monkeypatch, golden_spec):
    monkeypatch.setattr(enumeration, "_proven_recurrence", lambda terms: None)
    assert not _walks(_successor_lists(golden_spec), 300)
    assert count_blocks(golden_spec, 300) == reference_count(golden_spec, 300)


def _forty_words_of_length_14():
    rng = random.Random(13)
    words = [tuple(rng.randrange(2) for _ in range(14)) for _ in range(40)]
    return spec_from_tuples(2, words)


def test_walk_rule_sides():
    # timed against the walk: the recurrence costs more below these
    # lengths, the walk more above them
    assert first_recurrence_length(tmk_spec(TmkParams(3, 5))) == 144
    assert first_recurrence_length(tmk_spec(TmkParams(1, 2))) == 142
    assert first_recurrence_length(REDUCIBLE_K3) == 92
    # exact-counts shapes: tmk(1, 2) at n = 300 and 1^12 at n = 200 take
    # the recurrence, random k = 4 specs near n = 50 walk
    assert not _walks(_successor_lists(tmk_spec(TmkParams(1, 2))), 300)
    assert not _walks(_successor_lists(spec_from_tuples(2, [(1,) * 12])), 200)
    assert _walks(_successor_lists(spec_from_tuples(4, [(0, 3), (2, 1), (2, 1, 3), (2, 3)])), 57)
    # the walk took 0.15 s at n = 800 and 0.63 s at n = 3000; the order
    # bound s = 348 overstates the true order 237, so the rule walks both
    big = _successor_lists(_forty_words_of_length_14())
    assert len(big) == 348
    assert _walks(big, 800) and _walks(big, 3000)


@pytest.mark.parametrize(
    "spec", [tmk_spec(TmkParams(5, 20)), REDUCIBLE_K3], ids=["tmk-5-20", "reducible-k3"]
)
@pytest.mark.parametrize("n", [1000, 1237, 2000])
def test_count_blocks_matches_path_counts(spec, n):
    # the path counts on the block automaton share no code with the counter
    # or with recurrence.evaluate
    assert not _walks(_successor_lists(spec), n)
    assert count_blocks(spec, n) == count_via_matrix(build_automaton(spec), n)
