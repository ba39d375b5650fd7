import copy
import inspect
import os
import pickle
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftspace
from conftest import brute_force_blocks, spec_from_tuples
from shiftspace import transfer
from shiftspace import (
    Block,
    ForbiddenSet,
    OutOfAlphabetError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    ShiftSpaceSpec,
    TmkParams,
    ValidationError,
    block_text,
    enumerate_blocks,
    load_spec_file,
    normalize_forbidden_set,
    parse_block,
    tmk_spec,
    validate_spec,
)


def test_block_is_a_sequence():
    b = Block((0, 1, 1, 0))
    assert len(b) == 4
    assert list(b) == [0, 1, 1, 0]
    assert b[1] == 1
    assert b[1:3] == (1, 1)
    assert len(Block(())) == 0


def test_block_ordering_is_lexicographic():
    assert Block((0, 1)) < Block((1, 0))
    assert sorted([Block((1, 0)), Block((0, 1)), Block((0, 0))])[0] == Block((0, 0))


def test_block_round_trips_through_pickle_and_deepcopy():
    # a slotted block has no instance dict; pickle and copy rebuild it
    # through its constructor
    block = Block((0, 2, 1))
    assert not hasattr(block, "__dict__")
    for clone in (pickle.loads(pickle.dumps(block)), copy.deepcopy(block)):
        assert clone == block and clone is not block
        assert hash(clone) == hash(block)
        assert {clone: 1}[block] == 1
        assert Block((0, 2)) < clone < Block((1,))
        assert sorted([Block((1,)), clone, Block(())]) == [Block(()), block, Block((1,))]


def test_block_rejects_bad_symbols():
    with pytest.raises(ParameterError):
        Block((0, -1))
    with pytest.raises(ParameterError):
        Block((0, "1"))


def test_contains_factor():
    b = Block((0, 1, 1, 0))
    assert b.contains_factor(Block((1, 1)))
    assert b.contains_factor(Block((0, 1, 1, 0)))
    assert b.contains_factor(Block(()))
    assert not b.contains_factor(Block((1, 1, 1)))
    assert not b.contains_factor(Block((0, 0)))
    assert not Block(()).contains_factor(Block((0,)))


def test_forbidden_set_basics():
    fs = ForbiddenSet([Block((1, 1)), Block((1, 0, 1)), Block((1, 1))])
    assert len(fs) == 2
    assert Block((1, 1)) in fs
    assert fs.max_length == 3
    assert ForbiddenSet().max_length == 0


def test_forbidden_set_rejects_empty_member():
    with pytest.raises(ValidationError):
        ForbiddenSet([Block(())])


def test_tmk_params_domain():
    TmkParams(1, 2)
    for m, k in [(0, 2), (1, 1), (-1, 3), (1, 0)]:
        with pytest.raises(ParameterError):
            TmkParams(m, k)
    with pytest.raises(ParameterError):
        TmkParams(1.5, 2)


def test_tmk_spec_golden_mean():
    spec = tmk_spec(TmkParams(1, 2))
    assert spec.alphabet_size == 2
    assert set(spec.forbidden) == {Block((1, 1))}


def test_tmk_spec_one_three():
    spec = tmk_spec(TmkParams(1, 3))
    assert set(spec.forbidden) == {
        Block((1, 1)),
        Block((1, 2)),
        Block((2, 1)),
        Block((2, 2)),
    }


def test_tmk_spec_two_two_is_minimal():
    spec = tmk_spec(TmkParams(2, 2))
    assert set(spec.forbidden) == {Block((1, 1)), Block((1, 0, 1))}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_tmk_spec_size(m, k):
    spec = tmk_spec(TmkParams(m, k))
    assert len(spec.forbidden) == (k - 1) ** 2 * m
    assert normalize_forbidden_set(spec.forbidden).blocks == spec.forbidden.blocks


def test_normalize_drops_blocks_containing_members():
    raw = [
        Block((1, 1)),
        Block((1, 1, 0)),
        Block((0, 1, 1)),
        Block((1, 1, 1)),
        Block((1, 0, 1)),
    ]
    assert set(normalize_forbidden_set(raw)) == {Block((1, 1)), Block((1, 0, 1))}


def test_normalize_trivial_cases():
    assert set(normalize_forbidden_set([Block((1, 1))])) == {Block((1, 1))}
    assert set(normalize_forbidden_set([])) == set()


def test_normalize_idempotent():
    raw = [Block((1, 1)), Block((0, 1, 1, 0)), Block((0, 0, 0))]
    once = normalize_forbidden_set(raw)
    twice = normalize_forbidden_set(once)
    assert once.blocks == twice.blocks


_blocks_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4).map(tuple),
    min_size=0,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(raw=_blocks_strategy)
def test_normalize_preserves_language(raw):
    k = 3
    raw_spec = spec_from_tuples(k, raw)
    norm_spec = ShiftSpaceSpec(k, normalize_forbidden_set(raw_spec.forbidden))
    for n in range(0, 6):
        assert enumerate_blocks(raw_spec, n) == enumerate_blocks(norm_spec, n)
    again = normalize_forbidden_set(norm_spec.forbidden)
    assert again.blocks == norm_spec.forbidden.blocks


def reference_normalize(blocks):
    """The pairwise normalization: each candidate, shortest first, against every kept block."""
    members = sorted(set(blocks), key=lambda b: (len(b), b.symbols))
    kept = []
    for candidate in members:
        if not any(candidate.contains_factor(shorter) for shorter in kept):
            kept.append(candidate)
    return ForbiddenSet(kept)


@st.composite
def _raw_forbidden_blocks(draw):
    """Blocks over at most 3 symbols of lengths 1 to 6: random words, factors of one word, repeats."""
    k = draw(st.integers(min_value=1, max_value=3))
    word = st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=6).map(tuple)
    base = draw(word)
    factors = [base[i:j] for i in range(len(base)) for j in range(i + 1, len(base) + 1)]
    raw = draw(st.lists(word, max_size=8)) + draw(st.lists(st.sampled_from(factors), max_size=4))
    raw.append(base)
    raw += draw(st.lists(st.sampled_from(raw), max_size=3))
    return [Block(symbols) for symbols in draw(st.permutations(raw))]


@settings(max_examples=300, deadline=None)
@given(raw=_raw_forbidden_blocks())
def test_normalize_matches_the_pairwise_reference(raw):
    assert normalize_forbidden_set(raw) == reference_normalize(raw)


def test_a_wide_spaced_family_file_loads_fast(tmp_path):
    # 1805 blocks; the pairwise normalization took about 1.7 s on them
    spec = tmk_spec(TmkParams(5, 20))
    lines = sorted(block_text(b, 20) for b in spec.forbidden)
    path = tmp_path / "tmk-5-20.txt"
    path.write_text("k=20\n" + "".join(f"{line}\n" for line in lines))
    start = time.perf_counter()
    loaded = load_spec_file(path)
    assert time.perf_counter() - start < 1
    assert loaded == spec


def test_parse_block_compact():
    assert parse_block("0110", 2) == Block((0, 1, 1, 0))
    assert parse_block("", 2) == Block(())
    assert parse_block(" 010 ", 2) == Block((0, 1, 0))


def test_parse_block_comma_separated():
    assert parse_block("10,0,3", 11) == Block((10, 0, 3))
    assert parse_block("10", 11) == Block((10,))


@pytest.mark.parametrize(
    "text, k", [("0\u00b2", 2), ("\u00b2", 2), ("1,\u00b2", 11), ("\u00b9\u00b2,3", 11)]
)
def test_parse_block_refuses_digits_int_cannot_read(text, k):
    # superscripts pass str.isdigit but not int()
    with pytest.raises(ParseError):
        parse_block(text, k)


def test_parse_block_reads_decimal_digits_of_any_script():
    assert parse_block("\u0661\u0660\u0661", 2) == Block((1, 0, 1))
    assert parse_block("\u0661\u0660,\u0663", 11) == Block((10, 3))


def test_parse_block_errors():
    with pytest.raises(OutOfAlphabetError):
        parse_block("12", 2)
    with pytest.raises(OutOfAlphabetError):
        parse_block("0,99", 11)
    with pytest.raises(ParseError):
        parse_block("1,0", 2)
    with pytest.raises(ParseError):
        parse_block("abc", 2)
    with pytest.raises(ParseError):
        parse_block("1,-2", 11)
    with pytest.raises(ParseError):
        parse_block("1,,2", 11)
    with pytest.raises(ParameterError):
        parse_block("0", True)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=15),
    data=st.data(),
)
def test_parse_block_round_trip(k, data):
    symbols = data.draw(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=0, max_size=6).map(tuple)
    )
    block = Block(symbols)
    assert parse_block(block_text(block, k), k) == block


def test_block_text_rejects_out_of_alphabet():
    with pytest.raises(OutOfAlphabetError):
        block_text(Block((0, 5)), 2)


def test_validate_spec_accepts_valid():
    assert validate_spec(spec_from_tuples(2, [(1, 1)])) is not None
    assert validate_spec(spec_from_tuples(3, [(1, 1), (2, 2)])) is not None


def test_validate_spec_reports_out_of_alphabet_block():
    with pytest.raises(ValidationError) as info:
        spec_from_tuples(2, [(1, 2)])
    assert "(1, 2)" in str(info.value)


def test_validate_spec_aggregates_all_violations():
    with pytest.raises(ValidationError) as info:
        spec_from_tuples(2, [(1, 2), (3, 3), (0, 1)])
    assert len(info.value.violations) == 2


def test_validate_spec_lists_violations_by_length_then_symbols():
    blocks = [(4, 2, 2), (0,), (2, 0), (5,), (3, 0, 1), (1, 2), (0, 1)]
    with pytest.raises(ValidationError) as info:
        spec_from_tuples(2, blocks)
    assert info.value.violations == [
        "block (5,) uses symbols [5] outside alphabet of size 2",
        "block (1, 2) uses symbols [2] outside alphabet of size 2",
        "block (2, 0) uses symbols [2] outside alphabet of size 2",
        "block (3, 0, 1) uses symbols [3] outside alphabet of size 2",
        "block (4, 2, 2) uses symbols [2, 4] outside alphabet of size 2",
    ]
    with pytest.raises(ValidationError) as info:
        ShiftSpaceSpec(0, ForbiddenSet(Block(b) for b in blocks))
    assert info.value.violations == ["alphabet size must be at least 1, got 0"]


def test_validate_spec_alphabet_size():
    with pytest.raises(ValidationError):
        ShiftSpaceSpec(0, ForbiddenSet())


def _reference_validate_spec(spec):
    """validate_spec as it was before ShiftSpaceSpec's constructor applied it."""
    k = spec.alphabet_size
    if k >= 1 and max((max(b.symbols) for b in spec.forbidden), default=0) < k:
        return spec
    violations: list[str] = []
    if spec.alphabet_size < 1:
        violations.append(f"alphabet size must be at least 1, got {spec.alphabet_size}")
    else:
        for block in sorted(spec.forbidden, key=lambda b: (len(b), b.symbols)):
            bad = [s for s in block if s >= spec.alphabet_size]
            if bad:
                violations.append(
                    f"block {block.symbols} uses symbols {sorted(set(bad))} outside "
                    f"alphabet of size {spec.alphabet_size}"
                )
    if violations:
        raise ValidationError(violations)
    return spec


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(min_value=-2, max_value=5),
    blocks=st.lists(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4).map(tuple),
        max_size=6,
    ),
)
def test_the_constructor_enforces_the_old_rule(k, blocks):
    forbidden = ForbiddenSet(Block(b) for b in blocks)
    try:
        _reference_validate_spec(SimpleNamespace(alphabet_size=k, forbidden=forbidden))
    except ValidationError as reference:
        with pytest.raises(ValidationError) as info:
            ShiftSpaceSpec(k, forbidden)
        assert info.value.violations == reference.violations
        return
    spec = ShiftSpaceSpec(k, forbidden)
    assert validate_spec(spec) is spec
    for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert twin == spec and type(twin) is ShiftSpaceSpec
        assert (twin.alphabet_size, twin.forbidden) == (k, forbidden)


@pytest.mark.parametrize(
    ("m", "k"),
    [
        pytest.param(10**309, 2, id="10^309,2"),
        pytest.param(transfer.MAX_STATES + 1, 2, id="cap+1,2"),
        pytest.param(1, 2000, id="1,2000"),
    ],
)
def test_tmk_spec_refuses_a_family_past_the_state_cap(no_block, m, k):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as info:
        tmk_spec(TmkParams(m, k))
    assert time.perf_counter() - start < 1
    assert str(info.value) == (
        f"the spaced family's (k-1)^2 * m = {(k - 1) ** 2 * m} forbidden "
        f"blocks exceed the cap of {transfer.MAX_STATES}"
    )


def test_tmk_spec_reads_the_state_cap_at_call_time(monkeypatch):
    assert len(tmk_spec(TmkParams(2, 3)).forbidden) == 8
    monkeypatch.setattr(transfer, "MAX_STATES", 7)
    with pytest.raises(ResourceLimitError, match="= 8 forbidden blocks exceed the cap of 7$"):
        tmk_spec(TmkParams(2, 3))


def test_load_spec_file(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text("# golden mean\nk=2\n\n11  # no adjacent ones\n")
    spec = load_spec_file(path)
    assert spec.alphabet_size == 2
    assert set(spec.forbidden) == {Block((1, 1))}


def test_load_spec_file_normalizes(tmp_path):
    path = tmp_path / "redundant.txt"
    path.write_text("k=2\n11\n110\n011\n101\n")
    spec = load_spec_file(path)
    assert set(spec.forbidden) == {Block((1, 1)), Block((1, 0, 1))}


def test_load_spec_file_comma_alphabet(tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("k=12\n10,11\n")
    spec = load_spec_file(path)
    assert set(spec.forbidden) == {Block((10, 11))}


def test_load_spec_file_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"k=2\n1\xff1\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: byte 5 is not valid UTF-8"):
        load_spec_file(path)


def test_load_spec_file_drops_one_byte_order_mark(tmp_path):
    # editors that save "UTF-8 with BOM" put EF BB BF before the k= line
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfk=2\n11\n")
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"k=2\n11\n")
    assert load_spec_file(path) == load_spec_file(plain)
    # a bad byte's offset still counts the mark's three bytes
    path.write_bytes(b"\xef\xbb\xbfk=2\n1\xff1\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: byte 8 is not valid UTF-8"):
        load_spec_file(path)
    # only one mark is dropped: a second stands before the header
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfk=2\n11\n")
    with pytest.raises(ParseError, match=r":1: expected a k=<int> line before any block"):
        load_spec_file(path)


def test_load_spec_file_decodes_utf8_in_the_posix_locale(tmp_path):
    # without UTF-8 mode or locale coercion, the POSIX locale's codec is ASCII
    path = tmp_path / "arabic-indic.txt"
    path.write_text("k=2\n\u0661\u0661\n", encoding="utf-8")
    env = {**os.environ, "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    probe = "import sys, shiftspace; print(sorted(shiftspace.load_spec_file(sys.argv[1]).forbidden))"
    result = subprocess.run(
        [sys.executable, "-c", probe, str(path)], capture_output=True, text=True, env=env
    )
    assert (result.returncode, result.stdout) == (0, "[Block(symbols=(1, 1))]\n")


def test_load_spec_file_reads_a_header_in_unicode_spaces_and_digits(tmp_path):
    path = tmp_path / "unicode.txt"
    path.write_text("k\u00a0=\u2003\u0663\n12\n", encoding="utf-8")
    assert load_spec_file(path).alphabet_size == 3


def test_load_spec_file_requires_header(tmp_path):
    path = tmp_path / "noheader.txt"
    path.write_text("11\n")
    with pytest.raises(ParseError):
        load_spec_file(path)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ParseError):
        load_spec_file(empty)


def test_load_spec_file_rejects_duplicate_header(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("k=2\nk=3\n")
    with pytest.raises(ParseError):
        load_spec_file(path)


def test_load_spec_file_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("k=2\n01\nx1\n")
    with pytest.raises(ParseError) as info:
        load_spec_file(path)
    assert ":3:" in str(info.value)
    out_of_alphabet = tmp_path / "oob.txt"
    out_of_alphabet.write_text("k=2\n02\n")
    with pytest.raises(OutOfAlphabetError) as info:
        load_spec_file(out_of_alphabet)
    assert ":2:" in str(info.value)
    no_symbols = tmp_path / "k0.txt"
    no_symbols.write_text("k=0\n")
    with pytest.raises(ValidationError) as info:
        load_spec_file(no_symbols)
    assert str(info.value) == f"{no_symbols}:1: alphabet size must be at least 1"


def test_loaded_spec_counts_match_oracle(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("k=3\n11\n22\n")
    spec = load_spec_file(path)
    for n in range(0, 5):
        assert len(enumerate_blocks(spec, n)) == len(brute_force_blocks(3, [(1, 1), (2, 2)], n))


def test_caps_are_module_constants_and_no_function_takes_one():
    # each cap is read at call time from its module, so no public function
    # takes one, and the root finders take no tolerance they would ignore
    caps = {"max_states", "max_iterations", "max_candidates"}
    for name in shiftspace.__all__:
        value = getattr(shiftspace, name)
        if inspect.isfunction(value):
            assert caps.isdisjoint(inspect.signature(value).parameters), name
    for name in ("dominant_root", "entropy_tmk"):
        assert "tol" not in inspect.signature(getattr(shiftspace, name)).parameters, name
    assert (shiftspace.transfer.MAX_STATES, shiftspace.transfer.MAX_ITERATIONS) == (2**20, 10**6)
    assert shiftspace.enumeration.MAX_CANDIDATES == 2**24
