"""The value-type contract every public record of the package keeps.

Each record is an immutable value: it is built positionally or by keyword
with fixed defaults, compares and hashes by its field tuple, shows as
``Name(field=value, ...)``, refuses assignment and deletion, and survives
pickle and copy unchanged.  Constructors validate with fixed messages.
"""

import copy
import inspect
import pickle

import pytest

from shiftspace import (
    AdjacencyMatrix,
    Block,
    CountSequence,
    DesignResult,
    EntropyReport,
    EntropyTableRow,
    ForbiddenSet,
    LinearRecurrence,
    ParameterError,
    RecurrenceCheck,
    ShiftSpaceSpec,
    TmkParams,
    TransferAutomaton,
    ValidationError,
    design_for_entropy,
    entropy_table,
    k_for_target_ratio,
)

EMPTY = inspect.Parameter.empty
SPEC = ShiftSpaceSpec(2, ForbiddenSet([Block((1, 1))]))
SPEC_REPR = (
    "ShiftSpaceSpec(alphabet_size=2, forbidden=ForbiddenSet(blocks=frozenset({Block(symbols=(1, 1))})))"
)

# class, (field, default) pairs, field values, other field values, repr text
RECORDS = [
    (Block, (("symbols", ()),), ((0, 1),), ((1, 0),), "Block(symbols=(0, 1))"),
    (
        ForbiddenSet,
        (("blocks", ()),),
        (frozenset({Block((1, 1))}),),
        (frozenset({Block((0,))}),),
        "ForbiddenSet(blocks=frozenset({Block(symbols=(1, 1))}))",
    ),
    (
        ShiftSpaceSpec,
        (("alphabet_size", EMPTY), ("forbidden", ForbiddenSet())),
        (2, ForbiddenSet([Block((1, 1))])),
        (3, ForbiddenSet([Block((1, 1))])),
        SPEC_REPR,
    ),
    (TmkParams, (("m", EMPTY), ("k", EMPTY)), (1, 2), (2, 2), "TmkParams(m=1, k=2)"),
    (
        CountSequence,
        (("counts", EMPTY), ("n_min", 1)),
        ((2, 3, 5), 1),
        ((2, 3, 5), 2),
        "CountSequence(counts=(2, 3, 5), n_min=1)",
    ),
    (
        LinearRecurrence,
        (("coefficients", EMPTY), ("initial_terms", EMPTY), ("offset", 1)),
        ((1, 1), (2, 3), 1),
        ((1, 1), (2, 3), 2),
        "LinearRecurrence(coefficients=(1, 1), initial_terms=(2, 3), offset=1)",
    ),
    (
        RecurrenceCheck,
        (
            ("status", EMPTY),
            ("terms_checked", EMPTY),
            ("first_mismatch", None),
            ("expected", None),
            ("actual", None),
        ),
        ("mismatch", 5, 4, 8, 9),
        ("mismatch", 5, 4, 8, 10),
        "RecurrenceCheck(status='mismatch', terms_checked=5, first_mismatch=4, expected=8, actual=9)",
    ),
    (
        EntropyReport,
        (
            ("lambda0", EMPTY),
            ("entropy", EMPTY),
            ("log_base", EMPTY),
            ("method", EMPTY),
            ("residual", EMPTY),
        ),
        (2.0, 0.5, "e", "polynomial", 0.0),
        (2.0, 0.5, "2", "polynomial", 0.0),
        "EntropyReport(lambda0=2.0, entropy=0.5, log_base='e', method='polynomial', residual=0.0)",
    ),
    (
        AdjacencyMatrix,
        (("rows", EMPTY),),
        (((1, 1), (1, 0)),),
        (((1, 1), (1, 1)),),
        "AdjacencyMatrix(rows=((1, 1), (1, 0)))",
    ),
    (
        TransferAutomaton,
        (
            ("spec", EMPTY),
            ("window", EMPTY),
            ("states", EMPTY),
            ("edges", EMPTY),
            ("trimmed", False),
        ),
        (SPEC, 1, (Block((0,)), Block((1,))), ((0, 0, 0), (0, 1, 1), (1, 0, 0)), False),
        (SPEC, 1, (Block((0,)), Block((1,))), ((0, 0, 0), (0, 1, 1), (1, 0, 0)), True),
        f"TransferAutomaton(spec={SPEC_REPR}, window=1, "
        "states=(Block(symbols=(0,)), Block(symbols=(1,))), "
        "edges=((0, 0, 0), (0, 1, 1), (1, 0, 0)), trimmed=False)",
    ),
    (
        DesignResult,
        (
            ("m", EMPTY),
            ("k", EMPTY),
            ("lambda0", EMPTY),
            ("entropy", EMPTY),
            ("deviation", EMPTY),
            ("exact", EMPTY),
        ),
        (1, 3, 2.0, 0.5, 0.0, True),
        (1, 3, 2.0, 0.5, 0.0, False),
        "DesignResult(m=1, k=3, lambda0=2.0, entropy=0.5, deviation=0.0, exact=True)",
    ),
    (
        EntropyTableRow,
        (("m", EMPTY), ("k", EMPTY), ("lambda0", EMPTY), ("entropy", EMPTY)),
        (1, 3, 2.0, 0.5),
        (2, 3, 2.0, 0.5),
        "EntropyTableRow(m=1, k=3, lambda0=2.0, entropy=0.5)",
    ),
]

records = pytest.mark.parametrize(
    "cls, params, values, other_values, text",
    RECORDS,
    ids=[record[0].__name__ for record in RECORDS],
)


def _names(params):
    return [name for name, _default in params]


def _fields(obj, params):
    return tuple(getattr(obj, name) for name in _names(params))


def test_every_public_record_is_covered():
    import shiftspace

    public = {
        name
        for name in shiftspace.__all__
        if isinstance(getattr(shiftspace, name), type)
        and not issubclass(getattr(shiftspace, name), Exception)
    }
    assert public == {record[0].__name__ for record in RECORDS}


@records
def test_signature_keeps_names_and_defaults(cls, params, values, other_values, text):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in parameters] == list(params)
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in parameters)


@records
def test_match_args_are_the_fields(cls, params, values, other_values, text):
    assert cls.__match_args__ == tuple(_names(params))


@records
def test_positional_and_keyword_construction_agree(cls, params, values, other_values, text):
    positional = cls(*values)
    keyword = cls(**dict(zip(_names(params), values)))
    assert _fields(positional, params) == values
    assert _fields(keyword, params) == values
    assert positional == keyword


@records
def test_defaults_fill_trailing_fields(cls, params, values, other_values, text):
    required = [value for value, (_name, default) in zip(values, params) if default is EMPTY]
    defaults = [default for _name, default in params if default is not EMPTY]
    assert cls(*required) == cls(*required, *defaults)
    assert _fields(cls(*required), params)[: len(required)] == tuple(required)


@records
def test_repr_names_every_field(cls, params, values, other_values, text):
    assert repr(cls(*values)) == text


@records
def test_equality_is_by_class_and_field_tuple(cls, params, values, other_values, text):
    obj = cls(*values)
    same = cls(*values)
    other = cls(*other_values)
    assert obj == same and not obj != same
    assert obj != other and not obj == other
    assert obj.__eq__(values) is NotImplemented
    assert obj != values and obj != _fields(obj, params)
    assert obj.__eq__(object()) is NotImplemented
    for record in RECORDS:
        if record[0] is not cls and len(record[2]) == len(values):
            assert obj != record[0](*record[2])


@records
def test_hash_is_the_hash_of_the_field_tuple(cls, params, values, other_values, text):
    obj = cls(*values)
    assert hash(obj) == hash(_fields(obj, params)) == hash(cls(*values))
    assert {obj: 1}[cls(*values)] == 1


@records
def test_fields_cannot_be_set_or_deleted(cls, params, values, other_values, text):
    obj = cls(*values)
    for name in _names(params):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _fields(obj, params) == values


@records
def test_no_attribute_can_be_added(cls, params, values, other_values, text):
    obj = cls(*values)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    with pytest.raises(AttributeError):
        del obj.not_a_field
    assert not hasattr(obj, "__dict__")


@records
def test_pickle_and_copy_round_trip(cls, params, values, other_values, text):
    obj = cls(*values)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    clones = [pickle.loads(pickle.dumps(obj, protocol)) for protocol in protocols]
    clones += [copy.copy(obj), copy.deepcopy(obj)]
    for clone in clones:
        assert type(clone) is cls
        assert clone == obj
        assert hash(clone) == hash(obj)
        assert repr(clone) == text


def _one_of_many(symbols):
    """The block _many builds for symbols among other tuples."""
    return Block._many([(1,), symbols, ()])[1]


@pytest.mark.parametrize("build", [Block._of, _one_of_many], ids=["_of", "_many"])
@pytest.mark.parametrize("symbols", [(), (0,), (0, 1), (3, 0, 2)])
def test_unchecked_block_is_the_checked_block(build, symbols):
    fast, checked = build(symbols), Block(symbols)
    assert type(fast) is Block and fast.symbols is symbols
    assert fast == checked and not fast != checked
    assert hash(fast) == hash(checked)
    assert repr(fast) == repr(checked)
    assert fast.__match_args__ == checked.__match_args__ == ("symbols",)
    match fast:
        case Block(matched):
            pass
    assert matched == symbols
    for other in (Block(()), Block((0, 1)), Block((1,)), Block((3, 0, 2, 0))):
        for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            assert getattr(fast, op)(other) == getattr(checked, op)(other)
            assert getattr(other, op)(fast) == getattr(other, op)(checked)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    clones = [pickle.loads(pickle.dumps(fast, protocol)) for protocol in protocols]
    clones += [copy.copy(fast), copy.deepcopy(fast)]
    for clone in clones:
        assert type(clone) is Block
        assert clone == checked and hash(clone) == hash(checked)
        assert repr(clone) == repr(checked)
    with pytest.raises(AttributeError):
        fast.symbols = ()
    assert not hasattr(fast, "__dict__")


def test_many_blocks_are_the_blocks_of_each_tuple_in_order():
    tuples = [(0, 1), (), (0, 1), (2,)]
    blocks = Block._many(tuples)
    assert type(blocks) is list and blocks == [Block._of(t) for t in tuples]
    assert [b.symbols for b in blocks] == tuples and blocks[0] is not blocks[2]
    assert Block._many([]) == []


def test_as_dict_is_the_slots_in_order_and_only_on_rendered_records():
    rendered = {EntropyReport, DesignResult, EntropyTableRow}
    for cls, params, values, _other, _text in RECORDS:
        if cls in rendered:
            assert list(cls(*values).as_dict().items()) == list(zip(_names(params), values))
        else:
            assert not hasattr(cls, "as_dict")


def test_constructors_normalize_iterables():
    assert Block([0, 1]).symbols == (0, 1)
    assert ForbiddenSet([Block((1,)), Block((1,))]).blocks == frozenset({Block((1,))})
    assert CountSequence([1, 2]).counts == (1, 2)
    rec = LinearRecurrence([1, 1], [1, 2])
    assert rec.coefficients == (1, 1) and rec.initial_terms == (1, 2)
    assert ShiftSpaceSpec(2).forbidden == ForbiddenSet()


def test_block_ordering():
    a, b, c = Block((0, 1)), Block((1,)), Block((1, 0))
    assert a < b < c and a <= a and c > b >= b and not b < a
    assert sorted([c, Block(()), b, a]) == [Block(()), a, b, c]
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(a, op)((0, 1)) is NotImplemented
    with pytest.raises(TypeError):
        a < (1,)
    with pytest.raises(TypeError):
        a >= (0, 1)
    with pytest.raises(TypeError):
        a > TmkParams(1, 2)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Block((-1,)), ParameterError, "block symbols must be non-negative integers, got -1"),
        (lambda: Block((0, True)), ParameterError, "block symbols must be non-negative integers, got True"),
        (lambda: Block(("a",)), ParameterError, "block symbols must be non-negative integers, got 'a'"),
        (lambda: ForbiddenSet([Block(())]), ValidationError, "forbidden blocks must be nonempty"),
        (lambda: ShiftSpaceSpec("2"), ParameterError, "alphabet_size must be an integer"),
        (lambda: ShiftSpaceSpec(0), ValidationError, "alphabet size must be at least 1, got 0"),
        (lambda: ShiftSpaceSpec(2, [Block(())]), ParameterError, "forbidden must be a ForbiddenSet, got list"),
        (lambda: ShiftSpaceSpec(2, None), ParameterError, "forbidden must be a ForbiddenSet, got NoneType"),
        (lambda: ShiftSpaceSpec(2, [(1, 1)]), ParameterError, "forbidden must be a ForbiddenSet, got list"),
        (
            lambda: ShiftSpaceSpec(2, frozenset({Block((1,))})),
            ParameterError,
            "forbidden must be a ForbiddenSet, got frozenset",
        ),
        (lambda: ShiftSpaceSpec("2", None), ParameterError, "alphabet_size must be an integer"),
        (lambda: ShiftSpaceSpec(0, [Block((1,))]), ParameterError, "forbidden must be a ForbiddenSet, got list"),
        (
            lambda: ShiftSpaceSpec(2, ForbiddenSet([Block((2, 0)), Block((1,)), Block((3,))])),
            ValidationError,
            "block (3,) uses symbols [3] outside alphabet of size 2; "
            "block (2, 0) uses symbols [2] outside alphabet of size 2",
        ),
        (lambda: TmkParams(0, 2), ParameterError, "m must be an integer >= 1, got 0"),
        (lambda: TmkParams(0, 1), ParameterError, "m must be an integer >= 1, got 0"),
        (lambda: TmkParams(1, 1), ParameterError, "k must be an integer >= 2, got 1"),
        (lambda: TmkParams(True, 2), ParameterError, "m must be an integer >= 1, got True"),
        (lambda: LinearRecurrence((), ()), ParameterError, "a recurrence needs at least one coefficient"),
        (
            lambda: LinearRecurrence((1,), (1, 2)),
            ParameterError,
            "1 coefficients need exactly as many initial terms, got 2",
        ),
        (lambda: LinearRecurrence((0,), (1,)), ParameterError, "the trailing coefficient must be nonzero"),
        (lambda: LinearRecurrence((0.5,), (1,)), ParameterError, "coefficients must be integers, got 0.5"),
        (lambda: LinearRecurrence((1,), (True,)), ParameterError, "initial_terms must be integers, got True"),
        (lambda: LinearRecurrence((1,), (1,), 1.0), ParameterError, "offset must be an integer >= 0, got 1.0"),
        (lambda: LinearRecurrence((1,), (1,), -1), ParameterError, "offset must be an integer >= 0, got -1"),
        (lambda: CountSequence((1, 2.0)), ParameterError, "counts must be integers, got 2.0"),
        (lambda: CountSequence((1, 2), n_min="x"), ParameterError, "n_min must be an integer >= 0, got 'x'"),
        (
            lambda: k_for_target_ratio(10**400, 1),
            ParameterError,
            "lambda_target lies beyond float range (lambda_target >= 2^1328), "
            "so k cannot be computed in floats",
        ),
        (
            lambda: design_for_entropy(10**400),
            ParameterError,
            "target_entropy lies beyond float range (target_entropy >= 2^1328), "
            "so the design cannot be computed in floats",
        ),
        (lambda: design_for_entropy("x"), ParameterError, "target_entropy must be a number, got 'x'"),
        (
            lambda: entropy_table(m_range=(1.0, 2)),
            ParameterError,
            "m_range bounds must be integers, got (1.0, 2)",
        ),
        (
            lambda: design_for_entropy(0.5, tol=10**400),
            ParameterError,
            "tol lies beyond float range (tol >= 2^1328), so the design cannot be computed in floats",
        ),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
