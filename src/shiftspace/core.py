"""Data model for shift spaces presented by finite forbidden-block sets.

A shift space over the alphabet {0, ..., k-1} is described by a finite set
of forbidden blocks.  A block is allowed exactly when none of the forbidden
blocks occurs in it as a contiguous factor.  This module holds the value
types (blocks, forbidden sets, specs, parameters of the built-in spaced
family, count sequences), text parsing for blocks and spec files,
normalization of forbidden sets, and validation.

Every public record of the package (here and in the other modules) is an
immutable value built on ``_Value``.  Its fields are its ``__slots__``, in
constructor order; its ``__init__`` takes them positionally or by keyword,
sets them with one ``_Value.__init__`` call, then validates, so a record
that exists is valid: a ``ShiftSpaceSpec`` is checked once, when built.
Where a record has ``as_dict``, it is the base's dict of the slots, in slot
order.  Records are equal when of one class with equal field tuples, and
hash as their field tuple.  The repr is ``Name(field=value, ...)``.
Assigning or deleting an attribute raises AttributeError; pickle and copy
rebuild a record through its constructor.

``Block._of(symbols)`` builds a block without the constructor's symbol
check, and ``Block._many(tuples)`` builds the list of such blocks of a
list of tuples in C-level loops.  Only code whose symbols are tuples of
non-negative ints by construction calls them: ``_of`` for the automaton's
window states, ``tmk_spec`` and ``parse_block`` after its digit check,
``_many`` for enumeration's output and the kept blocks of
``normalize_forbidden_set``.
"""

from __future__ import annotations

import re
import sys
from collections import deque
from collections.abc import Iterable, Iterator
from functools import total_ordering
from itertools import repeat
from pathlib import Path

from .errors import (
    OutOfAlphabetError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)


def _require_int(name: str, value, minimum: int) -> None:
    """Raise ParameterError unless value is an integer, not a bool, of at least minimum."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _require_n_max(n_max) -> None:
    """Raise unless n_max is an integer >= 1 whose counts 1..n_max a sequence can index.

    Past sys.maxsize - 1 the lengths outgrow every index, so such an n_max
    is refused with ResourceLimitError before any count is computed.
    """
    _require_int("n_max", n_max, 1)
    if n_max >= sys.maxsize:
        raise ResourceLimitError(
            f"n_max = {n_max} is past the {sys.maxsize - 1} lengths a sequence of counts can index"
        )


def _require_ints(name: str, values: tuple) -> None:
    """Raise ParameterError at the first value that is not an integer, or is a bool."""
    if not all(issubclass(t, int) and t is not bool for t in set(map(type, values))):
        bad = next(v for v in values if not isinstance(v, int) or isinstance(v, bool))
        raise ParameterError(f"{name} must be integers, got {bad!r}")


def _require_in_alphabet(symbols: tuple[int, ...], alphabet_size: int) -> None:
    """Raise OutOfAlphabetError at the first symbol outside {0, ..., alphabet_size - 1}."""
    for s in symbols:
        if s >= alphabet_size:
            raise OutOfAlphabetError(f"symbol {s} does not fit in alphabet of size {alphabet_size}")


class _Value:
    """Base of the immutable records; see the module docstring for the contract."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        # the slots' own setters, since the instance's __setattr__ refuses
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._field_values()


@total_ordering
class Block(_Value):
    """A finite word of symbols.  The empty block is a valid value.

    Blocks order lexicographically by their symbols.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[int, ...] = ()):
        symbols = tuple(symbols)
        for s in symbols:
            if not isinstance(s, int) or isinstance(s, bool) or s < 0:
                raise ParameterError(f"block symbols must be non-negative integers, got {s!r}")
        _Value.__init__(self, symbols)

    @classmethod
    def _of(cls, symbols: tuple[int, ...]) -> "Block":
        """The block of a tuple of non-negative ints, without checking them."""
        block = object.__new__(cls)
        _set_symbols(block, symbols)
        return block

    @classmethod
    def _many(cls, tuples: list[tuple[int, ...]]) -> list["Block"]:
        """The blocks of a list of tuples of non-negative ints, as _of builds them, in C loops."""
        blocks = list(map(object.__new__, repeat(cls, len(tuples))))
        deque(map(_set_symbols, blocks, tuples), maxlen=0)
        return blocks

    # the base's __eq__ and __hash__, without building a field tuple: blocks
    # are compared and hashed in every forbidden set
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash((self.symbols,))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.symbols < other.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, index):
        return self.symbols[index]

    def contains_factor(self, factor: "Block") -> bool:
        """Whether ``factor`` occurs in this block as a contiguous run."""
        m = len(factor.symbols)
        if m == 0:
            return True
        mine = self.symbols
        target = factor.symbols
        return any(mine[i : i + m] == target for i in range(len(mine) - m + 1))


_set_symbols = Block.symbols.__set__


class ForbiddenSet(_Value):
    """A finite set of nonempty forbidden blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Block] = ()):
        members = frozenset(blocks)
        if any(len(b) == 0 for b in members):
            raise ValidationError(["forbidden blocks must be nonempty"])
        _Value.__init__(self, members)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __contains__(self, block: Block) -> bool:
        return block in self.blocks

    @property
    def max_length(self) -> int:
        """Length of the longest member, 0 for the empty set."""
        return max((len(b) for b in self.blocks), default=0)


class ShiftSpaceSpec(_Value):
    """Alphabet size together with the forbidden blocks.

    Raises ParameterError for a non-integer alphabet size or a forbidden
    that is not a ForbiddenSet, then validate_spec's ValidationError, so the
    algorithms never check a spec.
    """

    __slots__ = ("alphabet_size", "forbidden")

    def __init__(self, alphabet_size: int, forbidden: ForbiddenSet = ForbiddenSet()):
        _Value.__init__(self, alphabet_size, forbidden)
        if not isinstance(alphabet_size, int) or isinstance(alphabet_size, bool):
            raise ParameterError("alphabet_size must be an integer")
        if not isinstance(forbidden, ForbiddenSet):
            raise ParameterError(f"forbidden must be a ForbiddenSet, got {type(forbidden).__name__}")
        validate_spec(self)


class TmkParams(_Value):
    """Parameters of the built-in spaced family.

    The family over {0, ..., k-1} requires at least m zeroes between
    consecutive nonzero symbols.
    """

    __slots__ = ("m", "k")

    def __init__(self, m: int, k: int):
        _Value.__init__(self, m, k)
        _require_int("m", m, 1)
        _require_int("k", k, 2)


class CountSequence(_Value):
    """Counts of allowed blocks for consecutive lengths starting at n_min."""

    __slots__ = ("counts", "n_min")

    def __init__(self, counts: tuple[int, ...], n_min: int = 1):
        _Value.__init__(self, tuple(counts), n_min)
        _require_ints("counts", self.counts)
        _require_int("n_min", n_min, 0)

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.counts) - 1

    def value_at(self, n: int) -> int:
        if not self.n_min <= n <= self.n_max:
            raise ParameterError(
                f"length {n} outside the computed range {self.n_min}..{self.n_max}"
            )
        return self.counts[n - self.n_min]

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)


def tmk_spec(params: TmkParams) -> ShiftSpaceSpec:
    """Spec of the spaced family: nonzero symbols at least m apart.

    The forbidden set is every block a 0^j b with a, b nonzero and
    0 <= j < m, which is (k-1)^2 * m blocks and already minimal.  Past
    transfer.MAX_STATES blocks, ResourceLimitError refuses before any is built.
    """
    from . import transfer

    m, k = params.m, params.k
    size = (k - 1) ** 2 * m
    if size > transfer.MAX_STATES:
        raise ResourceLimitError(
            f"the spaced family's (k-1)^2 * m = {size} forbidden blocks exceed "
            f"the cap of {transfer.MAX_STATES}"
        )
    blocks = [
        Block._of((a,) + (0,) * j + (b,))
        for a in range(1, k)
        for b in range(1, k)
        for j in range(m)
    ]
    return ShiftSpaceSpec(alphabet_size=k, forbidden=ForbiddenSet(blocks))


def normalize_forbidden_set(blocks: Iterable[Block]) -> ForbiddenSet:
    """Drop every block that contains another member as a factor.

    The result defines the same shift space with a minimal, duplicate-free
    set.  Normalizing twice gives the same result as normalizing once.
    """
    # by increasing length, so a candidate meets only kept blocks no longer
    # than itself, and finds one as a factor by looking up its factors of
    # each kept length
    kept: set[tuple[int, ...]] = set()
    lengths: set[int] = set()
    for symbols in sorted({b.symbols for b in blocks}, key=len):
        t = len(symbols)
        if any(symbols[i : i + m] in kept for m in lengths for i in range(t - m + 1)):
            continue
        kept.add(symbols)
        lengths.add(t)
    return ForbiddenSet(Block._many(list(kept)))


def parse_block(text: str, alphabet_size: int) -> Block:
    """Parse block text: compact digits for k <= 10, comma-separated above.

    Raises ParseError for malformed text and OutOfAlphabetError for symbol
    values outside {0, ..., k-1}.
    """
    _require_int("alphabet_size", alphabet_size, 1)
    text = text.strip()
    if not text:
        return Block(())
    if alphabet_size <= 10:
        if "," in text:
            raise ParseError(
                f"comma-separated blocks are only accepted for alphabets larger than 10: {text!r}"
            )
        # isdecimal, not isdigit: int() refuses digits such as superscripts
        if not text.isdecimal():
            raise ParseError(f"block text must be a digit string: {text!r}")
        symbols = tuple(int(ch) for ch in text)
    else:
        tokens = [tok.strip() for tok in text.split(",")]
        if any(not tok.isdecimal() for tok in tokens):
            raise ParseError(f"block text must be comma-separated decimal integers: {text!r}")
        symbols = tuple(int(tok) for tok in tokens)
    _require_in_alphabet(symbols, alphabet_size)
    return Block._of(symbols)


def block_text(block: Block, alphabet_size: int) -> str:
    """Inverse of parse_block for blocks over the given alphabet."""
    _require_in_alphabet(block.symbols, alphabet_size)
    if alphabet_size <= 10:
        return "".join(str(s) for s in block)
    return ",".join(str(s) for s in block)


def validate_spec(spec: ShiftSpaceSpec) -> ShiftSpaceSpec:
    """Return the spec unchanged, or raise ValidationError with every violation.

    ShiftSpaceSpec's constructor applies this rule, so a built spec comes back as itself.
    """
    k = spec.alphabet_size
    if k >= 1 and max((max(b.symbols) for b in spec.forbidden), default=0) < k:
        return spec
    if k < 1:
        raise ValidationError([f"alphabet size must be at least 1, got {k}"])
    order = sorted(spec.forbidden, key=lambda b: (len(b), b.symbols))
    bad = [(b, sorted({s for s in b.symbols if s >= k})) for b in order]
    raise ValidationError(
        [f"block {b.symbols} uses symbols {s} outside alphabet of size {k}" for b, s in bad if s]
    )


def load_spec_file(path: str | Path) -> ShiftSpaceSpec:
    """Load, validate, and normalize a spec from a text file.

    Format: a line ``k=<int>``, then one forbidden block per line in the
    syntax of parse_block.  ``#`` starts a comment, blank lines are skipped.
    The file is decoded as UTF-8 whatever the locale, and one leading byte
    order mark is dropped; ParseError names the offset of the first byte
    that does not decode, counted from the start of the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not valid UTF-8 ({exc.reason})") from None
    # compiled here so a run that reads no spec file compiles nothing; later calls hit re's cache
    header_line = re.compile(r"k\s*=\s*(\d+)").fullmatch
    alphabet_size: int | None = None
    raw: list[Block] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        header = header_line(content)
        if alphabet_size is None:
            if header is None:
                raise ParseError(f"{path}:{lineno}: expected a k=<int> line before any block")
            alphabet_size = int(header[1])
            if alphabet_size < 1:
                raise ValidationError([f"{path}:{lineno}: alphabet size must be at least 1"])
            continue
        if header is not None:
            raise ParseError(f"{path}:{lineno}: duplicate k= line")
        try:
            raw.append(parse_block(content, alphabet_size))
        except (ParseError, OutOfAlphabetError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
    if alphabet_size is None:
        raise ParseError(f"{path}: no k=<int> line found")
    return ShiftSpaceSpec(alphabet_size=alphabet_size, forbidden=normalize_forbidden_set(raw))
