"""Counting and enumerating allowed blocks.

Enumeration grows the allowed blocks one length at a time, each layer in
lexicographic order.  Whether a symbol may follow an allowed prefix
depends only on its tail, the prefix's last w = L - 1 symbols or all of
it while shorter, L the longest forbidden length, so each tail finds its
allowed extensions once per call, and one comprehension appends them to
every prefix of a layer.  One layer is held while the next is built, and
the last is turned into blocks in bulk (Block._many).  Enumeration
imports nothing from the transfer module and does not use the counter
below, so it stays an independent oracle for both.  A length whose k^n
candidates pass MAX_CANDIDATES is refused before the first layer.

Counting walks the Aho-Corasick automaton of the forbidden set (Aho &
Corasick 1975).  Its states are the prefixes of forbidden blocks, at most
the total forbidden length plus one, and a block is allowed exactly when
reading it from the root never reaches a state that ends with a
forbidden block.  So the count of length n is the number of walks of
length n from the root through the other states (Guibas & Odlyzko 1981),
an exact integer for lengths far beyond what enumeration could
materialize.

The counter shares no code with the layer growth or the block
automaton.  At large n it answers through recurrence.evaluate: by
Cayley-Hamilton the counts of a counter with s states obey a recurrence of
order at most s, and its first 2s + 2 counts prove the minimal one.

The spaced family's constructive order is built from (m, k) alone, with no
forbidden set, layers or counter, and refuses only when its own counts
pass MAX_CANDIDATES.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from itertools import islice

from .core import (
    Block,
    CountSequence,
    ShiftSpaceSpec,
    TmkParams,
    _require_in_alphabet,
    _require_int,
    _require_n_max,
)
from .errors import ResourceLimitError
from .recurrence import _proven_recurrence, _tmk_terms, evaluate

MAX_CANDIDATES = 2**24


def _suffix_table(spec: ShiftSpaceSpec) -> dict[int, set[tuple[int, ...]]]:
    table: dict[int, set[tuple[int, ...]]] = {}
    for f in spec.forbidden:
        table.setdefault(len(f), set()).add(f.symbols)
    return table


def _suffix_clear(prefix, table) -> bool:
    """Whether no forbidden block ends at the last symbol of prefix."""
    t = len(prefix)
    for length, members in table.items():
        if length <= t and tuple(prefix[t - length :]) in members:
            return False
    return True


def is_allowed(spec: ShiftSpaceSpec, block: Block) -> bool:
    """Whether the block avoids every forbidden block as a factor."""
    _require_in_alphabet(block.symbols, spec.alphabet_size)
    return not any(block.contains_factor(f) for f in spec.forbidden)


def enumerate_blocks(spec: ShiftSpaceSpec, n: int) -> list[Block]:
    """All allowed blocks of length n in lexicographic order.

    Raises ResourceLimitError when the candidate space k^n exceeds
    MAX_CANDIDATES; counts stay available through count_blocks in that
    regime.  For k >= 2, k^n >= 2^n, so a length of at least the cap's
    bit length is refused without computing k^n.  One symbol has the one
    candidate 0^n, allowed below the shortest forbidden run; no layer grows.
    """
    _require_int("block length", n, 0)
    k = spec.alphabet_size
    if k > 1 and (n >= MAX_CANDIDATES.bit_length() or k**n > MAX_CANDIDATES):
        raise ResourceLimitError(
            f"enumerating {k}^{n} candidate blocks exceeds the cap of {MAX_CANDIDATES}; "
            "use count_blocks for counts at this length"
        )
    if k == 1:
        return Block._many([(0,) * n] if all(len(f) > n for f in spec.forbidden) else [])
    table = _suffix_table(spec)
    # a layer of prefixes of length t has tails p[cut:], whose extensions
    # (as 1-tuples) are found once per call
    w = max(table, default=1) - 1
    singles = [(s,) for s in range(k)]
    tails: dict[tuple[int, ...], list[tuple[int]]] = {}
    layer: list[tuple[int, ...]] = [()]
    for t in range(n):
        cut = max(t - w, 0)
        for tail in {p[cut:] for p in layer}.difference(tails):
            tails[tail] = [e for e in singles if _suffix_clear(tail + e, table)]
        layer = [p + e for p in layer for e in tails[p[cut:]]]
    return Block._many(layer)


def enumerate_blocks_constructive(params: TmkParams, n: int) -> list[Block]:
    """Allowed blocks of the spaced family in constructive order.

    Lengths up to m+1 are lexicographic.  A longer length n lists the
    length n-1 blocks with 0 appended, then, for each nonzero symbol a in
    increasing order, the length n-m-1 blocks with 0^m a appended.  The
    result is the same set as enumerate_blocks(tmk_spec(params), n), in the
    order in which the recurrence builds it.
    """
    _require_int("block length", n, 0)
    m, k = params.m, params.k
    # the counts never decrease, a(j) = a(j-1) + (k-1) * a(j-m-1), so the
    # walk can stop at the first length whose count is over the cap; a
    # length whose a(min(n, m + 1)) = 1 + min(n, m + 1)(k - 1) is already
    # over it, however large m is, or n >= MAX_CANDIDATES, since each step
    # adds at least one block and so a(n) >= n + 1, is refused without it
    if n >= MAX_CANDIDATES or 1 + min(n, m + 1) * (k - 1) > MAX_CANDIDATES or any(
        count > MAX_CANDIDATES for count in islice(_tmk_terms(params), n + 1)
    ):
        raise ResourceLimitError(
            f"materializing the allowed blocks of length {n} exceeds the cap of "
            f"{MAX_CANDIDATES} blocks"
        )
    # only a length past m + 1 splits into these m-symbol tails
    tails = [(0,) * m + (a,) for a in range(k - 1, 0, -1)] if n > m + 1 else []
    # (j, suffix) on the stack, next on top, stands for the length j blocks
    # each followed by suffix, so only length n and the seeds are built
    blocks, seeds, stack = [], {}, [(n, ())]
    while stack:
        j, suffix = stack.pop()
        if j > m + 1:
            stack += [(j - m - 1, tail + suffix) for tail in tails] + [(j - 1, (0,) + suffix)]
            continue
        if j not in seeds:  # one nonzero symbol at most: 0^j, then 0^i a 0^(j-1-i), i falling
            seeds[j] = [(0,) * j] + [
                (0,) * i + (a,) + (0,) * (j - 1 - i) for i in range(j)[::-1] for a in range(1, k)
            ]
        blocks += [block + suffix for block in seeds[j]]
    return Block._many(blocks)


def _successor_lists(spec: ShiftSpaceSpec) -> list[list[int]]:
    """Successors of the safe states of the Aho-Corasick automaton; state 0 is the root.

    A trie node is safe when neither it nor a node on its failure chain is
    a forbidden block; children of unsafe nodes are never reached.
    Each safe state lists, in symbol order, the safe state every allowed
    symbol leads to.
    """
    k = spec.alphabet_size
    children: list[dict[int, int]] = [{}]
    terminal = [False]
    for block in spec.forbidden:
        node = 0
        for s in block.symbols:
            child = children[node].get(s)
            if child is None:
                child = len(children)
                children[node][s] = child
                children.append({})
                terminal.append(False)
            node = child
        terminal[node] = True
    fail = [0] * len(children)
    goto = {0: [children[0].get(s, 0) for s in range(k)]}
    safe = [0]
    queue = deque(children[0].values())
    while queue:
        node = queue.popleft()
        if terminal[node] or fail[node] not in goto:
            continue
        safe.append(node)
        inherited = goto[fail[node]]
        row = list(inherited)
        for s, child in children[node].items():
            fail[child] = inherited[s]
            row[s] = child
            queue.append(child)
        goto[node] = row
    index = {node: i for i, node in enumerate(safe)}
    return [[index[t] for t in goto[node] if t in index] for node in safe]


def _count_iter(out: list[list[int]]) -> Iterator[int]:
    """Yields the number of allowed blocks of length 0, 1, 2, ...

    out holds the successor lists of the counter's safe states.
    weights[u] is the number of allowed continuations of length j from
    state u, so the root's weight is the count of length j.
    """
    weights = [1] * len(out)
    yield 1
    while True:
        weight = weights.__getitem__
        weights = [sum(map(weight, targets)) for targets in out]
        yield weights[0]


def _walks(out: list[list[int]], n: int) -> bool:
    """Whether walking the counter to n is expected to beat its recurrence.

    Both routes walk the first 2s + 2 counts.  A further step costs about
    s + E + 3 units, E the number of successors and a unit about one summed
    weight.  The recurrence costs about 600 units of fixed work, 4 per term
    and order for the proof, and 50 + s^2 per bit of n for the powering,
    since its order is at most s.  Fitted on timings of random specs over
    2 to 4 symbols with s up to 348, of tmk specs and of 1^L, at n from 30
    to 3200, as the rule that made none of them slower than the walk.
    """
    s = len(out)
    terms = 2 * s + 2
    step = s + sum(map(len, out)) + 3
    return (n - terms) * step <= 600 + 4 * terms * s + n.bit_length() * (50 + s * s)


def count_blocks(spec: ShiftSpaceSpec, n: int) -> int:
    """Exact number of allowed blocks of length n.

    The counts a(n) = e_root^T A^n 1 of a counter with s safe states obey a
    recurrence of order at most s (Cayley-Hamilton).  Unless the walk rule
    says walk, the first 2s + 2 counts prove the minimal one
    (recurrence._proven_recurrence), which recurrence.evaluate powers to n;
    otherwise, or when the proof fails, the counter walks to n.
    """
    _require_int("block length", n, 0)
    out = _successor_lists(spec)
    counts = _count_iter(out)
    if _walks(out, n):
        return next(islice(counts, n, None))
    terms = tuple(islice(counts, 2 * len(out) + 2))
    if not terms[-1]:
        return 0  # a longer block would have an allowed prefix of length 2s + 1
    rec = _proven_recurrence(terms)
    if rec is None:
        return next(islice(counts, n - len(terms), None))
    return evaluate(rec, n)


def count_sequence(spec: ShiftSpaceSpec, n_max: int) -> CountSequence:
    """Exact counts for every length 1..n_max; an n_max past sys.maxsize - 1 is refused."""
    _require_n_max(n_max)
    counts = tuple(islice(_count_iter(_successor_lists(spec)), 1, n_max + 1))
    return CountSequence(counts=counts, n_min=1)
