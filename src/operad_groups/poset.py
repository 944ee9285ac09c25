"""Partition posets over a base word and their filteredness certificates.

Partitions satisfying the n-condition (at least n marked blocks equivalent
to a chosen word y) form a poset under reverse refinement.  This module
builds explicit members, refines pairs to common upper bounds, enumerates
bounded truncations, and reports filteredness pair by pair.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .backend import (
    BackendConfig,
    KARY_TREE,
    PLANAR,
    forests_up_to,
    input_slots,
    op_comb,
    op_generator,
    op_identity,
)
from .category import Arrow, compose, square_fill
from .errors import (
    BaseMismatchError,
    NotPartitionError,
    NotSplitError,
    ParseError,
    UnknownError,
    refuse_past,
)
from .markings import (
    Marking,
    MarkedArrow,
    SemiPartitionClass,
    class_key,
    class_subset,
    full_markings,
    object_equivalent,
)
from .report import Report

# The most pairs check_filtered keeps a row for.  A truncation of N classes
# has N(N-1)/2 pairs, refined at a few thousand per second, and one more
# level of depth or a wider backend multiplies N, so no command-line
# request buys unbounded time and memory.
MAX_POSET_PAIRS = 20_000

# The most full markings enumerate_pn tries over its forests.  A forest of
# arity a brings Bell(a) of them (2^(a-1) when planar), so one more level
# of depth multiplies the count; the count itself stops past the cap.
MAX_PARTITION_CANDIDATES = 50_000


def is_split(config: BackendConfig, x: int) -> bool:
    """A word splits when it is nonempty and some operation has arity >= 2."""
    return x >= 1 and op_generator(config).arity >= 2


def is_progressive(config: BackendConfig, x: int) -> bool:
    """Composites reach every arity past x; immediate for nonempty words."""
    return x >= 1


def _comb_gens_for_arity(config: BackendConfig, arity: int) -> int:
    """Generator count of the smallest comb with at least the given arity."""
    if config.kind == KARY_TREE:
        step = config.size - 1
        return -((arity - 1) // -step)
    return max(arity - 1, 0)


def _refining_forest(config: BackendConfig, coords: int, arity: int):
    """Identity forest except a comb of at least the given arity at slot 0."""
    gens = _comb_gens_for_arity(config, arity)
    comb = op_comb(config, gens)
    return (comb,) + (op_identity(config),) * (coords - 1)


def is_y_progressive(config: BackendConfig, x: int, y: int, depth: int) -> bool:
    """Every bounded-size refinement of x admits a block of y inputs feeding
    one operation (the link condition); witnessed constructively."""
    if x < 1 or y < 1:
        return False
    step = config.size - 1 if config.kind == KARY_TREE else 1
    lengths = [x + g * step for g in range(depth + 1)]
    for m in lengths:
        forest = _refining_forest(config, m, y)
        witness = Arrow.from_forest(config, forest)
        blocks = {j for j, _ in input_slots(witness)[:y]}
        if len(blocks) != 1:
            raise UnknownError(
                f"no linked block of {y} inputs found refining a word of length {m}"
            )
    return True


def construct_partition_n(
    config: BackendConfig, base: int, y: int, n: int
) -> SemiPartitionClass:
    """A partition over the base with n fresh blocks of y inputs each."""
    if y < 1 or not is_split(config, y):
        raise NotSplitError(f"cannot split a word of length {y}")
    if base < 1:
        raise NotSplitError("partitions need a nonempty base")
    forest = _refining_forest(config, base, max(n * y, 2))
    arrow = Arrow.from_forest(config, forest)
    symbols = []
    for t in range(arrow.domain_len):
        symbols.append(t // y if t < n * y else n)
    # all-in-one-symbol tail keeps the marking full whatever the comb width
    return SemiPartitionClass(MarkedArrow(arrow, Marking(tuple(symbols))))


def n_condition(P: SemiPartitionClass, y: int, n: int) -> bool:
    """At least n marked blocks are object-equivalent to the word y."""
    if not P.is_partition():
        raise NotPartitionError("the n-condition applies to partitions")
    # a block's object class is its symbol's multiplicity: the representative
    # already has the identity permutation, so each submultiball keeps the
    # marked coordinates of its symbol
    hits = sum(
        1
        for count in Counter(P.rep.marking.symbols).values()
        if object_equivalent(P.config, count, y)
    )
    return hits >= n


def refine_to_n(
    P: SemiPartitionClass, Q: SemiPartitionClass, y: int, n: int
) -> SemiPartitionClass:
    """A common refinement of two partitions that meets the n-condition.

    Overlay the representatives, split the first input into n blocks of y
    with fresh symbols, and keep every other input its own symbol.
    """
    if not P.is_partition() or not Q.is_partition():
        raise NotPartitionError("refinement of non-partitions")
    if (P.config is not Q.config and P.config != Q.config) or P.base_len != Q.base_len:
        raise BaseMismatchError("partitions over different bases")
    b1, _ = square_fill(P.rep.arrow, Q.rep.arrow)
    delta = compose(b1, P.rep.arrow)
    forest = _refining_forest(delta.config, delta.domain_len, max(n * y, 2))
    refined = compose(Arrow.from_forest(delta.config, forest), delta)
    symbols = []
    for t in range(refined.domain_len):
        if t < n * y:
            symbols.append(t // y)
        else:
            symbols.append(n + t - n * y)
    return SemiPartitionClass(MarkedArrow(refined, Marking(tuple(symbols))))


@dataclass(frozen=True)
class PosetTruncation:
    """The depth-bounded slice of the partition poset over one base."""

    config: BackendConfig
    base: int
    depth: int
    y: int
    n: int
    elements: tuple

    def leq(self, P: SemiPartitionClass, Q: SemiPartitionClass) -> bool:
        """P below Q means P is the coarser partition (Q refines it)."""
        return class_subset(Q, P)


def _full_marking_count(config: BackendConfig, arity: int) -> int:
    """How many markings ``full_markings`` yields on a word of this length,
    or some number past MAX_PARTITION_CANDIDATES once it is past."""
    cap = MAX_PARTITION_CANDIDATES
    if config.flavor == PLANAR:
        return 1 << min(max(arity - 1, 0), cap.bit_length())
    row = [1]  # the Bell triangle: row a starts with Bell(a)
    for _ in range(arity):
        if row[0] > cap:
            break
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _candidate_counts(config: BackendConfig, base: int, depth: int):
    """The full markings of each forest in turn."""
    if depth >= 0 and _full_marking_count(config, base) > MAX_PARTITION_CANDIDATES:
        # the first forest holds identities only, of arity ``base``: a base
        # past the cap on its own is refused before any forest is built
        yield MAX_PARTITION_CANDIDATES + 1
    for forest in forests_up_to(config, base, depth):
        yield _full_marking_count(config, sum(len(op.cells) for op in forest))


def enumerate_pn(
    config: BackendConfig, base: int, depth: int, y: int, n: int
) -> PosetTruncation:
    """All n-condition partitions within a generator budget, deduplicated:
    the first candidate in printed order stands for its class.  More than
    MAX_PARTITION_CANDIDATES full markings are refused before any is built."""
    refuse_past(
        _candidate_counts(config, base, depth),
        MAX_PARTITION_CANDIDATES,
        "partition candidates",
    )
    candidates = []
    for forest in forests_up_to(config, base, depth):
        arrow = Arrow.from_forest(config, forest)
        for marking in full_markings(config, arrow.domain_len):
            P = SemiPartitionClass(MarkedArrow(arrow, marking))
            if n_condition(P, y, n):
                candidates.append(P)
    candidates.sort(key=lambda P: str(P.rep))
    elements = {}
    for P in candidates:
        elements.setdefault(class_key(P), P)
    return PosetTruncation(config, base, depth, y, n, tuple(elements.values()))


def check_filtered(T: PosetTruncation) -> Report:
    """Upper-bound every pair of truncation elements via refine_to_n;
    more than MAX_POSET_PAIRS pairs are refused before any is refined.

    ``refine_to_n`` reads only the two representative arrows (and the
    truncation's y and n), so it runs once per distinct pair of arrows,
    and the bounds are keyed by that pair (an arrow hashes once); the
    n-condition of a bound is checked once with it, and the two inclusions
    pair by pair."""
    count = len(T.elements)
    pairs = count * (count - 1) // 2
    if pairs > MAX_POSET_PAIRS:
        raise ParseError(
            f"{pairs} pairs of {count} classes exceed the cap {MAX_POSET_PAIRS}"
        )
    rows = []
    shown = [str(P.rep) for P in T.elements]
    bounds = {}  # (P's arrow, Q's) -> (R, R printed, R meets the n-condition)
    for (i, P), (j, Q) in itertools.combinations(enumerate(T.elements), 2):
        key = (P.rep.arrow, Q.rep.arrow)
        bound = bounds.get(key)
        if bound is None:
            R = refine_to_n(P, Q, T.y, T.n)
            bound = bounds[key] = R, str(R.rep), n_condition(R, T.y, T.n)
        R, shown_R, meets = bound
        ok = class_subset(R, P) and class_subset(R, Q) and meets
        rows.append({"p": shown[i], "q": shown[j], "upper_bound": shown_R, "ok": ok})
    return Report("filtered", tuple(rows))
