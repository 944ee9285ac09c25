"""Markings on color words and the calculus of marked arrows.

A marking assigns an optional symbol to each coordinate of a word; symbols
are relabeled 0, 1, 2, ... by first occurrence on construction, so marking
equivalence is literal equality.  Pulling a codomain marking back through
an arrow gives every input of an operation its output's symbol.  Classes
of marked arrows over a fixed base (semi-partitions) carry the refinement
preorder computed through square fillings.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .backend import (
    BackendConfig,
    Box,
    PLANAR,
    _parse_int,
    cell_operation,
    op_identity,
    realize,
    split_top_level,
    standard_cells,
)
from .category import Arrow, arrow_eq, compose, parse_arrow, square_fill
from .errors import (
    BaseMismatchError,
    FlavorError,
    LengthError,
    NotFillingsError,
    NotMultiballError,
    ParseError,
    SlotRangeError,
)


def _relabel(values) -> tuple:
    table = {}
    out = []
    for v in values:
        if v is None:
            out.append(None)
        else:
            if v not in table:
                table[v] = len(table)
            out.append(table[v])
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Marking:
    """Partial symbol assignment; stored symbols are 0..k-1 by first occurrence."""

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", _relabel(self.symbols))

    def __len__(self):
        return len(self.symbols)

    @property
    def symbol_count(self) -> int:
        return len({s for s in self.symbols if s is not None})

    def support(self, symbol) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.symbols) if s == symbol)

    def is_full(self) -> bool:
        return all(s is not None for s in self.symbols)

    def is_ordered(self) -> bool:
        """Each symbol occupies one contiguous run of coordinates."""
        for symbol in range(self.symbol_count):
            coords = self.support(symbol)
            if coords[-1] - coords[0] + 1 != len(coords):
                return False
        return True

    def keep_only(self, symbol) -> "Marking":
        return Marking(tuple(s if s == symbol else None for s in self.symbols))

    def __str__(self):
        return format_marking(self)


def _symbol_name(s: int) -> str:
    name = ""
    s += 1
    while s:
        s, r = divmod(s - 1, 26)
        name = chr(ord("a") + r) + name
    return name


def format_marking(m: Marking) -> str:
    body = " ".join(
        f"{i}:{'-' if s is None else _symbol_name(s)}" for i, s in enumerate(m.symbols)
    )
    return f"m[{body}]"


_MARKING_RE = re.compile(r"^m\[(.*)\]$")


def parse_marking(text: str) -> Marking:
    match = _MARKING_RE.match(text.strip())
    if not match:
        raise ParseError(f"bad marking literal: {text!r}")
    body = match.group(1).strip()
    entries = {}
    if body:
        for chunk in body.split():
            idx, _, sym = chunk.partition(":")
            if not idx.isdigit() or not sym:
                raise ParseError(f"bad marking entry: {chunk!r}")
            coord = _parse_int(idx, "marking coordinate")
            if coord in entries:
                raise ParseError(f"duplicate coordinate {idx} in marking")
            entries[coord] = None if sym == "-" else sym
    if sorted(entries) != list(range(len(entries))):
        raise ParseError("marking must cover coordinates 0..n-1")
    return Marking(tuple(entries[i] for i in range(len(entries))))


def _gather(arrow: Arrow, symbols: tuple) -> tuple:
    """The pulled-back symbol tuple, not relabeled: one symbol per input of
    the forest in slot order, its output's symbol, read off at
    ``perm.imgs``.  The symbols must cover the codomain."""
    slots = [s for s, op in zip(symbols, arrow.forest) for _ in op.cells]
    return tuple(map(slots.__getitem__, arrow.perm.imgs))


def pull_back(arrow: Arrow, comarking: Marking) -> Marking:
    """Transport a codomain marking to the domain: every input of an
    operation inherits its output's symbol, routed through the permutation."""
    if len(comarking) != arrow.codomain_len:
        raise LengthError(
            f"comarking of length {len(comarking)} on codomain of length "
            f"{arrow.codomain_len}"
        )
    return Marking(_gather(arrow, comarking.symbols))


def _symbols_subset(s1: tuple, s2: tuple) -> bool:
    """One pass over two symbol tuples of one length: each s1-symbol's
    coordinates all carry one common s2-symbol."""
    image = {}
    for a, b in zip(s1, s2):
        if a is not None and (b is None or image.setdefault(a, b) != b):
            return False
    return True


def marking_subset(m1: Marking, m2: Marking) -> bool:
    """True iff a symbol map sends m1 into m2: each m1-symbol's coordinates
    all carry one common m2-symbol."""
    if len(m1) != len(m2):
        raise LengthError(f"markings of lengths {len(m1)} and {len(m2)}")
    return _symbols_subset(m1.symbols, m2.symbols)


@dataclass(frozen=True, slots=True)
class MarkedArrow:
    arrow: Arrow
    marking: Marking

    def __post_init__(self):
        if len(self.marking) != self.arrow.domain_len:
            raise LengthError(
                f"marking of length {len(self.marking)} on domain of length "
                f"{self.arrow.domain_len}"
            )
        if self.arrow.config.flavor == PLANAR and not self.marking.is_ordered():
            raise FlavorError("planar markings must be ordered (contiguous symbols)")

    @property
    def config(self) -> BackendConfig:
        return self.arrow.config

    @property
    def base_len(self) -> int:
        return self.arrow.codomain_len

    def __str__(self):
        return f"{self.arrow} @ {self.marking}"


def parse_marked_arrow(text: str, config: BackendConfig) -> MarkedArrow:
    parts = split_top_level(text, "@")
    if len(parts) != 2:
        raise ParseError(f"a marked arrow literal is 'arrow @ marking', got {text!r}")
    return MarkedArrow(parse_arrow(parts[0], config), parse_marking(parts[1].strip()))


def _require_same_base_ma(p: MarkedArrow, q: MarkedArrow):
    if (p.config is not q.config and p.config != q.config) or p.base_len != q.base_len:
        raise BaseMismatchError("marked arrows over different base words")


def ma_subset_with(p: MarkedArrow, q: MarkedArrow, filling) -> bool:
    """Refinement verdict through an explicit square filling (b1, b2)."""
    b1, b2 = filling
    if not arrow_eq(compose(b1, p.arrow), compose(b2, q.arrow)):
        raise NotFillingsError("the given pair does not fill the cospan")
    return marking_subset(pull_back(b1, p.marking), pull_back(b2, q.marking))


def ma_subset(p: MarkedArrow, q: MarkedArrow) -> bool:
    """The preorder on marked arrows; any square filling gives this verdict.

    It is ``ma_subset_with`` through ``square_fill``, decided on the two
    gathered symbol tuples without building a ``Marking``.  ``pull_back``
    would only rename each side's symbols one-to-one, keeping ``None``,
    which does not change whether a symbol map exists; and both tuples
    have the filling's domain length, so no length check is needed.
    """
    _require_same_base_ma(p, q)
    b1, b2 = square_fill(p.arrow, q.arrow)
    return _symbols_subset(_gather(b1, p.marking.symbols), _gather(b2, q.marking.symbols))


@dataclass(frozen=True, slots=True)
class SemiPartitionClass:
    """Equivalence class of marked arrows over a base word.

    Stores one representative, normalized to identity permutation by
    absorbing the permutation into the marking (always possible, and a
    no-op in the planar flavor).
    """

    rep: MarkedArrow

    def __post_init__(self):
        ma = self.rep
        perm = ma.arrow.perm
        if not perm.is_identity():
            arrow = Arrow.from_forest(ma.config, ma.arrow.forest)
            marking = Marking(perm.permute(ma.marking.symbols))
            object.__setattr__(self, "rep", MarkedArrow(arrow, marking))

    @property
    def config(self) -> BackendConfig:
        return self.rep.config

    @property
    def base_len(self) -> int:
        return self.rep.base_len

    def is_partition(self) -> bool:
        return self.rep.marking.is_full()

    def is_multiball(self) -> bool:
        return self.rep.marking.symbol_count == 1

    def __str__(self):
        return str(self.rep)


def sp_class_eq(P: SemiPartitionClass, Q: SemiPartitionClass) -> bool:
    """Containment both ways.

    Any square filling gives both ``ma_subset`` verdicts, so one filling
    (b1, b2) of the two arrows serves both directions.  Containment both
    ways between two symbol tuples of one word says that they mark the
    same coordinates, split into the same blocks: after relabelling by
    first occurrence, plain equality.  Against an identity leg the
    filling is the unit law, so the identity class's marking is pulled
    back through the other class's arrow and compared with its marking,
    which is relabeled already.  Equality is symmetric, so an identity p
    is swapped to the right.
    """
    p, q = P.rep, Q.rep
    _require_same_base_ma(p, q)
    if p.arrow.is_identity():
        p, q = q, p
    if q.arrow.is_identity():
        return p.marking == pull_back(p.arrow, q.marking)
    b1, b2 = square_fill(p.arrow, q.arrow)
    return _relabel(_gather(b1, p.marking.symbols)) == _relabel(
        _gather(b2, q.marking.symbols)
    )


def _varies_along(here, axis: int, base: int) -> bool:
    """Whether the labelling of the box these cells tile varies along the
    axis: two cells with different labels overlap on every other axis.
    Both cells meet the box and standard cells are laminar per axis, so a
    common point of their cross-sections lies in the box's cross-section,
    and the line along the axis through it meets both cells in the box."""
    cut = [
        (Box(c.exps[:axis] + c.exps[axis + 1 :], c.offs[:axis] + c.offs[axis + 1 :]), s)
        for c, s in here
    ]
    return any(
        s != t and p.meet(q, base) is not None
        for (p, s), (q, t) in itertools.combinations(cut, 2)
    )


def class_key(P: SemiPartitionClass) -> tuple:
    """Canonical hashable key: equal exactly when sp_class_eq holds.

    Containment both ways maps each symbol's region onto one region of
    the other class, so two classes are equal exactly when they mark the
    same regions of every base coordinate up to renaming the symbols.  The
    key describes that labelling: per base coordinate, a trie of boxes.  A
    box of uniform label is a leaf, the label (None for unmarked).  Any
    other box is split into base slices along the lowest axis along which
    its labelling varies, and is the node ``(axis, child, ...)``.  Axes
    0 .. dim-2 are tested with ``_varies_along``; when none varies, the
    last axis must, and it is not scanned, so trees test no pair.  Only an
    axis along which some cell is cut finer than the box is tested: along
    any other every cell spans the box, so two cells overlapping on the
    other axes would overlap each other, and the labelling cannot vary.
    Symbols are renamed by first occurrence.

    The key is canonical: whether a box is uniform, and its split axis,
    are read off the labelling of the box alone, not off the cells that
    carry it, so every representative of a class grows the same trie with
    the same leaves in the same order.  Conversely the trie, with its
    axes, gives back the labelling.  The recursion ends, as a split axis
    always has a cell cut finer than the box along it.  The trie grows with
    the labelling, not with the dimension: a ball cut once keys in 3 nodes
    for every d.
    """
    base, dim = P.config.base, P.config.dim
    items = [[] for _ in range(P.base_len)]
    for (j, cell), s in zip(realize(P.rep.arrow), P.rep.marking.symbols):
        items[j].append((cell, s))
    names: dict = {}

    def node(box: Box, here):
        labels = {s for _, s in here}
        if len(labels) == 1:  # also the case of one cell containing the box
            s = labels.pop()
            return None if s is None else names.setdefault(s, len(names))
        axis = next(
            (
                a
                for a in range(dim - 1)
                if any(cell.exps[a] > box.exps[a] for cell, _ in here)
                and _varies_along(here, a, base)
            ),
            dim - 1,
        )
        e = box.exps[axis]
        groups = [[] for _ in range(base)]
        for cell, s in here:
            ce = cell.exps[axis]
            if ce <= e:  # spans the box along the split axis
                for group in groups:
                    group.append((cell, s))
            else:
                groups[cell.offs[axis] // base ** (ce - e - 1) % base].append((cell, s))
        return (axis,) + tuple(
            node(box.child(axis, digit, base), group) for digit, group in enumerate(groups)
        )

    whole = Box.whole(dim)
    return tuple(node(whole, here) for here in items)


def class_subset(Q: SemiPartitionClass, P: SemiPartitionClass) -> bool:
    """Refinement of classes: Q is finer than (contained in) P."""
    return ma_subset(Q.rep, P.rep)


def submultiballs(P: SemiPartitionClass) -> tuple[SemiPartitionClass, ...]:
    """One multiball per symbol, obtained by erasing all the others."""
    return tuple(
        SemiPartitionClass(MarkedArrow(P.rep.arrow, P.rep.marking.keep_only(s)))
        for s in range(P.rep.marking.symbol_count)
    )


def is_ball(B: SemiPartitionClass) -> bool:
    """A multiball is a ball when its marked cells unite to one standard cell.

    Geometric reading of "has a single-marked representative": the marked
    cells, disjoint cells of one partition, must fill their hull, the
    smallest standard cell containing them all.  Per axis, the offsets are
    reduced to the shallowest exponent, then divided by the base until they
    agree.  Volumes are counted in units of the deepest marked cell's
    volume base^-E.
    """
    if not B.is_multiball():
        raise NotMultiballError("ball test on a class that is not a multiball")
    base = B.config.base
    table = realize(B.rep.arrow)
    cells = [table[i] for i in B.rep.marking.support(0)]
    if len({j for j, _ in cells}) != 1:
        return False
    boxes = [cell for _, cell in cells]
    hull_depth = 0
    for axis in range(B.config.dim):
        e = min(b.exps[axis] for b in boxes)
        offs = {b.offs[axis] // base ** (b.exps[axis] - e) for b in boxes}
        while len(offs) > 1:
            offs = {a // base for a in offs}
            e -= 1
        hull_depth += e
    depths = [sum(b.exps) for b in boxes]
    E = max(depths)
    return sum(base ** (E - d) for d in depths) == base ** (E - hull_depth)


def object_class(B: SemiPartitionClass) -> int:
    """Length of the marked subword of the stored representative; well
    defined on the class only up to object equivalence."""
    if not B.is_multiball():
        raise NotMultiballError("object class of a non-multiball")
    return len(B.rep.marking.support(0))


def object_equivalent(config: BackendConfig, a: int, b: int) -> bool:
    """Whether words of these lengths are connected by a span: each cut
    adds base - 1 inputs."""
    if a == 0 or b == 0:
        return a == b
    return (a - b) % (config.base - 1) == 0


def trivial_partition(config: BackendConfig, n: int) -> SemiPartitionClass:
    """The coarsest class: identity arrow, everything one symbol."""
    return SemiPartitionClass(
        MarkedArrow(Arrow.identity(config, n), Marking((0,) * n))
    )


def ball_at(config: BackendConfig, base_len: int, coord: int, cell: Box) -> SemiPartitionClass:
    """The ball sitting at a standard cell of one codomain coordinate."""
    if not 0 <= coord < base_len:
        raise SlotRangeError(
            f"coordinate {coord} out of range for a base of length {base_len}"
        )
    forest = [op_identity(config)] * base_len
    forest[coord] = cell_operation(config, cell)
    arrow = Arrow.from_forest(config, forest)
    start = sum(op.arity for op in forest[:coord])
    position = start + forest[coord].cells.index(cell)
    symbols = [None] * arrow.domain_len
    symbols[position] = 0
    return SemiPartitionClass(MarkedArrow(arrow, Marking(tuple(symbols))))


def all_balls(config: BackendConfig, base_len: int, depth: int):
    """Every ball of cell depth at most the bound, in deterministic order."""
    for coord in range(base_len):
        for cell in standard_cells(config, depth):
            yield ball_at(config, base_len, coord, cell)


def set_partitions(n: int):
    """All set partitions of range(n) as canonical symbol tuples."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        used = 0 if not rest else max(rest) + 1
        for s in range(used + 1):
            yield rest + (s,)


def ordered_full_markings(n: int):
    """Full markings whose symbols are contiguous runs (planar flavor)."""
    if n == 0:
        yield ()
        return
    for first_run in range(1, n + 1):
        for rest in ordered_full_markings(n - first_run):
            yield (0,) * first_run + tuple(s + 1 for s in rest)


def full_markings(config: BackendConfig, n: int):
    if config.flavor == PLANAR:
        return (Marking(m) for m in ordered_full_markings(n))
    return (Marking(m) for m in set_partitions(n))


def _planar_partial(n: int):
    """Ordered markings of length n, each once: a marking splits uniquely
    into a head and a last part, one unmarked coordinate or a whole run of
    the newest symbol."""
    if n == 0:
        yield ()
        return
    for rest in _planar_partial(n - 1):
        yield rest + (None,)
    for run in range(1, n + 1):
        for head in _planar_partial(n - run):
            used = len({s for s in head if s is not None})
            yield head + (used,) * run


def partial_markings(config: BackendConfig, n: int):
    """Every marking on a length-n word, canonical symbols, flavor-aware."""
    if config.flavor == PLANAR:
        yield from map(Marking, _planar_partial(n))
        return
    for support_size in range(n + 1):
        for support in itertools.combinations(range(n), support_size):
            for labels in set_partitions(support_size):
                symbols = [None] * n
                for pos, s in zip(support, labels):
                    symbols[pos] = s
                yield Marking(tuple(symbols))
