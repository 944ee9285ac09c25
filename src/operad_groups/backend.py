"""Concrete subdivision operads: k-ary trees and dyadic cube cutting.

An operation of arity n subdivides the unit cube [0,1)^d (the unit
interval for trees) into n half-open cells.  Trees are the 1-dimensional
base-k case with cells listed left to right; cube operations carry their
cell sequence as explicit data, and every constructor in this module emits
the lexicographic (canonical) order.  The geometric realization defined at
the bottom doubles as an independent oracle for the categorical layers
built on top.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field

from .errors import (
    BaseMismatchError,
    DepthError,
    LengthError,
    NotGuillotineError,
    NotPartitionError,
    ParseError,
    SizeMismatchError,
    SlotRangeError,
)

PLANAR = "planar"
SYMMETRIC = "symmetric"

KARY_TREE = "kary_tree"
DYADIC_CUBE = "dyadic_cube"

# The most cuts one cell may take: it bounds the nesting of tree and
# cut-tree literals, the total exponent of a parsed box, and every cell an
# operation is built from, given or computed.  So the recursive validators
# stay far from the interpreter's recursion limit, no literal can ask for a
# huge base**exponent, and every printed result parses back.
MAX_CELL_DEPTH = 256

# The most cells one operation may have, given or computed.  A power of an
# infinite-order element grows its legs with every step (the shift's n-th
# power on tree:k=64 carries 63n + 64 cells per leg), so MAX_EXPONENT alone
# does not bound the time a power takes.  Accepting a given pattern costs
# O(cells x depth); only a refused one's overlap scan is quadratic in its
# arity.
MAX_OPERATION_CELLS = 4096

# The largest k of a tree backend and d of a cube backend, so that no backend
# name buys unbounded time: a single tree split has arity k, the overlap
# scan that names a refused pattern's fault is quadratic in its arity, and
# cube enumerations range over all d axes.
MAX_BACKEND_SIZE = 64


@dataclass(frozen=True, slots=True)
class BackendConfig:
    """Choice of operad: kary_tree(k) or dyadic_cube(d), planar or symmetric."""

    kind: str
    size: int
    flavor: str = SYMMETRIC

    def __post_init__(self):
        if self.kind not in (KARY_TREE, DYADIC_CUBE):
            raise ParseError(f"unknown backend kind: {self.kind!r}")
        if self.flavor not in (PLANAR, SYMMETRIC):
            raise ParseError(f"unknown flavor: {self.flavor!r}")
        if self.kind == KARY_TREE and self.size < 2:
            raise ParseError("kary_tree needs k >= 2")
        if self.kind == DYADIC_CUBE and self.size < 1:
            raise ParseError("dyadic_cube needs d >= 1")
        if self.size > MAX_BACKEND_SIZE:
            raise ParseError(f"backend size {self.size} exceeds the cap {MAX_BACKEND_SIZE}")
        if self.kind == DYADIC_CUBE and self.size >= 2 and self.flavor != SYMMETRIC:
            raise ParseError("dyadic_cube with d >= 2 requires the symmetric flavor")

    @classmethod
    def tree(cls, k: int, flavor: str = SYMMETRIC) -> "BackendConfig":
        return cls(KARY_TREE, k, flavor)

    @classmethod
    def cube(cls, d: int, flavor: str = SYMMETRIC) -> "BackendConfig":
        return cls(DYADIC_CUBE, d, flavor)

    @property
    def dim(self) -> int:
        return 1 if self.kind == KARY_TREE else self.size

    @property
    def base(self) -> int:
        """Subdivision base per axis: k for trees, 2 for cubes."""
        return self.size if self.kind == KARY_TREE else 2

    def __str__(self):
        return f"tree:k={self.size}" if self.kind == KARY_TREE else f"cube:d={self.size}"


_BACKEND_RE = re.compile(r"^(tree:k=|cube:d=)(\d+)$")


def parse_backend(text: str, flavor: str = SYMMETRIC) -> BackendConfig:
    m = _BACKEND_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad backend name: {text!r} (expected tree:k=N or cube:d=N)")
    kind = KARY_TREE if m.group(1).startswith("tree") else DYADIC_CUBE
    return BackendConfig(kind, _parse_int(m.group(2), "backend size"), flavor)


def _parse_int(digits: str, what: str) -> int:
    """``int`` of a parsed digit run, with every failure (among them a run
    past the interpreter's digit limit) a parse error."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"bad {what}: {digits[:20]!r}") from None


@dataclass(frozen=True, slots=True)
class Box:
    """Standard cell: per axis i the interval [offs[i]/b^exps[i], (offs[i]+1)/b^exps[i])."""

    exps: tuple[int, ...]
    offs: tuple[int, ...]

    def __post_init__(self):
        if len(self.exps) != len(self.offs):
            raise ParseError("box needs one exponent and one offset per axis")

    @classmethod
    def whole(cls, dim: int) -> "Box":
        return cls((0,) * dim, (0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.exps)

    def in_range(self, base: int) -> bool:
        # every sign first, so a negative exponent is refused before any
        # base**e of a huge one is computed
        return all(e >= 0 for e in self.exps) and all(
            0 <= a < base**e for e, a in zip(self.exps, self.offs)
        )

    def child(self, axis: int, digit: int, base: int) -> "Box":
        """The digit-th of the base many slices of this box along the axis."""
        exps = list(self.exps)
        offs = list(self.offs)
        exps[axis] += 1
        offs[axis] = offs[axis] * base + digit
        return Box(tuple(exps), tuple(offs))

    def meet(self, other: "Box", base: int) -> "Box | None":
        """Intersection; standard cells are laminar per axis, so this is a
        cell or empty.  An operand inside the other is returned itself."""
        self_finer = other_finer = False
        for e1, a1, e2, a2 in zip(self.exps, self.offs, other.exps, other.offs):
            if e1 < e2:
                if a2 // base ** (e2 - e1) != a1:
                    return None
                other_finer = True
            elif e1 > e2:
                if a1 // base ** (e1 - e2) != a2:
                    return None
                self_finer = True
            elif a1 != a2:
                return None
        if not self_finer:
            return other
        if not other_finer:
            return self
        exps, offs = [], []
        for e1, a1, e2, a2 in zip(self.exps, self.offs, other.exps, other.offs):
            exps.append(max(e1, e2))
            offs.append(a1 if e1 > e2 else a2)
        return Box(tuple(exps), tuple(offs))

    def inside(self, outer: "Box", base: int) -> "Box":
        """Transport a cell of the unit cube into ``outer``."""
        exps = tuple(eo + es for eo, es in zip(outer.exps, self.exps))
        offs = tuple(
            ao * base**es + a for ao, es, a in zip(outer.offs, self.exps, self.offs)
        )
        return Box(exps, offs)

    def rescale_from(self, outer: "Box", base: int) -> "Box":
        """View a subcell of ``outer`` in outer's own unit coordinates."""
        exps = tuple(es - eo for es, eo in zip(self.exps, outer.exps))
        offs = tuple(
            a - ao * base**e for a, ao, e in zip(self.offs, outer.offs, exps)
        )
        return Box(exps, offs)

    def __str__(self):
        return "b(" + ",".join(f"{e}:{a}" for e, a in zip(self.exps, self.offs)) + ")"


_BOX_RE = re.compile(r"^b\(([0-9:,\s]*)\)$")


def parse_box(text: str) -> Box:
    m = _BOX_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad box literal: {text!r}")
    exps, offs = [], []
    for pair in m.group(1).split(","):
        pieces = pair.split(":")
        if len(pieces) != 2:
            raise ParseError(f"bad box axis entry: {pair!r}")
        try:
            exps.append(int(pieces[0]))
            offs.append(int(pieces[1]))
        except ValueError:
            raise ParseError(f"bad box axis entry: {pair!r}") from None
    if sum(exps) > MAX_CELL_DEPTH:
        raise ParseError(f"box {text.strip()!r} is more than {MAX_CELL_DEPTH} cuts deep")
    return Box(tuple(exps), tuple(offs))


def _cell_keys(cells, base: int) -> list:
    """Integer sort keys for lexicographic cell order: the lower corner
    scaled to the finest exponent of each axis, then the exponents."""
    finest = [max(axis) for axis in zip(*(c.exps for c in cells))]
    return [
        (tuple(a * base ** (f - e) for a, e, f in zip(c.offs, c.exps, finest)), c.exps)
        for c in cells
    ]


def _sorted_order(cells, base: int) -> list[int]:
    """Positions of ``cells`` listed in lexicographic cell order."""
    keys = _cell_keys(cells, base)
    return sorted(range(len(cells)), key=keys.__getitem__)


def _sorted_cells(cells, base: int):
    cells = tuple(cells)
    return tuple(cells[i] for i in _sorted_order(cells, base))


@dataclass(frozen=True, slots=True)
class Operation:
    """One operad operation: an ordered cell partition of the unit cube.

    Trees demand left-to-right cell order (the planar tree is recoverable);
    cube patterns keep their sequence as given, so two orderings of the
    same cells are distinct operations related by an input permutation.
    ``rank`` is None when the cells are in lexicographic order, as for
    every tree operation; otherwise it sends each stored cell position to
    its sorted position.  It plays no part in equality.

    ``Operation(config, cells)`` is the boundary for untrusted cells and
    the only caller of the tiling check; it then shares the memo of
    ``_tiled``, which takes cells that tile by construction.  ``_sorted``
    takes cells that tile in sorted order by construction.
    """

    config: BackendConfig
    cells: tuple[Box, ...]
    rank: tuple[int, ...] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_tiling(self.config, self.cells)
        # the memo hands back the first equal cell tuple it saw, so equal
        # operations share their cells
        cells, rank = _validate_cells(self.config, self.cells)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "rank", rank)

    @classmethod
    def _tiled(cls, config: BackendConfig, cells: tuple[Box, ...]) -> "Operation":
        """An operation whose cells tile the unit cube by construction, in
        any order: a graft, a relative piece of a refinement or a nested
        literal.  Substituting tilings into tilings tiles again, so these
        skip the tiling check and go straight to the memo that
        ``Operation(config, cells)`` shares."""
        cells, rank = _validate_cells(config, cells)
        return cls._trusted(config, cells, rank)

    @classmethod
    def _sorted(cls, config: BackendConfig, cells: tuple[Box, ...]) -> "Operation":
        """An operation whose cells tile the unit cube in lexicographic
        order by construction: splits of the whole cube, the meets of two
        tilings or a sorted copy of a valid operation.  Only the cell
        count is checked: no tiling check, no sort and no memo key.  The
        caller answers for ``MAX_CELL_DEPTH``."""
        _check_count(cells)
        return cls._trusted(config, cells, None)

    @classmethod
    def _trusted(cls, config, cells, rank) -> "Operation":
        op = object.__new__(cls)
        object.__setattr__(op, "config", config)
        object.__setattr__(op, "cells", cells)
        object.__setattr__(op, "rank", rank)
        return op

    @property
    def arity(self) -> int:
        return len(self.cells)

    def is_identity(self) -> bool:
        return self.arity == 1

    def __str__(self):
        return format_operation(self)


@functools.lru_cache(maxsize=8192)
def _validate_cells(cfg: BackendConfig, cells) -> tuple[tuple, tuple | None]:
    """The cells and their ``Operation.rank``, for cells that tile the unit
    cube as ``cfg`` demands: the cell count and each cell's depth are
    checked, and equal cell tuples come back as the first one seen.  Tree
    cells reach it in order, so only cube cells are sorted."""
    # memoized: the same operation is rebuilt constantly by composition
    _check_count(cells)
    for c in cells:
        _check_depth(c)
    return cells, _rank(cells, cfg.base) if cfg.kind == DYADIC_CUBE else None


def _check_tiling(cfg: BackendConfig, cells) -> None:
    """Refuse given cells unless they tile the unit cube as ``cfg`` demands:
    they must come apart by the cut walk, and tree cells must be listed
    left to right.  The walk is complete on its own; the volume sum and
    the overlap scan run only on a rejected pattern, so that its error
    names the first fault in the order volume, overlap, cut structure,
    cell order."""
    base, dim = cfg.base, cfg.dim
    if not cells:
        raise NotPartitionError("an operation needs at least one cell")
    _check_count(cells)
    for c in cells:
        if c.dim != dim:
            raise NotPartitionError(f"cell {c} has dimension {c.dim}, expected {dim}")
        _check_depth(c)  # first: in_range computes base**e
        if not c.in_range(base):
            raise NotPartitionError(f"cell {c} lies outside the unit cube")
    if not _cuts_apart(cells, (0,) * dim, base):
        _check_volume_and_overlap(cells, base)
        # disjoint cells of total volume 1 tile the cube: not by cuts
        raise NotGuillotineError("no axis midplane is free of crossing cells")
    if cfg.kind == KARY_TREE and _rank(cells, base) is not None:
        raise NotPartitionError("tree cells must be listed left to right")


def _rank(cells, base: int) -> tuple[int, ...] | None:
    """``Operation.rank`` of cube cells that tile."""
    order = _sorted_order(cells, base)
    if order == list(range(len(order))):
        return None
    rank = [0] * len(order)
    for position, i in enumerate(order):
        rank[i] = position
    return tuple(rank)


def _check_count(cells) -> None:
    if len(cells) > MAX_OPERATION_CELLS:
        raise DepthError(f"{len(cells)} cells exceed the cap {MAX_OPERATION_CELLS}")


def _check_depth(cell: Box) -> None:
    depth = sum(cell.exps)
    if depth > MAX_CELL_DEPTH and min(cell.exps) >= 0:
        raise DepthError(f"cell depth {depth} exceeds the cap {MAX_CELL_DEPTH}")


def _heap_index(cell: Box, k: int) -> int:
    """The tree cell [a/k^e, (a+1)/k^e) as the integer k^e + a: the whole
    interval is 1, the children of h are k*h + t, and a deeper cell has a
    larger index."""
    return k ** cell.exps[0] + cell.offs[0]


def _check_volume_and_overlap(cells, base):
    """Name the fault of in-range cells that do not tile the unit cube: a
    total volume other than 1, else the first overlapping pair."""
    # in units of the deepest cell's volume base^-E, cell c has base^(E-|c|)
    depths = [sum(c.exps) for c in cells]
    E = max(depths)
    if sum(base ** (E - d) for d in depths) != base**E:
        raise NotPartitionError("cells do not have total volume 1")
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if cells[i].meet(cells[j], base) is not None:
                raise NotPartitionError(f"cells {cells[i]} and {cells[j]} overlap")


def _cuts_apart(cells, exps: tuple[int, ...], base: int) -> bool:
    """Whether cells inside a box with exponents ``exps`` arise from it by
    recursive cuts, each into ``base`` slices along one axis; trees are the
    one-axis case.  A box is cut along the first axis that every cell
    refines, which on a tiling loses nothing, since those cells never cross
    its slices.  Each cell goes to the slice it lies in, so a lone cell is
    its box exactly when their exponents agree."""
    if len(cells) == 1:
        return cells[0].exps == exps
    for axis, e in enumerate(exps):
        if all(c.exps[axis] > e for c in cells):
            slices = [[] for _ in range(base)]
            for c in cells:
                slices[c.offs[axis] // base ** (c.exps[axis] - e - 1) % base].append(c)
            inner = exps[:axis] + (e + 1,) + exps[axis + 1 :]
            return all(part and _cuts_apart(part, inner, base) for part in slices)
    return False


@functools.lru_cache(maxsize=256)
def op_identity(config: BackendConfig) -> Operation:
    """The whole cube as its one cell, trusted."""
    # memoized: without it, span_arith's op p50 read 1-2% worse in paired
    # runs on a 2-vCPU host
    return Operation._sorted(config, (Box.whole(config.dim),))


def op_generator(config: BackendConfig, axis: int = 0) -> Operation:
    """The basic split: k slices for trees, a halving of one axis for cubes,
    trusted, as the slices of the whole cube come out in order."""
    if not 0 <= axis < config.dim:
        raise SlotRangeError(f"axis {axis} out of range for {config}")
    whole = Box.whole(config.dim)
    cells = tuple(whole.child(axis, t, config.base) for t in range(config.base))
    return Operation._sorted(config, cells)


def op_subst(outer: Operation, inners) -> Operation:
    """Substitute one operation into every input slot of ``outer``.

    Cell order is the grafting order: outer's slots in sequence, each
    expanded to the transported cells of its inner operation.  Under the
    unit laws the result is an operand itself: the sole inner operation when
    ``outer`` is the identity, ``outer`` when every inner one is, and a slot
    whose inner operation has one cell keeps its own cell.  Grafting
    tilings into tilings tiles, so the result is built tiled: its memo
    finds the ``rank`` (the grafting order is seldom sorted on cubes),
    refuses a cell past ``MAX_CELL_DEPTH`` and shares equal cell tuples.
    """
    inners = tuple(inners)
    if len(inners) != outer.arity:
        raise SizeMismatchError(
            f"{len(inners)} operations substituted into arity {outer.arity}"
        )
    for inner in inners:
        if inner.config is not outer.config and inner.config != outer.config:
            raise BaseMismatchError("substitution across different backends")
    if outer.arity == 1:
        return inners[0]
    if all(inner.arity == 1 for inner in inners):
        return outer
    base = outer.config.base
    cells = []
    for slot_cell, inner in zip(outer.cells, inners):
        if inner.arity == 1:
            cells.append(slot_cell)
        else:
            cells.extend(c.inside(slot_cell, base) for c in inner.cells)
    return Operation._tiled(outer.config, tuple(cells))


def op_compose(outer: Operation, slot: int, inner: Operation) -> Operation:
    """Substitute ``inner`` into a single input slot of ``outer``."""
    if not 0 <= slot < outer.arity:
        raise SlotRangeError(f"slot {slot} out of range for arity {outer.arity}")
    inners = [op_identity(outer.config)] * outer.arity
    inners[slot] = inner
    return op_subst(outer, inners)


def op_comb(config: BackendConfig, gens: int, side: str = "left") -> Operation:
    """Iterated basic splits, always refining the first (or last) slot."""
    op = op_identity(config)
    for _ in range(gens):
        slot = 0 if side == "left" else op.arity - 1
        op = op_compose(op, slot, op_generator(config))
    return op


@functools.lru_cache(maxsize=8192)
def op_common_refinement(p: Operation, q: Operation):
    """Overlay of two partitions with the relative data on both sides.

    Returns (r, phi_p, phi_q, ranks_p, ranks_q): r's cells are the meets in
    lexicographic order, phi_p[i] is the refinement of p's cell i in its
    own coordinates, and ranks_p[i] holds the ranks in r of phi_p[i]'s
    cells, in phi_p[i]'s cell order; likewise for q.  Trees meet their
    cells in one left-to-right walk, which lists r in order, so their ranks
    run 0, 1, 2, ... across the cells; cubes meet every pair of cells and
    sort.

    The meets of two tilings tile, and they are listed sorted, so r is
    built trusted.  A cube meet can be deeper than both its cells, so r's
    cells are held to ``MAX_CELL_DEPTH`` here.  The meets inside one cell
    of p tile that cell, so each phi is built tiled: with no tiling check,
    but through the memo, which hands equal phis one shared cell tuple.
    Built without the memo, phis read ``cube_classes`` op p50 3-10% slower
    in paired runs on a 2-vCPU host and held more memory.
    """
    if p.config is not q.config and p.config != q.config:
        raise BaseMismatchError("refinement across different backends")
    config = p.config
    base = config.base
    if config.kind == KARY_TREE:
        met, parents = _tree_meets(p.cells, q.cells, base)
        order = range(len(met))
        r = Operation._sorted(config, tuple(met))
    else:
        met, parents = [], []
        for i, c1 in enumerate(p.cells):
            for j, c2 in enumerate(q.cells):
                m = c1.meet(c2, base)
                if m is not None:
                    met.append(m)
                    parents.append((i, j))
        order = _sorted_order(met, base)
        r = Operation._sorted(config, tuple(met[k] for k in order))
        for c in r.cells:
            _check_depth(c)
    unit = op_identity(config)

    def relative(op, side):
        # each cell of r lies in exactly one cell of op, its parent on this
        # side; walking r in order lists every parent's sub-cells in order
        subs = [[] for _ in op.cells]
        for rank, k in enumerate(order):
            subs[parents[k][side]].append(rank)
        phi = []
        for c, sub in zip(op.cells, subs):
            if len(sub) == 1:
                phi.append(unit)
            else:
                cells = tuple(r.cells[rank].rescale_from(c, base) for rank in sub)
                phi.append(Operation._tiled(config, cells))
        return tuple(phi), tuple(map(tuple, subs))

    phi_p, ranks_p = relative(p, 0)
    phi_q, ranks_q = relative(q, 1)
    return r, phi_p, phi_q, ranks_p, ranks_q


def _tree_meets(p_cells, q_cells, k: int):
    """The meets of two tree partitions in left-to-right order, each with
    the positions (i, j) of the cells it lies in.

    The current cells of the two sides always overlap, so one contains the
    other and the deeper one is their meet.  The walk advances the side
    whose cell ends first, and both when the cells end together.
    """
    finest = max(c.exps[0] for c in p_cells + q_cells)
    # right ends, scaled to the finest depth
    end_p = [(c.offs[0] + 1) * k ** (finest - c.exps[0]) for c in p_cells]
    end_q = [(c.offs[0] + 1) * k ** (finest - c.exps[0]) for c in q_cells]
    met, parents = [], []
    i = j = 0
    while i < len(p_cells):
        a, b = p_cells[i], q_cells[j]
        met.append(a if a.exps[0] >= b.exps[0] else b)
        parents.append((i, j))
        end_a, end_b = end_p[i], end_q[j]
        if end_a <= end_b:
            i += 1
        if end_b <= end_a:
            j += 1
    return met, parents


def cell_operation(config: BackendConfig, box: Box) -> Operation:
    """The smallest operation having ``box`` among its cells, trusted: the
    descent cuts the whole cube down to ``box``, and its cells are sorted
    once.  The depth cap is checked before ``in_range`` and the descent,
    which recurses once per cut."""
    base, dim = config.base, config.dim
    if box.dim != dim:
        raise NotPartitionError(f"cell {box} does not fit {config}")
    _check_depth(box)
    if not box.in_range(base):
        raise NotPartitionError(f"cell {box} does not fit {config}")

    def descend(cur):
        if cur == box:
            return [cur]
        # cur contains box, so some axis of box is cut deeper than cur's
        axis = next(a for a in range(dim) if box.exps[a] > cur.exps[a])
        digit = box.offs[axis] // base ** (box.exps[axis] - cur.exps[axis] - 1) % base
        cells = []
        for t in range(base):
            child = cur.child(axis, t, base)
            cells.extend(descend(child) if t == digit else [child])
        return cells

    cells = descend(Box.whole(dim))
    return Operation._sorted(config, _sorted_cells(cells, base))


def input_slots(arrow) -> list[tuple[int, int]]:
    """For each domain coordinate of an arrow, the pair (j, t): it feeds
    input t of the operation at codomain coordinate j.

    Duck-typed on (perm, forest), like ``realize``.
    """
    slots = [(j, t) for j, op in enumerate(arrow.forest) for t in range(len(op.cells))]
    return list(map(slots.__getitem__, arrow.perm.imgs))


def realize(arrow):
    """Geometric footprint of an arrow: for each domain coordinate, the pair
    (codomain coordinate, cell within it) that the coordinate occupies.

    Duck-typed on (perm, forest) so it can serve as an oracle for any layer.
    """
    forest = arrow.forest
    return tuple((j, forest[j].cells[t]) for j, t in input_slots(arrow))


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@functools.lru_cache(maxsize=8192)
def operations_with_gens(config: BackendConfig, gens: int) -> tuple[Operation, ...]:
    """All canonical operations with exactly the given generator count,
    trusted: each is the whole cube cut into ``base`` slices along one
    axis, the slices filled with operations of fewer generators.

    Each tree arises once, so trees keep this generation order.  A cube
    pattern arises once for every axis whose midplane no cell crosses, so
    cube shapes are deduplicated by their sorted cells and listed in
    lexicographic cell order across shapes.
    """
    if gens == 0:
        return (op_identity(config),)
    base, cube = config.base, config.kind == DYADIC_CUBE
    whole = Box.whole(config.dim)
    shapes = []
    for axis in range(config.dim):
        slices = [whole.child(axis, t, base) for t in range(base)]
        for split in _compositions(gens - 1, base):
            pools = [operations_with_gens(config, g) for g in split]
            for parts in itertools.product(*pools):
                shapes.append(
                    tuple(c.inside(s, base) for s, op in zip(slices, parts) for c in op.cells)
                )
    if cube:

        def key(shape):
            # no exponent of a shape cut gens times exceeds gens, so a lower
            # corner a/2^e scales exactly to the integer a * 2^(gens - e)
            return [
                (tuple(a << (gens - e) for e, a in zip(c.exps, c.offs)), c.exps)
                for c in shape
            ]

        shapes = sorted({_sorted_cells(cells, base) for cells in shapes}, key=key)
    return tuple(Operation._sorted(config, cells) for cells in shapes)


def operations_up_to(config: BackendConfig, max_gens: int) -> tuple[Operation, ...]:
    out = []
    for g in range(max_gens + 1):
        out.extend(operations_with_gens(config, g))
    return tuple(out)


def forests_up_to(config: BackendConfig, coords: int, max_gens: int):
    """All forests (one operation per coordinate) within a generator budget."""
    if coords < 0:
        raise LengthError(f"a word of length {coords} has no forests")
    if coords == 0:
        yield ()
        return
    for total in range(max_gens + 1):
        for split in _compositions(total, coords):
            pools = [operations_with_gens(config, g) for g in split]
            yield from itertools.product(*pools)


def standard_cells(config: BackendConfig, max_depth: int) -> tuple[Box, ...]:
    """All cells whose total exponent (cut count to isolate) is at most the bound."""
    base, dim = config.base, config.dim
    cells = []
    for exps in _compositions_up_to(max_depth, dim):
        ranges = [range(base**e) for e in exps]
        for offs in itertools.product(*ranges):
            cells.append(Box(exps, offs))
    return _sorted_cells(cells, base)


def _compositions_up_to(bound: int, parts: int):
    for total in range(bound + 1):
        yield from _compositions(total, parts)


# a digit run (a cut axis) or any other single character but whitespace
_NESTED_TOKEN_RE = re.compile(r"\d+|\S")


def _parse_nested(text: str, config: BackendConfig) -> Operation:
    """Read a tree literal, or a cube's cut-tree literal, building cells as
    it reads: ``.`` is the current box, a tree node ``( ... )`` cuts it into
    k slices along axis 0, and a cut node ``[axis low high]`` halves it
    along the axis.  The axis is range-checked as it is read and the depth
    cap at each opener, so a refused literal costs no deeper descent.  A
    cube's cells are sorted afterwards; a tree's come out left to right.
    The grammar admits only tilings, so the result is built tiled: the
    memo checks its cell count and shares equal cell tuples."""
    tokens = iter(_NESTED_TOKEN_RE.findall(text))
    opener, closer = ("(", ")") if config.kind == KARY_TREE else ("[", "]")
    base, dim = config.base, config.dim
    cells = []

    def read(box, depth):
        tok = next(tokens, None)
        if tok == ".":
            cells.append(box)
            return
        if tok != opener:
            if tok is None:
                raise ParseError(f"truncated literal: {text!r}")
            raise ParseError(f"unexpected token {tok!r} in {config} literal")
        if depth == MAX_CELL_DEPTH:
            raise ParseError(f"literal nested more than {MAX_CELL_DEPTH} levels deep")
        axis = 0
        if opener == "[":
            tok = next(tokens, "")
            if not tok.isdecimal():
                raise ParseError(f"expected cut axis, got {tok!r}")
            axis = _parse_int(tok, "cut axis")
            if axis >= dim:
                raise ParseError(f"cut axis {axis} out of range for {config}")
        for digit in range(base):
            read(box.child(axis, digit, base), depth + 1)
        if next(tokens, None) != closer:
            raise ParseError(f"expected {base} children per node in {text!r}")

    read(Box.whole(dim), 0)
    if next(tokens, None) is not None:
        raise ParseError(f"trailing tokens in literal: {text!r}")
    if config.kind == DYADIC_CUBE and len(cells) > 1:
        cells = _sorted_cells(cells, 2)
    return Operation._tiled(config, tuple(cells))


def _format_tree(op: Operation) -> str:
    """The tree literal, in one left-to-right walk over the cells' heap
    indices: ``todo`` holds what is still to print, the next item last; an
    index is a subtree, a string is printed as it is."""
    k = op.config.size
    out, todo = [], [1]
    for cell in op.cells:
        h, t = _heap_index(cell, k), todo.pop()
        while type(t) is str:
            out.append(t)
            t = todo.pop()
        while t < h:  # the cell lies at the left end of t: split t
            out.append("(")
            t *= k
            todo.append(")")
            for sibling in range(t + k - 1, t, -1):
                todo += (sibling, " ")
        out.append(".")
    out.extend(reversed(todo))
    return "".join(out)


def split_top_level(text: str, sep: str) -> list[str]:
    """Split on a separator character, ignoring occurrences nested in
    parentheses, brackets, or braces."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif ch == sep and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    pieces.append(text[start:])
    return pieces


def _parse_pattern(text: str, config: BackendConfig) -> Operation:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError(f"bad pattern literal: {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        raise ParseError("a pattern needs at least one box")
    boxes = [parse_box(chunk) for chunk in split_top_level(inner, ",")]
    return Operation(config, tuple(boxes))


def parse_operation(text: str, config: BackendConfig) -> Operation:
    """A cube pattern ``{b(...),...}``, else a tree or cut-tree literal."""
    t = text.strip()
    if config.kind == DYADIC_CUBE and t.startswith("{"):
        return _parse_pattern(t, config)
    return _parse_nested(t, config)


def format_operation(op: Operation) -> str:
    if op.config.kind == KARY_TREE:
        return _format_tree(op)
    if op.is_identity():
        return "."
    return "{" + ",".join(str(c) for c in op.cells) + "}"
