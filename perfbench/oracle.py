"""Independent geometry for checking operad_groups results.

Nothing here calls into operad_groups.  Objects arrive as plain tuples
parsed from the program's printed literals (``parse_span`` and friends,
written from the README's grammar), and every verdict is re-derived from
the geometry of standard cells:

* a cell is ``(exps, offs)``; per axis i it is the half-open interval
  [offs[i] / b**exps[i], (offs[i] + 1) / b**exps[i]) of the unit cube;
* an arrow ``(perm, forest)`` sends domain coordinate i to the cell at flat
  position ``perm[i]`` of its forest (cells in stored order, operations
  side by side), as the README's grammar describes;
* a span ``den | num`` realizes the piecewise-affine map sending each
  domain coordinate's denominator cell onto its numerator cell, and a
  product realizes the left factor first (the order ``spans.py`` documents);
* a marked arrow labels each realized cell with its coordinate's symbol.

Maps are compared exactly: every piece is an increasing per-axis affine
map, so it is determined by the cell it sends a cell to.  Where a piece
straddles breakpoints of another map, the cell is halved until it does not.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_right
from fractions import Fraction


class Backend:
    """``tree:k=N`` (base N, one axis) or ``cube:d=N`` (base 2, N axes)."""

    def __init__(self, kind: str, size: int, planar: bool = False):
        self.kind, self.size, self.planar = kind, size, planar
        self.base = size if kind == "tree" else 2
        self.dim = 1 if kind == "tree" else size

    @property
    def whole(self):
        return ((0,) * self.dim, (0,) * self.dim)



# ---------------------------------------------------------------- cells


def contains(outer, inner, base) -> bool:
    for eo, oo, ei, oi in zip(outer[0], outer[1], inner[0], inner[1]):
        if ei < eo or oi // base ** (ei - eo) != oo:
            return False
    return True


def meets(a, b, base) -> bool:
    for ea, oa, eb, ob in zip(a[0], a[1], b[0], b[1]):
        if ea <= eb:
            if ob // base ** (eb - ea) != oa:
                return False
        elif oa // base ** (ea - eb) != ob:
            return False
    return True


def children(cell, axis, base):
    exps = cell[0][:axis] + (cell[0][axis] + 1,) + cell[0][axis + 1 :]
    return [
        (exps, cell[1][:axis] + (cell[1][axis] * base + t,) + cell[1][axis + 1 :])
        for t in range(base)
    ]


def transport(cell, src, dst, base):
    """The cell that ``cell`` (inside ``src``) becomes when ``src`` is
    mapped affinely onto ``dst``."""
    exps, offs = [], []
    for e, o, es, os_, ed, od in zip(cell[0], cell[1], src[0], src[1], dst[0], dst[1]):
        rel = e - es
        exps.append(ed + rel)
        offs.append(od * base**rel + o - os_ * base**rel)
    return tuple(exps), tuple(offs)


def volume(cell, base) -> Fraction:
    return Fraction(1, base ** sum(cell[0]))


def hull(cells, base):
    """The smallest standard cell containing every given cell."""
    exps, offs = [], []
    for axis in range(len(cells[0][0])):
        e = min(c[0][axis] for c in cells)
        tops = {c[1][axis] // base ** (c[0][axis] - e) for c in cells}
        while len(tops) > 1:
            e -= 1
            tops = {t // base for t in tops}
        exps.append(e)
        offs.append(tops.pop())
    return tuple(exps), tuple(offs)


def is_tiling(cells, base) -> bool:
    """Cells of one coordinate are disjoint and fill the unit cube."""
    if sum(volume(c, base) for c in cells) != 1:
        return False
    return not any(meets(a, b, base) for a, b in itertools.combinations(cells, 2))


# ------------------------------------------------------------- arrows


def realize(arrow):
    """(codomain coordinate, cell) of each domain coordinate."""
    perm, forest = arrow
    starts = [0]
    for op in forest:
        starts.append(starts[-1] + len(op))
    out = []
    for p in perm:
        j = bisect_right(starts, p) - 1
        out.append((j, forest[j][p - starts[j]]))
    return out


def arrow_is_valid(arrow, base) -> bool:
    perm, forest = arrow
    arity = sum(len(op) for op in forest)
    return sorted(perm) == list(range(arity)) and all(is_tiling(op, base) for op in forest)


class PLMap:
    """A piecewise-affine self-map of a row of unit cubes: pieces
    (coordinate, cell) -> (coordinate, cell) whose sources tile the row."""

    def __init__(self, pieces, base):
        self.pieces = tuple(pieces)
        self.base = base
        self._by_coord = {}
        for piece in self.pieces:
            self._by_coord.setdefault(piece[0], []).append(piece)

    def apply(self, j, cell):
        """[(part of cell, image coordinate, image cell)], halving the cell
        where it straddles pieces."""
        base = self.base
        out = []
        stack = [(cell, self._by_coord.get(j, ()))]
        while stack:
            c, candidates = stack.pop()
            candidates = [p for p in candidates if meets(p[1], c, base)]
            if not candidates:
                raise ValueError(f"cell {c} of coordinate {j} is not covered")
            for _, src, jn, dst in candidates:
                if contains(src, c, base):
                    out.append((c, jn, transport(c, src, dst, base)))
                    break
            else:
                src = candidates[0][1]
                axis = next(a for a in range(len(c[0])) if src[0][a] > c[0][a])
                stack.extend((child, candidates) for child in reversed(children(c, axis, base)))
        return out

    def then(self, other: "PLMap") -> "PLMap":
        """This map first, then ``other``."""
        pieces = []
        for jd, src, jn, dst in self.pieces:
            for part, j2, img in other.apply(jn, dst):
                pieces.append((jd, transport(part, dst, src, self.base), j2, img))
        return PLMap(pieces, self.base)

    def inverse(self) -> "PLMap":
        return PLMap(((jn, dst, jd, src) for jd, src, jn, dst in self.pieces), self.base)

    def is_identity(self) -> bool:
        return all(jd == jn and src == dst for jd, src, jn, dst in self.pieces)

    def equals(self, other: "PLMap") -> bool:
        return self.then(other.inverse()).is_identity()

    def power(self, n: int) -> "PLMap":
        acc = self
        for _ in range(n - 1):
            acc = acc.then(self)
        return acc

    def order(self, max_n: int):
        """Least n <= max_n with self**n the identity, else None."""
        acc = self
        for n in range(1, max_n + 1):
            if acc.is_identity():
                return n
            acc = acc.then(self)
        return None


def span_map(span, base) -> PLMap:
    den, num = span
    return PLMap(
        ((jd, cd, jn, cn) for (jd, cd), (jn, cn) in zip(realize(den), realize(num))),
        base,
    )


def span_is_valid(span, base) -> bool:
    den, num = span
    return (
        len(den[0]) == len(num[0])
        and len(den[1]) == len(num[1])
        and arrow_is_valid(den, base)
        and arrow_is_valid(num, base)
    )


# --------------------------------------------------- marked subdivisions


def tiles(marked):
    """(coordinate, cell, symbol) for each realized cell of a marked arrow."""
    arrow, marking = marked
    return [(j, cell, s) for (j, cell), s in zip(realize(arrow), marking)]


def act_tiles(g: PLMap, marked_tiles):
    """Regions moved by the left action of a span: ``act(gh, S) = act(g,
    act(h, S))`` holds with realized maps composed left factor first, so
    g carries each region along the inverse of its realized map."""
    inv = g.inverse()
    return [(j2, img, s) for j, cell, s in marked_tiles for _, j2, img in inv.apply(j, cell)]


def _split_axis(cell):
    exps = cell[0]
    return min(range(len(exps)), key=lambda a: (exps[a], a))


def class_key(marked_tiles, coords: int, backend: Backend):
    """Canonical key of a labelled row: per coordinate, the trie of maximal
    uniformly labelled cells under a fixed halving order, with symbols
    renamed by first occurrence.  Two marked arrows get the same key
    exactly when they mark the same regions up to renaming of symbols."""
    base = backend.base
    names: dict = {}
    by_coord = {j: [] for j in range(coords)}
    for j, cell, s in marked_tiles:
        by_coord[j].append((cell, s))

    def node(cell, items):
        items = [it for it in items if meets(it[0], cell, base)]
        labels = {s for _, s in items}
        if not items:
            raise ValueError(f"cell {cell} is not covered")
        if len(labels) == 1:
            s = labels.pop()
            return ("leaf", None if s is None else names.setdefault(s, len(names)))
        return tuple(node(child, items) for child in children(cell, _split_axis(cell), base))

    return tuple(node(backend.whole, by_coord[j]) for j in range(coords))


def region_pairs(p_tiles, q_tiles, coords: int, backend: Backend):
    """Pairs (p symbol, q symbol) that share a region of positive volume."""
    base = backend.base
    pairs = set()

    def walk(cell, ps, qs):
        ps = [t for t in ps if meets(t[1], cell, base)]
        qs = [t for t in qs if meets(t[1], cell, base)]
        sp, sq = {t[2] for t in ps}, {t[2] for t in qs}
        if len(sp) == 1 and len(sq) == 1:
            pairs.add((sp.pop(), sq.pop()))
            return
        for child in children(cell, _split_axis(cell), base):
            walk(child, ps, qs)

    for j in range(coords):
        walk(backend.whole, [t for t in p_tiles if t[0] == j], [t for t in q_tiles if t[0] == j])
    return pairs


def refines(p_tiles, q_tiles, coords: int, backend: Backend) -> bool:
    """The containment preorder: every marked region of p lies inside a
    single marked region of q."""
    targets: dict = {}
    for sp, sq in region_pairs(p_tiles, q_tiles, coords, backend):
        if sp is not None:
            targets.setdefault(sp, set()).add(sq)
    return all(len(t) == 1 and None not in t for t in targets.values())


def ball_cell(marked_tiles, backend: Backend):
    """(coordinate, cell) when the marked region is one standard cell,
    else None."""
    marked = [(j, c) for j, c, s in marked_tiles if s is not None]
    if not marked or len({j for j, _ in marked}) != 1 or len({s for *_, s in marked_tiles} - {None}) != 1:
        return None
    cells = [c for _, c in marked]
    h = hull(cells, backend.base)
    if sum(volume(c, backend.base) for c in cells) != volume(h, backend.base):
        return None
    return marked[0][0], h


# ------------------------------------------------------ enumeration


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def operations(backend: Backend, gens: int):
    """Every operation with the given number of basic cuts, as a tuple of
    cells in left-to-right (trees) or sorted (cubes) order."""
    base, whole = backend.base, backend.whole
    shapes = {frozenset([whole])}
    for _ in range(gens):
        grown = set()
        for shape in shapes:
            for cell in shape:
                for axis in range(backend.dim):
                    grown.add((shape - {cell}) | frozenset(children(cell, axis, base)))
        shapes = grown
    key = lambda c: (tuple(Fraction(o, base**e) for e, o in zip(*c)), c[0])
    return sorted((tuple(sorted(s, key=key)) for s in shapes), key=lambda cs: [key(c) for c in cs])


def forests(backend: Backend, coords: int, max_gens: int):
    pools = {g: operations(backend, g) for g in range(max_gens + 1)}
    for total in range(max_gens + 1):
        for split in _compositions(total, coords):
            yield from itertools.product(*(pools[g] for g in split))


def set_partitions(n: int):
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        used = max(rest) + 1 if rest else 0
        for s in range(used + 1):
            yield rest + (s,)


def ordered_partitions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in ordered_partitions(n - first):
            yield (0,) * first + tuple(s + 1 for s in rest)


def n_condition(marking, backend: Backend, y: int, n: int) -> bool:
    """At least n symbols cover a word object-equivalent to y."""
    sizes = [marking.count(s) for s in set(marking)]
    if backend.kind == "tree":
        hits = sum(1 for c in sizes if (c - y) % (backend.size - 1) == 0)
    else:
        hits = len(sizes)
    return hits >= n


def partition_classes(backend: Backend, base_len: int, depth: int, y: int, n: int):
    """Class keys of every partition meeting the n-condition within the
    generator budget: what ``partition list`` must print, one per class."""
    keys = set()
    for forest in forests(backend, base_len, depth):
        arrow = (tuple(range(sum(len(op) for op in forest))), forest)
        arity = len(arrow[0])
        markings = ordered_partitions(arity) if backend.planar else set_partitions(arity)
        for marking in markings:
            if n_condition(marking, backend, y, n):
                keys.add(class_key(tiles((arrow, marking)), base_len, backend))
    return keys


# ---------------------------------------------------- closed-form counts


def fuss_catalan(k: int, g: int) -> int:
    """Number of k-ary trees with g internal nodes."""
    return math.comb(k * g, g) // ((k - 1) * g + 1)


def forest_count(k: int, coords: int, max_gens: int) -> int:
    """F(m, depth): k-ary forests on m roots with at most max_gens nodes."""
    return sum(
        math.prod(fuss_catalan(k, g) for g in split)
        for total in range(max_gens + 1)
        for split in _compositions(total, coords)
    )


def sweep_rows(k: int, max_perm: int, depth: int) -> int:
    """Rows of ``cert sigma`` and ``cert freeaction`` on tree:k=N."""
    return sum((math.factorial(m) - 1) * forest_count(k, m, depth) for m in range(2, max_perm + 1))


def pingpong_rows(backend: Backend, depth: int) -> int:
    """Three rows per standard cell of depth <= bound inside one half-ball."""
    inside = sum(
        backend.base ** (sum(exps) - 1)
        for exps in itertools.product(range(depth + 1), repeat=backend.dim)
        if exps[0] >= 1 and sum(exps) <= depth
    )
    return 3 * inside


def alternating_rows(max_len: int) -> int:
    return sum(2 ** (L // 2) + 2 ** ((L + 1) // 2) for L in range(1, max_len + 1))


# ------------------------------------------------------ text literals


def split_top(text: str, sep: str):
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


def parse_perm(text: str):
    m = re.fullmatch(r"\s*p\[([0-9,\s]*)\]\s*", text)
    if not m:
        raise ValueError(f"bad permutation {text!r}")
    body = m.group(1).strip()
    return tuple(int(t) for t in body.split(",")) if body else ()


def parse_cell(text: str):
    m = re.fullmatch(r"\s*b\(([0-9:,\s]*)\)\s*", text)
    if not m:
        raise ValueError(f"bad cell {text!r}")
    pairs = [tuple(int(v) for v in pair.split(":")) for pair in m.group(1).split(",")]
    return tuple(e for e, _ in pairs), tuple(o for _, o in pairs)


def parse_tree(text: str, k: int):
    """Cells of a k-ary tree literal, left to right (iterative)."""
    cells, stack = [], []
    expect = ((0,), (0,))
    for tok in re.findall(r"\S", text):
        if expect is None and tok != ")":
            raise ValueError(f"too many children in {text!r}")
        if tok == "(":
            stack.append([expect, 0])
            expect = children(expect, 0, k)[0]
            continue
        if tok == ".":
            cells.append(expect)
        elif tok == ")":
            if not stack or stack[-1][1] != k:
                raise ValueError(f"unbalanced tree literal {text!r}")
            stack.pop()
        else:
            raise ValueError(f"bad token {tok!r} in {text!r}")
        if stack:
            stack[-1][1] += 1
            node, seen = stack[-1]
            expect = children(node, 0, k)[seen] if seen < k else None
        else:
            expect = None
    if stack or not cells:
        raise ValueError(f"truncated tree literal {text!r}")
    return tuple(cells)


def parse_op(text: str, backend: Backend):
    t = text.strip()
    if backend.kind == "tree":
        return parse_tree(t, backend.size)
    if t == ".":
        return (backend.whole,)
    if t.startswith("{") and t.endswith("}"):
        return tuple(parse_cell(c) for c in split_top(t[1:-1], ","))
    raise ValueError(f"bad cube operation {text!r}")


def parse_arrow(text: str, backend: Backend):
    t = text.strip()
    perm = None
    if ";" in t:
        head, _, t = t.partition(";")
        perm = parse_perm(head)
        t = t.strip()
    forest = tuple(parse_op(c, backend) for c in split_top(t, ",")) if t else ()
    if perm is None:
        perm = tuple(range(sum(len(op) for op in forest)))
    return perm, forest


def parse_span(text: str, backend: Backend):
    parts = split_top(text, "|")
    if len(parts) != 2:
        raise ValueError(f"bad span {text!r}")
    return parse_arrow(parts[0], backend), parse_arrow(parts[1], backend)


def parse_marking(text: str):
    m = re.fullmatch(r"\s*m\[(.*)\]\s*", text)
    if not m:
        raise ValueError(f"bad marking {text!r}")
    entries = [chunk.partition(":") for chunk in m.group(1).split()]
    if [int(i) for i, _, _ in entries] != list(range(len(entries))):
        raise ValueError(f"bad marking {text!r}")
    return tuple(None if s == "-" else s for _, _, s in entries)


def parse_marked(text: str, backend: Backend):
    parts = split_top(text, "@")
    if len(parts) != 2:
        raise ValueError(f"bad marked arrow {text!r}")
    return parse_arrow(parts[0], backend), parse_marking(parts[1])


def format_cell(cell) -> str:
    return "b(" + ",".join(f"{e}:{o}" for e, o in zip(*cell)) + ")"


def format_tree(cells, k: int) -> str:
    def rec(cells, node):
        if len(cells) == 1 and cells[0] == node:
            return "."
        kids = children(node, 0, k)
        groups = [[c for c in cells if contains(kid, c, k)] for kid in kids]
        return "(" + " ".join(rec(g, kid) for g, kid in zip(groups, kids)) + ")"

    return rec(list(cells), ((0,), (0,)))


def format_op(cells, backend: Backend) -> str:
    if backend.kind == "tree":
        return format_tree(cells, backend.size)
    if len(cells) == 1:
        return "."
    return "{" + ",".join(format_cell(c) for c in cells) + "}"


def format_arrow(arrow, backend: Backend) -> str:
    perm, forest = arrow
    ops = " , ".join(format_op(op, backend) for op in forest)
    if perm == tuple(range(len(perm))) and forest:
        return ops
    return f"p[{','.join(map(str, perm))}] ; {ops}"


def format_span(span, backend: Backend) -> str:
    return f"{format_arrow(span[0], backend)} | {format_arrow(span[1], backend)}"


def format_marked(marked, backend: Backend) -> str:
    arrow, marking = marked
    body = " ".join(f"{i}:{'-' if s is None else s}" for i, s in enumerate(marking))
    return f"{format_arrow(arrow, backend)} @ m[{body}]"
