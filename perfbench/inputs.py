"""Seeded random inputs, built as plain tuples and written as the
program's text literals, so the program sees only generated text."""

from __future__ import annotations

import random
from bisect import bisect_right

from perfbench.oracle import children


def random_op(rng: random.Random, backend, gens: int):
    """Cells of an operation grown by ``gens`` random basic cuts, kept in
    left-to-right order for trees."""
    cells = [backend.whole]
    for _ in range(gens):
        i = rng.randrange(len(cells))
        cells[i : i + 1] = children(cells[i], rng.randrange(backend.dim), backend.base)
    return tuple(cells)


def random_arrow(rng: random.Random, backend, coords: int, gens: int):
    split = [0] * coords
    for _ in range(gens):
        split[rng.randrange(coords)] += 1
    forest = tuple(random_op(rng, backend, g) for g in split)
    perm = list(range(sum(len(op) for op in forest)))
    if not backend.planar:
        rng.shuffle(perm)
    return tuple(perm), forest


def random_span(rng: random.Random, backend, coords: int, gens: int):
    """Equal cut counts keep the two legs' domains the same length."""
    return random_arrow(rng, backend, coords, gens), random_arrow(rng, backend, coords, gens)


def random_marking(rng: random.Random, size: int, symbols: int, full: bool):
    names = "abcdefgh"[:symbols]
    if not full:
        names += "-"
    return tuple(None if s == "-" else s for s in (rng.choice(names) for _ in range(size)))


def refine_arrow(arrow, i: int, axis: int, base: int):
    """Split domain coordinate i's cell; the new pieces become domain
    coordinates appended at the end, in cell order."""
    perm, forest = arrow
    starts = [0]
    for op in forest:
        starts.append(starts[-1] + len(op))
    p = perm[i]
    j = bisect_right(starts, p) - 1
    t = p - starts[j]
    op = forest[j]
    new_op = op[:t] + tuple(children(op[t], axis, base)) + op[t + 1 :]
    extra = base - 1
    new_perm = tuple(q + extra if q > p else q for q in perm) + tuple(p + 1 + r for r in range(extra))
    return new_perm, forest[:j] + (new_op,) + forest[j + 1 :]


def refine_span(span, i: int, axis: int, base: int):
    """Another representative of the same element."""
    return tuple(refine_arrow(leg, i, axis, base) for leg in span)


def refine_marked(marked, i: int, axis: int, base: int):
    """Another representative of the same class."""
    arrow, marking = marked
    return refine_arrow(arrow, i, axis, base), marking + (marking[i],) * (base - 1)
