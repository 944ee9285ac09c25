"""Finite permutations in one-line image notation.

A permutation on n points is stored as the tuple ``imgs`` with
``imgs[i] = sigma(i)``.  Products are diagrammatic throughout the package:
``(p * q)(i) == q(p(i))``, i.e. apply ``p`` first.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass

from .errors import ParseError, SizeMismatchError


@dataclass(frozen=True, slots=True)
class Permutation:
    imgs: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.imgs) != list(range(len(self.imgs))):
            raise ParseError(f"not a permutation of 0..{len(self.imgs) - 1}: {self.imgs}")

    @classmethod
    def _trusted(cls, imgs: tuple[int, ...]) -> "Permutation":
        """A permutation whose images the package derived from valid ones
        (a product, an inverse, a rank or a block layout): no check."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "imgs", imgs)
        return perm

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.imgs)

    def __call__(self, i: int) -> int:
        return self.imgs[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Diagrammatic product: self first, then other."""
        if other.degree != self.degree:
            raise SizeMismatchError(f"degree {self.degree} vs {other.degree}")
        return Permutation._trusted(tuple(map(other.imgs.__getitem__, self.imgs)))

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for i, v in enumerate(self.imgs):
            out[v] = i
        return Permutation._trusted(tuple(out))

    def is_identity(self) -> bool:
        return self.imgs == tuple(range(len(self.imgs)))

    def permute(self, items):
        """Scatter ``items`` so that entry i lands in position sigma(i)."""
        if len(items) != self.degree:
            raise SizeMismatchError(f"{len(items)} items under degree-{self.degree} permutation")
        out = [None] * self.degree
        for i, item in zip(self.imgs, items):
            out[i] = item
        return type(items)(out)

    def __str__(self):
        return "p[" + ",".join(str(v) for v in self.imgs) + "]"


def block_starts(sizes) -> list[int]:
    """Cumulative offsets of consecutive blocks of the given sizes."""
    return list(accumulate(sizes, initial=0))


def locate_block(starts: list[int], pos: int) -> tuple[int, int]:
    """Return (block index, offset inside block) for a flat position."""
    j = bisect_right(starts, pos) - 1
    return j, pos - starts[j]


_PERM_RE = re.compile(r"^p\[([0-9,\s]*)\]$")


def parse_permutation(text: str) -> Permutation:
    m = _PERM_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad permutation literal: {text!r}")
    body = m.group(1).strip()
    try:
        imgs = tuple(int(tok) for tok in body.split(",")) if body else ()
    except ValueError:
        raise ParseError(f"bad permutation literal: {text!r}") from None
    return Permutation(imgs)
