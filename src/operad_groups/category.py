"""Arrows of the groupoid-of-fractions substrate.

An arrow from the word X^n to the word X^m is a permutation of the n
domain coordinates followed by a forest of m operations whose arities sum
to n.  This normal form is unique once the forest operations are canonical
(lexicographic cell order), so arrow equality is plain structural equality
and the square-filling calculus below is completely deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .backend import (
    BackendConfig,
    Operation,
    PLANAR,
    input_slots,
    op_common_refinement,
    op_identity,
    op_sorted_with_rank,
    op_subst,
    parse_operation,
    realize,
    split_top_level,
)
from .errors import (
    CodomainMismatchError,
    DomainMismatchError,
    FlavorError,
    NotFillingsError,
    ParseError,
    SizeMismatchError,
)
from .perms import Permutation, block_starts, parse_permutation

__all__ = [
    "Arrow",
    "arrow_eq",
    "combine_fillings",
    "compose",
    "format_arrow",
    "parse_arrow",
    "perm_arrow",
    "push_perm",
    "square_fill",
    "tensor",
    "realize",
    "Permutation",
]


@dataclass(frozen=True, slots=True)
class Arrow:
    """Zappa-Szep normal form: apply ``perm``, then collapse by ``forest``.

    The constructor canonicalizes: any forest operation stored with cells
    out of lexicographic order (``op.canonical`` false) is sorted, and the
    correcting block permutation is absorbed into ``perm``.  Planar arrows
    must come out with the identity permutation; anything else is a
    construction bug.

    The hash is the structural one, computed on first use and kept in
    ``_hash``: arrows are the keys of the ``square_fill`` memo and of
    ``check_filtered``'s bounds, and each lookup would otherwise rehash
    every operation, cell and permutation inside.  ``_hash`` plays no part
    in equality or repr.
    """

    config: BackendConfig
    perm: Permutation
    forest: tuple[Operation, ...] = field(default=())
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        config = self.config
        arity, canonical = 0, True
        for op in self.forest:
            if op.config is not config and op.config != config:
                raise DomainMismatchError("forest operation from a different backend")
            arity += len(op.cells)
            canonical = canonical and op.canonical
        if len(self.perm.imgs) != arity:
            raise SizeMismatchError(
                f"permutation degree {self.perm.degree} vs forest arity {arity}"
            )
        if not canonical:
            # sort each operation and absorb the rank corrections into perm
            canon, imgs = [], []
            for op in self.forest:
                sorted_op, rank = op_sorted_with_rank(op)
                canon.append(sorted_op)
                start = len(imgs)
                imgs.extend(start + v for v in rank.imgs)
            object.__setattr__(self, "forest", tuple(canon))
            object.__setattr__(self, "perm", self.perm * Permutation._trusted(tuple(imgs)))
        if self.config.flavor == PLANAR and not self.perm.is_identity():
            raise FlavorError("planar arrows take the identity permutation")

    @classmethod
    def identity(cls, config: BackendConfig, n: int) -> "Arrow":
        return cls(config, Permutation.identity(n), (op_identity(config),) * n)

    @classmethod
    def from_forest(cls, config: BackendConfig, forest) -> "Arrow":
        forest = tuple(forest)
        n = sum(op.arity for op in forest)
        return cls(config, Permutation.identity(n), forest)

    @property
    def domain_len(self) -> int:
        return self.perm.degree

    @property
    def codomain_len(self) -> int:
        return len(self.forest)

    def is_permutation(self) -> bool:
        """Every forest operation has one cell: the arrow only permutes.
        Operations are never empty, so the arity sum equals the forest
        length exactly in this case."""
        return len(self.perm.imgs) == len(self.forest)

    def is_identity(self) -> bool:
        return self.is_permutation() and self.perm.is_identity()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.config, self.perm, self.forest))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return format_arrow(self)


def perm_arrow(config: BackendConfig, perm: Permutation) -> Arrow:
    return Arrow(config, perm, (op_identity(config),) * perm.degree)


def push_perm(forest, tau: Permutation):
    """Slide a codomain permutation backward across a forest.

    Returns (tau_hat, forest_hat): the block permutation moving each
    operation's contiguous input run to its new position, and the forest
    scattered by tau, so that (id, forest) followed by (tau, ids) equals
    (tau_hat, forest_hat).
    """
    forest = tuple(forest)
    if len(forest) != tau.degree:
        raise SizeMismatchError(
            f"forest of {len(forest)} operations under degree-{tau.degree} permutation"
        )
    forest_hat = tau.permute(forest)
    starts = block_starts([len(op.cells) for op in forest_hat])
    imgs = []
    for j in tau.imgs:
        imgs.extend(range(starts[j], starts[j + 1]))
    return Permutation._trusted(tuple(imgs)), forest_hat


def compose(a: Arrow, b: Arrow) -> Arrow:
    """Diagrammatic composite: first ``a``, then ``b``.

    A permutation arrow on either side is answered by ``op_subst``'s unit
    laws without grafting.  If ``a`` only permutes, its forest holds
    identities: pushing ``b.perm`` across them gives ``b.perm`` itself and
    identities again, and substituting identities into ``b``'s operations
    returns them unchanged, so the composite is (a.perm * b.perm, b.forest).
    If ``b`` only permutes, each of its operations is an identity, and
    substituting one operation into an identity returns that operation, so
    the composite is (a.perm * tau_hat, forest_hat) straight from
    ``push_perm``.  Both forests are canonical already.
    """
    if a.config is not b.config and a.config != b.config:
        raise DomainMismatchError("composition across different backends")
    if a.codomain_len != b.domain_len:
        raise DomainMismatchError(
            f"codomain length {a.codomain_len} does not match domain length {b.domain_len}"
        )
    if a.is_permutation():
        return Arrow(a.config, a.perm * b.perm, b.forest)
    tau_hat, forest_hat = push_perm(a.forest, b.perm)
    if b.is_permutation():
        return Arrow(a.config, a.perm * tau_hat, forest_hat)
    starts = block_starts([len(op.cells) for op in b.forest])
    grafted = tuple(
        op_subst(op, forest_hat[starts[u] : starts[u + 1]])
        for u, op in enumerate(b.forest)
    )
    return Arrow(a.config, a.perm * tau_hat, grafted)


def tensor(a: Arrow, *rest: Arrow) -> Arrow:
    """Place arrows side by side."""
    for b in rest:
        if a.config is not b.config and a.config != b.config:
            raise DomainMismatchError("tensor across different backends")
        shift = a.domain_len
        imgs = a.perm.imgs + tuple(shift + v for v in b.perm.imgs)
        a = Arrow(a.config, Permutation._trusted(imgs), a.forest + b.forest)
    return a


def arrow_eq(a: Arrow, b: Arrow) -> bool:
    """Structural equality of normal forms; in these cancellative backends
    parallel arrows are homotopic exactly when equal."""
    return (
        (a.config is b.config or a.config == b.config)
        and a.perm == b.perm
        and a.forest == b.forest
    )


@functools.lru_cache(maxsize=8192)
def square_fill(a1: Arrow, a2: Arrow) -> tuple[Arrow, Arrow]:
    """Canonical filling (b1, b2) of the cospan (a1, a2): the composites
    compose(b1, a1) and compose(b2, a2) agree, both being the identity
    permutation over the coordinate-wise common refinement.

    Each filling is read off the refinement of each codomain coordinate j:
    domain coordinate i of a leg sits in slot t of that leg's operation at
    j, and input s of its filling operation phi_j[t] is the refinement cell
    at rank pi_j(g + s), where g is the grafting position of phi_j[t].  The
    composite sends that input to r_start[j] + pi_j(g + s) and is the
    identity, so the filling's permutation is the inverse of that list.
    """
    if a1.config is not a2.config and a1.config != a2.config:
        raise CodomainMismatchError("cospan arrows from different backends")
    if a1.codomain_len != a2.codomain_len:
        raise CodomainMismatchError(
            f"codomain lengths {a1.codomain_len} and {a2.codomain_len} differ"
        )
    config = a1.config
    refinements = [op_common_refinement(op1, op2) for op1, op2 in zip(a1.forest, a2.forest)]
    r_starts = block_starts([len(r.cells) for r, *_ in refinements])

    def filling(a, side):
        blocks = []  # per coordinate: (phi, pi, grafting starts of phi)
        for refinement in refinements:
            phi, pi = refinement[1 + side], refinement[3 + side]
            blocks.append((phi, pi, block_starts([len(op.cells) for op in phi])))
        fills, imgs = [], []
        for j, t in input_slots(a):
            phi, pi, graft = blocks[j]
            fills.append(phi[t])
            imgs.extend(r_starts[j] + pi(g) for g in range(graft[t], graft[t + 1]))
        return Arrow(config, Permutation._trusted(tuple(imgs)).inverse(), tuple(fills))

    return filling(a1, 0), filling(a2, 1)


def combine_fillings(f1, f2, cospan) -> tuple[Arrow, Arrow, Arrow, Arrow]:
    """Merge two square fillings of one cospan into a common refinement.

    With cospan (x, y), fillings (i, j) and (h, g) satisfying i*x = j*y and
    h*x = g*y, returns (alpha, beta, delta, epsilon) with
        delta*i = alpha = epsilon*h,   delta*j = beta = epsilon*g,
    so alpha and beta again fill the cospan and both given fillings factor
    through it.  Cancellativity makes the equalizing steps of the general
    construction trivial, leaving a single square filling of the two
    composite legs.
    """
    x, y = cospan
    i, j = f1
    h, g = f2
    a = compose(i, x)
    if not arrow_eq(a, compose(j, y)):
        raise NotFillingsError("first pair does not fill the cospan")
    b = compose(h, x)
    if not arrow_eq(b, compose(g, y)):
        raise NotFillingsError("second pair does not fill the cospan")
    c, d = square_fill(a, b)
    alpha = compose(c, i)
    beta = compose(c, j)
    if not (arrow_eq(alpha, compose(d, h)) and arrow_eq(beta, compose(d, g))):
        raise NotFillingsError("fillings do not merge; cancellativity violated")
    return alpha, beta, c, d


def format_arrow(a: Arrow) -> str:
    forest = " , ".join(str(op) for op in a.forest)
    if a.perm.is_identity() and a.forest:
        return forest
    return f"{a.perm} ; {forest}" if forest else f"{a.perm} ;"


def parse_arrow(text: str, config: BackendConfig) -> Arrow:
    t = text.strip()
    perm = None
    if ";" in t:
        head, _, tail = t.partition(";")
        perm = parse_permutation(head)
        t = tail.strip()
    if not t:
        if perm is None:
            raise ParseError("empty arrow literal")
        forest: tuple[Operation, ...] = ()
    else:
        forest = tuple(
            parse_operation(chunk, config) for chunk in split_top_level(t, ",")
        )
    if perm is None:
        perm = Permutation.identity(sum(op.arity for op in forest))
    return Arrow(config, perm, forest)
