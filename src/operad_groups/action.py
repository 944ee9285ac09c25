"""Group action on marked-arrow classes and the stabilizer product structure.

A span acts on classes over its base by rewriting the class through a
square filling of the numerator and pushing the marking along the
denominator.  Pointwise stabilizers of a partition decompose as a product
of smaller groups, one factor per symbol; ``xi`` assembles an element from
factor components and ``decompose`` splits a stabilizing element back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import BackendConfig, input_slots
from .category import Arrow, compose, perm_arrow, square_fill, tensor
from .errors import (
    BaseMismatchError,
    NotInStabilizerError,
    NotPartitionError,
    UnknownError,
)
from .markings import (
    MarkedArrow,
    SemiPartitionClass,
    pull_back,
    sp_class_eq,
    submultiballs,
)
from .perms import Permutation, block_starts, locate_block
from .spans import Span, sp_eq


def act(g: Span, S: SemiPartitionClass) -> SemiPartitionClass:
    """Transport a class through a span; independent of the filling chosen.

    A class whose representative arrow is the identity is answered by the
    unit law without filling: the filling of (num, id) adds only a
    permutation, which the class absorbs into its marking, so the result is
    den marked by S's marking pulled back through num.
    """
    if (g.config is not S.config and g.config != S.config) or g.base_len != S.base_len:
        raise BaseMismatchError("span and class live over different bases")
    if S.rep.arrow.is_identity():
        return SemiPartitionClass(MarkedArrow(g.den, pull_back(g.num, S.rep.marking)))
    b1, b2 = square_fill(g.num, S.rep.arrow)
    return SemiPartitionClass(
        MarkedArrow(compose(b1, g.den), pull_back(b2, S.rep.marking))
    )


def stabilizes_pointwise(g: Span, P: SemiPartitionClass) -> bool:
    """Whether the span fixes every symbol's multiball individually."""
    if not P.is_partition():
        raise NotPartitionError("pointwise stabilizer asked for a non-partition")
    return all(sp_class_eq(act(g, B), B) for B in submultiballs(P))


@dataclass(frozen=True)
class StabilizerWitness:
    """A partition together with a block-ordered arrow presenting it.

    ``base_arrow`` has its domain coordinates grouped so that the i-th
    symbol occupies one contiguous run of ``subwords[i]`` coordinates.
    """

    partition: SemiPartitionClass
    subwords: tuple[int, ...]
    base_arrow: Arrow

    def __post_init__(self):
        if not self.partition.is_partition():
            raise NotPartitionError("stabilizer witness needs a partition")
        if sum(self.subwords) != self.base_arrow.domain_len:
            raise NotPartitionError("subwords must tile the witness domain")
        if len(self.subwords) != self.partition.rep.marking.symbol_count:
            raise NotPartitionError("one subword per symbol")

    @property
    def config(self) -> BackendConfig:
        return self.base_arrow.config

    @classmethod
    def from_partition(cls, P: SemiPartitionClass) -> "StabilizerWitness":
        if not P.is_partition():
            raise NotPartitionError("stabilizer witness needs a partition")
        rep = P.rep
        n = rep.arrow.domain_len
        symbols = rep.marking.symbols
        order = sorted(range(n), key=lambda i: (symbols[i], i))
        tau = Permutation(tuple(order))
        alpha = Arrow(rep.config, tau, rep.arrow.forest)
        counts = tuple(
            len(rep.marking.support(s)) for s in range(rep.marking.symbol_count)
        )
        return cls(P, counts, alpha)


def xi(components, W: StabilizerWitness) -> Span:
    """Assemble a stabilizing element from one span per symbol block."""
    components = tuple(components)
    if len(components) != len(W.subwords):
        raise BaseMismatchError("one component per symbol block")
    for comp, width in zip(components, W.subwords):
        if comp.config is not W.config and comp.config != W.config:
            raise BaseMismatchError("component from a different backend")
        if comp.base_len != width:
            raise BaseMismatchError(
                f"component based at length {comp.base_len}, block has {width}"
            )
    den = compose(tensor(*[c.den for c in components]), W.base_arrow)
    num = compose(tensor(*[c.num for c in components]), W.base_arrow)
    return Span(den, num)


def _force_through(g: Span, alpha: Arrow):
    """Refine a span so both legs factor as (pre-arrow, then alpha)."""
    u1, u2 = square_fill(g.den, alpha)
    num2 = compose(u1, g.num)
    v1, v2 = square_fill(num2, alpha)
    z_pre = compose(v1, u2)
    z_post = v2
    return z_pre, z_post


def _block_of_coords(z: Arrow, word_starts) -> tuple[int, ...]:
    """Symbol block hit by each domain coordinate of a pre-witness arrow."""
    return tuple(locate_block(word_starts, j)[0] for j, _ in input_slots(z))


def decompose(g: Span, W: StabilizerWitness):
    """Split a pointwise stabilizer into its per-symbol components.

    Forces both legs through the witness arrow, checks that every domain
    coordinate feeds the same symbol block on both sides, block-aligns by
    a gathering permutation, and slices.

    One filling suffices.  A further round would compose one arrow s before
    both z_pre and z_post, so a domain coordinate of either composite feeds
    the block of the coordinate that s sends it to.  Every codomain
    coordinate of s is the output of an operation with at least one input,
    so each coordinate of z_pre's domain is reached: one whose blocks differ
    keeps differing in every preimage, and the round could only fail again.
    """
    if (
        g.config is not W.config and g.config != W.config
    ) or g.base_len != W.base_arrow.codomain_len:
        raise BaseMismatchError("span and witness live over different bases")
    alpha = W.base_arrow
    word_starts = block_starts(W.subwords)
    z_pre, z_post = _force_through(g, alpha)
    blocks_pre = _block_of_coords(z_pre, word_starts)
    if blocks_pre != _block_of_coords(z_post, word_starts):
        raise NotInStabilizerError(
            "element moves a marked block, no componentwise splitting"
        )
    order = sorted(range(z_pre.domain_len), key=lambda t: (blocks_pre[t], z_pre.perm(t)))
    gather = perm_arrow(g.config, Permutation(tuple(order)))
    zp = compose(gather, z_pre)
    zn = compose(gather, z_post)
    slot_starts = block_starts([op.arity for op in zp.forest])
    components = []
    for i in range(len(W.subwords)):
        lo_word, hi_word = word_starts[i], word_starts[i + 1]
        lo, hi = slot_starts[lo_word], slot_starts[hi_word]
        forest = zp.forest[lo_word:hi_word]
        den_perm = Permutation(tuple(zp.perm(t) - lo for t in range(lo, hi)))
        num_perm = Permutation(tuple(zn.perm(t) - lo for t in range(lo, hi)))
        den_i = Arrow(g.config, den_perm, forest)
        num_i = Arrow(g.config, num_perm, zn.forest[lo_word:hi_word])
        components.append(Span(den_i, num_i))
    components = tuple(components)
    if not sp_eq(xi(components, W), g):
        raise UnknownError("component reassembly disagrees with the input")
    return components
