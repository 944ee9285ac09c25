"""Executable group-theoretic certificates: torsion, free subgroups,
infinite order, and freeness of the permutation action.

Each check returns a Report whose rows can be replayed independently; the
constructions are deterministic, with each cycle's orientation a fixed
convention.
"""

from __future__ import annotations

import itertools
import math

from .backend import (
    BackendConfig,
    Box,
    SYMMETRIC,
    forests_up_to,
    op_comb,
    op_compose,
    op_generator,
    standard_cells,
)
from .category import Arrow, arrow_eq, compose, perm_arrow
from .errors import (
    FlavorError,
    SizeMismatchError,
    UnknownError,
    UnsupportedBackendError,
    refuse_past,
)
from .markings import ball_at, class_subset, is_ball, sp_class_eq
from .perms import Permutation
from .poset import _comb_gens_for_arity
from .report import Report
from .spans import Span, check_exponent, format_span, sp_is_identity, sp_mul, sp_order
from .action import act


# The most rows a certificate sweep makes.  In a permutation sweep length m
# brings m! - 1 rows per forest, so one more unit of --max-perm multiplies
# the count; the ping-pong balls double per level of --depth and the
# alternating words every two steps of --max-len.  Each count stops past
# the cap.
MAX_SWEEP_ROWS = 20_000


def _require_symmetric(config: BackendConfig, what: str):
    if config.flavor != SYMMETRIC:
        raise FlavorError(f"{what} needs the symmetric flavor")


def _cycle(degree: int, a: int, b: int, c: int) -> Permutation:
    imgs = list(range(degree))
    imgs[a], imgs[b], imgs[c] = b, c, a
    return Permutation(tuple(imgs))


def _transposition(degree: int, a: int, b: int) -> Permutation:
    imgs = list(range(degree))
    imgs[a], imgs[b] = b, a
    return Permutation(tuple(imgs))


def make_gamma1(config: BackendConfig) -> Span:
    """Order-2 element: one split, first two inputs swapped."""
    _require_symmetric(config, "the order-2 certificate")
    gen = op_generator(config)
    den = Arrow.from_forest(config, (gen,))
    num = Arrow(config, _transposition(gen.arity, 0, 1), (gen,))
    return Span(den, num)


def make_gamma2(config: BackendConfig) -> Span:
    """Order-3 element: a three-input tree, first three inputs cycled.

    Both legs carry the same tree, so the span only permutes that tree's
    leaf cells and its order is the order of the cycle: 3 in either
    orientation.  The inverse cycle is the frozen convention.
    """
    _require_symmetric(config, "the order-3 certificate")
    tree = op_comb(config, _comb_gens_for_arity(config, 3))
    den = Arrow.from_forest(config, (tree,))
    return Span(den, Arrow(config, _cycle(tree.arity, 0, 1, 2).inverse(), (tree,)))


def _pingpong_halves(config: BackendConfig) -> tuple[Box, Box]:
    """The two generator cells the free subgroup plays between: the upper
    and the lower half along axis 0."""
    whole = Box.whole(config.dim)
    return whole.child(0, 1, config.base), whole.child(0, 0, config.base)


def pingpong_balls(config: BackendConfig):
    """The two generator-cell balls the free subgroup plays between."""
    return tuple(ball_at(config, 1, 0, half) for half in _pingpong_halves(config))


def _pingpong_pools(config: BackendConfig, depth: int) -> tuple[list, list]:
    """The balls of cell depth at most the bound inside each half, in
    ``all_balls`` order.  A ball lies in a ball of the same coordinate
    exactly when its cell lies in the other's cell, and the cells of depth
    at most D inside a half are the cells of depth at most D-1 moved into
    it.  The move is monotone on axis 0 and the identity on the others, so
    it keeps the order, and no square is filled."""
    base = config.base
    cells = standard_cells(config, depth - 1)
    return tuple(
        [ball_at(config, 1, 0, c.inside(half, base)) for c in cells]
        for half in _pingpong_halves(config)
    )


def _pingpong_rows(config: BackendConfig, depth: int):
    """The rows of ``pingpong_check``, |A2| + 2|A1|, one count per cell
    depth t below the bound.

    Each pool holds the standard cells of depth below the bound, moved
    into its half, so the rows are 3 times those cells.  An exponent
    vector of total t carries 2^t cells, and C(t+d-1, d-1) vectors have
    total t.
    """
    dim = config.dim
    return (3 * (1 << t) * math.comb(t + dim - 1, dim - 1) for t in range(depth))


def pingpong_check(config: BackendConfig, depth: int) -> Report:
    """Table tennis inclusions for the free subgroup on the two balls.
    More than MAX_SWEEP_ROWS rows are refused before any ball is built."""
    if config.base != 2:
        # the two balls must be complementary halves, as for k = 2 and cubes
        raise UnsupportedBackendError(
            f"the ping-pong certificate needs a binary split, not {config}"
        )

    g1 = make_gamma1(config)
    g2 = make_gamma2(config)
    g2sq = sp_mul(g2, g2)
    refuse_past(_pingpong_rows(config, depth), MAX_SWEEP_ROWS, "ping-pong rows")
    B1, B2 = pingpong_balls(config)
    A1, A2 = _pingpong_pools(config, depth)

    rows = []
    plays = (("g1", g1, A2, B1), ("g2", g2, A1, B2), ("g2^2", g2sq, A1, B2))
    for name, g, pool, target in plays:
        for b in pool:
            r = act(g, b)
            rows.append(
                {
                    "instance": f"{name} · {b.rep}",
                    "ok": is_ball(r) and class_subset(r, target),
                    "witness": str(r.rep),
                }
            )
    return Report("pingpong", tuple(rows))


def _alternating_rows(g1: Span, g2: Span, max_len: int, rows: list):
    """DFS over reduced alternating words with running products."""
    g2sq = sp_mul(g2, g2)
    a_syllables = (("g1", g1),)
    b_syllables = (("g2", g2), ("g2^2", g2sq))

    def extend(word, product, last_was_a, length):
        if length >= max_len:
            return
        for name, s in b_syllables if last_was_a else a_syllables:
            new_word = f"{word}·{name}" if word else name
            new_product = sp_mul(product, s) if product is not None else s
            rows.append(
                {
                    "instance": new_word,
                    "ok": not sp_is_identity(new_product),
                    "witness": format_span(new_product),
                }
            )
            extend(new_word, new_product, not last_was_a, length + 1)

    extend("", None, False, 0)
    extend("", None, True, 0)


def _alternating_word_rows(max_len: int):
    """The reduced alternating words, one count per length 1..max_len: a
    word of length L starting with g1 has floor(L/2) syllables of two
    choices, one starting with g2 ceil(L/2)."""
    return (
        (1 << (length // 2)) + (1 << ((length + 1) // 2))
        for length in range(1, max_len + 1)
    )


def alternating_words_nontrivial(config: BackendConfig, max_len: int) -> Report:
    """No reduced alternating word in the two torsion elements collapses.
    More than MAX_SWEEP_ROWS words are refused before any is multiplied."""
    refuse_past(_alternating_word_rows(max_len), MAX_SWEEP_ROWS, "alternating-word rows")
    rows: list = []
    _alternating_rows(make_gamma1(config), make_gamma2(config), max_len, rows)
    return Report("alternating_words", tuple(rows))


def pingpong_reports(config: BackendConfig, depth: int, max_len: int) -> tuple:
    """The ping-pong report, then the alternating words up to max_len when
    max_len is positive.  Each row count is checked before either report
    is made: a word count past the cap before any ball is built, and the
    ball count by ``pingpong_check`` before any word is multiplied."""
    refuse_past(_alternating_word_rows(max_len), MAX_SWEEP_ROWS, "alternating-word rows")
    reports = (pingpong_check(config, depth),)
    if max_len > 0:
        reports += (alternating_words_nontrivial(config, max_len),)
    return reports


def make_infinite_element(config: BackendConfig) -> Span:
    """Left-association against right-association of two splits."""
    den = Arrow.from_forest(config, (op_comb(config, 2, "left"),))
    num = Arrow.from_forest(config, (op_comb(config, 2, "right"),))
    return Span(den, num)


def infinite_order_check(config: BackendConfig, max_n: int) -> Report:
    check_exponent(max_n, "power bound")
    g = make_infinite_element(config)
    rows = []
    power = g
    for n in range(1, max_n + 1):
        rows.append(
            {
                "instance": f"power {n}",
                "ok": not sp_is_identity(power),
                "witness": format_span(power) if n <= 3 else "",
            }
        )
        if n < max_n:
            power = sp_mul(power, g)
    return Report("infinite_order", tuple(rows))


def _perm_sweep(config, max_perm_size, max_depth, probe, fixed, link):
    """One row per word length m in 2..max_perm_size, forest of m operations
    within the generator budget, and non-identity sigma of degree m.  Each
    sigma's ``probe(config, sigma)`` is built once per length, before any
    forest.  Each forest is checked once, on alpha = (id, forest); the row
    fails, with alpha as its witness, when ``fixed(alpha, probe)`` holds.
    More than MAX_SWEEP_ROWS rows are refused before any is made.

    By left cancellation no other input permutation tau of
    alpha = (tau, F) changes a row.  Algebraically: if F only permutes,
    alpha then sigma is (tau * sigma, F), which is alpha exactly when
    sigma = id.  Otherwise it is (tau * tau_hat, F_hat), where
    (tau_hat, F_hat) = ``push_perm(F, sigma)`` depends on F and sigma only,
    and that is (tau, F) exactly when tau_hat = id and F_hat = F.  Either
    way tau cancels, and ``sp_is_identity(Span(alpha, alpha then sigma))``
    is the same test.  Geometrically: the ball's arrow is the identity, so
    ``act`` takes its unit law, and ``SemiPartitionClass`` absorbs tau into
    the marking, whose entry k is the symbol of input tau_hat(k) of F_hat
    whatever tau is.  Every tau gives the same class, so the
    ``UnknownError`` cross-check sees the same pair of verdicts."""
    if max_depth < 0:
        return ()  # no forest fits a negative budget, at any length
    rows_per_forest = (
        math.factorial(m) - 1
        for m in range(2, max_perm_size + 1)
        for _ in forests_up_to(config, m, max_depth)
    )
    refuse_past(rows_per_forest, MAX_SWEEP_ROWS, "sweep rows")
    rows = []
    for m in range(2, max_perm_size + 1):
        sigmas = [
            Permutation(p)
            for p in itertools.permutations(range(m))
            if p != tuple(range(m))
        ]
        probes = [probe(config, sigma) for sigma in sigmas]
        for forest in forests_up_to(config, m, max_depth):
            alpha = Arrow.from_forest(config, forest)
            shown = str(alpha)
            for sigma, sigma_probe in zip(sigmas, probes):
                bad = fixed(alpha, sigma_probe)
                rows.append(
                    {
                        "instance": f"{sigma} {link} {shown}",
                        "ok": not bad,
                        "witness": shown if bad else "",
                    }
                )
    return tuple(rows)


def free_action_check(config: BackendConfig, max_perm_size: int, max_depth: int) -> Report:
    """Post-composing a non-identity permutation always changes an arrow."""
    _require_symmetric(config, "the free-action certificate")

    def fixed(alpha, sigma_arrow):
        return arrow_eq(compose(alpha, sigma_arrow), alpha)

    rows = _perm_sweep(config, max_perm_size, max_depth, perm_arrow, fixed, "after")
    return Report("free_action", rows)


def _sigma_probe(config: BackendConfig, sigma: Permutation):
    """What the sigma-span check needs of sigma alone: its permutation
    arrow, and the ball at the first coordinate it moves (None when it
    moves none)."""
    moved = [j for j in range(sigma.degree) if sigma(j) != j]
    ball = ball_at(config, sigma.degree, moved[0], Box.whole(config.dim)) if moved else None
    return perm_arrow(config, sigma), ball


def _sigma_span_trivial(alpha: Arrow, probe) -> bool:
    """Both routes of ``sigma_span_check`` for one arrow and one probe."""
    sigma_arrow, ball = probe
    g = Span(alpha, compose(alpha, sigma_arrow))
    algebraic = sp_is_identity(g)
    geometric = True if ball is None else sp_class_eq(act(g, ball), ball)
    if algebraic != geometric:
        raise UnknownError("span arithmetic and ball movement disagree")
    return algebraic


def sigma_span_check(alpha: Arrow, sigma: Permutation) -> bool:
    """Whether the span (alpha, alpha then sigma) is trivial.

    Two independent routes must agree: span arithmetic against the
    identity, and the movement of a single-marked ball at the first
    coordinate sigma displaces.
    """
    if sigma.degree != alpha.codomain_len:
        raise SizeMismatchError(
            f"permutation of degree {sigma.degree} on a word of length "
            f"{alpha.codomain_len}"
        )
    return _sigma_span_trivial(alpha, _sigma_probe(alpha.config, sigma))


def sigma_span_report(config: BackendConfig, max_perm_size: int, max_depth: int) -> Report:
    """Exhaustive run: non-trivial permutations never give trivial spans.
    Both routes of ``sigma_span_check`` run for every arrow, with each
    sigma's permutation arrow and ball built once."""
    _require_symmetric(config, "the sigma-span certificate")
    rows = _perm_sweep(config, max_perm_size, max_depth, _sigma_probe, _sigma_span_trivial, "on")
    return Report("sigma_span", rows)


def _padded_split(config: BackendConfig):
    """A wide split with interior input slots at positions 1 and 3: four
    left splits have arity 1 + 4(base - 1), at least 5."""
    return op_comb(config, 4, "left")


def make_padded_gamma1(config: BackendConfig) -> Span:
    _require_symmetric(config, "the padded order-2 certificate")
    u = _padded_split(config)
    den = Arrow.from_forest(config, (u,))
    num = Arrow(config, _transposition(u.arity, 1, 3), (u,))
    return Span(den, num)


def make_padded_gamma2(config: BackendConfig) -> Span:
    """Order-3 element on a wide split: three interior inputs cycled.

    As for ``make_gamma2``, both legs carry the same operation, so the
    order is the cycle's, 3, and the inverse cycle is the convention.
    """
    _require_symmetric(config, "the padded order-3 certificate")
    u = _padded_split(config)
    m = u.arity
    u2 = op_compose(u, 1, u)
    den = Arrow.from_forest(config, (u2,))
    return Span(den, Arrow(config, _cycle(u2.arity, 2, 4, m + 2).inverse(), (u2,)))


def make_padded_infinite(config: BackendConfig) -> Span:
    u = _padded_split(config)
    den = Arrow.from_forest(config, (op_compose(u, 1, u),))
    num = Arrow.from_forest(config, (op_compose(u, 3, u),))
    return Span(den, num)


def padded_certificates_check(config: BackendConfig, max_n: int = 16) -> Report:
    """Order and nontriviality post-conditions for wide-split variants."""
    check_exponent(max_n, "power bound")
    g1 = make_padded_gamma1(config)
    g2 = make_padded_gamma2(config)
    rows = [
        {
            "instance": "padded gamma1 order",
            "ok": sp_order(g1, 4) == 2,
            "witness": "2",
        },
        {
            "instance": "padded gamma2 order",
            "ok": sp_order(g2, 4) == 3,
            "witness": "3",
        },
    ]
    trivial_at = sp_order(make_padded_infinite(config), max_n)
    rows.append(
        {
            "instance": f"padded infinite element, powers to {max_n}",
            "ok": trivial_at is None,
            "witness": "" if trivial_at is None else f"power {trivial_at} trivial",
        }
    )
    _alternating_rows(g1, g2, 4, rows)
    return Report("padded_certificates", tuple(rows))
