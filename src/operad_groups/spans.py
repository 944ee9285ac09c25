"""Group elements of the fraction groupoid as spans of arrows.

A span is an ordered pair (denominator, numerator) of arrows with common
domain and common codomain x; it represents an element of the fundamental
group at x.  No reduced form is maintained: equality goes through a common
denominator, which is complete because the backends are cancellative.

Each span also realizes a piecewise-affine self-map of the codomain's
geometric cells, sending denominator cells to numerator cells; products
compose these maps left to right (realize the left factor first).
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import BackendConfig, split_top_level
from .category import Arrow, arrow_eq, compose, parse_arrow, realize, square_fill, tensor
from .errors import BaseMismatchError, ParseError, SizeMismatchError

# The largest exponent a power or an order search may ask for.  Each step is
# one product, and the representatives of an infinite-order element grow
# with every step (the shift's 256th power takes seconds), so no count on the
# command line buys unbounded time.
MAX_EXPONENT = 256


def check_exponent(n: int, what: str) -> None:
    """Refuse an exponent or exponent bound past MAX_EXPONENT."""
    if abs(n) > MAX_EXPONENT:
        raise ParseError(f"{what} {n} exceeds the cap {MAX_EXPONENT}")


@dataclass(frozen=True, slots=True)
class Span:
    den: Arrow
    num: Arrow

    def __post_init__(self):
        if self.den.config is not self.num.config and self.den.config != self.num.config:
            raise BaseMismatchError("span legs from different backends")
        if self.den.domain_len != self.num.domain_len:
            raise SizeMismatchError(
                f"span legs have domains of length {self.den.domain_len} "
                f"and {self.num.domain_len}"
            )
        if self.den.codomain_len != self.num.codomain_len:
            raise BaseMismatchError("span legs end at different base words")

    @property
    def config(self) -> BackendConfig:
        return self.den.config

    @property
    def base_len(self) -> int:
        return self.den.codomain_len

    def __str__(self):
        return format_span(self)


def sp_identity(config: BackendConfig, n: int) -> Span:
    one = Arrow.identity(config, n)
    return Span(one, one)


def _require_same_base(g: Span, h: Span):
    if (g.config is not h.config and g.config != h.config) or g.base_len != h.base_len:
        raise BaseMismatchError("spans live over different base words")


def sp_mul(g: Span, h: Span) -> Span:
    """Product via a square filling of g's numerator against h's denominator."""
    _require_same_base(g, h)
    b1, b2 = square_fill(g.num, h.den)
    return Span(compose(b1, g.den), compose(b2, h.num))


def sp_inv(g: Span) -> Span:
    return Span(g.num, g.den)


def sp_eq(g: Span, h: Span) -> bool:
    """Equality through a common denominator; cancellativity collapses
    homotopy of the transported numerators to structural equality."""
    _require_same_base(g, h)
    b1, b2 = square_fill(g.den, h.den)
    return arrow_eq(compose(b1, g.num), compose(b2, h.num))


def sp_is_identity(g: Span) -> bool:
    """A span is the identity exactly when its legs are equal.

    sp_eq against the identity fills (den, id) by (b1, b2) with
    b1.den = b2 and compares b1.num with b2; left cancellation turns
    b1.num = b1.den into num = den, and the unique Arrow normal form that
    sp_eq and arrow_eq rely on makes that a structural comparison.
    """
    return arrow_eq(g.den, g.num)


def sp_pow(g: Span, n: int) -> Span:
    check_exponent(n, "exponent")
    if n < 0:
        return sp_pow(sp_inv(g), -n)
    acc = sp_identity(g.config, g.base_len)
    for _ in range(n):
        acc = sp_mul(acc, g)
    return acc


def sp_order(g: Span, max_n: int) -> int | None:
    """Least exponent up to the bound killing g, if any.  The n-th power is
    tested as made, and no power past the bound is made."""
    check_exponent(max_n, "order bound")
    acc = g
    for n in range(1, max_n + 1):
        if sp_is_identity(acc):
            return n
        if n < max_n:
            acc = sp_mul(acc, g)
    return None


def sp_tensor(g: Span, h: Span) -> Span:
    return Span(tensor(g.den, h.den), tensor(g.num, h.num))


def realized_map(g: Span):
    """Affine piece table: ((j, den cell), (j', num cell)) per domain coordinate."""
    return tuple(zip(realize(g.den), realize(g.num)))


def format_span(g: Span) -> str:
    return f"{g.den} | {g.num}"


def parse_span(text: str, config: BackendConfig) -> Span:
    parts = split_top_level(text, "|")
    if len(parts) != 2:
        raise ParseError(f"a span literal is 'den | num', got {text!r}")
    return Span(parse_arrow(parts[0], config), parse_arrow(parts[1], config))
