"""Span (fraction) arithmetic: group structure and the grid oracle."""

import random

import pytest

import operad_groups as og
from helpers import CUBE2, PLANAR2, TREE2, grid_eq, random_arrow, random_span


class TestGroupStructure:
    def test_identity_element(self):
        e = og.sp_identity(TREE2, 1)
        assert og.sp_is_identity(e)
        rng = random.Random(1)
        for _ in range(20):
            g = random_span(TREE2, rng)
            assert og.sp_eq(og.sp_mul(e, g), g)
            assert og.sp_eq(og.sp_mul(g, e), g)

    def test_inverses(self):
        rng = random.Random(2)
        for config in (TREE2, CUBE2, PLANAR2):
            e = og.sp_identity(config, 1)
            for _ in range(20):
                g = random_span(config, rng)
                assert og.sp_eq(og.sp_mul(g, og.sp_inv(g)), e)
                assert og.sp_eq(og.sp_mul(og.sp_inv(g), g), e)

    def test_associativity(self):
        rng = random.Random(3)
        for config in (TREE2, CUBE2):
            for _ in range(25):
                g, h, k = (random_span(config, rng) for _ in range(3))
                assert og.sp_eq(
                    og.sp_mul(og.sp_mul(g, h), k), og.sp_mul(g, og.sp_mul(h, k))
                )

    def test_legs_must_share_their_domain(self):
        caret = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
        ident = og.Arrow.from_forest(TREE2, (og.op_identity(TREE2),))
        with pytest.raises(og.SizeMismatchError):
            og.Span(caret, ident)

    def test_multiplication_needs_matching_shapes(self):
        g = og.sp_identity(TREE2, 1)
        h = og.sp_identity(TREE2, 2)
        with pytest.raises(og.OperadError):
            og.sp_mul(g, h)
        with pytest.raises(og.BaseMismatchError):
            og.sp_mul(g, og.sp_identity(CUBE2, 1))


class TestPowers:
    def test_small_powers(self):
        g = og.parse_span("(. .) | p[1,0] ; (. .)", TREE2)
        assert og.sp_is_identity(og.sp_pow(g, 0))
        assert og.sp_eq(og.sp_pow(g, 1), g)
        assert og.sp_is_identity(og.sp_pow(g, 2))
        assert og.sp_eq(og.sp_pow(g, -1), og.sp_inv(g))
        assert og.sp_eq(og.sp_pow(g, 3), og.sp_mul(g, og.sp_mul(g, g)))

    def test_order_detection(self):
        swap = og.parse_span("(. .) | p[1,0] ; (. .)", TREE2)
        assert og.sp_order(swap, 8) == 2
        assert og.sp_order(og.sp_identity(TREE2, 1), 8) == 1
        shift = og.parse_span("((. .) .) | (. (. .))", TREE2)
        assert og.sp_order(shift, 8) is None


class TestEquality:
    def test_reduced_and_unreduced_forms_agree(self):
        g = og.parse_span("(. .) | p[1,0] ; (. .)", TREE2)
        squared = og.sp_pow(g, 2)
        assert not og.arrow_eq(squared.den, og.sp_identity(TREE2, 1).den)
        assert og.sp_eq(squared, og.sp_identity(TREE2, 1))

    def test_rewriting_both_legs_preserves_the_element(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_span(TREE2, rng)
            u = random_arrow(TREE2, rng, coords=g.den.domain_len, gens=rng.randrange(3))
            rewritten = og.Span(og.compose(u, g.den), og.compose(u, g.num))
            assert og.sp_eq(g, rewritten)

    def test_matches_the_grid_oracle(self):
        rng = random.Random(5)
        for config in (TREE2, CUBE2):
            spans = [random_span(config, rng, max_gens=3) for _ in range(40)]
            for i in range(0, len(spans) - 1, 2):
                g, h = spans[i], spans[i + 1]
                assert og.sp_eq(g, h) == grid_eq(g, h)
            for g in spans[:10]:
                u = random_arrow(config, rng, coords=g.den.domain_len, gens=2)
                h = og.Span(og.compose(u, g.den), og.compose(u, g.num))
                assert og.sp_eq(g, h) and grid_eq(g, h)


class TestRealizedMap:
    def test_shift_element_table(self):
        shift = og.parse_span("((. .) .) | (. (. .))", TREE2)
        assert og.realized_map(shift) == (
            ((0, og.Box((2,), (0,))), (0, og.Box((1,), (0,)))),
            ((0, og.Box((2,), (1,))), (0, og.Box((2,), (2,)))),
            ((0, og.Box((1,), (1,))), (0, og.Box((2,), (3,)))),
        )

    def test_identity_maps_each_cell_to_itself(self):
        e = og.sp_identity(TREE2, 1)
        assert all(src == dst for src, dst in og.realized_map(e))


class TestTensor:
    def test_tensor_of_identities_is_the_identity(self):
        e = og.sp_identity(TREE2, 1)
        assert og.sp_is_identity(og.sp_tensor(e, e))

    def test_tensor_preserves_torsion(self):
        swap = og.parse_span("(. .) | p[1,0] ; (. .)", TREE2)
        assert og.sp_order(og.sp_tensor(swap, swap), 8) == 2


class TestParseFormat:
    def test_round_trip_randomized(self):
        rng = random.Random(6)
        for config in (TREE2, CUBE2, PLANAR2):
            for _ in range(25):
                g = random_span(config, rng)
                back = og.parse_span(og.format_span(g), config)
                assert og.arrow_eq(back.den, g.den) and og.arrow_eq(back.num, g.num)

    def test_literal_shape(self):
        g = og.parse_span("((. .) .) | (. (. .))", TREE2)
        assert og.format_span(g) == "((. .) .) | (. (. .))"

    def test_parse_rejects_garbage(self):
        for text in ("", "(. .)", "(. .) | (. .) | (. .)", "bogus | (. .)"):
            with pytest.raises(og.ParseError):
                og.parse_span(text, TREE2)
