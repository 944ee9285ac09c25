"""Arrows in permutation-forest normal form and square filling."""

import random
from types import SimpleNamespace

import pytest

import operad_groups as og
from helpers import (
    CUBE1,
    CUBE2,
    CUBE3,
    PLANAR2,
    TREE2,
    TREE3,
    arrow_pool,
    glued_square_fill,
    random_arrow,
    random_marking,
    sort_key,
)


def chain(config, rng, length=3):
    """Composable arrows: each codomain matches the next domain."""
    arrows = [random_arrow(config, rng, coords=1, gens=rng.randrange(3))]
    for _ in range(length - 1):
        arrows.insert(
            0, random_arrow(config, rng, coords=arrows[0].domain_len, gens=rng.randrange(3))
        )
    return arrows


class TestArrowConstruction:
    def test_lengths(self):
        caret = og.op_generator(TREE2)
        arrow = og.Arrow.from_forest(TREE2, (caret, og.op_identity(TREE2)))
        assert arrow.domain_len == 3
        assert arrow.codomain_len == 2
        assert arrow.perm == og.Permutation((0, 1, 2))

    def test_permutation_degree_must_match_forest(self):
        with pytest.raises(og.SizeMismatchError):
            og.Arrow(
                TREE2,
                og.Permutation((0, 1)),
                (og.op_generator(TREE2), og.op_identity(TREE2)),
            )

    def test_unsorted_cube_operations_are_absorbed_into_the_permutation(self):
        halves = (og.Box((1,), (0,)), og.Box((1,), (1,)))
        backward = og.Operation(CUBE1, halves[::-1])
        arrow = og.Arrow(CUBE1, og.Permutation((0, 1)), (backward,))
        assert arrow.forest == (og.Operation(CUBE1, halves),)
        assert arrow.perm == og.Permutation((1, 0))
        assert og.realize(arrow) == (
            (0, og.Box((1,), (1,))),
            (0, og.Box((1,), (0,))),
        )

    def test_unsorted_cube_forests_end_canonical(self):
        rng = random.Random(5)
        for config in (CUBE1, CUBE2, CUBE3):
            for _ in range(40):
                arrow = random_arrow(config, rng, coords=rng.randint(1, 3), gens=rng.randrange(7))
                shuffled = []
                for op in arrow.forest:
                    cells = list(op.cells)
                    rng.shuffle(cells)
                    shuffled.append(og.Operation(config, tuple(cells)))
                # realize reads any (perm, forest) pair, sorted or not
                raw = SimpleNamespace(perm=arrow.perm, forest=tuple(shuffled))
                canon = og.Arrow(config, arrow.perm, tuple(shuffled))
                for op in canon.forest:
                    assert op.rank is None
                    assert list(op.cells) == sorted(op.cells, key=lambda c: sort_key(c, 2))
                assert og.realize(canon) == og.realize(raw)

    def test_planar_arrows_reject_nontrivial_permutations(self):
        with pytest.raises(ValueError):
            og.Arrow(PLANAR2, og.Permutation((1, 0)), (og.op_generator(PLANAR2),))
        with pytest.raises(ValueError):
            og.parse_arrow("p[1,0] ; (. .)", PLANAR2)


class TestPushPerm:
    def test_permutation_pushes_past_a_forest_blockwise(self):
        forest = (og.parse_operation("(. .)", TREE2), og.op_identity(TREE2))
        tau = og.Permutation((1, 0))
        pushed_perm, pushed_forest = og.push_perm(forest, tau)
        assert pushed_perm == og.Permutation((1, 2, 0))
        assert pushed_forest == (og.op_identity(TREE2), og.parse_operation("(. .)", TREE2))

    def test_push_is_compatible_with_composition(self):
        rng = random.Random(21)
        for _ in range(30):
            inner = random_arrow(TREE2, rng, coords=2, gens=2)
            imgs = list(range(2))
            rng.shuffle(imgs)
            tau = og.Permutation(tuple(imgs))
            lhs = og.compose(inner, og.perm_arrow(TREE2, tau))
            pushed_perm, pushed_forest = og.push_perm(inner.forest, tau)
            rhs = og.Arrow(TREE2, inner.perm * pushed_perm, pushed_forest)
            assert og.arrow_eq(lhs, rhs)


class TestCompose:
    def test_requires_matching_lengths(self):
        caret = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
        with pytest.raises(og.DomainMismatchError):
            og.compose(caret, caret)

    def test_composition_deepens_the_refinement(self):
        caret = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
        two = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),) * 2)
        glued = og.compose(two, caret)
        assert glued.domain_len == 4
        assert glued.codomain_len == 1
        assert glued.forest == (og.parse_operation("((. .) (. .))", TREE2),)

    def test_permutations_compose_diagrammatically(self):
        sigma = og.Permutation((1, 2, 0))
        tau = og.Permutation((0, 2, 1))
        assert (sigma * tau).imgs == tuple(tau(sigma(i)) for i in range(3))
        lhs = og.compose(og.perm_arrow(TREE2, sigma), og.perm_arrow(TREE2, tau))
        assert og.arrow_eq(lhs, og.perm_arrow(TREE2, sigma * tau))

    def test_identity_laws(self):
        rng = random.Random(5)
        for config in (TREE2, CUBE2):
            for _ in range(20):
                a = random_arrow(config, rng, coords=1, gens=rng.randrange(4))
                dom_id = og.perm_arrow(config, og.Permutation(tuple(range(a.domain_len))))
                cod_id = og.perm_arrow(config, og.Permutation(tuple(range(a.codomain_len))))
                assert og.arrow_eq(og.compose(dom_id, a), a)
                assert og.arrow_eq(og.compose(a, cod_id), a)

    def test_associativity_randomized(self):
        rng = random.Random(6)
        for config in (TREE2, CUBE2, PLANAR2):
            for _ in range(25):
                x, y, z = chain(config, rng)
                assert og.arrow_eq(
                    og.compose(og.compose(x, y), z), og.compose(x, og.compose(y, z))
                )


class TestTensor:
    def test_lengths_add(self):
        caret = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
        pair = og.tensor(caret, caret)
        assert pair.domain_len == 4 and pair.codomain_len == 2
        triple = og.tensor(caret, caret, caret)
        assert triple.domain_len == 6 and triple.codomain_len == 3

    def test_footprint_is_the_shifted_union(self):
        a = og.parse_arrow("p[1,0] ; (. .)", TREE2)
        b = og.Arrow.from_forest(TREE2, (og.op_identity(TREE2),))
        assert og.realize(og.tensor(a, b)) == (
            (0, og.Box((1,), (1,))),
            (0, og.Box((1,), (0,))),
            (1, og.Box((0,), (0,))),
        )

    def test_rejects_mixed_backends(self):
        a = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
        b = og.Arrow.from_forest(CUBE1, (og.op_generator(CUBE1),))
        with pytest.raises(og.DomainMismatchError):
            og.tensor(a, b)


class TestSquareFill:
    def test_fills_complete_the_square(self):
        rng = random.Random(8)
        for config in (TREE2, TREE3, PLANAR2, CUBE1, CUBE2, CUBE3):
            for coords in (1, 2, 3):
                for _ in range(40):
                    a1 = random_arrow(config, rng, coords=coords, gens=rng.randrange(5))
                    a2 = random_arrow(config, rng, coords=coords, gens=rng.randrange(5))
                    b1, b2 = og.square_fill(a1, a2)
                    assert b1.domain_len == b2.domain_len
                    assert b1.codomain_len == a1.domain_len
                    assert b2.codomain_len == a2.domain_len
                    assert og.arrow_eq(og.compose(b1, a1), og.compose(b2, a2))
                    assert (b1, b2) == glued_square_fill(a1, a2)

    def test_identity_legs_fill_by_the_unit_law(self):
        rng = random.Random(9)
        for config in (TREE2, TREE3, PLANAR2, CUBE1, CUBE2, CUBE3):
            for coords in (1, 2, 3):
                for _ in range(30):
                    a = random_arrow(config, rng, coords=coords, gens=rng.randrange(5))
                    unit = og.Arrow.identity(config, coords)
                    assert og.square_fill(a, unit) == glued_square_fill(a, unit)
                    assert og.square_fill(unit, a) == glued_square_fill(unit, a)

    def test_filling_an_arrow_against_itself_is_trivial(self):
        a = og.parse_arrow("p[1,0] ; (. .)", TREE2)
        b1, b2 = og.square_fill(a, a)
        assert og.arrow_eq(b1, b2)

    def test_reads_the_ranks_without_calling_a_permutation(self, monkeypatch):
        rng = random.Random(12)
        pairs = [
            [random_arrow(config, rng, coords=coords, gens=rng.randrange(6)) for _ in "ab"]
            for config in (TREE2, CUBE2)
            for coords in (1, 2, 3)
            for _ in range(20)
        ]
        calls = []
        original = og.Permutation.__call__

        def counted(self, i):
            calls.append(i)
            return original(self, i)

        monkeypatch.setattr(og.Permutation, "__call__", counted)
        for a1, a2 in pairs:
            b1, b2 = og.square_fill.__wrapped__(a1, a2)
            assert og.arrow_eq(og.compose(b1, a1), og.compose(b2, a2))
        assert calls == []
        # the counter sees what it counts
        assert og.Permutation((1, 0))(0) == 1 and calls == [0]

    def test_requires_a_common_codomain(self):
        a = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
        b = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2), og.op_identity(TREE2)))
        with pytest.raises((og.CodomainMismatchError, og.SizeMismatchError)):
            og.square_fill(a, b)


def shuffled_copy(a, rng):
    """``a`` rebuilt over its forest with every operation's cells shuffled,
    under the permutation that the constructor's sort turns back into
    ``a.perm``."""
    shuffled = []
    for op in a.forest:
        cells = list(op.cells)
        rng.shuffle(cells)
        shuffled.append(og.Operation(a.config, tuple(cells)))
    identity = og.Permutation.identity(a.domain_len)
    rank = og.Arrow(a.config, identity, tuple(shuffled)).perm
    return og.Arrow(a.config, a.perm * rank.inverse(), tuple(shuffled))


class TestArrowHash:
    CONFIGS = (TREE2, TREE3, PLANAR2, CUBE1, CUBE2, CUBE3)

    def test_the_cached_hash_is_the_structural_hash(self):
        rebuilds = [
            lambda a, rng: og.parse_arrow(str(a), a.config),
            lambda a, rng: og.compose(og.Arrow.identity(a.config, a.domain_len), a),
        ]
        for n, config in enumerate(self.CONFIGS):
            rng = random.Random(900 + n)
            ways = list(rebuilds)
            if config.kind == og.DYADIC_CUBE:  # tree cells keep their order
                ways.append(shuffled_copy)
            for a in arrow_pool(config, 60 + n):
                shown = repr(a)
                assert hash(a) == hash((a.config, a.perm, a.forest))
                for rebuild in ways:
                    # hashed before it is compared, then compared first
                    b = rebuild(a, rng)
                    assert b is not a
                    assert hash(b) == hash(a) and b == a, (str(a), str(b))
                    b = rebuild(a, rng)
                    assert b == a and hash(b) == hash(a), (str(a), str(b))
                assert repr(a) == shown

    def test_memo_hits_rehash_no_operation_or_permutation(self, monkeypatch):
        calls = []
        for cls in (og.Operation, og.Permutation, og.Box):
            original = cls.__hash__

            def counted(self, original=original):
                calls.append(type(self))
                return original(self)

            monkeypatch.setattr(cls, "__hash__", counted)
        rng = random.Random(7)
        a1 = random_arrow(CUBE2, rng, coords=2, gens=5)
        a2 = random_arrow(CUBE2, rng, coords=2, gens=5)
        p = og.MarkedArrow(a1, random_marking(CUBE2, rng, a1.domain_len))
        q = og.MarkedArrow(a2, random_marking(CUBE2, rng, a2.domain_len))
        verdict = og.ma_subset(p, q)
        first = len(calls)
        assert og.Operation in calls and og.Permutation in calls
        for _ in range(49):
            assert og.ma_subset(p, q) == verdict
        assert len(calls) == first


class TestCombineFillings:
    def _cospan_and_fillings(self, rng, config):
        x = random_arrow(config, rng, coords=1, gens=rng.randrange(3))
        y = random_arrow(config, rng, coords=1, gens=rng.randrange(3))
        f1 = og.square_fill(x, y)
        i, j = f1
        step = og.op_generator(config)
        u = og.Arrow.from_forest(
            config, (step,) + (og.op_identity(config),) * (i.domain_len - 1)
        )
        f2 = (og.compose(u, i), og.compose(u, j))
        return (x, y), f1, f2

    def test_merges_two_fillings_of_one_cospan(self):
        rng = random.Random(9)
        for config in (TREE2, CUBE2):
            for _ in range(15):
                cospan, f1, f2 = self._cospan_and_fillings(rng, config)
                x, y = cospan
                i, j = f1
                h, g = f2
                alpha, beta, delta, epsilon = og.combine_fillings(f1, f2, cospan)
                assert og.arrow_eq(og.compose(alpha, x), og.compose(beta, y))
                assert og.arrow_eq(alpha, og.compose(delta, i))
                assert og.arrow_eq(beta, og.compose(delta, j))
                assert og.arrow_eq(alpha, og.compose(epsilon, h))
                assert og.arrow_eq(beta, og.compose(epsilon, g))

    def test_rejects_pairs_that_do_not_fill(self):
        rng = random.Random(10)
        cospan, f1, _ = self._cospan_and_fillings(rng, TREE2)
        bad = (f1[1], f1[0])  # swapped legs no longer close the square
        x, y = cospan
        if og.arrow_eq(og.compose(bad[0], x), og.compose(bad[1], y)):
            pytest.skip("degenerate draw: swapped legs still fill")
        with pytest.raises(og.NotFillingsError):
            og.combine_fillings(bad, f1, cospan)


class TestParseFormat:
    def test_identity_permutation_is_omitted(self):
        a = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
        assert og.format_arrow(a) == "(. .)"
        b = og.parse_arrow("p[1,0] ; (. .)", TREE2)
        assert og.format_arrow(b) == "p[1,0] ; (. .)"

    def test_round_trip_randomized(self):
        rng = random.Random(11)
        for config in (TREE2, CUBE2, PLANAR2):
            for _ in range(30):
                a = random_arrow(config, rng, coords=rng.randrange(1, 3), gens=rng.randrange(4))
                assert og.arrow_eq(og.parse_arrow(og.format_arrow(a), config), a)

    def test_parse_rejects_garbage(self):
        for text in ("", ";", "p[1,0]", "p[0,2] ; (. .)", "(. .) ; p[1,0]"):
            with pytest.raises(og.ParseError):
                og.parse_arrow(text, TREE2)
