"""The unit laws answered in closed form agree with the general paths.

``compose`` with a permutation arrow on either side, ``act`` on a class
whose arrow is the identity, ``Arrow.is_identity`` and the n-condition each
skip work that the identity already gives; here each is checked against the
general construction it replaces, over random pools on every backend shape.
``ma_subset`` takes its one general path on an identity leg too, and is
checked there against ``ma_subset_with``.
"""

import random

import operad_groups as og
from helpers import (
    CUBE1,
    CUBE2,
    CUBE3,
    PLANAR2,
    TREE2,
    TREE3,
    act_through_fill,
    random_arrow,
    random_marking,
    random_span,
    reference_compose,
    reference_n_condition,
)

CONFIGS = (TREE2, TREE3, PLANAR2, CUBE1, CUBE2, CUBE3)


def random_perm_arrow(config, rng, degree):
    imgs = list(range(degree))
    if config.flavor == og.SYMMETRIC:
        rng.shuffle(imgs)
    return og.perm_arrow(config, og.Permutation(tuple(imgs)))


def pool(config, seed, count=60):
    """Random arrows into base words of lengths 1 and 2."""
    rng = random.Random(seed)
    return [
        random_arrow(config, rng, coords=1 + i % 2, gens=rng.randrange(4))
        for i in range(count)
    ]


def old_is_identity(a):
    return a.perm.is_identity() and all(op.is_identity() for op in a.forest)


class TestCompose:
    def test_a_permutation_arrow_first_matches_the_general_path(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(100 + n)
            for b in pool(config, n):
                a = random_perm_arrow(config, rng, b.domain_len)
                assert a.is_permutation()
                assert og.arrow_eq(og.compose(a, b), reference_compose(a, b)), (str(a), str(b))

    def test_a_permutation_arrow_second_matches_the_general_path(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(200 + n)
            for a in pool(config, 10 + n):
                b = random_perm_arrow(config, rng, a.codomain_len)
                assert og.arrow_eq(og.compose(a, b), reference_compose(a, b)), (str(a), str(b))

    def test_two_permutation_arrows_multiply(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(300 + n)
            for degree in (0, 1, 2, 3, 5):
                a = random_perm_arrow(config, rng, degree)
                b = random_perm_arrow(config, rng, degree)
                composite = og.compose(a, b)
                assert og.arrow_eq(composite, reference_compose(a, b))
                assert og.arrow_eq(composite, og.perm_arrow(config, a.perm * b.perm))

    def test_other_arrows_are_not_permutation_arrows(self):
        for n, config in enumerate(CONFIGS):
            for a in pool(config, 20 + n):
                assert a.is_permutation() == all(op.arity == 1 for op in a.forest)


class TestIsIdentity:
    def test_agrees_with_the_operation_by_operation_test(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(400 + n)
            arrows = pool(config, 30 + n)
            arrows += [random_perm_arrow(config, rng, d) for d in (0, 1, 2, 4)]
            arrows += [og.Arrow.identity(config, d) for d in (0, 1, 3)]
            for a in arrows:
                assert a.is_identity() == old_is_identity(a), str(a)


class TestMaSubset:
    def test_an_identity_leg_gives_the_filling_verdict(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(500 + n)
            for a in pool(config, 40 + n):
                p = og.MarkedArrow(a, random_marking(config, rng, a.domain_len))
                identity = og.Arrow.identity(config, a.codomain_len)
                q = og.MarkedArrow(identity, random_marking(config, rng, a.codomain_len))
                for x, y in ((p, q), (q, p), (q, q)):
                    filling = og.square_fill(x.arrow, y.arrow)
                    assert og.ma_subset(x, y) == og.ma_subset_with(x, y, filling), (
                        str(x),
                        str(y),
                    )


def outcome(f, *args):
    """A result, or the type and text of the error raised instead."""
    try:
        return f(*args)
    except og.OperadError as exc:
        return type(exc), str(exc)


class TestAct:
    def test_an_identity_class_gives_the_filling_class(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(600 + n)
            for i in range(60):
                g = random_span(config, rng, coords=1 + i % 2)
                # every third class sits over the other base length
                base = g.base_len if i % 3 else 3 - g.base_len
                identity = og.Arrow.identity(config, base)
                S = og.SemiPartitionClass(
                    og.MarkedArrow(identity, random_marking(config, rng, base))
                )
                assert outcome(og.act, g, S) == outcome(act_through_fill, g, S), (
                    str(g),
                    str(S),
                )

    def test_the_sweeps_identity_classes_give_the_filling_class(self):
        # balls at a whole coordinate and trivial partitions, as the
        # certificates and the poset build them, over bases of 1 to 3
        for n, config in enumerate(CONFIGS):
            rng = random.Random(650 + n)
            whole = og.Box.whole(config.dim)
            for base in (1, 2, 3):
                classes = [og.trivial_partition(config, base)]
                classes += [og.ball_at(config, base, j, whole) for j in range(base)]
                for _ in range(10):
                    g = random_span(config, rng, coords=base)
                    for S in classes:
                        assert S.rep.arrow.is_identity()
                        assert og.act(g, S) == act_through_fill(g, S), (str(g), str(S))

    def test_an_identity_class_builds_no_filling(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(700 + n)
            og.square_fill.cache_clear()
            for i in range(20):
                g = random_span(config, rng, coords=1 + i % 2)
                identity = og.Arrow.identity(config, g.base_len)
                marking = random_marking(config, rng, g.base_len)
                og.act(g, og.SemiPartitionClass(og.MarkedArrow(identity, marking)))
            info = og.square_fill.cache_info()
            assert info.hits + info.misses == 0

    def test_other_classes_still_take_the_filling(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(800 + n)
            for i, a in enumerate(pool(config, 50 + n)):
                g = random_span(config, rng, coords=a.codomain_len)
                S = og.SemiPartitionClass(
                    og.MarkedArrow(a, random_marking(config, rng, a.domain_len))
                )
                assert og.act(g, S) == act_through_fill(g, S), (str(g), str(S))


class TestNCondition:
    def test_counts_each_symbol_as_its_submultiball_does(self):
        budgets = {TREE2: 3, TREE3: 2, PLANAR2: 3, CUBE1: 3, CUBE2: 2, CUBE3: 1}
        for config, depth in budgets.items():
            for base in (1, 2):
                for forest in og.forests_up_to(config, base, depth):
                    arrow = og.Arrow.from_forest(config, forest)
                    for marking in og.full_markings(config, arrow.domain_len):
                        P = og.SemiPartitionClass(og.MarkedArrow(arrow, marking))
                        for y in (1, 2, 3):
                            for n in (1, 2, 3):
                                assert og.n_condition(P, y, n) == reference_n_condition(
                                    P, y, n
                                ), (str(P), y, n)
