"""Markings, the marked-arrow preorder, classes, and multiballs.

The preorder and ball recognition are both checked against independent
geometric oracles from helpers.py on exhaustively enumerated inputs.
"""

import itertools
import random

import pytest

import operad_groups as og
from helpers import (
    CUBE1,
    CUBE2,
    CUBE3,
    PLANAR2,
    TREE2,
    TREE3,
    all_marked,
    identity_multiballs,
    oracle_is_ball,
    oracle_ma_subset,
    random_arrow,
)


class TestMarking:
    def test_symbols_are_relabeled_by_first_occurrence(self):
        assert og.Marking((5, None, 5, 2)).symbols == (0, None, 0, 1)
        assert og.Marking(("b", "a", "b")).symbols == (0, 1, 0)

    def test_counts_and_support(self):
        m = og.Marking((0, None, 1, 0))
        assert m.symbol_count == 2
        assert m.support(0) == (0, 3)
        assert m.support(1) == (2,)
        assert not m.is_full()
        assert og.Marking((0, 0)).is_full()

    def test_parse_format_round_trip(self):
        m = og.Marking((0, None, 1))
        assert og.format_marking(m) == "m[0:a 1:- 2:b]"
        assert og.parse_marking(og.format_marking(m)) == m

    def test_parse_rejects_bad_entries(self):
        for text in ("m[0:a 0:b]", "m[5:a]", "m[0:a", "entries"):
            with pytest.raises(og.ParseError):
                og.parse_marking(text)


class TestPullBack:
    def test_marks_flow_along_the_footprint(self):
        caret = og.op_generator(TREE2)
        arrow = og.Arrow.from_forest(TREE2, (caret, og.op_identity(TREE2)))
        assert og.pull_back(arrow, og.Marking((0, 1))) == og.Marking((0, 0, 1))
        assert og.pull_back(arrow, og.Marking((None, 0))) == og.Marking((None, None, 0))

    def test_the_permutation_reroutes_the_marks(self):
        arrow = og.parse_arrow("p[2,0,1] ; (. .),.", TREE2)
        # domain coordinates 0,1 land in the caret block only if the
        # permutation sends them there
        assert og.pull_back(arrow, og.Marking((0, 1))) == og.Marking((1, 0, 0))

    def test_length_must_match_the_codomain(self):
        caret = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
        with pytest.raises(og.LengthError):
            og.pull_back(caret, og.Marking((0, 1)))

    def test_pull_back_is_functorial(self):
        rng = random.Random(12)
        for _ in range(30):
            b = random_arrow(TREE2, rng, coords=2, gens=rng.randrange(3))
            a = random_arrow(TREE2, rng, coords=b.domain_len, gens=rng.randrange(3))
            marking = og.Marking(tuple(rng.choice([None, 0, 1]) for _ in range(2)))
            assert og.pull_back(og.compose(a, b), marking) == og.pull_back(
                a, og.pull_back(b, marking)
            )


class TestMarkingSubset:
    def test_each_symbol_needs_one_covering_symbol(self):
        assert og.marking_subset(og.Marking((0, None)), og.Marking((0, 0)))
        assert og.marking_subset(og.Marking((0, 1)), og.Marking((0, 0)))
        assert not og.marking_subset(og.Marking((0, 0)), og.Marking((0, 1)))
        assert not og.marking_subset(og.Marking((0, None)), og.Marking((None, 0)))
        assert og.marking_subset(og.Marking((None, None)), og.Marking((0, 1)))


class TestMarkedArrow:
    def test_marking_length_must_match_the_domain(self):
        caret = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
        with pytest.raises(og.LengthError):
            og.MarkedArrow(caret, og.Marking((0,)))

    def test_planar_markings_must_be_contiguous(self):
        caret = og.Arrow.from_forest(PLANAR2, (og.op_comb(PLANAR2, 2),))
        og.MarkedArrow(caret, og.Marking((0, 0, 1)))
        with pytest.raises(ValueError):
            og.MarkedArrow(caret, og.Marking((0, 1, 0)))

    def test_parse_format_round_trip(self):
        text = "p[1,0] ; (. .) @ m[0:a 1:-]"
        ma = og.parse_marked_arrow(text, TREE2)
        assert str(ma) == text


class TestPreorder:
    def test_agrees_with_the_geometric_oracle_exhaustively(self):
        for config in (TREE2, CUBE2):
            marked = list(all_marked(config, 1, 1))
            for p, q in itertools.product(marked, repeat=2):
                assert og.ma_subset(p, q) == oracle_ma_subset(p, q), (str(p), str(q))

    def test_verdict_does_not_depend_on_the_filling(self):
        rng = random.Random(13)
        marked = list(all_marked(TREE2, 1, 1))
        for p, q in itertools.product(marked, repeat=2):
            b1, b2 = og.square_fill(p.arrow, q.arrow)
            step = og.Arrow.from_forest(
                TREE2,
                (og.op_generator(TREE2),)
                + (og.op_identity(TREE2),) * (b1.domain_len - 1),
            )
            deeper = (og.compose(step, b1), og.compose(step, b2))
            assert og.ma_subset_with(p, q, deeper) == og.ma_subset(p, q)

    def test_rejects_non_fillings(self):
        p = og.parse_marked_arrow("(. .) @ m[0:a 1:-]", TREE2)
        q = og.parse_marked_arrow("(. .) @ m[0:- 1:a]", TREE2)
        caret = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),) * 2)
        swapped = og.parse_arrow("p[2,3,0,1] ; (. .),(. .)", TREE2)
        with pytest.raises(og.NotFillingsError):
            og.ma_subset_with(p, q, (caret, swapped))

    def test_comparisons_need_a_common_base(self):
        p = og.parse_marked_arrow("(. .) @ m[0:a 1:-]", TREE2)
        q = og.parse_marked_arrow("(. .),. @ m[0:a 1:- 2:-]", TREE2)
        with pytest.raises(og.OperadError):
            og.ma_subset(p, q)


class TestClasses:
    def test_representatives_carry_the_identity_permutation(self):
        ma = og.parse_marked_arrow("p[1,0] ; (. .) @ m[0:a 1:-]", TREE2)
        S = og.SemiPartitionClass(ma)
        assert S.rep.arrow.perm == og.Permutation((0, 1))
        assert str(S.rep) == "(. .) @ m[0:- 1:a]"

    def test_refining_the_representative_stays_in_the_class(self):
        rng = random.Random(14)
        for config in (TREE2, CUBE2):
            for ma in itertools.islice(all_marked(config, 1, 2), 0, 60, 7):
                S = og.SemiPartitionClass(ma)
                u = random_arrow(config, rng, coords=ma.arrow.domain_len, gens=2)
                refined = og.MarkedArrow(
                    og.compose(u, ma.arrow), og.pull_back(u, ma.marking)
                )
                assert og.sp_class_eq(S, og.SemiPartitionClass(refined))

    def test_class_equality_is_mutual_containment(self):
        marked = list(all_marked(TREE2, 1, 1))
        for p, q in itertools.product(marked, repeat=2):
            expected = og.ma_subset(p, q) and og.ma_subset(q, p)
            got = og.sp_class_eq(og.SemiPartitionClass(p), og.SemiPartitionClass(q))
            assert got == expected


class TestBalls:
    def test_every_standard_cell_gives_a_ball(self):
        for config in (TREE2, CUBE2):
            for B in og.all_balls(config, 1, 2):
                assert og.is_ball(B)

    def test_ball_counts(self):
        assert sum(1 for _ in og.all_balls(TREE2, 1, 2)) == 7
        assert sum(1 for _ in og.all_balls(CUBE2, 1, 1)) == 5

    def test_agrees_with_the_search_oracle_exhaustively(self):
        for config in (TREE2, CUBE2):
            for ma in all_marked(config, 1, 2):
                if ma.marking.symbol_count != 1:
                    continue
                B = og.SemiPartitionClass(ma)
                assert og.is_ball(B) == oracle_is_ball(B), str(ma)
        pools = (
            (TREE3, 1, 2),
            (PLANAR2, 1, 3),
            (CUBE1, 1, 3),
            (CUBE3, 1, 2),
            (TREE2, 2, 2),
            (TREE3, 2, 1),
            (CUBE1, 2, 2),
            (CUBE2, 2, 2),
            (CUBE3, 2, 1),
        )
        for config, coords, gens in pools:
            for B in identity_multiballs(config, coords, gens):
                assert og.is_ball(B) == oracle_is_ball(B), str(B)

    def test_recognizes_a_reassembled_square(self):
        # two stacked halves of the square form a ball; an L of three
        # quarters does not
        comb = og.Arrow.from_forest(CUBE2, (og.op_generator(CUBE2, 0),))
        assert og.is_ball(og.SemiPartitionClass(og.MarkedArrow(comb, og.Marking((0, 0)))))
        quads = og.op_compose(
            og.op_generator(CUBE2, 0), 1, og.op_generator(CUBE2, 1)
        )
        arrow = og.Arrow.from_forest(CUBE2, (quads,))
        L = og.SemiPartitionClass(og.MarkedArrow(arrow, og.Marking((0, 0, None))))
        assert not og.is_ball(L)

    def test_spanning_two_codomain_coordinates_is_not_a_ball(self):
        assert not og.is_ball(og.trivial_partition(TREE2, 2))

    def test_multiple_symbols_are_not_a_multiball(self):
        S = og.SemiPartitionClass(og.parse_marked_arrow("(. .) @ m[0:a 1:b]", TREE2))
        with pytest.raises(og.NotMultiballError):
            og.is_ball(S)

    def test_ball_at_marks_the_requested_cell(self):
        B = og.ball_at(TREE2, 1, 0, og.Box((1,), (1,)))
        assert str(B.rep) == "(. .) @ m[0:- 1:a]"
        B2 = og.ball_at(TREE2, 2, 1, og.Box((1,), (0,)))
        assert str(B2.rep) == ". , (. .) @ m[0:- 1:a 2:-]"


class TestObjects:
    def test_tree_object_classes_live_mod_k_minus_one(self):
        assert og.object_equivalent(TREE2, 1, 5)
        assert og.object_equivalent(og.BackendConfig.tree(3), 1, 3)
        assert not og.object_equivalent(og.BackendConfig.tree(3), 1, 2)

    def test_cube_objects_of_positive_length_are_equivalent(self):
        assert og.object_equivalent(CUBE2, 1, 7)
        assert not og.object_equivalent(CUBE2, 0, 1)
        assert og.object_equivalent(CUBE2, 0, 0)

    def test_object_class_of_a_ball(self):
        B = og.ball_at(TREE2, 1, 0, og.Box((1,), (1,)))
        assert og.object_class(B) == 1


class TestSubmultiballs:
    def test_one_per_symbol_in_order(self):
        P = og.SemiPartitionClass(
            og.parse_marked_arrow("((. .) .) @ m[0:a 1:b 2:a]", TREE2)
        )
        subs = og.submultiballs(P)
        assert len(subs) == 2
        assert str(subs[0].rep) == "((. .) .) @ m[0:a 1:- 2:a]"
        assert str(subs[1].rep) == "((. .) .) @ m[0:- 1:a 2:-]"
        for sub in subs:
            assert og.class_subset(sub, P)


class TestEnumerations:
    def test_marking_counts(self):
        assert sum(1 for _ in og.full_markings(TREE2, 3)) == 5
        assert sum(1 for _ in og.full_markings(PLANAR2, 3)) == 4
        assert [sum(1 for _ in og.partial_markings(TREE2, n)) for n in (1, 2, 3)] == [
            2,
            5,
            15,
        ]
        assert sum(1 for _ in og.partial_markings(PLANAR2, 3)) == 13

    def test_planar_markings_are_the_ordered_ones_each_once(self):
        counts = []
        for n in range(7):
            planar = list(og.partial_markings(PLANAR2, n))
            assert len(set(planar)) == len(planar)
            ordered = {m for m in og.partial_markings(TREE2, n) if m.is_ordered()}
            assert set(planar) == ordered
            counts.append(len(planar))
        assert counts == [1, 2, 5, 13, 34, 89, 233]

    def test_marked_arrow_counts(self):
        assert sum(1 for _ in all_marked(TREE2, 1, 2)) == 192
        assert sum(1 for _ in all_marked(CUBE1, 1, 2)) == 192
        assert sum(1 for _ in all_marked(CUBE2, 1, 2)) == 742
