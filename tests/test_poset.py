"""Split/progressive predicates, the n-condition, and poset truncations."""

import itertools
import random

import pytest

import operad_groups as og
from helpers import CUBE1, CUBE2, PLANAR2, TREE2, TREE3, random_span, reference_check_filtered


class TestPredicates:
    def test_split_needs_a_positive_length_and_a_real_generator(self):
        assert og.is_split(TREE2, 1)
        assert og.is_split(CUBE2, 3)
        assert not og.is_split(TREE2, 0)

    def test_progressive(self):
        assert og.is_progressive(TREE2, 1)
        assert not og.is_progressive(TREE2, 0)

    def test_y_progressive_samples(self):
        assert og.is_y_progressive(TREE2, 1, 1, 3)
        assert og.is_y_progressive(TREE2, 1, 2, 2)
        assert og.is_y_progressive(TREE2, 2, 2, 2)
        assert og.is_y_progressive(CUBE2, 1, 2, 2)
        assert not og.is_y_progressive(TREE2, 0, 1, 2)
        assert not og.is_y_progressive(TREE2, 1, 0, 2)


class TestConstruct:
    def test_two_ball_example(self):
        P = og.construct_partition_n(TREE2, 1, 1, 1)
        assert str(P.rep) == "(. .) @ m[0:a 1:b]"

    def test_cube_example(self):
        P = og.construct_partition_n(CUBE2, 1, 1, 2)
        assert str(P.rep) == "{b(1:0,0:0),b(1:1,0:0)} @ m[0:a 1:b]"

    def test_satisfies_the_n_condition(self):
        for config in (TREE2, TREE3, CUBE1, CUBE2):
            for y in (1, 2):
                for n in range(1, 5):
                    P = og.construct_partition_n(config, 1, y, n)
                    assert og.n_condition(P, y, n), (str(config), y, n)

    def test_rejects_bad_parameters(self):
        with pytest.raises(og.NotSplitError):
            og.construct_partition_n(TREE2, 1, 0, 1)
        with pytest.raises(og.NotSplitError):
            og.construct_partition_n(TREE2, 0, 1, 1)


class TestNCondition:
    def test_counts_equivalent_balls(self):
        P = og.SemiPartitionClass(
            og.parse_marked_arrow("(. .) @ m[0:a 1:b]", TREE2)
        )
        assert og.n_condition(P, 1, 2)
        assert not og.n_condition(P, 1, 3)
        # with k=2 every positive object length is equivalent to every other,
        # so a k=3 backend is needed to see the target length y matter
        P3 = og.SemiPartitionClass(
            og.parse_marked_arrow("(. . .) @ m[0:a 1:b 2:c]", TREE3)
        )
        assert og.n_condition(P3, 1, 3)
        assert not og.n_condition(P3, 2, 1)

    def test_requires_a_partition(self):
        S = og.SemiPartitionClass(og.parse_marked_arrow("(. .) @ m[0:a 1:-]", TREE2))
        with pytest.raises(og.NotPartitionError):
            og.n_condition(S, 1, 1)

    def test_invariant_under_the_group_action(self):
        rng = random.Random(30)
        T = og.enumerate_pn(TREE2, 1, 2, 1, 1)
        for P in T.elements:
            for _ in range(10):
                g = random_span(TREE2, rng)
                for n in (1, 2):
                    assert og.n_condition(og.act(g, P), 1, n) == og.n_condition(
                        P, 1, n
                    )


class TestRefine:
    def test_common_refinement_with_the_n_condition(self):
        T = og.enumerate_pn(TREE2, 1, 2, 1, 2)
        for P, Q in itertools.combinations(T.elements, 2):
            R = og.refine_to_n(P, Q, 1, 2)
            assert og.class_subset(R, P)
            assert og.class_subset(R, Q)
            assert og.n_condition(R, 1, 2)

    def test_requires_partitions(self):
        P = og.construct_partition_n(TREE2, 1, 1, 1)
        S = og.SemiPartitionClass(og.parse_marked_arrow("(. .) @ m[0:a 1:-]", TREE2))
        with pytest.raises(og.NotPartitionError):
            og.refine_to_n(P, S, 1, 1)


class TestEnumerate:
    def test_class_counts(self):
        assert len(og.enumerate_pn(TREE2, 1, 1, 1, 1).elements) == 2
        assert len(og.enumerate_pn(TREE2, 1, 0, 1, 1).elements) == 1
        assert len(og.enumerate_pn(TREE2, 1, 1, 1, 3).elements) == 0
        assert len(og.enumerate_pn(TREE2, 1, 2, 1, 1).elements) == 8
        assert len(og.enumerate_pn(TREE2, 1, 2, 1, 2).elements) == 7
        assert len(og.enumerate_pn(CUBE1, 1, 2, 1, 1).elements) == 8
        assert len(og.enumerate_pn(CUBE2, 1, 1, 1, 1).elements) == 3
        assert len(og.enumerate_pn(CUBE2, 1, 2, 1, 1).elements) == 23

    def test_depth_one_representatives(self):
        T = og.enumerate_pn(TREE2, 1, 1, 1, 1)
        assert [str(P.rep) for P in T.elements] == [
            "(. .) @ m[0:a 1:a]",
            "(. .) @ m[0:a 1:b]",
        ]

    def test_elements_are_deduplicated(self):
        T = og.enumerate_pn(TREE2, 1, 2, 1, 1)
        for P, Q in itertools.combinations(T.elements, 2):
            assert not og.sp_class_eq(P, Q)

    def test_every_element_satisfies_the_n_condition(self):
        T = og.enumerate_pn(TREE2, 1, 2, 1, 2)
        assert all(og.n_condition(P, 1, 2) for P in T.elements)

    def test_the_candidate_cap_holds_at_its_value(self, monkeypatch):
        # tree:k=2 at depth 4 tries 816 full markings over its forests
        count = len(og.enumerate_pn(TREE2, 1, 4, 1, 1).elements)
        monkeypatch.setattr(og.poset, "MAX_PARTITION_CANDIDATES", 816)
        assert len(og.enumerate_pn(TREE2, 1, 4, 1, 1).elements) == count
        monkeypatch.setattr(og.poset, "MAX_PARTITION_CANDIDATES", 815)
        with pytest.raises(og.ParseError, match="at least 816 partition candidates exceed the cap 815"):
            og.enumerate_pn(TREE2, 1, 4, 1, 1)

    def test_the_golden_truncations_stay_under_the_cap(self):
        for config, depth in ((TREE2, 5), (TREE3, 3), (CUBE2, 3)):
            assert og.enumerate_pn(config, 1, depth, 1, 1).elements

    def test_more_candidates_are_refused_before_any_is_built(self):
        cap = og.MAX_PARTITION_CANDIDATES
        for config, base, depth in ((TREE2, 1, 6), (og.BackendConfig.tree(4), 1, 3), (TREE2, 5000, 0)):
            with pytest.raises(og.ParseError, match=f"partition candidates exceed the cap {cap}"):
                og.enumerate_pn(config, base, depth, 1, 1)


class TestTruncationOrder:
    def test_coarser_partitions_sit_below(self):
        T = og.enumerate_pn(TREE2, 1, 1, 1, 1)
        trivial, split = T.elements
        assert T.leq(trivial, split)
        assert not T.leq(split, trivial)
        assert T.leq(trivial, trivial)

    def test_antisymmetry_on_deduplicated_elements(self):
        T = og.enumerate_pn(TREE2, 1, 2, 1, 1)
        for P, Q in itertools.combinations(T.elements, 2):
            assert not (T.leq(P, Q) and T.leq(Q, P))

    def test_transitivity(self):
        T = og.enumerate_pn(TREE2, 1, 2, 1, 1)
        els = T.elements
        for P, Q, R in itertools.product(els, repeat=3):
            if T.leq(P, Q) and T.leq(Q, R):
                assert T.leq(P, R)


class TestCheckFiltered:
    def test_zero_failures_with_frozen_pair_counts(self):
        expected = {
            (TREE2, 2, 1): 28,
            (TREE2, 2, 2): 21,
            (CUBE1, 2, 2): 21,
            (CUBE2, 2, 1): 253,
        }
        for (config, depth, n), pairs in expected.items():
            report = og.check_filtered(og.enumerate_pn(config, 1, depth, 1, n))
            assert report.ok, report.failures()
            assert len(report.rows) == pairs

    def test_report_rows_name_the_pairs(self):
        report = og.check_filtered(og.enumerate_pn(TREE2, 1, 1, 1, 1))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["ok"] and {"p", "q", "upper_bound"} <= set(row)

    def test_one_upper_bound_per_pair_of_arrows(self, monkeypatch):
        calls = []
        refine = og.poset.refine_to_n

        def counted(P, Q, y, n):
            calls.append((P.rep.arrow, Q.rep.arrow))
            return refine(P, Q, y, n)

        monkeypatch.setattr(og.poset, "refine_to_n", counted)
        for config, depth, expected in ((TREE2, 3, 15), (CUBE2, 2, 62)):
            calls.clear()
            report = og.check_filtered(og.enumerate_pn(config, 1, depth, 1, 1))
            assert len(calls) == len(set(calls)) == expected
            assert len(report.rows) > expected

    def test_two_fills_per_pair_and_one_per_refined_pair(self):
        # poset filtered --depth 3: 55 classes, 1,485 pairs and 15 distinct
        # pairs of arrows; each pair asks class_subset(R, P) and
        # class_subset(R, Q), and each refinement fills once
        T = og.enumerate_pn(TREE2, 1, 3, 1, 1)
        og.square_fill.cache_clear()
        report = og.check_filtered(T)
        info = og.square_fill.cache_info()
        assert len(T.elements) == 55 and len(report.rows) == 1485
        assert info.hits + info.misses == 2 * 1485 + 15 == 2985

    def test_rows_match_the_pair_by_pair_loop(self):
        for config, depth in ((TREE2, 2), (TREE2, 3), (PLANAR2, 3), (CUBE2, 2)):
            T = og.enumerate_pn(config, 1, depth, 1, 1)
            assert og.check_filtered(T).rows == reference_check_filtered(T)

    def test_the_pair_cap_holds_at_its_value(self, monkeypatch):
        T = og.enumerate_pn(TREE2, 1, 2, 1, 1)  # 8 classes, 28 pairs
        monkeypatch.setattr(og.poset, "MAX_POSET_PAIRS", 28)
        assert len(og.check_filtered(T).rows) == 28
        monkeypatch.setattr(og.poset, "MAX_POSET_PAIRS", 27)
        with pytest.raises(og.ParseError, match="28 pairs of 8 classes exceed the cap 27"):
            og.check_filtered(T)

    def test_larger_truncations_are_refused_before_the_pair_loop(self):
        T = og.enumerate_pn(TREE2, 1, 4, 1, 1)
        assert len(T.elements) == 513
        message = f"131328 pairs of 513 classes exceed the cap {og.MAX_POSET_PAIRS}"
        with pytest.raises(og.ParseError, match=message):
            og.check_filtered(T)
