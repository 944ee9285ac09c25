"""Torsion, infinite-order, ping-pong, free-action, and padded certificates."""

import itertools

import pytest

import operad_groups as og
from helpers import (
    CUBE1,
    CUBE2,
    CUBE3,
    PLANAR2,
    TREE2,
    TREE3,
    reference_free_action_rows,
    reference_pingpong_pools,
    reference_sigma_span_rows,
)


def wrap(monkeypatch, module, name, calls):
    """Record the arguments of every call to ``module.name`` in ``calls``."""
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)


class TestTorsionElements:
    def test_involution(self):
        g1 = og.make_gamma1(TREE2)
        assert og.format_span(g1) == "(. .) | p[1,0] ; (. .)"
        assert og.sp_order(g1, 8) == 2
        assert og.sp_order(og.make_gamma1(TREE3), 8) == 2
        assert og.sp_order(og.make_gamma1(CUBE2), 8) == 2

    def test_three_cycle(self):
        g2 = og.make_gamma2(TREE2)
        assert og.format_span(g2) == "((. .) .) | p[2,0,1] ; ((. .) .)"
        assert og.sp_order(g2, 8) == 3
        assert og.sp_order(og.make_gamma2(TREE3), 8) == 3
        assert og.sp_order(og.make_gamma2(CUBE2), 8) == 3

    def test_order_makes_one_product_per_power_past_the_first(self, monkeypatch):
        # the n-th power is tested as made, and none past the bound is made
        products = []
        wrap(monkeypatch, og.spans, "sp_mul", products)
        for g, max_n, order, made in (
            (og.make_gamma1(TREE2), 4, 2, 1),
            (og.make_gamma2(TREE2), 4, 3, 2),
            (og.make_infinite_element(TREE2), 6, None, 5),
            (og.make_infinite_element(TREE2), 0, None, 0),
        ):
            products.clear()
            assert og.sp_order(g, max_n) == order
            assert len(products) == made, (og.format_span(g), max_n)

    def test_every_backend_splits_wide_enough(self):
        # the certificates build splits without a guard: every admitted
        # backend splits a single letter, and four left splits are wide
        # enough for the padded certificates
        configs = [og.BackendConfig.tree(k) for k in range(2, og.MAX_BACKEND_SIZE + 1)]
        configs += [og.BackendConfig.cube(d) for d in range(1, og.MAX_BACKEND_SIZE + 1)]
        for config in configs:
            assert og.is_split(config, 1), config
            assert og.op_comb(config, 4).arity >= 5, config

    def test_requires_the_symmetric_flavor(self):
        with pytest.raises(ValueError):
            og.make_gamma1(PLANAR2)
        with pytest.raises(ValueError):
            og.make_gamma2(PLANAR2)


class TestInfiniteOrder:
    def test_shift_element(self):
        g = og.make_infinite_element(TREE2)
        assert og.format_span(g) == "((. .) .) | (. (. .))"
        assert og.sp_order(g, 16) is None

    def test_powers_report(self):
        report = og.infinite_order_check(TREE2, 8)
        assert report.ok
        assert len(report.rows) == 8
        report_cube = og.infinite_order_check(CUBE1, 8)
        assert report_cube.ok

    def test_reports_are_reproducible(self):
        assert og.infinite_order_check(TREE2, 6).rows == og.infinite_order_check(
            TREE2, 6
        ).rows


class TestPingPong:
    def test_ball_pair(self):
        B1, B2 = og.pingpong_balls(TREE2)
        assert str(B1.rep) == "(. .) @ m[0:- 1:a]"
        assert str(B2.rep) == "(. .) @ m[0:a 1:-]"

    def test_moving_the_left_ball_right(self):
        g1 = og.make_gamma1(TREE2)
        B1, B2 = og.pingpong_balls(TREE2)
        assert og.sp_class_eq(og.act(g1, B2), B1)

    def test_check_at_small_depth(self):
        report = og.pingpong_check(TREE2, 2)
        assert report.ok
        assert len(report.rows) == 9
        assert all(row["ok"] for row in report.rows)

    def test_halves_split_the_pool_as_containment_does(self):
        for config, depth in ((TREE2, 6), (CUBE1, 4), (CUBE2, 4), (CUBE3, 4)):
            pools = og.certificates._pingpong_pools(config, depth)
            assert pools == tuple(reference_pingpong_pools(config, depth)), (str(config), depth)

    def test_rows_name_their_instances(self):
        report = og.pingpong_check(TREE2, 1)
        instances = {row["instance"] for row in report.rows}
        assert any("g1" in name for name in instances)
        assert any("g2" in name for name in instances)


class TestAlternatingWords:
    def test_specific_short_words(self):
        g1, g2 = og.make_gamma1(TREE2), og.make_gamma2(TREE2)
        assert not og.sp_is_identity(og.sp_mul(g1, g2))
        assert not og.sp_is_identity(og.sp_mul(g2, g1))
        assert not og.sp_is_identity(
            og.sp_mul(og.sp_mul(g1, g2), og.sp_mul(g1, og.sp_pow(g2, 2)))
        )

    def test_check_up_to_length_four(self):
        report = og.alternating_words_nontrivial(TREE2, 4)
        assert report.ok
        assert len(report.rows) == 21

    def test_reproducible(self):
        a = og.alternating_words_nontrivial(TREE2, 3)
        b = og.alternating_words_nontrivial(TREE2, 3)
        assert a.rows == b.rows


class TestFreeAction:
    def test_a_swap_never_fixes_an_arrow(self):
        # the permutation shuffles codomain coordinates, so the arrow needs
        # a codomain of length at least two
        arrow = og.Arrow.from_forest(
            TREE2, (og.op_generator(TREE2), og.op_identity(TREE2))
        )
        swap = og.Permutation((1, 0))
        moved = og.compose(arrow, og.perm_arrow(TREE2, swap))
        assert not og.arrow_eq(moved, arrow)

    def test_exhaustive_small_report(self):
        report = og.free_action_check(TREE2, 3, 2)
        assert report.ok
        assert len(report.rows) == 73

    def test_reproducible(self):
        assert og.free_action_check(TREE2, 3, 2).rows == og.free_action_check(TREE2, 3, 2).rows

    def test_rows_match_one_check_per_arrow_and_sigma(self):
        for config, max_perm, depth in ((TREE2, 3, 2), (TREE3, 3, 1), (CUBE2, 3, 1)):
            rows = og.free_action_check(config, max_perm, depth).rows
            assert rows == reference_free_action_rows(config, max_perm, depth), str(config)


class TestSigmaSpans:
    def test_identity_permutation_gives_the_identity_span(self):
        arrow = og.Arrow.from_forest(
            TREE2, (og.op_generator(TREE2), og.op_identity(TREE2))
        )
        assert og.sigma_span_check(arrow, og.Permutation((0, 1)))

    def test_nontrivial_permutation_gives_a_nontrivial_span(self):
        arrow = og.Arrow.from_forest(
            TREE2, (og.op_generator(TREE2), og.op_identity(TREE2))
        )
        assert not og.sigma_span_check(arrow, og.Permutation((1, 0)))

    def test_degree_must_match_the_codomain(self):
        arrow = og.Arrow.from_forest(
            TREE2, (og.op_generator(TREE2), og.op_identity(TREE2))
        )
        with pytest.raises(og.SizeMismatchError):
            og.sigma_span_check(arrow, og.Permutation((0, 1, 2)))

    def test_exhaustive_small_report(self):
        report = og.sigma_span_report(TREE2, 3, 2)
        assert report.ok
        assert len(report.rows) == 73

    def test_cube_report(self):
        assert og.sigma_span_report(CUBE2, 2, 1).ok

    def test_rows_match_one_check_per_arrow_and_sigma(self):
        for config, max_perm, depth in ((TREE2, 3, 2), (TREE3, 3, 1), (CUBE2, 3, 1)):
            rows = og.sigma_span_report(config, max_perm, depth).rows
            assert rows == reference_sigma_span_rows(config, max_perm, depth), str(config)


class TestSweepProbes:
    """``cert sigma --max-perm 4 --depth 3`` on tree:k=2 builds each
    non-identity sigma's arrow and ball once: 1 + 5 + 23 sigmas."""

    SIGMAS = [
        og.Permutation(p)
        for m in (2, 3, 4)
        for p in itertools.permutations(range(m))
        if p != tuple(range(m))
    ]

    def test_one_permutation_arrow_and_one_ball_per_sigma(self, monkeypatch):
        arrows, balls = [], []
        wrap(monkeypatch, og.certificates, "perm_arrow", arrows)
        wrap(monkeypatch, og.certificates, "ball_at", balls)
        assert og.sigma_span_report(TREE2, 4, 3).ok
        assert len(self.SIGMAS) == 29
        assert [sigma for _, sigma in arrows] == self.SIGMAS
        assert [(m, j) for _, m, j, _ in balls] == [
            (sigma.degree, next(j for j in range(sigma.degree) if sigma(j) != j))
            for sigma in self.SIGMAS
        ]

    def test_one_pull_back_per_identity_leg_class_equality(self, monkeypatch):
        pulls, identity_legs = [], []
        wrap(monkeypatch, og.markings, "pull_back", pulls)
        sp_class_eq = og.certificates.sp_class_eq

        def counted(P, Q):
            if P.rep.arrow.is_identity() or Q.rep.arrow.is_identity():
                identity_legs.append((P, Q))
            return sp_class_eq(P, Q)

        monkeypatch.setattr(og.certificates, "sp_class_eq", counted)
        report = og.sigma_span_report(TREE2, 4, 3)
        assert identity_legs and len(pulls) == len(identity_legs)
        assert len(identity_legs) == len(report.rows)

    def test_one_compose_per_row(self, monkeypatch):
        # one arrow per forest: the input permutation cannot change a row
        composites = []
        wrap(monkeypatch, og.certificates, "compose", composites)
        for check in (og.sigma_span_report, og.free_action_check):
            composites.clear()
            rows = check(TREE2, 4, 3).rows
            assert len(composites) == len(rows) == 1768, check.__name__

    def test_no_square_fill(self):
        # cert sigma and cert freeaction at --max-perm 4 --depth 3: every
        # class the sweeps act on or compare has an identity arrow
        for check in (og.sigma_span_report, og.free_action_check):
            og.square_fill.cache_clear()
            assert check(TREE2, 4, 3).ok
            info = og.square_fill.cache_info()
            assert info.hits + info.misses == 0, check.__name__


class TestSweepCap:
    # tree:k=2 within one generator: 3 forests of 2 operations, 4 of 3
    ROWS = 3 * 1 + 4 * 5

    def test_the_cap_holds_at_its_value(self, monkeypatch):
        monkeypatch.setattr(og.certificates, "MAX_SWEEP_ROWS", self.ROWS)
        assert len(og.sigma_span_report(TREE2, 3, 1).rows) == self.ROWS
        assert len(og.free_action_check(TREE2, 3, 1).rows) == self.ROWS
        monkeypatch.setattr(og.certificates, "MAX_SWEEP_ROWS", self.ROWS - 1)
        message = f"at least {self.ROWS} sweep rows exceed the cap {self.ROWS - 1}"
        for check in (og.sigma_span_report, og.free_action_check):
            with pytest.raises(og.ParseError, match=message):
                check(TREE2, 3, 1)

    def test_longer_sweeps_are_refused_before_any_row(self):
        message = f"sweep rows exceed the cap {og.MAX_SWEEP_ROWS}"
        for check in (og.sigma_span_report, og.free_action_check):
            with pytest.raises(og.ParseError, match=message):
                check(TREE2, 7, 1)
            with pytest.raises(og.ParseError, match=message):
                check(TREE2, 10**9, 10**6)

    def test_a_negative_budget_has_no_rows_at_any_length(self):
        assert og.sigma_span_report(TREE2, 10**9, -1).rows == ()


class TestPingPongCap:
    def test_the_closed_forms_count_the_rows(self):
        for config, depths in ((TREE2, range(-1, 7)), (CUBE1, range(5)), (CUBE2, range(4))):
            for depth in depths:
                rows = og.pingpong_check(config, depth).rows
                assert len(rows) == sum(og.certificates._pingpong_rows(config, depth))
        for max_len in range(-1, 9):
            rows = og.alternating_words_nontrivial(TREE2, max_len).rows
            assert len(rows) == sum(og.certificates._alternating_word_rows(max_len))

    def test_the_cap_holds_at_its_value(self, monkeypatch):
        # depth 2: 3 balls in each half; words of length up to 3: 3 + 4 + 6
        monkeypatch.setattr(og.certificates, "MAX_SWEEP_ROWS", 9)
        assert len(og.pingpong_check(TREE2, 2).rows) == 9
        monkeypatch.setattr(og.certificates, "MAX_SWEEP_ROWS", 13)
        assert len(og.alternating_words_nontrivial(TREE2, 3).rows) == 13
        monkeypatch.setattr(og.certificates, "MAX_SWEEP_ROWS", 12)
        with pytest.raises(og.ParseError, match="at least 13 alternating-word rows exceed the cap 12"):
            og.alternating_words_nontrivial(TREE2, 3)
        monkeypatch.setattr(og.certificates, "MAX_SWEEP_ROWS", 8)
        with pytest.raises(og.ParseError, match="at least 9 ping-pong rows exceed the cap 8"):
            og.pingpong_check(TREE2, 2)

    def test_deeper_sweeps_are_refused_before_any_ball_or_word(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("built past the cap")

        monkeypatch.setattr(og.certificates, "pingpong_balls", unreachable)
        monkeypatch.setattr(og.certificates, "_alternating_rows", unreachable)
        message = f"rows exceed the cap {og.MAX_SWEEP_ROWS}"
        for config in (TREE2, CUBE2):
            for depth in (13, 10**9):
                with pytest.raises(og.ParseError, match=message):
                    og.pingpong_check(config, depth)
        for max_len in (23, 10**9):
            with pytest.raises(og.ParseError, match=message):
                og.alternating_words_nontrivial(TREE2, max_len)
        # together, neither count lets the other report be made first
        for depth, max_len in ((2, 23), (13, 2)):
            with pytest.raises(og.ParseError, match=message):
                og.pingpong_reports(TREE2, depth, max_len)

    def test_both_reports_under_the_cap(self):
        reports = og.pingpong_reports(TREE2, 2, 3)
        assert [(r.check, len(r.rows)) for r in reports] == [
            ("pingpong", 9),
            ("alternating_words", 13),
        ]
        assert [r.check for r in og.pingpong_reports(TREE2, 2, 0)] == ["pingpong"]


class TestPaddedCertificates:
    def test_torsion_orders_survive_padding(self):
        assert og.sp_order(og.make_padded_gamma1(TREE2), 8) == 2
        assert og.sp_order(og.make_padded_gamma2(TREE2), 8) == 3

    def test_infinite_order_survives_padding(self):
        g = og.make_padded_infinite(TREE2)
        assert og.sp_order(g, 16) is None

    def test_full_check(self):
        for config in (TREE2, CUBE1):
            report = og.padded_certificates_check(config, 8)
            assert report.ok
            assert len(report.rows) == 24

    def test_padded_elements_differ_from_the_plain_ones(self):
        assert not og.sp_eq(
            og.make_padded_gamma1(TREE2), og.sp_identity(TREE2, 1)
        )
        plain = og.make_gamma1(TREE2)
        padded = og.make_padded_gamma1(TREE2)
        assert not og.sp_eq(plain, padded)
