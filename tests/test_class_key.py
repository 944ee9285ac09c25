"""The canonical class key and the structural identity test against their
references: class_key agrees with sp_class_eq and tests only the axes that
some cell cuts (pinned by counts), and sp_is_identity agrees with sp_eq
against the identity and with the grid oracle."""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

import operad_groups as og
from operad_groups.cli import main
from helpers import (
    CUBE2,
    CUBE3,
    PLANAR2,
    TREE2,
    TREE3,
    all_marked,
    grid_eq,
    random_arrow,
    random_span,
    reference_class_key,
)

CONFIGS = (TREE2, TREE3, PLANAR2, CUBE2, CUBE3)


def random_marking(config, rng, n):
    """A partial marking with up to three symbols; contiguous runs when planar."""
    names = [None, "a", "b", "c"]
    if config.flavor == og.PLANAR:
        symbols, s = [], 0
        while len(symbols) < n:
            run = rng.randint(1, n - len(symbols))
            symbols += [None if rng.random() < 0.3 else s] * run
            s += 1
        return og.Marking(tuple(symbols))
    return og.Marking(tuple(rng.choice(names[: rng.randint(2, 4)]) for _ in range(n)))


def refined_copy(ma, rng):
    """Another representative of the same class: refine the arrow further
    and pull the marking back along the refinement."""
    r = random_arrow(ma.config, rng, coords=ma.arrow.domain_len, gens=rng.randint(1, 3))
    return og.MarkedArrow(og.compose(r, ma.arrow), og.pull_back(r, ma.marking))


def class_pool(config, rng, base_len):
    """Random classes over one base, with refined copies and one-symbol
    variants, so that both equal and nearly equal pairs occur."""
    pool = []
    for _ in range(3):
        arrow = random_arrow(config, rng, coords=base_len, gens=rng.randint(0, 3))
        ma = og.MarkedArrow(arrow, random_marking(config, rng, arrow.domain_len))
        pool.append(ma)
        pool.append(refined_copy(ma, rng))
        symbols = list(ma.marking.symbols)
        i = rng.randrange(len(symbols))
        symbols[i] = None if symbols[i] is not None else symbols[i - 1]
        try:
            pool.append(og.MarkedArrow(arrow, og.Marking(tuple(symbols))))
        except og.FlavorError:
            pass  # the variant broke a planar run
    return [og.SemiPartitionClass(ma) for ma in pool]


class TestClassKey:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**30))
    def test_key_equality_is_class_equality(self, seed):
        rng = random.Random(seed)
        for config in CONFIGS:
            for base_len in (1, 2):
                pool = class_pool(config, rng, base_len)
                keys = [og.class_key(P) for P in pool]
                for i, P in enumerate(pool):
                    for j in range(i, len(pool)):
                        assert (keys[i] == keys[j]) == og.sp_class_eq(P, pool[j]), (
                            str(P),
                            str(pool[j]),
                        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**30))
    def test_the_old_split_rule_induces_the_same_equality(self, seed):
        rng = random.Random(seed)
        for config in CONFIGS:
            for base_len in (1, 2):
                pool = class_pool(config, rng, base_len)
                keys = [og.class_key(P) for P in pool]
                old = [reference_class_key(P) for P in pool]
                for i in range(len(pool)):
                    for j in range(i, len(pool)):
                        assert (keys[i] == keys[j]) == (old[i] == old[j]), (
                            str(pool[i]),
                            str(pool[j]),
                        )

    def test_a_ball_cut_once_keys_in_three_nodes_for_every_dim(self):
        for dim in (1, 2, 3, 8, 64):
            config = og.BackendConfig.cube(dim)
            cell = og.Box((0,) * (dim - 1) + (1,), (0,) * (dim - 1) + (1,))
            assert og.class_key(og.ball_at(config, 1, 0, cell)) == ((dim - 1, None, 0),)

    def test_only_cut_axes_are_tested_for_variation(self, monkeypatch, capsys):
        calls = []
        varies_along = og.markings._varies_along

        def counted(*args):
            calls.append(args)
            return varies_along(*args)

        monkeypatch.setattr(og.markings, "_varies_along", counted)
        # a ball cut along the last axis only: no other axis is cut
        config = og.BackendConfig.cube(64)
        cell = og.Box((0,) * 63 + (1,), (0,) * 63 + (1,))
        assert og.class_key(og.ball_at(config, 1, 0, cell)) == ((63, None, 0),)
        assert len(calls) == 0
        assert main(["--backend", "cube:d=32", "partition", "list", "--depth", "2"]) == 0
        capsys.readouterr()
        assert len(calls) == 15_841

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**30))
    def test_refined_copies_share_the_key(self, seed):
        rng = random.Random(seed)
        for config in CONFIGS:
            for base_len in (1, 2):
                arrow = random_arrow(config, rng, coords=base_len, gens=rng.randint(0, 3))
                ma = og.MarkedArrow(arrow, random_marking(config, rng, arrow.domain_len))
                copy = refined_copy(refined_copy(ma, rng), rng)
                P, Q = og.SemiPartitionClass(ma), og.SemiPartitionClass(copy)
                assert og.class_key(P) == og.class_key(Q)
                assert hash(og.class_key(P)) == hash(og.class_key(Q))

    def test_exhaustive_small_tree_classes(self):
        # every marked arrow over one coordinate with at most two carets
        groups = {}
        for ma in all_marked(TREE2, 1, 2):
            P = og.SemiPartitionClass(ma)
            key = og.class_key(P)
            for other_key, rep in groups.items():
                assert (key == other_key) == og.sp_class_eq(P, rep)
            groups.setdefault(key, P)
        assert len(groups) > 10

    def test_key_ignores_symbol_names_but_not_regions(self):
        a = og.SemiPartitionClass(og.parse_marked_arrow("(. .) @ m[0:a 1:b]", TREE2))
        b = og.SemiPartitionClass(og.parse_marked_arrow("(. .) @ m[0:b 1:a]", TREE2))
        c = og.SemiPartitionClass(og.parse_marked_arrow("p[1,0] ; (. .) @ m[0:a 1:-]", TREE2))
        d = og.SemiPartitionClass(og.parse_marked_arrow("(. .) @ m[0:- 1:a]", TREE2))
        assert og.class_key(a) == og.class_key(b)
        assert og.class_key(c) == og.class_key(d)
        assert og.class_key(a) != og.class_key(d)


def identity_cases(config, rng):
    """Random elements and elements known to be trivial in other shapes."""
    g = random_span(config, rng, coords=rng.randint(1, 2), max_gens=3)
    yield g
    yield og.sp_mul(g, og.sp_inv(g))
    yield og.sp_mul(og.sp_inv(g), g)
    a = random_arrow(config, rng, coords=g.base_len, gens=rng.randint(0, 3))
    yield og.Span(a, a)
    if config.flavor == og.SYMMETRIC:
        imgs = list(range(a.domain_len))
        rng.shuffle(imgs)
        yield og.Span(a, og.Arrow(config, og.Permutation(tuple(imgs)), a.forest))
        for n in (1, 2, 3):
            yield og.sp_pow(og.make_gamma2(config), n)


class TestStructuralIdentity:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**30))
    def test_agrees_with_sp_eq_and_the_grid_oracle(self, seed):
        rng = random.Random(seed)
        for config in (TREE2, TREE3, PLANAR2, CUBE2):
            for g in identity_cases(config, rng):
                one = og.sp_identity(config, g.base_len)
                verdict = og.sp_is_identity(g)
                assert verdict == og.sp_eq(g, one) == grid_eq(g, one), str(g)
