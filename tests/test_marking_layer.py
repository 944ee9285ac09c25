"""The marking layer's one gather and one scatter agree with the references
they replace.

``pull_back`` (the gather), ``marking_subset``, the normalization of
class representatives (one scatter by ``Permutation.permute``) and
``sp_class_eq``, with or without an identity leg, are each checked
against the slower construction kept in ``tests/helpers.py``: the same
result, or the same typed error, over random arrows and markings on every
backend shape at base lengths 1 and 2.  ``ma_subset``, which decides on the gathered
symbol tuples without building a ``Marking``, is checked against the
references through its own square filling and against ``ma_subset_with``.
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
    random_arrow,
    random_marking,
    reference_marking_subset,
    reference_normalize,
    reference_pull_back,
    reference_sp_class_eq,
)

CONFIGS = (TREE2, TREE3, PLANAR2, CUBE1, CUBE2, CUBE3)
BASES = (1, 2)


def outcome(f, *args):
    """A result, or the error code and text raised instead."""
    try:
        return f(*args)
    except og.OperadError as exc:
        return exc.code, str(exc)


def arrows(config, seed, count=40):
    """Random arrows into base words of lengths 1 and 2."""
    rng = random.Random(seed)
    return [
        random_arrow(config, rng, coords=BASES[i % 2], gens=rng.randrange(4))
        for i in range(count)
    ]


class TestPullBack:
    def test_matches_the_slot_by_slot_reference(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(900 + n)
            for i, a in enumerate(arrows(config, 90 + n)):
                # every fourth comarking has the wrong length
                length = a.codomain_len + (1 if i % 4 == 0 else 0)
                m = random_marking(config, rng, length)
                got = outcome(og.pull_back, a, m)
                assert got == outcome(reference_pull_back, a, m), (str(a), str(m))

    def test_an_identity_permutation_needs_no_relabel(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(910 + n)
            for a in arrows(config, 91 + n):
                plain = og.Arrow.from_forest(config, a.forest)
                m = random_marking(config, rng, a.codomain_len)
                pulled = og.pull_back(plain, m)
                assert pulled.symbols == og.Marking(pulled.symbols).symbols


class TestMarkingSubset:
    def test_matches_the_per_symbol_reference(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(920 + n)
            for i in range(200):
                length = rng.randrange(1, 7)
                m1 = random_marking(config, rng, length)
                # every tenth pair has different lengths; every third
                # second marking is the first coarsened, so both verdicts occur
                if i % 10 == 0:
                    m2 = random_marking(config, rng, length + 1)
                elif i % 3 == 0:
                    m2 = og.Marking(tuple(None if s is None else s // 2 for s in m1.symbols))
                else:
                    m2 = random_marking(config, rng, length)
                for x, y in ((m1, m2), (m2, m1), (m1, m1)):
                    got = outcome(og.marking_subset, x, y)
                    assert got == outcome(reference_marking_subset, x, y), (str(x), str(y))


class TestNormalization:
    def test_matches_the_rebuilt_representative(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(930 + n)
            for a in arrows(config, 93 + n):
                ma = og.MarkedArrow(a, random_marking(config, rng, a.domain_len))
                assert og.SemiPartitionClass(ma).rep == reference_normalize(ma), str(ma)


class TestClassEquality:
    def test_an_identity_leg_gives_the_two_subset_verdict(self):
        for n, config in enumerate(CONFIGS):
            rng = random.Random(940 + n)
            for i, a in enumerate(arrows(config, 94 + n)):
                # every fifth identity class sits over the other base length
                base = a.codomain_len if i % 5 else 3 - a.codomain_len
                Q = og.SemiPartitionClass(
                    og.MarkedArrow(og.Arrow.identity(config, base), random_marking(config, rng, base))
                )
                # half of the classes are Q's marking pulled back, so equal to Q
                if i % 2 and base == a.codomain_len:
                    marking = og.pull_back(a, Q.rep.marking)
                else:
                    marking = random_marking(config, rng, a.domain_len)
                P = og.SemiPartitionClass(og.MarkedArrow(a, marking))
                for x, y in ((P, Q), (Q, P), (Q, Q)):
                    got = outcome(og.sp_class_eq, x, y)
                    assert got == outcome(reference_sp_class_eq, x, y), (str(x), str(y))

    def test_an_identity_leg_pulls_back_once(self, monkeypatch):
        calls = []
        pull_back = og.markings.pull_back

        def counted(*args):
            calls.append(args)
            return pull_back(*args)

        monkeypatch.setattr(og.markings, "pull_back", counted)
        rng = random.Random(950)
        for a in arrows(TREE2, 95):
            identity = og.Arrow.identity(TREE2, a.codomain_len)
            Q = og.SemiPartitionClass(og.MarkedArrow(identity, random_marking(TREE2, rng, a.codomain_len)))
            P = og.SemiPartitionClass(og.MarkedArrow(a, random_marking(TREE2, rng, a.domain_len)))
            for x, y in ((P, Q), (Q, P)):
                calls.clear()
                og.sp_class_eq(x, y)
                assert len(calls) == 1


    def test_a_pair_without_an_identity_leg_fills_once(self, monkeypatch):
        calls = []
        square_fill = og.markings.square_fill

        def counted(*args):
            calls.append(args)
            return square_fill(*args)

        monkeypatch.setattr(og.markings, "square_fill", counted)
        pool = [og.SemiPartitionClass(ma) for ma in marked_pool(CUBE2, 996)]
        pairs = [
            (x, y)
            for x in pool
            for y in pool
            if x.base_len == y.base_len
            and not (x.rep.arrow.is_identity() or y.rep.arrow.is_identity())
        ]
        verdicts = set()
        for x, y in pairs:
            calls.clear()
            got = og.sp_class_eq(x, y)
            assert len(calls) == 1
            assert got == reference_sp_class_eq(x, y), (str(x), str(y))
            verdicts.add(got)
        assert verdicts == {True, False}


def marked_pool(config, seed):
    """Random marked arrows over base lengths 1 and 2, with partial markings,
    each followed by a copy with one symbol erased, which it contains."""
    rng = random.Random(seed)
    pool = []
    for a in arrows(config, seed, count=16):
        ma = og.MarkedArrow(a, random_marking(config, rng, a.domain_len))
        erased = ma.marking.symbols[rng.randrange(len(ma.marking))]
        pool.append(ma)
        symbols = tuple(None if s == erased else s for s in ma.marking.symbols)
        pool.append(og.MarkedArrow(a, og.Marking(symbols)))
    return pool


def reference_ma_subset(p, q):
    """Through the same filling: both markings pulled back and compared
    by the references."""
    b1, b2 = og.square_fill(p.arrow, q.arrow)
    return reference_marking_subset(reference_pull_back(b1, p.marking), reference_pull_back(b2, q.marking))


class TestMaSubset:
    def test_matches_the_references_through_its_filling(self):
        verdicts = set()
        for n, config in enumerate(CONFIGS):
            pool = marked_pool(config, 960 + n)
            for p in pool:
                for q in pool:
                    got = outcome(og.ma_subset, p, q)
                    if p.base_len != q.base_len:
                        assert got[0] == "E_BASE_MISMATCH"
                        continue
                    filling = og.square_fill(p.arrow, q.arrow)
                    assert got == outcome(reference_ma_subset, p, q), (str(p), str(q))
                    assert got == outcome(og.ma_subset_with, p, q, filling), (str(p), str(q))
                    verdicts.add(got)
        assert verdicts == {True, False}

    def test_fills_once_and_builds_no_marking(self, monkeypatch):
        pool = marked_pool(CUBE2, 970) + marked_pool(TREE2, 971)
        calls = {"square_fill": 0, "pull_back": 0, "Marking": 0}

        def counting(name, f):
            def counted(*args):
                calls[name] += 1
                return f(*args)

            return counted

        monkeypatch.setattr(og.markings, "square_fill", counting("square_fill", og.markings.square_fill))
        monkeypatch.setattr(og.markings, "pull_back", counting("pull_back", og.markings.pull_back))
        monkeypatch.setattr(og.Marking, "__post_init__", counting("Marking", og.Marking.__post_init__))
        pairs = [(p, q) for p in pool for q in pool if p.config == q.config and p.base_len == q.base_len]
        for p, q in pairs:
            og.ma_subset(p, q)
        assert calls == {"square_fill": len(pairs), "pull_back": 0, "Marking": 0}
        # the counters see what they count
        og.markings.pull_back(pool[0].arrow, og.Marking((0,) * pool[0].base_len))
        assert calls["pull_back"] == 1 and calls["Marking"] == 2
