"""Property-based checks of the core algebraic laws."""

import hypothesis.strategies as st
from hypothesis import given, settings

import operad_groups as og
from helpers import CUBE2, TREE2, random_arrow, random_span, volume


def permutations(max_degree=6):
    return st.integers(2, max_degree).flatmap(
        lambda n: st.permutations(list(range(n)))
    ).map(lambda imgs: og.Permutation(tuple(imgs)))


@st.composite
def permutation_pairs(draw, max_degree=6):
    n = draw(st.integers(2, max_degree))
    a = og.Permutation(tuple(draw(st.permutations(list(range(n))))))
    b = og.Permutation(tuple(draw(st.permutations(list(range(n))))))
    return a, b


class TestPermutations:
    @given(permutation_pairs())
    def test_composition_is_diagrammatic(self, pair):
        a, b = pair
        assert all((a * b)(i) == b(a(i)) for i in range(a.degree))

    @given(permutations())
    def test_inverse(self, p):
        ident = og.Permutation(tuple(range(p.degree)))
        assert p * p.inverse() == ident
        assert p.inverse() * p == ident

    @given(permutations())
    def test_parse_format_round_trip(self, p):
        assert og.parse_permutation(f"p[{','.join(map(str, p.imgs))}]") == p


class TestBoxes:
    @given(
        st.integers(2, 3),
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), min_size=1, max_size=6),
    )
    def test_children_partition_their_parent(self, base, path):
        box = og.Box.whole(1)
        for axis_ignored, digit in path:
            box = box.child(0, digit % base, base)
        children = [box.child(0, d, base) for d in range(base)]
        assert sum(volume(c, base) for c in children) == volume(box, base)
        for c in children:
            assert box.meet(c, base) is c
        for i, c in enumerate(children):
            for d in children[i + 1 :]:
                assert c.meet(d, base) is None

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 120))
    def test_transport_round_trip(self, e_out, e_in, raw_off):
        base = 2
        outer = og.Box((e_out,), (raw_off % base**e_out if e_out else 0,))
        inner = og.Box((e_in,), (raw_off % base**e_in if e_in else 0,))
        placed = inner.inside(outer, base)
        assert outer.meet(placed, base) is placed
        assert placed.rescale_from(outer, base) == inner


class TestMarkings:
    @given(st.lists(st.sampled_from([None, "x", "y", "z", 7]), min_size=1, max_size=7))
    def test_relabeling_is_idempotent(self, raw):
        m = og.Marking(tuple(raw))
        assert og.Marking(m.symbols) == m
        marked = [s for s in m.symbols if s is not None]
        assert sorted(set(marked)) == list(range(m.symbol_count))

    @given(st.integers(0, 2**30), st.integers(1, 4))
    def test_pull_back_respects_composition(self, seed, coords):
        import random as _random

        rng = _random.Random(seed)
        b = random_arrow(TREE2, rng, coords=coords, gens=rng.randrange(3))
        a = random_arrow(TREE2, rng, coords=b.domain_len, gens=rng.randrange(3))
        marking = og.Marking(tuple(rng.choice([None, 0, 1]) for _ in range(coords)))
        assert og.pull_back(og.compose(a, b), marking) == og.pull_back(
            a, og.pull_back(b, marking)
        )


class TestSpans:
    @settings(max_examples=40)
    @given(st.integers(0, 2**30))
    def test_inverse_and_double_inverse(self, seed):
        import random as _random

        rng = _random.Random(seed)
        for config in (TREE2, CUBE2):
            g = random_span(config, rng)
            assert og.sp_is_identity(og.sp_mul(g, og.sp_inv(g)))
            assert og.sp_eq(og.sp_inv(og.sp_inv(g)), g)

    @settings(max_examples=40)
    @given(st.integers(0, 2**30), st.integers(-3, 3), st.integers(-3, 3))
    def test_powers_add(self, seed, m, n):
        import random as _random

        rng = _random.Random(seed)
        g = random_span(TREE2, rng, max_gens=2)
        assert og.sp_eq(
            og.sp_mul(og.sp_pow(g, m), og.sp_pow(g, n)), og.sp_pow(g, m + n)
        )
