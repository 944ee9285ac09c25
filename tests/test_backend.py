"""Boxes, operations, tree and cut-tree literals."""

import ast
import pathlib
import random
from fractions import Fraction

import pytest

import operad_groups as og
from operad_groups import backend
from operad_groups.backend import _cell_keys, _sorted_cells, input_slots
from helpers import (
    CUBE1,
    CUBE2,
    CUBE3,
    PINWHEEL,
    PLANAR2,
    TREE2,
    TREE3,
    arrow_pool,
    perturbed_patterns,
    random_arrow,
    random_operation,
    reference_input_slots,
    reference_parse_operation,
    reference_validate,
    sort_key,
    validation_outcome,
    volume,
)


class TestBox:
    def test_child_splits_along_one_axis(self):
        whole = og.Box.whole(2)
        assert whole.child(0, 0, 2) == og.Box((1, 0), (0, 0))
        assert whole.child(1, 1, 2) == og.Box((0, 1), (0, 1))
        deep = whole.child(0, 1, 2).child(0, 1, 2)
        assert deep == og.Box((2, 0), (3, 0))

    def test_volume(self):
        # the Fraction reference in helpers, and the kernel's integer volume
        # sum naming the fault of a pattern with too little or too much
        assert volume(og.Box((1,), (1,)), 2) == Fraction(1, 2)
        assert volume(og.Box((2, 1), (3, 0)), 2) == Fraction(1, 8)
        assert volume(og.Box.whole(3), 2) == 1
        quarters = og.parse_operation("[0 [1 . .] [1 . .]]", CUBE2).cells
        thirds = og.op_generator(TREE3).cells
        halves = og.op_generator(CUBE1).cells
        short_or_long = ((CUBE2, quarters[:3]), (TREE3, thirds[:2]), (CUBE1, halves + halves[:1]))
        for config, cells in short_or_long:
            with pytest.raises(og.NotPartitionError, match="total volume 1"):
                og.Operation(config, cells)

    def test_contains_nested_cells(self):
        half = og.Box((1,), (1,))  # [1/2, 1)
        quarter = og.Box((2,), (3,))  # [3/4, 1)
        # an operand inside the other is what their meet returns
        assert half.meet(quarter, 2) is quarter
        assert quarter.meet(half, 2) is not half
        assert half.meet(og.Box((2,), (1,)), 2) is None

    def test_meet_of_nested_cells_is_the_deeper_one(self):
        half = og.Box((1,), (1,))
        quarter = og.Box((2,), (3,))
        assert half.meet(quarter, 2) == quarter
        assert quarter.meet(half, 2) == quarter

    def test_meet_returns_an_operand_inside_the_other(self):
        outer, inner = og.Box((1, 0), (1, 0)), og.Box((2, 1), (3, 1))
        assert outer.meet(inner, 2) is inner
        assert inner.meet(outer, 2) is inner
        assert outer.meet(outer, 2) == outer
        crossing = og.Box((0, 1), (0, 0)).meet(og.Box((1, 0), (1, 0)), 2)
        assert crossing == og.Box((1, 1), (1, 0))

    def test_meet_of_disjoint_cells_is_empty(self):
        assert og.Box((1,), (0,)).meet(og.Box((1,), (1,)), 2) is None
        crossing = og.Box((1, 0), (0, 0)).meet(og.Box((0, 1), (0, 1)), 2)
        assert crossing == og.Box((1, 1), (0, 1))

    def test_inside_and_rescale_are_inverse(self):
        outer = og.Box((1, 2), (1, 3))
        inner = og.Box((2, 1), (2, 1))
        placed = inner.inside(outer, 2)
        assert outer.meet(placed, 2) is placed
        assert placed.rescale_from(outer, 2) == inner

    def test_deep_offsets_stay_exact(self):
        # offsets beyond 2**53 must not lose precision in containment tests
        box = og.Box.whole(1)
        for _ in range(60):
            box = box.child(0, 1, 2)
        assert box == og.Box((60,), (2**60 - 1,))
        parent = og.Box((59,), (2**59 - 1,))
        assert parent.meet(box, 2) is box
        off_by_one = og.Box((59,), (2**59 - 2,))
        assert off_by_one.meet(box, 2) is None

    def test_parse_format_round_trip(self):
        box = og.Box((2, 0), (3, 0))
        assert og.parse_box(str(box)) == box
        assert str(box) == "b(2:3,0:0)"

    def test_parse_rejects_garbage(self):
        for text in ("", "b(", "b(1)", "b(1:2:3)", "box(1:0)"):
            with pytest.raises(og.ParseError):
                og.parse_box(text)


class TestOperationValidation:
    def test_tree_literal_round_trip(self):
        op = og.parse_operation("((. .) .)", TREE2)
        assert op.cells == (
            og.Box((2,), (0,)),
            og.Box((2,), (1,)),
            og.Box((1,), (1,)),
        )
        assert og.format_operation(op) == "((. .) .)"
        assert op.arity == 3

    def test_rejects_volume_shortfall(self):
        with pytest.raises(og.NotPartitionError):
            og.Operation(TREE2, (og.Box((1,), (0,)),))

    def test_rejects_overlap(self):
        with pytest.raises(og.NotPartitionError):
            og.Operation(TREE2, (og.Box((1,), (0,)), og.Box((1,), (0,))))
        with pytest.raises(og.NotPartitionError):
            og.Operation(
                CUBE1,
                (og.Box((0,), (0,)), og.Box((1,), (1,))),
            )

    def test_rejects_unsorted_tree_cells(self):
        with pytest.raises(og.NotPartitionError):
            og.Operation(TREE2, (og.Box((1,), (1,)), og.Box((1,), (0,))))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(og.NotPartitionError):
            og.Operation(CUBE2, (og.Box((0,), (0,)),))

    def test_rejects_cell_outside_unit_cube(self):
        with pytest.raises(og.NotPartitionError):
            og.Operation(TREE2, (og.Box((1,), (2,)), og.Box((1,), (0,))))

    def test_cube_cell_order_is_data(self):
        halves = (og.Box((1,), (0,)), og.Box((1,), (1,)))
        forward = og.Operation(CUBE1, halves)
        backward = og.Operation(CUBE1, halves[::-1])
        assert forward != backward
        assert forward.cells == backward.cells[::-1]

    def test_pinwheel_is_a_partition_but_not_guillotine(self):
        assert sum(volume(b, 2) for b in PINWHEEL) == 1
        assert all(
            a.meet(b, 2) is None
            for i, a in enumerate(PINWHEEL)
            for b in PINWHEEL[i + 1 :]
        )
        with pytest.raises(og.NotGuillotineError) as exc:
            og.Operation(CUBE3, PINWHEEL)
        assert exc.value.code == "E_NOT_GUILLOTINE"

    def test_every_planar_cut_pattern_in_two_dimensions_validates(self):
        rng = random.Random(7)
        for _ in range(50):
            cells = list(random_operation(CUBE2, rng, 5).cells)
            rng.shuffle(cells)
            og.Operation(CUBE2, tuple(cells))  # must not raise

    @pytest.mark.parametrize(
        "config, cells",
        [
            # a missing quarter: the high half holds one quarter alone
            (CUBE1, (og.Box((2,), (0,)), og.Box((2,), (1,)), og.Box((2,), (2,)))),
            (CUBE2, (og.Box((1, 1), (0, 0)), og.Box((1, 1), (0, 1)), og.Box((1, 1), (1, 0)))),
            # an empty half: every cell sits below the first midplane
            (CUBE1, (og.Box((2,), (0,)), og.Box((2,), (1,)))),
            (CUBE2, (og.Box((1, 1), (0, 0)), og.Box((1, 1), (0, 1)))),
            # a stray leaf: one cell deep inside a half it should fill
            (CUBE1, (og.Box((1,), (0,)), og.Box((3,), (4,)))),
            (CUBE2, (og.Box((1, 0), (0, 0)), og.Box((2, 1), (2, 0)))),
        ],
    )
    def test_cube_volume_shortfall(self, config, cells):
        with pytest.raises(og.NotPartitionError) as exc:
            og.Operation(config, cells)
        assert str(exc.value) == "E_NOT_PARTITION: cells do not have total volume 1"
        assert validation_outcome(reference_validate, config, cells) == (
            og.NotPartitionError,
            str(exc.value),
        )

    def test_outcomes_match_the_reference_validation(self):
        rng = random.Random(31)
        for config in CONFIGS + (og.BackendConfig.tree(5), PLANAR2):
            patterns = list(perturbed_patterns(config, rng, 300))
            if config == CUBE3:
                patterns += [PINWHEEL, PINWHEEL[::-1], PINWHEEL[1:], PINWHEEL + PINWHEEL[:1]]
            if config.kind == og.KARY_TREE:
                patterns += [op.cells for op in og.operations_up_to(config, 4)]
            for cells in patterns:
                got = validation_outcome(lambda c, xs: og.Operation(c, xs).cells, config, cells)
                assert got == validation_outcome(reference_validate, config, cells), cells

    def test_canonical_flag_is_lexicographic_order(self):
        rng = random.Random(32)
        for config in CONFIGS:
            for cells in perturbed_patterns(config, rng, 200):
                try:
                    op = og.Operation(config, cells)
                except og.OperadError:
                    continue
                in_order = op.cells == _sorted_cells(op.cells, config.base)
                assert (op.rank is None) == in_order
                if config.kind == og.KARY_TREE:
                    assert op.rank is None
        halves = (og.Box((1,), (0,)), og.Box((1,), (1,)))
        forward = og.Operation(CUBE1, halves)
        backward = og.Operation(CUBE1, halves[::-1])
        assert forward.rank is None and backward.rank == (1, 0)
        assert forward != backward and "rank" not in repr(backward)


class TestOperationAlgebra:
    def test_identity_and_generator_arities(self):
        assert og.op_identity(TREE2).arity == 1
        assert og.op_generator(TREE2).arity == 2
        assert og.op_generator(TREE3).arity == 3
        assert og.op_generator(CUBE2, 0).arity == 2
        assert og.op_generator(CUBE2, 1) != og.op_generator(CUBE2, 0)

    def test_generator_axis_out_of_range(self):
        with pytest.raises(og.SlotRangeError):
            og.op_generator(CUBE2, 5)

    def test_compose_grafts_into_a_slot(self):
        caret = og.op_generator(TREE2)
        assert og.format_operation(og.op_compose(caret, 1, caret)) == "(. (. .))"
        assert og.format_operation(og.op_compose(caret, 0, caret)) == "((. .) .)"
        assert og.op_compose(caret, 0, caret).arity == 3

    def test_compose_slot_out_of_range(self):
        caret = og.op_generator(TREE2)
        with pytest.raises(og.SlotRangeError):
            og.op_compose(caret, 7, caret)

    def test_subst_fills_every_slot(self):
        caret = og.op_generator(TREE2)
        op = og.op_subst(caret, (caret, og.op_identity(TREE2)))
        assert og.format_operation(op) == "((. .) .)"
        with pytest.raises(og.SizeMismatchError):
            og.op_subst(caret, (og.op_identity(TREE2),))

    def test_combs(self):
        assert og.format_operation(og.op_comb(TREE2, 2)) == "((. .) .)"
        assert og.format_operation(og.op_comb(TREE2, 2, side="right")) == "(. (. .))"
        assert og.format_operation(og.op_comb(CUBE2, 2)) == "{b(2:0,0:0),b(2:1,0:0),b(1:1,0:0)}"
        assert og.op_comb(TREE3, 3).arity == 7

    def test_cell_operation_is_minimal(self):
        op = og.cell_operation(TREE2, og.Box((2,), (2,)))
        assert og.format_operation(op) == "(. (. .))"
        assert og.Box((2,), (2,)) in op.cells
        with pytest.raises(og.NotPartitionError):
            og.cell_operation(TREE2, og.Box((1,), (5,)))

    def test_enumeration_counts(self):
        assert [len(og.operations_with_gens(TREE2, g)) for g in range(4)] == [1, 1, 2, 5]
        assert [len(og.operations_with_gens(CUBE2, g)) for g in range(3)] == [1, 2, 8]
        assert len(og.operations_up_to(TREE2, 2)) == 4
        assert sum(1 for _ in og.forests_up_to(TREE2, 1, 2)) == 4
        assert sum(1 for _ in og.forests_up_to(TREE2, 2, 1)) == 3
        assert list(og.forests_up_to(TREE2, 0, 3)) == [()]

    def test_standard_cells(self):
        cells = og.standard_cells(TREE2, 2)
        assert len(cells) == 7
        assert og.Box.whole(1) in cells

    def test_subst_unit_laws(self):
        for config in (TREE2, TREE3, CUBE1, CUBE2, CUBE3):
            unit = og.op_identity(config)
            for op in og.operations_up_to(config, 3):  # built without op_subst
                assert og.op_subst(unit, (op,)) == op
                assert og.op_subst(op, (unit,) * op.arity) == op
        with pytest.raises(og.BaseMismatchError):
            og.op_subst(og.op_identity(TREE2), (og.op_identity(TREE3),))
        with pytest.raises(og.BaseMismatchError):
            og.op_subst(og.op_generator(TREE2), (og.op_identity(TREE3),) * 2)


CONFIGS = (TREE2, TREE3, CUBE1, CUBE2, CUBE3)


class TestSortKeys:
    def test_integer_keys_order_cells_as_fraction_keys(self):
        rng = random.Random(22)
        for config in CONFIGS:
            base = config.base
            for _ in range(40):
                cells = list(random_operation(config, rng, rng.randrange(8)).cells)
                cells += rng.sample(og.standard_cells(config, 2), 3)
                rng.shuffle(cells)
                keys = _cell_keys(cells, base)
                for i in range(len(cells)):
                    for j in range(len(cells)):
                        ki, kj = sort_key(cells[i], base), sort_key(cells[j], base)
                        assert (keys[i] < keys[j]) == (ki < kj)
                        assert (keys[i] == keys[j]) == (ki == kj)

    @pytest.mark.parametrize("d, max_gens", [(1, 5), (2, 4), (3, 3)])
    def test_cube_enumeration_follows_the_fraction_order(self, d, max_gens):
        config = og.BackendConfig.cube(d)
        for gens in range(max_gens + 1):
            ops = og.operations_with_gens(config, gens)
            keys = [[sort_key(c, 2) for c in op.cells] for op in ops]
            assert all(a < b for a, b in zip(keys, keys[1:])), (d, gens)

    def test_sorted_copy_and_rank(self):
        rng = random.Random(23)
        for config in (CUBE2, CUBE3):
            for _ in range(30):
                op = random_operation(config, rng, rng.randrange(6))
                cells = list(op.cells)
                rng.shuffle(cells)
                shuffled = og.Operation(config, tuple(cells))
                by_fraction = sorted(cells, key=lambda c: sort_key(c, config.base))
                assert _sorted_cells(cells, config.base) == tuple(by_fraction)
                rank = shuffled.rank
                if rank is None:
                    assert cells == by_fraction
                    continue
                assert sorted(rank) == list(range(len(cells)))
                assert all(by_fraction[rank[i]] == c for i, c in enumerate(cells))


class TestCommonRefinement:
    def test_ranks_are_those_of_the_grafted_refinement(self):
        rng = random.Random(24)
        for config in CONFIGS:
            for _ in range(40):
                p = random_operation(config, rng, rng.randrange(6))
                q = random_operation(config, rng, rng.randrange(6))
                r, phi_p, phi_q, ranks_p, ranks_q = og.op_common_refinement(p, q)
                for op, phi, ranks in ((p, phi_p, ranks_p), (q, phi_q, ranks_q)):
                    assert [len(sub) for sub in ranks] == [f.arity for f in phi]
                    grafted = og.op_subst(op, phi)
                    rank = grafted.rank
                    if rank is None:
                        rank = tuple(range(len(r.cells)))
                    assert sum(ranks, ()) == rank
                    assert og.Arrow.from_forest(config, (grafted,)).forest == (r,)

    def test_cells_come_from_both_sides(self):
        rng = random.Random(25)
        for config in CONFIGS:
            base = config.base
            for _ in range(20):
                p = random_operation(config, rng, rng.randrange(6))
                q = random_operation(config, rng, rng.randrange(6))
                r = og.op_common_refinement(p, q)[0]
                met = [c1.meet(c2, base) for c1 in p.cells for c2 in q.cells]
                assert sorted(r.cells, key=lambda c: sort_key(c, base)) == list(r.cells)
                assert set(r.cells) == {m for m in met if m is not None}


class TestTrustedOperations:
    """Operations built from splits, meets, a sort, grafts or a nested
    literal skip the tiling check and must equal what the check would have
    built."""

    CONFIGS = (TREE2, TREE3, PLANAR2, CUBE1, CUBE2, CUBE3)

    @staticmethod
    def shuffled(config, forest, rng):
        out = []
        for op in forest:
            cells = list(op.cells)
            rng.shuffle(cells)
            out.append(og.Operation(config, tuple(cells)))
        return tuple(out)

    def trusted_operations(self, config, n):
        yield og.op_identity(config)
        for axis in range(config.dim):
            yield og.op_generator(config, axis)
        for gens in range(4):
            yield from og.operations_with_gens(config, gens)
        for box in og.standard_cells(config, 3):
            yield og.cell_operation(config, box)
        rng = random.Random(70 + n)
        pool = arrow_pool(config, 60 + n)
        for a, b in zip(pool, pool[2:]):  # the pool alternates codomains 1, 2
            for p, q in zip(a.forest, b.forest):
                yield og.op_common_refinement(p, q)[0]
            b1, _ = og.square_fill(a, b)
            yield from og.compose(b1, a).forest  # grafted, then sorted
            if config.kind == og.DYADIC_CUBE:  # tree cells keep their order
                shuffled = self.shuffled(config, a.forest, rng)
                yield from og.Arrow.from_forest(config, shuffled).forest

    def test_each_equals_its_validated_twin(self):
        for n, config in enumerate(self.CONFIGS):
            for op in self.trusted_operations(config, n):
                twin = og.Operation(config, op.cells)
                assert op == twin and repr(op) == repr(twin), str(op)
                assert op.rank is None and twin.rank is None, str(op)

    @staticmethod
    def count_tiling_checks(monkeypatch):
        """The names of the tiling-check calls from here on, in a list."""
        calls = []
        for name in ("_cuts_apart", "_check_tiling"):

            def counted(*args, _check=getattr(backend, name)):
                calls.append(_check.__name__)
                return _check(*args)

            monkeypatch.setattr(backend, name, counted)
        return calls

    def test_an_arrow_sorts_without_checking_again(self, monkeypatch):
        rng = random.Random(71)
        shuffled = [
            (a, self.shuffled(config, a.forest, rng))
            for config in (CUBE2, CUBE3)
            for a in arrow_pool(config, 72)
        ]
        assert any(op.rank is not None for _, forest in shuffled for op in forest)
        calls = self.count_tiling_checks(monkeypatch)
        for a, forest in shuffled:
            assert og.Arrow.from_forest(a.config, forest).forest == a.forest
        assert calls == []

    def test_equal_sorted_ones_share_their_cells(self):
        """The identity, each generator, ``cell_operation``,
        ``operations_with_gens``, the refinement r and an arrow's sorted
        copies, each built twice from separate inputs, share one cell
        tuple through the memo."""
        for memo in (
            backend._validate_cells,
            og.op_identity,
            og.operations_with_gens,
            og.op_common_refinement,
        ):
            memo.cache_clear()
        rng = random.Random(74)
        for n, config in enumerate(self.CONFIGS):
            whole = og.Box.whole(config.dim)
            pairs = [(og.op_identity(config), og.Operation(config, (whole,)))]
            splits = og.operations_with_gens(config, 1)
            for axis in range(config.dim):
                gen = og.op_generator(config, axis)
                pairs.append((gen, og.op_generator(config, axis)))
                pairs.append((gen, splits[splits.index(gen)]))
            for box in og.standard_cells(config, 3):
                pairs.append((og.cell_operation(config, box), og.cell_operation(config, box)))
            ops = [random_operation(config, rng, rng.randrange(1, 6)) for _ in range(10)]
            for p, q in zip(ops, ops[1:]):
                pairs.append(
                    (og.op_common_refinement(p, q)[0], og.op_common_refinement(q, p)[0])
                )
            if config.kind == og.DYADIC_CUBE:  # tree cells keep their order
                for a in arrow_pool(config, 75 + n)[:10]:
                    copies = [
                        og.Arrow.from_forest(config, self.shuffled(config, a.forest, rng))
                        for _ in range(2)
                    ]
                    pairs.extend(zip(*(copy.forest for copy in copies)))
            for first, second in pairs:
                assert first == second and first.cells is second.cells, str(first)

    @staticmethod
    def literal(op):
        """The tree literal of a tree operation, else a cut-tree literal of
        the cube cells, cut at each node along the first free axis."""
        if op.config.kind == og.KARY_TREE:
            return og.format_operation(op)

        def cut(cells, box):
            if len(cells) == 1:
                return "."
            axis = next(
                a for a in range(box.dim) if all(c.exps[a] > box.exps[a] for c in cells)
            )
            halves = ([], [])
            for c in cells:
                halves[c.offs[axis] >> (c.exps[axis] - box.exps[axis] - 1) & 1].append(c)
            low, high = (cut(h, box.child(axis, t, 2)) for t, h in enumerate(halves))
            return f"[{axis} {low} {high}]"

        return cut(op.cells, og.Box.whole(op.config.dim))

    def tiled_operations(self, config, n):
        """Grafts, the refinement pieces phi of pairs of them and the reads
        of their literals: each is built with no tiling check."""
        rng = random.Random(80 + n)
        grafts = [random_operation(config, rng, gens) for gens in range(6)]  # op_compose
        grafts += [og.op_comb(config, 3, side) for side in ("left", "right")]
        for _ in range(20):
            outer = random_operation(config, rng, rng.randrange(4))
            inners = [random_operation(config, rng, rng.randrange(3)) for _ in outer.cells]
            grafts.append(og.op_subst(outer, inners))
        yield from grafts
        for p, q in zip(grafts, grafts[1:]):
            _, phi_p, phi_q, _, _ = og.op_common_refinement(p, q)
            yield from phi_p + phi_q
        for op in grafts:
            yield og.parse_operation(self.literal(op), config)

    def test_each_tiled_one_equals_its_validated_twin(self):
        unsorted = 0
        for n, config in enumerate(self.CONFIGS):
            for op in self.tiled_operations(config, n):
                twin = og.Operation(config, op.cells)
                assert op == twin and repr(op) == repr(twin), str(op)
                assert op.rank == twin.rank, str(op)
                unsorted += op.rank is not None
        assert unsorted > 0  # cube grafts list their cells in grafting order

    def test_tiled_ones_skip_the_tiling_check(self, monkeypatch):
        # empty memos, so that every tiled operation below is a miss
        backend._validate_cells.cache_clear()
        og.op_common_refinement.cache_clear()
        calls = self.count_tiling_checks(monkeypatch)
        for n, config in enumerate(self.CONFIGS):
            list(self.tiled_operations(config, n))
        assert calls == []

    def test_equal_tiled_ones_share_their_cells(self):
        for config in self.CONFIGS:
            last = config.dim - 1
            grafts = [
                og.op_compose(og.op_generator(config), 0, og.op_generator(config, last)),
                og.op_subst(
                    og.op_generator(config),
                    [og.op_generator(config, last)] + [og.op_identity(config)] * (config.base - 1),
                ),
            ]
            assert grafts[0] == grafts[1] and grafts[0].cells is grafts[1].cells
            text = self.literal(grafts[0])
            reads = [og.parse_operation(text, config) for _ in range(2)]
            assert reads[0] == reads[1] and reads[0].cells is reads[1].cells


class TestRealize:
    def test_footprint_follows_the_permutation(self):
        arrow = og.parse_arrow("p[1,0,2] ; ((. .) .)", TREE2)
        assert og.realize(arrow) == (
            (0, og.Box((2,), (1,))),
            (0, og.Box((2,), (0,))),
            (0, og.Box((1,), (1,))),
        )

    def test_footprint_spreads_over_codomain_coordinates(self):
        caret = og.op_generator(TREE2)
        arrow = og.Arrow.from_forest(TREE2, (caret, og.op_identity(TREE2)))
        assert og.realize(arrow) == (
            (0, og.Box((1,), (0,))),
            (0, og.Box((1,), (1,))),
            (1, og.Box((0,), (0,))),
        )


class TestInputSlots:
    def test_the_flat_table_matches_one_bisection_per_coordinate(self):
        for n, config in enumerate((TREE2, TREE3, PLANAR2, CUBE1, CUBE2, CUBE3)):
            rng = random.Random(900 + n)
            arrows = [og.Arrow.identity(config, d) for d in (0, 1, 3)]
            arrows += [
                random_arrow(config, rng, coords=1 + i % 3, gens=rng.randrange(6))
                for i in range(60)
            ]
            for a in arrows:
                assert input_slots(a) == reference_input_slots(a), str(a)


class TestCutTrees:
    def test_parse_and_str_round_trip(self):
        op = og.parse_operation("[0 . [1 . .]]", CUBE2)
        assert op.cells == (og.Box((1, 0), (0, 0)), og.Box((1, 1), (1, 0)), og.Box((1, 1), (1, 1)))
        assert og.parse_operation(og.format_operation(op), CUBE2) == op
        assert og.parse_operation(" . ", CUBE2) == og.op_identity(CUBE2)

    def test_to_operation_sorts_cells(self):
        op = og.parse_operation("[0 [1 . .] .]", CUBE2)
        assert op.cells == tuple(sorted(op.cells, key=lambda c: sort_key(c, 2)))
        assert op.arity == 3 and op.rank is None

    def test_axis_out_of_range(self):
        with pytest.raises(og.ParseError):
            og.parse_operation("[3 . .]", CUBE2)

    def test_cut_trees_only_describe_cubes(self):
        with pytest.raises(og.ParseError):
            og.parse_operation("[0 . .]", TREE2)
        with pytest.raises(og.ParseError):
            og.parse_operation("(. .)", CUBE1)

    def test_parse_rejects_malformed_literals(self):
        for text in ("[0 .", "[0 . .] .", "[x . .]", "(0 . .)", "", "[0 . . .]", "[²  . .]"):
            with pytest.raises(og.ParseError):
                og.parse_operation(text, CUBE2)

    def test_boxes_enumerates_the_cut_cells(self):
        assert og.parse_operation("[0 . [0 . .]]", CUBE1).cells == (
            og.Box((1,), (0,)),
            og.Box((2,), (2,)),
            og.Box((2,), (3,)),
        )


# text the readers must agree on: the grammar's characters, digits that
# int() reads (٣ and the fullwidth ０) or refuses (²), and Unicode whitespace
NOISE = "()[]{}..  0123²٣０\u00a0\u2003\u3000\t\nxb:,"
SPACES = (" ", "  ", "\u00a0", "\u2003", "\u3000", "\t", "\n", "")


def random_nested_text(rng, config):
    """A literal near the grammar of either reader: mostly a tree or cut
    tree of the config's own grammar, sometimes with a wrong arity, axis
    or grammar, mutated or not; else a literal at the nesting cap, or
    random text."""
    kind = rng.randrange(6)
    if kind == 0:
        return "".join(rng.choices(NOISE, k=rng.randrange(16)))
    if kind == 1:
        levels = og.MAX_CELL_DEPTH + rng.randrange(-1, 2)
        if rng.random() < 0.5:
            return "(" * levels + "(. .)" + " .)" * levels
        return "[0 " * levels + "[0 . .]" + " .]" * levels
    odd_digits = ("3", "٣", "０", "²", "01", "9" * 30)

    def node(depth):
        if depth == 0 or rng.random() < 0.3:
            return "."
        own = rng.random() < 0.9
        if (config.kind == og.KARY_TREE) == own:
            arity = config.base if rng.random() < 0.9 else rng.randrange(1, 5)
            return "(" + rng.choice(SPACES).join(node(depth - 1) for _ in range(arity)) + ")"
        axis = str(rng.randrange(config.dim)) if rng.random() < 0.85 else rng.choice(odd_digits)
        low, high = node(depth - 1), node(depth - 1)
        return f"[{axis}{rng.choice(SPACES)}{low}{rng.choice(SPACES)}{high}]"

    text = node(rng.randrange(1, 7))
    for _ in range(rng.randrange(3) if kind > 3 else 0):
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(NOISE) + text[i + rng.randrange(2):]
    return rng.choice(SPACES) + text + rng.choice(SPACES)


def parse_outcome(parse, text, config):
    """The printed operation, or the code of the refusal."""
    try:
        return og.format_operation(parse(text, config))
    except og.OperadError as exc:
        return exc.code


class TestNestedReader:
    def test_agrees_with_the_reference_readers(self):
        rng = random.Random(8)
        outcomes = set()
        for config in (TREE2, TREE3, PLANAR2, CUBE1, CUBE2, CUBE3):
            for _ in range(900):
                text = random_nested_text(rng, config)
                got = parse_outcome(og.parse_operation, text, config)
                assert got == parse_outcome(reference_parse_operation, text, config), (config, text)
                outcomes.add(got == "E_PARSE")
        assert outcomes == {True, False}

    def test_depth_cap_in_both_grammars(self):
        cap = og.MAX_CELL_DEPTH
        for config, node in ((TREE2, "(. {})"), (CUBE1, "[0 . {}]"), (CUBE2, "[1 {} .]")):
            literal = "."
            for _ in range(cap):
                literal = node.format(literal)
            op = og.parse_operation(literal, config)
            assert max(sum(c.exps) for c in op.cells) == cap
            with pytest.raises(og.ParseError, match="nested more than"):
                og.parse_operation(node.format(literal), config)


class TestBackendConfig:
    def test_parse_format_round_trip(self):
        assert str(TREE2) == "tree:k=2"
        assert str(CUBE2) == "cube:d=2"
        assert og.parse_backend("tree:k=2") == TREE2
        assert og.parse_backend("cube:d=2") == CUBE2
        assert og.parse_backend("tree:k=3", flavor=og.PLANAR).flavor == og.PLANAR

    def test_parse_rejects_garbage(self):
        for text in ("tree", "tree:k=1", "cube:d=0", "grid:n=2", "tree:k=x"):
            with pytest.raises((og.ParseError, ValueError)):
                og.parse_backend(text)

    def test_higher_dimensional_cubes_need_the_symmetric_flavor(self):
        with pytest.raises(og.ParseError):
            og.BackendConfig.cube(2, flavor=og.PLANAR)
        og.BackendConfig.cube(1, flavor=og.PLANAR)  # one axis keeps order

    def test_operation_parse_format_round_trip_randomized(self):
        rng = random.Random(3)
        for config in (TREE2, TREE3, CUBE2):
            for _ in range(25):
                op = random_operation(config, rng, rng.randrange(5))
                assert og.parse_operation(og.format_operation(op), config) == op


class TestOnlyTheBackendKnowsTheKind:
    def test_no_other_module_names_a_backend_kind(self):
        """Every other layer reads a backend through its base and dim:
        only ``backend`` (and ``__init__``, which re-exports the kinds)
        names ``KARY_TREE`` or ``DYADIC_CUBE`` or reads ``.kind`` or
        ``.size``."""
        kinds = {"KARY_TREE", "DYADIC_CUBE"}
        package = pathlib.Path(og.__file__).parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            if path.name == "backend.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                    named = {alias.name for alias in node.names} & kinds
                elif isinstance(node, ast.Name):
                    named = {node.id} & kinds
                elif isinstance(node, ast.Attribute):
                    named = {node.attr} & (kinds | {"kind", "size"})
                else:
                    continue
                offenders += [(path.name, name) for name in sorted(named)]
        assert offenders == []


class TestIntegerOnly:
    def test_no_module_of_the_package_imports_fractions(self):
        package = pathlib.Path(og.__file__).parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "fractions" for name in names):
                    offenders.append(path.name)
        assert offenders == []
