"""Tree walks on heap indices and the linear refinement, against their
references.

A tree cell [a/k^e, (a+1)/k^e) has the heap index k^e + a.  Validation
and printing of tree operations walk those indices left to right, and the
common refinement of two tree operations merges their cell lists; each
must agree with the ``Box`` computation it replaces.
"""

import random

import pytest

import operad_groups as og
from operad_groups.backend import _heap_index, _tiles_in_order
from helpers import (
    CUBE1,
    CUBE2,
    CUBE3,
    TREE2,
    TREE3,
    perturbed_patterns,
    random_operation,
    reference_common_refinement,
    reference_format_tree,
    reference_validate,
    validation_outcome,
)

TREES = (TREE2, TREE3, og.BackendConfig.tree(5))


@pytest.mark.parametrize("config", TREES, ids=str)
class TestHeapIndices:
    def test_indices_follow_the_boxes(self, config):
        k = config.size
        cells = og.standard_cells(config, 4)
        index = {box: _heap_index(box, k) for box in cells}
        assert len(set(index.values())) == len(cells)
        for box, h in index.items():
            for digit in range(k):
                child = box.child(0, digit, k)
                assert _heap_index(child, k) == k * h + digit
                assert (k * h + digit) // k == h
        for a in cells:
            for b in cells:
                if a.exps[0] < b.exps[0]:
                    assert index[a] < index[b]

    def test_the_walk_accepts_exactly_the_tree_partitions(self, config):
        k = config.size
        for op in og.operations_up_to(config, 4):
            assert _tiles_in_order(op.cells, k)
        for cells in perturbed_patterns(config, random.Random(71), 300):
            valid = validation_outcome(reference_validate, config, cells) == cells
            assert _tiles_in_order(cells, k) == valid, cells

    def test_format_equals_the_recursive_reference(self, config):
        for op in og.operations_up_to(config, 4):
            assert og.format_operation(op) == reference_format_tree(op)
        deep = og.op_comb(config, og.MAX_CELL_DEPTH, "right")
        assert og.format_operation(deep) == reference_format_tree(deep)


class TestTreeRefinement:
    def test_equals_the_reference_on_random_pairs(self):
        rng = random.Random(61)
        for config in (TREE2, TREE3, CUBE1, CUBE2, CUBE3):
            for _ in range(150):
                p = random_operation(config, rng, rng.randrange(8))
                q = random_operation(config, rng, rng.randrange(8))
                got = og.op_common_refinement(p, q)
                assert repr(got) == repr(reference_common_refinement(p, q))

    def test_equals_the_reference_on_the_shift_powers(self):
        shift = og.make_infinite_element(TREE2)
        power = shift
        for _ in range(64):
            den, num = power.den.forest[0], power.num.forest[0]
            for p, q in ((den, num), (num, shift.den.forest[0])):
                assert repr(og.op_common_refinement(p, q)) == repr(reference_common_refinement(p, q))
            power = og.sp_mul(power, shift)

    def test_tree_ranks_are_identities(self):
        rng = random.Random(62)
        for config in (TREE2, TREE3):
            for _ in range(50):
                p = random_operation(config, rng, rng.randrange(8))
                q = random_operation(config, rng, rng.randrange(8))
                r, _, _, ranks_p, ranks_q = og.op_common_refinement(p, q)
                identity = tuple(range(len(r.cells)))
                assert sum(ranks_p, ()) == identity and sum(ranks_q, ()) == identity


class TestPermutations:
    def test_derived_permutations_are_valid(self):
        rng = random.Random(63)
        for n in range(8):
            imgs = list(range(n))
            rng.shuffle(imgs)
            p = og.Permutation(tuple(imgs))
            for q in (p.inverse(), p * p.inverse(), p * p, og.Permutation.identity(n)):
                assert sorted(q.imgs) == list(range(n))
            assert (p * p.inverse()).is_identity()

    def test_given_images_are_still_checked(self):
        for imgs in ((0, 0), (1, 2), (-1, 0)):
            with pytest.raises(og.ParseError):
                og.Permutation(imgs)
        with pytest.raises(og.ParseError):
            og.parse_permutation("p[0,2]")
