"""The kernel's internal self-checks fire, each with its typed error.

Each check guards a fact that holds in working code, so no ordinary input
reaches it.  Here each fact is broken by a monkeypatch local to the test,
and the check must raise ``UnknownError`` (``E_UNKNOWN``) or
``NotFillingsError`` rather than return a wrong answer.
"""

import pytest

import operad_groups as og
from helpers import TREE2
from operad_groups.cli import main


class TestSigmaSpanRoutes:
    """Span arithmetic and the movement of a ball must agree."""

    @pytest.fixture(autouse=True)
    def ball_route_inverted(self, monkeypatch):
        sp_class_eq = og.certificates.sp_class_eq
        monkeypatch.setattr(og.certificates, "sp_class_eq", lambda P, Q: not sp_class_eq(P, Q))

    def test_the_check_raises(self):
        arrow = og.Arrow.identity(TREE2, 2)
        with pytest.raises(og.UnknownError, match="span arithmetic and ball movement disagree"):
            og.sigma_span_check(arrow, og.Permutation((1, 0)))

    def test_the_command_exits_2_with_the_code(self, capsys):
        rc = main(["cert", "sigma", "--max-perm", "2", "--depth", "2"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: E_UNKNOWN: span arithmetic and ball movement disagree")


def test_decompose_checks_its_reassembly(monkeypatch):
    caret = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
    W = og.StabilizerWitness.from_partition(
        og.SemiPartitionClass(og.MarkedArrow(caret, og.Marking((0, 1))))
    )
    g = og.xi((og.sp_identity(TREE2, 1), og.sp_identity(TREE2, 1)), W)
    assert len(og.decompose(g, W)) == 2
    monkeypatch.setattr(og.action, "sp_eq", lambda g, h: False)
    with pytest.raises(og.UnknownError, match="component reassembly disagrees"):
        og.decompose(g, W)


def test_merged_fillings_must_factor(monkeypatch):
    x = og.Arrow.identity(TREE2, 2)
    fill = (x, x)
    assert og.combine_fillings(fill, fill, (x, x))[0] == x
    swap = og.perm_arrow(TREE2, og.Permutation((1, 0)))
    square_fill = og.category.square_fill

    def twisted(a1, a2):  # the second leg no longer fills the square
        b1, b2 = square_fill(a1, a2)
        return b1, og.compose(swap, b2)

    monkeypatch.setattr(og.category, "square_fill", twisted)
    with pytest.raises(og.NotFillingsError, match="cancellativity violated"):
        og.combine_fillings(fill, fill, (x, x))


def test_progressive_witness_must_link(monkeypatch):
    assert og.is_y_progressive(TREE2, 2, 2, 0)
    # a comb of no cuts leaves the y inputs on different coordinates
    monkeypatch.setattr(og.poset, "_comb_gens_for_arity", lambda config, arity: 0)
    with pytest.raises(og.UnknownError, match="no linked block of 2 inputs"):
        og.is_y_progressive(TREE2, 2, 2, 0)
