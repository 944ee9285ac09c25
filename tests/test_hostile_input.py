"""Hostile and unsupported inputs end in typed errors, and every memo of
the package is bounded."""

import importlib
import pkgutil
import time
import tracemalloc

import pytest

import operad_groups as og
from operad_groups.cli import main
from helpers import CUBE1, CUBE2, TREE2, TREE3, _PieceIndex

SWAP = "(. .) | p[1,0] ; (. .)"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_typed_exit(capsys, code, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {code}:"), err


def bad_deep_tree(levels):
    """A tree literal `levels` deep whose innermost node has three children."""
    return "(" * levels + "(. . .)" + " .)" * levels


def good_deep_tree(levels):
    """A valid binary comb `levels + 1` deep."""
    return "(" * levels + "(. .)" + " .)" * levels


class TestTypedErrors:
    def test_deep_malformed_literal(self, capsys):
        lit = bad_deep_tree(1200)
        assert_typed_exit(capsys, "E_PARSE", "elem", "order", f"{lit} | {lit}")

    def test_deep_valid_literal(self, capsys):
        lit = good_deep_tree(1200)
        assert_typed_exit(capsys, "E_PARSE", "elem", "order", f"{lit} | {lit}")

    def test_deep_cut_tree(self, capsys):
        lit = "[0 " * 1200 + "." + " .]" * 1200
        assert_typed_exit(capsys, "E_PARSE", "--backend", "cube:d=1", "elem", "inv", f"{lit} | {lit}")

    def test_literals_up_to_the_depth_cap_still_parse(self):
        levels = og.MAX_CELL_DEPTH - 1
        op = og.parse_operation(good_deep_tree(levels), TREE2)
        assert max(c.exps[0] for c in op.cells) == og.MAX_CELL_DEPTH
        assert og.format_operation(op) == good_deep_tree(levels)
        with pytest.raises(og.ParseError):
            og.parse_operation(good_deep_tree(levels + 1), TREE2)

    def test_planar_torsion_certificate(self, capsys):
        assert_typed_exit(capsys, "E_FLAVOR", "--flavor", "planar", "cert", "torsion")

    def test_planar_unordered_marking(self, capsys):
        assert_typed_exit(
            capsys,
            "E_FLAVOR",
            "--flavor",
            "planar",
            "act",
            "(. .) | (. .)",
            "((. .) .) @ m[0:a 1:b 2:a]",
        )

    def test_planar_permutation(self, capsys):
        assert_typed_exit(capsys, "E_FLAVOR", "--flavor", "planar", "elem", "inv", SWAP)

    def test_pingpong_refuses_wider_trees(self, capsys):
        assert_typed_exit(
            capsys, "E_UNSUPPORTED_BACKEND", "--backend", "tree:k=3", "cert", "pingpong", "--depth", "1"
        )
        with pytest.raises(og.UnsupportedBackendError):
            og.pingpong_check(TREE3, 1)

    def test_uncovered_point_is_a_typed_error(self):
        index = _PieceIndex(og.parse_span(SWAP, TREE2))
        with pytest.raises(og.NotPartitionError):
            index.image(1, (0,))

    def test_negative_base_is_a_typed_error(self, capsys):
        assert_typed_exit(capsys, "E_LENGTH", "--base", "-1", "partition", "list")
        assert_typed_exit(capsys, "E_LENGTH", "--base", "-1", "poset", "filtered", "--depth", "1")
        with pytest.raises(og.LengthError):
            next(og.forests_up_to(TREE2, -1, 1))

    def test_malformed_numbers_are_parse_errors(self, capsys):
        assert_typed_exit(capsys, "E_PARSE", "elem", "inv", "(. .) | p[1 0] ; (. .)")
        with pytest.raises(og.ParseError):
            og.parse_box("b(1 2:0)")

    def test_angle_brackets_are_not_arrow_syntax(self, capsys):
        for arrow in ("⟨(. .)⟩", "⟨⟨p[1,0] ; (. .)⟩⟩"):
            with pytest.raises(og.ParseError):
                og.parse_arrow(arrow, TREE2)
            assert_typed_exit(capsys, "E_PARSE", "elem", "inv", f"{arrow} | (. .)")


class TestExponentCap:
    def test_huge_exponent_is_refused_before_arithmetic(self, capsys):
        assert_typed_exit(
            capsys, "E_PARSE", "--backend", "cube:d=1", "elem", "order", "{b(3000000:0),b(0:0)} | ."
        )

    def test_cap_is_on_the_total_cut_depth(self):
        cap = og.MAX_CELL_DEPTH
        assert og.parse_box(f"b({cap}:0)") == og.Box((cap,), (0,))
        with pytest.raises(og.ParseError):
            og.parse_box(f"b({cap + 1}:0)")
        with pytest.raises(og.ParseError):
            og.parse_box(f"b({cap}:0,1:0)")


class TestComputedDepthCap:
    SHIFT = "((. .) .) | (. (. .))"

    def test_the_last_power_under_the_cap_round_trips(self, capsys):
        rc, out, _ = run(capsys, "elem", "pow", self.SHIFT, "255")
        assert rc == 0 and out.count("(") == 2 * og.MAX_CELL_DEPTH
        den, num = out.strip().split(" | ")
        rc, back, _ = run(capsys, "elem", "inv", out.strip())
        assert rc == 0 and back == f"{num} | {den}\n"

    @pytest.mark.parametrize(
        "span, n",
        [
            (SHIFT, 256),
            ("(((((((((. .) .) .) .) .) .) .) .) .) | (. (. (. (. (. (. (. (. (. .)))))))))", 80),
            ("(((. .) .) .) | (. (. (. .)))", 140),
        ],
    )
    def test_deeper_results_are_refused_quickly(self, capsys, span, n):
        t0 = time.perf_counter()
        assert_typed_exit(capsys, "E_DEPTH", "elem", "pow", span, str(n))
        assert time.perf_counter() - t0 < 10

    def test_given_and_computed_cells_obey_the_cap(self):
        cap = og.MAX_CELL_DEPTH
        comb = og.op_comb(TREE2, cap)
        assert max(sum(c.exps) for c in comb.cells) == cap
        with pytest.raises(og.DepthError) as exc:
            og.op_compose(comb, 0, og.op_generator(TREE2))
        assert exc.value.code == "E_DEPTH"
        deep = og.Box((cap + 1,), (0,))
        with pytest.raises(og.DepthError):
            og.Operation(TREE2, (deep,))
        with pytest.raises(og.DepthError):
            og.Operation(CUBE2, (og.Box((cap, 1), (0, 0)),))
        with pytest.raises(og.DepthError):
            og.cell_operation(TREE2, deep)
        cube_comb = og.op_comb(CUBE2, cap)
        with pytest.raises(og.DepthError):
            og.op_compose(cube_comb, 0, og.op_generator(CUBE2, 1))

    @pytest.mark.parametrize("config", [TREE2, CUBE2])
    def test_a_deep_cell_is_refused_before_the_descent(self, config):
        # the descent recurses once per cut: past about 1,000 it overflowed
        box = og.Box((5000,) + (0,) * (config.dim - 1), (0,) * config.dim)
        message = f"cell depth 5000 exceeds the cap {og.MAX_CELL_DEPTH}"
        with pytest.raises(og.DepthError, match=message):
            og.cell_operation(config, box)
        with pytest.raises(og.DepthError, match=message):
            og.ball_at(config, 1, 0, box)

    def test_a_negative_exponent_is_refused_before_any_power(self):
        # the depth cap skips a cell with a negative exponent, so in_range
        # must see that sign before it computes 2**(10**7) for the other axis
        box = og.Box((10**7, -1), (0, 0))
        for refuse, message in (
            (lambda: og.Operation(CUBE2, (box,)), "lies outside the unit cube"),
            (lambda: og.ball_at(CUBE2, 1, 0, box), "does not fit"),
        ):
            # under -X tracemalloc tracing is already on: keep it on after
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                with pytest.raises(og.NotPartitionError, match=message):
                    refuse()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                if started:
                    tracemalloc.stop()
            assert peak - before < 100_000, peak - before

    def test_a_meet_deeper_than_both_its_cells_is_refused(self):
        # p's thinnest strips (0, 256) meet q's halves (1, 255) in cells of
        # depth 257, in a refinement of 259 cells
        p = og.Operation(
            CUBE2,
            tuple(og.Box((0, j + 1), (0, 1)) for j in range(256)) + (og.Box((0, 256), (0, 0)),),
        )
        q = og.Operation(
            CUBE2,
            tuple(og.Box((0, j + 1), (0, 1)) for j in range(255))
            + (og.Box((1, 255), (0, 0)), og.Box((1, 255), (1, 0))),
        )
        assert max(sum(c.exps) for c in p.cells + q.cells) == og.MAX_CELL_DEPTH
        a, b = og.Arrow.from_forest(CUBE2, (p,)), og.Arrow.from_forest(CUBE2, (q,))
        message = f"cell depth 257 exceeds the cap {og.MAX_CELL_DEPTH}"
        for refuse in (
            lambda: og.op_common_refinement(p, q),
            lambda: og.square_fill(a, b),
            lambda: og.ma_subset(*(og.MarkedArrow(x, og.Marking((0,) * x.domain_len)) for x in (a, b))),
        ):
            with pytest.raises(og.DepthError, match=message):
                refuse()


class TestOperationCellCap:
    TREE64 = og.BackendConfig.tree(64)

    def test_the_cap_holds_at_its_value(self):
        # a k-ary comb of g generators has (k - 1)g + 1 cells: 4096 at g = 65
        cap = og.MAX_OPERATION_CELLS
        comb = og.op_comb(self.TREE64, 65)
        assert comb.arity == cap
        assert og.Operation(self.TREE64, comb.cells) == comb
        message = f"{cap + 63} cells exceed the cap {cap}"
        with pytest.raises(og.DepthError, match=message):
            og.op_compose(comb, 0, og.op_generator(self.TREE64))
        # given cells are counted before they are checked to tile
        with pytest.raises(og.DepthError, match=message):
            og.Operation(self.TREE64, comb.cells + comb.cells[:63])

    def test_a_computed_refinement_obeys_the_cap(self):
        # 64 vertical strips meet 128 horizontal ones in 8192 cells
        p = og.Operation(CUBE2, tuple(og.Box((6, 0), (a, 0)) for a in range(64)))
        q = og.Operation(CUBE2, tuple(og.Box((0, 7), (0, b)) for b in range(128)))
        a, b = og.Arrow.from_forest(CUBE2, (p,)), og.Arrow.from_forest(CUBE2, (q,))
        message = f"8192 cells exceed the cap {og.MAX_OPERATION_CELLS}"
        for refuse in (
            lambda: og.op_common_refinement(p, q),
            lambda: og.square_fill(a, b),
            lambda: og.ma_subset(*(og.MarkedArrow(x, og.Marking((0,) * x.domain_len)) for x in (a, b))),
        ):
            with pytest.raises(og.DepthError, match=message):
                refuse()

    @pytest.mark.parametrize("argv", [("cert", "infinite", "--max-n", "256"), ("elem", "pow", None, "256")])
    def test_long_powers_are_refused_quickly(self, capsys, argv):
        shift = og.format_span(og.make_infinite_element(self.TREE64))
        argv = tuple(shift if a is None else a for a in argv)
        t0 = time.perf_counter()
        assert_typed_exit(capsys, "E_DEPTH", "--backend", "tree:k=64", *argv)
        assert time.perf_counter() - t0 < 10

    def test_a_deep_wide_pattern_validates_quickly(self, capsys):
        # a right comb 256 cuts deep with its 15 shallowest leaves each cut
        # into a full subtree 8 cuts deep: 257 - 15 + 15 * 256 = 4082 cells
        comb = og.op_comb(TREE2, og.MAX_CELL_DEPTH, "right")
        full = og.Operation(TREE2, tuple(og.Box((8,), (a,)) for a in range(256)))
        unit = og.op_identity(TREE2)
        op = og.op_subst(comb, [full] * 15 + [unit] * (comb.arity - 15))
        assert op.arity == 4082 and op.cells[-1].exps == (og.MAX_CELL_DEPTH,)
        pattern = "{" + ",".join(map(str, op.cells)) + "}"
        t0 = time.perf_counter()
        assert og.Operation(TREE2, op.cells) == op
        rc, out, err = run(capsys, "--backend", "cube:d=1", "elem", "inv", f"{pattern} | {pattern}")
        assert rc == 0 and err == "", err
        assert time.perf_counter() - t0 < 10

    def test_a_literal_past_the_cap_is_refused(self, capsys):
        # the 65-generator comb has 4096 cells; a 64-way split in place of
        # its first leaf adds 63
        comb = og.format_operation(og.op_comb(self.TREE64, 65))
        literal = comb.replace(".", "(" + " ".join("." * 64) + ")", 1)
        rc, out, err = run(capsys, "--backend", "tree:k=64", "elem", "inv", f"{literal} | {literal}")
        assert rc == 2 and out == ""
        cap = og.MAX_OPERATION_CELLS
        assert err.startswith(f"error: E_DEPTH: {cap + 63} cells exceed the cap {cap}"), err


class TestPowerCap:
    def test_powers_up_to_the_cap(self, capsys):
        cap = og.MAX_EXPONENT
        g = og.parse_span(SWAP, TREE2)
        assert og.sp_is_identity(og.sp_pow(g, cap))
        assert og.sp_is_identity(og.sp_pow(g, -cap))
        assert og.sp_order(g, cap) == 2
        rc, out, _ = run(capsys, "elem", "pow", SWAP, str(cap))
        assert rc == 0 and out == "p[1,0] ; (. .) | p[1,0] ; (. .)\n"

    def test_larger_exponents_are_refused(self, capsys):
        cap = og.MAX_EXPONENT
        g = og.parse_span(SWAP, TREE2)
        for n in (cap + 1, -cap - 1):
            with pytest.raises(og.ParseError):
                og.sp_pow(g, n)
        with pytest.raises(og.ParseError):
            og.sp_order(g, cap + 1)
        with pytest.raises(og.ParseError):
            og.infinite_order_check(TREE2, cap + 1)
        with pytest.raises(og.ParseError):
            og.padded_certificates_check(TREE2, cap + 1)
        assert_typed_exit(capsys, "E_PARSE", "elem", "pow", SWAP, "3000000")
        assert_typed_exit(capsys, "E_PARSE", "elem", "order", SWAP, "--max", str(cap + 1))
        assert_typed_exit(capsys, "E_PARSE", "cert", "infinite", "--max-n", str(cap + 1))
        assert_typed_exit(capsys, "E_PARSE", "cert", "padded", "--max-n", str(cap + 1))


class TestArgumentErrors:
    def refused(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("error: E_PARSE: ") and captured.err.count("\n") == 1
        return captured.err

    def test_bad_int(self, capsys):
        err = self.refused(capsys, "elem", "pow", "(. .) | (. .)", "abc")
        assert "argument n" in err and "'abc'" in err

    def test_missing_argument(self, capsys):
        err = self.refused(capsys, "elem", "pow")
        assert "required" in err

    def test_unknown_subcommand(self, capsys):
        assert "'frobnicate'" in self.refused(capsys, "frobnicate")
        assert "'frobnicate'" in self.refused(capsys, "cert", "frobnicate")

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["elem", "--help"])
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage: operad-groups elem")


HUGE = "9" * 5000  # past the interpreter's digit limit for int()


class TestOversizedIntegers:
    def test_backend_size(self, capsys):
        assert_typed_exit(capsys, "E_PARSE", "--backend", f"tree:k={HUGE}", "cert", "torsion")
        with pytest.raises(og.ParseError):
            og.parse_backend(f"cube:d={HUGE}")

    def test_cut_tree_axis(self, capsys):
        lit = f"[{HUGE} . .]"
        assert_typed_exit(capsys, "E_PARSE", "--backend", "cube:d=1", "elem", "inv", f"{lit} | .")
        with pytest.raises(og.ParseError):
            og.parse_operation(lit, og.BackendConfig.cube(1))

    def test_marking_coordinate(self, capsys):
        assert_typed_exit(capsys, "E_PARSE", "act", SWAP, f"(. .) @ m[{HUGE}:a 1:b]")
        with pytest.raises(og.ParseError):
            og.parse_marking(f"m[0:a {HUGE}:b]")

    def test_marking_coordinate_that_int_cannot_read(self):
        # str.isdigit accepts superscript digits that int() refuses
        with pytest.raises(og.ParseError):
            og.parse_marking("m[²:a]")


class TestBackendSizeCap:
    def test_sizes_up_to_the_cap_are_accepted(self):
        cap = og.MAX_BACKEND_SIZE
        assert og.parse_backend(f"tree:k={cap}") == og.BackendConfig.tree(cap)
        assert og.parse_backend(f"cube:d={cap}") == og.BackendConfig.cube(cap)

    def test_larger_sizes_are_refused(self, capsys):
        cap = og.MAX_BACKEND_SIZE
        assert_typed_exit(capsys, "E_PARSE", "--backend", f"tree:k={cap + 1}", "cert", "torsion")
        assert_typed_exit(capsys, "E_PARSE", "--backend", f"cube:d={cap + 1}", "cert", "torsion")
        with pytest.raises(og.ParseError):
            og.BackendConfig.tree(cap + 1)


class TestPosetPairCap:
    def test_a_truncation_past_the_cap_is_refused_quickly(self, capsys):
        start = time.perf_counter()
        assert_typed_exit(capsys, "E_PARSE", "poset", "filtered", "--depth", "4")
        assert time.perf_counter() - start < 10


class TestPartitionCandidateCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--backend", "tree:k=4", "partition", "list", "--depth", "3"),
            ("--backend", "tree:k=4", "poset", "filtered", "--depth", "3"),
            ("partition", "list", "--depth", "6"),
            ("--base", "5000", "partition", "list", "--depth", "0"),
        ],
        ids=" ".join,
    )
    def test_an_enumeration_past_the_cap_is_refused_quickly(self, capsys, argv):
        start = time.perf_counter()
        assert_typed_exit(capsys, "E_PARSE", *argv)
        assert time.perf_counter() - start < 10


class TestSweepRowCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("cert", "sigma", "--max-perm", "7", "--depth", "1"),
            ("cert", "freeaction", "--max-perm", "8", "--depth", "1"),
            ("cert", "sigma", "--max-perm", "1000000000", "--depth", "1000000"),
        ],
        ids=" ".join,
    )
    def test_a_sweep_past_the_cap_is_refused_quickly(self, capsys, argv):
        start = time.perf_counter()
        assert_typed_exit(capsys, "E_PARSE", *argv)
        assert time.perf_counter() - start < 10


class TestPingPongCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("cert", "pingpong", "--depth", "13"),
            ("cert", "pingpong", "--depth", "1", "--max-len", "24"),
            ("cert", "pingpong", "--depth", "12", "--max-len", "24"),
        ],
        ids=" ".join,
    )
    def test_a_sweep_past_the_cap_is_refused_quickly(self, capsys, argv):
        start = time.perf_counter()
        assert_typed_exit(capsys, "E_PARSE", *argv)
        assert time.perf_counter() - start < 10


class TestWideCubeClassKeys:
    @pytest.mark.parametrize(
        "argv, lines",
        [
            (("--backend", "cube:d=20", "partition", "list", "--depth", "1"), 21),
            (("--backend", "cube:d=64", "partition", "list", "--depth", "1"), 65),
            (("--backend", "cube:d=16", "partition", "list", "--depth", "2"), 1073),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
    )
    def test_wide_cubes_answer_quickly(self, capsys, argv, lines):
        start = time.perf_counter()
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        assert len(out.splitlines()) == lines
        assert time.perf_counter() - start < 10


class TestOneRefusalPath:
    def test_a_total_at_the_cap_passes(self):
        og.errors.refuse_past([3, 4, 3], 10, "rows")
        og.errors.refuse_past([], 0, "rows")

    def test_one_past_the_cap_is_refused(self):
        with pytest.raises(og.ParseError) as info:
            og.errors.refuse_past([3, 4, 4], 10, "rows")
        assert str(info.value) == "E_PARSE: at least 11 rows exceed the cap 10"

    def test_nothing_is_pulled_past_the_cap(self):
        def counts():
            yield 5
            yield 6
            raise AssertionError("pulled past the cap")

        with pytest.raises(og.ParseError, match="at least 11 rows exceed the cap 10"):
            og.errors.refuse_past(counts(), 10, "rows")

    @pytest.mark.parametrize(
        "call, args",
        [
            (og.sigma_span_report, (TREE2, 7, 1)),
            (og.free_action_check, (TREE2, 8, 1)),
            (og.pingpong_check, (CUBE2, 13)),
            (og.alternating_words_nontrivial, (TREE2, 23)),
            (og.pingpong_reports, (TREE2, 2, 23)),
            (og.enumerate_pn, (TREE2, 1, 6, 1, 1)),
            (og.enumerate_pn, (TREE2, 5000, 0, 1, 1)),
        ],
        ids=lambda v: getattr(v, "__name__", None) or " ".join(map(str, v)),
    )
    def test_every_counted_cap_refuses_through_the_helper(self, call, args):
        with pytest.raises(og.ParseError, match="exceed the cap") as info:
            call(*args)
        assert info.traceback[-1].name == "refuse_past"


def _marked(text, config=TREE2):
    return og.SemiPartitionClass(og.parse_marked_arrow(text, config))


_HALF_MARKED = "(. .) @ m[0:a 1:-]"
_TWO_SYMBOLS = "(. .) @ m[0:a 1:b]"
_ONE = og.Arrow.identity(TREE2, 1)
_SPLIT = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
_SWAPPED_SPLIT = og.Arrow(TREE2, og.Permutation((1, 0)), (og.op_generator(TREE2),))


# (call, code, message): each typed refusal of the API, raised by its own check
_REFUSALS = [
    (lambda: og.BackendConfig("bogus", 2), "E_PARSE", "unknown backend kind"),
    (lambda: og.BackendConfig.tree(2, "bogus"), "E_PARSE", "unknown flavor"),
    (lambda: og.Box((1,), ()), "E_PARSE", "one exponent and one offset"),
    (lambda: og.parse_operation("{ }", CUBE2), "E_PARSE", "at least one box"),
    (lambda: og.Operation(TREE2, ()), "E_NOT_PARTITION", "at least one cell"),
    (lambda: og.cell_operation(CUBE2, og.Box((1,), (0,))), "E_NOT_PARTITION", "does not fit"),
    (
        lambda: og.StabilizerWitness(_marked(_HALF_MARKED), (2,), _ONE),
        "E_NOT_PARTITION",
        "needs a partition",
    ),
    (
        lambda: og.StabilizerWitness(_marked(_TWO_SYMBOLS), (1,), _SPLIT),
        "E_NOT_PARTITION",
        "subwords must tile",
    ),
    (
        lambda: og.StabilizerWitness(_marked(_TWO_SYMBOLS), (2,), _SPLIT),
        "E_NOT_PARTITION",
        "one subword per symbol",
    ),
    (
        lambda: og.op_common_refinement(og.op_identity(TREE2), og.op_identity(CUBE1)),
        "E_BASE_MISMATCH",
        "refinement across different backends",
    ),
    (
        lambda: og.Span(_ONE, og.Arrow.identity(CUBE1, 1)),
        "E_BASE_MISMATCH",
        "span legs from different backends",
    ),
    (
        lambda: og.Span(og.Arrow.identity(TREE2, 2), _SPLIT),
        "E_BASE_MISMATCH",
        "span legs end at different base words",
    ),
    (
        lambda: og.xi(
            (og.sp_identity(TREE2, 2), og.sp_identity(TREE2, 1)),
            og.StabilizerWitness.from_partition(_marked(_TWO_SYMBOLS)),
        ),
        "E_BASE_MISMATCH",
        "component based at length 2, block has 1",
    ),
    (
        lambda: og.decompose(
            og.sp_identity(TREE2, 2),
            og.StabilizerWitness.from_partition(_marked(_TWO_SYMBOLS)),
        ),
        "E_BASE_MISMATCH",
        "span and witness live over different bases",
    ),
    (
        lambda: og.refine_to_n(
            _marked(_TWO_SYMBOLS), _marked(". , . @ m[0:a 1:b]"), 1, 1
        ),
        "E_BASE_MISMATCH",
        "partitions over different bases",
    ),
    (
        lambda: og.Arrow(TREE2, og.Permutation((0,)), (og.op_identity(CUBE1),)),
        "E_DOMAIN_MISMATCH",
        "forest operation from a different backend",
    ),
    (
        lambda: og.compose(_ONE, og.Arrow.identity(CUBE1, 1)),
        "E_DOMAIN_MISMATCH",
        "composition across different backends",
    ),
    (
        lambda: og.square_fill(_ONE, og.Arrow.identity(CUBE1, 1)),
        "E_CODOMAIN_MISMATCH",
        "cospan arrows from different backends",
    ),
    (
        lambda: og.push_perm((og.op_identity(TREE2),), og.Permutation((1, 0))),
        "E_SIZE_MISMATCH",
        "forest of 1 operations under degree-2 permutation",
    ),
    (
        lambda: og.Permutation((0,)) * og.Permutation((1, 0)),
        "E_SIZE_MISMATCH",
        "degree 1 vs 2",
    ),
    (
        lambda: og.Permutation((1, 0)).permute((0,)),
        "E_SIZE_MISMATCH",
        "1 items under degree-2 permutation",
    ),
    (
        lambda: og.object_class(_marked(_TWO_SYMBOLS)),
        "E_NOT_MULTIBALL",
        "object class of a non-multiball",
    ),
    (
        lambda: og.combine_fillings((_ONE, _ONE), (_SPLIT, _SWAPPED_SPLIT), (_ONE, _ONE)),
        "E_NOT_FILLINGS",
        "second pair does not fill the cospan",
    ),
]


class TestEveryTypedRefusal:
    @pytest.mark.parametrize(
        "call, code, message", _REFUSALS, ids=[message for _, _, message in _REFUSALS]
    )
    def test_the_call_is_refused_with_its_code(self, call, code, message):
        with pytest.raises(og.OperadError, match=message) as info:
            call()
        assert info.value.code == code

    def test_an_empty_pattern_is_refused_through_the_command_line(self, capsys):
        assert_typed_exit(capsys, "E_PARSE", "--backend", "cube:d=2", "elem", "inv", "{ } | .")


class TestMemos:
    def test_every_memo_is_bounded(self):
        memos = {}
        for info in pkgutil.iter_modules(og.__path__):
            if info.name == "__main__":
                continue  # running it is the command line
            module = importlib.import_module(f"operad_groups.{info.name}")
            for value in vars(module).values():
                # named by the function it wraps, so an imported memo is
                # counted once and a memo wrapped around another module's
                # function shows up under that function's name
                if callable(getattr(value, "cache_info", None)):
                    owner = value.__module__.rsplit(".", 1)[-1]
                    memos[f"{owner}.{value.__qualname__}"] = value.cache_info().maxsize
        # the exact set: adding or dropping a memo is a visible edit here
        assert set(memos) == {
            "backend._validate_cells",
            "backend.op_identity",
            "backend.op_common_refinement",
            "backend.operations_with_gens",
            "category.square_fill",
        }
        unbounded = [name for name, size in memos.items() if size is None]
        assert not unbounded
