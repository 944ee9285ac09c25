"""The benchmark's oracles, closed forms, workload checks and tracer.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
Each oracle is shown to accept the program's result and to reject a
deliberately wrong one.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import operad_groups as og
from perfbench import oracle as orc
from perfbench import trace
from perfbench.inputs import random_arrow, random_marking, random_span, refine_marked, refine_span
from perfbench.workloads import CliSession, CubeClasses, SpanArith, TREE2, CUBE2

V = og.BackendConfig.tree(2)
V2 = og.BackendConfig.cube(2)
SWAP = "(. .) | p[1,0] ; (. .)"
SHIFT = "((. .) .) | (. (. .))"


def program_span(plain, backend, config):
    return og.parse_span(orc.format_span(plain, backend), config)


def perturbed(plain_span):
    """The same span with the first two numerator coordinates exchanged."""
    den, (perm, forest) = plain_span
    return den, ((perm[1], perm[0]) + perm[2:], forest)


def perturbed_text(text, backend=TREE2):
    return orc.format_span(perturbed(orc.parse_span(text, backend)), backend)


# ------------------------------------------------------------ maps


@pytest.mark.parametrize("backend,config", [(TREE2, V), (CUBE2, V2)])
def test_product_map_is_the_composite_and_a_perturbed_product_is_not(backend, config):
    rng = random.Random(7)
    for _ in range(30):
        g, h = (random_span(rng, backend, 1, rng.randint(1, 4)) for _ in range(2))
        product = og.sp_mul(program_span(g, backend, config), program_span(h, backend, config))
        got = orc.parse_span(str(product), backend)
        want = orc.span_map(g, backend.base).then(orc.span_map(h, backend.base))
        assert orc.span_is_valid(got, backend.base)
        assert orc.span_map(got, backend.base).equals(want)
        assert not orc.span_map(perturbed(got), backend.base).equals(want)


def test_orders_and_the_shift():
    assert orc.span_map(orc.parse_span(SWAP, TREE2), 2).order(4) == 2
    shift = orc.span_map(orc.parse_span(SHIFT, TREE2), 2)
    assert shift.order(40) is None
    assert orc.span_map(orc.parse_span("(. .) | (. .)", TREE2), 2).order(4) == 1


def test_refined_representative_is_the_same_element():
    rng = random.Random(3)
    for backend in (TREE2, CUBE2):
        g = random_span(rng, backend, 2, 3)
        h = refine_span(g, 1, backend.dim - 1, backend.base)
        assert orc.span_map(g, backend.base).equals(orc.span_map(h, backend.base))
        assert og.sp_eq(program_span(g, backend, V if backend is TREE2 else V2),
                        program_span(h, backend, V if backend is TREE2 else V2))


def test_literals_round_trip_through_the_program():
    rng = random.Random(5)
    for backend, config in ((TREE2, V), (CUBE2, V2), (orc.Backend("tree", 3), og.BackendConfig.tree(3))):
        g = random_span(rng, backend, 2, 4)
        text = str(program_span(g, backend, config))
        assert orc.span_map(orc.parse_span(text, backend), backend.base).equals(orc.span_map(g, backend.base))


# ------------------------------------------------------- marked arrows


def _marked_pool(rng, n=24):
    pool = []
    for _ in range(n):
        arrow = random_arrow(rng, CUBE2, 1, rng.randint(0, 3))
        pool.append((arrow, random_marking(rng, len(arrow[0]), rng.randint(1, 2), rng.random() < 0.5)))
    return pool


def test_atom_oracle_agrees_with_ma_subset():
    rng = random.Random(11)
    pool = _marked_pool(rng)
    objs = [og.parse_marked_arrow(orc.format_marked(m, CUBE2), V2) for m in pool]
    verdicts = set()
    for i in range(len(pool)):
        for j in range(len(pool)):
            want = orc.refines(orc.tiles(pool[i]), orc.tiles(pool[j]), 1, CUBE2)
            assert og.ma_subset(objs[i], objs[j]) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_class_key_ignores_representative_and_symbol_names():
    rng = random.Random(13)
    for m in _marked_pool(rng, 10):
        fine = refine_marked(m, 0, 1, 2)
        renamed = (m[0], tuple(None if s is None else s.upper() for s in m[1]))
        key = orc.class_key(orc.tiles(m), 1, CUBE2)
        assert orc.class_key(orc.tiles(fine), 1, CUBE2) == key
        assert orc.class_key(orc.tiles(renamed), 1, CUBE2) == key


def test_act_oracle_accepts_act_and_rejects_the_wrong_direction():
    rng = random.Random(17)
    moved = 0
    for _ in range(20):
        g = random_span(rng, CUBE2, 1, rng.randint(1, 3))
        S = _marked_pool(rng, 1)[0]
        result = og.act(program_span(g, CUBE2, V2),
                        og.SemiPartitionClass(og.parse_marked_arrow(orc.format_marked(S, CUBE2), V2)))
        got = orc.class_key(orc.tiles(orc.parse_marked(str(result), CUBE2)), 1, CUBE2)
        gmap = orc.span_map(g, 2)
        assert got == orc.class_key(orc.act_tiles(gmap, orc.tiles(S)), 1, CUBE2)
        wrong = orc.class_key(orc.act_tiles(gmap.inverse(), orc.tiles(S)), 1, CUBE2)
        moved += wrong != got
    assert moved > 0


def test_partition_class_counts():
    assert len(orc.partition_classes(TREE2, 1, 3, 1, 1)) == 55
    assert len(orc.partition_classes(TREE2, 1, 4, 1, 1)) == 513
    T = og.enumerate_pn(V, 1, 2, 1, 1)
    assert len(T.elements) == len(orc.partition_classes(TREE2, 1, 2, 1, 1))


# ------------------------------------------------------- closed forms


def test_closed_form_row_counts():
    assert orc.sweep_rows(2, 4, 3) == 1768
    assert orc.pingpong_rows(TREE2, 6) == 189
    assert orc.alternating_rows(10) == 217
    for k in (2, 3):
        for g in range(5):
            assert orc.fuss_catalan(k, g) == len(orc.operations(orc.Backend("tree", k), g))
    assert len(og.sigma_span_report(V, 3, 2).rows) == orc.sweep_rows(2, 3, 2)
    assert len(og.pingpong_check(V2, 2).rows) == orc.pingpong_rows(CUBE2, 2)


# --------------------------------------------------- workload checks


def _one_round(wl):
    fns = wl.bind()
    results = []
    for op in wl.ops:
        args = [results[a.index] if hasattr(a, "index") else a for a in op.args]
        results.append(fns[op.fn](*args))
    return [wl.fingerprint(out) for out in results]


class SmallSpanArith(SpanArith):
    TRIPLES = 4
    SHIFT_POWERS = 6


class SmallCubeClasses(CubeClasses):
    ARROWS, REFINED, ELEMENTS = 4, 2, 3
    PAIRS = {"ma_subset": 15, "sp_class_eq": 8, "act": 8}
    REPEATS = 2


def test_span_arith_check_rejects_a_perturbed_product():
    wl = SmallSpanArith(og, 1)
    prints = _one_round(wl)
    assert wl.check(prints) == []
    i = next(n for n, op in enumerate(wl.ops) if op.kind == "mul")
    prints[i] = perturbed_text(prints[i])
    assert wl.check(prints)


def test_span_arith_check_rejects_a_flipped_comparison():
    wl = SmallSpanArith(og, 2)
    prints = _one_round(wl)
    i = next(n for n, op in enumerate(wl.ops) if op.kind == "eq")
    prints[i] = not prints[i]
    assert wl.check(prints)


@pytest.mark.parametrize("kind", ["ma_subset", "sp_class_eq", "act"])
def test_cube_classes_check_rejects_a_wrong_result(kind):
    wl = SmallCubeClasses(og, 1)
    prints = _one_round(wl)
    assert wl.check(prints) == []
    i = next(n for n, op in enumerate(wl.ops) if op.kind == kind)
    if kind == "act":
        arrow, marking = orc.parse_marked(prints[i], CUBE2)
        moved = (arrow, ("z" if marking[0] is None else None,) + marking[1:])
        prints[i] = orc.format_marked(moved, CUBE2)
    else:
        prints[i] = not prints[i]
    assert wl.check(prints)


def _cli(argv):
    wl = CliSession.__new__(CliSession)
    wl.cli = __import__("operad_groups.cli", fromlist=["main"])
    return wl.bind()["cli"](["--json"] + argv)


def _cli_problem(kind, argv, info, out):
    wl = CliSession.__new__(CliSession)
    op = type("Op", (), {"kind": kind, "info": info})()
    return wl._check_one(op, ["--json"] + argv, out)


def test_cli_checks_reject_a_flipped_preorder_verdict():
    argv = ["poset", "filtered", "--depth", "2"]
    info = (TREE2, 1, 2, 1, 1)
    rc, out, _ = _cli(argv)
    assert rc == 0 and _cli_problem("poset", argv, info, out) is None
    rows = [json.loads(line) for line in out.splitlines()]
    rows[0]["upper_bound"], rows[0]["q"] = rows[0]["q"], rows[0]["upper_bound"]
    bad = "\n".join(json.dumps(r) for r in rows)
    assert _cli_problem("poset", argv, info, bad)


def test_cli_checks_reject_a_missing_class_and_a_short_report():
    argv = ["partition", "list", "--depth", "2"]
    rc, out, _ = _cli(argv)
    info = (TREE2, 1, 2, 1, 1)
    assert _cli_problem("partition", argv, info, out) is None
    assert _cli_problem("partition", argv, info, "\n".join(out.splitlines()[1:]))
    argv = ["cert", "sigma", "--max-perm", "3", "--depth", "1"]
    rc, out, _ = _cli(argv)
    assert _cli_problem("cert", argv, (TREE2, argv), out) is None
    assert _cli_problem("cert", argv, (TREE2, argv), "\n".join(out.splitlines()[1:]))


def test_cli_checks_reject_a_wrong_word_witness():
    argv = ["cert", "pingpong", "--depth", "2", "--max-len", "3"]
    rc, out, _ = _cli(argv)
    assert _cli_problem("cert", argv, (TREE2, argv), out) is None
    rows = [json.loads(line) for line in out.splitlines()]
    words = [r for r in rows if r["check"] == "alternating_words"]
    words[-1]["witness"] = words[0]["witness"]
    assert _cli_problem("cert", argv, (TREE2, argv), "\n".join(json.dumps(r) for r in rows))


def test_hostile_outcome_needs_exit_2_and_a_typed_code():
    wl = CliSession.__new__(CliSession)
    op = type("Op", (), {"kind": "hostile"})()
    assert not wl.failed(op, (2, "", "error: E_PARSE: too deep\n"))
    assert wl.failed(op, (2, "", "error: planar markings must be ordered\n"))
    assert wl.failed(op, RecursionError("maximum recursion depth exceeded"))


# --------------------------------------------------------------- tracer


def test_tracer_counts_calls_where_callers_look_them_up_and_uninstalls():
    memos = trace.Memos(og)
    assert "category.square_fill" in memos.caches
    tracer = trace.Tracer(og, memos)
    original = og.spans.square_fill
    tracer.install()
    try:
        assert og.spans.square_fill is not original
        g = og.parse_span(SHIFT, V)
        og.sp_mul(og.sp_mul(g, g), g)
        tracer.after_op()
    finally:
        tracer.uninstall()
    assert og.spans.square_fill is original
    m = tracer.metrics(1)
    assert m["spans.sp_mul.count"] == 2 and m["category.square_fill.count"] >= 2
    assert m["spans.rep_len.max"] == 5 and m["backend.memo_entries"] > 0
    assert set(m) == set(trace.PER_LAYER)


# ------------------------------------------------------------ the runner


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "span_arith", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
