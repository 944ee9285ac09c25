"""End-to-end acceptance suite.

Each test checks one numbered criterion at its stated tolerance and, where
stated, its runtime budget, and prints a single pass/fail line.
"""

import functools
import itertools
import random
import time

import pytest

import operad_groups as og
from helpers import (
    CUBE1,
    CUBE2,
    TREE2,
    all_marked,
    grid_eq,
    is_transitive,
    random_arrow,
    random_operation,
    random_span,
)


def report(n, ok, detail):
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_torsion_orders():
    t0 = time.perf_counter()
    order1 = og.sp_order(og.make_gamma1(TREE2), 4)
    order2 = og.sp_order(og.make_gamma2(TREE2), 4)
    dt = time.perf_counter() - t0
    ok = order1 == 2 and order2 == 3 and dt < 1.0
    report(1, ok, f"orders ({order1}, {order2}) in {dt:.3f}s (budget 1s)")


def test_criterion_02_infinite_order():
    t0 = time.perf_counter()
    result = og.infinite_order_check(TREE2, 64)
    dt = time.perf_counter() - t0
    ok = result.ok and len(result.rows) == 64 and dt < 5.0
    report(2, ok, f"64 nontrivial powers in {dt:.2f}s (budget 5s)")


def test_criterion_03_ping_pong():
    t0 = time.perf_counter()
    result = og.pingpong_check(TREE2, 6)
    dt = time.perf_counter() - t0
    violations = len(result.failures())
    ok = result.ok and violations == 0 and len(result.rows) == 189 and dt < 60.0
    report(3, ok, f"{len(result.rows)} inclusions, {violations} violations in {dt:.2f}s (budget 60s)")


def test_criterion_04_alternating_words():
    t0 = time.perf_counter()
    result = og.alternating_words_nontrivial(TREE2, 10)
    dt = time.perf_counter() - t0
    violations = len(result.failures())
    ok = result.ok and violations == 0 and len(result.rows) == 217 and dt < 60.0
    report(4, ok, f"{len(result.rows)} words, {violations} trivial in {dt:.2f}s (budget 60s)")


def test_criterion_05_group_axioms_and_grid_oracle():
    rng = random.Random(2026)
    spans = [random_span(TREE2, rng, max_gens=8) for _ in range(1000)]
    e = og.sp_identity(TREE2, 1)
    axiom_failures = 0
    for g in spans:
        if not og.sp_eq(og.sp_mul(e, g), g) or not og.sp_eq(og.sp_mul(g, e), g):
            axiom_failures += 1
        if not og.sp_is_identity(og.sp_mul(g, og.sp_inv(g))):
            axiom_failures += 1
    for i in range(0, 999, 3):
        g, h, k = spans[i : i + 3]
        if not og.sp_eq(og.sp_mul(og.sp_mul(g, h), k), og.sp_mul(g, og.sp_mul(h, k))):
            axiom_failures += 1

    grid_checks, grid_failures = 0, 0
    for i in range(0, 998, 2):
        g, h = spans[i], spans[i + 1]
        grid_checks += 1
        if og.sp_eq(g, h) != grid_eq(g, h):
            grid_failures += 1
    for g in spans[:50]:
        u = random_arrow(TREE2, rng, coords=g.den.domain_len, gens=2)
        h = og.Span(og.compose(u, g.den), og.compose(u, g.num))
        grid_checks += 1
        if not (og.sp_eq(g, h) and grid_eq(g, h)):
            grid_failures += 1

    ok = axiom_failures == 0 and grid_failures == 0
    report(
        5,
        ok,
        f"1000 spans: {axiom_failures} axiom failures, "
        f"{grid_failures}/{grid_checks} grid-oracle disagreements",
    )


@pytest.mark.slow
def test_criterion_06_marked_arrow_calculus(monkeypatch):
    # compose is pure, and ma_subset_with checks the same few arrow pairs
    # over and over: a memo for this test alone, so every marked pair still
    # goes through the filling check
    monkeypatch.setattr(og.markings, "compose", functools.lru_cache(maxsize=None)(og.compose))
    expected_counts = {TREE2: 192, CUBE1: 192, CUBE2: 742}
    problems = []
    for config, expected in expected_counts.items():
        marked = list(all_marked(config, 1, 2))
        if len(marked) != expected:
            problems.append(f"{config}: {len(marked)} marked arrows, expected {expected}")
            continue
        matrix = [
            sum(1 << j for j, q in enumerate(marked) if og.ma_subset(p, q))
            for p in marked
        ]
        if not all(matrix[i] >> i & 1 for i in range(len(marked))):
            problems.append(f"{config}: preorder not reflexive")
        if not is_transitive(matrix):
            problems.append(f"{config}: preorder not transitive")

        # the deeper filling depends on the two arrows alone, and the
        # marked arrows share few of them
        steps, deeper_fillings = {}, {}
        for i, p in enumerate(marked):
            for j, q in enumerate(marked):
                deeper = deeper_fillings.get((p.arrow, q.arrow))
                if deeper is None:
                    b1, b2 = og.square_fill(p.arrow, q.arrow)
                    if b1.domain_len not in steps:
                        steps[b1.domain_len] = og.Arrow.from_forest(
                            config,
                            (og.op_generator(config),)
                            + (og.op_identity(config),) * (b1.domain_len - 1),
                        )
                    step = steps[b1.domain_len]
                    deeper = (og.compose(step, b1), og.compose(step, b2))
                    deeper_fillings[p.arrow, q.arrow] = deeper
                if og.ma_subset_with(p, q, deeper) != bool(matrix[i] >> j & 1):
                    problems.append(f"{config}: verdict depends on the filling")
                    break
            else:
                continue
            break

        classes = [og.SemiPartitionClass(p) for p in marked]
        for i, j in itertools.combinations(range(len(marked)), 2):
            mutual = bool(matrix[i] >> j & 1) and bool(matrix[j] >> i & 1)
            if og.sp_class_eq(classes[i], classes[j]) != mutual:
                problems.append(f"{config}: class equality vs mutual containment")
                break
    ok = not problems
    report(6, ok, "; ".join(problems) or "preorder, fillings, and classes agree on 192+192+742 marked arrows")


def test_criterion_07_action_suite():
    rng = random.Random(7)
    classes = []
    for forest in og.forests_up_to(TREE2, 1, 2):
        arrow = og.Arrow.from_forest(TREE2, forest)
        for marking in og.full_markings(TREE2, arrow.domain_len):
            P = og.SemiPartitionClass(og.MarkedArrow(arrow, marking))
            if not any(og.sp_class_eq(P, Q) for Q in classes):
                classes.append(P)

    elements = [random_span(TREE2, rng, max_gens=4) for _ in range(100)]
    law_failures = order_failures = sub_failures = 0
    comparable = [
        (P, Q)
        for P, Q in itertools.product(classes, repeat=2)
        if og.class_subset(Q, P)
    ]
    for P in classes:
        for idx, g in enumerate(elements):
            h = elements[(idx + 1) % len(elements)]
            if not og.sp_class_eq(og.act(og.sp_mul(g, h), P), og.act(g, og.act(h, P))):
                law_failures += 1
            subs_after = og.submultiballs(og.act(g, P))
            moved = [og.act(g, B) for B in og.submultiballs(P)]
            if len(moved) != len(subs_after) or not all(
                any(og.sp_class_eq(B, C) for C in subs_after) for B in moved
            ):
                sub_failures += 1
    for P, Q in comparable:
        for g in elements:
            if not og.class_subset(og.act(g, Q), og.act(g, P)):
                order_failures += 1
    ok = law_failures == order_failures == sub_failures == 0
    report(
        7,
        ok,
        f"{len(classes)} partitions x 100 elements: {law_failures} law, "
        f"{order_failures} order, {sub_failures} submultiball failures",
    )


def test_criterion_08_stabilizer_round_trip():
    rng = random.Random(8)
    caret = og.Arrow.from_forest(TREE2, (og.op_generator(TREE2),))
    comb = og.Arrow.from_forest(TREE2, (og.op_comb(TREE2, 2),))
    witnesses = [
        og.StabilizerWitness.from_partition(
            og.SemiPartitionClass(
                og.MarkedArrow(a, og.Marking(tuple(range(a.domain_len))))
            )
        )
        for a in (caret, comb)
    ]
    failures = 0
    for W in witnesses:
        for _ in range(100):
            comps = tuple(
                random_span(TREE2, rng, coords=w, max_gens=3) for w in W.subwords
            )
            back = og.decompose(og.xi(comps, W), W)
            if not all(og.sp_eq(x, y) for x, y in zip(back, comps)):
                failures += 1
    rejected = False
    try:
        og.decompose(og.make_gamma1(TREE2), witnesses[0])
    except og.NotInStabilizerError as exc:
        rejected = exc.code == "E_NOT_IN_STABILIZER"
    ok = failures == 0 and rejected
    report(8, ok, f"200 round trips, {failures} failures; gamma1 rejected: {rejected}")


def test_criterion_09_poset():
    two = len(og.enumerate_pn(TREE2, 1, 1, 1, 1).elements)
    construct_ok = all(
        og.n_condition(og.construct_partition_n(config, 1, y, n), y, n)
        for config in (TREE2, CUBE1)
        for y in (1, 2)
        for n in range(1, 5)
    )
    filtered = {
        (str(config), n): og.check_filtered(og.enumerate_pn(config, 1, 2, 1, n))
        for config in (TREE2, CUBE1)
        for n in (1, 2)
    }
    failures = sum(len(r.failures()) for r in filtered.values())
    ok = two == 2 and construct_ok and failures == 0 and all(r.ok for r in filtered.values())
    report(
        9,
        ok,
        f"depth-1 classes: {two} (want 2); construct n<=4: {construct_ok}; "
        f"filtered failures: {failures}",
    )


def test_criterion_10_freeness_and_sigma_spans():
    free = og.free_action_check(TREE2, 4, 3)
    sigma = og.sigma_span_report(TREE2, 4, 3)
    ok = (
        free.ok
        and sigma.ok
        and len(free.failures()) == 0
        and len(sigma.failures()) == 0
        and len(free.rows) == len(sigma.rows) == 1768
    )
    report(
        10,
        ok,
        f"free action: {len(free.rows)} rows, {len(free.failures())} violations; "
        f"sigma spans: {len(sigma.rows)} rows, {len(sigma.failures())} violations, routes agree",
    )


def test_criterion_11_backend_coherence():
    rng = random.Random(11)
    mismatches = 0
    for _ in range(500):
        arrow = random_arrow(TREE2, rng, coords=2, gens=rng.randrange(5))
        twin = og.Arrow(
            CUBE1,
            arrow.perm,
            tuple(og.Operation(CUBE1, op.cells) for op in arrow.forest),
        )
        if og.realize(arrow) != og.realize(twin):
            mismatches += 1
    vh = og.parse_operation("[0 [1 . .] [1 . .]]", CUBE2)
    hv = og.parse_operation("[1 [0 . .] [0 . .]]", CUBE2)
    ok = mismatches == 0 and vh == hv
    report(
        11,
        ok,
        f"500 corresponding arrows, {mismatches} mismatches; "
        f"cut-order quadrants identical: {vh == hv}",
    )
