"""The benchmark's workloads: seeded inputs, the timed operations of one
round, and the checks of every result against ``perfbench.oracle``.

A workload is a fixed list of operations (ops).  Every round runs the
same ops on the same inputs, starting from empty memos, so rounds are
interchangeable and the share of failed ops is the same in every run.
An op's arguments are inputs made in set-up or ``Ref``s to the outputs of
earlier ops of the same round.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re

from perfbench import oracle as orc
from perfbench.inputs import random_arrow, random_marking, random_span, refine_marked, refine_span


class Ref:
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class Op:
    __slots__ = ("kind", "fn", "args", "info")

    def __init__(self, kind, fn, args, info=None):
        self.kind, self.fn, self.args, self.info = kind, fn, args, info


class Workload:
    """``ops`` run in order each round.  ``fresh_per_op`` empties the
    program's memos before every op instead of once per round."""

    fresh_per_op = False

    def bind(self):
        """name -> callable, looked up afresh each round so that the
        tracer's wrappers are seen."""
        raise NotImplementedError

    def failed(self, op, out) -> bool:
        return isinstance(out, BaseException)

    def fingerprint(self, out):
        """A plain value, the printed literal for program objects, that
        must repeat exactly in every round."""
        raise NotImplementedError

    def check(self, outputs):
        """Problems found in one round's fingerprints (None for failed ops)."""
        raise NotImplementedError


# ------------------------------------------------------------ span_arith

TREE2 = orc.Backend("tree", 2)


class SpanArith(Workload):
    """Products, inverses and comparisons of random elements of Thompson's
    V, plus successive powers of the infinite-order shift."""

    TRIPLES = 300
    SHIFT_POWERS = 32

    def __init__(self, og, seed: int):
        self.og = og
        rng = random.Random(seed)
        config = og.BackendConfig.tree(2)
        self.plain, inputs = [], []
        ops = []

        def add(span):
            self.plain.append(span)
            inputs.append(og.parse_span(orc.format_span(span, TREE2), config))
            return inputs[-1]

        def op(kind, *args):
            ops.append(Op(kind, kind, args))
            return Ref(len(ops) - 1)

        for t in range(self.TRIPLES):
            # sizes cycle so that seeds vary shapes, not the size mix
            a, b, c = (add(random_span(rng, TREE2, 1, 2 + (t + x) % 3)) for x in range(3))
            ab = op("mul", a, b)
            bc = op("mul", b, c)
            abc1 = op("mul", ab, c)
            abc2 = op("mul", a, bc)
            op("eq", abc1, abc2)
            op("eq", ab, bc)
            op("mul", abc2, op("inv", abc1))
        shift = og.make_infinite_element(config)
        self.plain.append(orc.parse_span(str(shift), TREE2))
        inputs.append(shift)
        power = shift
        for _ in range(self.SHIFT_POWERS - 1):
            power = op("mul", power, shift)
        self.inputs = inputs
        self.ops = ops

    def bind(self):
        og = self.og
        return {"mul": og.sp_mul, "inv": og.sp_inv, "eq": og.sp_eq}

    def fingerprint(self, out):
        return out if isinstance(out, bool) else str(out)

    def check(self, outputs):
        input_maps = {id(obj): orc.span_map(p, 2) for obj, p in zip(self.inputs, self.plain)}
        expected = []
        problems = []

        def arg_map(a):
            return expected[a.index] if isinstance(a, Ref) else input_maps[id(a)]

        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            maps = [arg_map(a) for a in op.args]
            if op.kind == "eq":
                expected.append(None)
                if out is not None and out != maps[0].equals(maps[1]):
                    problems.append(f"op {i}: sp_eq said {out}")
                continue
            want = maps[0].then(maps[1]) if op.kind == "mul" else maps[0].inverse()
            expected.append(want)
            if out is None:
                continue
            got = orc.parse_span(out, TREE2)
            if not orc.span_is_valid(got, 2) or not orc.span_map(got, 2).equals(want):
                problems.append(f"op {i}: {op.kind} disagrees with the composite map")
        shift_powers = [input_maps[id(self.inputs[-1])]] + expected[-(self.SHIFT_POWERS - 1) :]
        if any(m.is_identity() for m in shift_powers):
            problems.append("a power of the shift is the identity")
        return problems


# ---------------------------------------------------------- cube_classes

CUBE2 = orc.Backend("cube", 2)


class CubeClasses(Workload):
    """The containment preorder, class equality and the action of 2V on a
    fixed pool of marked subdivisions of the square.

    Each kind draws a fixed number of distinct argument pairs and asks each
    pair ``REPEATS`` times, in shuffled order, so about one call in
    ``REPEATS`` finds an empty ``square_fill`` memo whatever the seed.
    Arrow sizes and marking shapes cycle with the pool index, so seeds vary
    the shapes but not the mix.
    """

    ARROWS = 32
    REFINED = 16
    ELEMENTS = 12
    PAIRS = {"ma_subset": 300, "sp_class_eq": 150, "act": 150}
    REPEATS = 4

    def __init__(self, og, seed: int):
        self.og = og
        rng = random.Random(seed)
        config = og.BackendConfig.cube(2)
        marked = []
        for k in range(self.ARROWS):
            arrow = random_arrow(rng, CUBE2, 1, 1 + k % 4)
            for full in (True, False):
                marked.append((arrow, random_marking(rng, len(arrow[0]), 1 + k % 3, full)))
        for m in marked[:: len(marked) // self.REFINED][: self.REFINED]:
            marked.append(refine_marked(m, rng.randrange(len(m[1])), rng.randrange(2), 2))
        elements = [random_span(rng, CUBE2, 1, 1 + k % 3) for k in range(self.ELEMENTS)]
        self.marked, self.elements = marked, elements
        arrows = [og.parse_marked_arrow(orc.format_marked(m, CUBE2), config) for m in marked]
        classes = [og.SemiPartitionClass(a) for a in arrows]
        spans = [og.parse_span(orc.format_span(g, CUBE2), config) for g in elements]
        calls = []
        for kind, count in self.PAIRS.items():
            left = len(spans) if kind == "act" else len(marked)
            pairs = rng.sample([(i, j) for i in range(left) for j in range(len(marked))], count)
            calls.extend((kind, pair) for pair in pairs for _ in range(self.REPEATS))
        rng.shuffle(calls)
        ops = []
        for kind, (i, j) in calls:
            if kind == "ma_subset":
                ops.append(Op(kind, kind, (arrows[i], arrows[j]), (i, j)))
            elif kind == "sp_class_eq":
                ops.append(Op(kind, kind, (classes[i], classes[j]), (i, j)))
            else:
                ops.append(Op(kind, kind, (spans[i], classes[j]), (i, j)))
        self.ops = ops

    def bind(self):
        og = self.og
        return {"ma_subset": og.ma_subset, "sp_class_eq": og.sp_class_eq, "act": og.act}

    def fingerprint(self, out):
        return out if isinstance(out, bool) else str(out)

    def check(self, outputs):
        tiles = [orc.tiles(m) for m in self.marked]
        keys = [orc.class_key(t, 1, CUBE2) for t in tiles]
        maps = [orc.span_map(g, 2) for g in self.elements]
        verdicts = {}
        problems = []
        for n, (op, out) in enumerate(zip(self.ops, outputs)):
            if out is None:
                continue
            i, j = op.info
            if op.kind == "ma_subset":
                key = (op.kind, i, j)
                if key not in verdicts:
                    verdicts[key] = orc.refines(tiles[i], tiles[j], 1, CUBE2)
                ok = out == verdicts[key]
            elif op.kind == "sp_class_eq":
                ok = out == (keys[i] == keys[j])
            else:
                key = (op.kind, i, j)
                if key not in verdicts:
                    verdicts[key] = orc.class_key(orc.act_tiles(maps[i], tiles[j]), 1, CUBE2)
                got = orc.parse_marked(out, CUBE2)
                key_got = orc.class_key(orc.tiles(got), 1, CUBE2)
                ok = orc.arrow_is_valid(got[0], 2) and key_got == verdicts[key]
            if not ok:
                problems.append(f"op {n}: {op.kind}{op.info} disagrees with the atom oracle")
        return problems


# ----------------------------------------------------------- cli_session

HEAVY = (
    ("partition", "list", "--depth", "4"),
    ("poset", "filtered", "--depth", "3"),
    ("cert", "sigma", "--max-perm", "4", "--depth", "3"),
    ("cert", "freeaction", "--max-perm", "4", "--depth", "3"),
    ("cert", "pingpong", "--depth", "6", "--max-len", "10"),
    ("cert", "infinite"),
    ("cert", "padded", "--max-n", "24"),
)


def _deep_literal(levels: int) -> str:
    """A tree literal ``levels`` deep whose innermost node has three
    children: malformed under k=2 whichever way it is parsed."""
    return "(" * levels + "(. . .)" + " .)" * levels


HOSTILE = (
    ("elem", "order", f"{_deep_literal(1200)} | {_deep_literal(1200)}"),
    ("--flavor", "planar", "cert", "torsion"),
    ("--flavor", "planar", "act", "(. .) | (. .)", "((. .) .) @ m[0:a 1:b 2:a]"),
)

_ERROR_LINE = re.compile(r"error: E_[A-Z_]+")


def _basic_cut(backend):
    return tuple(orc.children(backend.whole, 0, backend.base))


def _torsion_maps(backend):
    """gamma1 (first two inputs of one cut swapped) and both orientations
    of gamma2 (first three inputs of a three-input tree cycled)."""
    gen = _basic_cut(backend)
    ident = tuple(range(len(gen)))
    swap = (1, 0) + ident[2:]
    g1 = orc.span_map(((ident, (gen,)), (swap, (gen,))), backend.base)
    tree = gen
    while len(tree) < 3:
        tree = tuple(orc.children(tree[0], 0, backend.base)) + tree[1:]
    ident = tuple(range(len(tree)))
    cyc = (1, 2, 0) + ident[3:]
    inv = (2, 0, 1) + ident[3:]
    g2s = [orc.span_map(((ident, (tree,)), (p, (tree,))), backend.base) for p in (cyc, inv)]
    return g1, g2s


def _shift_map(backend):
    gen = _basic_cut(backend)
    left = tuple(orc.children(gen[0], 0, backend.base)) + gen[1:]
    right = gen[:-1] + tuple(orc.children(gen[-1], 0, backend.base))
    arity = tuple(range(len(left)))
    return orc.span_map(((arity, (left,)), (arity, (right,))), backend.base)


def _rows(out):
    return [json.loads(line) for line in out.splitlines()]


class CliSession(Workload):
    """A seeded session of README commands through ``cli.main --json``,
    each from a cold process state (import done, memos empty)."""

    fresh_per_op = True
    COUNTS = {
        "elem mul": 60,
        "elem inv": 20,
        "elem eq": 36,
        "elem pow": 20,
        "elem order": 20,
        "elem realize": 16,
        "act": 60,
        "partition": 18,
        "poset": 10,
        "cert": 30,
    }

    def __init__(self, og, seed: int):
        import importlib

        self.cli = importlib.import_module("operad_groups.cli")
        rng = random.Random(seed)
        commands = []
        for kind, count in self.COUNTS.items():
            make = getattr(self, "_" + kind.replace(" ", "_"))
            commands.extend(make(rng, i) for i in range(count))
        commands.extend(("heavy", list(argv), None) for argv in HEAVY)
        commands.extend(("hostile", list(argv), None) for argv in HOSTILE)
        rng.shuffle(commands)
        self.ops = [
            Op(kind, "cli", (["--json"] + argv if kind != "hostile" else argv,), info)
            for kind, argv, info in commands
        ]

    # -- command makers: (kind, argv, oracle data).  The i-th command of a
    # kind takes a fixed variant and fixed options, so that seeds vary the
    # elements and markings, not the mix of commands.

    ELEM_BACKENDS = (
        ([], TREE2),
        ([], TREE2),
        (["--backend", "tree:k=3"], orc.Backend("tree", 3)),
        (["--backend", "cube:d=2"], CUBE2),
        (["--flavor", "planar"], orc.Backend("tree", 2, planar=True)),
    )

    def _elem_backend(self, i, cube=True):
        backends = self.ELEM_BACKENDS if cube else self.ELEM_BACKENDS[:3] + self.ELEM_BACKENDS[4:]
        return backends[i % len(backends)]

    def _span(self, rng, backend, coords=1):
        return random_span(rng, backend, coords, rng.randint(1, 4))

    def _elem_mul(self, rng, i):
        flags, b = self._elem_backend(i)
        g, h = self._span(rng, b), self._span(rng, b)
        argv = flags + ["elem", "mul", orc.format_span(g, b), orc.format_span(h, b)]
        return "elem mul", argv, (b, g, h)

    def _elem_inv(self, rng, i):
        flags, b = self._elem_backend(i)
        g = self._span(rng, b)
        return "elem inv", flags + ["elem", "inv", orc.format_span(g, b)], (b, g)

    def _elem_eq(self, rng, i):
        flags, b = self._elem_backend(i // 2 * 2)
        if b.planar:
            flags, b = [], TREE2
        g = self._span(rng, b)
        if i % 2:
            h = refine_span(g, rng.randrange(len(g[0][0])), rng.randrange(b.dim), b.base)
        else:
            h = self._span(rng, b)
        argv = flags + ["elem", "eq", orc.format_span(g, b), orc.format_span(h, b)]
        return "elem eq", argv, (b, g, h)

    def _elem_pow(self, rng, i):
        flags, b = self._elem_backend(i)
        g, n = random_span(rng, b, 1, rng.randint(1, 3)), 2 + i % 3
        return "elem pow", flags + ["elem", "pow", orc.format_span(g, b), str(n)], (b, g, n)

    def _elem_order(self, rng, i):
        # cube elements of infinite order grow too fast for an interactive call
        flags, b = self._elem_backend(i, cube=False)
        if i % 2 and not b.planar:
            den = random_arrow(rng, b, 1, rng.randint(1, 3))
            perm = list(den[0])
            rng.shuffle(perm)
            g = (den, (tuple(perm), den[1]))
        else:
            g = random_span(rng, b, 1, rng.randint(1, 3))
        argv = flags + ["elem", "order", orc.format_span(g, b), "--max", "6"]
        return "elem order", argv, (b, g, 6)

    def _elem_realize(self, rng, i):
        flags, b = self._elem_backend(i)
        g = self._span(rng, b)
        return "elem realize", flags + ["elem", "realize", orc.format_span(g, b)], (b, g)

    def _act(self, rng, i):
        flags, b = self._elem_backend(i)
        coords = 1 + i // 5 % 2
        g = self._span(rng, b, coords)
        arrow = random_arrow(rng, b, coords, rng.randint(0, 4))
        size = len(arrow[0])
        if b.planar:
            marking, s = [], 0
            while len(marking) < size:
                run = rng.randint(1, size - len(marking))
                marking += [None if rng.random() < 0.3 else "abcdefgh"[s]] * run
                s += 1
            marking = tuple(marking)
        else:
            marking = random_marking(rng, size, rng.randint(1, 3), rng.random() < 0.5)
        S = (arrow, marking)
        argv = flags + ["act", orc.format_span(g, b), orc.format_marked(S, b)]
        return "act", argv, (b, g, S, coords)

    PARTITIONS = (
        ([], TREE2, 1),
        ([], TREE2, 2),
        (["--backend", "tree:k=3"], orc.Backend("tree", 3), 1),
        (["--flavor", "planar"], orc.Backend("tree", 2, planar=True), 2),
        (["--backend", "cube:d=2"], CUBE2, 1),
    )

    def _partition(self, rng, i):
        flags, b, depth = self.PARTITIONS[i % len(self.PARTITIONS)]
        y, n = 1 + i // 5 % 2, 1 + i // 10 % 2
        argv = flags + ["partition", "list", "--depth", str(depth), "--y", str(y), "--n", str(n)]
        return "partition", argv, (b, 1, depth, y, n)

    def _poset(self, rng, i):
        depth, y, n = 1 + i % 2, 1 + i // 2 % 2, 1 + i // 4 % 2
        argv = ["poset", "filtered", "--depth", str(depth), "--y", str(y), "--n", str(n)]
        return "poset", argv, (TREE2, 1, depth, y, n)

    CERT_BACKENDS = (
        ([], TREE2),
        (["--backend", "tree:k=3"], orc.Backend("tree", 3)),
        (["--backend", "cube:d=2"], CUBE2),
    )

    def _cert(self, rng, i):
        which = ("torsion", "infinite", "pingpong", "freeaction", "sigma", "padded")[i % 6]
        flags, b = self.CERT_BACKENDS[i // 6 % 3]
        if which == "infinite":
            argv = ["cert", "infinite", "--max-n", "8"]
        elif which == "pingpong":
            if b.kind == "tree" and b.size != 2:
                flags, b = [], TREE2  # the construction fails its own rows on tree:k=3
            argv = ["cert", "pingpong", "--depth", "2", "--max-len", "2"]
        elif which in ("freeaction", "sigma"):
            if b.kind == "cube":
                flags, b = [], TREE2  # closed-form row counts are for trees
            argv = ["cert", which, "--max-perm", "3", "--depth", "1"]
        elif which == "padded":
            flags, b = [], TREE2
            argv = ["cert", "padded", "--max-n", "3"]
        else:
            argv = ["cert", "torsion"]
        return "cert", flags + argv, (b, argv)

    # -- running

    def bind(self):
        cli = self.cli

        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
            return rc, out.getvalue(), err.getvalue()

        return {"cli": call}

    def failed(self, op, out):
        if isinstance(out, BaseException):
            return True
        rc, stdout, stderr = out
        if op.kind == "hostile":
            return not (rc == 2 and stdout == "" and _ERROR_LINE.match(stderr))
        return rc != 0

    def fingerprint(self, out):
        return repr(out) if isinstance(out, BaseException) else out

    def check(self, outputs):
        problems = []
        for n, (op, out) in enumerate(zip(self.ops, outputs)):
            if out is None or op.kind == "hostile":
                continue
            argv = op.args[0]
            try:
                problem = self._check_one(op, argv, out[1])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                problems.append(f"op {n} ({' '.join(argv)[:80]}): {problem}")
        return problems

    def _check_one(self, op, argv, out):
        info = op.info
        if op.kind == "heavy":
            return self._check_heavy(argv, out)
        if op.kind.startswith("elem"):
            b = info[0]
            result = json.loads(out)["result"]
            g = orc.span_map(info[1], b.base)
            if op.kind == "elem mul":
                return self._span_is(result, b, g.then(orc.span_map(info[2], b.base)))
            if op.kind == "elem inv":
                return self._span_is(result, b, g.inverse())
            if op.kind == "elem pow":
                return self._span_is(result, b, g.power(info[2]))
            if op.kind == "elem eq":
                want = g.equals(orc.span_map(info[2], b.base))
                return None if result == ("true" if want else "false") else f"said {result}"
            if op.kind == "elem order":
                order = g.order(info[2])
                return None if result == ("none" if order is None else str(order)) else f"said {result}"
            want = [
                f"{jd}:{orc.format_cell(cd)} -> {jn}:{orc.format_cell(cn)}"
                for (jd, cd), (jn, cn) in zip(orc.realize(info[1][0]), orc.realize(info[1][1]))
            ]
            return None if result == want else "realized map differs"
        if op.kind == "act":
            b, g, S, coords = info
            got = orc.parse_marked(json.loads(out)["result"], b)
            want = orc.class_key(orc.act_tiles(orc.span_map(g, b.base), orc.tiles(S)), coords, b)
            if orc.class_key(orc.tiles(got), coords, b) != want:
                return "acted class is not the image of the input's regions"
            return None
        if op.kind == "partition":
            return self._check_partition(info, out)
        if op.kind == "poset":
            return self._check_poset(info, out)
        return self._check_cert(info[0], info[1], out)

    @staticmethod
    def _span_is(text, b, want):
        got = orc.parse_span(text, b)
        if not orc.span_is_valid(got, b.base) or not orc.span_map(got, b.base).equals(want):
            return "result is not the expected element"
        return None

    @staticmethod
    def _check_partition(info, out):
        b, base, depth, y, n = info
        want = orc.partition_classes(b, base, depth, y, n)
        keys = [orc.class_key(orc.tiles(orc.parse_marked(r["result"], b)), base, b) for r in _rows(out)]
        if len(keys) != len(set(keys)) or set(keys) != want:
            return f"{len(keys)} classes printed, {len(want)} expected"
        return None

    @staticmethod
    def _check_poset(info, out):
        b, base, depth, y, n = info
        count = len(orc.partition_classes(b, base, depth, y, n))
        rows = _rows(out)
        if len(rows) != count * (count - 1) // 2:
            return f"{len(rows)} rows for {count} classes"
        for row in rows:
            p, q, r = (orc.tiles(orc.parse_marked(row[k], b)) for k in ("p", "q", "upper_bound"))
            if not row["ok"] or any(s is None for *_, s in r):
                return "an upper bound is not a partition"
            if not (orc.refines(r, p, base, b) and orc.refines(r, q, base, b)):
                return "an upper bound does not refine both partitions"
        return None

    def _check_heavy(self, argv, out):
        words = argv[1:]
        if words[0] == "partition":
            return self._check_partition((TREE2, 1, 4, 1, 1), out)
        if words[0] == "poset":
            return self._check_poset((TREE2, 1, 3, 1, 1), out)
        return self._check_cert(TREE2, words, out)

    def _check_cert(self, b, words, out):
        rows = _rows(out)
        opts = {k: int(v) for k, v in zip(words[2::2], words[3::2])}
        which = words[1]
        if not all(r["ok"] for r in rows):
            return "a certificate row failed"
        if which == "torsion":
            g1, g2s = _torsion_maps(b)
            want = [("gamma1", str(g1.order(4))), ("gamma2", str(min(g.order(4) for g in g2s)))]
            return None if [(r["instance"], r["witness"]) for r in rows] == want else "orders differ"
        if which == "infinite":
            max_n = opts.get("--max-n", 64)
            shift, power = _shift_map(b), None
            for n, row in enumerate(rows, 1):
                power = shift if power is None else power.then(shift)
                if power.is_identity():
                    return f"power {n} of the shift is the identity"
                if n <= 3 and not orc.span_map(orc.parse_span(row["witness"], b), b.base).equals(power):
                    return f"witness of power {n} differs"
            return None if len(rows) == max_n else f"{len(rows)} rows, {max_n} expected"
        if which in ("freeaction", "sigma"):
            want = orc.sweep_rows(b.size, opts["--max-perm"], opts["--depth"])
            if len(rows) == want == len({r["instance"] for r in rows}):
                return None
            return f"{len(rows)} rows, {want} expected"
        words_rows = [r for r in rows if r["check"] == "alternating_words"]
        problem = self._check_words(b, words_rows)
        if problem:
            return problem
        if which == "padded":
            want = 3 + orc.alternating_rows(4)
            return None if len(rows) == want else f"{len(rows)} rows, {want} expected"
        depth, max_len = opts["--depth"], opts["--max-len"]
        ball_rows = [r for r in rows if r["check"] == "pingpong"]
        if len(ball_rows) != orc.pingpong_rows(b, depth) or len(words_rows) != orc.alternating_rows(max_len):
            return f"{len(ball_rows)} + {len(words_rows)} rows"
        return self._check_balls(b, ball_rows, words_rows)

    @staticmethod
    def _check_words(b, rows):
        """Each word's witness is non-trivial and is the product of its
        prefix's witness and its last syllable's."""
        maps = {r["instance"]: orc.span_map(orc.parse_span(r["witness"], b), b.base) for r in rows}
        for word, got in maps.items():
            if got.is_identity():
                return f"word {word} is trivial"
            prefix, _, last = word.rpartition("·")
            if prefix and not got.equals(maps[prefix].then(maps[last])):
                return f"word {word} is not the product of its syllables"
        if rows and (maps["g1"].order(4) != 2 or maps["g2"].order(4) != 3):
            return "syllables have the wrong orders"
        return None

    @staticmethod
    def _check_balls(b, rows, words_rows):
        """Each witness is a ball inside the target half and is the image
        of the instance ball under the syllable's action."""
        maps = {r["instance"]: orc.span_map(orc.parse_span(r["witness"], b), b.base) for r in words_rows}
        half = lambda digit: (0, orc.children(b.whole, 0, b.base)[digit])
        for row in rows:
            name, _, ball = row["instance"].partition(" · ")
            target = half(1) if name == "g1" else half(0)
            got = orc.tiles(orc.parse_marked(row["witness"], b))
            cell = orc.ball_cell(got, b)
            if cell is None or cell[0] != target[0] or not orc.contains(target[1], cell[1], b.base):
                return f"{row['instance']} does not land in its half"
            image = orc.act_tiles(maps[name], orc.tiles(orc.parse_marked(ball, b)))
            if orc.class_key(image, 1, b) != orc.class_key(got, 1, b):
                return f"{row['instance']} is not the image of the ball"
        return None


WORKLOADS = {"span_arith": SpanArith, "cube_classes": CubeClasses, "cli_session": CliSession}
