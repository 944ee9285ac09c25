"""Arbitrary text fed to every literal parser and to the command line ends
in a typed error or a clean exit, never in any other exception."""

import contextlib
import io

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

import operad_groups as og
from operad_groups.cli import main
from helpers import CUBE2, PLANAR2, TREE2, TREE3

def fuzz(examples):
    return settings(
        derandomize=True,
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

# Free text, text over the characters of the literal grammars, and text
# shaped like each literal with free digit runs and symbols, so that
# generated input often gets past the first check of a parser and reaches
# the later ones.  ² is a digit to str.isdigit but not to int; ٣ is a
# decimal digit to both and to the regex \d.
GRAMMAR = "()[]{}.,;:|@ bpm-ab0123456789²٣"
digits = st.text(alphabet="0123456789²٣", min_size=1, max_size=3)
symbols = st.text(alphabet="ab-²", max_size=2)
markings = st.lists(st.tuples(digits, symbols), max_size=4).map(
    lambda entries: "m[" + " ".join(f"{i}:{s}" for i, s in entries) + "]"
)
perms = st.lists(digits, max_size=4).map(lambda imgs: "p[" + ",".join(imgs) + "]")
boxes = st.lists(st.tuples(digits, digits), min_size=1, max_size=3).map(
    lambda axes: "b(" + ",".join(f"{e}:{a}" for e, a in axes) + ")"
)
patterns = st.lists(boxes, min_size=1, max_size=4).map(lambda bs: "{" + ",".join(bs) + "}")
trees = st.recursive(
    st.just("."),
    lambda kids: st.lists(kids, min_size=1, max_size=4).map(lambda ks: "(" + " ".join(ks) + ")"),
    max_leaves=8,
)
cut_trees = st.recursive(
    st.just("."),
    lambda kids: st.tuples(digits, kids, kids).map(lambda t: "[{} {} {}]".format(*t)),
    max_leaves=6,
)
operations = st.one_of(trees, cut_trees, patterns)
arrows = st.builds(
    "".join,
    st.tuples(
        st.one_of(st.just(""), perms.map(lambda p: p + " ; ")),
        st.lists(operations, max_size=3).map(" , ".join),
    ),
)
spans = st.tuples(arrows, arrows).map(" | ".join)
marked = st.tuples(arrows, markings).map(" @ ".join)
backends = st.tuples(st.sampled_from(["tree:k=", "cube:d="]), digits).map("".join)
texts = st.one_of(
    st.text(max_size=40),
    st.text(alphabet=GRAMMAR, max_size=60),
    markings,
    perms,
    boxes,
    patterns,
    trees,
    cut_trees,
    arrows,
    spans,
    marked,
    backends,
)

UNARY = (og.parse_backend, og.parse_box, og.parse_permutation, og.parse_marking)
WITH_CONFIG = (og.parse_operation, og.parse_arrow, og.parse_span, og.parse_marked_arrow)
CONFIGS = (TREE2, TREE3, PLANAR2, og.BackendConfig.cube(1), CUBE2)


def parses_or_refuses(parse, *args):
    try:
        parse(*args)
    except og.OperadError:
        pass


class TestParsers:
    @fuzz(400)
    @given(texts)
    def test_unary_parsers(self, text):
        for parse in UNARY:
            parses_or_refuses(parse, text)

    @fuzz(400)
    @given(texts, st.sampled_from(CONFIGS))
    def test_parsers_over_a_backend(self, text, config):
        for parse in WITH_CONFIG:
            parses_or_refuses(parse, text, config)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refusing the argument list
            return exc.code, None
    return rc, err.getvalue()


def commands(text, other):
    return (
        ["--backend", text, "cert", "torsion"],
        ["elem", "inv", text],
        ["elem", "order", text],
        ["elem", "eq", text, other],
        ["elem", "mul", text, other],
        ["elem", "realize", text],
        ["act", text, other],
        ["act", "(. .) | (. .)", text],
        ["--backend", "cube:d=2", "elem", "inv", text],
        ["--backend", "cube:d=1", "act", text, other],
    )


class TestCommandLine:
    @fuzz(120)
    @given(texts, texts)
    def test_exit_codes_and_typed_errors(self, text, other):
        for argv in commands(text, other):
            rc, err = run_main(argv)
            assert rc in (0, 1, 2), (argv, rc)
            if rc == 2 and err is not None:
                assert err.startswith("error: E_"), (argv, err)
