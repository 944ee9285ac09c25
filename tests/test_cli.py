"""The operad-groups command line: outputs, JSON schema, exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import operad_groups as og
from operad_groups.cli import main
from helpers import CUBE2, TREE2, random_span

SWAP = "(. .) | p[1,0] ; (. .)"
SHIFT = "((. .) .) | (. (. .))"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestElem:
    def test_eq(self, capsys):
        rc, out, _ = run(capsys, "elem", "eq", SWAP, SWAP)
        assert rc == 0 and out == "true\n"

    def test_eq_assert_sets_the_exit_code(self, capsys):
        rc, out, _ = run(capsys, "elem", "eq", SWAP, "(. .) | (. .)", "--assert")
        assert rc == 1 and out == "false\n"
        rc, out, _ = run(capsys, "elem", "eq", SWAP, "(. .) | (. .)")
        assert rc == 0 and out == "false\n"

    def test_mul(self, capsys):
        rc, out, _ = run(capsys, "elem", "mul", SWAP, SWAP)
        assert rc == 0 and out == "p[1,0] ; (. .) | p[1,0] ; (. .)\n"

    def test_inv(self, capsys):
        rc, out, _ = run(capsys, "elem", "inv", SHIFT)
        assert rc == 0 and out == "(. (. .)) | ((. .) .)\n"

    def test_pow(self, capsys):
        rc, out, _ = run(capsys, "elem", "pow", SHIFT, "2")
        assert rc == 0 and out == "(((. .) .) .) | (. (. (. .)))\n"

    def test_order(self, capsys):
        rc, out, _ = run(capsys, "elem", "order", SWAP, "--max", "4")
        assert rc == 0 and out == "2\n"
        rc, out, _ = run(capsys, "elem", "order", SHIFT, "--max", "4")
        assert rc == 0 and out == "none\n"

    def test_realize(self, capsys):
        rc, out, _ = run(capsys, "elem", "realize", SHIFT)
        assert rc == 0
        assert out.splitlines() == [
            "0:b(2:0) -> 0:b(1:0)",
            "0:b(2:1) -> 0:b(2:2)",
            "0:b(1:1) -> 0:b(2:3)",
        ]

    def test_json_schema(self, capsys):
        rc, out, _ = run(capsys, "--json", "elem", "order", SWAP, "--max", "4")
        assert rc == 0
        payload = json.loads(out)
        assert payload == {
            "command": "elem order",
            "inputs": [SWAP],
            "result": "2",
        }


class TestAct:
    def test_moves_the_marked_cell(self, capsys):
        rc, out, _ = run(capsys, "act", SWAP, "(. .) @ m[0:a 1:-]")
        assert rc == 0 and out == "(. .) @ m[0:- 1:a]\n"

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "--json", "act", SWAP, "(. .) @ m[0:a 1:-]")
        payload = json.loads(out)
        assert payload["command"] == "act"
        assert payload["result"] == "(. .) @ m[0:- 1:a]"


class TestPartition:
    def test_list(self, capsys):
        rc, out, _ = run(
            capsys, "partition", "list", "--depth", "1", "--y", "1", "--n", "1"
        )
        assert rc == 0
        assert out.splitlines() == ["(. .) @ m[0:a 1:a]", "(. .) @ m[0:a 1:b]"]

    def test_json_rows(self, capsys):
        rc, out, _ = run(
            capsys, "--json", "partition", "list", "--depth", "1", "--y", "1", "--n", "1"
        )
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["result"] for r in rows] == [
            "(. .) @ m[0:a 1:a]",
            "(. .) @ m[0:a 1:b]",
        ]
        assert rows[0]["inputs"] == {"base": 1, "depth": 1, "y": 1, "n": 1}


class TestPoset:
    def test_filtered(self, capsys):
        rc, out, _ = run(
            capsys, "poset", "filtered", "--depth", "2", "--y", "1", "--n", "1"
        )
        assert rc == 0
        assert out == "filtered: true\npairs: 28\n"

    def test_a_failing_pair_is_printed_and_exits_1(self, capsys, monkeypatch):
        row = {"pair": "P <= Q", "ok": False}
        monkeypatch.setattr(
            "operad_groups.cli.check_filtered", lambda T: og.Report("filtered", (row,))
        )
        rc, out, _ = run(capsys, "poset", "filtered", "--depth", "1")
        assert rc == 1
        assert out == f"filtered: false\npairs: 1\n  FAIL {row}\n"


class TestCert:
    def test_torsion(self, capsys):
        rc, out, _ = run(capsys, "cert", "torsion")
        assert rc == 0
        assert out == "gamma1 order: 2\ngamma2 order: 3\n"

    def test_torsion_json(self, capsys):
        rc, out, _ = run(capsys, "--json", "cert", "torsion")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [
            {"check": "torsion", "instance": "gamma1", "ok": True, "witness": "2"},
            {"check": "torsion", "instance": "gamma2", "ok": True, "witness": "3"},
        ]

    def test_infinite(self, capsys):
        rc, out, _ = run(capsys, "cert", "infinite", "--max-n", "8")
        assert rc == 0 and out == "infinite_order: 8 checks, ok\n"

    def test_a_failing_row_is_printed_and_exits_1(self, capsys, monkeypatch):
        row = {"instance": "n=1", "ok": False, "witness": "1"}
        monkeypatch.setattr(
            "operad_groups.cli.infinite_order_check",
            lambda config, max_n: og.Report("infinite_order", (row,)),
        )
        rc, out, _ = run(capsys, "cert", "infinite")
        assert rc == 1
        assert out == f"infinite_order: 1 checks, 1 failures\n  FAIL {row}\n"

    def test_pingpong_with_words(self, capsys):
        rc, out, _ = run(
            capsys, "cert", "pingpong", "--depth", "2", "--max-len", "3"
        )
        assert rc == 0
        assert out.splitlines() == [
            "pingpong: 9 checks, ok",
            "alternating_words: 13 checks, ok",
        ]

    def test_freeaction_and_sigma(self, capsys):
        rc, out, _ = run(capsys, "cert", "freeaction", "--max-perm", "3", "--depth", "2")
        assert rc == 0 and out == "free_action: 73 checks, ok\n"
        rc, out, _ = run(capsys, "cert", "sigma", "--max-perm", "2", "--depth", "2")
        assert rc == 0 and out == "sigma_span: 8 checks, ok\n"

    def test_padded(self, capsys):
        rc, out, _ = run(capsys, "cert", "padded", "--max-n", "8")
        assert rc == 0 and out == "padded_certificates: 24 checks, ok\n"


class TestGlobals:
    def test_backend_and_flavor_flags(self, capsys):
        cube_swap = "{b(1:0,0:0),b(1:1,0:0)} | p[1,0] ; {b(1:0,0:0),b(1:1,0:0)}"
        rc, out, _ = run(
            capsys, "--backend", "cube:d=2", "elem", "order", cube_swap, "--max", "4"
        )
        assert rc == 0 and out == "2\n"
        rc, out, _ = run(
            capsys, "--flavor", "planar", "elem", "order", SHIFT, "--max", "4"
        )
        assert rc == 0 and out == "none\n"

    def test_parse_errors_exit_2(self, capsys):
        rc, out, err = run(capsys, "elem", "eq", "bogus", SWAP)
        assert rc == 2 and out == ""
        assert err.startswith("error: E_PARSE")

    def test_semantic_errors_exit_2(self, capsys):
        rc, _, err = run(capsys, "elem", "eq", SWAP, "(. .) | ((. .) .)")
        assert rc == 2
        assert err.startswith("error: E_SIZE_MISMATCH")

    def test_elements_of_one_group_compare_across_representative_sizes(self, capsys):
        rc, out, _ = run(capsys, "elem", "eq", SWAP, "((. .) .) | ((. .) .)")
        assert rc == 0 and out == "false\n"
        rc, out, _ = run(capsys, "elem", "eq", "(. .) | (. .)", "((. .) .) | ((. .) .)")
        assert rc == 0 and out == "true\n"


class TestRoundTrip:
    def test_formatted_spans_parse_back_to_equal_elements(self, capsys):
        rng = random.Random(31)
        for config, flag in ((TREE2, "tree:k=2"), (CUBE2, "cube:d=2")):
            for _ in range(10):
                g = random_span(config, rng)
                text = og.format_span(g)
                rc, out, _ = run(
                    capsys, "--backend", flag, "elem", "eq", text, text
                )
                assert rc == 0 and out == "true\n"


class TestSharedParser:
    def test_main_does_not_build_a_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(og.cli, "build_parser", refuse)
        rc, out, _ = run(capsys, "elem", "inv", SHIFT)
        assert rc == 0 and out == "(. (. .)) | ((. .) .)\n"


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the package this test imported, not an installed copy
        path = [str(Path(og.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run(
            [sys.executable, "-m", "operad_groups", "elem", "order", SWAP, "--max", "4"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "2\n"
