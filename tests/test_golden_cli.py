"""Golden command-line outputs, byte for byte.

For a fixed set of commands, ``tests/data/cli_golden.json`` holds the exit
code and the SHA-256 of stdout and of stderr.  The set covers partition
listing, the poset check and every certificate on tree:k=2, tree:k=3 and
cube:d=2, some ``--json`` runs, element arithmetic and two validation
error paths.  Record the file again only when an output change is meant:

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from operad_groups.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

SHIFT = "((. .) .) | (. (. .))"
CUBE_SPAN = "[0 . .] | p[1,0] ; [1 . .]"
# five boxes tiling the unit 3-cube with no free midplane
PINWHEEL = "{b(1:0,0:0,1:0),b(1:1,1:0,0:0),b(0:0,1:1,1:1),b(1:1,1:1,1:0),b(1:0,1:0,1:1)}"


def _commands():
    out = []
    for backend in ("tree:k=2", "tree:k=3", "cube:d=2"):
        flag = ["--backend", backend]
        out.append(flag + ["partition", "list", "--depth", "3"])
        out.append(flag + ["poset", "filtered"])
        for cert in ("sigma", "freeaction", "infinite", "padded", "pingpong", "torsion"):
            out.append(flag + ["cert", cert])
    out += [
        ["partition", "list", "--depth", "3", "--y", "2", "--n", "2"],
        ["--backend", "cube:d=2", "partition", "list", "--depth", "3", "--y", "2", "--n", "2"],
        ["poset", "filtered", "--depth", "3"],
        ["--json", "cert", "sigma"],
        ["--json", "--backend", "cube:d=2", "partition", "list", "--depth", "2"],
        ["--json", "poset", "filtered"],
        ["--json", "--backend", "cube:d=2", "elem", "mul", CUBE_SPAN, CUBE_SPAN],
        ["elem", "realize", SHIFT],
        ["--backend", "cube:d=2", "elem", "realize", CUBE_SPAN],
        ["elem", "inv", SHIFT],
        ["elem", "mul", SHIFT, "(. .) | p[1,0] ; (. .)"],
        ["elem", "pow", SHIFT, "12"],
        ["--backend", "tree:k=3", "elem", "pow", "((. . .) . .) | (. . (. . .))", "5"],
        # E_NOT_PARTITION: a missing half, then two overlapping halves
        ["--backend", "cube:d=2", "elem", "inv", "{b(1:0,0:0)} | ."],
        ["--backend", "cube:d=2", "elem", "inv", "{b(1:0,0:0),b(1:0,0:0)} | ."],
        ["--backend", "cube:d=3", "elem", "inv", f"{PINWHEEL} | {PINWHEEL}"],
        # the heavy permutation sweeps of the benchmark's session
        ["cert", "sigma", "--max-perm", "4", "--depth", "3"],
        ["cert", "freeaction", "--max-perm", "4", "--depth", "3"],
        # every row of the permutation sweeps on a wider tree and on a cube
        ["--json", "--backend", "tree:k=3", "cert", "sigma", "--max-perm", "4", "--depth", "2"],
        ["--json", "--backend", "tree:k=3", "cert", "freeaction", "--max-perm", "4", "--depth", "2"],
        ["--json", "--backend", "cube:d=2", "cert", "sigma", "--max-perm", "3", "--depth", "2"],
        ["--json", "--backend", "cube:d=2", "cert", "freeaction", "--max-perm", "4", "--depth", "2"],
        # act on an identity-arrow class, in both flavors and on a cube
        ["act", SHIFT, ". @ m[0:a]"],
        ["--flavor", "planar", "act", SHIFT, ". @ m[0:a]"],
        ["--backend", "cube:d=2", "act", "p[1,0] ; [0 . .] | [1 . .]", ". @ m[0:a]"],
        # power bounds that stop the padded infinite element's loop early
        ["cert", "padded", "--max-n", "0"],
        ["cert", "padded", "--max-n", "1"],
    ]
    return out


COMMANDS = _commands()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def _golden():
    return {tuple(row["argv"]): row for row in json.loads(DATA.read_text())}


def test_the_data_file_covers_the_command_set():
    assert set(_golden()) == {tuple(argv) for argv in COMMANDS}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_is_byte_identical(argv):
    assert _run(argv) == _golden()[tuple(argv)]


# argument lists that end before a command runs: argparse's own error and
# help paths, which must leave the shared parser as they found it
FAILING = (
    ["elem", "pow", SHIFT, "abc"],
    ["frobnicate"],
    ["elem", "pow"],
    ["--help"],
    ["cert", "sigma", "--help"],
)


def test_one_parser_serves_every_command_in_turn():
    golden = _golden()
    seen = {}
    for i, argv in enumerate(COMMANDS + COMMANDS[::-1]):
        bad = tuple(FAILING[i % len(FAILING)])
        result = _run(bad)
        assert seen.setdefault(bad, result) == result, bad
        assert _run(argv) == golden[tuple(argv)], argv
    assert [seen[tuple(bad)]["exit"] for bad in FAILING] == [2, 2, 2, 0, 0]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps([_run(argv) for argv in COMMANDS], indent=1) + "\n")
    print(f"recorded {len(COMMANDS)} commands in {DATA}")
