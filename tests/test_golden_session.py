"""The benchmark's command-line session, replayed byte for byte.

``tests/data/session_golden.json`` holds the 600 commands of the
``cli_session`` workload at seeds 1 and 2, in session order, each with its
exit code and the SHA-256 of stdout and of stderr.  Each command runs with
every memo emptied first, as in the benchmark.  The command text was read
from ``perfbench`` once, when the file was recorded, so this test does not
import the benchmark.  Record the file again only when an output change is
meant:

    PYTHONPATH=src python tests/test_golden_session.py --record
"""

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import operad_groups as og

from test_golden_cli import _run

DATA = Path(__file__).resolve().parent / "data" / "session_golden.json"
SEEDS = (1, 2)


def _memos():
    found = []
    for info in pkgutil.iter_modules(og.__path__):
        if info.name == "__main__":
            continue  # running it is the command line
        module = importlib.import_module(f"operad_groups.{info.name}")
        found += [v for v in vars(module).values() if callable(getattr(v, "cache_clear", None))]
    return found


MEMOS = _memos()


def _replay(argv):
    for memo in MEMOS:
        memo.cache_clear()
    return _run(argv)


def test_the_session_replays_byte_for_byte():
    golden = json.loads(DATA.read_text())
    assert len(golden) == 300 * len(SEEDS)
    mismatched = [row["argv"] for row in golden if _replay(row["argv"]) != row]
    assert not mismatched, mismatched[:3]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    sys.path.insert(0, str(DATA.parents[2]))
    from perfbench.workloads import CliSession

    rows = [
        _replay(op.args[0]) for seed in SEEDS for op in CliSession(og, seed).ops
    ]
    DATA.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"recorded {len(rows)} commands in {DATA}")
