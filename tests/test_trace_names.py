"""Every name the benchmark's tracer wraps resolves in the package.

``perfbench/trace.py`` wraps package callables by (module, attribute)
name and reads a layer as zero when a name is missing, so a deletion or a
rename would silently blank a layer of ``perfbench/run.py --trace``.
"""

import importlib
import importlib.util
import pathlib

import operad_groups as og

TRACE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace.LAYERS


def test_every_traced_name_is_a_package_callable():
    pairs = [pair for targets in _layers().values() for pair in targets]
    assert pairs
    for module_name, attr in pairs:
        target = importlib.import_module(f"{og.__name__}.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), (module_name, attr)
