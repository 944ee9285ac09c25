"""Run one workload of the operad_groups benchmark and print its metrics.

    python3 perfbench/run.py --workload span_arith --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
A run repeats whole rounds of the workload's ops until the ops have taken
``--seconds`` seconds (at least one round), then checks the first round's
outputs against the independent oracles and every later round against
the first.  The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A record of the run is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "time_to_result_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def measure_setup(workload: str, seed: int) -> float:
    """Median of several set-ups, each in its own interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_rounds(wl, memos, tracer, seconds: float):
    """Whole rounds until the ops have run for ``seconds``."""
    from perfbench.workloads import Ref

    ops = wl.ops
    reference = None
    samples, round_times = [], []
    attempted = failed = mismatched_rounds = 0
    busy = 0.0
    while True:
        if tracer is not None:
            tracer.install()
        fns = wl.bind()
        if not wl.fresh_per_op:
            memos.clear()
        results = [None] * len(ops)
        round_s = 0.0
        for i, op in enumerate(ops):
            args = [results[a.index] if type(a) is Ref else a for a in op.args]
            fn = fns[op.fn]
            if wl.fresh_per_op:
                memos.clear()
            t0 = time.perf_counter()
            try:
                out = fn(*args)
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            dt = time.perf_counter() - t0
            round_s += dt
            samples.append(dt)
            results[i] = out
            if tracer is not None:
                tracer.after_op()
        if tracer is not None:
            tracer.uninstall()  # the bookkeeping below is not the program's work
        fails = [wl.failed(op, out) for op, out in zip(ops, results)]
        prints = (None if f else wl.fingerprint(out) for f, out in zip(fails, results))
        if reference is None:
            reference = list(prints)
        elif any(p != ref for p, ref in zip(prints, reference)):
            mismatched_rounds += 1
        del results
        attempted += len(ops)
        failed += sum(fails)
        round_times.append(round_s)
        busy += round_s
        if busy >= seconds:
            break
    return {
        "reference": reference,
        "samples": samples,
        "round_times": round_times,
        "attempted": attempted,
        "failed": failed,
        "mismatched_rounds": mismatched_rounds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "operad_groups" / "__init__.py").is_file():
        print(f"error: no operad_groups sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import trace
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    import operad_groups as og

    if not Path(og.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: operad_groups was imported from {og.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](og, args.seed)
    memos = trace.Memos(og)
    tracer = trace.Tracer(og, memos) if args.trace else None
    run = run_rounds(wl, memos, tracer, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = wl.check(run["reference"])
    if run["mismatched_rounds"]:
        problems.append(f"{run['mismatched_rounds']} rounds differ from the first")
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)

    samples = run["samples"]
    cuts = statistics.quantiles(samples, n=10)
    rounds = len(run["round_times"])
    time_to_result_s = statistics.median(run["round_times"])
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
        f"ops_per_round={len(wl.ops)} attempted={run['attempted']} failed={run['failed']}"
    )
    print(
        f"op_p50_ms={cuts[4] * 1e3:.4f} op_p90_ms={cuts[8] * 1e3:.4f} samples={len(samples)} "
        f"beyond_p90={sum(1 for s in samples if s > cuts[8])} "
        f"time_to_result_s={time_to_result_s:.4f} (median of {rounds} rounds)"
    )
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "time_to_result_s": time_to_result_s,
            "op_p50_ms": cuts[4] * 1e3,
            "op_p90_ms": cuts[8] * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layer = tracer.metrics(rounds)
        metrics = {name: {"value": layer[name], "unit": trace.PER_LAYER[name][0]} for name in trace.PER_LAYER}
    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, round_times=run["round_times"])
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
