"""Per-layer tracing from outside the package.

Each traced name is wrapped where its callers look it up: the attribute
of every ``operad_groups`` module bound to the original function is
rebound to the wrapper, and constructors are wrapped on their class.
A wrapper records one span per call; self time is the span's duration
minus the wrapped spans nested inside it.  Memo hit rates come from each
``lru_cache``'s own ``cache_info()``.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# metric prefix -> (module, attribute) pairs whose spans it sums
LAYERS = {
    "backend.Operation": [("backend", "Operation.__init__")],
    "backend.op_common_refinement": [("backend", "op_common_refinement")],
    "backend.op_subst": [("backend", "op_subst")],
    "category.Arrow": [("category", "Arrow.__init__")],
    "category.compose": [("category", "compose")],
    "category.square_fill": [("category", "square_fill")],
    "spans.sp_mul": [("spans", "sp_mul")],
    "spans.sp_eq": [("spans", "sp_eq")],
    "markings.ma_subset": [("markings", "ma_subset")],
    "markings.pull_back": [("markings", "pull_back")],
    "markings.sp_class_eq": [("markings", "sp_class_eq")],
    "action.act": [("action", "act")],
    "poset.enumerate_pn": [("poset", "enumerate_pn")],
    "poset.n_condition": [("poset", "n_condition")],
    "poset.check_filtered": [("poset", "check_filtered")],
    "poset.refine_to_n": [("poset", "refine_to_n")],
    "certificates.sigma_span_report": [("certificates", "sigma_span_report")],
    "certificates.free_action_check": [("certificates", "free_action_check")],
    "certificates.other_reports": [
        ("certificates", name)
        for name in (
            "infinite_order_check",
            "pingpong_check",
            "alternating_words_nontrivial",
            "padded_certificates_check",
        )
    ],
    "cli.parse": [
        ("backend", "parse_backend"),
        ("backend", "parse_operation"),
        ("perms", "parse_permutation"),
        ("category", "parse_arrow"),
        ("spans", "parse_span"),
        ("markings", "parse_marking"),
        ("markings", "parse_marked_arrow"),
    ],
    "cli.format": [
        ("backend", "format_operation"),
        ("category", "format_arrow"),
        ("spans", "format_span"),
        ("markings", "format_marking"),
        ("cli", "_emit"),
        ("cli", "_emit_report"),
    ],
    "cli.main": [("cli", "main")],
    # wrapped only so that their own time is not charged to cli.main
    "other": [
        ("spans", "sp_inv"),
        ("spans", "sp_pow"),
        ("spans", "sp_order"),
        ("spans", "realized_map"),
        ("markings", "SemiPartitionClass.__init__"),
        ("certificates", "make_gamma1"),
        ("certificates", "make_gamma2"),
    ],
}

REPORTS = ("certificates.sigma_span_report", "certificates.free_action_check", "certificates.other_reports")

# name -> (unit, better), in the order BENCHMARK.json lists them
PER_LAYER = {
    "backend.Operation.count": ("count", "lower"),
    "backend.Operation.self_s": ("s", "lower"),
    "backend.op_common_refinement.count": ("count", "lower"),
    "backend.op_common_refinement.hit_rate": ("ratio", "higher"),
    "backend.op_common_refinement.self_s": ("s", "lower"),
    "backend.op_subst.count": ("count", "lower"),
    "backend.op_subst.self_s": ("s", "lower"),
    "backend.memo_entries": ("count", "lower"),
    "category.Arrow.count": ("count", "lower"),
    "category.Arrow.self_s": ("s", "lower"),
    "category.compose.count": ("count", "lower"),
    "category.compose.self_s": ("s", "lower"),
    "category.square_fill.count": ("count", "lower"),
    "category.square_fill.hit_rate": ("ratio", "higher"),
    "category.square_fill.self_s": ("s", "lower"),
    "spans.sp_mul.count": ("count", "lower"),
    "spans.sp_mul.self_s": ("s", "lower"),
    "spans.sp_eq.count": ("count", "lower"),
    "spans.sp_eq.self_s": ("s", "lower"),
    "spans.rep_len.max": ("coords", "lower"),
    "spans.rep_len.mean": ("coords", "lower"),
    "markings.ma_subset.count": ("count", "lower"),
    "markings.ma_subset.self_s": ("s", "lower"),
    "markings.pull_back.count": ("count", "lower"),
    "markings.pull_back.self_s": ("s", "lower"),
    "markings.sp_class_eq.count": ("count", "lower"),
    "action.act.count": ("count", "lower"),
    "action.act.self_s": ("s", "lower"),
    "poset.enumerate_pn.self_s": ("s", "lower"),
    "poset.classes_per_candidate": ("ratio", "higher"),
    "poset.class_eq_per_candidate": ("ratio", "lower"),
    "poset.check_filtered.self_s": ("s", "lower"),
    "poset.refine_to_n.count": ("count", "lower"),
    "certificates.sigma_span_report.self_s": ("s", "lower"),
    "certificates.free_action_check.self_s": ("s", "lower"),
    "certificates.rows_per_s": ("1/s", "higher"),
    "cli.parse.self_s": ("s", "lower"),
    "cli.format.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
}


def package_modules(og):
    prefix = og.__name__ + "."
    return [og] + [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]


class Memos:
    """Every ``lru_cache`` in the package, with hit and miss totals that
    survive ``clear``."""

    def __init__(self, og):
        found = {}
        for module in package_modules(og):
            for name, value in vars(module).items():
                if callable(getattr(value, "cache_info", None)) and hasattr(value, "cache_clear"):
                    own = f"{value.__module__.rpartition('.')[2]}.{value.__qualname__}"
                    found.setdefault(id(value), (own, value))
        self.caches = dict(found.values())
        self.totals = {name: [0, 0] for name in self.caches}

    def entries(self) -> int:
        return sum(c.cache_info().currsize for c in self.caches.values())

    def clear(self):
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.totals[name][0] += info.hits
            self.totals[name][1] += info.misses
            cache.cache_clear()

    def hit_rate(self, name: str) -> float:
        if name not in self.caches:
            return 0.0  # a later version may drop or rename the memo
        info = self.caches[name].cache_info()
        hits, misses = self.totals[name][0] + info.hits, self.totals[name][1] + info.misses
        return hits / (hits + misses) if hits + misses else 0.0


class Tracer:
    def __init__(self, og, memos: Memos):
        self.og = og
        self.memos = memos
        self.stats = {key: [0, 0.0] for key in LAYERS}  # calls, self seconds
        self.inclusive = {key: 0.0 for key in REPORTS}
        self.rows = 0
        self.active = {key: 0 for key in LAYERS}
        self.stack = []
        self.rep_len_max = self.rep_len_sum = self.rep_len_n = 0
        self.candidates = self.kept = self.class_eq_in_enum = 0
        self.peak_entries = 0
        self._undo = []
        self._after = self._hooks()

    def _wrap(self, key, fn):
        stats, stack, active = self.stats[key], self.stack, self.active
        after = self._after.get(key)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active[key] -= 1
                stack.pop()
                stats[0] += 1
                stats[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        def sp_mul(result, dt):
            n = result.den.domain_len
            self.rep_len_max = max(self.rep_len_max, n)
            self.rep_len_sum += n
            self.rep_len_n += 1

        def n_condition(result, dt):
            if result and self.active["poset.enumerate_pn"]:
                self.candidates += 1

        def sp_class_eq(result, dt):
            if self.active["poset.enumerate_pn"]:
                self.class_eq_in_enum += 1

        def enumerate_pn(result, dt):
            self.kept += len(result.elements)

        def report(key):
            def after(result, dt):
                self.inclusive[key] += dt
                self.rows += len(result.rows)

            return after

        hooks = {
            "spans.sp_mul": sp_mul,
            "poset.n_condition": n_condition,
            "markings.sp_class_eq": sp_class_eq,
            "poset.enumerate_pn": enumerate_pn,
        }
        hooks.update({key: report(key) for key in REPORTS})
        return hooks

    def install(self):
        for module_name in {m for targets in LAYERS.values() for m, _ in targets}:
            importlib.import_module(f"{self.og.__name__}.{module_name}")
        modules = package_modules(self.og)
        for key, targets in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules[f"{self.og.__name__}.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(key, original))
                    self._undo.append((cls, method, original))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue  # a later version may drop a name; its layer reads 0
                wrapper = self._wrap(key, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapper)
                            self._undo.append((m, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def after_op(self):
        self.peak_entries = max(self.peak_entries, self.memos.entries())

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures per round (rounds are identical)."""
        out = {}
        for name in PER_LAYER:
            prefix, _, stat = name.rpartition(".")
            if stat == "count":
                out[name] = self.stats[prefix][0] / rounds
            elif stat == "self_s":
                out[name] = self.stats[prefix][1] / rounds
        out["backend.op_common_refinement.hit_rate"] = self.memos.hit_rate("backend.op_common_refinement")
        out["category.square_fill.hit_rate"] = self.memos.hit_rate("category.square_fill")
        out["backend.memo_entries"] = self.peak_entries
        out["spans.rep_len.max"] = self.rep_len_max
        out["spans.rep_len.mean"] = self.rep_len_sum / self.rep_len_n if self.rep_len_n else 0.0
        candidates = self.candidates or 1  # 0 / 1 where enumerate_pn never ran
        out["poset.classes_per_candidate"] = self.kept / candidates
        out["poset.class_eq_per_candidate"] = self.class_eq_in_enum / candidates
        report_s = sum(self.inclusive.values())
        out["certificates.rows_per_s"] = self.rows / report_s if report_s else 0.0
        return {name: out[name] for name in PER_LAYER}
