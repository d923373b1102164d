"""Per-layer tracing installed from the benchmark's side.

Each traced function is replaced, at every module-global binding that holds
it inside the djcalc package, by a wrapper that records a span: name, start,
end, parent span and op id.  Calls to hot inner functions (one or more per
sweep cell or per bracket term) are folded into one aggregate per op and
name, so memory grows with the number of ops, not with the number of calls.
A layer's self time is its span's duration minus the time its child spans
cover.  A binding that no longer exists is reported as absent.
"""

from __future__ import annotations

import sys
from time import perf_counter

TARGETS = {
    "cli": ("run", "build_parser", "parse_partition_spec", "eval_int_expr", "parse_f_spec", "render"),
    "dejonq": ("dj_count", "coefficient_count", "bracket", "ramification_count_check"),
    "exact": ("elementary_symmetric", "falling_factorial"),
    "bn": ("expected_dim_sigma", "is_empty_for_general_curve"),
    "lls": ("proof_identity",),
}

HOT = {
    "cli.parse_partition_spec", "cli.eval_int_expr", "cli.parse_f_spec",
    "exact.elementary_symmetric", "exact.falling_factorial",
    "bn.expected_dim_sigma", "bn.is_empty_for_general_curve", "lls.proof_identity",
}

COUNTERS = ("cli.render.bytes", "dejonq.coefficient_count.subset_terms", "dejonq.max_result_bits")


def target_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.op_id = 0
        self.spans = []  # (span_id, parent_id, op_id, name, start, end, self_s, error)
        self.hot = {}  # (op_id, name) -> [calls, total_s, self_s, errors]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent = []
        self._stack = []  # open frames: [child_s, span_id]
        self._next_id = 0
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in sys.modules.items() if name == "djcalc" or name.startswith("djcalc.")]
        for mod, fns in TARGETS.items():
            owner = sys.modules.get(f"djcalc.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(owner, fn, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        stack, hot = self._stack, name in HOT
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if hot:
                span_id = None
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            error = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                self._record(name, span_id, start, end, end - start - frame[0], error)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def _record(self, name, span_id, start, end, self_s, error):
        if span_id is None:
            agg = self.hot.get((self.op_id, name))
            if agg is None:
                agg = self.hot[(self.op_id, name)] = [0, 0.0, 0.0, 0]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += self_s
            agg[3] += error
            return
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        self.spans.append((span_id, parent, self.op_id, name, start, end, self_s, error))

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """<module>.<function>.{calls,self_ms,total_ms,errors} plus the counters."""
        totals = {name: [0, 0.0, 0.0, 0] for name in target_names()}
        for _, _, _, name, start, end, self_s, error in self.spans:
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += self_s
            t[3] += error
        for (_, name), (calls, total_s, self_s, errors) in self.hot.items():
            t = totals[name]
            t[0] += calls
            t[1] += total_s
            t[2] += self_s
            t[3] += errors
        out = {}
        for name, (calls, total_s, self_s, errors) in totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_s * 1e3
            out[f"{name}.total_ms"] = total_s * 1e3
            out[f"{name}.errors"] = errors
        out.update(self.counters)
        return out


# Counters recorded at a layer boundary: (counters, args, kwargs, result) -> None.

def _render_bytes(counters, args, kwargs, result):
    if isinstance(result, str):
        counters["cli.render.bytes"] += len(result.encode())


def _subset_terms(counters, args, kwargs, result):
    mu = kwargs["mu"] if "mu" in kwargs else args[3]
    counters["dejonq.coefficient_count.subset_terms"] += 1 << len(mu)


def _result_bits(counters, args, kwargs, result):
    counters["dejonq.max_result_bits"] = max(counters["dejonq.max_result_bits"], abs(result).bit_length())


def _coefficient(counters, args, kwargs, result):
    _subset_terms(counters, args, kwargs, result)
    _result_bits(counters, args, kwargs, result)


_HOOKS = {
    "cli.render": _render_bytes,
    "dejonq.coefficient_count": _coefficient,
    "dejonq.bracket": _result_bits,
}
