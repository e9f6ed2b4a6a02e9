"""Span tracing of gammaops' public functions, installed from outside the package.

Each traced function is replaced, at every ``gammaops.*`` module attribute
bound to it (found by object identity), by a wrapper that records one span:
name, operation id, parent span, start and end.  The identity search matters
because ``cli``, ``model`` and ``invariant`` bind functions of other modules
with ``from .x import f``; patching only the defining module would miss
those call sites.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

#: The traced public functions, grouped by the module (layer) defining them.
LAYERS = {
    "cli": ("main", "load_pair_file", "matrix_to_json"),
    "gamma_pair": ("validate", "vn_probe"),
    "gamma_domain": ("sup_norm_on_gamma", "sup_norm_on_gamma_refined",
                     "eval_matrix_sym_poly"),
    "matcore": ("numerical_radius", "joint_eigs_commuting",
                "op_norm_hermitian", "polar_unitary"),
    "fundamental": ("solve_fundamental", "defect_pair",
                    "check_pf_intertwining"),
    "charfn": ("theta_coeffs", "theta_at", "toeplitz_mult", "coincide_check"),
    "model": ("verify_model", "model_space", "model_operators",
              "auto_truncation"),
    "invariant": ("search_witness", "verify_equivalence", "trace_word_screen",
                  "witness_from_ambient"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Fields of one span record.
_NAME, _OP, _PARENT, _START, _END, _ERROR = range(6)


class CoverageError(RuntimeError):
    """A span the workload must exercise recorded no call."""


class Tracer:
    """Records spans around the functions in :data:`SPAN_NAMES`."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.op_labels: dict[int, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gammaops"
                                         or name.startswith("gammaops."))]
        for idx, dotted in enumerate(SPAN_NAMES):
            mod_name, fn_name = dotted.split(".")
            original = getattr(sys.modules["gammaops." + mod_name], fn_name)
            wrapper = self._wrap(idx, original)
            sites = [(m, attr) for m in modules
                     for attr, value in list(vars(m).items())
                     if value is original]
            for module, attr in sites:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def begin_op(self, label: str) -> None:
        """Attribute the spans that follow to a new operation."""
        self.op += 1
        self.op_labels[self.op] = label

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [idx, self.op, stack[-1] if stack else -1, clock(), 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[_ERROR] = 1
                raise
            finally:
                rec[_END] = clock()
                stack.pop()

        return span

    def counts_by_op(self) -> dict[int, Counter]:
        """Calls per span name, for each operation id."""
        out: dict[int, Counter] = {}
        for rec in self.spans:
            out.setdefault(rec[_OP], Counter())[SPAN_NAMES[rec[_NAME]]] += 1
        return out

    def layer_metrics(self, ops: range) -> dict[str, float]:
        """Per-operation calls, busy and self milliseconds over ``ops``.

        Busy time is a span's duration; self time is busy time minus the
        part covered by its child spans.  Module self time sums the self
        time of the module's spans; module errors count spans of the module
        left by an exception.
        """
        n_ops = max(1, len(ops))
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                child_ns[rec[_PARENT]] += rec[_END] - rec[_START]
        calls, busy, self_ns = Counter(), Counter(), Counter()
        errors = Counter()
        for i, rec in enumerate(self.spans):
            if rec[_OP] not in ops:
                continue
            name = SPAN_NAMES[rec[_NAME]]
            dur = rec[_END] - rec[_START]
            calls[name] += 1
            busy[name] += dur
            self_ns[name] += dur - child_ns[i]
            errors[name.split(".")[0]] += rec[_ERROR]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.busy_ms"] = busy[name] / 1e6 / n_ops
            out[f"{name}.self_ms"] = self_ns[name] / 1e6 / n_ops
        for mod, fns in LAYERS.items():
            out[f"{mod}.self_ms"] = sum(out[f"{mod}.{fn}.self_ms"] for fn in fns)
            out[f"{mod}.errors"] = errors[mod] / n_ops
        return out

    def check_coverage(self, expected, ops: range) -> None:
        """Fail loudly when a span expected on the workload never ran."""
        seen = {SPAN_NAMES[rec[_NAME]] for rec in self.spans if rec[_OP] in ops}
        missing = sorted(set(expected) - seen)
        if missing:
            raise CoverageError("expected spans recorded zero calls: "
                                + ", ".join(missing))

    def write(self, path) -> None:
        """One JSON header line, then one line per span (times in ns)."""
        t0 = self.spans[0][_START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": SPAN_NAMES, "ops": self.op_labels,
                                 "fields": ["name", "op", "parent", "start_ns",
                                            "end_ns", "error"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps([rec[_NAME], rec[_OP], rec[_PARENT],
                                     rec[_START] - t0, rec[_END] - t0,
                                     rec[_ERROR]]) + "\n")
