"""Spans around calls into the public functions of the stefa modules.

The tracer replaces, in each traced module's namespace, every public
function defined in a traced module by a wrapper that records a span while
the tracer is active.  Calls inside the package look their callees up in
their own module's globals (``stefa.estimator.multi_mode_product``), so each
function is wrapped under every name a caller finds it by; the span carries
the function's defining name (``tensor.multi_mode_product``).  Nothing under
``src/`` is edited, and spans are kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("tensor", "sieve", "estimator", "prediction", "simlab", "cli")


def _mode_product_work(a, out):
    t, mat = a["t"], a["mat"]
    # computed from the shapes: one multiply-add per (output entry, reduced
    # index); bytes are the tensor read, the matrix read and the output written
    return {"flop": 2.0 * mat.shape[0] * t.size,
            "bytes": 8.0 * (t.size + mat.size + out.size)}


def _file_bytes(a, out):
    return {"bytes": float(os.path.getsize(a["path"]))}


def _ipsvd_sweeps(a, out):
    return {"sweeps": float(len(out[1]))}


def _hooi_sweeps(a, out):
    return {"sweeps": float(out.iterations_used),
            "converged": float(out.converged)}


# extra per-call quantities, from the bound arguments and the result,
# recorded as span attributes
ATTRIBUTES = {
    "tensor.mode_product": _mode_product_work,
    "tensor.read_tns": _file_bytes,
    "tensor.write_tns": _file_bytes,
    "estimator.ipsvd_iterate": _ipsvd_sweeps,
    "estimator.hooi": _hooi_sweeps,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent, start=0.0, end=0.0, attrs=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs or {}


class Tracer:
    """Records one span per call of a wrapped function while ``active``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name, fn):
        attributes = ATTRIBUTES.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attributes is not None:
                span.attrs = attributes(
                    signature.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def install(self, modules=MODULES) -> None:
        """Wrap every public function of ``stefa.<module>`` wherever a traced
        module's namespace holds it."""
        mods = [importlib.import_module(f"stefa.{m}") for m in modules]
        names = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in names.items()}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval covered by the
    union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, summed attributes."""
    table = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        row = table[s.name]
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
        for key, value in s.attrs.items():
            row[key] += value
    return {name: dict(row) for name, row in table.items()}


def _get(table, name, key):
    return table.get(name, {}).get(key, 0.0)


def _self_under(spans, own, name, child):
    """Self seconds of ``name`` spans that have a direct ``child`` span."""
    parents = {s.parent for s in spans if s.name == child}
    return sum(t for i, (s, t) in enumerate(zip(spans, own))
               if s.name == name and i in parents)


def layer_metrics(spans, ops: int) -> dict:
    """The per-module metrics, each per operation, from the spans of ``ops``
    timed operations."""
    table = summarize(spans)
    own = self_times(spans)

    def per_op(name, key="self_s"):
        return _get(table, name, key) / ops

    hooi_calls = _get(table, "estimator.hooi", "calls")
    loss_names = ("simlab.loss_subspace", "simlab.loss_function",
                  "simlab.loss_function_best_linear", "simlab.loss_remse")
    tns_bytes = (_get(table, "tensor.read_tns", "bytes")
                 + _get(table, "tensor.write_tns", "bytes"))
    return {
        "tensor.mode_product_s": per_op("tensor.mode_product"),
        "tensor.mode_product_calls": per_op("tensor.mode_product", "calls"),
        "tensor.mode_product_gflop": per_op("tensor.mode_product", "flop") / 1e9,
        "tensor.mode_product_gb": per_op("tensor.mode_product", "bytes") / 1e9,
        "tensor.matricize_s": per_op("tensor.matricize"),
        "tensor.matricize_calls": per_op("tensor.matricize", "calls"),
        "tensor.svd_s": per_op("tensor.top_left_singular_vectors"),
        "tensor.svd_calls": per_op("tensor.top_left_singular_vectors", "calls"),
        "tensor.read_tns_s": per_op("tensor.read_tns"),
        "tensor.write_tns_s": per_op("tensor.write_tns"),
        "tensor.tns_mb": tns_bytes / 1e6 / ops,
        "sieve.build_design_s": per_op("sieve.build_design"),
        "sieve.projector_apply_s": per_op("sieve.projector_apply"),
        "sieve.projector_apply_calls": per_op("sieve.projector_apply", "calls"),
        "estimator.estimate_ranks_s": per_op("estimator.estimate_ranks"),
        "estimator.ipsvd_init_s": per_op("estimator.ipsvd_init"),
        "estimator.ipsvd_iterate_s": per_op("estimator.ipsvd_iterate"),
        "estimator.ipsvd_sweeps": per_op("estimator.ipsvd_iterate", "sweeps"),
        "estimator.estimate_core_s": per_op("estimator.estimate_core"),
        "estimator.calibrate_s": per_op("estimator.calibrate"),
        "estimator.estimate_loadings_s": per_op("estimator.estimate_loadings"),
        "estimator.hooi_s": per_op("estimator.hooi"),
        "estimator.hooi_sweeps": per_op("estimator.hooi", "sweeps"),
        "estimator.hooi_converged_share": (
            _get(table, "estimator.hooi", "converged") / hooi_calls
            if hooi_calls else 0.0),
        "estimator.save_fit_s": per_op("estimator.save_fit"),
        "estimator.load_fit_s": per_op("estimator.load_fit"),
        "prediction.predict_stefa_s": per_op("prediction.predict_stefa"),
        "prediction.kernel_weights_s": per_op("prediction.kernel_weights"),
        "simlab.generate_s": per_op("simlab.generate"),
        "simlab.loss_s": sum(per_op(n) for n in loss_names),
        "simlab.run_experiment_s": per_op("simlab.run_experiment"),
        # argument parsing happens in main, the rest in the subcommand itself
        "cli.fit_s": (_self_under(spans, own, "cli.main", "cli.cmd_fit")
                      + _get(table, "cli.cmd_fit", "self_s")) / ops,
        "cli.predict_s": (_self_under(spans, own, "cli.main", "cli.cmd_predict")
                          + _get(table, "cli.cmd_predict", "self_s")) / ops,
    }
