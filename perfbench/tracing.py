"""Outside-in tracing of the six cvdistill layer modules.

:func:`install` wraps every public function of ``cli``, ``networks``,
``symplectic``, ``states``, ``photon`` and ``fock`` at every binding in the
package: ``cli`` and ``photon`` call through names brought in with
``from .x import``, so patching only the defining module would miss those
calls. Each call becomes a span ``[name, start, end, parent, error]`` kept
in memory. Calls into ``numpy.linalg``, ``scipy.linalg`` and
``scipy.sparse.linalg`` are only counted.

Self time is a span's duration minus its child spans. A public function
called from its own module without a bucket of its own (see ``BUCKETS``)
adds its self time to its caller, so ``random_symplectic`` owns the time of
``orthogonal_symplectic_from_unitary`` and the ``cli`` row loop owns
``verify_bounds`` and ``scan_bipartitions``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "networks", "symplectic", "states", "photon", "fock")
BUCKETS = frozenset({
    "cli.render_table", "cli.render_summary",
    "networks.build_chain", "networks.build_graph",
    "symplectic.random_symplectic", "symplectic.compose",
    "states.purity", "states.reduce_state", "states.williamson", "states.bogoliubov_row",
    "photon.entanglement_increase", "photon.subtract_reduced_wigner",
    "photon.relative_purity_closed_form",
    "fock.apply_gate_fock", "fock.reduce_density",
})
LINALG_MODULES = ("scipy.linalg", "scipy.sparse.linalg")
COMPLEX_BYTES = 16


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _gate_tensor_bytes(args, kwargs, result) -> int:
    # apply_gate_fock pads the gate's axes from d to d + pad (default 2d) before
    # exponentiating (ket and bra axes in turn for a density), so the working
    # tensor is the result grown on those axes
    state, elem = args[0], args[1]
    pad = kwargs.get("pad", args[2] if len(args) > 2 else None)
    d = state.cutoff
    axes = 1 if elem.kind == "displacement" else len(elem.modes)
    return int(result.data.size * ((d + (d if pad is None else pad)) / d) ** axes) * COMPLEX_BYTES


class Tracer:
    """Spans and counters of one process; :meth:`summary` derives the per-function numbers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.linalg_calls = 0
        self.max_leakage = 0.0
        self.peak_tensor_bytes = 0

    def _observe(self, name, args, kwargs, result):
        if name == "fock.apply_gate_fock":
            self.max_leakage = max(self.max_leakage, result.leakage)
            self.peak_tensor_bytes = max(self.peak_tensor_bytes, _gate_tensor_bytes(args, kwargs, result))
        elif name == "fock.reduce_density":
            self.peak_tensor_bytes = max(self.peak_tensor_bytes, result.data.size * COMPLEX_BYTES)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observed = name in ("fock.apply_gate_fock", "fock.reduce_density")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observed:
                self._observe(name, args, kwargs, result)
            return result

        return traced

    def count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.linalg_calls += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Self time per bucket, calls and raised errors per function, and the counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        bucket: list[str] = []
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        errors: Counter = Counter()
        # spans are stored in call order, so a parent precedes its children
        for i, (name, start, end, parent, error) in enumerate(spans):
            folds = parent >= 0 and name not in BUCKETS and _layer(spans[parent][0]) == _layer(name)
            bucket.append(bucket[parent] if folds else name)
            self_s[bucket[i]] += end - start - child[i]
            calls[name] += 1
            if error:
                errors[f"{name}:{error}"] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "errors": dict(errors),
            "spans": len(spans),
            "linalg_calls": self.linalg_calls,
            "max_leakage": self.max_leakage,
            "peak_tensor_bytes": self.peak_tensor_bytes,
        }


def install() -> Tracer:
    """Wrap the layer functions and linalg entry points of this process; returns the tracer."""
    import numpy

    package = importlib.import_module("cvdistill")
    modules = [importlib.import_module(f"cvdistill.{layer}") for layer in LAYERS]
    tracer = Tracer()
    wrapped = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for namespace in (package, *modules):
        for attr, obj in list(vars(namespace).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, attr, hit[1])
            elif callable(obj) and str(getattr(obj, "__module__", "")).startswith(LINALG_MODULES):
                setattr(namespace, attr, tracer.count(obj))
    for attr in numpy.linalg.__all__:
        obj = getattr(numpy.linalg, attr)
        if callable(obj) and not isinstance(obj, type):
            setattr(numpy.linalg, attr, tracer.count(obj))
    return tracer
