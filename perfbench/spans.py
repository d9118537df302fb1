"""Spans and counters around the public functions of the spectracon layers.

The tracer wraps every public function defined in a layer module and
rebinds the wrapper under every name that refers to the original anywhere
in the package, so ``from .sdpcore import solve`` in momrelax, sosrelax,
posmap and radii, and the names that verdict imports, are all traced, not
only the defining module's attribute.  Spans are kept in memory; self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# the timed modules; pencil, symcore, render, sdpa, reproduce and cli are
# not wrapped, so their time counts toward the layer that called them
LAYERS = ("sdpcore", "momrelax", "sosrelax", "posmap", "radii", "reduce",
          "sampling", "verdict", "families")


class Tracer:
    """Installs wrappers, records spans and counters, restores the names."""

    package = "spectracon"

    def __init__(self):
        self.spans = []   # [name, start, end, parent index]
        self.stack = []
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.solves = []  # one record per solve: enclosing root span, size, outcome
        self._bindings = []  # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def _public_functions(self):
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield f"{layer}.{name}", obj

    def install(self):
        """Rebind every reference to a layer's public function in the package."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(span, fn))
                    for span, fn in self._public_functions()}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == self.package or key.startswith(self.package + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings = []

    # -- recording --------------------------------------------------------

    def _wrap(self, span_name, fn):
        observe = _OBSERVERS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def count(self, name: str, amount: float = 1.0):
        self.counters[name] += amount

    def peak(self, name: str, value: float):
        self.maxima[name] = max(self.maxima[name], value)

    # -- summaries --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end is None:
                raise RuntimeError(f"span {name} never closed")
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_time):
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - inner
        return dict(out)

    def layer_summary(self) -> dict:
        """Per layer (span name prefix): calls and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, rec in self.summary().items():
            layer = name.split(".")[0]
            out[layer]["calls"] += rec["calls"]
            out[layer]["self_s"] += rec["self_s"]
        return dict(out)


# ---------------------------------------------------------------------------
# Counters recorded at the same boundaries as the spans


def _observe_solve(tracer, args, kwargs, sol):
    problem = args[0] if args else kwargs["problem"]
    m = int(problem.m)
    tracer.count("sdpcore.iterations", sol.iterations)
    tracer.count("sdpcore.schur_factor_gflop", sol.iterations * m ** 3 / 3e9)
    tracer.count("sdpcore.not_optimal", sol.status.value != "Optimal")
    tracer.peak("sdpcore.m_max", m)
    tracer.solves.append({"root": tracer.stack[0] if tracer.stack else -1,
                          "m": m, "blocks": list(problem.block_sizes),
                          "iterations": sol.iterations,
                          "status": sol.status.value})


def _observe_containment_relaxation(tracer, args, kwargs, result):
    info = result[2]
    tracer.count("momrelax.moments", info.n_moments)
    tracer.peak("momrelax.max_block", max(abs(s) for s in info.block_sizes))


def _observe_sos_relaxation(tracer, args, kwargs, result):
    tracer.count("sosrelax.equations", result[1].n_equations)


def _observe_refutation_search(tracer, args, kwargs, result):
    tracer.count("sampling.searches")
    tracer.count("sampling.hits", result is not None)


_OBSERVERS = {
    "sdpcore.solve": _observe_solve,
    "momrelax.containment_relaxation": _observe_containment_relaxation,
    "sosrelax.sos_relaxation": _observe_sos_relaxation,
    "sampling.refutation_search": _observe_refutation_search,
}
