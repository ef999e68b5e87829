"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces every public function of the ``zonewton`` modules,
in every module namespace where callers look it up (``zonewton.solver``
calls ``stiefel_sample`` through its own globals, so the wrapper goes there
too), plus the few methods the layers are reached through. Each wrapper
records a span: its call count, its busy time and its self time (busy time
minus the spans it caused). `Tracer.remove` puts the originals back, so the
untraced runs execute the program unchanged.

Spans are kept per phase ("setup" or "solve"); a layer metric is the
phase's total divided by the operations of that phase, summed over phases.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import zonewton
from zonewton import estimators, fedsim, oracle

# Methods that public functions reach the layers through, named after the
# layer that defines them.
_METHODS = (
    (oracle.Oracle, "probe_batch", "oracle.probe_batch"),
    (estimators.HessianEstimate, "update", "estimators.update"),
    (fedsim.FederatedObjective, "probe_batch", "fedsim.probe_batch"),
)


class Tracer:
    def __init__(self):
        self.phase = "solve"
        self.ops = defaultdict(int)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                key = (self.phase, name)
                self.calls[key] += 1
                self.busy[key] += elapsed
                self.self_time[key] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_clipped(self, result):
        _, record = result
        if record.clipped:
            self.counts[(self.phase, "solver.clipped_iterations")] += 1

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "zonewton" or n.startswith("zonewton.")]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for fname in getattr(module, "__all__", ()):
                fn = getattr(module, fname)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    after = (self._count_clipped
                             if fn is zonewton.solver.iterate else None)
                    wrappers[fn] = self._wrap(f"{layer}.{fname}", fn, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for cls, attr, name in _METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        init = oracle.Oracle.__init__
        objective = self._wrap

        def timed_init(instance, fn, *args, **kwargs):
            init(instance, objective("oracle.objective", fn), *args, **kwargs)

        self._undo.append((oracle.Oracle, "__init__", init))
        oracle.Oracle.__init__ = timed_init

    @property
    def installed(self):
        return bool(self._undo)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def add_counts(self, counts):
        """Add layer counts that a solve's own outputs report."""
        for name, value in counts.items():
            self.counts[("solve", name)] += value

    def metric(self, name):
        """Per-operation value of one layer metric, summed over phases."""
        layer, _, stat = name.rpartition(".")
        if name == "oracle.evals":
            table, layer = self.calls, "oracle.objective"
        elif stat == "calls":
            table = self.calls
        elif stat == "busy_s":
            table = self.busy
        elif stat == "self_s":
            table = self.self_time
        else:
            table, layer = self.counts, name
        total = 0.0
        for phase, ops in self.ops.items():
            if ops:
                total += table.get((phase, layer), 0.0) / ops
        return total
