"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps the public functions and methods of the package's
layer modules, from outside the package, at every name a caller looks up:
a function imported with `from .numerics import sym_eig` is wrapped both
where it is defined and in each importing module (`gatedlora.subspace.
sym_eig`, `gatedlora.adapter.sym_eig`). Every binding of one function
records under one span name, `<defining module>.<qualified name>`.

Each span adds its duration to its own total and to its parent's child
time, so a span's self time is its duration minus the time of the spans
it called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "gatedlora"
LAYERS = ("numerics", "subspace", "adapter", "gating", "autodiff", "optim", "model", "continual")

# Classes whose methods run once per random draw or per element: a span
# around each call would cost more than the call, and their work is
# counted in the caller's self time (the per-element gate squash in
# GatingModule.forward_values, the candidate draws in generate_task).
UNWRAPPED_CLASSES = {"numerics.Rng", "gating.GateFn"}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects calls, total time and self time per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        # (parent span, child span) -> calls; the parent of a top-level
        # span is None.
        self.edges: Counter = Counter()
        # Work counts and last-seen values that observers record at span
        # boundaries; observers[name](tracer, args, result) runs after a
        # span of that name returns.
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.observers: dict = {}
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = self.clock
        edges = self.edges
        observers = self.observers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            observer = observers.get(name)
            if observer is not None:
                observer(self, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, fn) -> None:
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn))

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer in LAYERS:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
                for attr, obj in list(vars(module).items()):
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(obj):
                        home = obj.__module__.rpartition(".")[2]
                        if obj.__module__.startswith(PACKAGE + ".") and home in LAYERS:
                            self._patch(module, attr, f"{home}.{obj.__qualname__}", obj)
                    elif (
                        inspect.isclass(obj)
                        and obj.__module__ == module.__name__
                        and f"{layer}.{obj.__name__}" not in UNWRAPPED_CLASSES
                    ):
                        for mattr, method in list(vars(obj).items()):
                            if not mattr.startswith("_") and inspect.isfunction(method):
                                self._patch(
                                    obj, mattr, f"{layer}.{method.__qualname__}", method
                                )
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every binding install replaced."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed over every span of each layer module."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            totals[name.split(".", 1)[0]] += st.self_s
        return totals
