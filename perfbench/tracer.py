"""Per-layer tracing from outside the library.

`Tracer` wraps the public functions of each paleysync module in place, for
the duration of a `with tracer:` block, and records one span per call:
name, start, end and parent span.  From the spans it keeps, per function,
the call count, the self time (duration minus the time covered by child
spans), search node counts and a few outcome counts.  Nothing under src/ is
changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("gf", "paley", "spectral", "invariants", "classify", "cli")


class Stat:
    """Counters of one traced function."""

    __slots__ = ("calls", "self_s", "nodes", "good", "unions", "max_nodes_per_budget")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.nodes = 0  # search nodes (clique_number, k_colorable)
        self.good = 0  # exact cliques, decided colourings, fast-path hits
        self.unions = 0  # union graphs built under exhaustive_decision
        self.max_nodes_per_budget = 0.0  # classify: nodes under one call / its budget


def _classify_budget(args, kwargs) -> int:
    # classify(q, m, budget=None, exhaustive_cap=None); None means the default.
    budget = kwargs.get("budget", args[2] if len(args) > 2 else None)
    if budget is None:
        budget = sys.modules["paleysync.invariants"].DEFAULT_BUDGET
    return budget


class Tracer:
    """Context manager that traces every public paleysync function.

    Modules are taken from sys.modules because the package attribute
    `paleysync.classify` is the re-exported function, not the module.  Every
    attribute of every paleysync module bound to a traced function object is
    swapped, so names imported with `from .x import f` are traced too, and
    calls between functions of one module go through the wrappers.
    Generator functions (iter_bits) are left alone: a span would end before
    their work starts.  Spans stay in memory (`spans`) until the caller
    writes them out.
    """

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # per open span: [index, child_s, nodes, unions]
        self._wrappers: dict[int, object] = {}
        self._swaps: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            mod = sys.modules[f"paleysync.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    name.startswith("_")
                    or not callable(obj)
                    or inspect.isclass(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                key = f"{layer}.{name}"
                self.stats[key] = Stat()
                self._wrappers[id(obj)] = self._wrap(key, obj)

    def reset(self) -> None:
        """Zero every counter and drop the recorded spans."""
        for key in self.stats:
            self.stats[key] = Stat()
        self.spans.clear()

    def _wrap(self, key: str, fn):
        stack = self._stack
        spans = self.spans
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0, 0, 0]
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (key, start, end, parent)
                stat = stats[key]
                stat.calls += 1
                stat.self_s += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if key == "invariants.clique_number":
                frame[2] += result.nodes
                stat.nodes += result.nodes
                stat.good += result.exact
            elif key == "invariants.k_colorable":
                frame[2] += result[2]
                stat.nodes += result[2]
                stat.good += result[0] != "timeout"
            elif key == "classify.fast_paths":
                stat.good += result is not None
            elif key == "paley.union_graph":
                frame[3] += 1
            elif key == "classify.exhaustive_decision":
                stat.unions += frame[3]
            elif key == "classify.classify":
                ratio = frame[2] / _classify_budget(args, kwargs)
                stat.max_nodes_per_budget = max(stat.max_nodes_per_budget, ratio)
            if stack:
                stack[-1][2] += frame[2]
                stack[-1][3] += frame[3]
            return result

        if hasattr(fn, "cache_clear"):  # build_field is an lru_cache wrapper
            traced.cache_clear = fn.cache_clear
        return traced

    def __enter__(self):
        for modname, mod in list(sys.modules.items()):
            if modname != "paleysync" and not modname.startswith("paleysync."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._swaps.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, obj in self._swaps:
            setattr(mod, name, obj)
        self._swaps.clear()
        return False
