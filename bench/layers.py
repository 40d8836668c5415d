"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public entry points of each ``streamfsm``
module with timing wrappers. ``engine.py`` binds some helpers by name
(``skip_rs``, ``skip_rp``, ``canonical_key``, ``intersection_estimate``,
``compute_d_approx`` and the other deltas), and ``exploration.py`` binds
``intersection_estimate``; those bindings are replaced as well, or calls
would bypass the wrappers. A wrapped call's self time is its duration minus
the wrapped calls nested inside it, so the layers' self times add up to the
time spent in ``process_event``; what no wrapper covers is the engine's own
time (event dispatch and the inline size-3 neighbourhood algebra).
"""

from __future__ import annotations

import gc
import sys
import types
from time import perf_counter

# layer -> (module, names bound in that module or attributes of its classes)
LAYERS = {
    "graph": [
        ("graph", "DynamicLabeledGraph.ensure_vertex"),
        ("graph", "DynamicLabeledGraph.has_edge"),
        ("graph", "DynamicLabeledGraph.add_edge"),
        ("graph", "DynamicLabeledGraph.delete_edge"),
        ("graph", "DynamicLabeledGraph.edge_label"),
    ],
    "graph.induced": [
        ("graph", "DynamicLabeledGraph.induced_subgraph"),
        ("graph", "SubgraphInstance.with_edge"),
        ("graph", "SubgraphInstance.without_edge"),
    ],
    "exploration": [
        (mod, name)
        for mod in ("exploration", "engine")
        for name in ("compute_w_exact", "compute_d_exact", "compute_w_approx",
                     "compute_d_approx", "new_vertex_sets")
    ],
    "sampling.place": [
        ("sampling", f"SubgraphReservoir.{name}")
        for name in ("fill_free_slot", "replace_random_slot", "replace_modified",
                     "remove_destroyed", "notify_deleted")
    ],
    "sampling.skip": [
        (mod, name) for mod in ("sampling", "engine") for name in ("skip_rs", "skip_rp")
    ],
    "sketch.upkeep": [
        ("sketch", "SketchStore.on_edge_added"),
        ("sketch", "SketchStore.on_edge_deleted"),
    ],
    "sketch.estimate": [
        (mod, "intersection_estimate") for mod in ("sketch", "engine", "exploration")
    ],
    "pattern": [(mod, "canonical_key") for mod in ("pattern", "engine")],
}


class Tracer:
    """Self time and call counts per (phase, layer).

    ``phase`` is set by the caller: ``event`` inside ``process_event``,
    ``snapshot`` inside a report, anything else during set-up.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.self_s: dict[tuple[str, str], float] = {}
        self.calls: dict[tuple[str, str], int] = {}
        self.pair_scanned = 0
        self.pair_hits = 0
        self._stack = [0.0]

    def install(self, package) -> None:
        for layer, targets in LAYERS.items():
            for mod_name, dotted in targets:
                module = getattr(package, mod_name)
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                if hasattr(owner, attr):
                    setattr(owner, attr, self._wrap(layer, getattr(owner, attr)))
        res_cls = package.sampling.SubgraphReservoir
        res_cls.members_containing_pair = self._wrap_pair_lookup(
            res_cls.members_containing_pair
        )

    def _record(self, layer: str, elapsed: float, child: float) -> None:
        key = (self.phase, layer)
        self.self_s[key] = self.self_s.get(key, 0.0) + elapsed - child
        self.calls[key] = self.calls.get(key, 0) + 1

    def _wrap(self, layer: str, fn):
        stack = self._stack
        record = self._record

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                stack[-1] += elapsed
                record(layer, elapsed, child)

        return traced

    def _wrap_pair_lookup(self, fn):
        stack = self._stack
        record = self._record
        tracer = self

        def traced(reservoir, u, v):
            bucket = reservoir.index.get(u)
            tracer.pair_scanned += len(bucket) if bucket else 0
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(reservoir, u, v)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                stack[-1] += elapsed
                record("sampling.pair", elapsed, child)
            tracer.pair_hits += len(out)
            return out

        return traced

    def call_root(self, fn, arg):
        """Run ``fn(arg)`` as the root span; returns (result, elapsed, self)."""
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        out = fn(arg)
        elapsed = perf_counter() - t0
        child = stack.pop()
        return out, elapsed, elapsed - child


_SKIP_TYPES = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
               types.MethodType, types.CodeType)


def retained_mb(owners: list[tuple[str, object]]) -> dict[str, float]:
    """Bytes reachable from each owner, in MB, each object counted once and
    charged to the first owner in the list that reaches it. Classes,
    modules and functions are not followed."""
    seen: set[int] = set()
    out: dict[str, float] = {}
    gc.disable()  # the walk itself allocates; a collection would walk the heap again
    try:
        for name, root in owners:
            out[name] = _reachable_bytes(root, seen) / 1e6
    finally:
        gc.enable()
    return out


def _reachable_bytes(root, seen: set[int]) -> int:
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        oid = id(obj)
        if oid in seen or isinstance(obj, _SKIP_TYPES):
            continue
        seen.add(oid)
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total
