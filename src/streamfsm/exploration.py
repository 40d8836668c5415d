"""Population deltas per edge event: which k-sets an edge touches, the
exact and sketch-based counts of the subgraphs an insertion creates or a
deletion destroys, and the enumeration of the newly created ones.

``pair_members`` is the one split of every engine: the k-sets over the
pair that stay connected without the edge (``kept``), and those that only
the edge connects (``new``). The event delta is the size of ``new`` and
the admission pool ``new`` itself; the exact engine counts ``kept`` out of
its classes before the edge changes and back in after it, and ``new`` only
on the side that holds the edge. ``sketch_delta`` counts the size-3 delta
from exact degrees and estimates only what the graph cannot give cheaply:
the common neighbours of two hubs."""

from __future__ import annotations

from .graph import DynamicLabeledGraph, GraphError
from .sketch import SketchStore, intersection_estimate


def _connected_without_edge(adj, vset, u: int, v: int) -> bool:
    # whether vset, which holds u, induces a connected subgraph less (u, v)
    seen = {u}
    stack = [u]
    while stack:
        a = stack.pop()
        na = adj[a]
        skip = v if a == u else u if a == v else None
        for b in vset:
            if b in na and b != skip and b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == len(vset)


def pair_members(g: DynamicLabeledGraph, u: int, v: int, k: int):
    """The k-sets over the pair (u, v), as ``(kept, new)``: those that stay
    connected without the edge (u, v), and those that only the edge
    connects: the event's delta is the size of ``new``, and its admission
    pool ``new`` itself.

    At k=3 both are sets of third vertices: the common neighbours, and the
    other neighbours of either endpoint but the pair itself. At other k
    one pass over the pair's ``candidate_vertex_sets`` fills two lists in
    ascending order. ``g`` may hold the edge or not."""
    adj = g.adj
    if k == 3:
        nu = adj[u].keys()
        nv = adj[v].keys()
        kept = nu & nv
        # the union less the pair less kept, not nu ^ nv: the pool keeps
        # the union's iteration order, which the admission draws meet
        new = nu | nv
        new.discard(u)
        new.discard(v)
        new -= kept
        return kept, new
    kept = []
    new = []
    for vs in g.candidate_vertex_sets(u, v, k):
        (kept if _connected_without_edge(adj, vs, u, v) else new).append(vs)
    return kept, new


def new_vertex_sets(
    g: DynamicLabeledGraph, u: int, v: int, k: int
) -> list[tuple[int, ...]]:
    """Vertex sets whose induced subgraph is connected only through (u, v).

    ``g`` may hold the (u, v) edge or not; either way the answer is the set
    of k-sets that the edge's presence newly connects. Sorted deterministic
    order. The oracle that ``pair_members``' ``new`` is checked against.
    """
    adj = g.adj
    return [vset for vset in g.candidate_vertex_sets(u, v, k)
            if not _connected_without_edge(adj, vset, u, v)]


def _absent_edge_delta(g: DynamicLabeledGraph, u: int, v: int, k: int, present: str) -> int:
    # the k-sets that the edge (u, v) connects, counted without it
    if g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) {present}")
    return len(pair_members(g, u, v, k)[1])


def compute_w_exact(g: DynamicLabeledGraph, u: int, v: int, k: int) -> int:
    """Exact count of k-subgraphs that inserting (u, v) newly connects.

    ``g`` is the state before the insertion (the edge must be absent).
    """
    return _absent_edge_delta(g, u, v, k, "already present")


def compute_d_exact(g: DynamicLabeledGraph, u: int, v: int, k: int) -> int:
    """Exact count of k-subgraphs that deleting (u, v) disconnected.

    ``g`` is the state after the deletion; the computation mirrors the
    insertion count on the edge-absent graph.
    """
    return _absent_edge_delta(g, u, v, k, "still present")


def sketch_delta(store: SketchStore, g: DynamicLabeledGraph, u: int, v: int) -> float:
    """Sketch-W's size-3 delta of the edge (u, v).

    The delta is deg u + deg v - 2 |N(u) & N(v)|, less 2 for the endpoints
    when ``g`` holds the edge; the degrees are read from the graph. When
    either degree is at most the sketch size, the common neighbours are
    probed in O(min deg) and the delta is exact. Only when both endpoints
    are hubs, whose sketches are then both full, is |N(u) & N(v)|
    estimated from the sketches; the estimate is floored at 0."""
    adj = g.adj
    nu = adj[u]
    nv = adj[v]
    known = len(nu) + len(nv)
    if v in nu:
        known -= 2
    size = store.size
    if len(nu) <= size or len(nv) <= size:
        return float(known - 2 * len(nu.keys() & nv.keys()))
    est = known - 2.0 * intersection_estimate(store.sketch(u), store.sketch(v))
    return max(0.0, est)


def compute_w_approx(
    store: SketchStore, g: DynamicLabeledGraph, u: int, v: int, k: int
) -> float:
    """Sketch-W's count of the insertion delta, exact unless both
    endpoints are hubs (see ``sketch_delta``).

    Expects the current state: the (u, v) edge and the sketch updates for it
    are already applied, hence the degree correction for the endpoints."""
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) not present; apply the insertion first")
    if k != 3:
        raise GraphError(f"sketch-based deltas exist for subgraph size 3 only, got {k}")
    return sketch_delta(store, g, u, v)
