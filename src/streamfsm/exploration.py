"""Population deltas per edge event: which k-sets an edge touches, the
exact and sketch-based counts of the subgraphs an insertion creates or a
deletion destroys, and the enumeration of the newly created ones.

``pair_members`` is the one split of every engine: the k-sets over the
pair that can be connected without the edge, and those that can be
connected with it. The event delta is the difference in their sizes, the
admission pool their difference, and the exact engine counts the one side
out of the classes and the other back in. ``sketch_delta`` counts the
size-3 delta from exact degrees and estimates only what the graph cannot
give cheaply: the common neighbours of two hubs."""

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


def pair_members(g: DynamicLabeledGraph, u: int, v: int, k: int, common=None):
    """The k-sets over the pair (u, v), as ``(without, with_)``: those that
    can be connected without the edge (u, v), and those that can be
    connected with it, a superset of the first.

    At k=3 both are sets of third vertices: the common neighbours, and
    every neighbour of either endpoint except the pair itself; a caller
    that already probed the common neighbours passes them as ``common``.
    At other k ``with_`` is the pair's ``candidate_vertex_sets``,
    enumerated once, in ascending order, and ``without`` the set of those
    whose induced subgraph is connected less the edge. ``g`` may hold the
    edge or not."""
    adj = g.adj
    if k == 3:
        nu = adj[u].keys()
        nv = adj[v].keys()
        with_ = nu | nv
        with_.discard(u)
        with_.discard(v)
        return nu & nv if common is None else common, with_
    with_ = list(g.candidate_vertex_sets(u, v, k))
    return {vs for vs in with_ if _connected_without_edge(adj, vs, u, v)}, with_


def new_vertex_sets(
    g: DynamicLabeledGraph, u: int, v: int, k: int
) -> list[tuple[int, ...]]:
    """Vertex sets whose induced subgraph is connected only through (u, v).

    ``g`` may hold the (u, v) edge or not; either way the answer is the set
    of k-sets that the edge's presence newly connects. Sorted deterministic
    order. The oracle that ``pair_members``' split is checked against.
    """
    adj = g.adj
    return [vset for vset in g.candidate_vertex_sets(u, v, k)
            if not _connected_without_edge(adj, vset, u, v)]


def _absent_edge_delta(g: DynamicLabeledGraph, u: int, v: int, k: int, present: str) -> int:
    # the k-sets that the edge (u, v) connects, counted without it
    if g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) {present}")
    without, with_ = pair_members(g, u, v, k)
    return len(with_) - len(without)


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


def sketch_delta(store: SketchStore, g: DynamicLabeledGraph, u: int, v: int):
    """Sketch-W's size-3 delta of the edge (u, v), as ``(estimate, common)``.

    The delta is deg u + deg v - 2 |N(u) & N(v)|, less 2 for the endpoints
    when ``g`` holds the edge; the degrees are read from the graph. When
    either degree is at most the sketch size, the common neighbours are
    probed in O(min deg), the delta is exact, and ``common`` is the set
    probed. Only when both endpoints are hubs, whose sketches are then
    both full, is |N(u) & N(v)| estimated from the sketches; the estimate
    is floored at 0 and ``common`` is None."""
    adj = g.adj
    nu = adj[u]
    nv = adj[v]
    known = len(nu) + len(nv)
    if v in nu:
        known -= 2
    size = store.size
    if len(nu) <= size or len(nv) <= size:
        common = nu.keys() & nv.keys()
        return float(known - 2 * len(common)), common
    est = known - 2.0 * intersection_estimate(store.sketch(u), store.sketch(v))
    return max(0.0, est), None


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
    return sketch_delta(store, g, u, v)[0]
