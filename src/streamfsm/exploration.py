"""Population deltas per edge event: exact and sketch-based counts of the
subgraphs an insertion creates or a deletion destroys, and the enumeration
of the newly created ones."""

from __future__ import annotations

from .graph import DynamicLabeledGraph, GraphError
from .sketch import SketchStore, intersection_estimate


def exclusive_thirds(g: DynamicLabeledGraph, u: int, v: int):
    """The third vertices of the size-3 sets that the edge (u, v) connects:
    the neighbours of u that are not neighbours of v, and the mirror.

    The one size-3 set algebra of every engine. ``g`` may hold the edge or
    not: each difference is built once, and the endpoints, there only when
    ``g`` holds the edge, are discarded from it in place."""
    nu = g.adj.get(u) or {}
    nv = g.adj.get(v) or {}
    ex_u = nu.keys() - nv.keys()
    ex_v = nv.keys() - nu.keys()
    ex_u.discard(v)
    ex_v.discard(u)
    return ex_u, ex_v


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


def new_vertex_sets(
    g: DynamicLabeledGraph, u: int, v: int, k: int, sets=None
) -> list[tuple[int, ...]]:
    """Vertex sets whose induced subgraph is connected only through (u, v).

    ``g`` may hold the (u, v) edge or not; either way the answer is the set
    of k-sets that the edge's presence newly connects. Sorted deterministic
    order. ``sets``, if given, is the pair's ``candidate_vertex_sets``
    already enumerated.
    """
    adj = g.adj
    if sets is None:
        sets = g.candidate_vertex_sets(u, v, k)
    return [vset for vset in sets if not _connected_without_edge(adj, vset, u, v)]


def _absent_edge_delta(g: DynamicLabeledGraph, u: int, v: int, k: int, present: str) -> int:
    # the k-sets that the edge (u, v) connects, counted without it
    if g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) {present}")
    if k == 3:
        ex_u, ex_v = exclusive_thirds(g, u, v)
        return len(ex_u) + len(ex_v)
    return len(new_vertex_sets(g, u, v, k))


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
    """Sketch-W's size-3 delta of the edge (u, v), as ``(estimate, thirds)``.

    When neither endpoint's degree exceeds the sketch size, both sketches
    hold their whole neighbourhoods (at degree == size a sketch is full and
    still holds all of it), so the delta is counted and ``thirds`` is
    ``exclusive_thirds``.
    Otherwise the estimate is |N(u)| + |N(v)| - 2 |N(u) & N(v)|, less 2 for
    the endpoints when ``g`` holds the edge, floored at 0, and ``thirds``
    is None."""
    size = store.size
    if g.degree(u) <= size and g.degree(v) <= size:
        thirds = exclusive_thirds(g, u, v)
        return float(len(thirds[0]) + len(thirds[1])), thirds
    sk_u = store.sketch(u)
    sk_v = store.sketch(v)
    inter = intersection_estimate(sk_u, sk_v)
    est = sk_u.size_estimate() + sk_v.size_estimate() - 2.0 * inter
    if g.has_edge(u, v):
        est -= 2.0
    return max(0.0, est), None


def compute_w_approx(
    store: SketchStore, g: DynamicLabeledGraph, u: int, v: int, k: int
) -> float:
    """Sketch-based estimate of the insertion delta.

    Expects the current state: the (u, v) edge and the sketch updates for it
    are already applied, hence the degree correction for the endpoints."""
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) not present; apply the insertion first")
    if k != 3:
        raise GraphError(f"sketch-based deltas exist for subgraph size 3 only, got {k}")
    return sketch_delta(store, g, u, v)[0]
