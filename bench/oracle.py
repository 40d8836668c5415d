"""Ground truth for the size-3 patterns of a stream, computed apart from
``streamfsm``: the benchmark's own adjacency, its own canonical form and
its own counting. Nothing here imports the program.

A connected 3-vertex labeled subgraph is a wedge (a centre and two leaves)
or a triangle. Its class is written as a string:

* ``W<c>|<a>.<x>|<b>.<y>``: centre label c, leaves (label a, edge label x)
  and (label b, edge label y), with the leaf pairs sorted;
* ``T<l0>,<l1>,<l2>|<e01>,<e02>,<e12>``: the least of the six vertex
  orders of (labels, edge labels).
"""

from __future__ import annotations

import hashlib
from itertools import permutations, product
from math import ceil, log


def wedge_class(centre: int, leaf_a: tuple[int, int], leaf_b: tuple[int, int]) -> str:
    if leaf_b < leaf_a:
        leaf_a, leaf_b = leaf_b, leaf_a
    return f"W{centre}|{leaf_a[0]}.{leaf_a[1]}|{leaf_b[0]}.{leaf_b[1]}"


def triangle_class(labels: tuple[int, int, int], edge: dict) -> str:
    """``edge[(i, j)]`` (i < j, positions into ``labels``) is the edge label."""
    best = None
    for order in permutations(range(3)):
        labs = tuple(labels[p] for p in order)
        es = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            a, b = order[i], order[j]
            es.append(edge[(a, b) if a < b else (b, a)])
        cand = (labs, tuple(es))
        if best is None or cand < best:
            best = cand
    labs, es = best
    return "T{},{},{}|{},{},{}".format(*labs, *es)


def class_of(labels: tuple[int, int, int], edge: dict) -> str:
    """Class of a 3-vertex labeled graph; ``edge`` maps position pairs
    (i < j) to edge labels and omits absent edges. Two edges at least."""
    if len(edge) == 3:
        return triangle_class(labels, edge)
    if len(edge) != 2:
        raise ValueError(f"not a connected 3-vertex graph: {edge}")
    (p, q), (r, s) = sorted(edge)
    centre = ({p, q} & {r, s}).pop()
    leaves = []
    for (i, j), lab in edge.items():
        other = j if i == centre else i
        leaves.append((labels[other], lab))
    return wedge_class(labels[centre], leaves[0], leaves[1])


class Graph:
    """Adjacency of the replayed stream: ``adj[u][v]`` is the edge label."""

    def __init__(self) -> None:
        self.labels: dict[int, int] = {}
        self.adj: dict[int, dict[int, int]] = {}

    def apply(self, ev: tuple) -> None:
        if ev[0] == "+":
            _, u, lu, v, lv, le = ev
            for x, lx in ((u, lu), (v, lv)):
                if self.labels.setdefault(x, lx) != lx:
                    raise ValueError(f"vertex {x} relabeled")
                self.adj.setdefault(x, {})
            if v in self.adj[u]:
                raise ValueError(f"edge ({u}, {v}) inserted twice")
            self.adj[u][v] = le
            self.adj[v][u] = le
        else:
            _, u, v = ev
            del self.adj[u][v]
            del self.adj[v][u]


def replay(events) -> Graph:
    g = Graph()
    for ev in events:
        g.apply(ev)
    return g


def true_counts(g: Graph) -> tuple[dict[str, int], int]:
    """Per-class counts of the connected 3-sets of ``g`` and their total.

    Wedges come from per-centre histograms of (leaf label, edge label);
    every triangle is enumerated once, added to its class and taken back
    out of the three wedge classes that counted its closed pairs. The total
    is the sum over vertices of C(deg, 2) minus twice the triangle count.
    """
    adj = g.adj
    labels = g.labels
    counts: dict[str, int] = {}

    def bump(key: str, by: int) -> None:
        counts[key] = counts.get(key, 0) + by

    pairs = 0
    for c, nbrs in adj.items():
        d = len(nbrs)
        pairs += d * (d - 1) // 2
        hist: dict[tuple[int, int], int] = {}
        for w, lab in nbrs.items():
            t = (labels[w], lab)
            hist[t] = hist.get(t, 0) + 1
        kinds = sorted(hist)
        lc = labels[c]
        for i, a in enumerate(kinds):
            na = hist[a]
            if na > 1:
                bump(wedge_class(lc, a, a), na * (na - 1) // 2)
            for b in kinds[i + 1:]:
                bump(wedge_class(lc, a, b), na * hist[b])
    triangles = 0
    for u, nu in adj.items():
        for v in nu:
            if v <= u:
                continue
            nv = adj[v]
            small, large = (nu, nv) if len(nu) <= len(nv) else (nv, nu)
            for w in small:
                if w <= v or w not in large:
                    continue
                triangles += 1
                euv, euw, evw = nu[v], nu[w], nv[w]
                lu, lv, lw = labels[u], labels[v], labels[w]
                bump(triangle_class((lu, lv, lw), {(0, 1): euv, (0, 2): euw, (1, 2): evw}), 1)
                bump(wedge_class(lu, (lv, euv), (lw, euw)), -1)
                bump(wedge_class(lv, (lu, euv), (lw, evw)), -1)
                bump(wedge_class(lw, (lu, euw), (lv, evw)), -1)
    counts = {k: c for k, c in counts.items() if c}
    return counts, pairs - 2 * triangles


def epsilon_for(sample: int, classes: int, delta: float) -> float:
    """The epsilon at which ceil(ln(T/delta)(4+eps)/eps^2) first reaches
    ``sample``: the accuracy a sample of that size is sized for."""
    big_l = log(classes / delta)
    eps = (big_l + (big_l * big_l + 16.0 * big_l * sample) ** 0.5) / (2.0 * sample)
    while ceil(big_l * (4.0 + eps) / (eps * eps)) > sample:
        eps *= 1.0 + 1e-12
    return eps


def sample_size_for(classes: int, epsilon: float, delta: float) -> int:
    return max(1, ceil(log(classes / delta) * (4.0 + epsilon) / (epsilon * epsilon)))


def all_classes(vertex_labels: int, edge_labels: int) -> set[str]:
    """Every class of connected labeled graph on 3 vertices."""
    out = set()
    spots = ((0, 1), (0, 2), (1, 2))
    for labs in product(range(vertex_labels), repeat=3):
        for present in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
            for elabs in product(range(edge_labels), repeat=len(present)):
                out.add(class_of(labs, {spots[p]: e for p, e in zip(present, elabs)}))
    return out



def event_digest(triples) -> str:
    """SHA-256 over the (op, edge) sequence of a replay; an edge is an
    unordered pair."""
    h = hashlib.sha256()
    for op, u, v in triples:
        if v < u:
            u, v = v, u
        h.update(f"{op} {u} {v}\n".encode())
    return h.hexdigest()
