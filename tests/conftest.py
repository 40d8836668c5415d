"""Shared brute-force oracles, written independently of the engine paths
they check: subset enumeration with its own connectivity test, permutation
search for isomorphism, and direct skip-distribution products."""

import itertools
import random
from collections import Counter

import pytest

from streamfsm.graph import DynamicLabeledGraph, SubgraphInstance
from streamfsm.pattern import canonical_key
from streamfsm.stream import StreamEvent


def subsets_connected(adj: dict, vertices, k: int):
    """All k-subsets whose induced subgraph is connected, by exhaustive
    enumeration (own BFS, no library calls)."""
    out = []
    verts = sorted(vertices)
    for combo in itertools.combinations(verts, k):
        inside = set(combo)
        seen = {combo[0]}
        stack = [combo[0]]
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y in inside and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == k:
            out.append(combo)
    return out


def graph_adj_sets(g: DynamicLabeledGraph) -> dict:
    return {v: set(nbrs) for v, nbrs in g.adj.items()}


def build_instance(g: DynamicLabeledGraph, combo) -> SubgraphInstance:
    """Materialize an induced instance straight off the adjacency maps."""
    vs = tuple(sorted(combo))
    labs = tuple(g.labels[v] for v in vs)
    edges = []
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            lab = g.adj[vs[i]].get(vs[j])
            if lab is not None:
                edges.append((i, j, lab))
    return SubgraphInstance(vs, labs, tuple(edges))


def brute_pattern_counts(g: DynamicLabeledGraph, k: int):
    """Per-pattern counts of connected k-subgraphs, via subset enumeration
    (k=3 goes through a center scan to keep the acceptance suite fast)."""
    counts = Counter()
    total = 0
    if k == 3:
        adj = g.adj
        for c in g.labels:
            around = sorted(adj[c])
            for i in range(len(around)):
                a = around[i]
                for j in range(i + 1, len(around)):
                    b = around[j]
                    if b in adj[a] and c > a:
                        continue  # triangle counted at its smallest vertex
                    counts[canonical_key(build_instance(g, (c, a, b)))] += 1
                    total += 1
        return counts, total
    adj = graph_adj_sets(g)
    for combo in subsets_connected(adj, g.labels, k):
        counts[canonical_key(build_instance(g, combo))] += 1
        total += 1
    return counts, total


def brute_connected_count(g: DynamicLabeledGraph, k: int) -> int:
    if k == 3:
        total = 0
        adj = g.adj
        for c in g.labels:
            around = sorted(adj[c])
            for i in range(len(around)):
                a = around[i]
                for j in range(i + 1, len(around)):
                    b = around[j]
                    if b in adj[a] and c > a:
                        continue
                    total += 1
        return total
    return len(subsets_connected(graph_adj_sets(g), g.labels, k))


def brute_connected_sets(g: DynamicLabeledGraph, k: int):
    if k == 3:
        out = []
        adj = g.adj
        for c in g.labels:
            around = sorted(adj[c])
            for i in range(len(around)):
                a = around[i]
                for j in range(i + 1, len(around)):
                    b = around[j]
                    if b in adj[a] and c > a:
                        continue
                    out.append(tuple(sorted((c, a, b))))
        return sorted(out)
    return sorted(subsets_connected(graph_adj_sets(g), g.labels, k))


def are_isomorphic(a: SubgraphInstance, b: SubgraphInstance) -> bool:
    """Label-preserving isomorphism by exhaustive bijection search."""
    ka, kb = len(a.vertices), len(b.vertices)
    if ka != kb or len(a.edges) != len(b.edges):
        return False
    ea = {(i, j): lab for i, j, lab in a.edges}
    eb = {(i, j): lab for i, j, lab in b.edges}
    for perm in itertools.permutations(range(kb)):
        if any(a.vertex_labels[i] != b.vertex_labels[perm[i]] for i in range(ka)):
            continue
        ok = True
        for (i, j), lab in ea.items():
            x, y = perm[i], perm[j]
            if x > y:
                x, y = y, x
            if eb.get((x, y)) != lab:
                ok = False
                break
        if ok and len(ea) == len(eb):
            return True
    return False


def pmf_skip_rs(n: int, m: int, z: int) -> float:
    p = m / (n + z + 1)
    for zp in range(z):
        p *= 1.0 - m / (n + zp + 1)
    return p


def pmf_skip_rp(c1: int, d: int, z: int) -> float:
    p = c1 / (d - z)
    for zp in range(z):
        p *= 1.0 - c1 / (d - zp)
    return p


def random_labeled_graph(rng: random.Random, n: int, m: int, num_labels=2, num_edge_labels=1):
    g = DynamicLabeledGraph()
    labels = {v: rng.randrange(num_labels) for v in range(n)}
    added = 0
    guard = 0
    while added < m and guard < 100 * m + 100:
        guard += 1
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        if g.add_edge(a, labels[a], b, labels[b], rng.randrange(num_edge_labels)):
            added += 1
    return g


def add_event(u, lu, v, lv, le) -> StreamEvent:
    return StreamEvent("+", u, v, lu, lv, le)


def del_event(u, v) -> StreamEvent:
    return StreamEvent("-", u, v)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
