import random

import pytest

from streamfsm.exploration import (
    compute_d_exact,
    compute_w_approx,
    compute_w_exact,
    new_vertex_sets,
    pair_members,
    sketch_delta,
)
from streamfsm.graph import DynamicLabeledGraph, GraphError, is_connected
from streamfsm.sketch import SketchStore, VertexHasher

from conftest import brute_connected_count, random_labeled_graph


def _graph(edges, labels=None):
    g = DynamicLabeledGraph()
    for a, b in edges:
        la = labels.get(a, 0) if labels else 0
        lb = labels.get(b, 0) if labels else 0
        g.add_edge(a, la, b, lb, 0)
    return g


def test_w_zero_when_edge_closes_wedge():
    g = _graph([(1, 2), (2, 3)])
    assert compute_w_exact(g, 1, 3, 3) == 0


def test_w_counts_only_new_sets():
    u, v, w1, w2 = 1, 2, 3, 4
    g = _graph([(u, w1), (u, w2), (v, w1)])
    assert compute_w_exact(g, u, v, 3) == 1
    assert new_vertex_sets(g, u, v, 3) == [tuple(sorted((u, v, w2)))]


def test_w_isolated_endpoints():
    g = DynamicLabeledGraph()
    g.ensure_vertex(1, 0)
    g.ensure_vertex(2, 0)
    assert compute_w_exact(g, 1, 2, 3) == 0


def test_w_requires_absent_edge():
    g = _graph([(1, 2)])
    with pytest.raises(GraphError):
        compute_w_exact(g, 1, 2, 3)


def test_d_zero_when_wedge_survives():
    g = _graph([(1, 2), (2, 3), (1, 3)])
    g.delete_edge(1, 3)
    assert compute_d_exact(g, 1, 3, 3) == 0


def test_d_counts_destroyed_leaf_set():
    g = _graph([(1, 2), (1, 3)])  # 2 is a leaf on 1, 3 another neighbor
    g.delete_edge(1, 2)
    assert compute_d_exact(g, 1, 2, 3) == 1  # {1,2,3} no longer connected


def test_d_last_edge():
    g = _graph([(1, 2)])
    g.delete_edge(1, 2)
    assert compute_d_exact(g, 1, 2, 3) == 0


@pytest.mark.parametrize("k", [3, 4])
def test_delta_identity_insertions(rng, k):
    for _ in range(60):
        g = random_labeled_graph(rng, n=14, m=rng.randrange(5, 40))
        verts = sorted(g.labels)
        if len(verts) < 2:
            continue
        u, v = rng.sample(verts, 2)
        if g.has_edge(u, v):
            continue
        before = brute_connected_count(g, k)
        w = compute_w_exact(g, u, v, k)
        g.add_edge(u, g.labels[u], v, g.labels[v], 0)
        after = brute_connected_count(g, k)
        assert w == after - before


@pytest.mark.parametrize("k", [3, 4])
def test_delta_identity_deletions(rng, k):
    for _ in range(60):
        g = random_labeled_graph(rng, n=14, m=rng.randrange(5, 40))
        edges = [(u, w) for u in g.adj for w in g.adj[u] if u < w]
        if not edges:
            continue
        u, v = rng.choice(edges)
        before = brute_connected_count(g, k)
        g.delete_edge(u, v)
        after = brute_connected_count(g, k)
        assert compute_d_exact(g, u, v, k) == before - after


def test_partition_identity(rng):
    """candidates = modified + newly connected, at small scale: the pair's
    split gives the sets that stay connected without the edge (kept) and
    those that only the edge connects (new), the same with the edge absent
    and again present, and new is the ``new_vertex_sets`` oracle."""
    for k in (2, 3, 4):
        for _ in range(30):
            g = random_labeled_graph(rng, n=12, m=rng.randrange(5, 30))
            verts = sorted(g.labels)
            u, v = rng.sample(verts, 2)
            if g.has_edge(u, v):
                continue
            cands = list(g.candidate_vertex_sets(u, v, k))
            new = new_vertex_sets(g, u, v, k)
            modified = [
                c for c in cands if is_connected(g.induced_subgraph(c))
            ]
            assert len(cands) == len(modified) + len(new)
            assert set(new).isdisjoint(modified)
            if k == 3:
                # the sets as their third vertices
                def third(vs):
                    return next(w for w in vs if w not in (u, v))

                want = ({third(vs) for vs in modified}, {third(vs) for vs in new})
            else:
                # ascending lists, as the candidates come
                want = (modified, new)
            assert pair_members(g, u, v, k) == want
            g.add_edge(u, g.labels[u], v, g.labels[v], 0)
            assert pair_members(g, u, v, k) == want


def _store_for(g, size=8, seed=1):
    # the store reads each degree as an edge arrives, so g's edges are taken
    # out and fed back one at a time, as the engine feeds them
    edges = [(u, v, lab) for u, nu in g.adj.items() for v, lab in nu.items() if u < v]
    for u, v, _ in edges:
        g.delete_edge(u, v)
    store = SketchStore(size, VertexHasher(seed), g.adj)
    for u, v, lab in edges:
        g.add_edge(u, g.labels[u], v, g.labels[v], lab)
        store.on_edge_added(u, v)
    return store


def test_w_approx_degenerate_zero():
    g = DynamicLabeledGraph()
    g.add_edge(1, 0, 2, 0, 0)
    store = _store_for(g)
    assert compute_w_approx(store, g, 1, 2, 3) == 0.0


def test_w_approx_exact_in_lossless_regime(rng):
    for _ in range(30):
        g = random_labeled_graph(rng, n=10, m=rng.randrange(4, 20))
        store = _store_for(g, size=16)
        verts = sorted(g.labels)
        u, v = rng.sample(verts, 2)
        if g.has_edge(u, v):
            continue
        w_true = compute_w_exact(g, u, v, 3)
        g.add_edge(u, g.labels[u], v, g.labels[v], 0)
        store.on_edge_added(u, v)
        assert compute_w_approx(store, g, u, v, 3) == float(w_true)
        g.delete_edge(u, v)
        store.on_edge_deleted(u, v)
        assert sketch_delta(store, g, u, v) == float(w_true)


@pytest.mark.parametrize("size", [2, 8])
def test_sketch_delta_is_exact_unless_both_endpoints_are_hubs(size):
    """On power-law streams with deletions, every event with an endpoint of
    degree <= size gets the exact delta; only hub-hub events are
    estimated."""
    from streamfsm.stream import generate_stream

    exact_events = hub_events = 0
    for seed in range(3):
        events = generate_stream(40, 300, 2, 2, model="power-law", delete_fraction=0.3,
                                 seed=seed)
        g = DynamicLabeledGraph()
        store = SketchStore(size, VertexHasher(seed), g.adj)
        for ev in events:
            u, v = ev.u, ev.v
            if ev.op == "+":
                g.ensure_endpoints(u, ev.label_u, v, ev.label_v)
                w_true = compute_w_exact(g, u, v, 3)
                g.add_edge(u, ev.label_u, v, ev.label_v, ev.label_e)
                store.on_edge_added(u, v)
            else:
                g.delete_edge(u, v)
                store.on_edge_deleted(u, v)
                w_true = compute_d_exact(g, u, v, 3)
            est = sketch_delta(store, g, u, v)
            if min(len(g.adj[u]), len(g.adj[v])) <= size:
                exact_events += 1
                assert est == float(w_true)
            else:
                hub_events += 1
    assert exact_events > 0 and hub_events > 0, (exact_events, hub_events)


def test_w_approx_requires_present_edge():
    g = _graph([(1, 2)])
    store = _store_for(g)
    with pytest.raises(GraphError):
        compute_w_approx(store, g, 1, 3, 3)


def test_w_approx_quality_medium_graph(rng):
    """Estimator noise stays workable above the lossless regime."""
    from streamfsm.stream import generate_stream

    events = generate_stream(150, 3000, 1, 1, model="uniform", seed=4)
    g = DynamicLabeledGraph()
    store = SketchStore(16, VertexHasher(9), g.adj)
    for ev in events:
        g.add_edge(ev.u, ev.label_u, ev.v, ev.label_v, ev.label_e)
        store.on_edge_added(ev.u, ev.v)
    errs = []
    verts = sorted(g.labels)
    picker = random.Random(31)
    while len(errs) < 150:
        u, v = picker.sample(verts, 2)
        if g.has_edge(u, v):
            continue
        w_true = compute_w_exact(g, u, v, 3)
        if w_true == 0:
            continue
        g.add_edge(u, g.labels[u], v, g.labels[v], 0)
        store.on_edge_added(u, v)
        w_hat = compute_w_approx(store, g, u, v, 3)
        g.delete_edge(u, v)
        store.on_edge_deleted(u, v)
        errs.append(abs(w_hat - w_true) / w_true)
    errs.sort()
    assert errs[len(errs) // 2] <= 0.3


def test_approx_deltas_reject_k4(rng):
    g = random_labeled_graph(rng, n=12, m=24)
    store = _store_for(g, size=8)
    u, v = sorted(g.labels)[:2]
    if not g.has_edge(u, v):
        g.add_edge(u, g.labels[u], v, g.labels[v], 0)
        store.on_edge_added(u, v)
    with pytest.raises(GraphError):
        compute_w_approx(store, g, u, v, 4)
