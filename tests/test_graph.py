import random

import pytest

from streamfsm.graph import (
    DynamicLabeledGraph,
    GraphError,
    LabelConflictError,
    SubgraphInstance,
    is_connected,
)

from conftest import graph_adj_sets, random_labeled_graph, subsets_connected


def test_first_edge_creates_vertices():
    g = DynamicLabeledGraph()
    assert g.add_edge(1, 0, 2, 1, 5)
    assert g.num_vertices == 2
    assert g.num_edges == 1
    assert g.labels[1] == 0
    assert g.adj[1][2] == 5
    assert g.adj[2][1] == 5


def test_duplicate_add_is_flagged_noop():
    g = DynamicLabeledGraph()
    assert g.add_edge(1, 0, 2, 1, 0)
    assert not g.add_edge(1, 0, 2, 1, 0)
    assert g.num_edges == 1


def test_adjacency_builds_up():
    g = DynamicLabeledGraph()
    g.add_edge(1, 0, 2, 1, 0)
    g.add_edge(2, 1, 3, 0, 0)
    assert set(g.adj[2]) == {1, 3}


def test_label_conflict_rejected():
    g = DynamicLabeledGraph()
    g.add_edge(1, 0, 2, 1, 0)
    with pytest.raises(LabelConflictError):
        g.add_edge(1, 7, 3, 0, 0)
    # a rejected endpoint leaves the other one unregistered
    for bad in ((3, 0, 2, 0), (3, 0, 2**64, 0)):
        with pytest.raises(GraphError):
            g.add_edge(*bad, 0)
        assert 3 not in g.labels and 3 not in g.adj


def test_self_loop_rejected():
    g = DynamicLabeledGraph()
    with pytest.raises(GraphError):
        g.add_edge(4, 0, 4, 0, 0)


def test_vertex_ids_below_2_pow_64():
    g = DynamicLabeledGraph()
    top = 2**64 - 1
    g.add_edge(top, 0, 0, 1, 0)
    assert g.labels[top] == 0 and g.has_edge(0, top)
    for bad in (2**64, -1):
        with pytest.raises(GraphError):
            g.ensure_vertex(bad, 0)
        with pytest.raises(GraphError):
            g.add_edge(bad, 0, 1, 0, 0)
    assert bad not in g.labels


def test_delete_keeps_vertices():
    g = DynamicLabeledGraph()
    g.add_edge(1, 0, 2, 1, 0)
    assert g.delete_edge(1, 2)
    assert g.num_edges == 0
    assert g.num_vertices == 2
    assert g.labels[2] == 1


def test_delete_missing_is_flagged_noop():
    g = DynamicLabeledGraph()
    g.add_edge(1, 0, 2, 1, 0)
    assert not g.delete_edge(1, 3)
    assert g.num_edges == 1


def test_delete_triangle_edge():
    g = DynamicLabeledGraph()
    for a, b in ((1, 2), (2, 3), (1, 3)):
        g.add_edge(a, 0, b, 0, 0)
    g.delete_edge(1, 2)
    assert set(g.adj[1]) == {3}
    assert set(g.adj[2]) == {3}


def test_induced_subgraph_cases():
    g = DynamicLabeledGraph()
    for a, b in ((1, 2), (2, 3), (1, 3)):
        g.add_edge(a, 0, b, 0, 7)
    inst = g.induced_subgraph((1, 2, 3))
    assert len(inst.edges) == 3
    # 4-cycle: induced on 3 of its vertices has exactly 2 edges
    g2 = DynamicLabeledGraph()
    for a, b in ((1, 2), (2, 3), (3, 4), (1, 4)):
        g2.add_edge(a, 0, b, 0, 0)
    inst2 = g2.induced_subgraph((1, 2, 3))
    assert inst2.edges == ((0, 1, 0), (1, 2, 0))
    # non-adjacent pair
    g3 = DynamicLabeledGraph()
    g3.add_edge(1, 0, 2, 0, 0)
    g3.add_edge(2, 0, 3, 0, 0)
    assert g3.induced_subgraph((1, 3)).edges == ()
    with pytest.raises(GraphError):
        g3.induced_subgraph((1, 99))


def test_is_connected_small_cases():
    assert is_connected(SubgraphInstance((5,), (0,), ()))
    assert not is_connected(SubgraphInstance((1, 2), (0, 0), ()))
    assert is_connected(SubgraphInstance((1, 2), (0, 0), ((0, 1, 0),)))
    wedge = SubgraphInstance((1, 2, 3), (0, 0, 0), ((0, 1, 0), (1, 2, 0)))
    assert is_connected(wedge)
    assert not is_connected(SubgraphInstance((1, 2, 3), (0, 0, 0), ((0, 1, 0),)))


def test_candidate_sets_examples():
    g = DynamicLabeledGraph()
    u, v, w1, w2 = 10, 20, 1, 2
    g.add_edge(u, 0, w1, 0, 0)
    g.add_edge(u, 0, w2, 0, 0)
    g.add_edge(v, 0, w1, 0, 0)
    got = list(g.candidate_vertex_sets(u, v, 3))
    assert got == sorted([tuple(sorted((u, v, w1))), tuple(sorted((u, v, w2)))])
    # isolated pair yields nothing at k=3, itself at k=2
    g2 = DynamicLabeledGraph()
    g2.ensure_vertex(1, 0)
    g2.ensure_vertex(2, 0)
    assert list(g2.candidate_vertex_sets(1, 2, 3)) == []
    assert list(g2.candidate_vertex_sets(1, 2, 2)) == [(1, 2)]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_candidate_sets_match_exhaustive(rng, k):
    for _ in range(20):
        g = random_labeled_graph(rng, n=12, m=rng.randrange(6, 30))
        verts = sorted(g.labels)
        if len(verts) < 2:
            continue
        u, v = rng.sample(verts, 2)
        adj = graph_adj_sets(g)
        # reference: adjacency with the pair forced adjacent
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        expect = sorted(
            combo
            for combo in subsets_connected(adj, g.labels, k)
            if u in combo and v in combo
        )
        assert list(g.candidate_vertex_sets(u, v, k)) == expect


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_connected_k_sets_match_exhaustive(rng, k):
    """One search for every size, in ascending order."""
    for _ in range(10):
        g = random_labeled_graph(rng, n=11, m=rng.randrange(6, 24))
        expect = subsets_connected(graph_adj_sets(g), g.labels, k)
        assert list(g.connected_k_sets(k)) == expect


def test_symmetry_and_replay_determinism(rng):
    ops = []
    for _ in range(300):
        a, b = rng.randrange(12), rng.randrange(12)
        if a == b:
            continue
        if rng.random() < 0.7:
            ops.append(("+", a, b))
        else:
            ops.append(("-", a, b))

    def replay():
        g = DynamicLabeledGraph()
        for op, a, b in ops:
            if op == "+":
                g.add_edge(a, a % 2, b, b % 2, 0)
            else:
                g.delete_edge(a, b)
            g.verify()
        return g

    g1, g2 = replay(), replay()
    assert (g1.labels, g1.adj, g1.num_edges) == (g2.labels, g2.adj, g2.num_edges)
