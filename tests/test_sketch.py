import random

import pytest
from hypothesis import given, settings, strategies as st

from streamfsm.graph import DynamicLabeledGraph
from streamfsm.sketch import (
    BottomKSketch,
    SketchError,
    SketchStore,
    VertexHasher,
    intersection_estimate,
)


def _sketch_with(values, size=2):
    sk = BottomKSketch(size)
    for v in values:
        sk.insert(v)
    return sk


def test_insert_routing_worked_example():
    sk = _sketch_with([0.7, 0.3, 0.5], size=2)
    assert sk.smallest() == [0.3, 0.5]
    # the demoted 0.7 is dropped, not kept
    assert sk._plus_set == {0.3, 0.5}


def test_first_insert_lands_in_retained_part():
    sk = BottomKSketch(4)
    sk.insert(0.9)
    assert sk.smallest() == [0.9]


def test_insert_above_threshold_leaves_retained_part():
    sk = _sketch_with([0.2, 0.4], size=2)
    sk.insert(0.8)
    assert sk.smallest() == [0.2, 0.4]
    assert sk.size_estimate() == pytest.approx(1 / 0.4)


def test_delete_above_full_threshold_changes_nothing():
    sk = _sketch_with([0.3, 0.5, 0.7], size=2)
    sk.delete(0.7, [0.3, 0.5])
    assert sk.smallest() == [0.3, 0.5]
    sk.check()


def test_delete_from_retained_promotes():
    sk = _sketch_with([0.3, 0.5, 0.7], size=2)
    sk.delete(0.3, [0.5, 0.7])
    assert sk.smallest() == [0.5, 0.7]
    sk.check()


def test_delete_from_full_sketch_of_exactly_size_values_promotes_nothing():
    sk = _sketch_with([0.3, 0.5], size=2)
    sk.delete(0.3, [0.5])
    assert sk.smallest() == [0.5]
    assert sk.size_estimate() == 1.0


def test_delete_only_element():
    sk = _sketch_with([0.4], size=2)
    sk.delete(0.4, [])
    assert sk.smallest() == []
    assert sk.size_estimate() == 0.0


def test_delete_absent_raises():
    sk = _sketch_with([0.4], size=2)
    with pytest.raises(SketchError):
        sk.delete(0.9, [0.4])


def test_delete_unretained_value_below_threshold_raises():
    sk = _sketch_with([0.3, 0.5], size=2)
    with pytest.raises(SketchError):
        sk.delete(0.4, [0.3, 0.5])
    assert sk.smallest() == [0.3, 0.5]


def test_size_estimate_regimes():
    sk = _sketch_with([0.1, 0.2, 0.5], size=3)
    assert sk.size_estimate() == pytest.approx(4.0)
    under = _sketch_with([0.3, 0.9], size=3)
    assert under.size_estimate() == 2.0
    assert BottomKSketch(3).size_estimate() == 0.0


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.integers(0, 80), min_size=1, max_size=60), st.randoms(use_true_random=False))
def test_interleaving_equals_rebuild(touches, pyrng):
    """Any insert/delete interleaving lands in the same state as inserting
    only the survivors."""
    hasher = VertexHasher(99)
    sk = BottomKSketch(5, hasher)
    live = set()
    for x in touches:
        if x in live and pyrng.random() < 0.5:
            live.remove(x)
            sk.delete(hasher.value(x), [hasher.value(y) for y in live])
        elif x not in live:
            sk.insert(hasher.value(x))
            live.add(x)
        sk.check()
    rebuilt = BottomKSketch(5, hasher)
    for x in sorted(live):
        rebuilt.insert(hasher.value(x))
    assert sk.smallest() == rebuilt.smallest()
    assert sk.smallest() == sorted(hasher.value(x) for x in live)[:5]


def test_union_and_intersection_trivials():
    h = VertexHasher(3)
    a = BottomKSketch(8, h)
    b = BottomKSketch(8, h)
    for x in (1, 2):
        a.insert(h.value(x))
    for x in (3, 4, 5):
        b.insert(h.value(x))
    assert intersection_estimate(a, b) == 0.0
    # identical sketches collapse to the size estimate
    c = BottomKSketch(4, h)
    d = BottomKSketch(4, h)
    for x in range(20):
        c.insert(h.value(x))
        d.insert(h.value(x))
    assert intersection_estimate(c, d) == pytest.approx(c.size_estimate())


def test_mismatched_sketches_rejected():
    with pytest.raises(SketchError):
        intersection_estimate(BottomKSketch(4), BottomKSketch(8))
    ha, hb = VertexHasher(1), VertexHasher(2)
    a, b = BottomKSketch(4, ha), BottomKSketch(4, hb)
    a.insert(0.5)
    b.insert(0.25)
    with pytest.raises(SketchError):
        intersection_estimate(a, b)


def test_intersection_monte_carlo_quality():
    """500/500 sets sharing 100 elements, s=64: estimate lands within
    +-50% of the truth in at least 80% of 200 seeded trials."""
    hits = 0
    for seed in range(200):
        hasher = VertexHasher(seed)
        a = BottomKSketch(64, hasher)
        b = BottomKSketch(64, hasher)
        rng = random.Random(seed)
        universe = list(range(5000))
        rng.shuffle(universe)
        for x in universe[:100] + universe[100:500]:
            a.insert(hasher.value(x))
        for x in universe[:100] + universe[500:900]:
            b.insert(hasher.value(x))
        if abs(intersection_estimate(a, b) - 100) <= 50:
            hits += 1
    assert hits >= 160


def test_size_estimate_error_shrinks_with_size():
    def mean_re(size, n=1000, seeds=60):
        total = 0.0
        for seed in range(seeds):
            hasher = VertexHasher(seed)
            sk = BottomKSketch(size, hasher)
            for x in range(n):
                sk.insert(hasher.value(x))
            total += abs(sk.size_estimate() - n) / n
        return total / seeds

    small, large = mean_re(32), mean_re(256)
    assert large < small
    assert large <= 0.10


def test_store_tracks_neighborhoods():
    """A vertex keeps a sketch exactly while its degree exceeds the size:
    the insertion that takes it to size + 1 builds the sketch from the
    adjacency, later ones update it, and the deletion that takes it back
    to size drops it."""
    hasher = VertexHasher(11)
    g = DynamicLabeledGraph()
    store = SketchStore(4, hasher, g.adj)

    def minima(x):
        return sorted(hasher.value(y) for y in g.adj[x])[:4]

    for x in range(1, 5):
        g.add_edge(0, 0, x, 0, 0)
        store.on_edge_added(0, x)
        store.verify()
    assert store._sketches == {}
    with pytest.raises(SketchError):
        store.sketch(0)  # degree 4: the adjacency is the exact neighbourhood
    g.add_edge(0, 0, 5, 0, 0)
    store.on_edge_added(0, 5)
    assert list(store._sketches) == [0]
    assert store.sketch(0).smallest() == minima(0)
    assert store.sketch(0).is_full
    for x in (6, 7):
        g.add_edge(0, 0, x, 0, 0)
        store.on_edge_added(0, x)
        assert store.sketch(0).smallest() == minima(0)
    for x in (7, 1):
        g.delete_edge(0, x)
        store.on_edge_deleted(0, x)
        assert store.sketch(0).smallest() == minima(0)
    store.verify()
    g.delete_edge(0, 2)
    store.on_edge_deleted(0, 2)
    assert store._sketches == {}
    with pytest.raises(SketchError):
        store.sketch(0)
    store.verify()
    # crossing again builds a new sketch from the adjacency as it is now
    g.add_edge(0, 0, 8, 0, 0)
    store.on_edge_added(0, 8)
    assert store.sketch(0).smallest() == minima(0)
    store.verify()


def test_store_verify_checks_which_vertices_keep_sketches():
    hasher = VertexHasher(2)
    g = DynamicLabeledGraph()
    store = SketchStore(3, hasher, g.adj)
    for x in range(1, 5):
        g.add_edge(0, 0, x, 0, 0)
        store.on_edge_added(0, x)
    store.verify()
    leaf = BottomKSketch(3, hasher)
    leaf.insert(hasher.value(0))
    store._sketches[1] = leaf  # a correct sketch, but at degree 1 <= 3
    with pytest.raises(SketchError, match="degree 1"):
        store.verify()
    del store._sketches[1]
    hub = store._sketches.pop(0)
    with pytest.raises(SketchError, match="no sketch"):
        store.verify()
    store._sketches[0] = hub
    store.verify()


@pytest.mark.parametrize("size", [2, 4])
def test_store_follows_a_stream_across_the_size(size):
    """Vertices cross the size in both directions again and again on this
    power-law stream with deletions, and the store passes ``verify`` after
    every event."""
    from streamfsm.stream import generate_stream

    events = generate_stream(30, 240, 1, 1, model="power-law", delete_fraction=0.45, seed=3)
    g = DynamicLabeledGraph()
    store = SketchStore(size, VertexHasher(4), g.adj)
    built = dropped = 0
    for ev in events:
        before = len(store._sketches)
        if ev.op == "+":
            g.add_edge(ev.u, ev.label_u, ev.v, ev.label_v, ev.label_e)
            store.on_edge_added(ev.u, ev.v)
            built += len(store._sketches) - before
        else:
            g.delete_edge(ev.u, ev.v)
            store.on_edge_deleted(ev.u, ev.v)
            dropped += before - len(store._sketches)
        store.verify()
    assert built >= 20 and dropped >= 20, (built, dropped)


def _star_store():
    # a hub with more neighbours than its size-4 sketch retains
    g = DynamicLabeledGraph()
    store = SketchStore(4, VertexHasher(5), g.adj)
    for x in range(1, 11):
        g.add_edge(0, 0, x, 0, 0)
        store.on_edge_added(0, x)
    return g, store


def test_store_refills_a_hub_from_the_adjacency():
    g, store = _star_store()
    hub = store.sketch(0)
    leaving = min(range(1, 11), key=store.hasher.value)
    g.delete_edge(0, leaving)
    store.on_edge_deleted(0, leaving)
    assert hub.smallest() == sorted(store.hasher.value(x) for x in g.adj[0])[:4]
    store.verify()


def test_store_verify_catches_a_lost_retained_value():
    g, store = _star_store()
    store.verify()
    hub = store.sketch(0)
    hub._plus_set.remove(hub._plus.pop())
    with pytest.raises(SketchError):
        store.verify()
