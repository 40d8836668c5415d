import gc
import math
import random
import statistics
from collections import Counter
from itertools import combinations, permutations

import pytest
from scipy import stats

from streamfsm.engine import EngineConfig, build_engine
from streamfsm.graph import DynamicLabeledGraph, SubgraphInstance, is_connected
from streamfsm.stream import generate_stream
from streamfsm.pattern import PatternKey, canonical_key
from streamfsm.sampling import (
    CLASS_KEYS,
    SHAPES,
    SampleInvariantError,
    SubgraphReservoir,
    _skip_d,
    _skip_z,
    class_id,
    keyed_counts,
    member_codes,
    member_shapes,
    shape_key,
    skip_rp,
    skip_rp_sequential,
    skip_rs,
    skip_rs_sequential,
    vertex_code,
)

from conftest import add_event, del_event, pmf_skip_rp, pmf_skip_rs, random_labeled_graph


def _inst(*vertices):
    vs = tuple(sorted(vertices))
    return SubgraphInstance(vs, (0,) * len(vs), tuple((i, i + 1, 0) for i in range(len(vs) - 1)))


def _columns(*insts):
    """The aligned (codes, shapes) columns of ``insts``: each one's code and
    its record in the shared shape table."""
    codes, shapes = [], []
    for inst in insts:
        pair_labels = {(i, j): lab for i, j, lab in inst.edges}
        pairs = combinations(range(len(inst.vertices)), 2)
        codes.append(vertex_code(inst.vertices))
        shapes.append(SHAPES[inst.vertex_labels + tuple(pair_labels.get(p) for p in pairs)])
    return codes, shapes


def _place(res, inst):
    res.place(*_columns(inst), random.Random(0))


# the record of a size-3 set without edges: an update to it drops the member
EDGELESS = SHAPES[0, 0, 0, None, None, None]


# The admission rules live in SamplingEngine._consume_arrivals, shared by
# sr, which draws its skips a coin per arrival, and osr, which draws them by
# inversion. Each path a-b-c whose second edge arrives creates exactly one
# new connected 3-set, so the engine offers one arrival per path.


def _paths_engine(capacity, paths, seed=0, mode="sr"):
    eng = build_engine(EngineConfig(mode=mode, dynamic=True, sample_size=capacity, seed=seed))
    for i in range(paths):
        _offer_path(eng, i)
    return eng


def _offer_path(eng, i) -> int:
    a = 3 * i
    eng.process_event(add_event(a, 0, a + 1, 0, 0))
    return eng.process_event(add_event(a + 1, 0, a + 2, 0, 0)).admitted


@pytest.mark.parametrize("mode", ["sr", "osr"])
def test_insert_below_capacity_always_admits(mode):
    """Below capacity the reservoir step admits every arrival without a
    draw, the one that fills the sample included."""
    eng = _paths_engine(5, 0, mode=mode)
    for i in range(5):
        state = eng.rng.getstate()
        assert _offer_path(eng, i) == 1
        assert eng.rng.getstate() == state
    assert len(eng.reservoir.codes) == eng.population == 5
    eng.verify_invariants()


def test_insert_admission_rate_m_over_n():
    """At capacity M the N-th arrival is admitted with probability M/N."""
    for capacity, paths, trials in ((5, 5, 4000), (3, 9, 4000)):
        hits = sum(_offer_path(_paths_engine(capacity, paths, seed), paths)
                   for seed in range(trials))
        p = capacity / (paths + 1)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * sigma


def test_insert_eviction_uniform():
    """An admission at capacity evicts a uniformly random member."""
    trials = 6000
    evicted = Counter()
    for seed in range(trials):
        eng = _paths_engine(6, 6, seed)
        before = {inst.vertices for inst in eng.reservoir.slots}
        if _offer_path(eng, 6):
            after = {inst.vertices for inst in eng.reservoir.slots}
            (gone,) = before - after
            evicted[gone] += 1
    total = sum(evicted.values())
    chi = stats.chisquare(list(evicted.values()), [total / 6] * 6)
    assert chi.pvalue >= 1e-3


@pytest.mark.parametrize("mode", ["sr", "osr"])
def test_event_admissions_at_capacity_are_uniform(mode):
    """At M=1 the sample holds {0,1,2} (N=1) when the edge 1-3 adds {0,1,3}
    and {1,2,3} in one event; each of the three sets is then kept with
    probability 1/3. Placing both of an event's admissions in a fixed order
    would keep the first with probability 1/4 and the second with 5/12."""
    trials = 6000
    kept = Counter()
    for seed in range(trials):
        eng = build_engine(EngineConfig(mode=mode, sample_size=1, seed=seed))
        for u, v in ((0, 1), (1, 2), (1, 3)):
            eng.process_event(add_event(u, 0, v, 0, 0))
        (inst,) = eng.reservoir.slots
        kept[inst.vertices] += 1
    assert set(kept) <= {(0, 1, 2), (0, 1, 3), (1, 2, 3)}
    sigma = math.sqrt(2 / 9 / trials)
    for vs in ((0, 1, 2), (0, 1, 3), (1, 2, 3)):
        assert abs(kept[vs] / trials - 1 / 3) <= 4 * sigma, (vs, kept)
    assert stats.chisquare(list(kept.values()), [trials / 3] * 3).pvalue >= 1e-3


@pytest.mark.parametrize("capacity", [1, 2])
@pytest.mark.parametrize("mode", ["sr", "osr"])
def test_sample_is_uniform_given_its_size(mode, capacity):
    """After every event the sample is a uniform s-subset of the live
    3-sets given its size s (Gemulla, Lehner & Haas, "A Dip in the
    Reservoir", VLDB 2006), a joint law the marginal inclusion tests can
    miss. 20,000 seeded runs over a 22-event dynamic stream (N up to 24);
    for each event and each size s seen in at least 20 runs per s-subset,
    a chi-square test over all C(N, s) subsets (19 tests at M=1 and 28 at
    M=2 with these seeds). The Bonferroni bound 1e-3 over a row's tests
    makes a correct change of the draws fail a row with probability at most
    1e-3. A fixed placement order at capacity fails every row with
    p < 1e-150, and a victim drawn from all slots but the last fails the
    M=2 rows with p = 0 (and M=1 with an empty randrange)."""
    events = generate_stream(8, 16, 1, 1, model="uniform", delete_fraction=0.4, seed=3)
    runs = 20_000
    seen = [Counter() for _ in events]
    for seed in range(runs):
        eng = build_engine(EngineConfig(mode=mode, dynamic=True, sample_size=capacity,
                                        seed=seed))
        codes = eng.reservoir.codes
        for ev, counter in zip(events, seen):
            eng.process_event(ev)
            counter[frozenset(codes)] += 1
    pvalues = []
    g = DynamicLabeledGraph()
    for ev, counter in zip(events, seen):
        if ev.op == "+":
            g.add_edge(ev.u, ev.label_u, ev.v, ev.label_v, ev.label_e)
        else:
            g.delete_edge(ev.u, ev.v)
        live = {vertex_code(vs) for vs in g.connected_k_sets(3)}
        by_size = Counter()
        for subset, c in counter.items():
            assert subset <= live
            by_size[len(subset)] += c
        for s, n_s in by_size.items():
            cells = math.comb(len(live), s)
            if cells > 1 and n_s >= 20 * cells:
                observed = [c for subset, c in counter.items() if len(subset) == s]
                observed += [0] * (cells - len(observed))
                pvalues.append(stats.chisquare(observed).pvalue)
    assert len(pvalues) >= 15
    assert min(pvalues) * len(pvalues) >= 1e-3, min(pvalues)


def test_duplicate_insert_rejected():
    res = SubgraphReservoir(3, {})
    res.n_population = 2
    _place(res, _inst(1, 2, 3))
    with pytest.raises(SampleInvariantError):
        _place(res, _inst(1, 2, 3))


def test_place_fills_free_slots_then_evicts_in_place():
    """A batch that fits goes into the free slots in order with no draw. In
    a batch larger than the free slots, the head is appended in order and
    each member after it costs one randrange(capacity), in order, and takes
    the slot drawn, a head member's included."""
    res = SubgraphReservoir(6, {})
    res.n_population = 12
    rng = random.Random(5)
    state = rng.getstate()
    res.place(*_columns(*(_inst(i, i + 1, i + 2) for i in (0, 3, 6))), rng)
    assert rng.getstate() == state
    batch = [_inst(i, i + 1, i + 2) for i in (9, 12, 15, 18, 21, 24)]
    codes, shapes = _columns(*batch)
    mirror = random.Random()
    mirror.setstate(state)
    victims = [mirror.randrange(6) for _ in range(3)]
    assert max(victims) >= 3  # the seed lets a head member be evicted
    want = [*res.codes, *codes[:3]]
    for code, idx in zip(codes[3:], victims):
        want[idx] = code
    res.place(codes, shapes, rng)
    assert res.codes == want and rng.getstate() == mirror.getstate()
    res.verify()


def test_place_rejects_duplicate_codes():
    """A code given twice in one batch, or already sampled, raises, into
    free slots and at capacity alike (also when the victim drawn is the
    sampled copy)."""
    a, b, c = _inst(1, 2, 3), _inst(4, 5, 6), _inst(7, 8, 9)
    for capacity, first, batch in ((5, [], [a, b, a]), (5, [a], [b, a]), (1, [a], [b, b]),
                                   (2, [a, c], [a])):
        for seed in range(4):
            res = SubgraphReservoir(capacity, {})
            res.n_population = 9
            res.place(*_columns(*first), random.Random(seed))
            with pytest.raises(SampleInvariantError):
                res.place(*_columns(*batch), random.Random(seed))


def test_update_reshapes_and_drops_in_one_batch():
    """One update batch that mixes drops and reshapes leaves consistent
    columns, counts that match the slots and c1 grown by the drops."""
    res = _filled((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
    tri = SubgraphInstance((1, 2, 3), (0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0)))
    codes, shapes = _columns(tri, _inst(4, 5, 6), _inst(10, 11, 12), _inst(7, 8, 9))
    shapes[1] = shapes[3] = EDGELESS
    assert res.update(codes, shapes) == 2
    res.verify()
    assert sorted(m.vertices for m in res.slots) == [(1, 2, 3), (10, 11, 12)]
    assert res.slots[res.codes.index(vertex_code((1, 2, 3)))] == tri
    assert res.counts == Counter(shape[2] for shape in res.shapes)
    assert res.c1 == 2


def _indebted_engine(capacity, occupancy, c1, c2, seed=1, mode="sr"):
    """An engine holding ``occupancy`` members, with the pairing debt preset
    to (c1, c2)."""
    eng = _paths_engine(capacity, occupancy, seed, mode)
    eng.reservoir.c1, eng.reservoir.c2 = c1, c2
    return eng


@pytest.mark.parametrize("mode", ["sr", "osr"])
def test_rp_insert_zero_probability(mode):
    """With c1 = 0 the pairing step rejects without a draw and pays off
    c2."""
    eng = _indebted_engine(3, 1, 0, 3, mode=mode)
    state = eng.rng.getstate()
    assert _offer_path(eng, 1) == 0
    assert eng.rng.getstate() == state
    res = eng.reservoir
    assert (res.c1, res.c2, len(res.codes)) == (0, 2, 1)


def test_rp_insert_certain():
    """With c2 = 0 the pairing step admits into a free slot and pays off c1."""
    eng = _indebted_engine(3, 1, 2, 0)
    assert _offer_path(eng, 1) == 1
    res = eng.reservoir
    assert (res.c1, res.c2, len(res.codes)) == (1, 0, 2)


def test_rp_insert_even_coin():
    """With c1 = c2 the pairing step admits half the time, paying off the
    counter that matches its decision."""
    trials = 4000
    hits = 0
    for seed in range(trials):
        eng = _indebted_engine(3, 1, 1, 1, seed)
        admitted = _offer_path(eng, 1)
        res = eng.reservoir
        assert (res.c1, res.c2, len(res.codes)) == ((0, 1, 2) if admitted else (1, 0, 1))
        hits += admitted
    sigma = math.sqrt(0.25 / trials)
    assert abs(hits / trials - 0.5) <= 3 * sigma


def test_rp_insert_full_with_debt_is_invariant_violation():
    eng = _indebted_engine(1, 1, 1, 0)
    with pytest.raises(SampleInvariantError):
        eng.reservoir.verify()
    with pytest.raises(SampleInvariantError):
        _offer_path(eng, 1)  # admission certain, no free slot


def test_notify_deleted_cases():
    """A deletion drops its destroyed sampled subgraphs (c1 grows) and books
    the unsampled ones in c2; N falls by all of them."""
    seen = set()
    for seed in range(12):
        eng = build_engine(EngineConfig(mode="sr", dynamic=True, sample_size=1, seed=seed))
        for leaf in (1, 2, 3):
            eng.process_event(add_event(0, 0, leaf, 0, 0))
        (sampled,) = [inst.vertices for inst in eng.reservoir.slots]
        stats_ = eng.process_event(del_event(0, 1))
        hit = 1 in sampled
        res = eng.reservoir
        assert (stats_.destroyed, res.c1, res.c2) == (2, int(hit), 2 - hit)
        assert (res.n_population, len(res.codes)) == (1, 1 - hit)
        eng.verify_invariants()
        seen.add(hit)
    assert seen == {True, False}


def test_replace_modified_neutral():
    res = SubgraphReservoir(4, {})
    res.n_population = 1
    wedge = SubgraphInstance((1, 2, 3), (0, 0, 0), ((0, 1, 0), (1, 2, 0)))
    _place(res, wedge)
    snapshot = (len(res.codes), res.n_population, res.c1, res.c2)
    tri = SubgraphInstance((1, 2, 3), (0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0)))
    assert res.update(*_columns(tri)) == 0
    assert (len(res.codes), res.n_population, res.c1, res.c2) == snapshot
    assert res.slots[0] == tri
    res.verify()
    with pytest.raises(SampleInvariantError):
        res.update(*_columns(_inst(7, 8, 9)))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_shape_records_match_the_oracle(k):
    """Every k-set's shared record, keyed off the adjacency, carries the
    induced instance's labels and edges and its class id, None when the set
    is disconnected; the key's tail is the label of each id pair in
    lexicographic order. At k=3 the member builders give the same code and
    record from each of the six id orders of u, v and w."""
    rng = random.Random(40 + k)
    for _ in range(25):
        g = random_labeled_graph(rng, n=7, m=rng.randrange(2, 16), num_labels=3,
                                 num_edge_labels=2)
        adj, labels = g.adj, g.labels
        for vs in combinations(sorted(labels), k):
            key = shape_key(adj, labels, vs)
            rec = SHAPES[key]
            inst = g.induced_subgraph(vs)
            assert rec[:2] == (inst.vertex_labels, inst.edges)
            if is_connected(inst):
                assert CLASS_KEYS[rec[2]] == canonical_key(inst)
            else:
                assert rec[2] is None
            assert key[k:] == tuple(g.edge_label(a, b) for a, b in combinations(vs, 2))
            if k == 3:
                orders = list(permutations(vs))
            else:
                orders = [(vs[0], vs[1], vs)]
            for u, v, member in orders:
                assert member_codes(u, v, k, [member]) == [vertex_code(vs)]
                (got,) = member_shapes(adj, labels, u, v, k, [member])
                assert got is rec


def _pairs(*vertex_sets):
    """The (code, third vertex) pairs the size-3 lookup over (u, v) should
    return, given the members over u and v as (u, v, third) tuples."""
    return sorted((vertex_code(sorted(vs)), vs[2]) for vs in vertex_sets)


def _graph(*edges):
    g = DynamicLabeledGraph()
    for a, b in edges:
        g.add_edge(a, 0, b, 0, 0)
    return g


def _filled(*vertex_sets, graph=None):
    """A reservoir holding path members over ``vertex_sets``, whose pair
    lookup reads the adjacency of ``graph`` (none: an empty one)."""
    res = SubgraphReservoir(len(vertex_sets) + 1, {} if graph is None else graph.adj)
    res.n_population = len(vertex_sets)
    for vs in vertex_sets:
        _place(res, _inst(*vs))
    return res


def test_members_containing_pair():
    """Just after (1, 2) is inserted, the members over it are the sampled
    sets whose third vertex is a common neighbour; just after (1, 8) is
    deleted, those whose third vertex neighbours either endpoint."""
    g = _graph((1, 3), (2, 3), (1, 9), (2, 9), (1, 7), (7, 8), (1, 4))
    res = SubgraphReservoir(4, g.adj)
    g.add_edge(1, 0, 2, 0, 0)
    assert res.members_containing_pair(1, 2) == []
    res.n_population = 3
    _place(res, _inst(1, 2, 3))
    assert res.members_containing_pair(1, 2) == _pairs((1, 2, 3))
    _place(res, _inst(1, 7, 8))
    _place(res, _inst(1, 2, 9))
    assert res.members_containing_pair(1, 2) == _pairs((1, 2, 3), (1, 2, 9))
    assert res.members_containing_pair(8, 1) == _pairs((8, 1, 7))
    assert res.members_containing_pair(1, 4) == []


def test_members_containing_pair_smaller_v_bucket():
    g = _graph((1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7), (1, 8), (8, 9),
               (2, 10), (10, 11))
    res = _filled((1, 2, 3), (1, 4, 5), (1, 6, 7), (1, 8, 9), (2, 10, 11), graph=g)
    assert len(res.index[2]) < len(res.index[1])
    assert res.members_containing_pair(1, 2) == _pairs((1, 2, 3))
    assert res.members_containing_pair(2, 1) == _pairs((1, 2, 3))


def test_members_containing_pair_missing_v_bucket():
    g = _graph((1, 2), (2, 3), (1, 4), (4, 5))
    res = _filled((1, 2, 3), (1, 4, 5), graph=g)
    assert 99 not in res.index
    assert res.members_containing_pair(1, 99) == []
    assert res.members_containing_pair(99, 1) == []


def test_members_containing_pair_sorted():
    """Ascending code order, with the third vertex below, between and above
    the pair, for either argument order, just after the pair's edge is
    deleted: a third vertex adjacent to one endpoint only counts too."""
    g = _graph((5, 1), (9, 1), (5, 7), (9, 12), (5, 40), (9, 40), (5, 6), (6, 8))
    res = _filled((5, 9, 40), (5, 9, 12), (1, 5, 9), (5, 7, 9), (5, 6, 8), graph=g)
    want = _pairs((9, 5, 1), (9, 5, 7), (9, 5, 12), (9, 5, 40))
    assert [code for code, _ in want] == [
        vertex_code(vs) for vs in [(1, 5, 9), (5, 7, 9), (5, 9, 12), (5, 9, 40)]
    ]
    assert res.members_containing_pair(9, 5) == want
    assert res.members_containing_pair(5, 9) == want


def test_members_among_returns_sampled_sets_in_order():
    """The lookup for other sizes probes the given candidate sets."""
    res = _filled((1, 2, 3, 4), (2, 3, 5, 6), (1, 3, 7, 8))
    candidates = [(1, 2, 3, 4), (1, 2, 3, 9), (2, 3, 4, 5), (2, 3, 5, 6)]
    assert res.members_among(candidates) == [
        (vertex_code(vs), vs) for vs in [(1, 2, 3, 4), (2, 3, 5, 6)]
    ]
    assert res.members_among([]) == []


@pytest.mark.parametrize("k,mode,w_mode", [(3, "sr", "exact"), (3, "osr", "exact"),
                                           (3, "osr", "sketch"), (4, "sr", "exact"),
                                           (4, "osr", "exact")])
def test_pair_lookup_matches_slot_scan(k, mode, w_mode, monkeypatch):
    """At every event of seeded dynamic streams, the engine's pair lookup,
    which probes only the pair's candidate sets, returns what a scan of the
    slots finds: every sampled member over the event's pair, in ascending
    code order."""
    name = "members_containing_pair" if k == 3 else "members_among"
    lookup = getattr(SubgraphReservoir, name)
    pair = []
    calls = []

    def checked(res, *args):
        out = lookup(res, *args)
        u, v = pair
        over = [(code, inst.vertices) for code, inst in zip(res.codes, res.slots)
                if u in inst.vertices and v in inst.vertices]
        if k == 3:
            over = [(code, next(x for x in vs if x not in pair)) for code, vs in over]
        assert out == sorted(over)
        calls.append(len(out))
        return out

    monkeypatch.setattr(SubgraphReservoir, name, checked)
    length = 120 if k == 4 else 500
    for seed, model in ((0, "power-law"), (1, "uniform")):
        eng = build_engine(EngineConfig(k=k, mode=mode, w_mode=w_mode, dynamic=True,
                                        sample_size=12, sketch_size=4, seed=seed))
        events = generate_stream(30 if k == 4 else 40, length, 2, 2, model=model,
                                 delete_fraction=0.3, seed=seed)
        for ev in events:
            pair[:] = (ev.u, ev.v)
            before = len(calls)
            eng.process_event(ev)
            assert len(calls) == before + 1
        assert sum(calls) > 0 and eng.reservoir.n_population > eng.sample_size


def test_counts_follow_placements():
    res = SubgraphReservoir(2, {})
    wedge = SubgraphInstance((1, 2, 3), (0, 0, 0), ((0, 1, 0), (1, 2, 0)))
    tri = SubgraphInstance((1, 2, 3), (0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0)))
    res.n_population = 1
    _place(res, wedge)
    assert res.counts == {class_id(canonical_key(wedge)): 1}
    res.update(*_columns(tri))
    assert keyed_counts(res.counts) == {canonical_key(tri): 1}
    assert [CLASS_KEYS[shape[2]] for shape in res.shapes] == [canonical_key(tri)]
    assert res.update([vertex_code((1, 2, 3))], [EDGELESS]) == 1
    assert res.counts == {} and res.shapes == [] and res.codes == []
    assert res.c1 == 1 and len(res.codes) == 0
    res.verify()


def test_class_ids_are_dense_and_stable():
    keys = [canonical_key(_inst(1, 2, 3)), canonical_key(_inst(1, 2, 3, 4))]
    ids = [class_id(key) for key in keys]
    assert [CLASS_KEYS[cid] for cid in ids] == keys
    assert [class_id(PatternKey(*key)) for key in keys] == ids  # equal, not identical
    assert 0 <= min(ids) and max(ids) < len(CLASS_KEYS)


def test_verify_catches_stale_counts():
    """A stale class count and a stale class id both fail verify()."""
    res = _filled((1, 2, 3))
    res.counts[class_id(canonical_key(_inst(1, 2, 3)))] += 1
    with pytest.raises(SampleInvariantError, match="counts"):
        res.verify()
    res = _filled((1, 2, 3))
    res.counts[class_id(canonical_key(_inst(1, 2, 3, 4)))] = 1
    with pytest.raises(SampleInvariantError, match="counts"):
        res.verify()
    res = _filled((1, 2, 3))
    labels, edges, _ = res.shapes[0]
    stale = canonical_key(SubgraphInstance((1, 2, 3), (0, 0, 1), ((0, 1, 0), (1, 2, 0))))
    res.shapes[0] = (labels, edges, class_id(stale))
    with pytest.raises(SampleInvariantError, match="class id"):
        res.verify()
    res.shapes[0] = (labels, edges, len(CLASS_KEYS))
    with pytest.raises(SampleInvariantError, match="class id"):
        res.verify()


def test_index_exact_after_random_ops(rng):
    """After random placements (into free slots, and over random members
    once the sample is full) and removals the position map checks out, and
    over a complete graph, where every third vertex is a common neighbour,
    the pair lookup finds every sampled member over the pair."""
    n = 40
    g = _graph(*((a, b) for a in range(n) for b in range(a + 1, n)))
    res = SubgraphReservoir(8, g.adj)
    regimes = set()
    for step in range(400):
        if res.codes and rng.random() < 0.35:
            assert res.update([rng.choice(res.codes)], [EDGELESS]) == 1
        else:
            vs = tuple(sorted(rng.sample(range(n), 3)))
            if vertex_code(vs) in res.codes:
                continue
            res.n_population += 1
            if res.c1:
                res.pay_hit()  # a pairing admission: a removal freed a slot
            before = len(res.codes)
            res.place(*_columns(_inst(*vs)), rng)
            assert len(res.codes) == min(before + 1, res.capacity)
            assert vertex_code(vs) in res.codes
            regimes.add(before == res.capacity)
        res.verify()
        u, v = rng.sample(range(n), 2)
        want = sorted((code, next(x for x in inst.vertices if x not in (u, v)))
                      for code, inst in zip(res.codes, res.slots)
                      if u in inst.vertices and v in inst.vertices)
        assert res.members_containing_pair(u, v) == want
    assert regimes == {False, True}


def test_vertex_codes_order_and_bound():
    top = 2**64 - 1
    sets = [(0, 1, 2), (0, 1, top), (0, 2, 3), (1, 2, 3), (5, top - 1, top), (top - 2, top - 1, top)]
    codes = [vertex_code(vs) for vs in sets]
    assert codes == sorted(codes) and len(set(codes)) == len(codes)
    with pytest.raises(ValueError):
        vertex_code((1, 2, 2**64))
    with pytest.raises(ValueError):
        vertex_code((-1, 2, 3))
    g = _graph((top, top - 1), (5, top), (5, top - 1), (top - 2, top), (top - 2, top - 1),
               (0, 1), (1, 2), (2, 3), (0, 2))
    res = _filled(*sets, graph=g)
    res.verify()
    assert [m.vertices for m in res.slots] == sets
    want = _pairs((top, top - 1, 5), (top, top - 1, top - 2))
    assert res.members_containing_pair(top, top - 1) == want
    assert res.members_containing_pair(top - 1, top) == want
    assert res.members_containing_pair(0, top) == _pairs((0, top, 1))
    assert res.members_containing_pair(1, 3) == _pairs((1, 3, 2))


def test_vertex_codes_hash_apart():
    rng = random.Random(11)
    sets = {tuple(sorted(rng.sample(range(100_000), 3))) for _ in range(20_000)}
    assert len({hash(vertex_code(vs)) for vs in sets}) == len(sets)


def test_slots_view_is_read_only_and_sized():
    res = _filled((1, 2, 3), (4, 5, 6))
    view = res.slots
    assert len(view) == 2 and view[-1] == _inst(4, 5, 6)
    assert list(view) == [_inst(1, 2, 3), _inst(4, 5, 6)]
    with pytest.raises(TypeError):
        view[0] = _inst(7, 8, 9)


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_size3_sample_is_invisible_to_the_collector():
    """A full sample of size-3 members adds no tracked object per member
    and none per vertex (a few shared shape records at most); replacements
    on it add none."""
    rng = random.Random(3)
    triples = [tuple(rng.sample(range(3000), 3)) for _ in range(60_000)]
    triples = list(dict.fromkeys(tuple(sorted(t)) for t in triples))
    fill, later = triples[:50_000], triples[50_000:51_000]
    res = SubgraphReservoir(len(fill), {})
    res.n_population = len(fill)
    # every vertex and every edge of a complete graph labelled 0
    zeros = dict.fromkeys(range(3000), 0)
    adj = dict.fromkeys(range(3000), zeros)
    before = _tracked()
    for u, v, w in fill:
        res.place(member_codes(u, v, 3, [w]), member_shapes(adj, zeros, u, v, 3, [w]), rng)
    assert _tracked() - before < 20
    before = _tracked()
    for u, v, w in later:
        res.n_population += 1
        res.place(member_codes(u, v, 3, [w]), member_shapes(adj, zeros, u, v, 3, [w]), rng)
    assert _tracked() <= before


# --- skip counters --------------------------------------------------------


def test_skip_rs_zero_while_filling():
    rng = random.Random(1)
    for n in range(5):
        assert skip_rs(n, 5, rng) == 0
        assert skip_rs_sequential(n, 5, rng, 1) == 0


def test_skip_rs_point_probabilities():
    trials = 40000
    counts = Counter(skip_rs(1, 1, random.Random(seed)) for seed in range(trials))
    assert pmf_skip_rs(1, 1, 0) == pytest.approx(0.5)
    assert pmf_skip_rs(1, 1, 1) == pytest.approx(1 / 6)
    for z, expect in ((0, 0.5), (1, 1 / 6)):
        sigma = math.sqrt(expect * (1 - expect) / trials)
        assert abs(counts[z] / trials - expect) <= 4 * sigma


def _pmf_stream_rs(n, m):
    surv = 1.0
    z = 0
    while True:
        step = 1.0 - m / (n + z + 1)
        yield surv * (1.0 - step)  # pmf at z
        surv *= step
        z += 1


def _pmf_stream_rp(c1, d):
    surv = 1.0
    for z in range(d - c1 + 1):
        p_admit = c1 / (d - z)
        yield surv * p_admit
        surv *= 1.0 - p_admit


def _chisquare_vs_pmf(observed: Counter, trials, pmf_stream, mass_cutoff=0.99995):
    obs, exp = [], []
    bucket_o = bucket_e = 0.0
    covered = 0.0
    for z, p in enumerate(pmf_stream):
        bucket_o += observed.get(z, 0)
        bucket_e += p * trials
        covered += p
        if bucket_e >= 8:
            obs.append(bucket_o)
            exp.append(bucket_e)
            bucket_o = bucket_e = 0.0
        if covered >= mass_cutoff:
            break
    tail_o = trials - sum(obs) - bucket_o
    tail_e = trials - sum(exp) - bucket_e
    obs.append(bucket_o + tail_o)
    exp.append(bucket_e + tail_e)
    exp = [max(e, 1e-9) for e in exp]
    scale = sum(obs) / sum(exp)
    exp = [e * scale for e in exp]
    return stats.chisquare(obs, exp)


def test_skip_rs_pmf_chisquare():
    trials = 120_000
    rng = random.Random(7)
    observed = Counter(skip_rs(50, 10, rng) for _ in range(trials))
    chi = _chisquare_vs_pmf(observed, trials, _pmf_stream_rs(50, 10))
    assert chi.pvalue >= 1e-3


def test_skip_rs_long_skip_branch():
    # at n = 2500·m Algorithm Z draws every skip, most of them past 64
    rng = random.Random(3)
    draws = [skip_rs(5000, 2, rng) for _ in range(4000)]
    assert max(draws) > 64
    trials = len(draws)
    observed = Counter(draws)
    chi = _chisquare_vs_pmf(observed, trials, _pmf_stream_rs(5000, 2), mass_cutoff=0.995)
    assert chi.pvalue >= 1e-3


@pytest.mark.parametrize("n, m", [
    pytest.param(220, 10, id="walk-then-Z"),
    pytest.param(230, 10, id="Z-above-22m"),
    pytest.param(2000, 50, id="Z-at-40m"),
])
def test_skip_rs_pmf_chisquare_about_the_switch(n, m):
    """skip_rs against the exact pmf on each side of the switch to
    Algorithm Z at 22·m: at n = 22·m the walk runs out in 7% of draws and Z
    draws the rest of the skip; above it Z draws the whole skip. A correct
    draw fails this (p < 1e-3) with probability 1e-3 per case."""
    trials = 200_000
    rng = random.Random(n + m)
    observed = Counter(skip_rs(n, m, rng) for _ in range(trials))
    chi = _chisquare_vs_pmf(observed, trials, _pmf_stream_rs(n, m))
    assert chi.pvalue >= 1e-3


def test_skip_rs_mean_at_default_capacity():
    """At the default M=283,977 and population 30·M the mean skip is
    (t - m + 1)/(m - 1), about 29; the sample mean of 200,000 draws lies
    within 4 standard errors of it, which a correct draw misses with
    probability about 6e-5 (normal approximation)."""
    m = 283_977
    t = 30 * m
    trials = 200_000
    rng = random.Random(8)
    draws = [skip_rs(t, m, rng) for _ in range(trials)]
    mean = statistics.fmean(draws)
    stderr = statistics.stdev(draws) / math.sqrt(trials)
    assert abs(mean - (t - m + 1) / (m - 1)) <= 4 * stderr


def test_skip_rp_support_and_points():
    rng = random.Random(5)
    assert skip_rp(4, 4, rng) == 0
    for _ in range(200):
        assert skip_rp(2, 6, rng) <= 4
    assert pmf_skip_rp(1, 2, 0) == pytest.approx(0.5)
    assert pmf_skip_rp(1, 2, 1) == pytest.approx(0.5)
    trials = 30000
    counts = Counter(skip_rp(1, 2, random.Random(seed)) for seed in range(trials))
    sigma = math.sqrt(0.25 / trials)
    assert abs(counts[0] / trials - 0.5) <= 4 * sigma


def test_skip_rp_pmf_chisquare():
    trials = 120_000
    rng = random.Random(11)
    observed = Counter(skip_rp(3, 10, rng) for _ in range(trials))
    chi = _chisquare_vs_pmf(observed, trials, _pmf_stream_rp(3, 10), mass_cutoff=1.1)
    assert chi.pvalue >= 1e-3


def test_skip_rp_long_branch_matches_sequential():
    trials = 30000
    rng1, rng2 = random.Random(21), random.Random(22)
    fast = Counter(skip_rp(2, 400, rng1) for _ in range(trials))
    # a limit above d - c1 never binds
    slow = Counter(skip_rp_sequential(2, 400, rng2, 399) for _ in range(trials))
    support = sorted(set(fast) | set(slow))
    obs_f, obs_s = [], []
    bf = bs = 0
    for z in support:
        bf += fast.get(z, 0)
        bs += slow.get(z, 0)
        if bf + bs >= 40:
            obs_f.append(bf)
            obs_s.append(bs)
            bf = bs = 0
    obs_f.append(bf)
    obs_s.append(bs)
    table = [[f, s] for f, s in zip(obs_f, obs_s) if f + s > 0]
    chi = stats.chi2_contingency(list(zip(*table)))
    assert chi.pvalue >= 1e-3


@pytest.mark.parametrize("c1, d", [(2, 5000), (40, 5000)])
def test_skip_rp_method_d_chisquare(c1, d):
    """skip_rp against the exact pmf where the walk mostly runs out and
    Method D draws the rest of the skip (in 97% of draws at c1=2, 60% at
    c1=40). A correct draw fails this (p < 1e-3) with probability 1e-3 per
    case."""
    trials = 60_000
    rng = random.Random(c1)
    observed = Counter(skip_rp(c1, d, rng) for _ in range(trials))
    chi = _chisquare_vs_pmf(observed, trials, _pmf_stream_rp(c1, d))
    assert chi.pvalue >= 1e-3


@pytest.mark.parametrize("draw, args, pmf_stream", [
    pytest.param(_skip_z, (74, 10), _pmf_stream_rs, id="Z"),
    pytest.param(_skip_d, (10, 30), _pmf_stream_rp, id="D"),
])
def test_rejection_step_where_the_envelope_is_loose(draw, args, pmf_stream):
    """Algorithm Z and Method D on their own, at states a walk that runs out
    can hand over and where the envelope lies well above the pmf (c = 1.15
    for Z at t=74, m=10; c = 1.43 for D at 10 picks among 30), so that a
    wrong acceptance step shows: floor(X) taken unrejected fails here. A
    correct draw fails this (p < 1e-3) with probability 1e-3 per case."""
    trials = 60_000
    rng = random.Random(args[0])
    observed = Counter(draw(*args, rng) for _ in range(trials))
    chi = _chisquare_vs_pmf(observed, trials, pmf_stream(*args))
    assert chi.pvalue >= 1e-3


def test_skip_walk_draws_are_pinned():
    """A skip below _SEQ_LIMIT (and, for skip_rs, at n <= 22·m) is settled
    by the walk on one uniform, and these are the walk's values: Algorithm Z
    and Method D draw nothing for it, so seeded osr output on streams whose
    skips all end in the walk stays byte-identical. Deterministic."""
    rng = random.Random(2021)
    assert [skip_rs(50, 10, rng) for _ in range(8)] == [8, 9, 3, 1, 4, 19, 3, 0]
    assert [skip_rs(2200, 100, rng) for _ in range(8)] == [6, 13, 53, 3, 38, 29, 24, 17]
    assert [skip_rp(3, 10, rng) for _ in range(8)] == [0, 3, 1, 0, 4, 1, 7, 3]
    assert [skip_rp(40, 400, rng) for _ in range(8)] == [3, 3, 4, 4, 1, 2, 36, 5]
    assert rng.random() == 0.11577783262449537


def _counting(rng):
    """Count ``rng``'s calls of ``random()``, the coins of sr's skips (the
    integer draws of placements go through ``getrandbits``)."""
    coins = Counter()
    draw = rng.random

    def counted():
        coins["n"] += 1
        return draw()

    rng.random = counted
    return rng, coins


@pytest.mark.parametrize("skip, args, pmf", [
    pytest.param(skip_rs_sequential, (6, 2), pmf_skip_rs, id="rs"),
    pytest.param(skip_rp_sequential, (1, 9), pmf_skip_rp, id="rp"),
])
def test_sequential_skip_stops_at_limit(skip, args, pmf):
    """A sequential skip flips at most ``limit`` coins and returns None
    when none of them admits, with the probability of a skip >= limit."""
    limit, trials = 3, 20000
    rng, coins = _counting(random.Random(4))
    observed = Counter()
    for _ in range(trials):
        before = coins["n"]
        z = skip(*args, rng, limit)
        assert coins["n"] - before == (limit if z is None else z + 1)
        observed[z] += 1
    expected = [pmf(*args, z) * trials for z in range(limit)]
    expected.append(trials - sum(expected))
    observed = [observed[z] for z in range(limit)] + [observed[None]]
    assert stats.chisquare(observed, expected).pvalue >= 1e-3


def test_sr_flips_no_coin_for_arrivals_to_come():
    """sr flips at most one coin per arrival within each event, also at
    M=1, where a skip drawn to its end would run on past the stream."""
    eng = _paths_engine(1, 1)
    eng.rng, coins = _counting(random.Random(5))
    for i in range(1, 400):
        before = coins["n"]
        _offer_path(eng, i)
        assert coins["n"] - before == 1


def test_skip_errors():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        skip_rs(3, 0, rng)
    with pytest.raises(ValueError):
        skip_rp(0, 3, rng)
    with pytest.raises(ValueError):
        skip_rp(4, 3, rng)


def _admission_indices_sequential(n0, m, arrivals, rng):
    out = []
    n = n0
    for i in range(arrivals):
        n += 1
        if rng.random() < m / n:
            out.append(i)
    return out


def _admission_indices_skip(n0, m, arrivals, rng):
    out = []
    n = n0
    consumed = 0
    while True:
        z = skip_rs(n, m, rng)
        if consumed + z + 1 > arrivals:
            break
        consumed += z + 1
        n += z + 1
        out.append(consumed - 1)
    return out


def test_skip_soundness_vs_sequential_coins():
    """First-admission index and admission count agree in distribution with
    the per-arrival coin process."""
    trials = 20000
    arrivals, n0, m = 30, 12, 6
    first_seq, first_skip = Counter(), Counter()
    count_seq, count_skip = Counter(), Counter()
    for seed in range(trials):
        seq = _admission_indices_sequential(n0, m, arrivals, random.Random(seed))
        skp = _admission_indices_skip(n0, m, arrivals, random.Random(seed + 10**6))
        first_seq[seq[0] if seq else -1] += 1
        first_skip[skp[0] if skp else -1] += 1
        count_seq[len(seq)] += 1
        count_skip[len(skp)] += 1
    for a, b in ((first_seq, first_skip), (count_seq, count_skip)):
        keys = sorted(set(a) | set(b))
        table = [[a.get(k, 0), b.get(k, 0)] for k in keys]
        table = [row for row in table if sum(row) >= 10]
        chi = stats.chi2_contingency(list(zip(*table)))
        assert chi.pvalue >= 1e-3
