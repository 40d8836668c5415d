import hashlib
import math
import random
from collections import Counter

import pytest
from scipy import stats

from streamfsm import engine as engine_module, sampling
from streamfsm.engine import (
    EngineConfig,
    EngineError,
    EventStats,
    FrequencyEstimate,
    build_engine,
    metrics,
    recommended_sample_size,
    snapshot_lines,
)
from streamfsm.graph import GraphError, LabelConflictError, SubgraphInstance
from streamfsm.pattern import PatternKey, canonical_key
from streamfsm.stream import generate_stream

from conftest import add_event, brute_connected_sets, brute_pattern_counts, del_event


def test_recommended_sample_size_values():
    assert recommended_sample_size(1000, 0.1, 0.1) == 3777
    assert recommended_sample_size(1000, 0.01, 0.1) == 369335
    # degenerate boundary: log term collapses, floor keeps one slot
    assert recommended_sample_size(1, 0.999999, 0.999999) == 1
    with pytest.raises(ValueError):
        recommended_sample_size(0, 0.1, 0.1)


def test_config_validation():
    with pytest.raises(EngineError):
        EngineConfig(k=1)
    with pytest.raises(EngineError):
        EngineConfig(mode="bogus")
    with pytest.raises(EngineError):
        EngineConfig(tau=0.0)
    # sketch-W estimates size-3 deltas only
    with pytest.raises(EngineError):
        EngineConfig(k=4, mode="osr", w_mode="sketch")
    with pytest.raises(EngineError):
        EngineConfig(k=2, mode="osr", w_mode="sketch")
    EngineConfig(k=4, mode="osr", w_mode="exact")
    # only osr keeps sketches; no other mode may ask for sketch-W
    with pytest.raises(EngineError, match="mode='osr'"):
        EngineConfig(mode="sr", w_mode="sketch", sample_size=10)
    with pytest.raises(EngineError, match="mode='osr'"):
        EngineConfig(mode="exact", w_mode="sketch")
    with pytest.raises(EngineError, match="mode='osr'"):
        EngineConfig(k=4, mode="exact", w_mode="sketch")
    EngineConfig(mode="osr", w_mode="sketch", sample_size=10)
    cfg = EngineConfig(sample_size=10)
    assert cfg.resolve_sample_size() == 10
    cfg2 = EngineConfig(num_vertex_labels=1, num_edge_labels=1, epsilon=0.1, delta=0.1)
    assert cfg2.resolve_sample_size() == recommended_sample_size(2, 0.1, 0.1)
    with pytest.raises(EngineError):
        EngineConfig().resolve_sample_size()


def test_sr_wedge_then_closing_triangle():
    e = build_engine(EngineConfig(mode="sr", sample_size=5, seed=1))
    e.process_event(add_event(1, 0, 2, 0, 0))
    e.process_event(add_event(2, 0, 3, 0, 0))
    assert e.population == 1
    assert [i.vertices for i in e.reservoir.slots] == [(1, 2, 3)]
    stats = e.process_event(add_event(1, 0, 3, 0, 0))
    assert (stats.created, stats.modified) == (0, 1)
    assert e.population == 1
    assert len(e.reservoir.slots[0].edges) == 3


def test_sr_dynamic_triangle_minus_edge():
    e = build_engine(EngineConfig(mode="sr", dynamic=True, sample_size=5, seed=1))
    for ev in (add_event(1, 0, 2, 0, 0), add_event(2, 0, 3, 0, 0), add_event(1, 0, 3, 0, 0)):
        e.process_event(ev)
    e.process_event(del_event(1, 2))
    res = e.reservoir
    assert (e.population, res.c1, res.c2) == (1, 0, 0)
    assert len(res.slots[0].edges) == 2
    e.verify_invariants()


def test_duplicate_and_missing_events():
    e = build_engine(EngineConfig(mode="sr", dynamic=True, sample_size=5, seed=1))
    e.process_event(add_event(1, 0, 2, 0, 0))
    stats = e.process_event(add_event(1, 0, 2, 0, 0))
    assert stats == (0, 0, 0, 0)
    with pytest.raises(EngineError):
        e.process_event(del_event(5, 6))
    skipper = build_engine(
        EngineConfig(mode="sr", dynamic=True, sample_size=5, seed=1, missing_delete="skip")
    )
    assert skipper.process_event(del_event(5, 6)) == (0, 0, 0, 0)


def test_deletion_rejected_in_incremental_mode():
    e = build_engine(EngineConfig(mode="sr", sample_size=5))
    e.process_event(add_event(1, 0, 2, 0, 0))
    with pytest.raises(EngineError):
        e.process_event(del_event(1, 2))


def test_insertion_without_labels_rejected():
    e = build_engine(EngineConfig(mode="sr", sample_size=5))
    from streamfsm.stream import StreamEvent

    with pytest.raises(EngineError):
        e.process_event(StreamEvent("+", 1, 2))


def _engine_state(eng):
    g = eng.graph
    state = [sorted(g.labels.items()), sorted((u, sorted(n.items())) for u, n in g.adj.items()),
             g.num_edges, eng.events_seen, eng.estimate_frequencies()]
    if eng.mode != "exact":
        res = eng.reservoir
        state += [list(res.codes), list(res.shapes), res.n_population, res.c1, res.c2,
                  eng.rng.getstate()]
    return state


@pytest.mark.parametrize("mode,w_mode", [("exact", "exact"), ("sr", "exact"),
                                         ("osr", "exact"), ("osr", "sketch")])
def test_self_loop_event_rejected_without_state_change(mode, w_mode):
    from streamfsm.stream import StreamEvent

    eng = build_engine(EngineConfig(mode=mode, w_mode=w_mode, dynamic=True, sample_size=4,
                                    sketch_size=2, seed=2))
    for ev in generate_stream(12, 40, 2, 2, model="power-law", seed=2):
        eng.process_event(ev)
    hub = max(eng.graph.adj, key=eng.graph.degree)
    before = _engine_state(eng)
    for ev in (add_event(hub, eng.graph.labels[hub], hub, eng.graph.labels[hub], 0),
               add_event(99, 0, 99, 0, 0), StreamEvent("-", hub, hub)):
        with pytest.raises(EngineError, match="self-loop"):
            eng.process_event(ev)
        assert _engine_state(eng) == before
    if mode == "exact":
        eng.verify_counts()
    else:
        eng.verify_invariants()


@pytest.mark.parametrize("mode,w_mode", [("exact", "exact"), ("sr", "exact"),
                                         ("osr", "exact"), ("osr", "sketch")])
def test_rejected_insertion_leaves_no_vertex_behind(mode, w_mode):
    """An insertion whose endpoint has another label, or an id out of
    range, raises before either endpoint is registered."""
    eng = build_engine(EngineConfig(mode=mode, w_mode=w_mode, dynamic=True, sample_size=4,
                                    sketch_size=2, seed=2))
    for ev in generate_stream(12, 40, 2, 2, model="power-law", seed=2):
        eng.process_event(ev)
    hub = max(eng.graph.adj, key=eng.graph.degree)
    other = 1 - eng.graph.labels[hub]
    before = _engine_state(eng)
    for ev, error in ((add_event(99, 0, hub, other, 0), LabelConflictError),
                      (add_event(hub, other, 99, 0, 0), LabelConflictError),
                      (add_event(99, 0, 2**64, 0, 0), GraphError)):
        with pytest.raises(error):
            eng.process_event(ev)
        assert _engine_state(eng) == before
        assert 99 not in eng.graph.labels and 99 not in eng.graph.adj
    if mode == "exact":
        eng.verify_counts()
    else:
        eng.verify_invariants()


@pytest.mark.parametrize("mode,w_mode", [("sr", "exact"), ("osr", "exact")])
def test_counts_track_bruteforce_on_dynamic_streams(mode, w_mode):
    for seed in range(4):
        events = generate_stream(
            40, 150, 3, 2, model="uniform", delete_fraction=0.2, seed=seed
        )
        exact = build_engine(EngineConfig(mode="exact", dynamic=True))
        approx = build_engine(
            EngineConfig(mode=mode, dynamic=True, sample_size=12, seed=seed, w_mode=w_mode)
        )
        for ev in events:
            exact.process_event(ev)
            approx.process_event(ev)
            counts, total = brute_pattern_counts(exact.graph, 3)
            assert exact.counts == dict(counts)
            assert exact.population == total
            assert approx.population == total
            approx.verify_invariants()
        exact.verify_counts()


# sketch-W exists for k=3 only (test_config_validation)
@pytest.mark.parametrize(
    "mode,w_mode,k",
    [("sr", "exact", 3), ("osr", "exact", 3), ("osr", "sketch", 3),
     ("sr", "exact", 4), ("osr", "exact", 4), ("sr", "exact", 2), ("osr", "exact", 2)],
)
def test_sample_counts_match_recount_on_dynamic_streams(mode, w_mode, k):
    """The per-pattern counts kept beside the slots equal a recount of the
    slots after every event, also with vertex ids on both sides of 2**63."""
    length = 90 if k == 4 else 400
    for seed, offset in ((0, 0), (1, 0), (2, 0), (0, 2**63 - 15)):
        events = [
            ev._replace(u=ev.u + offset, v=ev.v + offset)
            for ev in generate_stream(
                30, length, 2, 2, model="power-law", delete_fraction=0.3, seed=seed
            )
        ]
        eng = build_engine(
            EngineConfig(k=k, mode=mode, w_mode=w_mode, dynamic=True, sample_size=10,
                         sketch_size=4, seed=seed)
        )
        for ev in events:
            eng.process_event(ev)
            recount = Counter(canonical_key(inst) for inst in eng.reservoir.slots)
            assert eng.estimate_frequencies().counts == dict(recount)
            eng.verify_invariants()
            if k == 2:
                assert eng.population == eng.graph.num_edges


def test_exact_engine_generic_k4(rng):
    """The generic (k != 3) path against brute force, at k=4 and k=2."""
    events = generate_stream(14, 60, 2, 1, model="uniform", delete_fraction=0.25, seed=3)
    for k in (4, 2):
        exact = build_engine(EngineConfig(k=k, mode="exact", dynamic=True))
        for ev in events:
            exact.process_event(ev)
            counts, total = brute_pattern_counts(exact.graph, k)
            assert exact.counts == dict(counts)
            assert exact.population == total


@pytest.mark.parametrize("k", [3, 4])
def test_exact_event_stats_match_the_oracle(k):
    """Each event's created, destroyed and modified counts equal a
    brute-force diff of the connected k-sets before and after it on a
    seeded dynamic stream: the modified sets are those over the event's
    pair that are connected on both sides."""
    events = generate_stream(14, 60, 2, 2, model="power-law", delete_fraction=0.3, seed=k)
    eng = build_engine(EngineConfig(k=k, mode="exact", dynamic=True))
    before: set = set()
    total = EventStats(0, 0, 0, 0)
    for ev in events:
        got = eng.process_event(ev)
        after = set(brute_connected_sets(eng.graph, k))
        modified = sum(ev.u in vs and ev.v in vs for vs in before & after)
        assert got == (len(after - before), len(before - after), modified, 0)
        total = EventStats(*(a + b for a, b in zip(total, got)))
        before = after
    assert min(total[:3]) > 0


@pytest.mark.parametrize("mode", ["sr", "osr"])
def test_sampling_engines_generic_k4(mode):
    events = generate_stream(14, 60, 2, 1, model="uniform", delete_fraction=0.25, seed=5)
    eng = build_engine(EngineConfig(k=4, mode=mode, dynamic=True, sample_size=8, seed=2))
    for ev in events:
        eng.process_event(ev)
        _, total = brute_pattern_counts(eng.graph, 4)
        assert eng.population == total
        eng.verify_invariants()


def test_osr_sketch_mode_runs_dynamic():
    """verify_invariants checks every sketch against its neighbourhood
    after each event, including deletions at hubs above the sketch size,
    which refill a full sketch from the adjacency."""
    events = generate_stream(40, 200, 2, 1, model="uniform", delete_fraction=0.2, seed=7)
    eng = build_engine(
        EngineConfig(
            mode="osr", dynamic=True, sample_size=10, seed=3, w_mode="sketch", sketch_size=8
        )
    )
    hub_deletions = 0
    for ev in events:
        if ev.op == "-":
            hub_deletions += max(eng.graph.degree(ev.u), eng.graph.degree(ev.v)) > 8
        eng.process_event(ev)
        eng.verify_invariants()
    assert hub_deletions > 0
    assert eng.population >= len(eng.reservoir.codes)


@pytest.mark.parametrize("size", [2, 8])
def test_sketch_w_is_exact_w_until_two_hubs_meet(size):
    """Sketch-W estimates only when both endpoints of an event are hubs
    (degree > size). Until the first such event of this power-law stream
    with deletions, its population and its sample equal exact-W's after
    every event, across events where one endpoint is a hub."""
    events = generate_stream(300, 300, 2, 2, model="power-law", delete_fraction=0.3, seed=0)
    engines = [build_engine(EngineConfig(mode="osr", w_mode=w_mode, dynamic=True,
                                         sample_size=20, sketch_size=size, seed=1))
               for w_mode in ("sketch", "exact")]
    sketch_w, exact_w = engines
    adj = sketch_w.graph.adj
    compared = one_hub = 0
    for ev in events:
        for eng in engines:
            eng.process_event(ev)
        low, high = sorted((len(adj[ev.u]), len(adj[ev.v])))
        if low > size:
            break
        compared += 1
        one_hub += high > size
        assert sketch_w.population == exact_w.population
        assert sketch_w.reservoir.codes == exact_w.reservoir.codes
    assert compared >= 100 and one_hub >= 20, (compared, one_hub)
    assert exact_w.reservoir.n_population > 20  # replacements ran


@pytest.fixture(scope="module")
def criterion_09_stream():
    """Criterion 09's stream and its final N = sum C(deg, 2) - 2 triangles."""
    events = generate_stream(1500, 100_000, 3, 2, model="power-law", seed=5,
                             power_law_exponent=1.1)
    adj: dict[int, set[int]] = {}
    for ev in events:
        adj.setdefault(ev.u, set()).add(ev.v)
        adj.setdefault(ev.v, set()).add(ev.u)
    wedges = sum(len(nu) * (len(nu) - 1) // 2 for nu in adj.values())
    triangles3 = sum(len(nu & adj[w]) for u, nu in adj.items() for w in nu if u < w)
    return events, wedges - 2 * (triangles3 // 3)


@pytest.mark.parametrize("size", [16, 64])
def test_sketch_w_population_error_on_criterion_09_stream(size, criterion_09_stream):
    """Sketch-W's final N on criterion 09's insert-only stream (100k edges,
    final N = 31,623,010) lies within two standard deviations, 2 B, of the
    truth, where B = 2 * sum_e sigma_e bounds the standard deviation of N's
    error.

    Only an event e between two hubs adds an error: 2 (I_e - I_hat_e), with
    I_e = |N(u) & N(v)| after it. The estimate counts the common hashes
    below the smaller sketch threshold tau ~ (S - 1) / max(deg u, deg v)
    and divides by tau, so it is binomial over tau with standard deviation
    sigma_e = sqrt(I_e * max(deg u, deg v) / (S - 1)). The standard
    deviation of a sum is at most the sum of the standard deviations,
    whatever the correlation between events (all of them share one hash
    function, and a hub's sketch persists from one event to the next), so
    by Chebyshev a hash seed misses 2 B with probability at most 1/4.
    Measured, engine seed 1: S=64 +1.19% of N (2 B = 6.4% of N); S=16
    +6.74% (2 B = 26.8%). Over engine seeds 1-6 the error took both signs,
    -3.18% to +1.19% at S=64 and -8.42% to +8.45% at S=16, at most half of
    2 B. With the sketch-based degrees that preceded exact ones, N read
    -11.2% and -31.1% at seed 1."""
    events, n_true = criterion_09_stream
    eng = build_engine(EngineConfig(k=3, mode="osr", w_mode="sketch", sample_size=1000,
                                    sketch_size=size, seed=1))
    adj = eng.graph.adj
    sigmas = 0.0
    for ev in events:
        eng.process_event(ev)
        nu, nv = adj[ev.u], adj[ev.v]
        if len(nu) > size and len(nv) > size:
            common = len(nu.keys() & nv.keys())
            sigmas += math.sqrt(common * max(len(nu), len(nv)) / (size - 1))
    b = 2.0 * sigmas
    error = eng.population - n_true
    assert abs(error) <= 2.0 * b, (error, b, n_true)


def test_estimate_frequencies_sampling():
    e = build_engine(EngineConfig(mode="sr", sample_size=10, seed=1))
    assert e.estimate_frequencies().occupancy == 0
    for i in range(6):
        e.process_event(add_event(0, 0, i + 1, 0, 0))
    est = e.estimate_frequencies()
    assert est.occupancy == len(e.reservoir.codes)
    assert sum(est.shares.values()) == pytest.approx(1.0)
    assert sum(est.counts.values()) == est.occupancy


def test_exact_frequencies_on_path():
    e = build_engine(EngineConfig(mode="exact"))
    e.process_event(add_event(1, 0, 2, 0, 0))
    e.process_event(add_event(2, 0, 3, 0, 0))
    e.process_event(add_event(3, 0, 4, 0, 0))
    est = e.estimate_frequencies()
    assert est.population == 2
    assert list(est.shares.values()) == [1.0]


def test_report_frequent_threshold_and_order():
    """A star whose six wedges fall into three classes with shares 4/6,
    1/6 and 1/6; a sample of 20 holds all six, so every mode reports the
    exact shares: by share descending, ties by key text."""

    def report(mode, w_mode, tau, epsilon):
        eng = build_engine(EngineConfig(mode=mode, w_mode=w_mode, tau=tau, epsilon=epsilon,
                                        sample_size=20, seed=3))
        for leaf, label in ((1, 0), (2, 0), (3, 1), (4, 1)):
            eng.process_event(add_event(0, 0, leaf, label, 0))
        return eng.estimate_frequencies(), eng.report_frequent()

    for mode, w_mode in (("exact", "exact"), ("sr", "exact"), ("osr", "exact"),
                         ("osr", "sketch")):
        est, rep = report(mode, w_mode, 0.5, 0.2)
        assert rep.threshold == pytest.approx(0.4)
        (mixed,) = [key for key, c in est.counts.items() if c == 4]
        assert rep.entries == [(mixed, 4 / 6)]
        lines = snapshot_lines(est, rep)
        assert lines == ["# event=4 N=6 occ=6 c1=0 c2=0", f"{mixed.text()}\t0.6666666667"]
        est, rep = report(mode, w_mode, 0.1, 0.01)
        rare = sorted((key for key, c in est.counts.items() if c == 1), key=PatternKey.text)
        assert len(rare) == 2
        assert rep.entries == [(mixed, 4 / 6), (rare[0], 1 / 6), (rare[1], 1 / 6)]


def test_report_empty_sample():
    e = build_engine(EngineConfig(mode="sr", sample_size=4, seed=0))
    assert e.report_frequent().entries == []


def test_metrics_worked_examples():
    key_a = PatternKey(3, (0,), ())
    key_b = PatternKey(3, (1,), ())
    truth = FrequencyEstimate({}, {key_a: 0.5, key_b: 0.5}, 10, 10, 0, 0, 0)
    est = FrequencyEstimate({}, {key_a: 0.6, key_b: 0.4}, 10, 10, 0, 0, 0)
    out = metrics(est, truth, tau=0.45)
    assert out.relative_error == pytest.approx(0.2)
    same = metrics(truth, truth, tau=0.45)
    assert (same.relative_error, same.precision, same.recall) == (0.0, 1.0, 1.0)
    # one spurious extra among four reported
    keys = [PatternKey(3, (i,), ()) for i in range(4)]
    truth2 = FrequencyEstimate({}, {k: 0.25 for k in keys[:3]} | {keys[3]: 0.05}, 1, 1, 0, 0, 0)
    est2 = FrequencyEstimate({}, {k: 0.25 for k in keys}, 1, 1, 0, 0, 0)
    out2 = metrics(est2, truth2, tau=0.2)
    assert out2.precision == pytest.approx(0.75)
    assert out2.recall == pytest.approx(1.0)
    # empty cases fall back to 1.0
    empty = FrequencyEstimate({}, {}, 0, 0, 0, 0, 0)
    out3 = metrics(empty, empty, tau=0.5)
    assert (out3.precision, out3.recall) == (1.0, 1.0)


def test_ec_report_is_exact_threshold_set():
    e = build_engine(EngineConfig(mode="exact", tau=0.9, epsilon=0.2))
    e.process_event(add_event(1, 0, 2, 0, 0))
    e.process_event(add_event(2, 0, 3, 0, 0))
    report = e.report_frequent()
    est = e.estimate_frequencies()
    expect = {k for k, p in est.shares.items() if p >= 0.8}
    assert {k for k, _ in report.entries} == expect


def test_sr_osr_same_distribution_small():
    """Reduced-scale agreement of per-pattern mean sample counts."""
    events = generate_stream(60, 250, 2, 1, model="uniform", seed=13)
    runs = 400
    sums = {"sr": Counter(), "osr": Counter()}
    sq = {"sr": Counter(), "osr": Counter()}
    for mode in ("sr", "osr"):
        for seed in range(runs):
            eng = build_engine(EngineConfig(mode=mode, sample_size=15, seed=seed))
            for ev in events:
                eng.process_event(ev)
            est = eng.estimate_frequencies()
            for key, c in est.counts.items():
                sums[mode][key] += c
                sq[mode][key] += c * c
    for key in set(sums["sr"]) | set(sums["osr"]):
        m1 = sums["sr"][key] / runs
        m2 = sums["osr"][key] / runs
        v1 = sq["sr"][key] / runs - m1 * m1
        v2 = sq["osr"][key] / runs - m2 * m2
        se = math.sqrt(max(v1, 1e-9) / runs + max(v2, 1e-9) / runs)
        assert abs(m1 - m2) <= 5 * se, (key.text(), m1, m2)


def test_engine_determinism():
    events = generate_stream(50, 200, 2, 2, model="uniform", delete_fraction=0.2, seed=21)

    def run():
        eng = build_engine(EngineConfig(mode="osr", dynamic=True, sample_size=9, seed=77))
        for ev in events:
            eng.process_event(ev)
        return sorted(i.vertices for i in eng.reservoir.slots), eng.population

    assert run() == run()


@pytest.mark.parametrize("k,mode,w_mode", [
    pytest.param(3, "sr", "exact", id="sr-exact"),
    pytest.param(3, "osr", "exact", id="osr-exact"),
    pytest.param(3, "osr", "sketch", id="osr-sketch"),
    pytest.param(4, "sr", "exact", id="k4-sr"),
    pytest.param(4, "osr", "exact", id="k4-osr"),
])
def test_warm_size3_replay_builds_no_members(k, mode, w_mode, monkeypatch):
    """Once the shape table holds a stream's keys, a replay of it at k=3 or
    k=4 builds no SubgraphInstance and canonicalises nothing: admissions,
    random replacements, pair lookups, modifications and drops work on
    codes, ids and shared records."""
    if k == 3:
        events = generate_stream(60, 500, 2, 2, model="power-law", delete_fraction=0.3, seed=8)
        size = 40
    else:
        events = generate_stream(30, 200, 2, 2, model="power-law", delete_fraction=0.3, seed=8)
        size = 20
    config = EngineConfig(k=k, mode=mode, w_mode=w_mode, dynamic=True, sample_size=size,
                          sketch_size=4, seed=8)
    warm = build_engine(config)
    for ev in events:
        warm.process_event(ev)
    built = []
    canonical = sampling.canonical_key

    def counting_canonical(inst):
        built.append("canonical_key")
        return canonical(inst)

    monkeypatch.setattr(sampling, "canonical_key", counting_canonical)
    monkeypatch.setattr(engine_module, "canonical_key", counting_canonical)
    new, make = SubgraphInstance.__new__, SubgraphInstance._make.__func__

    def counting_new(cls, *args, **kwargs):
        built.append("new")
        return new(cls, *args, **kwargs)

    def counting_make(cls, iterable):
        built.append("make")
        return make(cls, iterable)

    monkeypatch.setattr(SubgraphInstance, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(SubgraphInstance, "_make", classmethod(counting_make))
    eng = build_engine(config)
    total = EventStats(0, 0, 0, 0)
    for ev in events:
        st = eng.process_event(ev)
        total = EventStats(*(a + b for a, b in zip(total, st)))
    assert built == []
    assert eng.reservoir.n_population > eng.sample_size  # replacements ran
    assert total.modified > 0 and total.destroyed > 0 and total.admitted > 0
    assert eng.reservoir.c1 + eng.reservoir.c2 + len(eng.reservoir.codes) > 0
    SubgraphInstance((1, 2, 3), (0, 0, 0), ())
    assert built == ["new"]  # the counter itself works


def _seeded_digest(k, mode, w_mode, delete_fraction):
    """SHA-256 over the snapshot lines every 50 events, the key order of
    each estimate's counts and the final slot order (sampling modes)."""
    if k == 3:
        events = generate_stream(80, 600, 3, 2, model="power-law",
                                 delete_fraction=delete_fraction, seed=5)
        size = 50
    else:
        events = generate_stream(30, 150, 2, 2, model="power-law",
                                 delete_fraction=delete_fraction, seed=5)
        size = 20
    eng = build_engine(EngineConfig(k=k, mode=mode, w_mode=w_mode, dynamic=True, tau=0.05,
                                    sample_size=size, sketch_size=8, seed=5))
    h = hashlib.sha256()
    for i, ev in enumerate(events, start=1):
        eng.process_event(ev)
        if i % 50 == 0 or i == len(events):
            est = eng.estimate_frequencies()
            for line in snapshot_lines(est, eng.report_frequent()):
                h.update(line.encode() + b"\n")
            h.update(" ".join(key.text() for key in est.counts).encode() + b"\n")
    if mode != "exact":
        for inst in eng.reservoir.slots:
            h.update(repr(inst.vertices).encode())
    return h.hexdigest()


# Digests computed with the code of the commit before class-id counts and
# id-taking placements, which changed no draw and no slot position. A change
# that alters RNG draws or slot order updates them and says why. The exact
# digests come from the code before the exact engine counted by class id.
# Three were recomputed when every engine took its size-3 thirds from the
# former exploration.exclusive_thirds, which subtracted the endpoints only
# when the graph held the edge: (3, exact, exact, 0.0), where only the key order of
# the counts changed (the snapshot lines stay byte-identical), and both
# (3, sr, exact) rows, whose coins now meet the arrivals in the order of the
# plain set difference rather than of a copy less {v}.
# All ten sr and osr rows were recomputed when both samplers came to share
# one admission step, which moved their draws: sr's coins are drawn as skips
# (a run of coins up to the next admission), and none are drawn while
# c1 = 0, where the pairing step cannot admit; osr's reservoir skip is drawn
# at the first arrival after an admission rather than at the admission; a
# whole pool admitted into free slots is placed without an rng.sample; and
# the size-3 thirds are built after the add, with the endpoints discarded
# in place, so the arrivals meet the draws in another order. Eight of them
# (all but the two k=4 rows at delete_fraction 0.3) were recomputed again
# when a whole pool admitted at capacity went back to an rng.sample, whose
# random order keeps the event's placements uniform; and the four sr rows
# once more when sr's skips stopped flipping coins past the event's
# arrivals and were drawn afresh at the next event. The six osr rows were
# recomputed when osr's reservoir skip came to be drawn by Algorithm Z above
# a population of 22·M, and past a walk of 64 arrivals below it, and its
# pairing skip by Method D past its walk: each of these streams takes its
# population to 99-442·M, where Z draws its skips from other uniforms than
# the walk did. The walks themselves draw as before. All ten sr and osr rows
# were recomputed when an admission at capacity came to take its victim's
# slot in place, instead of the last slot moving into the victim's and the
# newcomer going last: every draw is the same, but a later
# randrange(capacity) then picks another member. The samples stay uniform
# given their size. Building, placing and updating an event's members as
# batches, with the old eviction, had left all fourteen rows unchanged.
# Ten rows were recomputed when every engine came to split an edge's k-sets
# by exploration.pair_members into those connected without and with the edge:
# - the four exact rows, whose counts now move out of their classes before
#   the edge changes and back in after it: only the key order of the counts
#   changed, and the snapshot lines stay byte-identical;
# - the six k=3 sr and osr rows, whose admission pool is now every neighbour
#   of either endpoint less the common ones, one set that lists the same
#   third vertices in another order than the two exclusive sets did. The
#   draws and their law are unchanged: the old order reproduces all six old
#   rows.
# The four k=4 sr and osr rows stay unchanged.
# The two (3, osr, sketch) rows were recomputed when sketch-W came to count
# its delta from exact degrees, probing the common neighbours exactly
# whenever an endpoint's degree is at most the sketch size (8 here), and to
# estimate only the common neighbours of two hubs. Its counts, and so N,
# the arrivals each event offers and the draws they meet, differ from the
# former estimates on every event with an endpoint above the size. The
# other twelve rows are unchanged: exact, sr and exact-W run the same code.
SEEDED_DIGESTS = {
    (3, "exact", "exact", 0.0): "b506a80e0b1f2920f9d974a9a65bcdeccc15ba8e8ce9d76f93df713f9ff2c2cb",
    (3, "exact", "exact", 0.3): "c49e19c0cffe1b14f7704ccd1a60e971de7da41c568cc8cc65fdcf4592a7987f",
    (4, "exact", "exact", 0.0): "da347ddf44382adacafa8f6bb2eb7de34dea315635f52be96aeb7591421a61fc",
    (4, "exact", "exact", 0.3): "bac0eb972ce4035fbecb8fe807452effe30ab06b1cebaec6b03db296fdc3d05b",
    (3, "sr", "exact", 0.0): "f7affb074da4cf12ac4d4d0551a26ddb21a1a2b0e77b903503fc89f771ab6076",
    (3, "sr", "exact", 0.3): "7babd2c554107e87cacbb9b73828209b7ec398f5623290d33af27162b7942e54",
    (3, "osr", "exact", 0.0): "6edf58d99bbea4b1c517f5f78f7a776ae39632b3fff81ee007d618809445926b",
    (3, "osr", "exact", 0.3): "90e69d023c4a0c2b34a20c7cd570477d93e0c545c42fb76d2588815c4bc748e1",
    (3, "osr", "sketch", 0.0): "8d0bc73a78c4cae134d3e324ae60d707161aaf1840b03ab0788cbdaee5bc8c11",
    (3, "osr", "sketch", 0.3): "a27866d1f67e552b49c58990aa2137bea46329e10711e5ae830e32ac7888c244",
    (4, "sr", "exact", 0.0): "5bde5d577729b55be6f9d266ff14f8825a1fbeef3233436a8c3498050ca3dff5",
    (4, "sr", "exact", 0.3): "8ce7943dc5b96a69e7f3fb176b6ecb42f52d3886d024c3c09869e77793fe79a4",
    (4, "osr", "exact", 0.0): "bbe7ecf393393f457100a1305834ec588f74a87f289c7ac5a96f9dfaaeb2ff8a",
    (4, "osr", "exact", 0.3): "a037c57020e40225111730edc52ad7293b3c8f0fef32f168c7e8ed6e9cdd734c",
}


@pytest.mark.parametrize("case", sorted(SEEDED_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_seeded_output_is_pinned(case):
    k, mode, w_mode, delete_fraction = case
    assert _seeded_digest(k, mode, w_mode, delete_fraction) == SEEDED_DIGESTS[case]


# Criteria 03/04's rule for the exact-W samplers they do not cover: M=20,
# every connected k-set's inclusion rate within 4 sigma of the uniform rate,
# chi-square p >= 1e-3. At k=3, osr on criteria 03/04's insert-only and
# dynamic streams; at k=4 (N=131), sr and osr on one dynamic stream. Each
# row's seed count is set for run time (one k=4 replay takes about 7 ms on a
# 2-core VM); sigma follows from it. Stream: generate_stream(n, 300, 3, 2,
# model="uniform", delete_fraction=df, seed=s) for the row's (n, df, s).
@pytest.mark.parametrize("k, mode, stream, runs", [
    pytest.param(3, "osr", (1500, 0.0, 0), 3_000, id="insert-only"),
    pytest.param(3, "osr", (1100, 0.25, 3), 3_000, id="dynamic"),
    pytest.param(4, "sr", (800, 0.25, 3), 2_000, id="k4-sr"),
    pytest.param(4, "osr", (800, 0.25, 3), 2_000, id="k4-osr"),
])
def test_osr_exact_inclusion_is_uniform(k, mode, stream, runs):
    n, delete_fraction, stream_seed = stream
    events = generate_stream(n, 300, 3, 2, model="uniform", delete_fraction=delete_fraction,
                             seed=stream_seed)
    dynamic = delete_fraction > 0
    incl = Counter()
    occupancies = set()
    for seed in range(runs):
        eng = build_engine(EngineConfig(k=k, mode=mode, w_mode="exact", dynamic=dynamic,
                                        sample_size=20, seed=seed))
        for ev in events:
            eng.process_event(ev)
        occupancies.add(len(eng.reservoir.codes))
        for inst in eng.reservoir.slots:
            incl[inst.vertices] += 1
    # the brute-force oracle does not finish at k=4 on 800 vertices
    population = (brute_connected_sets(eng.graph, 3) if k == 3
                  else list(eng.graph.connected_k_sets(k)))
    nstar = len(population)
    assert eng.population == nstar
    assert len(occupancies) == 1, f"occupancy not seed-invariant: {occupancies}"
    m_prime = next(iter(occupancies))
    p = m_prime / nstar
    sigma = math.sqrt(p * (1 - p) / runs)
    worst = max(abs(incl[t] / runs - p) for t in population)
    assert worst <= 4 * sigma, f"worst deviation {worst / sigma:.2f} sigma"
    chi = stats.chisquare([incl[t] for t in population], [runs * p] * nstar)
    assert chi.pvalue >= 1e-3
