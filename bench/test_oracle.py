"""The benchmark's oracle against brute force on small random graphs.

    python3 -m pytest bench/test_oracle.py

Brute force enumerates every 3-subset, tests connectivity by counting its
edges and names isomorphism classes by the least relabelling over all six
vertex orders of the full labelled adjacency. Nothing here imports
``streamfsm``.
"""

import random
from dataclasses import replace
from itertools import combinations, permutations, product

import pytest

import oracle
from workloads import WORKLOADS, expand_window, generate


def brute_key(labels, edge):
    """``edge`` maps unordered position pairs to labels; absent is -1."""
    best = None
    for order in permutations(range(3)):
        cand = (
            tuple(labels[p] for p in order),
            tuple(edge.get(frozenset((order[i], order[j])), -1)
                  for i, j in ((0, 1), (0, 2), (1, 2))),
        )
        if best is None or cand < best:
            best = cand
    return best


def brute_counts(g: oracle.Graph):
    """{brute class: (own class, count)} over the connected 3-subsets."""
    out = {}
    for trio in combinations(sorted(g.labels), 3):
        labs = tuple(g.labels[v] for v in trio)
        edge = {}
        for i, j in ((0, 1), (0, 2), (1, 2)):
            lab = g.adj[trio[i]].get(trio[j])
            if lab is not None:
                edge[frozenset((i, j))] = lab
        if len(edge) < 2:
            continue
        key = brute_key(labs, edge)
        own = oracle.class_of(labs, {tuple(sorted(p)): lab for p, lab in edge.items()})
        prev_own, c = out.get(key, (own, 0))
        assert prev_own == own, "one brute class under two oracle names"
        out[key] = (own, c + 1)
    return out


def random_events(rng, n, steps):
    labels = [rng.randrange(3) for _ in range(n)]
    live = set()
    events = []
    for _ in range(steps):
        if live and rng.random() < 0.3:
            a, b = sorted(live)[rng.randrange(len(live))]
            live.discard((a, b))
            events.append(("-", a, b))
            continue
        a, b = rng.sample(range(n), 2)
        if (min(a, b), max(a, b)) in live:
            continue
        live.add((min(a, b), max(a, b)))
        events.append(("+", a, labels[a], b, labels[b], rng.randrange(2)))
    return events


@pytest.mark.parametrize("seed", range(40))
def test_true_counts_match_subset_enumeration(seed):
    rng = random.Random(seed)
    events = random_events(rng, rng.randrange(4, 10), rng.randrange(5, 40))
    g = oracle.replay(events)
    brute = brute_counts(g)
    owns = [own for own, _ in brute.values()]
    assert len(set(owns)) == len(owns), "one oracle name for two brute classes"
    counts, population = oracle.true_counts(g)
    assert counts == {own: c for own, c in brute.values()}
    assert population == sum(c for _, c in brute.values())


def test_class_universe_matches_brute_force():
    spots = ((0, 1), (0, 2), (1, 2))
    brute = set()
    for labs in product(range(3), repeat=3):
        for edge_labels in product(range(-1, 2), repeat=3):
            edge = {frozenset(s): e for s, e in zip(spots, edge_labels) if e >= 0}
            if len(edge) >= 2:
                brute.add(brute_key(labs, edge))
    assert len(oracle.all_classes(3, 2)) == len(brute) == 119


@pytest.mark.parametrize("sample", [1, 1000, 30_000, 283_977])
def test_epsilon_inverts_the_sample_size_formula(sample):
    eps = oracle.epsilon_for(sample, 119, 0.1)
    assert oracle.sample_size_for(119, eps, 0.1) == sample
    assert oracle.sample_size_for(119, eps * 0.999, 0.1) > sample


def test_default_epsilon_gives_the_paper_sample_size():
    assert oracle.sample_size_for(119, 0.01, 0.1) == 283_977


def test_window_deletes_each_edge_window_insertions_later():
    adds = [("+", i, 0, i + 1, 0, 0) for i in range(10)]
    out = expand_window(adds, 3)
    assert len(out) == 10 + 7
    live = set()
    inserted = []
    for ev in out:
        if ev[0] == "+":
            inserted.append((ev[1], ev[3]))
            live.add((ev[1], ev[3]))
        else:
            assert (ev[1], ev[2]) == inserted[-3]
            live.remove((ev[1], ev[2]))
        assert len(live) <= 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_seeded_and_replayable(name):
    workload = WORKLOADS[name]
    small = replace(workload, insertions=300, churn=min(workload.churn, 100),
                    window=workload.window and 200)
    first = generate(small, 7)
    assert first == generate(small, 7)
    assert first != generate(small, 8)
    events = expand_window(first, small.window) if small.window else first
    oracle.replay(events)  # raises on a duplicate insertion or an absent deletion
