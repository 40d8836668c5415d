import itertools
import random

import pytest

from streamfsm.graph import SubgraphInstance, is_connected
from streamfsm.pattern import (
    PatternBudgetError,
    canonical_key,
    count_patterns,
)

from conftest import are_isomorphic


def _full_permutation_key(inst: SubgraphInstance):
    """Reference minimization over every vertex ordering."""
    k = len(inst.vertices)
    best = None
    for perm in itertools.permutations(range(k)):
        labs = [0] * k
        for i in range(k):
            labs[perm[i]] = inst.vertex_labels[i]
        edges = []
        for i, j, lab in inst.edges:
            a, b = perm[i], perm[j]
            edges.append((a, b, lab) if a < b else (b, a, lab))
        cand = (tuple(labs), tuple(sorted(edges)))
        if best is None or cand < best:
            best = cand
    return best


def _random_instance(rng, k, num_labels=2, num_edge_labels=2, connected=False):
    while True:
        vs = tuple(sorted(rng.sample(range(100), k)))
        labs = tuple(rng.randrange(num_labels) for _ in range(k))
        edges = []
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.6:
                    edges.append((i, j, rng.randrange(num_edge_labels)))
        inst = SubgraphInstance(vs, labs, tuple(edges))
        if not connected or is_connected(inst):
            return inst


def _permute_ids(inst: SubgraphInstance, rng):
    """Same structure on fresh vertex ids."""
    new_ids = rng.sample(range(200, 400), len(inst.vertices))
    order = sorted(range(len(new_ids)), key=lambda i: new_ids[i])
    vs = tuple(new_ids[i] for i in order)
    labs = tuple(inst.vertex_labels[order[i]] for i in range(len(order)))
    pos = {order[i]: i for i in range(len(order))}
    edges = []
    for i, j, lab in inst.edges:
        a, b = pos[i], pos[j]
        edges.append((a, b, lab) if a < b else (b, a, lab))
    return SubgraphInstance(vs, labs, tuple(sorted(edges)))


def test_triangle_fully_symmetric():
    keys = set()
    for ids in itertools.permutations((4, 7, 9)):
        vs = tuple(sorted(ids))
        inst = SubgraphInstance(vs, (0, 0, 0), ((0, 1, 0), (0, 2, 0), (1, 2, 0)))
        keys.add(canonical_key(inst))
    assert len(keys) == 1


def test_wedge_relabeled_ids_equal_key():
    a = SubgraphInstance((1, 2, 3), (0, 1, 0), ((0, 1, 0), (1, 2, 0)))
    rng = random.Random(5)
    for _ in range(12):
        b = _permute_ids(a, rng)
        assert canonical_key(b) == canonical_key(a)
        assert are_isomorphic(a, b)


def test_wedge_center_label_distinguishes():
    center_a = SubgraphInstance((1, 2, 3), (1, 0, 1), ((0, 1, 0), (1, 2, 0)))
    center_b = SubgraphInstance((1, 2, 3), (0, 1, 1), ((0, 1, 0), (1, 2, 0)))
    assert not are_isomorphic(center_a, center_b)
    assert canonical_key(center_a) != canonical_key(center_b)


def test_key_matches_full_permutation_reference(rng):
    for k in (2, 3, 4):
        for _ in range(80):
            inst = _random_instance(rng, k)
            key = canonical_key(inst)
            assert (key.vertex_labels, key.edges) == _full_permutation_key(inst)
            assert key.size == k


def test_key3_exhaustive_label_universe():
    """Every labeled size-3 structure: pruned path equals the reference."""
    for labs in itertools.product(range(2), repeat=3):
        for pattern in itertools.product(range(3), repeat=3):  # 0=absent
            edges = []
            for (i, j), lab in zip(((0, 1), (0, 2), (1, 2)), pattern):
                if lab:
                    edges.append((i, j, lab - 1))
            inst = SubgraphInstance((3, 6, 9), labs, tuple(edges))
            key = canonical_key(inst)
            assert (key.vertex_labels, key.edges) == _full_permutation_key(inst)


def test_key_equality_iff_isomorphic(rng):
    insts = [_random_instance(rng, 4) for _ in range(40)]
    for a in insts:
        for b in insts:
            assert (canonical_key(a) == canonical_key(b)) == are_isomorphic(a, b)


def test_permutation_invariance(rng):
    for _ in range(60):
        inst = _random_instance(rng, rng.choice((3, 4)))
        other = _permute_ids(inst, rng)
        assert canonical_key(inst) == canonical_key(other)


def test_count_patterns_known_values():
    assert count_patterns(2, 1, 1) == 1
    assert count_patterns(3, 1, 1) == 2
    assert count_patterns(3, 2, 1) == 10


def test_count_patterns_matches_isomorphism_classes():
    """Cross-check against class counting by pairwise isomorphism search."""
    reps = []
    for labs in itertools.combinations_with_replacement(range(2), 3):
        for pattern in itertools.product(range(2), repeat=3):
            edges = tuple(
                (i, j, 0)
                for (i, j), present in zip(((0, 1), (0, 2), (1, 2)), pattern)
                if present
            )
            inst = SubgraphInstance((0, 1, 2), labs, edges)
            if not is_connected(inst):
                continue
            if not any(are_isomorphic(inst, r) for r in reps):
                reps.append(inst)
    # unsorted label assignments add no classes beyond relabeled copies
    assert count_patterns(3, 2, 1) == 10
    assert len(reps) == 10


def test_count_patterns_budget():
    with pytest.raises(PatternBudgetError):
        count_patterns(5, 3, 2, budget=10_000)


def test_text_rendering_stable():
    # wedge centered on a label-0 vertex, one leaf labeled 1
    inst = SubgraphInstance((1, 2, 3), (0, 0, 1), ((0, 1, 0), (1, 2, 0)))
    key = canonical_key(inst)
    assert key.text() == "k=3;V=0,0,1;E=(0,1,0),(0,2,0)"
    # wedge centered on the label-1 vertex: center lands at position 2
    inst2 = SubgraphInstance((1, 2, 3), (0, 1, 0), ((0, 1, 0), (1, 2, 0)))
    assert canonical_key(inst2).text() == "k=3;V=0,0,1;E=(0,2,0),(1,2,0)"


def test_oversized_instance_rejected():
    vs = tuple(range(9))
    inst = SubgraphInstance(vs, (0,) * 9, tuple((i, i + 1, 0) for i in range(8)))
    with pytest.raises(ValueError):
        canonical_key(inst)
