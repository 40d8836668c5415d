"""Canonical forms for small labeled subgraphs and pattern-class counting."""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb
from typing import NamedTuple

from .graph import SubgraphInstance, is_connected

MAX_CANONICAL_SIZE = 8


class PatternBudgetError(ValueError):
    """Class enumeration would exceed the configured budget."""


class PatternKey(NamedTuple):
    """Canonical identity of an isomorphism class of labeled subgraphs.

    ``vertex_labels`` and ``edges`` describe the canonical representative:
    the lexicographically minimal (label sequence, labeled adjacency) pair
    over all vertex orderings. Equal keys == label-preserving isomorphic
    instances; the key never depends on vertex ids or insertion order.
    """

    size: int
    vertex_labels: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    def text(self) -> str:
        """Stable human-readable rendering, bit-exact across runs."""
        vs = ",".join(str(x) for x in self.vertex_labels)
        es = ",".join(f"({i},{j},{lab})" for i, j, lab in self.edges)
        return f"k={self.size};V={vs};E={es}"


# Signature -> key memo. Distinct signatures are bounded by the label
# universe at the subgraph sizes this package targets, so the memo stays tiny
# while making repeat canonicalizations a dict hit.
_MEMO: dict[tuple, PatternKey] = {}


def canonical_key(instance: SubgraphInstance) -> PatternKey:
    """Map an instance to its isomorphism class.

    Exact for sizes up to MAX_CANONICAL_SIZE. Size 3 runs through the same
    pruned minimization but almost always touches a single vertex order.
    """
    k = len(instance.vertices)
    if k > MAX_CANONICAL_SIZE:
        raise ValueError(f"canonical form supported up to {MAX_CANONICAL_SIZE} vertices, got {k}")
    sig = (instance.vertex_labels, instance.edges)
    key = _MEMO.get(sig)
    if key is None:
        key = _canonical(k, instance.vertex_labels, instance.edges)
        _MEMO[sig] = key
    return key


def _label_sorted_orders(vlabels: tuple[int, ...]):
    """Vertex orders whose label sequence is the sorted one.

    The minimal candidate always sorts the labels first, so only orders
    laying out equal-label vertices in every relative arrangement can win;
    groups of distinct labels contribute a single choice.
    """
    k = len(vlabels)
    by_label: dict[int, list[int]] = {}
    for i, lab in enumerate(vlabels):
        by_label.setdefault(lab, []).append(i)
    groups = [by_label[lab] for lab in sorted(by_label)]
    for arrangement in product(*(permutations(g) for g in groups)):
        order: list[int] = []
        for part in arrangement:
            order.extend(part)
        yield order  # order[p] = original index placed at position p


def _canonical(k: int, vlabels: tuple[int, ...], edges) -> PatternKey:
    labs = tuple(sorted(vlabels))
    best_edges = None
    pos = [0] * k
    for order in _label_sorted_orders(vlabels):
        for p, orig in enumerate(order):
            pos[orig] = p
        cand = []
        for i, j, lab in edges:
            a, b = pos[i], pos[j]
            cand.append((a, b, lab) if a < b else (b, a, lab))
        cand.sort()
        if best_edges is None or cand < best_edges:
            best_edges = cand
    return PatternKey(k, labs, tuple(best_edges if best_edges is not None else ()))


def count_patterns(
    k: int,
    num_vertex_labels: int,
    num_edge_labels: int,
    budget: int = 2_000_000,
) -> int:
    """Number of connected isomorphism classes on k vertices.

    Exhaustively enumerates labeled graphs (label multisets x edge
    assignments), keeps the connected ones and counts distinct canonical
    keys. Raises PatternBudgetError when the raw enumeration would exceed
    ``budget``; callers must then supply the class count themselves.
    """
    if k < 1 or num_vertex_labels < 1 or num_edge_labels < 1:
        raise ValueError("k and label universe sizes must be positive")
    pairs = list(combinations(range(k), 2))
    raw = comb(num_vertex_labels + k - 1, k) * (num_edge_labels + 1) ** len(pairs)
    if raw > budget:
        raise PatternBudgetError(
            f"{raw} labeled graphs exceed the enumeration budget {budget}; "
            "pass the class count explicitly"
        )
    ids = tuple(range(k))
    keys: set[PatternKey] = set()
    for vlabels in combinations_with_replacement(range(num_vertex_labels), k):
        for assignment in product(range(num_edge_labels + 1), repeat=len(pairs)):
            edges = tuple(
                (i, j, lab - 1) for (i, j), lab in zip(pairs, assignment) if lab > 0
            )
            inst = SubgraphInstance(ids, vlabels, edges)
            if is_connected(inst):
                keys.add(canonical_key(inst))
    return len(keys)

