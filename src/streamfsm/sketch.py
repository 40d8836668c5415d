"""Bottom-k neighbourhood sketches with deletion support, kept for hubs only.

A sketch keeps only the ``size`` smallest hashes of a neighbourhood; the
one full copy of each neighbourhood is the graph's adjacency, from which a
deletion refills its sketch. The store keeps a sketch only for a hub, a
vertex whose degree exceeds the sketch size: at or below that size the
adjacency holds the exact neighbourhood in no more entries than a sketch,
and the common neighbours of an edge with such an endpoint are probed
exactly (``exploration.sketch_delta``)."""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from collections.abc import Iterable


class SketchError(ValueError):
    pass


class VertexHasher:
    """Salted, seeded map from vertex ids to floats in [0, 1).

    64-bit resolution before normalization; values are cached per vertex so
    repeat lookups are a dict hit.
    """

    __slots__ = ("_salt", "_cache")

    def __init__(self, seed: int) -> None:
        self._salt = f"vh:{seed}:".encode()
        self._cache: dict[int, float] = {}

    def value(self, vertex: int) -> float:
        h = self._cache.get(vertex)
        if h is None:
            digest = hashlib.blake2b(
                self._salt + str(vertex).encode(), digest_size=8
            ).digest()
            h = int.from_bytes(digest, "big") / 2.0**64
            self._cache[vertex] = h
        return h


class BottomKSketch:
    """The ``size`` smallest hash values of a set, deletion-tolerant.

    Only the retained minima are stored: a sorted list (``size`` is small,
    so insort is effectively free) and a set mirroring it for O(1)
    membership. The set itself is kept by its owner, so a full sketch drops
    every value above its threshold, and a deletion from a full sketch's
    retained part refills it from the remaining values the caller passes:
    the smallest of them above the old threshold is appended.
    """

    __slots__ = ("size", "hasher", "_plus", "_plus_set")

    def __init__(self, size: int, hasher: VertexHasher | None = None) -> None:
        if size < 2:
            raise SketchError(f"sketch size must be >= 2, got {size}")
        self.size = size
        self.hasher = hasher
        self._plus: list[float] = []
        self._plus_set: set[float] = set()  # mirrors _plus for O(1) membership

    @property
    def is_full(self) -> bool:
        return len(self._plus) >= self.size

    def smallest(self) -> list[float]:
        return list(self._plus)

    def insert(self, value: float) -> None:
        """Add one hash value (caller guarantees it is not already present)."""
        plus = self._plus
        if len(plus) < self.size:
            insort(plus, value)
            self._plus_set.add(value)
        elif value < plus[-1]:
            self._plus_set.remove(plus.pop())
            insort(plus, value)
            self._plus_set.add(value)

    def delete(self, value: float, rest: Iterable[float]) -> None:
        """Remove one hash value; ``rest`` iterates the values the set holds
        without it, and is read only when a full sketch loses a retained
        value and must promote the smallest one above its old threshold."""
        plus = self._plus
        idx = bisect_left(plus, value)
        if idx < len(plus) and plus[idx] == value:
            tau = plus[-1]
            full = len(plus) == self.size
            plus.pop(idx)
            self._plus_set.remove(value)
            if full:
                promoted = min([h for h in rest if h > tau], default=None)
                if promoted is not None:
                    plus.append(promoted)
                    self._plus_set.add(promoted)
            return
        if idx == len(plus) == self.size:
            return  # above a full sketch's threshold: never retained
        raise SketchError(f"value {value!r} not present in sketch")

    def size_estimate(self) -> float:
        """Estimated cardinality of the summarized set.

        Underfull sketches hold the whole set, so the answer is exact there;
        a full sketch reports (size - 1) / threshold.
        """
        if len(self._plus) < self.size:
            return float(len(self._plus))
        return (self.size - 1) / self._plus[-1]

    def check(self) -> None:
        """Debug invariants; raises on breakage."""
        plus = self._plus
        if len(plus) > self.size:
            raise SketchError("retained part exceeds sketch size")
        if any(plus[i] >= plus[i + 1] for i in range(len(plus) - 1)):
            raise SketchError("retained part not strictly sorted")
        if self._plus_set != set(plus):
            raise SketchError("membership mirror out of sync")


def _check_compatible(a: BottomKSketch, b: BottomKSketch) -> None:
    if a.size != b.size:
        raise SketchError(f"sketch sizes differ: {a.size} vs {b.size}")
    if a.hasher is not None and b.hasher is not None and a.hasher is not b.hasher:
        raise SketchError("sketches built from different hashers")


def intersection_estimate(a: BottomKSketch, b: BottomKSketch) -> float:
    """Intersection cardinality from the conditioned common sample.

    Every hash value below the smaller retained threshold is fully visible
    in both sketches, so the common ones are counted exactly and scaled by
    the threshold. Lossless when both sketches are underfull. Much tighter
    than inclusion-exclusion over three cardinality estimates (the two
    sizes minus a bottom-k estimate of the union), whose error compounds.
    """
    _check_compatible(a, b)
    pa, pb = a._plus, b._plus
    if not pa or not pb:
        return 0.0
    common = a._plus_set & b._plus_set
    if not a.is_full and not b.is_full:
        return float(len(common))
    if a.is_full and b.is_full:
        tau = pa[-1] if pa[-1] < pb[-1] else pb[-1]
    elif a.is_full:
        tau = pa[-1]
    else:
        tau = pb[-1]
    x = 0
    for v in common:
        if v < tau:
            x += 1
    return x / tau


class SketchStore:
    """One full bottom-k sketch per hub, a vertex whose degree exceeds the
    sketch size ``size``, tracking its immediate neighbourhood.

    ``adjacency`` is the graph's vertex -> neighbour map, read after each
    edge event: an insertion that takes a vertex to degree size + 1 builds
    its sketch from it, a deletion refills a hub's sketch from it, and one
    that takes a vertex back to degree size drops its sketch. A hub's
    neighbours were all hashed when its sketch was built or their edges
    arrived, so the hasher's cache holds their values."""

    __slots__ = ("size", "hasher", "_adj", "_sketches")

    def __init__(self, size: int, hasher: VertexHasher, adjacency) -> None:
        self.size = size
        self.hasher = hasher
        self._adj = adjacency
        self._sketches: dict[int, BottomKSketch] = {}

    def sketch(self, vertex: int) -> BottomKSketch:
        """The sketch of a hub; a vertex of degree <= size has none."""
        sk = self._sketches.get(vertex)
        if sk is None:
            raise SketchError(
                f"vertex {vertex} keeps no sketch at degree {len(self._adj.get(vertex, ()))}"
            )
        return sk

    def on_edge_added(self, u: int, v: int) -> None:
        """Add (u, v) to its endpoints' sketches; the adjacency holds it."""
        adj = self._adj
        size = self.size
        value = self.hasher.value
        for a, b in ((u, v), (v, u)):
            degree = len(adj[a])
            if degree > size + 1:
                self._sketches[a].insert(value(b))
            elif degree == size + 1:
                sk = self._sketches[a] = BottomKSketch(size, self.hasher)
                for w in adj[a]:
                    sk.insert(value(w))

    def on_edge_deleted(self, u: int, v: int) -> None:
        """Drop (u, v) from its endpoints' sketches; the adjacency no longer
        holds it."""
        cached = self.hasher._cache.__getitem__
        adj = self._adj
        size = self.size
        for a, b in ((u, v), (v, u)):
            degree = len(adj[a])
            if degree > size:
                self._sketches[a].delete(cached(b), map(cached, adj[a]))
            elif degree == size:
                del self._sketches[a]

    def verify(self) -> None:
        """Debug gate: a vertex keeps a sketch exactly when its degree
        exceeds ``size``, and every sketch passes ``check`` and retains
        exactly the ``size`` smallest hashes of its vertex's
        neighbourhood."""
        cache = self.hasher._cache
        sketches = self._sketches
        size = self.size
        hubs = 0
        for u, nbrs in self._adj.items():
            sk = sketches.get(u)
            if len(nbrs) <= size:
                if sk is not None:
                    raise SketchError(
                        f"vertex {u} keeps a sketch at degree {len(nbrs)} <= {size}"
                    )
                continue
            hubs += 1
            if sk is None:
                raise SketchError(f"hub {u} at degree {len(nbrs)} keeps no sketch")
            sk.check()
            if any(w not in cache for w in nbrs):
                raise SketchError(f"a neighbour of hub {u} was never hashed")
            if sk._plus != sorted(cache[w] for w in nbrs)[:size]:
                raise SketchError(
                    f"sketch of vertex {u} does not hold its neighbourhood's minima"
                )
        if hubs != len(sketches):
            raise SketchError(f"{len(sketches)} sketches kept for {hubs} hubs")
