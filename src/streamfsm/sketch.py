"""Per-vertex bottom-k neighborhood sketches with deletion support."""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort


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

    The retained minima live in a sorted list (``size`` is small, so insort
    is effectively free); everything larger overflows into one set, whose
    minimum a deletion from the retained part promotes. Every overflow value
    exceeds the retained maximum, so the promoted value is appended; finding
    it costs O(overflow), and a deletion hits the retained part with
    probability about size/len.
    """

    __slots__ = ("size", "hasher", "_plus", "_plus_set", "_overflow")

    def __init__(self, size: int, hasher: VertexHasher | None = None) -> None:
        if size < 2:
            raise SketchError(f"sketch size must be >= 2, got {size}")
        self.size = size
        self.hasher = hasher
        self._plus: list[float] = []
        self._plus_set: set[float] = set()  # mirrors _plus for O(1) membership
        self._overflow: set[float] = set()

    def __len__(self) -> int:
        return len(self._plus) + len(self._overflow)

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
            demoted = plus.pop()
            self._plus_set.remove(demoted)
            insort(plus, value)
            self._plus_set.add(value)
            self._overflow.add(demoted)
        else:
            self._overflow.add(value)

    def delete(self, value: float) -> None:
        """Remove one hash value, promoting from the overflow if needed."""
        plus = self._plus
        idx = bisect_left(plus, value)
        if idx < len(plus) and plus[idx] == value:
            plus.pop(idx)
            self._plus_set.remove(value)
            overflow = self._overflow
            if overflow:
                promoted = min(overflow)
                overflow.remove(promoted)
                plus.append(promoted)
                self._plus_set.add(promoted)
            return
        if value in self._overflow:
            self._overflow.remove(value)
            return
        raise SketchError(f"value {value!r} not present in sketch")

    def size_estimate(self) -> float:
        """Estimated cardinality of the summarized set.

        Underfull sketches hold the whole set, so the answer is exact there;
        a full sketch reports (size - 1) / threshold.
        """
        if len(self._plus) < self.size:
            return float(len(self._plus) + len(self._overflow))
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
        if self._overflow:
            if len(plus) < self.size:
                raise SketchError("overflow nonempty while sketch underfull")
            lo = min(self._overflow)
            if lo < plus[-1]:
                raise SketchError("overflow value below threshold")


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
    """One bottom-k sketch per vertex, tracking immediate neighborhoods."""

    __slots__ = ("size", "hasher", "_sketches")

    def __init__(self, size: int, hasher: VertexHasher) -> None:
        self.size = size
        self.hasher = hasher
        self._sketches: dict[int, BottomKSketch] = {}

    def sketch(self, vertex: int) -> BottomKSketch:
        sk = self._sketches.get(vertex)
        if sk is None:
            sk = BottomKSketch(self.size, self.hasher)
            self._sketches[vertex] = sk
        return sk

    def on_edge_added(self, u: int, v: int) -> None:
        value = self.hasher.value
        self.sketch(u).insert(value(v))
        self.sketch(v).insert(value(u))

    def on_edge_deleted(self, u: int, v: int) -> None:
        value = self.hasher.value
        self.sketch(u).delete(value(v))
        self.sketch(v).delete(value(u))
