"""Fixed-capacity uniform subgraph sample and the skip-counter generators.

The reservoir keeps a uniform sample of the connected k-subgraph population
under insertions (classic reservoir step) and deletions (pairing each later
insertion against an uncompensated deletion, tracked by the c1/c2 split).
A vertex index gives constant-expected-time access to the sample members an
edge event can touch, and per-pattern counts kept beside the slots make a
frequency report cost O(pattern classes), not O(sample size).
"""

from __future__ import annotations

import random
from math import lgamma, log

from .graph import SubgraphInstance
from .pattern import PatternKey, canonical_key


class SampleInvariantError(RuntimeError):
    """The sample state contradicts its own bookkeeping (upstream bug)."""


def _identity(inst_or_vertices) -> tuple[int, ...]:
    if isinstance(inst_or_vertices, SubgraphInstance):
        return inst_or_vertices.vertices
    return tuple(sorted(inst_or_vertices))


class SubgraphReservoir:
    """Uniform fixed-capacity sample of subgraph instances.

    State:
      * ``slots``: the sample, order-insignificant and kept compact;
      * ``keys``: the pattern key of each slot, aligned with ``slots``;
      * ``counts``: sampled members per pattern key (no zero entries);
      * ``n_population``: current number of live subgraphs in the graph;
      * ``c1``/``c2``: uncompensated deletions that did / did not hit the
        sample (their sum is the pairing debt);
      * a vertex index mapping vertex id -> identities of sample members
        containing it.

    Placements take the member's pattern key from the caller, who usually
    has it at hand; without one it is computed with ``canonical_key``.
    """

    __slots__ = (
        "capacity", "slots", "keys", "counts", "n_population", "c1", "c2", "_pos", "index"
    )

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.slots: list[SubgraphInstance] = []
        self.keys: list[PatternKey] = []
        self.counts: dict[PatternKey, int] = {}
        self.n_population = 0
        self.c1 = 0
        self.c2 = 0
        self._pos: dict[tuple[int, ...], int] = {}
        self.index: dict[int, set[tuple[int, ...]]] = {}

    @property
    def occupancy(self) -> int:
        return len(self.slots)

    def __contains__(self, inst_or_vertices) -> bool:
        return _identity(inst_or_vertices) in self._pos

    def members_containing_pair(self, u: int, v: int) -> list[SubgraphInstance]:
        """Sample members whose vertex set contains both u and v, in
        ascending order of their (sorted) vertex tuples."""
        index = self.index
        bu = index.get(u)
        if not bu:
            return []
        bv = index.get(v)
        if not bv:
            return []
        slots = self.slots
        pos = self._pos
        return [slots[pos[vset]] for vset in sorted(bu & bv)]

    def _add(self, inst: SubgraphInstance, key: PatternKey | None) -> None:
        vset = inst.vertices
        pos = self._pos
        if vset in pos:
            raise SampleInvariantError(f"subgraph {vset} already sampled")
        if key is None:
            key = canonical_key(inst)
        pos[vset] = len(self.slots)
        self.slots.append(inst)
        self.keys.append(key)
        counts = self.counts
        counts[key] = counts.get(key, 0) + 1
        index = self.index
        for v in vset:
            bucket = index.get(v)
            if bucket is None:
                index[v] = {vset}
            else:
                bucket.add(vset)

    def _remove_at(self, idx: int) -> SubgraphInstance:
        slots = self.slots
        keys = self.keys
        inst = slots[idx]
        vset = inst.vertices
        del self._pos[vset]
        index = self.index
        for v in vset:
            bucket = index[v]
            bucket.remove(vset)
            if not bucket:
                del index[v]
        self._uncount(keys[idx])
        last = slots.pop()
        last_key = keys.pop()
        if idx < len(slots):
            slots[idx] = last
            keys[idx] = last_key
            self._pos[last.vertices] = idx
        return inst

    def _uncount(self, key: PatternKey) -> None:
        counts = self.counts
        c = counts[key] - 1
        if c:
            counts[key] = c
        else:
            del counts[key]

    def insert(self, inst: SubgraphInstance, rng: random.Random) -> bool:
        """Classic reservoir step for one new subgraph.

        The caller must already have counted the arrival in n_population.
        Below capacity the arrival is always admitted; at capacity it
        replaces a uniformly random slot with probability capacity/N.
        """
        if self.n_population < 1:
            raise SampleInvariantError("insert before the arrival was counted")
        if len(self.slots) < self.capacity:
            self._add(inst, None)
            return True
        if rng.random() < self.capacity / self.n_population:
            self._remove_at(rng.randrange(self.capacity))
            self._add(inst, None)
            return True
        return False

    def rp_insert(self, inst: SubgraphInstance, rng: random.Random) -> bool:
        """Pairing-aware insertion: compensates an outstanding deletion if
        any, otherwise falls back to the classic reservoir step."""
        debt = self.c1 + self.c2
        if debt == 0:
            return self.insert(inst, rng)
        if rng.random() < self.c1 / debt:
            if len(self.slots) >= self.capacity:
                raise SampleInvariantError("c1 > 0 with a full sample")
            self.c1 -= 1
            self._add(inst, None)
            return True
        self.c2 -= 1
        return False

    def notify_deleted(self, inst_or_vertices) -> bool:
        """Record that a live subgraph was destroyed by the current event.

        Removes it from the sample when present (c1 grows), otherwise c2
        grows; the population count drops either way. Returns True when the
        subgraph was sampled.
        """
        vset = _identity(inst_or_vertices)
        self.n_population -= 1
        idx = self._pos.get(vset)
        if idx is not None:
            self._remove_at(idx)
            self.c1 += 1
            return True
        self.c2 += 1
        return False

    def remove_destroyed(self, identity) -> None:
        """Drop a destroyed sampled subgraph, growing c1.

        Population accounting is the caller's; used when deletion deltas
        are applied in bulk rather than per subgraph.
        """
        vset = _identity(identity)
        idx = self._pos.get(vset)
        if idx is None:
            raise SampleInvariantError(f"subgraph {vset} is not in the sample")
        self._remove_at(idx)
        self.c1 += 1

    def replace_modified(
        self, old_identity, new_inst: SubgraphInstance, key: PatternKey | None = None
    ) -> None:
        """Swap a sampled instance for its modified version, in place.

        Same vertex set, different induced edges; the pattern counts follow
        the new key, the population counters and the index do not change.
        """
        vset = _identity(old_identity)
        if new_inst.vertices != vset:
            raise SampleInvariantError(
                f"replacement must keep the vertex set: {vset} vs {new_inst.vertices}"
            )
        idx = self._pos.get(vset)
        if idx is None:
            raise SampleInvariantError(f"subgraph {vset} is not in the sample")
        if key is None:
            key = canonical_key(new_inst)
        self._uncount(self.keys[idx])
        counts = self.counts
        counts[key] = counts.get(key, 0) + 1
        self.slots[idx] = new_inst
        self.keys[idx] = key

    # Lower-level placements used by the skip-optimized engines, where the
    # admission decision has already been taken by a skip counter.

    def fill_free_slot(self, inst: SubgraphInstance, key: PatternKey | None = None) -> None:
        if len(self.slots) >= self.capacity:
            raise SampleInvariantError("no free slot to fill")
        self._add(inst, key)

    def replace_random_slot(
        self, inst: SubgraphInstance, rng: random.Random, key: PatternKey | None = None
    ) -> None:
        if len(self.slots) != self.capacity:
            raise SampleInvariantError("random replacement needs a full sample")
        self._remove_at(rng.randrange(self.capacity))
        self._add(inst, key)

    def dump_lines(self) -> list[str]:
        """Debug dump, one stable line per slot."""
        out = []
        for slot_id, (inst, key) in enumerate(zip(self.slots, self.keys)):
            ids = ",".join(str(v) for v in inst.vertices)
            out.append(f"{slot_id}\t{ids}\t{key.text()}")
        return out

    def verify(self) -> None:
        """Check the index and position maps, the per-slot pattern keys and
        the per-pattern counts against the slots; raises."""
        if len(self.slots) > self.capacity:
            raise SampleInvariantError("occupancy exceeds capacity")
        if self.c1 < 0 or self.c2 < 0 or self.n_population < 0:
            raise SampleInvariantError("negative counter")
        if len(self.slots) > self.n_population:
            raise SampleInvariantError("occupancy exceeds population")
        if len(self._pos) != len(self.slots) or len(self.keys) != len(self.slots):
            raise SampleInvariantError("position map or key list out of sync")
        fresh: dict[int, set[tuple[int, ...]]] = {}
        counts: dict[PatternKey, int] = {}
        for idx, inst in enumerate(self.slots):
            if self._pos.get(inst.vertices) != idx:
                raise SampleInvariantError(f"bad position for {inst.vertices}")
            for v in inst.vertices:
                fresh.setdefault(v, set()).add(inst.vertices)
            key = canonical_key(inst)
            if self.keys[idx] != key:
                raise SampleInvariantError(f"stale pattern key for {inst.vertices}")
            counts[key] = counts.get(key, 0) + 1
        if fresh != self.index:
            raise SampleInvariantError("vertex index out of sync with slots")
        if counts != self.counts:
            raise SampleInvariantError("pattern counts out of sync with slots")


# --- skip counters -------------------------------------------------------
#
# Both generators draw, in one shot, the number of upcoming arrivals that
# are provably rejected before the next admission, replacing per-arrival
# coin flips. The distributions are inverted exactly: short skips walk the
# survival product term by term, long skips binary-search the closed-form
# tail written with lgamma.

_SEQ_LIMIT = 64


def _log_tail_rs(n: int, m: int, z: int) -> float:
    # ln Pr[skip >= z] for the reservoir chain starting at population n
    return (
        lgamma(n - m + z + 1)
        - lgamma(n - m + 1)
        - lgamma(n + z + 1)
        + lgamma(n + 1)
    )


def skip_rs(n: int, m: int, rng: random.Random) -> int:
    """Arrivals to reject before the next reservoir admission.

    ``n`` is the population count as of the last admission; each arrival
    bumps it by one, so the z-th upcoming arrival survives rejection with
    probability 1 - m/(n+z). Returns 0 while the sample is still filling
    (n < m).
    """
    if m < 1:
        raise ValueError(f"capacity must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"population must be >= 0, got {n}")
    if n < m:
        return 0
    v = 1.0 - rng.random()  # uniform on (0, 1]
    tail = 1.0
    z = 0
    while z < _SEQ_LIMIT:
        tail *= (n - m + z + 1) / (n + z + 1)  # Pr[skip >= z+1]
        if tail <= v:
            return z
        z += 1
    # tail(z+1) > v for all z < _SEQ_LIMIT; bracket then bisect on z.
    logv = log(v)
    lo = _SEQ_LIMIT  # answer is >= lo
    hi = 2 * _SEQ_LIMIT
    while _log_tail_rs(n, m, hi + 1) > logv:
        lo = hi
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _log_tail_rs(n, m, mid + 1) <= logv:
            hi = mid
        else:
            lo = mid + 1
    return lo


def skip_rs_sequential(n: int, m: int, rng: random.Random) -> int:
    """Per-arrival coin-flip reference for skip_rs (correctness oracle)."""
    if m < 1:
        raise ValueError(f"capacity must be >= 1, got {m}")
    if n < m:
        return 0
    z = 0
    while True:
        if rng.random() < m / (n + z + 1):
            return z
        z += 1


def _log_tail_rp(c1: int, d: int, z: int) -> float:
    # ln Pr[skip >= z] for the pairing chain; support ends at d - c1
    if z > d - c1:
        return float("-inf")
    return (
        lgamma(d - c1 + 1)
        - lgamma(d - c1 - z + 1)
        - lgamma(d + 1)
        + lgamma(d - z + 1)
    )


def skip_rp(c1: int, d: int, rng: random.Random) -> int:
    """Arrivals the pairing step rejects before its next admission.

    ``c1`` of the ``d`` outstanding deletions hit the sample; each arrival
    resolves one outstanding deletion, so the admission must come within
    d - c1 rejections.
    """
    if c1 < 1 or c1 > d:
        raise ValueError(f"need 1 <= c1 <= d, got c1={c1}, d={d}")
    bound = d - c1
    if bound == 0:
        return 0
    v = 1.0 - rng.random()
    tail = 1.0
    z = 0
    while z < min(_SEQ_LIMIT, bound):
        tail *= (d - z - c1) / (d - z)  # Pr[skip >= z+1]
        if tail <= v:
            return z
        z += 1
    if z >= bound:
        return bound
    logv = log(v)
    lo = _SEQ_LIMIT
    hi = min(2 * _SEQ_LIMIT, bound)
    while _log_tail_rp(c1, d, hi + 1) > logv:
        lo = hi
        hi = min(2 * hi, bound)
    while lo < hi:
        mid = (lo + hi) // 2
        if _log_tail_rp(c1, d, mid + 1) <= logv:
            hi = mid
        else:
            lo = mid + 1
    return lo


def skip_rp_sequential(c1: int, d: int, rng: random.Random) -> int:
    """Per-arrival coin-flip reference for skip_rp (correctness oracle)."""
    if c1 < 1 or c1 > d:
        raise ValueError(f"need 1 <= c1 <= d, got c1={c1}, d={d}")
    z = 0
    while True:
        if rng.random() < c1 / (d - z):
            return z
        z += 1
