"""Fixed-capacity subgraph sample storage and the skip-counter generators.

The reservoir stores the sample and the counters that keep it uniform over
the connected k-subgraph population: N, and the c1/c2 split of the deletions
that later insertions must pair with. It places an event's admitted members
by one rule, a free slot while one is left, else the slot of a uniformly
random member, overwritten in place, and pays the pairing debt; the
admission decisions (the classic reservoir step and the pairing step, each
counting off skips drawn by a coin per arrival or in one draw) live in the
sampling engine. A one-shot skip costs O(1) expected time whatever N/M is: a
short walk of its survival product, then Vitter's Algorithm Z (reservoir) or
Method D (pairing) for the rest. Per-class counts kept beside the slots make
a frequency report cost O(pattern classes), not O(sample size). The sample
is held in columns of ints and shared records, so a full sample adds no work
to the garbage collector, and an event's members are placed and updated as
one batch of columns (``place``, ``update``): small-int work on the
columns, a code -> slot map and the class-id counts. ``member_codes`` and
``member_shapes`` are the one place where a member over an event's pair, a
third vertex at k=3 or a vertex set, becomes a code and a shape record;
the exact engine counts with the shapes alone. The records come from one
shape table for every k (``SHAPES``): a set's key is its vertex labels in
ascending-id order, then the label of each position pair (i, j), i < j, in
lexicographic order (None for an absent edge), and every member of one key
shares one record, so only a key the table has not seen is canonicalised.
Nothing is kept per vertex: the members an edge event touches are among the
event's candidate sets, read off the graph's adjacency, and the pair lookup
probes the code -> slot map with their codes.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from itertools import combinations
from math import exp, expm1, isqrt, lgamma, log

from .graph import VERTEX_ID_LIMIT, SubgraphInstance, is_connected
from .pattern import PatternKey, canonical_key


class SampleInvariantError(RuntimeError):
    """The sample state contradicts its own bookkeeping (upstream bug)."""


# A member's identity is its ascending vertex ids read as the digits of one
# int in radix CODE_RADIX: injective for ids below VERTEX_ID_LIMIT, ordered
# like the vertex tuples (members of one size), and, with the golden-ratio
# offset on the radix, spread apart by int hashing, which reduces modulo
# 2**61 - 1 (a radix of 2**64 alone reduces to 8, and distinct codes would
# share hashes). An int is never tracked by the garbage collector.
CODE_RADIX = VERTEX_ID_LIMIT + 0x9E3779B97F4A7C15
_RADIX2 = CODE_RADIX * CODE_RADIX


def vertex_code(vertices) -> int:
    """Identity code of the vertex set given by ascending ``vertices``."""
    code = 0
    for v in vertices:
        if not 0 <= v < VERTEX_ID_LIMIT:
            raise ValueError(f"vertex id {v} outside [0, 2**64)")
        code = code * CODE_RADIX + v
    return code


def decode_vertices(code: int, size: int) -> tuple[int, ...]:
    """The ascending vertex ids of the ``size``-set coded as ``code``."""
    if size == 3:
        rest, c = divmod(code, CODE_RADIX)
        a, b = divmod(rest, CODE_RADIX)
        return a, b, c
    out = []
    for _ in range(size):
        code, v = divmod(code, CODE_RADIX)
        out.append(v)
    out.reverse()
    return tuple(out)


# Pattern key <-> class id, one table per process, with each key's text.
# Ids are dense and never reused, so shape records and the reservoir's
# counts carry small ints.
_CLASS_IDS: dict[PatternKey, int] = {}
CLASS_KEYS: list[PatternKey] = []
CLASS_TEXTS: list[str] = []


def class_id(key: PatternKey) -> int:
    """The class id of ``key``, assigned on first sight."""
    cid = _CLASS_IDS.get(key)
    if cid is None:
        cid = _CLASS_IDS[key] = len(CLASS_KEYS)
        CLASS_KEYS.append(key)
        CLASS_TEXTS.append(key.text())
    return cid


def keyed_counts(counts: dict[int, int]) -> dict[PatternKey, int]:
    """``counts`` per class id as a new dict per pattern key, same order."""
    keys = CLASS_KEYS
    return {keys[cid]: c for cid, c in counts.items()}


class _ShapeTable(dict):
    """Shape key -> shared shape record, interned on first lookup.

    The key of a k-set is the vertex labels in ascending-id order, then the
    label of each position pair (i, j), i < j, in lexicographic order, None
    for an absent edge. Its record is ``(vertex_labels, edges, class id)``,
    ``edges`` the ``(i, j, label)`` triples of the present pairs; a
    disconnected shape's class id is None. Every set of one key shares its
    record, and the key fixes the size: k(k+1)/2 entries. A miss
    canonicalises once; a hit is one dict lookup.
    """

    def __missing__(self, key: tuple) -> tuple:
        k = (isqrt(8 * len(key) + 1) - 1) // 2
        labels = key[:k]
        edges = tuple((i, j, lab) for (i, j), lab in zip(combinations(range(k), 2), key[k:])
                      if lab is not None)
        inst = SubgraphInstance(tuple(range(k)), labels, edges)
        cid = class_id(canonical_key(inst)) if is_connected(inst) else None
        shared = self[key] = (labels, edges, cid)
        return shared


SHAPES = _ShapeTable()


def shape_key(adj: dict[int, dict], labels: dict[int, int], vs: tuple[int, ...]) -> tuple:
    """The ``SHAPES`` key of the ascending vertex set ``vs`` in the graph
    given by its adjacency and labels."""
    return (*[labels[a] for a in vs], *[adj[a].get(b) for a, b in combinations(vs, 2)])


def member_codes(u: int, v: int, k: int, members) -> list[int]:
    """The codes of an event's k-set ``members`` over the pair (u, v): at
    k=3 third vertices, else ascending vertex sets. A code is the
    ``vertex_code`` of the sorted ids."""
    if k != 3:
        return [vertex_code(vs) for vs in members]
    lo, hi = (u, v) if u < v else (v, u)
    # a third vertex w above, between or below the pair: see
    # members_containing_pair
    x = CODE_RADIX
    below = lo * x + hi
    between = lo * _RADIX2 + hi
    above = below * x
    # loops, not comprehensions: under Python 3.11 a comprehension reads
    # these locals as closure cells, about 10% slower
    codes = []
    for w in members:
        if w > hi:
            codes.append(above + w)
        elif w > lo:
            codes.append(between + w * x)
        else:
            codes.append(below + w * _RADIX2)
    return codes


def member_shapes(adj: dict[int, dict], labels: dict[int, int], u: int, v: int, k: int,
                  members) -> list[tuple]:
    """The ``SHAPES`` records of an event's k-set ``members`` over the pair
    (u, v), as the graph given by its adjacency and labels holds them,
    aligned with their ``member_codes``: the single builder of shapes on the
    event path. The key is laid out in ascending-id order."""
    if k != 3:
        return [SHAPES[shape_key(adj, labels, vs)] for vs in members]
    lo, hi = (u, v) if u < v else (v, u)
    n_lo = adj[lo]
    n_hi = adj[hi]
    l_lo = labels[lo]
    l_hi = labels[hi]
    le = n_lo.get(hi)
    table = SHAPES
    shapes = []  # a loop, as in member_codes
    for w in members:
        if w > hi:
            shapes.append(table[l_lo, l_hi, labels[w], le, n_lo.get(w), n_hi.get(w)])
        elif w > lo:
            shapes.append(table[l_lo, labels[w], l_hi, n_lo.get(w), le, n_hi.get(w)])
        else:
            shapes.append(table[labels[w], l_lo, l_hi, n_lo.get(w), n_hi.get(w), le])
    return shapes


def _member(code: int, shape: tuple) -> SubgraphInstance:
    labels = shape[0]
    return SubgraphInstance(decode_vertices(code, len(labels)), labels, shape[1])


class _SlotView(Sequence):
    """Read-only sequence of a reservoir's members, each built on access:
    the debug view that ``verify``, the engines' ``verify_invariants`` and
    the benchmark read. The engines' event path never builds it."""

    __slots__ = ("_res",)

    def __init__(self, reservoir: "SubgraphReservoir") -> None:
        self._res = reservoir

    def __len__(self) -> int:
        return len(self._res.codes)

    def __getitem__(self, idx: int) -> SubgraphInstance:
        res = self._res
        return _member(res.codes[idx], res.shapes[idx])

    def __iter__(self):
        return map(_member, self._res.codes, self._res.shapes)


class SubgraphReservoir:
    """Fixed-capacity sample of subgraph instances, stored as columns, with
    the population and pairing counters the engines' admission rules read.

    State:
      * ``codes``: each slot's identity, the ``vertex_code`` of its vertex
        set; slot order is insignificant and the slots stay compact;
      * ``shapes``: each slot's ``(vertex_labels, edges, class id)`` record,
        aligned with ``codes``: the ``SHAPES`` record of its key, shared by
        every member of the same shape at every k;
      * ``counts``: sampled members per class id (no zero entries), in the
        order the classes entered the sample; ``CLASS_KEYS`` maps an id
        back to its pattern key;
      * ``n_population``: current number of live subgraphs in the graph;
      * ``c1``/``c2``: uncompensated deletions that did / did not hit the
        sample (their sum is the pairing debt);
      * ``_pos``: code -> slot;
      * ``index``: the adjacency the size-3 pair lookup reads (vertex ->
        neighbour -> edge label), the engine graph's ``adj``; the reservoir
        never writes it.

    Nothing per member is an object the garbage collector tracks: codes are
    ints, and a shared shape record is one object however many members use
    it. ``slots`` builds ``SubgraphInstance`` members on access. All members
    of one reservoir have the same size (codes of different sizes collide).
    ``place`` and ``update`` take an event's members as aligned code and
    shape lists (``member_codes``, ``member_shapes``) and touch only the columns, the
    position map and the counts. An eviction overwrites its victim's slot;
    only a drop moves a member, the last one, into the hole.
    """

    __slots__ = ("capacity", "codes", "shapes", "counts", "n_population", "c1", "c2",
                 "_pos", "index")

    def __init__(self, capacity: int, adjacency: dict[int, dict]) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.codes: list[int] = []
        self.shapes: list[tuple] = []
        self.counts: dict[int, int] = {}
        self.n_population = 0
        self.c1 = 0
        self.c2 = 0
        self._pos: dict[int, int] = {}
        self.index = adjacency

    @property
    def slots(self) -> _SlotView:
        return _SlotView(self)

    def members_containing_pair(self, u: int, v: int) -> list[tuple[int, int]]:
        """Sampled size-3 members over u and v, as ``(code, third vertex)``
        pairs in ascending code order.

        Call it just after the edge (u, v) comes into or goes from
        ``index``, before the sample is updated: each member was connected
        before the event, so its third vertex, probed by code, is a common
        neighbour of u and v if the edge just came, else a neighbour of
        either.
        """
        pos = self._pos
        index = self.index
        nu = index.get(u)
        nv = index.get(v)
        if not pos or nu is None or nv is None:
            return []
        thirds = nu.keys() & nv.keys() if v in nu else nu.keys() | nv.keys()
        # codes read (a, b, c) with a < b < c: a third vertex w adds w to
        # (lo, hi, 0) above the pair, w * R to (lo, 0, hi) between, w * R**2
        # to (0, lo, hi) below
        x = CODE_RADIX
        lo, hi = (u, v) if u < v else (v, u)
        below = lo * x + hi
        between = lo * _RADIX2 + hi
        above = below * x
        out = []
        for w in thirds:
            if w > hi:
                code = above + w
            elif w > lo:
                code = between + w * x
            else:
                code = below + w * _RADIX2
            if code in pos:
                out.append((code, w))
        out.sort()
        return out

    def members_among(self, vertex_sets) -> list[tuple[int, tuple[int, ...]]]:
        """The sampled sets among ``vertex_sets`` (ascending ids each) as
        ``(code, vertex set)`` pairs in the given order: the pair lookup for
        sizes other than 3, given the pair's candidate sets."""
        pos = self._pos
        return [(code, vs) for vs in vertex_sets if (code := vertex_code(vs)) in pos]

    def _uncount(self, cid: int) -> None:
        counts = self.counts
        c = counts[cid] - 1
        if c:
            counts[cid] = c
        else:
            del counts[cid]

    def update(self, codes: list[int], shapes: list[tuple]) -> int:
        """Give the sampled members ``codes`` the ``shapes`` an event left
        them with, in place, and drop those it left disconnected (class id
        None), growing c1. Returns the number dropped.

        Population accounting is the caller's, which applies a deletion's
        delta in bulk.
        """
        pos = self._pos
        col_codes = self.codes
        col_shapes = self.shapes
        counts = self.counts
        dropped = 0
        for code, shape in zip(codes, shapes):
            idx = pos.get(code)
            if idx is None:
                raise SampleInvariantError(f"subgraph with code {code} is not in the sample")
            self._uncount(col_shapes[idx][2])
            cid = shape[2]
            if cid is None:
                # swap-remove: the last slot fills the hole
                del pos[code]
                last = col_codes.pop()
                last_shape = col_shapes.pop()
                if idx < len(col_codes):
                    col_codes[idx] = last
                    col_shapes[idx] = last_shape
                    pos[last] = idx
                dropped += 1
            else:
                counts[cid] = counts.get(cid, 0) + 1
                col_shapes[idx] = shape
        self.c1 += dropped
        return dropped

    # Placement of an event's admitted arrivals; the engine has taken the
    # admission decisions (by coins or skip counters).

    def place(self, codes: list[int], shapes: list[tuple], rng: random.Random) -> None:
        """Store an event's admitted members, aligned ``codes`` and
        ``shapes`` in the order drawn: the head that fits into the free
        slots, each member after it in place of a uniformly random member,
        one ``rng.randrange(capacity)`` per member in order. A pairing
        admission always finds a free slot (see ``pay_hit``). Raises on a
        code already sampled or given twice, an upstream bug after which
        the reservoir is not to be used."""
        pos = self._pos
        col_codes = self.codes
        col_shapes = self.shapes
        counts = self.counts
        n = len(col_codes)
        cap = self.capacity
        free = cap - n
        if free:
            head = codes[:free]
            head_shapes = shapes[:free]
            pos.update(zip(head, range(n, n + len(head))))
            col_codes.extend(head)
            col_shapes.extend(head_shapes)
            if len(pos) != len(col_codes):
                raise SampleInvariantError("an admitted subgraph is already sampled")
            for shape in head_shapes:
                cid = shape[2]
                counts[cid] = counts.get(cid, 0) + 1
            if len(codes) <= free:
                return
            codes = codes[free:]
            shapes = shapes[free:]
        randrange = rng.randrange
        uncount = self._uncount
        for code, shape in zip(codes, shapes):
            idx = randrange(cap)
            old = col_codes[idx]
            # the newcomer takes the victim's slot
            if code == old or pos.setdefault(code, idx) != idx:
                raise SampleInvariantError("an admitted subgraph is already sampled")
            del pos[old]
            col_codes[idx] = code
            uncount(col_shapes[idx][2])
            col_shapes[idx] = shape
            cid = shape[2]
            counts[cid] = counts.get(cid, 0) + 1

    def pay_hit(self) -> None:
        """Pay off one deletion that hit the sample, for a pairing admission.

        Each such deletion freed a slot, so occupancy plus c1 never exceeds
        the capacity, and the admissions paid for find free slots."""
        if len(self.codes) + self.c1 > self.capacity:
            raise SampleInvariantError("occupancy plus hit debt exceeds capacity")
        self.c1 -= 1

    def verify(self) -> None:
        """Check the position map, the per-slot class ids and the per-class
        counts against the slots; raises."""
        codes = self.codes
        if len(codes) > self.capacity:
            raise SampleInvariantError("occupancy exceeds capacity")
        if self.c1 < 0 or self.c2 < 0 or self.n_population < 0:
            raise SampleInvariantError("negative counter")
        if len(codes) + self.c1 > self.capacity:
            raise SampleInvariantError("occupancy plus hit debt exceeds capacity")
        if len(codes) > self.n_population:
            raise SampleInvariantError("occupancy exceeds population")
        if len(self._pos) != len(codes) or len(self.shapes) != len(codes):
            raise SampleInvariantError("position map or shape column out of sync")
        counts: dict[int, int] = {}
        sizes = set()
        for idx, (code, inst) in enumerate(zip(codes, self.slots)):
            vs = inst.vertices
            if self._pos.get(code) != idx:
                raise SampleInvariantError(f"bad position for {vs}")
            if vs[0] < 0 or vs[-1] >= VERTEX_ID_LIMIT or any(
                a >= b for a, b in zip(vs, vs[1:])
            ):
                raise SampleInvariantError(f"code {code} is not an ascending vertex set")
            sizes.add(len(vs))
            cid = self.shapes[idx][2]
            if cid is None or not 0 <= cid < len(CLASS_KEYS) or (
                CLASS_KEYS[cid] != canonical_key(inst)
            ):
                raise SampleInvariantError(f"stale class id for {vs}")
            counts[cid] = counts.get(cid, 0) + 1
        if len(sizes) > 1:
            raise SampleInvariantError(f"members of sizes {sorted(sizes)} in one sample")
        if counts != self.counts:
            raise SampleInvariantError("class counts out of sync with slots")


# --- skip counters -------------------------------------------------------
#
# Both generators draw, in one shot, the number of upcoming arrivals that
# are rejected before the next admission. ``skip_rs``/``skip_rp`` (osr) draw
# it exactly in O(1) expected time. They walk the survival product on one
# uniform for at most _SEQ_LIMIT arrivals; the rest of a longer skip has the
# same law at the state where the walk stopped and is drawn afresh, by
# rejection from a continuous envelope against the exact log-pmf (lgamma):
# Vitter's Algorithm Z (ACM TOMS 1985) for the reservoir, Method D (ACM
# TOMS 1987) for the pairing. Above a population of _Z_RATIO·m the reservoir
# skip is drawn by Z alone. The chance that the walk runs out times the
# expected rounds of Z or D after it is at most 1.
# ``skip_rs_sequential``/``skip_rp_sequential`` (sr) flip a coin per arrival
# instead, for the arrivals at hand only.

_SEQ_LIMIT = 64
_Z_RATIO = 22


def _skip_z(t: int, m: int, rng: random.Random) -> int:
    # Algorithm Z at population t >= m: X = t(U^(-1/m) - 1) has density
    # g(x) = m/(t+x) (t/(t+x))^m, and c g(x) >= f(floor x) for the pmf f
    # with c = (t+1)/(t-m+1), the expected number of rounds
    base = lgamma(t + 1) - lgamma(t - m + 1)
    while True:
        log_u = log(1.0 - rng.random())
        x = t * expm1(-log_u / m)  # no cancellation at large m
        s = int(x)
        # ln f(s) - ln(c g(x))
        log_ratio = (base + lgamma(t - m + 1 + s) - lgamma(t + 1 + s) - log_u
                     + log((t + x) * (t - m + 1) / ((t + s + 1) * (t + 1))))
        if rng.random() < exp(log_ratio):
            return s


def skip_rs(n: int, m: int, rng: random.Random) -> int:
    """Arrivals to reject before the next reservoir admission.

    ``n`` is the population count before the upcoming arrivals; each
    arrival bumps it by one, so the z-th upcoming arrival survives rejection
    with probability 1 - m/(n+z). Returns 0 while the sample is still
    filling (n < m).
    """
    if m < 1:
        raise ValueError(f"capacity must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"population must be >= 0, got {n}")
    if n < m:
        return 0
    if n > _Z_RATIO * m:
        return _skip_z(n, m, rng)
    v = 1.0 - rng.random()  # uniform on (0, 1]
    tail = 1.0
    z = 0
    while z < _SEQ_LIMIT:
        tail *= (n - m + z + 1) / (n + z + 1)  # Pr[skip >= z+1]
        if tail <= v:
            return z
        z += 1
    # the rest of the skip, at the population the walk reached
    return _SEQ_LIMIT + _skip_z(n + _SEQ_LIMIT, m, rng)


def skip_rs_sequential(n: int, m: int, rng: random.Random, limit: int) -> int | None:
    """``skip_rs`` drawn a coin per arrival, for the first ``limit``
    arrivals only: the ``sr`` engine's reservoir skip, and the reference
    ``skip_rs`` is tested against. Returns None when none of them is
    admitted; the skip then goes on as a fresh draw at population
    n + limit."""
    if m < 1:
        raise ValueError(f"capacity must be >= 1, got {m}")
    if n < m:
        return 0
    for z in range(limit):
        if rng.random() < m / (n + z + 1):
            return z
    return None


def _skip_d(n: int, N: int, rng: random.Random) -> int:
    # Method D: the skip before the next of n picks among N items, with
    # Pr[skip >= s] = C(N-s, n)/C(N, n). X = N(1 - U^(1/n)) has density
    # g(x) = n/N (1 - x/N)^(n-1) on [0, N), and c g(x) >= f(floor x) for the
    # pmf f with c = N/(N-n+1), the expected number of rounds
    base = lgamma(N - n + 1) - lgamma(N) + log((N - n + 1) / N)
    while True:
        log_u = log(1.0 - rng.random())
        s = int(-N * expm1(log_u / n))
        if s > N - n:
            continue
        # ln f(s) - ln(c g(x))
        log_ratio = base + lgamma(N - s) - lgamma(N - s - n + 1) - (n - 1) / n * log_u
        if rng.random() < exp(log_ratio):
            return s


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
    walk = min(_SEQ_LIMIT, bound)
    v = 1.0 - rng.random()
    tail = 1.0
    z = 0
    while z < walk:
        tail *= (d - z - c1) / (d - z)  # Pr[skip >= z+1]
        if tail <= v:
            return z
        z += 1
    if z >= bound:
        return bound
    # the rest of the skip, with _SEQ_LIMIT fewer outstanding deletions
    return _SEQ_LIMIT + _skip_d(c1, d - _SEQ_LIMIT, rng)


def skip_rp_sequential(c1: int, d: int, rng: random.Random, limit: int) -> int | None:
    """``skip_rp`` drawn a coin per arrival, for the first ``limit``
    arrivals only: the ``sr`` engine's pairing skip, and the reference
    ``skip_rp`` is tested against. Returns None when none of them is
    admitted (never for a ``limit`` above d - c1)."""
    if c1 < 1 or c1 > d:
        raise ValueError(f"need 1 <= c1 <= d, got c1={c1}, d={d}")
    for z in range(limit):
        if rng.random() < c1 / (d - z):
            return z
    return None
