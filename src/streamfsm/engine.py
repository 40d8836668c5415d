"""Streaming engines behind one interface, exact counting and reservoir
sampling, over incremental or fully-dynamic labeled edge streams.

All engines keep the evolving graph plus N, the number of currently
connected k-subgraphs, and take the k-sets an edge touches from one split,
``exploration.pair_members``: those over its pair that stay connected
without the edge (kept) and those that only the edge connects (new), whose
size is the event delta. The exact engine counts those subgraphs per
pattern class: when an edge comes or goes, the sets over its pair that
were connected before leave their classes and those connected after join
theirs. The sampling engine keeps a uniform fixed-capacity sample of them:
the sampled members over the edge are updated in place, the new k-sets
go through one admission step (reservoir sampling with random pairing)
as its pool, and a deletion's destroyed subgraphs become pairing debt.
Its two modes differ only in how the admission step draws a skip: a coin
per arrival (``sr``) or in one draw (``osr``). ``osr`` with sketch-W
counts the size-3 delta from exact degrees and probes the common
neighbours exactly unless both endpoints are hubs, above the sketch size,
whose sketches then estimate them; its N drifts only through those
hub-hub events. Frequency estimates and frequent reports are read off
per-class counts, of the sample or exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import ceil, log
from typing import NamedTuple

from .exploration import pair_members, sketch_delta
from .graph import DynamicLabeledGraph, is_connected
from .pattern import MAX_CANONICAL_SIZE, PatternKey, canonical_key, count_patterns
from .rng import substream, substream_seed
from .sampling import (
    CLASS_KEYS,
    CLASS_TEXTS,
    SampleInvariantError,
    SubgraphReservoir,
    keyed_counts,
    member_codes,
    member_shapes,
    skip_rp,
    skip_rp_sequential,
    skip_rs,
    skip_rs_sequential,
)
from .sketch import SketchStore, VertexHasher
from .stream import StreamEvent

logger = logging.getLogger(__name__)


class EngineError(ValueError):
    """Configuration or stream-semantics violation."""


def recommended_sample_size(pattern_classes: int, epsilon: float, delta: float) -> int:
    """Sample capacity guaranteeing the simultaneous epsilon/2 estimation
    accuracy with probability 1 - delta: ceil(ln(T/delta) * (4+eps)/eps^2),
    floored at 1. Natural logarithm."""
    if pattern_classes < 1:
        raise ValueError(f"need at least one pattern class, got {pattern_classes}")
    if not (0.0 < epsilon < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    bound = log(pattern_classes / delta) * (4.0 + epsilon) / (epsilon * epsilon)
    return max(1, ceil(bound))


@dataclass
class EngineConfig:
    k: int = 3
    tau: float = 0.1
    epsilon: float = 0.01
    delta: float = 0.1
    mode: str = "sr"  # exact | sr | osr
    dynamic: bool = False
    sample_size: int | None = None
    sketch_size: int = 64
    w_mode: str = "exact"  # exact | sketch (osr only)
    seed: int = 0
    num_vertex_labels: int | None = None
    num_edge_labels: int | None = None
    missing_delete: str = "error"  # error | skip

    def __post_init__(self) -> None:
        if not 2 <= self.k <= MAX_CANONICAL_SIZE:
            # a larger set has no canonical form to be counted under
            raise EngineError(f"subgraph size must lie in [2, {MAX_CANONICAL_SIZE}], got {self.k}")
        if not (0.0 < self.tau <= 1.0):
            raise EngineError(f"tau must lie in (0, 1], got {self.tau}")
        if not (0.0 < self.epsilon < 1.0) or not (0.0 < self.delta < 1.0):
            raise EngineError("epsilon and delta must lie in (0, 1)")
        if self.mode not in ("exact", "sr", "osr"):
            raise EngineError(f"unknown mode {self.mode!r}")
        if self.w_mode not in ("exact", "sketch"):
            raise EngineError(f"unknown w_mode {self.w_mode!r}")
        if self.sketch_size < 2:
            raise EngineError(f"sketch size must be >= 2, got {self.sketch_size}")
        if self.w_mode == "sketch" and (self.mode != "osr" or self.k != 3):
            # only osr keeps sketches, and their estimate of the event delta
            # exists for size 3 only
            raise EngineError(
                f"w_mode='sketch' needs mode='osr' and k=3, got mode={self.mode!r}, k={self.k}"
            )
        if self.missing_delete not in ("error", "skip"):
            raise EngineError(f"unknown missing_delete policy {self.missing_delete!r}")
        if self.sample_size is not None and self.sample_size < 1:
            raise EngineError(f"sample size must be >= 1, got {self.sample_size}")
        if self.tau <= self.epsilon:
            logger.warning(
                "tau=%g is not larger than epsilon=%g; reported sets may be noisy",
                self.tau,
                self.epsilon,
            )

    def resolve_sample_size(self) -> int:
        if self.sample_size is not None:
            return self.sample_size
        if self.num_vertex_labels is None or self.num_edge_labels is None:
            raise EngineError(
                "sample size underdetermined: set sample_size or both label universe sizes"
            )
        t_k = count_patterns(self.k, self.num_vertex_labels, self.num_edge_labels)
        return recommended_sample_size(t_k, self.epsilon, self.delta)


class EventStats(NamedTuple):
    created: int
    destroyed: int
    modified: int
    admitted: int


@dataclass
class FrequencyEstimate:
    """Per-pattern counts and shares plus the sample-state snapshot."""

    counts: dict[PatternKey, int]
    shares: dict[PatternKey, float]
    population: int
    occupancy: int
    c1: int
    c2: int
    event_index: int


@dataclass
class FrequentReport:
    threshold: float
    entries: list[tuple[PatternKey, float]]
    event_index: int


class MetricsResult(NamedTuple):
    relative_error: float
    precision: float
    recall: float
    relevant_classes: int


def metrics(
    estimate: FrequencyEstimate,
    truth: FrequencyEstimate,
    tau: float,
    epsilon: float = 0.0,
) -> MetricsResult:
    """Estimation quality against an exact-count baseline.

    Relative error averages over classes with positive true share; the
    reported set uses the tau - epsilon/2 threshold; precision (recall)
    falls back to 1 when nothing is reported (nothing is truly frequent).
    """
    positives = {key: p for key, p in truth.shares.items() if p > 0.0}
    if positives:
        rel = sum(
            abs(estimate.shares.get(key, 0.0) - p) / p for key, p in positives.items()
        ) / len(positives)
    else:
        rel = 0.0
    true_frequent = {key for key, p in truth.shares.items() if p >= tau}
    threshold = tau - epsilon / 2.0
    reported = {key for key, p in estimate.shares.items() if p >= threshold}
    hits = len(reported & true_frequent)
    precision = hits / len(reported) if reported else 1.0
    recall = hits / len(true_frequent) if true_frequent else 1.0
    return MetricsResult(rel, precision, recall, len(positives))


def snapshot_lines(estimate: FrequencyEstimate, report: FrequentReport) -> list[str]:
    """Line-oriented snapshot: a state header, then one row per reported
    pattern in report order."""
    lines = [
        f"# event={estimate.event_index} N={estimate.population} "
        f"occ={estimate.occupancy} c1={estimate.c1} c2={estimate.c2}"
    ]
    for key, share in report.entries:
        lines.append(f"{key.text()}\t{share:.10g}")
    return lines


class _EngineBase:
    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.mode = config.mode
        self.k = config.k
        self.graph = DynamicLabeledGraph()
        self.events_seen = 0

    # -- event dispatch ----------------------------------------------------

    def process_event(self, ev: StreamEvent) -> EventStats:
        if ev.u == ev.v:
            # rejected before any state changes: no engine can apply it
            raise EngineError(f"self-loop event at vertex {ev.u}")
        if ev.op == "+":
            if ev.label_u is None or ev.label_v is None or ev.label_e is None:
                raise EngineError(f"insertion event without labels: {ev}")
            self.graph.ensure_endpoints(ev.u, ev.label_u, ev.v, ev.label_v)
            if self.graph.has_edge(ev.u, ev.v):
                logger.warning("duplicate insertion of edge (%d, %d) ignored", ev.u, ev.v)
                stats = EventStats(0, 0, 0, 0)
            else:
                stats = self._apply_add(ev)
        elif ev.op == "-":
            if not self.config.dynamic:
                raise EngineError("deletion event on an incremental-mode engine")
            if not self.graph.has_edge(ev.u, ev.v):
                if self.config.missing_delete == "skip":
                    logger.warning("deletion of absent edge (%d, %d) skipped", ev.u, ev.v)
                    stats = EventStats(0, 0, 0, 0)
                else:
                    raise EngineError(f"deletion of absent edge ({ev.u}, {ev.v})")
            else:
                stats = self._apply_delete(ev)
        else:
            raise EngineError(f"unknown stream operation {ev.op!r}")
        self.events_seen += 1
        return stats

    def _apply_add(self, ev: StreamEvent) -> EventStats:
        raise NotImplementedError

    def _apply_delete(self, ev: StreamEvent) -> EventStats:
        raise NotImplementedError

    # -- reporting -----------------------------------------------------------

    def _state(self) -> tuple[dict[int, int], int, int, int, int]:
        """Counts per class id, population, occupancy (the denominator of
        the shares), c1 and c2."""
        raise NotImplementedError

    def estimate_frequencies(self) -> FrequencyEstimate:
        class_counts, population, occ, c1, c2 = self._state()
        counts = keyed_counts(class_counts)
        shares = {key: c / occ for key, c in counts.items()} if occ else {}
        return FrequencyEstimate(counts, shares, population, occ, c1, c2, self.events_seen)

    def report_frequent(self) -> FrequentReport:
        # straight off the per-class counts, sorted on the cached key texts
        counts, _, occ, _, _ = self._state()
        threshold = self.config.tau - self.config.epsilon / 2.0
        rows = [(c / occ, cid) for cid, c in counts.items() if c / occ >= threshold]
        texts = CLASS_TEXTS
        rows.sort(key=lambda row: (-row[0], texts[row[1]]))
        keys = CLASS_KEYS
        return FrequentReport(threshold, [(keys[cid], p) for p, cid in rows], self.events_seen)


class ExactCountEngine(_EngineBase):
    """Maintains exact per-pattern counts incrementally: an event counts
    the k-sets over its pair that are connected before it out of their
    classes and those connected after it back in. A kept set leaves one
    class and joins another; a new set only joins on an insertion and only
    leaves on a deletion."""

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        # connected k-sets per class id (no zero entries), in the order the
        # classes appeared
        self.class_counts: dict[int, int] = {}
        self.population = 0

    @property
    def counts(self) -> dict[PatternKey, int]:
        """The exact counts per pattern key, as a new dict."""
        return keyed_counts(self.class_counts)

    def _state(self):
        return self.class_counts, self.population, self.population, 0, 0

    def _apply_add(self, ev: StreamEvent) -> EventStats:
        u, v = ev.u, ev.v
        kept, new = pair_members(self.graph, u, v, self.k)
        self._count(u, v, kept, -1)
        self.graph.add_edge(u, ev.label_u, v, ev.label_v, ev.label_e)
        self._count(u, v, kept, 1)
        self._count(u, v, new, 1)
        self.population += len(new)
        return EventStats(len(new), 0, len(kept), 0)

    def _apply_delete(self, ev: StreamEvent) -> EventStats:
        u, v = ev.u, ev.v
        kept, new = pair_members(self.graph, u, v, self.k)
        self._count(u, v, kept, -1)
        self._count(u, v, new, -1)
        self.graph.delete_edge(u, v)
        self._count(u, v, kept, 1)
        self.population -= len(new)
        return EventStats(0, len(new), len(kept), 0)

    def _count(self, u: int, v: int, members, sign: int) -> None:
        """Count the k-sets ``members`` over (u, v), each connected in the
        graph as it is now, into (``sign`` +1) or out of (-1) their
        classes."""
        g = self.graph
        counts = self.class_counts
        for shape in member_shapes(g.adj, g.labels, u, v, self.k, members):
            cid = shape[2]
            c = counts.get(cid, 0) + sign
            if c:
                counts[cid] = c
            else:
                del counts[cid]

    def verify_counts(self) -> None:
        """From-scratch recount of the current graph; raises on divergence."""
        fresh: dict[PatternKey, int] = {}
        total = 0
        for vset in self.graph.connected_k_sets(self.k):
            key = canonical_key(self.graph.induced_subgraph(vset))
            fresh[key] = fresh.get(key, 0) + 1
            total += 1
        if fresh != self.counts or total != self.population:
            raise EngineError(
                f"incremental counts diverged from recount at event {self.events_seen}"
            )


class SamplingEngine(_EngineBase):
    """Reservoir sampling with random pairing over the connected k-sets.

    An insertion updates the sampled members over the pair in place and
    runs the k-sets it newly connected through the admission step; a
    deletion updates or drops the sampled members over the pair and books
    the destroyed rest as pairing debt. ``sr`` and ``osr`` share all of it
    and differ only in how a skip, the number of arrivals rejected before
    the next admission, is drawn: a coin per arrival (``sr``) or in one
    draw (``osr``). ``osr`` may also count the size-3 delta from exact
    degrees and estimate only the common neighbours of two hubs, vertices
    above the sketch size, from their neighbourhood sketches (sketch-W)."""

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        self.sample_size = config.resolve_sample_size()
        self.reservoir = SubgraphReservoir(self.sample_size, self.graph.adj)
        self.rng = substream(config.seed, "sample")
        self.sketches: SketchStore | None = None  # sketch-W only
        if config.w_mode == "sketch":
            hasher = VertexHasher(substream_seed(config.seed, "hash"))
            self.sketches = SketchStore(config.sketch_size, hasher, self.graph.adj)
        # a skip draw takes the arrivals at hand as a limit: sr flips coins
        # for those only and returns None when none is admitted, osr draws
        # the whole skip. osr's are looked up in the module at each draw, so
        # that wrappers installed on the module names see them.
        if self.mode == "osr":
            self._skip_rs = lambda n, m, rng, limit: skip_rs(n, m, rng)
            self._skip_rp = lambda c1, d, rng, limit: skip_rp(c1, d, rng)
        else:
            self._skip_rs, self._skip_rp = skip_rs_sequential, skip_rp_sequential
        # arrivals to reject before the next reservoir admission, carried
        # across events; None until the first arrival after an admission,
        # and after a draw that admitted none of the arrivals at hand
        self.rs_pending: int | None = None

    @property
    def population(self) -> int:
        return self.reservoir.n_population

    def _state(self):
        res = self.reservoir
        return res.counts, res.n_population, len(res.codes), res.c1, res.c2

    def verify_invariants(self) -> None:
        """Debug gate: reservoir bookkeeping, member soundness and, in
        sketch-W, each sketch against its vertex's neighbourhood."""
        self.reservoir.verify()
        if self.sketches is not None:
            self.sketches.verify()
        for inst in self.reservoir.slots:
            if self.graph.induced_subgraph(inst.vertices) != inst:
                raise SampleInvariantError(
                    f"stale sample member {inst.vertices} at event {self.events_seen}"
                )
            if not is_connected(inst):
                raise SampleInvariantError(
                    f"disconnected sample member {inst.vertices}"
                )

    def _apply_add(self, ev: StreamEvent) -> EventStats:
        u, v, le = ev.u, ev.v, ev.label_e
        self.graph.add_edge(u, ev.label_u, v, ev.label_v, le)
        if self.sketches is not None:
            self.sketches.on_edge_added(u, v)
        pair, created = self._event_pair(u, v)
        modified = self._update_members(u, v, pair)[0]
        admitted = self._admit(u, v, created, pair)
        return EventStats(created, 0, modified, admitted)

    def _apply_delete(self, ev: StreamEvent) -> EventStats:
        res = self.reservoir
        u, v = ev.u, ev.v
        self.graph.delete_edge(u, v)
        store = self.sketches
        if store is not None:
            store.on_edge_deleted(u, v)
        pair, destroyed = self._event_pair(u, v)
        modified, dropped = self._update_members(u, v, pair)
        if destroyed < dropped:
            if store is None:
                raise SampleInvariantError(
                    "exact deletion delta below the sampled-destruction count"
                )
            destroyed = dropped  # sampled destructions are known exactly
        # the member update already accounted the c1 side
        res.c2 += destroyed - dropped
        res.n_population -= destroyed
        if res.n_population < len(res.codes):
            if store is None:
                raise SampleInvariantError("population fell below sample occupancy")
            res.n_population = len(res.codes)
        return EventStats(0, destroyed, modified, 0)

    def _event_pair(self, u: int, v: int):
        """The event delta of (u, v), with the graph and the sketches past
        the event: ``(pair, count)``, the pair's ``pair_members`` and the
        size of its ``new`` side in exact-W; None and the count of
        ``sketch_delta`` in sketch-W."""
        g = self.graph
        if self.sketches is None:
            pair = pair_members(g, u, v, self.k)
            return pair, len(pair[1])
        return None, round(sketch_delta(self.sketches, g, u, v))

    def _update_members(self, u: int, v: int, pair) -> tuple[int, int]:
        """With the graph just past an add or delete of (u, v): give the
        sampled members over the pair their new shape, and drop those the
        change left disconnected (c1 grows). At k=3 the lookup reads the
        adjacency, else it probes both sides of ``pair``. Returns the
        number modified and the number dropped."""
        res = self.reservoir
        k = self.k
        hits = (res.members_containing_pair(u, v) if k == 3
                else res.members_among(pair[0] + pair[1]))
        if not hits:
            return 0, 0
        g = self.graph
        codes, members = zip(*hits)
        dropped = res.update(codes, member_shapes(g.adj, g.labels, u, v, k, members))
        return len(hits) - dropped, dropped

    def _consume_arrivals(self, count: int) -> int:
        """Run ``count`` new-subgraph arrivals through the admission step.

        Returns the number admitted, whose pairing admissions are paid for.
        While deletions left debt, the pairing step admits with probability
        c1/(c1 + c2), its skip drawn fresh per event because deletions in
        between would stale it; with c1 = 0 it rejects without a draw.
        Otherwise the reservoir step admits every arrival while N < M and
        then one after each skip, drawn at the first arrival after an
        admission. osr carries the rest of a skip across events (deletions
        and their compensating arrivals cancel out in N by the time the step
        resumes); sr flips coins for the arrivals at hand only and draws
        afresh at the next event, so no coin is flipped for an arrival that
        never comes.
        """
        res = self.reservoir
        rng = self.rng
        cap = res.capacity
        admitted = 0
        remaining = count
        while remaining > 0:
            debt = res.c1 + res.c2
            if debt:
                if res.c1 == 0:
                    take = min(remaining, res.c2)
                    res.c2 -= take
                    res.n_population += take
                    remaining -= take
                    continue
                z = self._skip_rp(res.c1, debt, rng, remaining)
                if z is None or z >= remaining:
                    res.c2 -= remaining
                    res.n_population += remaining
                    remaining = 0
                else:
                    res.c2 -= z
                    res.pay_hit()
                    res.n_population += z + 1
                    remaining -= z + 1
                    admitted += 1
                continue
            pending = self.rs_pending
            if pending is None:
                n = res.n_population
                if n < cap:
                    take = min(remaining, cap - n)
                    res.n_population += take
                    remaining -= take
                    admitted += take
                    continue
                pending = self._skip_rs(n, cap, rng, remaining)
            if pending is None or pending >= remaining:
                self.rs_pending = None if pending is None else pending - remaining
                res.n_population += remaining
                remaining = 0
            else:
                self.rs_pending = None
                res.n_population += pending + 1
                remaining -= pending + 1
                admitted += 1
        return admitted

    def _admit(self, u: int, v: int, count: int, pair) -> int:
        """Offer the ``count`` k-sets that the edge (u, v) newly connected,
        the ``new`` side of the pair's ``pair_members``, and place the
        admitted ones, drawn uniformly among them. ``pair`` is what
        ``_event_pair`` returned; sketch-W builds the split here, only when
        it places. Returns the admissions."""
        admissions = self._consume_arrivals(count)
        if not admissions:
            return 0
        g = self.graph
        k = self.k
        if pair is None:
            pair = pair_members(g, u, v, k)
        pool = list(pair[1])
        rng = self.rng
        res = self.reservoir
        # the chosen sets are placed as one batch: the head fills the free
        # slots, each set after it takes a random member's slot. A whole pool
        # that fits in the free slots is placed without a draw. Otherwise the
        # sets are drawn in random order: an eviction may hit an earlier set
        # of the same event, so a fixed order would favour the sets placed
        # last. A sketch estimate above the real pool drops the surplus
        # admissions.
        if admissions >= len(pool) and len(res.codes) + len(pool) <= res.capacity:
            chosen = pool
        else:
            chosen = rng.sample(pool, min(admissions, len(pool)))
        res.place(member_codes(u, v, k, chosen),
                  member_shapes(g.adj, g.labels, u, v, k, chosen), rng)
        return len(chosen)


def build_engine(config: EngineConfig) -> _EngineBase:
    if config.mode == "exact":
        return ExactCountEngine(config)
    return SamplingEngine(config)
