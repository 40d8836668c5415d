"""Streaming engines behind one interface: exact counting, reservoir
sampling, and the skip-optimized reservoir, over incremental or
fully-dynamic labeled edge streams.

All engines keep the evolving graph plus N, the number of currently
connected k-subgraphs. The sampling engines additionally keep a uniform
fixed-capacity sample of those subgraphs; frequency estimates and frequent
reports are read off the sample (or off the exact per-pattern counts).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import ceil, log
from typing import NamedTuple

from .exploration import compute_d_approx, compute_d_exact, new_vertex_sets
from .graph import DynamicLabeledGraph, SubgraphInstance, is_connected
from .pattern import PatternKey, canonical_key, count_patterns
from .rng import substream, substream_seed
from .sampling import (
    CLASS_KEYS,
    CLASS_TEXTS,
    CODE_RADIX,
    SampleInvariantError,
    SubgraphReservoir,
    class_id,
    decode_vertices,
    member_columns,
    skip_rp,
    skip_rs,
)
from .sketch import SketchStore, VertexHasher, intersection_estimate
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
    pattern_classes: int | None = None
    missing_delete: str = "error"  # error | skip

    def __post_init__(self) -> None:
        if self.k < 2:
            raise EngineError(f"subgraph size must be >= 2, got {self.k}")
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
        if self.w_mode == "sketch" and self.k != 3:
            # the sketch estimate of the event delta exists for size 3 only
            raise EngineError(f"w_mode='sketch' needs k=3, got k={self.k}")
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
        t_k = self.pattern_classes
        if t_k is None:
            if self.num_vertex_labels is None or self.num_edge_labels is None:
                raise EngineError(
                    "sample size underdetermined: set sample_size, pattern_classes, "
                    "or both label universe sizes"
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


# Raw size-3 signature -> shape record (vertex_labels, edges, class id).
# The raw signature is the order that sorts the ids (u, v, w), the three
# vertex labels and the three edge labels (None for an absent edge); it fixes
# the member's label and edge tuples and its pattern class. Every k=3 member
# shares its record with the other members of its signature, so the sample
# stores one int code and one shared reference per member. At most
# 6 * L^3 * (E + 1)^3 entries for L vertex and E edge labels.
_TRIPLES: dict[tuple, tuple] = {}

# sorting order -> positions of u, v, w in the sorted id tuple
_ORDER_POS = ((0, 1, 2), (0, 2, 1), (1, 2, 0), (1, 0, 2), (2, 0, 1), (2, 1, 0))


def _intern_triple(raw: tuple) -> tuple:
    order, lu, lv, lw, e_uv, e_uw, e_vw = raw
    pu, pv, pw = _ORDER_POS[order]
    labs = [0, 0, 0]
    labs[pu], labs[pv], labs[pw] = lu, lv, lw
    edges = []
    for a, b, lab in ((pu, pv, e_uv), (pu, pw, e_uw), (pv, pw, e_vw)):
        if lab is not None:
            edges.append((a, b, lab) if a < b else (b, a, lab))
    edges.sort()
    labs = tuple(labs)
    edges = tuple(edges)
    key = canonical_key(SubgraphInstance((0, 1, 2), labs, edges))
    shared = (labs, edges, class_id(key))
    _TRIPLES[raw] = shared
    return shared


def _triple_shape(u, lu, v, lv, w, lw, e_uv, e_uw, e_vw) -> tuple:
    """The interned shape record of the member over {u, v, w}; a None edge
    label means the edge is absent."""
    if u < v:
        order = 0 if v < w else 1 if u < w else 2
    else:
        order = 3 if u < w else 4 if v < w else 5
    raw = (order, lu, lv, lw, e_uv, e_uw, e_vw)
    shape = _TRIPLES.get(raw)
    if shape is None:
        shape = _intern_triple(raw)
    return shape


def _triple_member(u, lu, v, lv, w, lw, e_uv, e_uw, e_vw) -> tuple[int, tuple]:
    """The (code, shape) columns of the member over {u, v, w}: the single
    builder of size-3 sample members. The code is ``vertex_code`` of the
    sorted ids, the shape the interned record."""
    x = CODE_RADIX
    if u < v:
        if v < w:
            code = (u * x + v) * x + w
        elif u < w:
            code = (u * x + w) * x + v
        else:
            code = (w * x + u) * x + v
    elif u < w:
        code = (v * x + u) * x + w
    elif v < w:
        code = (v * x + w) * x + u
    else:
        code = (w * x + v) * x + u
    return code, _triple_shape(u, lu, v, lv, w, lw, e_uv, e_uw, e_vw)


def _graph_shape(g: DynamicLabeledGraph, u: int, v: int, w: int, e_uv: int | None) -> tuple:
    """_triple_shape over {u, v, w} as the graph holds it, except that the
    (u, v) edge carries ``e_uv`` (None: absent)."""
    labels = g.labels
    adj_w = g.adj[w]
    return _triple_shape(
        u, labels[u], v, labels[v], w, labels[w], e_uv, adj_w.get(u), adj_w.get(v)
    )


class _EngineBase:
    mode = "?"

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.k = config.k
        self.graph = DynamicLabeledGraph()
        self.events_seen = 0

    # -- event dispatch ----------------------------------------------------

    def process_event(self, ev: StreamEvent) -> EventStats:
        if ev.op == "+":
            if ev.label_u is None or ev.label_v is None or ev.label_e is None:
                raise EngineError(f"insertion event without labels: {ev}")
            self.graph.ensure_vertex(ev.u, ev.label_u)
            self.graph.ensure_vertex(ev.v, ev.label_v)
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

    def process_stream(self, events) -> EventStats:
        created = destroyed = modified = admitted = 0
        for ev in events:
            st = self.process_event(ev)
            created += st.created
            destroyed += st.destroyed
            modified += st.modified
            admitted += st.admitted
        return EventStats(created, destroyed, modified, admitted)

    def _apply_add(self, ev: StreamEvent) -> EventStats:
        raise NotImplementedError

    def _apply_delete(self, ev: StreamEvent) -> EventStats:
        raise NotImplementedError

    def report_frequent(self) -> FrequentReport:
        est = self.estimate_frequencies()
        threshold = self.config.tau - self.config.epsilon / 2.0
        entries = [(key, p) for key, p in est.shares.items() if p >= threshold]
        entries.sort(key=lambda kv: (-kv[1], kv[0].text()))
        return FrequentReport(threshold, entries, self.events_seen)

    def estimate_frequencies(self) -> FrequencyEstimate:
        raise NotImplementedError


class ExactCountEngine(_EngineBase):
    """Maintains exact per-pattern counts incrementally from the per-event
    case analysis (modified / created / destroyed subgraphs)."""

    mode = "exact"

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        self.counts: dict[PatternKey, int] = {}
        self.population = 0
        # raw-signature memo for the size-3 hot loop; the canonical key is a
        # function of the label structure alone, never of vertex ids
        self._memo3: dict[tuple, PatternKey] = {}

    def _key3(self, u, lu, v, lv, w, lw, e_uv, e_uw, e_vw) -> PatternKey:
        raw = (lu, lv, lw, e_uv, e_uw, e_vw)
        key = self._memo3.get(raw)
        if key is None:
            key = CLASS_KEYS[_triple_shape(u, lu, v, lv, w, lw, e_uv, e_uw, e_vw)[2]]
            self._memo3[raw] = key
        return key

    def _bump(self, key: PatternKey, delta: int) -> None:
        c = self.counts.get(key, 0) + delta
        if c:
            self.counts[key] = c
        else:
            self.counts.pop(key, None)

    def _apply_add(self, ev: StreamEvent) -> EventStats:
        g = self.graph
        u, v, le = ev.u, ev.v, ev.label_e
        if self.k == 3:
            nu = g.adj[u]
            nv = g.adj[v]
            lu = g.labels[u]
            lv = g.labels[v]
            labels = g.labels
            common = nu.keys() & nv.keys()
            for w in common:
                lw = labels[w]
                euw = nu[w]
                evw = nv[w]
                self._bump(self._key3(u, lu, v, lv, w, lw, None, euw, evw), -1)
                self._bump(self._key3(u, lu, v, lv, w, lw, le, euw, evw), +1)
            ex_u = nu.keys() - nv.keys() - {v}
            ex_v = nv.keys() - nu.keys() - {u}
            for w in ex_u:
                self._bump(self._key3(u, lu, v, lv, w, labels[w], le, nu[w], None), +1)
            for w in ex_v:
                self._bump(self._key3(u, lu, v, lv, w, labels[w], le, None, nv[w]), +1)
            created = len(ex_u) + len(ex_v)
            modified = len(common)
            self.population += created
            g.add_edge(u, ev.label_u, v, ev.label_v, le)
            return EventStats(created, 0, modified, 0)
        staged = []
        for vset in g.candidate_vertex_sets(u, v, self.k):
            inst = g.induced_subgraph(vset)
            staged.append((inst, is_connected(inst)))
        g.add_edge(u, ev.label_u, v, ev.label_v, le)
        created = modified = 0
        for inst, was_connected in staged:
            post = inst.with_edge(u, v, le)
            if was_connected:
                self._bump(canonical_key(inst), -1)
                self._bump(canonical_key(post), +1)
                modified += 1
            else:
                self._bump(canonical_key(post), +1)
                created += 1
        self.population += created
        return EventStats(created, 0, modified, 0)

    def _apply_delete(self, ev: StreamEvent) -> EventStats:
        g = self.graph
        u, v = ev.u, ev.v
        le = g.edge_label(u, v)
        g.delete_edge(u, v)
        if self.k == 3:
            nu = g.adj[u]
            nv = g.adj[v]
            lu = g.labels[u]
            lv = g.labels[v]
            labels = g.labels
            common = nu.keys() & nv.keys()
            for w in common:
                lw = labels[w]
                euw = nu[w]
                evw = nv[w]
                self._bump(self._key3(u, lu, v, lv, w, lw, le, euw, evw), -1)
                self._bump(self._key3(u, lu, v, lv, w, lw, None, euw, evw), +1)
            ex_u = nu.keys() - nv.keys() - {v}
            ex_v = nv.keys() - nu.keys() - {u}
            for w in ex_u:
                self._bump(self._key3(u, lu, v, lv, w, labels[w], le, nu[w], None), -1)
            for w in ex_v:
                self._bump(self._key3(u, lu, v, lv, w, labels[w], le, None, nv[w]), -1)
            destroyed = len(ex_u) + len(ex_v)
            modified = len(common)
            self.population -= destroyed
            return EventStats(0, destroyed, modified, 0)
        destroyed = modified = 0
        for vset in g.candidate_vertex_sets(u, v, self.k):
            inst = g.induced_subgraph(vset)
            pre = inst.with_edge(u, v, le)
            if is_connected(inst):
                self._bump(canonical_key(pre), -1)
                self._bump(canonical_key(inst), +1)
                modified += 1
            else:
                self._bump(canonical_key(pre), -1)
                destroyed += 1
        self.population -= destroyed
        return EventStats(0, destroyed, modified, 0)

    def estimate_frequencies(self) -> FrequencyEstimate:
        total = self.population
        shares = (
            {key: c / total for key, c in self.counts.items()} if total else {}
        )
        return FrequencyEstimate(
            dict(self.counts), shares, total, total, 0, 0, self.events_seen
        )

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


class _SamplingEngineBase(_EngineBase):
    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        self.sample_size = config.resolve_sample_size()
        self.reservoir = SubgraphReservoir(self.sample_size)
        self.rng = substream(config.seed, "sample")

    @property
    def population(self) -> int:
        return self.reservoir.n_population

    def estimate_frequencies(self) -> FrequencyEstimate:
        res = self.reservoir
        counts = res.pattern_counts()
        occ = len(res.codes)
        shares = {key: c / occ for key, c in counts.items()} if occ else {}
        return FrequencyEstimate(
            counts, shares, res.n_population, occ, res.c1, res.c2, self.events_seen
        )

    def report_frequent(self) -> FrequentReport:
        # the base report's order, straight off the per-class counts: no
        # second estimate, no key hashed and no key text rebuilt
        res = self.reservoir
        occ = len(res.codes)
        threshold = self.config.tau - self.config.epsilon / 2.0
        rows = [(c / occ, cid) for cid, c in res.counts.items() if c / occ >= threshold]
        texts = CLASS_TEXTS
        rows.sort(key=lambda row: (-row[0], texts[row[1]]))
        keys = CLASS_KEYS
        return FrequentReport(threshold, [(keys[cid], p) for p, cid in rows], self.events_seen)

    def verify_invariants(self) -> None:
        """Debug gate: index exactness plus sample-membership soundness."""
        self.reservoir.verify()
        for inst in self.reservoir.slots:
            if self.graph.induced_subgraph(inst.vertices) != inst:
                raise SampleInvariantError(
                    f"stale sample member {inst.vertices} at event {self.events_seen}"
                )
            if not is_connected(inst):
                raise SampleInvariantError(
                    f"disconnected sample member {inst.vertices}"
                )

    def _modify_members_on_add(self, u: int, v: int, le: int) -> int:
        """Re-materialise the sampled members over (u, v) with the new edge;
        call before the graph holds it. Returns how many were modified."""
        res = self.reservoir
        g = self.graph
        hits = res.members_containing_pair(u, v)
        if self.k == 3:
            for code, w in hits:
                res.replace_modified(code, _graph_shape(g, u, v, w, le))
        else:
            for code in hits:
                post = g.induced_subgraph(decode_vertices(code, self.k)).with_edge(u, v, le)
                res.replace_modified(code, member_columns(post)[1])
        return len(hits)

    def _delete_members3(self, u: int, v: int) -> tuple[int, int]:
        """After the graph dropped (u, v): re-materialise the sampled size-3
        members over the pair that survive as wedges and drop the destroyed
        ones (c1 grows). Returns the number modified and the number dropped."""
        g = self.graph
        res = self.reservoir
        nu = g.adj[u]
        nv = g.adj[v]
        modified = dropped = 0
        for code, w in res.members_containing_pair(u, v):
            if w in nu and w in nv:
                res.replace_modified(code, _graph_shape(g, u, v, w, None))
                modified += 1
            else:
                res.remove_destroyed(code, (u, v, w))
                dropped += 1
        return modified, dropped


class ReservoirEngine(_SamplingEngineBase):
    """Arrival-by-arrival reservoir maintenance: every newly connected
    subgraph gets its own admission coin; sampled subgraphs touched by the
    event are swapped in place; destroyed ones feed the pairing counters."""

    mode = "sr"

    def _apply_add(self, ev: StreamEvent) -> EventStats:
        g = self.graph
        res = self.reservoir
        u, v, le = ev.u, ev.v, ev.label_e
        modified = self._modify_members_on_add(u, v, le)
        admitted = 0
        if self.k == 3:
            nu = g.adj[u]
            nv = g.adj[v]
            lu = g.labels[u]
            lv = g.labels[v]
            labels = g.labels
            ex_u = nu.keys() - nv.keys() - {v}
            ex_v = nv.keys() - nu.keys() - {u}
            g.add_edge(u, ev.label_u, v, ev.label_v, le)
            rng = self.rng
            cap = res.capacity
            occ = len(res.codes)
            for side_u, side in ((True, ex_u), (False, ex_v)):
                for w in side:
                    n = res.n_population + 1
                    res.n_population = n
                    debt = res.c1 + res.c2
                    if debt == 0:
                        if occ < cap:
                            replace = False
                        elif rng.random() < cap / n:
                            replace = True
                        else:
                            continue
                    elif rng.random() < res.c1 / debt:
                        res.c1 -= 1
                        replace = False
                    else:
                        res.c2 -= 1
                        continue
                    if side_u:
                        code, shape = _triple_member(u, lu, v, lv, w, labels[w], le, nu[w], None)
                    else:
                        code, shape = _triple_member(u, lu, v, lv, w, labels[w], le, None, nv[w])
                    if replace:
                        res.replace_random_slot(code, shape, (u, v, w), rng)
                    else:
                        res.fill_free_slot(code, shape, (u, v, w))
                        occ += 1
                    admitted += 1
            created = len(ex_u) + len(ex_v)
            return EventStats(created, 0, modified, admitted)
        fresh = [
            g.induced_subgraph(vset).with_edge(u, v, le)
            for vset in new_vertex_sets(g, u, v, self.k)
        ]
        g.add_edge(u, ev.label_u, v, ev.label_v, le)
        for inst in fresh:
            res.n_population += 1
            if res.rp_insert(inst, self.rng):
                admitted += 1
        return EventStats(len(fresh), 0, modified, admitted)

    def _apply_delete(self, ev: StreamEvent) -> EventStats:
        g = self.graph
        res = self.reservoir
        u, v = ev.u, ev.v
        g.delete_edge(u, v)
        if self.k == 3:
            modified, dropped = self._delete_members3(u, v)
            nu = g.adj[u]
            nv = g.adj[v]
            destroyed = len(nu.keys() - nv.keys()) + len(nv.keys() - nu.keys())
            res.n_population -= destroyed
            res.c2 += destroyed - dropped  # remove_destroyed grew c1
            return EventStats(0, destroyed, modified, 0)
        modified = destroyed = 0
        for vset in g.candidate_vertex_sets(u, v, self.k):
            inst = g.induced_subgraph(vset)
            if is_connected(inst):
                if vset in res:
                    res.replace_modified(*member_columns(inst))
                    modified += 1
            else:
                res.notify_deleted(vset)
                destroyed += 1
        return EventStats(0, destroyed, modified, 0)


_FILL = 0
_REPLACE = 1


class SkipReservoirEngine(_SamplingEngineBase):
    """Skip-optimized reservoir: per event, sampled subgraphs containing the
    touched pair are updated through the vertex index, the count of newly
    connected subgraphs is either computed exactly or estimated from
    neighborhood sketches, and admissions are decided by skip counters so
    rejected arrivals cost O(1) in bulk."""

    mode = "osr"

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        self.w_mode = config.w_mode
        self.sketches: SketchStore | None = None
        if self.w_mode == "sketch":
            hasher = VertexHasher(substream_seed(config.seed, "hash"))
            self.sketches = SketchStore(config.sketch_size, hasher)
        # arrivals to reject before the next reservoir admission; drawn at
        # the previous admission and carried across events
        self.rs_pending = skip_rs(0, self.sample_size, self.rng)

    def _consume_arrivals(self, count: int) -> list[int]:
        """Run ``count`` new-subgraph arrivals through the skip machinery.

        Returns the placement actions of the admitted arrivals, in order.
        The pairing regime is re-entered whenever deletions left debt; its
        skip counter is drawn fresh per event because deletions in between
        would stale it, while the reservoir regime's pending counter
        stays valid across events (deletions and their compensating
        arrivals cancel out in N by the time the regime resumes).
        """
        res = self.reservoir
        rng = self.rng
        cap = res.capacity
        placements: list[int] = []
        virtual_occ = res.occupancy
        remaining = count
        while remaining > 0:
            debt = res.c1 + res.c2
            if debt > 0:
                if res.c1 == 0:
                    take = min(remaining, res.c2)
                    res.c2 -= take
                    res.n_population += take
                    remaining -= take
                    continue
                z = skip_rp(res.c1, debt, rng)
                if z + 1 <= remaining:
                    res.c2 -= z
                    res.c1 -= 1
                    res.n_population += z + 1
                    remaining -= z + 1
                    placements.append(_FILL)
                    virtual_occ += 1
                else:
                    res.c2 -= remaining
                    res.n_population += remaining
                    remaining = 0
            else:
                pending = self.rs_pending
                if pending >= remaining:
                    self.rs_pending = pending - remaining
                    res.n_population += remaining
                    remaining = 0
                elif pending == 0 and res.n_population + 1 < cap:
                    # below capacity skip_rs returns 0 without a draw, so the
                    # arrivals that keep N below M are admitted in one step
                    take = min(remaining, cap - 1 - res.n_population)
                    res.n_population += take
                    remaining -= take
                    fills = min(take, cap - virtual_occ)
                    placements.extend([_FILL] * fills)
                    placements.extend([_REPLACE] * (take - fills))
                    virtual_occ += fills
                else:
                    res.n_population += pending + 1
                    remaining -= pending + 1
                    if virtual_occ < cap:
                        placements.append(_FILL)
                        virtual_occ += 1
                    else:
                        placements.append(_REPLACE)
                    self.rs_pending = skip_rs(res.n_population, cap, rng)
        return placements

    def _apply_add(self, ev: StreamEvent) -> EventStats:
        g = self.graph
        res = self.reservoir
        k = self.k
        u, v, le = ev.u, ev.v, ev.label_e
        modified = self._modify_members_on_add(u, v, le)
        if k == 3:
            nu = g.adj[u]
            nv = g.adj[v]
            if self.w_mode == "exact":
                ex_u = nu.keys() - nv.keys()
                ex_v = nv.keys() - nu.keys()
                arrivals = len(ex_u) + len(ex_v)
                g.add_edge(u, ev.label_u, v, ev.label_v, le)
            else:
                g.add_edge(u, ev.label_u, v, ev.label_v, le)
                store = self.sketches
                store.on_edge_added(u, v)
                size = store.size
                if len(nu) <= size and len(nv) <= size:
                    ex_u = nu.keys() - nv.keys() - {v}
                    ex_v = nv.keys() - nu.keys() - {u}
                    arrivals = len(ex_u) + len(ex_v)
                else:
                    ex_u = ex_v = None
                    sk_u = store.sketch(u)
                    sk_v = store.sketch(v)
                    est = (
                        sk_u.size_estimate()
                        + sk_v.size_estimate()
                        - 2.0 * intersection_estimate(sk_u, sk_v)
                        - 2.0
                    )
                    arrivals = int(round(est)) if est > 0.0 else 0
            placements = self._consume_arrivals(arrivals)
            admitted = 0
            if placements:
                if ex_u is None:
                    ex_u = nu.keys() - nv.keys() - {v}
                    ex_v = nv.keys() - nu.keys() - {u}
                pool = list(ex_u)
                pool.extend(ex_v)
                take = min(len(placements), len(pool))
                labels = g.labels
                lu = labels[u]
                lv = labels[v]
                for action, w in zip(placements, self.rng.sample(pool, take)):
                    # w is adjacent to exactly one of u, v
                    code, shape = _triple_member(
                        u, lu, v, lv, w, labels[w], le, nu.get(w), nv.get(w)
                    )
                    if action == _FILL:
                        res.fill_free_slot(code, shape, (u, v, w))
                    else:
                        res.replace_random_slot(code, shape, (u, v, w), self.rng)
                    admitted += 1
            return EventStats(arrivals, 0, modified, admitted)
        # sizes other than 3 run exact-W only (EngineConfig)
        new_sets = new_vertex_sets(g, u, v, k)
        g.add_edge(u, ev.label_u, v, ev.label_v, le)
        placements = self._consume_arrivals(len(new_sets))
        if placements:
            chosen = self.rng.sample(new_sets, len(placements))
            for action, vset in zip(placements, chosen):
                code, shape = member_columns(g.induced_subgraph(vset))
                if action == _FILL:
                    res.fill_free_slot(code, shape, vset)
                else:
                    res.replace_random_slot(code, shape, vset, self.rng)
        return EventStats(len(new_sets), 0, modified, len(placements))

    def _apply_delete(self, ev: StreamEvent) -> EventStats:
        g = self.graph
        res = self.reservoir
        k = self.k
        u, v = ev.u, ev.v
        g.delete_edge(u, v)
        if self.sketches is not None:
            self.sketches.on_edge_deleted(u, v)
        if k == 3:
            modified, hit_in_sample = self._delete_members3(u, v)
            if self.w_mode == "exact":
                nu = g.adj[u]
                nv = g.adj[v]
                destroyed = len(nu.keys() - nv.keys()) + len(nv.keys() - nu.keys())
            else:
                destroyed = int(round(compute_d_approx(self.sketches, g, u, v, k)))
        else:
            modified = hit_in_sample = 0
            for code in res.members_containing_pair(u, v):
                vs = decode_vertices(code, k)
                post = g.induced_subgraph(vs)
                if is_connected(post):
                    res.replace_modified(code, member_columns(post)[1])
                    modified += 1
                else:
                    res.remove_destroyed(code, vs)
                    hit_in_sample += 1
            destroyed = compute_d_exact(g, u, v, k)  # exact-W only (EngineConfig)
        if destroyed < hit_in_sample:
            if self.w_mode == "exact":
                raise SampleInvariantError(
                    "exact deletion delta below the sampled-destruction count"
                )
            destroyed = hit_in_sample  # sampled destructions are known exactly
        # remove_destroyed already accounted the c1 side
        res.c2 += destroyed - hit_in_sample
        res.n_population -= destroyed
        if res.n_population < res.occupancy:
            if self.w_mode == "exact":
                raise SampleInvariantError("population fell below sample occupancy")
            res.n_population = res.occupancy
        return EventStats(0, destroyed, modified, 0)


def build_engine(config: EngineConfig) -> _EngineBase:
    if config.mode == "exact":
        return ExactCountEngine(config)
    if config.mode == "sr":
        return ReservoirEngine(config)
    return SkipReservoirEngine(config)
