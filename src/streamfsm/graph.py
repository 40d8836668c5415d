"""Dynamic labeled graph plus the neighborhood queries the sampling engines need.

One search, ``_grown_sets``, enumerates connected vertex sets for every
size: the candidate sets over an edge's pair and, for recounts and debug
checks, every connected k-set of the graph."""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


# Vertex ids lie in [0, VERTEX_ID_LIMIT): the sample codes a vertex set as
# the digits of one int, which needs a bounded digit.
VERTEX_ID_LIMIT = 2**64


class GraphError(ValueError):
    """Malformed graph operation: unknown vertex, self-loop, bad arguments."""


class LabelConflictError(GraphError):
    """A vertex reappeared with a different label; labels are immutable."""


class SubgraphInstance(NamedTuple):
    """A concrete induced subgraph.

    ``vertices`` is sorted, ``vertex_labels`` is aligned with it, and
    ``edges`` holds ``(i, j, label)`` triples indexing into ``vertices``
    with ``i < j``, sorted. Instances over the same vertex set compare
    equal iff they carry the same induced labeled edges.
    """

    vertices: tuple[int, ...]
    vertex_labels: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]


def is_connected(instance: SubgraphInstance) -> bool:
    """True iff the instance's edge set connects all its vertices."""
    k = len(instance.vertices)
    if k <= 1:
        return True
    edges = instance.edges
    if len(edges) < k - 1:
        return False
    adj: list[list[int]] = [[] for _ in range(k)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == k


def _grown_sets(adj: dict[int, dict], seeds: list[frozenset[int]],
                k: int, low: int = -1) -> list[tuple[int, ...]]:
    """Every k-set grown from one of ``seeds`` a neighbour above ``low`` at a
    time, each once, as sorted tuples in lexicographic order. Takes over
    ``seeds`` as its stack."""
    out: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    stack = seeds
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        if len(s) == k:
            out.append(tuple(sorted(s)))
            continue
        frontier: set[int] = set()
        for x in s:
            frontier.update(adj[x])
        frontier -= s
        if low >= 0:
            frontier = {w for w in frontier if w > low}
        for w in frontier:
            t = s | {w}
            if t not in seen:
                stack.append(t)
    out.sort()
    return out


class DynamicLabeledGraph:
    """Simple undirected graph with immutable vertex and edge labels.

    Adjacency is a map of maps (``adj[u][v]`` is the edge label), which keeps
    edge lookups, degree reads and set algebra over neighborhoods cheap under
    a high-rate stream of insertions and deletions. Deleting an edge keeps
    its endpoints: their labels persist even at degree zero.
    """

    __slots__ = ("labels", "adj", "num_edges")

    def __init__(self) -> None:
        self.labels: dict[int, int] = {}
        self.adj: dict[int, dict[int, int]] = {}
        self.num_edges = 0

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def _check_vertex(self, v: int, label: int) -> None:
        # raises unless v is registered with this label or can be
        known = self.labels.get(v)
        if known is None:
            if not 0 <= v < VERTEX_ID_LIMIT:
                raise GraphError(f"vertex ids must lie in [0, 2**64), got {v}")
        elif known != label:
            raise LabelConflictError(
                f"vertex {v} is labeled {known}, stream says {label}"
            )

    def ensure_vertex(self, v: int, label: int) -> None:
        """Register a vertex, raising if it exists with a different label."""
        if self.labels.get(v) != label:
            self._check_vertex(v, label)
            self.labels[v] = label
            self.adj[v] = {}

    def ensure_endpoints(self, u: int, label_u: int, v: int, label_v: int) -> None:
        """Register both endpoints of an edge; if either one cannot be
        registered, raise before registering the other."""
        labels = self.labels
        if labels.get(u) != label_u or labels.get(v) != label_v:
            self._check_vertex(v, label_v)
            self.ensure_vertex(u, label_u)
            self.ensure_vertex(v, label_v)

    def has_edge(self, u: int, v: int) -> bool:
        nu = self.adj.get(u)
        return nu is not None and v in nu

    def add_edge(self, u: int, label_u: int, v: int, label_v: int, label_e: int) -> bool:
        """Insert edge (u, v); returns False when it already exists (no-op)."""
        if u == v:
            raise GraphError(f"self-loop rejected at vertex {u}")
        self.ensure_endpoints(u, label_u, v, label_v)
        if v in self.adj[u]:
            return False
        self.adj[u][v] = label_e
        self.adj[v][u] = label_e
        self.num_edges += 1
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Remove edge (u, v); returns False when it is absent (no-op).

        Endpoints are retained even if their degree drops to zero.
        """
        nu = self.adj.get(u)
        if nu is None or v not in nu:
            return False
        del nu[v]
        del self.adj[v][u]
        self.num_edges -= 1
        return True

    def induced_subgraph(self, vertices: Iterable[int]) -> SubgraphInstance:
        """Materialize the induced subgraph on the given vertex set."""
        vs = tuple(sorted(vertices))
        try:
            labs = tuple(self.labels[v] for v in vs)
        except KeyError as exc:
            raise GraphError(f"unknown vertex {exc.args[0]}") from None
        edges: list[tuple[int, int, int]] = []
        for i, a in enumerate(vs):
            na = self.adj[a]
            for j in range(i + 1, len(vs)):
                lab = na.get(vs[j])
                if lab is not None:
                    edges.append((i, j, lab))
        return SubgraphInstance(vs, labs, tuple(edges))

    def candidate_vertex_sets(self, u: int, v: int, k: int) -> Iterator[tuple[int, ...]]:
        """All k-vertex sets containing u and v whose induced subgraph,
        together with the (u, v) edge, is connected.

        The pair is treated as adjacent whether or not (u, v) currently is
        an edge, so the same enumeration serves the pre-insertion and the
        post-deletion state. Sets are yielded as sorted tuples in
        lexicographic order; every affected set appears exactly once.
        """
        if k < 2:
            raise GraphError(f"subgraph size must be >= 2, got {k}")
        for w in (u, v):
            if w not in self.labels:
                raise GraphError(f"unknown vertex {w}")
        yield from _grown_sets(self.adj, [frozenset((u, v))], k)

    def connected_k_sets(self, k: int) -> Iterator[tuple[int, ...]]:
        """Every connected k-vertex set of the current graph, exactly once.

        Sets are yielded as sorted tuples in lexicographic order. Intended
        for small graphs (full recounts and debug verification). Each set
        is grown from its smallest vertex through larger ones only, so the
        search holds one root's sets at a time.
        """
        adj = self.adj
        for root in sorted(self.labels):
            yield from _grown_sets(adj, [frozenset((root,))], k, root)

    def verify(self) -> None:
        """Internal consistency check (symmetry, counts); raises on breakage."""
        half = 0
        for u, nu in self.adj.items():
            if u not in self.labels:
                raise GraphError(f"vertex {u} has adjacency but no label")
            half += len(nu)
            for v, lab in nu.items():
                back = self.adj.get(v, {}).get(u)
                if back != lab:
                    raise GraphError(f"asymmetric edge ({u}, {v}): {lab} vs {back}")
        if half != 2 * self.num_edges:
            raise GraphError(f"edge count {self.num_edges} != half degree sum {half / 2}")
