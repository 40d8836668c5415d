"""Seeded workload streams, generated by the benchmark's own code.

Nothing here imports ``streamfsm``: a change to the program's own stream
generator cannot change a workload. Every stream is written in the
program's wire format (``+ u lu v lv le`` / ``- u v``).
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

VERTEX_LABELS = 3
EDGE_LABELS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how its stream is made and how it is run.

    ``insertions`` edges arrive first; ``churn`` more insertions are then
    randomly interleaved with ``churn`` deletions of uniformly chosen live
    edges. ``window`` expands an add-only file with the program's
    ``drive_window`` during set-up. ``sample_size`` None means M is derived
    from ``epsilon`` and the label universe, as the command line does.
    Snapshots are taken at fixed event counts.
    """

    name: str
    vertices: int
    exponent: float | None  # None: uniform endpoints
    insertions: int
    churn: int
    window: int | None
    sample_size: int | None
    epsilon: float | None  # None: the value the formula gives for sample_size
    tau: float
    snapshots: int  # per replay
    slices: int  # steps a replay is cut into; 0: a step is a whole replay
    delta: float = 0.1
    sketch_size: int = 64


WORKLOADS = {
    w.name: w
    for w in (
        # Shaped like acceptance criterion 09 (1,500 vertices, exponent 1.1,
        # 3 vertex and 2 edge labels) at M=1000, with fewer edges so that
        # the exact engine replays it several times a run.
        Workload(
            "powerlaw-insert-m1k", vertices=1500, exponent=1.1, insertions=9000,
            churn=0, window=None, sample_size=1000, epsilon=None, tau=0.2, snapshots=18,
            slices=0,
        ),
        # A gentler power law than criterion 09, so that a hub's index
        # bucket holds thousands of sampled sets rather than most of the
        # sample. The sample fills before the churn starts.
        Workload(
            "powerlaw-dynamic-m284k", vertices=2000, exponent=0.3, insertions=16600,
            churn=3000, window=None, sample_size=None, epsilon=0.01, tau=0.018, snapshots=2,
            slices=16,
        ),
        # Uniform and sparse: no hubs, index buckets of hundreds of sets and
        # degrees below the sketch size, so sketch-W takes its exact path.
        Workload(
            "uniform-window-m284k", vertices=3000, exponent=None, insertions=27000,
            churn=0, window=24000, sample_size=None, epsilon=0.01, tau=0.018, snapshots=2,
            slices=16,
        ),
    )
}


# The fixed small stream whose oracle run gauges the machine's speed.
REFERENCE = Workload(
    "reference", vertices=60, exponent=0.5, insertions=300, churn=50, window=None,
    sample_size=None, epsilon=None, tau=1.0, snapshots=0, slices=0,
)


def snapshot_points(workload: Workload, num_events: int) -> list[int]:
    """Evenly spaced over the second half of the stream, the last at its end."""
    k = workload.snapshots
    half = num_events // 2
    return [half + (num_events - half) * i // k for i in range(1, k + 1)]


def stream_seed(workload: Workload, seed: int) -> int:
    digest = hashlib.sha256(f"{workload.name}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def generate(workload: Workload, seed: int) -> list[tuple]:
    """The workload's add-only or fully-dynamic event list for ``seed``.

    Events are ``("+", u, lu, v, lv, le)`` or ``("-", u, v)``. Vertex labels
    are fixed per vertex; no live edge is inserted twice and only live
    edges are deleted.
    """
    rng = random.Random(stream_seed(workload, seed))
    n = workload.vertices
    labels = [rng.randrange(VERTEX_LABELS) for _ in range(n)]
    if workload.exponent is None:
        def endpoint() -> int:
            return rng.randrange(n)
    else:
        cum = []
        acc = 0.0
        for i in range(n):
            acc += (i + 1.0) ** -workload.exponent
            cum.append(acc)
        total = acc

        def endpoint() -> int:
            return bisect_right(cum, rng.random() * total)

    live: list[tuple[int, int]] = []
    where: dict[tuple[int, int], int] = {}
    # an add-only stream that a window expands must not repeat a pair at all
    used: set[tuple[int, int]] = set()
    events: list[tuple] = []

    def insert() -> None:
        while True:
            a = endpoint()
            b = endpoint()
            if a == b:
                continue
            pair = (a, b) if a < b else (b, a)
            if pair in where or pair in used:
                continue
            if workload.window is not None:
                used.add(pair)
            where[pair] = len(live)
            live.append(pair)
            events.append(("+", a, labels[a], b, labels[b], rng.randrange(EDGE_LABELS)))
            return

    def delete() -> None:
        idx = rng.randrange(len(live))
        pair = live[idx]
        last = live.pop()
        if idx < len(live):
            live[idx] = last
            where[last] = idx
        del where[pair]
        events.append(("-", pair[0], pair[1]))

    for _ in range(workload.insertions):
        insert()
    adds = dels = workload.churn
    while adds or dels:
        if rng.random() * (adds + dels) < dels:
            delete()
            dels -= 1
        else:
            insert()
            adds -= 1
    return events


def expand_window(events: list[tuple], window: int) -> list[tuple]:
    """Each edge deleted right before the insertion ``window`` places after
    its own: the benchmark's reference for the program's ``drive_window``."""
    pending: deque[tuple[int, int]] = deque()
    out: list[tuple] = []
    for ev in events:
        if len(pending) >= window:
            a, b = pending.popleft()
            out.append(("-", a, b))
        out.append(ev)
        pending.append((ev[1], ev[3]))
    return out


def write_stream(events: list[tuple], path: str) -> str:
    """Write the events in the wire format; returns the file's SHA-256."""
    text = "".join(" ".join(str(x) for x in ev) + "\n" for ev in events)
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
