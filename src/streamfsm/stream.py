"""Edge-stream events: wire format, sliding-window driver, synthetic streams.

Wire format, one event per line, whitespace separated; ``#`` starts a
comment line and blank lines are skipped:

    + <u> <label_u> <v> <label_v> <label_e>     edge insertion
    - <u> <v>                                   edge deletion

Ids and labels are unsigned integers; vertex ids lie below 2**64.
"""

from __future__ import annotations

import random
import re
from collections import deque
from typing import Iterable, Iterator, NamedTuple

from .graph import VERTEX_ID_LIMIT


class StreamFormatError(ValueError):
    """Malformed stream line; carries the 1-based line and column."""

    def __init__(self, message: str, lineno: int = 0, col: int = 0) -> None:
        where = f" (line {lineno}, column {col})" if lineno else ""
        super().__init__(f"{message}{where}")
        self.lineno = lineno
        self.col = col


class StreamEvent(NamedTuple):
    op: str  # "+" or "-"
    u: int
    v: int
    label_u: int | None = None
    label_v: int | None = None
    label_e: int | None = None
    seq: int = -1


_TOKEN = re.compile(r"\S+")


def parse_event(line: str, lineno: int = 0) -> StreamEvent | None:
    """Parse one stream line; None for comments and blank lines."""
    return _parse(line, lineno, -1)


def _parse(line: str, lineno: int, seq: int) -> StreamEvent | None:
    # fast path: a well-formed line is split once and converted; anything
    # else goes to _parse_located, which finds the error's column
    tokens = line.split()
    if not tokens or tokens[0][0] == "#":
        return None
    op = tokens[0]
    try:
        if op == "+" and len(tokens) == 6:
            u, lu, v, lv, le = map(int, tokens[1:])
            # the bitwise or of ints is negative iff one of them is
            if (u | lu | v | lv | le) >= 0 and u < VERTEX_ID_LIMIT and v < VERTEX_ID_LIMIT \
                    and u != v:
                return StreamEvent("+", u, v, lu, lv, le, seq)
        elif op == "-" and len(tokens) == 3:
            u, v = map(int, tokens[1:])
            if 0 <= u < VERTEX_ID_LIMIT and 0 <= v < VERTEX_ID_LIMIT and u != v:
                return StreamEvent("-", u, v, seq=seq)
    except ValueError:
        pass
    return _parse_located(line, lineno)._replace(seq=seq)


def _parse_located(line: str, lineno: int) -> StreamEvent:
    """Token-by-token parse of a non-blank, non-comment line: the reference
    for the split path, and the path whose StreamFormatError carries the
    offending token's column."""
    tokens = list(_TOKEN.finditer(line))
    op = tokens[0].group()

    def intfield(idx: int, what: str) -> int:
        if idx >= len(tokens):
            raise StreamFormatError(f"missing {what}", lineno, len(line) + 1)
        tok = tokens[idx]
        try:
            val = int(tok.group())
        except ValueError:
            raise StreamFormatError(
                f"{what} must be an unsigned integer, got {tok.group()!r}",
                lineno,
                tok.start() + 1,
            ) from None
        if val < 0:
            raise StreamFormatError(f"{what} must be non-negative", lineno, tok.start() + 1)
        return val

    def vertex(idx: int, what: str) -> int:
        val = intfield(idx, what)
        if val >= VERTEX_ID_LIMIT:
            raise StreamFormatError(f"{what} must be below 2**64", lineno, tokens[idx].start() + 1)
        return val

    if op == "+":
        if len(tokens) != 6:
            raise StreamFormatError(
                f"insertion takes 5 fields, got {len(tokens) - 1}", lineno, 1
            )
        u = vertex(1, "source vertex")
        lu = intfield(2, "source label")
        v = vertex(3, "target vertex")
        lv = intfield(4, "target label")
        le = intfield(5, "edge label")
        if u == v:
            raise StreamFormatError("self-loop", lineno, tokens[3].start() + 1)
        return StreamEvent("+", u, v, lu, lv, le)
    if op == "-":
        if len(tokens) != 3:
            raise StreamFormatError(
                f"deletion takes 2 fields, got {len(tokens) - 1}", lineno, 1
            )
        u = vertex(1, "source vertex")
        v = vertex(2, "target vertex")
        if u == v:
            raise StreamFormatError("self-loop", lineno, tokens[2].start() + 1)
        return StreamEvent("-", u, v)
    raise StreamFormatError(f"unknown operation {op!r}", lineno, tokens[0].start() + 1)


def format_event(ev: StreamEvent) -> str:
    if ev.op == "+":
        return f"+ {ev.u} {ev.label_u} {ev.v} {ev.label_v} {ev.label_e}"
    return f"- {ev.u} {ev.v}"


def read_stream(lines: Iterable[str]) -> Iterator[StreamEvent]:
    """Parse a line iterable, numbering events 0.. in arrival order."""
    seq = 0
    for lineno, line in enumerate(lines, start=1):
        ev = _parse(line, lineno, seq)
        if ev is not None:
            yield ev
            seq += 1


def load_stream(path: str) -> list[StreamEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        return list(read_stream(fh))


def write_stream(events: Iterable[StreamEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ev in events:
            fh.write(format_event(ev) + "\n")


def drive_window(events: Iterable[StreamEvent], window: int) -> Iterator[StreamEvent]:
    """Turn an add-only stream into a fully-dynamic one: each edge is deleted
    right before the insertion ``window`` positions after its own.

    The output never deletes an absent edge, and at most ``window`` edges are
    live at any point.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    pending: deque[tuple[int, int]] = deque()
    live: set[tuple[int, int]] = set()
    seq = 0
    for i, ev in enumerate(events):
        if ev.op != "+":
            # events carry no line numbers, so the error names the event
            raise StreamFormatError(
                f"a sliding window needs an add-only stream; input event {i} "
                "(counting from 0) is a deletion"
            )
        if len(pending) >= window:
            old = pending.popleft()
            if old in live:
                live.discard(old)
                yield StreamEvent("-", old[0], old[1], seq=seq)
                seq += 1
        pair = (ev.u, ev.v) if ev.u < ev.v else (ev.v, ev.u)
        pending.append(pair)
        live.add(pair)
        yield ev._replace(seq=seq)
        seq += 1


def _uniform_pairs(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    limit = n * (n - 1) // 2
    if m > limit:
        raise ValueError(f"{m} edges infeasible on {n} vertices")
    if m * 3 >= limit:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        rng.shuffle(pairs)
        return pairs[:m]
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        if a > b:
            a, b = b, a
        chosen.add((a, b))
    pairs = list(chosen)
    rng.shuffle(pairs)
    return pairs


def _power_law_pairs(
    n: int, m: int, rng: random.Random, exponent: float
) -> list[tuple[int, int]]:
    from bisect import bisect_right
    from math import log as _log

    limit = n * (n - 1) // 2
    if m > limit:
        raise ValueError(f"{m} edges infeasible on {n} vertices")
    weights = [(i + 1.0) ** (-exponent) for i in range(n)]
    if m * 3 >= limit:
        # dense request: rejection would stall on saturated hub pairs, so
        # sample pairs without replacement with probability ~ w_a * w_b
        # (exponential-race keys), then randomize arrival order
        keyed = []
        for a in range(n):
            wa = weights[a]
            for b in range(a + 1, n):
                keyed.append((-_log(1.0 - rng.random()) / (wa * weights[b]), a, b))
        keyed.sort()
        pairs = [(a, b) for _, a, b in keyed[:m]]
        rng.shuffle(pairs)
        return pairs
    cum: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    total = cum[-1]

    def draw() -> int:
        return bisect_right(cum, rng.random() * total)

    chosen: set[tuple[int, int]] = set()
    order: list[tuple[int, int]] = []
    attempts = 0
    max_attempts = 400 * m + 10_000
    while len(order) < m:
        attempts += 1
        if attempts > max_attempts:
            raise ValueError("power-law generation stalled; lower m or raise n")
        a = draw()
        b = draw()
        if a == b:
            continue
        if a > b:
            a, b = b, a
        if (a, b) in chosen:
            continue
        chosen.add((a, b))
        order.append((a, b))
    return order


def generate_stream(
    num_vertices: int,
    num_edges: int,
    num_vertex_labels: int,
    num_edge_labels: int,
    model: str = "uniform",
    delete_fraction: float = 0.0,
    seed: int = 0,
    power_law_exponent: float = 0.8,
) -> list[StreamEvent]:
    """Synthetic labeled edge stream, deterministic for a fixed seed.

    ``model`` is ``"uniform"`` or ``"power-law"``. Edges are distinct pairs
    in random arrival order; vertex labels are assigned uniformly on first
    touch and stay fixed; edge labels are uniform. With a positive delete
    fraction, round(fraction * m) deletions of uniformly random live edges
    are interleaved after their targets' insertions.
    """
    if num_vertices < 2 or num_edges < 0:
        raise ValueError("need at least 2 vertices and a non-negative edge count")
    if num_vertex_labels < 1 or num_edge_labels < 1:
        raise ValueError("label universes must be non-empty")
    if not 0.0 <= delete_fraction < 1.0 + 1e-9:
        raise ValueError(f"delete fraction must sit in [0, 1], got {delete_fraction}")
    rng = random.Random(seed)
    if model == "uniform":
        pairs = _uniform_pairs(num_vertices, num_edges, rng)
    elif model == "power-law":
        pairs = _power_law_pairs(num_vertices, num_edges, rng, power_law_exponent)
    else:
        raise ValueError(f"unknown model {model!r}")

    labels: dict[int, int] = {}

    def label_of(v: int) -> int:
        lab = labels.get(v)
        if lab is None:
            lab = rng.randrange(num_vertex_labels)
            labels[v] = lab
        return lab

    adds = deque(
        StreamEvent("+", a, b, label_of(a), label_of(b), rng.randrange(num_edge_labels))
        for a, b in pairs
    )
    deletions = int(round(num_edges * delete_fraction))
    events: list[StreamEvent] = []
    live: list[tuple[int, int]] = []
    seq = 0
    while adds or deletions > 0:
        remaining = len(adds) + deletions
        if (
            deletions > 0
            and live
            and rng.random() < deletions / remaining
        ):
            idx = rng.randrange(len(live))
            pair = live[idx]
            live[idx] = live[-1]
            live.pop()
            events.append(StreamEvent("-", pair[0], pair[1], seq=seq))
            deletions -= 1
        elif adds:
            ev = adds.popleft()
            events.append(ev._replace(seq=seq))
            live.append((ev.u, ev.v))
        else:
            break  # deletions left but nothing live; drop them
        seq += 1
    return events
