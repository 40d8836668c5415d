"""One engine's share of a benchmark run, in a process of its own.

Started by ``run.py``, never imported by it. Replays the workload's stream
through one engine in a closed loop, in whole rounds (set-up, replay with
snapshots, checks), one step per ``step`` line on stdin, and prints one
JSON object on ``finish``. With ``--trace 1`` the layer wrappers of
``layers.py`` are installed first.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from time import perf_counter

import oracle
from workloads import (EDGE_LABELS, REFERENCE, VERTEX_LABELS, WORKLOADS, generate,
                       snapshot_points)

CLASSES = len(oracle.all_classes(VERTEX_LABELS, EDGE_LABELS))
MODES = {
    "exact": ("exact", "exact"),
    "sr": ("sr", "exact"),
    "osr_exact": ("osr", "exact"),
    "osr_sketch": ("osr", "sketch"),
}


def setup(sf, workload, mode: str, seed: int, path: str):
    """Everything a run of the command line does before its first event:
    parse, window expansion, sizing M from the label universe, building the
    engine. Returns the engine, the events and the timings."""
    t0 = perf_counter()
    events = sf.load_stream(path)
    t1 = perf_counter()
    file_events = len(events)
    if workload.window is not None:
        events = list(sf.drive_window(events, workload.window))
    t2 = perf_counter()
    engine_mode, w_mode = MODES[mode]
    num_v = num_e = None
    if workload.sample_size is None and engine_mode != "exact":
        num_v = 1 + max(max(ev.label_u, ev.label_v) for ev in events if ev.op == "+")
        num_e = 1 + max(ev.label_e for ev in events if ev.op == "+")
    engine = sf.build_engine(sf.EngineConfig(
        k=3, tau=workload.tau, epsilon=epsilon_of(workload), delta=workload.delta,
        mode=engine_mode, w_mode=w_mode, dynamic=True, sample_size=workload.sample_size,
        sketch_size=workload.sketch_size, seed=seed,
        num_vertex_labels=num_v, num_edge_labels=num_e,
    ))
    t3 = perf_counter()
    return engine, events, {"setup_s": t3 - t0, "parse_s": t1 - t0, "window_s": t2 - t1,
                            "file_events": file_events}


def epsilon_of(workload) -> float:
    if workload.epsilon is not None:
        return workload.epsilon
    return oracle.epsilon_for(workload.sample_size, CLASSES, workload.delta)


class SpeedGauge:
    """The machine's speed at a moment, from a fixed computation of the
    benchmark's own: its oracle over a small seeded graph.

    The 2-core virtual machine this benchmark was built on switches between
    speed states about 1.5x apart, for seconds at a time, which no
    affordable run length averages away. Every timing is therefore scaled
    by ``factor()`` measured right beside it: a timed stretch counts as
    ``seconds * NOMINAL_S / reference seconds``. The program never runs
    this code, so a change to the program cannot move the gauge.
    """

    NOMINAL_S = 0.008  # the reference's time on the reference machine

    def __init__(self) -> None:
        self._events = generate(REFERENCE, 0)

    def factor(self) -> float:
        # a collection here would walk the engine's heap, not the gauge's
        gc.disable()
        try:
            t0 = perf_counter()
            oracle.true_counts(oracle.replay(self._events))
            elapsed = perf_counter() - t0
        finally:
            gc.enable()
        return self.NOMINAL_S / elapsed


SEGMENT_S = 0.25  # event time between two gauge readings


def replay(engine, events, points, gauge, pauses=(), tracer=None):
    """Closed loop over the stream: each event is applied when the previous
    ``process_event`` has returned. Snapshots, as ``streamfsm run
    --report-every`` takes them, are timed apart from the events.

    A generator: it yields after each event count in ``pauses`` and returns
    the round's figures when the stream ends."""
    res = getattr(engine, "reservoir", None)
    cap = res.capacity if res is not None else 0
    busy = scaled = segment = 0.0
    engine_self = 0.0
    snaps: list[float] = []
    snaps_scaled: list[float] = []
    created = admitted = inserts = estimated_inserts = 0
    fill_event = None
    min_occupancy = None
    estimate = report = None
    mem = None
    next_points = list(points)
    pauses = set(pauses)
    pc = perf_counter
    process = engine.process_event
    for i, ev in enumerate(events, start=1):
        if tracer is None:
            t0 = pc()
            st = process(ev)
            segment += pc() - t0
        else:
            tracer.phase = "event"
            before = tracer.calls.get(("event", "sketch.estimate"), 0)
            st, elapsed, own = tracer.call_root(process, ev)
            segment += elapsed
            engine_self += own
            if ev.op == "+":
                inserts += 1
                if tracer.calls.get(("event", "sketch.estimate"), 0) > before:
                    estimated_inserts += 1
        created += st.created
        admitted += st.admitted
        if res is not None:
            occ = len(res.slots)
            if fill_event is not None:
                if occ < min_occupancy:
                    min_occupancy = occ
            elif occ == cap:
                fill_event = i
                min_occupancy = occ
        at_point = bool(next_points) and i == next_points[0]
        if segment >= SEGMENT_S or (at_point or i in pauses or i == len(events)):
            busy += segment
            scaled += segment * gauge.factor()
            segment = 0.0
        if at_point:
            next_points.pop(0)
            if tracer is not None and not next_points:
                mem = memory_by_owner(engine, events)
            if tracer is not None:
                tracer.phase = "snapshot"
            before = gauge.factor()
            t0 = pc()
            estimate = engine.estimate_frequencies()
            report = engine.report_frequent()
            snaps.append(pc() - t0)
            snaps_scaled.append(snaps[-1] * (before + gauge.factor()) / 2.0)
        if i in pauses:
            yield
    if tracer is not None:
        tracer.phase = "done"
    return {
        "events": len(events), "busy_s": busy, "scaled_busy_s": scaled,
        "engine_self_s": engine_self, "snapshot_s": snaps, "scaled_snapshot_s": snaps_scaled,
        "created": created, "admitted": admitted, "inserts": inserts,
        "estimated_inserts": estimated_inserts,
        "fill_event": fill_event, "min_occupancy_after_fill": min_occupancy,
        "estimate": estimate, "report": report, "mem_mb": mem,
    }


def memory_by_owner(engine, events) -> dict[str, float]:
    import streamfsm.pattern
    from layers import retained_mb

    owners = [("stream", events), ("graph", engine.graph)]
    for name, attr in (("sampling", "reservoir"), ("sketch", "sketches")):
        if getattr(engine, attr, None) is not None:
            owners.append((name, getattr(engine, attr)))
    owners.append(("pattern", getattr(streamfsm.pattern, "_MEMO", {})))
    owners.append(("engine", engine))
    return retained_mb(owners)


def own_class(key) -> str:
    return oracle.class_of(key.vertex_labels, {(i, j): lab for i, j, lab in key.edges})


def check(engine, mode: str, out: dict, truth: dict, graph: oracle.Graph, workload) -> list[str]:
    """The engine's final state against the benchmark's own truth."""
    fails: list[str] = []
    est, rep = out["estimate"], out["report"]
    n_true = truth["population"]
    true_counts = truth["counts"]
    keys = {}
    for key in est.counts:
        cls = own_class(key)
        if cls in keys:
            fails.append(f"two pattern keys for class {cls}")
        keys[cls] = key
    if mode == "exact":
        counts = {own_class(k): c for k, c in est.counts.items()}
        if counts != true_counts:
            fails.append("exact per-class counts differ from the truth")
        if est.population != n_true:
            fails.append(f"exact N={est.population}, true N={n_true}")
        return fails
    if mode != "osr_sketch" and est.population != n_true:
        fails.append(f"N={est.population}, true N={n_true}")
    expected_m = workload.sample_size or oracle.sample_size_for(
        CLASSES, workload.epsilon, workload.delta)
    if engine.reservoir.capacity != expected_m:
        fails.append(f"M={engine.reservoir.capacity}, expected {expected_m}")
    slots = engine.reservoir.slots
    if len({inst.vertices for inst in slots}) != len(slots):
        fails.append("a vertex set is sampled twice")
    adj, labels = graph.adj, graph.labels
    bad = 0
    for inst in slots:
        vs = inst.vertices
        if len(vs) != 3:
            bad += 1
            continue
        a, b, c = vs
        if not a < b < c or a not in labels or b not in labels or c not in labels:
            bad += 1
            continue
        ra, rb = adj[a], adj[b]
        edges = []
        for i, j, lab in ((0, 1, ra.get(b)), (0, 2, ra.get(c)), (1, 2, rb.get(c))):
            if lab is not None:
                edges.append((i, j, lab))
        if (len(edges) < 2 or tuple(edges) != tuple(inst.edges)
                or (labels[a], labels[b], labels[c]) != tuple(inst.vertex_labels)):
            bad += 1
    if bad:
        fails.append(f"{bad} sampled members are not live connected 3-sets as stored")
    occ = est.occupancy
    if occ != len(slots):
        fails.append(f"reported occupancy {occ} != {len(slots)} slots")
    if workload.churn == 0 and workload.window is None:
        cap = engine.reservoir.capacity
        if occ != min(cap, n_true):
            fails.append(f"occupancy {occ} != min(M={cap}, N={n_true})")
    eps = oracle.epsilon_for(occ, CLASSES, workload.delta)
    shares = {own_class(k): p for k, p in est.shares.items()}
    worst = 0.0
    for cls in set(shares) | set(true_counts):
        dev = abs(shares.get(cls, 0.0) - true_counts.get(cls, 0) / n_true)
        worst = max(worst, dev)
    if worst > eps / 2:
        fails.append(f"worst share deviation {worst:.4g} > eps/2 = {eps / 2:.4g}")
    reported = {own_class(k) for k, _ in rep.entries}
    tau = workload.tau
    for cls, c in true_counts.items():
        p = c / n_true
        if p >= tau and cls not in reported:
            fails.append(f"frequent class {cls} (share {p:.4g}) not reported")
        if p < tau - eps and cls in reported:
            fails.append(f"class {cls} (share {p:.4g}) reported below tau - eps")
    out["worst_deviation"] = worst
    out["eps_half"] = eps / 2
    return fails


class Session:
    """The engine's rounds, advanced one step per command from ``run.py``.

    With ``workload.slices`` 0 a step is one whole round; otherwise the
    single round's replay is cut into that many steps, so that the four
    engines' replays interleave over the whole run.
    """

    def __init__(self, sf, workload, args, tracer) -> None:
        self.sf, self.workload, self.args, self.tracer = sf, workload, args, tracer
        self.rounds: list[dict] = []
        self.peak_rss_mb = None
        self.truth = self.graph = None
        self.current = None
        self.gauge = SpeedGauge()

    def step(self) -> None:
        if self.current is None:
            self._start_round()
        engine, events, times, gen = self.current
        try:
            next(gen)
        except StopIteration as stop:
            self.current = None
            self._end_round(engine, events, times, stop.value)

    def _start_round(self) -> None:
        if self.tracer is not None:
            self.tracer.phase = "setup"
        factor = self.gauge.factor()
        engine, events, times = setup(self.sf, self.workload, self.args.mode, self.args.seed,
                                      self.args.stream)
        times["scaled_setup_s"] = times["setup_s"] * factor
        n = len(events)
        points = snapshot_points(self.workload, n)
        k = self.workload.slices
        pauses = [n * i // k for i in range(1, k)] if k else []
        self.current = (engine, events, times, replay(engine, events, points, self.gauge,
                                                      pauses, self.tracer))

    def _end_round(self, engine, events, times, out) -> None:
        # the checks allocate little; a collection would walk the sample
        gc.disable()
        try:
            self._check_round(engine, events, times, out)
        finally:
            gc.enable()

    def _check_round(self, engine, events, times, out) -> None:
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            with open(self.args.truth, encoding="utf-8") as fh:
                self.truth = json.load(fh)
            self.graph = oracle.Graph()
            for ev in self.truth["final_edges"]:
                self.graph.apply(("+", *ev))
        fails = []
        digest = oracle.event_digest((ev.op, ev.u, ev.v) for ev in events)
        if digest != self.truth["event_digest"]:
            fails.append("the replayed events differ from the reference expansion")
        fails += check(engine, self.args.mode, out, self.truth, self.graph, self.workload)
        out.pop("estimate")
        out.pop("report")
        out.update(times, fails=fails, population=engine.population)
        self.rounds.append(out)

    def result(self) -> dict:
        if self.current is not None:
            raise RuntimeError("finish in the middle of a round")
        result = {"mode": self.args.mode, "peak_rss_mb": self.peak_rss_mb,
                  "rounds": self.rounds}
        tracer = self.tracer
        if tracer is not None:
            result["layers"] = {
                f"{phase}/{layer}": [t, tracer.calls[(phase, layer)]]
                for (phase, layer), t in tracer.self_s.items()
            }
            result["pair_scanned"] = tracer.pair_scanned
            result["pair_hits"] = tracer.pair_hits
        return result


def main() -> int:
    """Serve ``step`` and ``finish`` commands, one per line on stdin."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=sorted(MODES))
    ap.add_argument("--stream", required=True)
    ap.add_argument("--truth", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))
    import streamfsm as sf

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install(sf)
    session = Session(sf, WORKLOADS[args.workload], args, tracer)
    for line in sys.stdin:
        command = line.strip()
        if command == "step":
            session.step()
            print("ok", flush=True)
        elif command == "finish":
            print(json.dumps(session.result()), flush=True)
            return 0
        else:
            raise ValueError(f"unknown command {command!r}")
    return 1


if __name__ == "__main__":
    code = main()
    # skip tearing down a sample of up to 284k members object by object
    os._exit(code)
