"""Benchmark of the four streamfsm engines on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Generates the workload's stream
with the benchmark's own seeded generator and computes its ground truth
with the benchmark's own oracle. Then ``exact``, ``sr``, ``osr`` exact-W and
``osr`` sketch-W each replay the stream in a closed loop, in a process of
their own, and check their own output. The processes take turns, one at a
time, so that each engine's timed replay spans the whole run: on the M=1000
workload a turn is one whole replay (a round) per engine and turns go on
for ``--seconds``; on the M=283,977 workloads the single round is cut into
a fixed number of turns. The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (engine rounds, each one
replay and its checks) and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` additionally runs each engine once more
under the layer wrappers of ``layers.py`` and reports the per-layer metrics
and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import select
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from workloads import WORKLOADS, expand_window, generate, write_stream  # noqa: E402

MODES = ("exact", "sr", "osr_exact", "osr_sketch")
SAMPLING = MODES[1:]
OSR = ("osr_exact", "osr_sketch")
DEADLINE_S = 170.0


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric ``--trace 1`` prints."""
    out = [("stream.parse_us_per_event", "us/event"),
           ("stream.window_us_per_event", "us/event")]
    for m in MODES:
        out.append((f"engine.self_us_per_event.{m}", "us/event"))
    for m in SAMPLING:
        out.append((f"engine.admit_ratio.{m}", "ratio"))
    for m in MODES:
        out.append((f"graph.update_us_per_event.{m}", "us/event"))
    for m in SAMPLING:
        out.append((f"graph.induced_per_event.{m}", "calls/event"))
        out.append((f"graph.induced_us_per_event.{m}", "us/event"))
    for m in SAMPLING:
        out.append((f"sampling.pair_lookup_us_per_event.{m}", "us/event"))
        out.append((f"sampling.pair_scanned_per_event.{m}", "entries/event"))
        out.append((f"sampling.pair_hit_ratio.{m}", "ratio"))
        out.append((f"sampling.placement_us_per_event.{m}", "us/event"))
    for m in OSR:
        out.append((f"sampling.skip_draws_per_event.{m}", "draws/event"))
        out.append((f"sampling.skip_us_per_event.{m}", "us/event"))
    out.append(("sketch.upkeep_us_per_event", "us/event"))
    out.append(("sketch.estimate_share", "ratio"))
    out.append(("sketch.population_rel_error", "ratio"))
    for m in SAMPLING:
        out.append((f"pattern.canon_per_snapshot.{m}", "calls"))
        out.append((f"pattern.canon_us_per_snapshot.{m}", "us"))
    for m in MODES:
        for module in ("graph", "sampling", "sketch", "engine", "pattern", "stream"):
            # only the structures the engine has
            if (module, m) == ("sampling", "exact") or (module == "sketch" and m != "osr_sketch"):
                continue
            out.append((f"mem.{module}_mb.{m}", "MB"))
    for m in MODES:
        out.append((f"trace.overhead_ratio.{m}", "ratio"))
    return out


def end_to_end_names() -> list[tuple[str, str]]:
    out = [("setup_s", "s")]
    out += [(f"events_per_s.{m}", "events/s") for m in MODES]
    out.append(("report_ms", "ms"))
    out += [(f"peak_rss_mb.{m}", "MB") for m in MODES]
    return out


class EngineProcess:
    """One engine's process, driven a step at a time over pipes."""

    def __init__(self, root, workload, mode, stream, truth, seed, trace, deadline) -> None:
        self.mode = mode
        self.deadline = deadline
        self.err_path = os.path.join(HERE, "_work", f"{workload}-{mode}-{trace}.err")
        self.err = open(self.err_path, "w", encoding="utf-8")
        cmd = [sys.executable, os.path.join(HERE, "engine_proc.py"), "--root", root,
               "--workload", workload, "--mode", mode, "--stream", stream, "--truth", truth,
               "--seed", str(seed), "--trace", str(trace)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True, cwd=HERE)

    def call(self, command: str) -> str:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        left = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, left))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            with open(self.err_path, encoding="utf-8") as fh:
                detail = fh.read().strip() or "no reply before the deadline"
            raise RuntimeError(f"{self.mode} engine process failed:\n{detail}")
        return line

    def finish(self) -> dict:
        result = json.loads(self.call("finish"))
        self.close()
        return result

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.err.close()


def run_engines(root, name, stream, truth, seed, seconds, trace, deadline) -> dict:
    """Run the four engines' processes in turn, one step each per turn, so
    that every engine's timed replay spreads over the whole run; only one
    process computes at any time. A workload cut into slices takes exactly
    that many turns; otherwise turns, each a whole round per engine,
    continue until ``seconds`` have passed."""
    workload = WORKLOADS[name]
    procs = []
    try:
        for m in MODES:
            procs.append(EngineProcess(root, name, m, stream, truth, seed, trace, deadline))
        end = time.monotonic() + seconds
        turns = 0
        while True:
            for p in procs:
                p.call("step")
            turns += 1
            if workload.slices:
                if turns == workload.slices:
                    break
            elif trace or time.monotonic() >= end:
                break
        return {p.mode: p.finish() for p in procs}
    finally:
        for p in procs:
            p.close()


def prepare(root: str, name: str, seed: int) -> tuple[str, str, dict]:
    """Write the stream and its ground truth; returns their paths and facts."""
    workload = WORKLOADS[name]
    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    events = generate(workload, seed)
    # one set of files per workload, replaced by each run
    stream = os.path.join(work, f"{name}.txt")
    sha = write_stream(events, stream)
    replayed = expand_window(events, workload.window) if workload.window else events
    graph = oracle.replay(replayed)
    counts, population = oracle.true_counts(graph)
    truth_path = os.path.join(work, f"{name}.truth.json")
    final_edges = [(u, graph.labels[u], v, graph.labels[v], lab)
                   for u, nbrs in graph.adj.items() for v, lab in nbrs.items() if u < v]
    digest = oracle.event_digest((ev[0], ev[1], ev[3] if ev[0] == "+" else ev[2])
                                 for ev in replayed)
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump({"counts": counts, "population": population, "final_edges": final_edges,
                   "event_digest": digest}, fh)
    facts = {"stream_sha256": sha, "events": len(replayed), "true_population": population,
             "true_classes": len(counts)}
    return stream, truth_path, facts


def per_event(rounds, key: str) -> float:
    return sum(r[key] for r in rounds) / sum(r["events"] for r in rounds)


def end_to_end(results: dict, prefix: str = "scaled_") -> dict:
    """The end-to-end metrics from the gauge-scaled timings, or from the
    raw ones with ``prefix=""``."""
    rounds = [r for m in MODES for r in results[m]["rounds"]]
    snaps = [s for m in SAMPLING for r in results[m]["rounds"]
             for s in r[prefix + "snapshot_s"]]
    metrics = {"setup_s": statistics.median(r[prefix + "setup_s"] for r in rounds)}
    for m in MODES:
        metrics[f"events_per_s.{m}"] = 1.0 / per_event(results[m]["rounds"], prefix + "busy_s")
    metrics["report_ms"] = statistics.median(snaps) * 1000.0
    for m in MODES:
        metrics[f"peak_rss_mb.{m}"] = results[m]["peak_rss_mb"]
    return metrics


def per_layer(results: dict, traced: dict, true_population: int) -> dict:
    metrics = {}
    untraced = [r for m in MODES for r in results[m]["rounds"]]
    metrics["stream.parse_us_per_event"] = statistics.median(
        r["parse_s"] / r["file_events"] * 1e6 for r in untraced)
    metrics["stream.window_us_per_event"] = statistics.median(
        r["window_s"] / r["events"] * 1e6 for r in untraced)
    for m in MODES:
        t = traced[m]
        r = t["rounds"][0]
        events = r["events"]

        def us(layer, phase="event", t=t, events=events):
            return t["layers"].get(f"{phase}/{layer}", [0.0, 0])[0] / events * 1e6

        def calls(layer, phase="event", t=t):
            return t["layers"].get(f"{phase}/{layer}", [0.0, 0])[1]

        metrics[f"engine.self_us_per_event.{m}"] = r["engine_self_s"] / events * 1e6
        metrics[f"graph.update_us_per_event.{m}"] = us("graph")
        if m in SAMPLING:
            metrics[f"engine.admit_ratio.{m}"] = r["admitted"] / max(1, r["created"])
            metrics[f"graph.induced_per_event.{m}"] = calls("graph.induced") / events
            metrics[f"graph.induced_us_per_event.{m}"] = us("graph.induced")
            metrics[f"sampling.pair_lookup_us_per_event.{m}"] = us("sampling.pair")
            metrics[f"sampling.pair_scanned_per_event.{m}"] = t["pair_scanned"] / events
            metrics[f"sampling.pair_hit_ratio.{m}"] = t["pair_hits"] / max(1, t["pair_scanned"])
            metrics[f"sampling.placement_us_per_event.{m}"] = us("sampling.place")
            snaps = len(r["snapshot_s"])
            metrics[f"pattern.canon_per_snapshot.{m}"] = calls("pattern", "snapshot") / snaps
            metrics[f"pattern.canon_us_per_snapshot.{m}"] = (
                t["layers"].get("snapshot/pattern", [0.0, 0])[0] / snaps * 1e6)
        if m in OSR:
            metrics[f"sampling.skip_draws_per_event.{m}"] = calls("sampling.skip") / events
            metrics[f"sampling.skip_us_per_event.{m}"] = us("sampling.skip")
        if m == "osr_sketch":
            metrics["sketch.upkeep_us_per_event"] = us("sketch.upkeep")
            metrics["sketch.estimate_share"] = r["estimated_inserts"] / max(1, r["inserts"])
            metrics["sketch.population_rel_error"] = (
                abs(r["population"] - true_population) / true_population)
        for module, mb in r["mem_mb"].items():
            metrics[f"mem.{module}_mb.{m}"] = mb
        base = per_event(results[m]["rounds"], "scaled_busy_s")
        metrics[f"trace.overhead_ratio.{m}"] = r["scaled_busy_s"] / events / base - 1.0
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "streamfsm", "__init__.py")):
        print(f"error: no streamfsm sources under {root}/src; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    stream, truth, facts = prepare(root, args.workload, args.seed)
    results = run_engines(root, args.workload, stream, truth, args.seed, args.seconds, 0,
                          deadline)
    traced = {}
    if args.trace:
        traced = run_engines(root, args.workload, stream, truth, args.seed, 0.0, 1, deadline)
    runs = list(results.values()) + list(traced.values())
    every = [r for res in runs for r in res["rounds"]]
    fails = {res["mode"]: [f for r in res["rounds"] for f in r["fails"]] for res in runs}
    info = dict(facts, workload=args.workload, seed=args.seed,
                fails={m: f for m, f in fails.items() if f})
    for m in SAMPLING:
        r = results[m]["rounds"][0]
        info[f"fill_event.{m}"] = r["fill_event"]
        info[f"min_occupancy_after_fill.{m}"] = r["min_occupancy_after_fill"]
        info[f"worst_deviation.{m}"] = r.get("worst_deviation")
        info[f"population.{m}"] = r["population"]
    info["eps_half"] = results["sr"]["rounds"][0].get("eps_half")
    info["rounds"] = {m: len(results[m]["rounds"]) for m in MODES}
    info["unscaled"] = {k: v for k, v in end_to_end(results, "").items()
                        if not k.startswith("peak_rss")}
    print(json.dumps(info))
    if args.trace:
        values, names = per_layer(results, traced, facts["true_population"]), per_layer_names()
    else:
        values, names = end_to_end(results), end_to_end_names()
    failed = sum(1 for r in every if r["fails"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
