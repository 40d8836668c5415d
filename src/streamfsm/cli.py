"""Command-line front end.

Subcommands:
  run       one engine over a stream file; snapshot reports plus a final CSV row
  compare   an approximate engine and the exact counter in lockstep; CSV metrics
  gen       synthetic stream generation
  patterns  pattern-class count and the recommended sample size

Exit codes: 0 success, 1 usage error, 2 stream-format error, 3 invariant
violation.
"""

from __future__ import annotations

import argparse
import sys
import time

from .engine import (
    EngineConfig,
    EngineError,
    build_engine,
    metrics,
    recommended_sample_size,
    snapshot_lines,
)
from .graph import GraphError
from .pattern import PatternBudgetError, count_patterns
from .sampling import SampleInvariantError
from .sketch import SketchError
from .stream import (
    StreamEvent,
    StreamFormatError,
    drive_window,
    generate_stream,
    load_stream,
    write_stream,
)

CSV_HEADER = "event,mode,k,tau,epsilon,delta,M,re,precision,recall,avg_update_ns"


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _csv_row(event, mode, cfg, m, re_, precision, recall, avg_ns) -> str:
    return ",".join(
        [
            str(event),
            mode,
            str(cfg.k),
            _fmt(cfg.tau),
            _fmt(cfg.epsilon),
            _fmt(cfg.delta),
            str(m),
            re_,
            precision,
            recall,
            avg_ns,
        ]
    )


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=3, help="subgraph size")
    p.add_argument("--tau", type=float, default=0.1, help="frequency threshold")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--dynamic", action="store_true", help="allow deletion events")
    p.add_argument("--window", type=int, default=None, metavar="W",
                   help="sliding window over an add-only stream")
    p.add_argument("--sample-size", type=int, default=None, metavar="M")
    p.add_argument("--sketch-size", type=int, default=64, metavar="S")
    p.add_argument("--w-mode", choices=("exact", "sketch"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report-every", type=int, default=0, metavar="N",
                   help="emit a report every N events (0: final only)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--missing-delete", choices=("error", "skip"), default="error")
    p.add_argument("--timing", action="store_true",
                   help="fill the avg_update_ns column (breaks byte-for-byte rerun equality)")


def _prepare_events(args) -> list[StreamEvent]:
    events = load_stream(args.stream)
    if args.window is not None:
        if any(ev.op == "-" for ev in events):
            raise _UsageError("--window conflicts with an explicitly dynamic stream")
        events = list(drive_window(events, args.window))
    return events


def _label_universe(events) -> tuple[int, int]:
    max_v = -1
    max_e = -1
    for ev in events:
        if ev.op == "+":
            if ev.label_u > max_v:
                max_v = ev.label_u
            if ev.label_v > max_v:
                max_v = ev.label_v
            if ev.label_e > max_e:
                max_e = ev.label_e
    return max_v + 1, max_e + 1


class _UsageError(Exception):
    pass


def _build_config(args, mode: str, events) -> EngineConfig:
    for flag in ("report_every", "verify_every"):
        # n % -7 == 0 exactly when n % 7 == 0, so a negative interval would
        # act as its absolute value
        every = getattr(args, flag, 0)
        if every < 0:
            raise _UsageError(f"--{flag.replace('_', '-')} must be >= 0, got {every}")
    num_v = num_e = None
    if args.sample_size is None and mode != "exact":
        num_v, num_e = _label_universe(events)
        if num_v == 0 or num_e == 0:
            raise _UsageError(
                "cannot derive the sample size from an empty stream; pass --sample-size"
            )
    try:
        return EngineConfig(
            k=args.k,
            tau=args.tau,
            epsilon=args.epsilon,
            delta=args.delta,
            mode=mode,
            dynamic=args.dynamic or args.window is not None,
            sample_size=args.sample_size,
            sketch_size=args.sketch_size,
            w_mode=args.w_mode,
            seed=args.seed,
            num_vertex_labels=num_v,
            num_edge_labels=num_e,
            missing_delete=args.missing_delete,
        )
    except EngineError as exc:
        # a rejected flag value is a usage error, not a stream error
        raise _UsageError(str(exc)) from exc


def _engine_m(engine) -> int:
    return getattr(engine, "sample_size", 0)


def _cmd_run(args) -> int:
    events = _prepare_events(args)
    config = _build_config(args, args.mode, events)
    engine = build_engine(config)
    out: list[str] = []
    total_ns = 0
    every = args.report_every
    last_snapshot = -1
    for ev in events:
        if args.timing:
            t0 = time.perf_counter_ns()
            engine.process_event(ev)
            total_ns += time.perf_counter_ns() - t0
        else:
            engine.process_event(ev)
        if every and engine.events_seen % every == 0:
            out.extend(snapshot_lines(engine.estimate_frequencies(), engine.report_frequent()))
            last_snapshot = engine.events_seen
    if engine.events_seen != last_snapshot:
        out.extend(snapshot_lines(engine.estimate_frequencies(), engine.report_frequent()))
    avg = str(total_ns // max(1, engine.events_seen)) if args.timing else ""
    out.append(CSV_HEADER)
    out.append(
        _csv_row(engine.events_seen, config.mode, config, _engine_m(engine),
                 "nan", "nan", "nan", avg)
    )
    _write_out(args.out, out)
    return 0


def _cmd_compare(args) -> int:
    events = _prepare_events(args)
    config = _build_config(args, args.mode, events)
    exact_cfg = EngineConfig(
        k=args.k, tau=args.tau, epsilon=args.epsilon, delta=args.delta,
        mode="exact", dynamic=config.dynamic, seed=args.seed,
        missing_delete=args.missing_delete,
    )
    approx = build_engine(config)
    exact = build_engine(exact_cfg)
    rows = [CSV_HEADER]
    total_ns = 0
    every = args.report_every
    last_emitted = -1

    def emit() -> None:
        nonlocal last_emitted
        last_emitted = approx.events_seen
        est = approx.estimate_frequencies()
        truth = exact.estimate_frequencies()
        result = metrics(est, truth, args.tau, args.epsilon)
        avg = str(total_ns // max(1, approx.events_seen)) if args.timing else ""
        rows.append(
            _csv_row(approx.events_seen, config.mode, config, _engine_m(approx),
                     _fmt(result.relative_error), _fmt(result.precision),
                     _fmt(result.recall), avg)
        )

    for ev in events:
        if args.timing:
            t0 = time.perf_counter_ns()
            approx.process_event(ev)
            total_ns += time.perf_counter_ns() - t0
        else:
            approx.process_event(ev)
        exact.process_event(ev)
        if args.verify_every and exact.events_seen % args.verify_every == 0:
            exact.verify_counts()
        if every and approx.events_seen % every == 0:
            emit()
    if approx.events_seen != last_emitted:
        emit()
    _write_out(args.out, rows)
    return 0


def _cmd_gen(args) -> int:
    events = generate_stream(
        num_vertices=args.n,
        num_edges=args.m,
        num_vertex_labels=args.labels,
        num_edge_labels=args.edge_labels,
        model=args.model,
        delete_fraction=args.delete_fraction,
        seed=args.seed,
        power_law_exponent=args.exponent,
    )
    write_stream(events, args.out)
    return 0


def _cmd_patterns(args) -> int:
    t_k = count_patterns(args.k, args.labels, args.edge_labels)
    m = recommended_sample_size(t_k, args.epsilon, args.delta)
    print(f"T_k={t_k}")
    print(f"M={m}")
    return 0


def _write_out(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamfsm",
        description="Frequent-subgraph mining over labeled edge streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one engine over a stream file")
    p_run.add_argument("stream", help="stream file path")
    p_run.add_argument("--mode", choices=("exact", "sr", "osr"), default="sr")
    _add_engine_flags(p_run)

    p_cmp = sub.add_parser("compare", help="approximate engine vs exact counts")
    p_cmp.add_argument("stream")
    p_cmp.add_argument("--mode", choices=("sr", "osr"), default="sr")
    p_cmp.add_argument("--verify-every", type=int, default=0, metavar="V",
                       help="recount exact engine from scratch every V events")
    _add_engine_flags(p_cmp)

    p_gen = sub.add_parser("gen", help="generate a synthetic stream")
    p_gen.add_argument("--n", type=int, required=True, help="vertex count")
    p_gen.add_argument("--m", type=int, required=True, help="edge count")
    p_gen.add_argument("--labels", type=int, default=1)
    p_gen.add_argument("--edge-labels", type=int, default=1)
    p_gen.add_argument("--model", choices=("uniform", "power-law"), default="uniform")
    p_gen.add_argument("--delete-fraction", type=float, default=0.0)
    p_gen.add_argument("--exponent", type=float, default=0.8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_pat = sub.add_parser("patterns", help="pattern-class count and sample size")
    p_pat.add_argument("--k", type=int, default=3)
    p_pat.add_argument("--labels", type=int, required=True)
    p_pat.add_argument("--edge-labels", type=int, required=True)
    p_pat.add_argument("--epsilon", type=float, default=0.01)
    p_pat.add_argument("--delta", type=float, default=0.1)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "gen": _cmd_gen,
        "patterns": _cmd_patterns,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PatternBudgetError, ValueError) as exc:
        if isinstance(exc, (StreamFormatError, GraphError, EngineError, SketchError)):
            print(f"stream error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SampleInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
