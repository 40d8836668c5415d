"""Smoke test of the benchmark's per-layer tracer (``bench/layers.py``).

``Tracer.install`` wraps module-level names of ``streamfsm`` in place, so it
runs in a subprocess and its wrappers cannot leak into other tests. A
renamed entry point would leave its layer silently empty under
``bench/run.py --trace 1``; here every sampler must record calls in the
layers it runs through."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import streamfsm
from layers import Tracer
from streamfsm.engine import EngineConfig, build_engine
from streamfsm.stream import generate_stream

tracer = Tracer()
tracer.install(streamfsm)
events = generate_stream(80, 600, 3, 2, model="power-law", delete_fraction=0.3, seed=7)
calls = {}
for name, mode, w_mode in (("sr", "sr", "exact"), ("osr_exact", "osr", "exact"),
                           ("osr_sketch", "osr", "sketch")):
    eng = build_engine(EngineConfig(k=3, mode=mode, w_mode=w_mode, dynamic=True,
                                    sample_size=40, sketch_size=8, seed=3))
    tracer.phase = name
    for ev in events:
        tracer.call_root(eng.process_event, ev)
    calls[name] = {layer: n for (phase, layer), n in tracer.calls.items() if phase == name}
print(json.dumps(calls))
"""


def test_tracer_records_the_sampling_layers():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    calls = json.loads(out.stdout)
    for name in ("sr", "osr_exact", "osr_sketch"):
        assert calls[name].get("sampling.pair", 0) > 0, (name, calls[name])
    # sr flips its coins through sampling.skip_rs_sequential, which no
    # layer wraps; osr draws every skip through the wrapped one-shot draws
    for name in ("osr_exact", "osr_sketch"):
        assert calls[name].get("sampling.skip", 0) > 0, (name, calls[name])
    assert calls["osr_sketch"].get("sketch.upkeep", 0) > 0, calls["osr_sketch"]
    assert "sketch.upkeep" not in calls["osr_exact"], calls["osr_exact"]
