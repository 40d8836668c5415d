import subprocess
import sys
from pathlib import Path

import pytest

STREAM = """\
+ 1 0 2 0 0
+ 2 0 3 0 0
+ 1 0 3 0 0
+ 3 0 4 0 0
"""


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "streamfsm", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_patterns_subcommand():
    out = run_cli("patterns", "--k", "3", "--labels", "1", "--edge-labels", "1")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "T_k=2"
    assert lines[1] == f"M={int(__import__('math').ceil(__import__('math').log(20) * 4.01 / 0.0001))}"


def test_run_deterministic_outputs(tmp_path: Path):
    stream = tmp_path / "s.txt"
    stream.write_text(STREAM)
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    for out in (out1, out2):
        r = run_cli(
            "run", str(stream), "--mode", "sr", "--sample-size", "5",
            "--seed", "3", "--tau", "0.5", "--epsilon", "0.2", "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "# event=4 N=" in text
    assert "event,mode,k,tau,epsilon,delta,M,re,precision,recall,avg_update_ns" in text


def test_run_window_conflict(tmp_path: Path):
    stream = tmp_path / "s.txt"
    stream.write_text(STREAM + "- 1 2\n")
    r = run_cli("run", str(stream), "--window", "2", "--sample-size", "5")
    assert r.returncode == 1
    assert "window" in r.stderr


def test_run_window_executes(tmp_path: Path):
    stream = tmp_path / "s.txt"
    stream.write_text(STREAM)
    r = run_cli("run", str(stream), "--window", "2", "--sample-size", "5", "--seed", "1")
    assert r.returncode == 0, r.stderr


def test_stream_format_error_exit_code(tmp_path: Path):
    stream = tmp_path / "bad.txt"
    stream.write_text("+ 1 0 1 0 0\n")
    r = run_cli("run", str(stream), "--sample-size", "5")
    assert r.returncode == 2
    assert "line 1" in r.stderr


def test_unreadable_file(tmp_path: Path):
    r = run_cli("run", str(tmp_path / "missing.txt"), "--sample-size", "5")
    assert r.returncode == 1


def test_usage_error():
    r = run_cli("run")  # missing stream argument
    assert r.returncode == 1
    r2 = run_cli("frobnicate")
    assert r2.returncode == 1


def test_gen_then_compare_pipeline(tmp_path: Path):
    stream = tmp_path / "gen.txt"
    r = run_cli(
        "gen", "--n", "40", "--m", "90", "--labels", "1", "--edge-labels", "1",
        "--seed", "4", "--out", str(stream),
    )
    assert r.returncode == 0
    out = tmp_path / "cmp.csv"
    # with one label there are two patterns: 362 wedges and 14 triangles at
    # the end. tau = 0.5 lies between their shares, and a sample of 40 holds
    # at most 14 triangles, so its wedge share is at least 26/40 and recall
    # is 1.0 whatever the draws (a tau below both shares would need a
    # triangle in the sample, which a seed misses with probability 0.2)
    r2 = run_cli(
        "compare", str(stream), "--mode", "sr", "--sample-size", "40",
        "--tau", "0.5", "--epsilon", "0.0005", "--seed", "2",
        "--report-every", "30", "--out", str(out),
    )
    assert r2.returncode == 0, r2.stderr
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("event,mode")
    final = rows[-1].split(",")
    assert final[0] == "90"
    recall = float(final[9])
    assert recall == 1.0
    # determinism across reruns
    out2 = tmp_path / "cmp2.csv"
    run_cli(
        "compare", str(stream), "--mode", "sr", "--sample-size", "40",
        "--tau", "0.5", "--epsilon", "0.0005", "--seed", "2",
        "--report-every", "30", "--out", str(out2),
    )
    assert out.read_bytes() == out2.read_bytes()


def test_compare_osr_sketch_window(tmp_path: Path):
    stream = tmp_path / "gen.txt"
    run_cli(
        "gen", "--n", "30", "--m", "120", "--labels", "2", "--edge-labels", "1",
        "--seed", "8", "--out", str(stream),
    )
    out = tmp_path / "cmp.csv"
    r = run_cli(
        "compare", str(stream), "--mode", "osr", "--w-mode", "sketch",
        "--sketch-size", "8", "--window", "40", "--sample-size", "15",
        "--seed", "5", "--verify-every", "25", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    assert out.read_text().count("\n") >= 2


def test_compare_rejects_exact_mode(tmp_path: Path):
    stream = tmp_path / "s.txt"
    stream.write_text(STREAM)
    r = run_cli("compare", str(stream), "--mode", "exact")
    assert r.returncode == 1


def test_auto_sample_size_from_stream(tmp_path: Path):
    stream = tmp_path / "s.txt"
    stream.write_text(STREAM)
    r = run_cli("run", str(stream), "--epsilon", "0.5", "--delta", "0.5", "--seed", "1")
    assert r.returncode == 0, r.stderr
    assert ",sr,3," in r.stdout


@pytest.mark.parametrize("argv,stream,code", [
    (("run", "--k", "1"), STREAM, 1),
    (("run", "--tau", "2"), STREAM, 1),
    (("run", "--epsilon", "0"), STREAM, 1),
    (("run", "--sample-size", "0"), STREAM, 1),
    (("run", "--mode", "osr", "--w-mode", "sketch", "--k", "4"), STREAM, 1),
    (("run", "--mode", "sr", "--w-mode", "sketch"), STREAM, 1),
    (("compare", "--k", "1"), STREAM, 1),
    (("run", "--sample-size", "5"), "+ 1 0 2 0 0\n- 1 2\n", 2),
    (("run", "--sample-size", "10", "--report-every", "-7"), STREAM, 1),
    (("compare", "--verify-every", "-1"), STREAM, 1),
], ids=["k", "tau", "epsilon", "sample-size", "sketch-k", "sketch-sr", "compare-k", "deletion",
        "report-every", "verify-every"])
def test_config_errors_are_usage_errors(tmp_path: Path, argv, stream, code):
    """A rejected flag value exits 1 as a usage error; an event the engine
    rejects (a deletion without --dynamic) still exits 2."""
    path = tmp_path / "s.txt"
    path.write_text(stream)
    r = run_cli(argv[0], str(path), *argv[1:])
    assert r.returncode == code, r.stderr
    assert r.stderr.startswith("error:" if code == 1 else "stream error:")
