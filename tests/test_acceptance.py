"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every stream here is frozen by seed, so the whole suite is
deterministic end to end.
"""

import math
import random
import subprocess
import sys
import time
from collections import Counter

import pytest
from scipy import stats

from streamfsm.engine import EngineConfig, build_engine, recommended_sample_size
from streamfsm.exploration import compute_d_exact, compute_w_exact
from streamfsm.pattern import count_patterns
from streamfsm.sketch import BottomKSketch, SketchStore, VertexHasher
from streamfsm.stream import StreamEvent, generate_stream

from conftest import (
    brute_connected_count,
    brute_connected_sets,
    brute_pattern_counts,
    random_labeled_graph,
)


def _report(num, name, detail):
    print(f"[criterion {num:2d}] PASS {name}: {detail}")


# --- criteria 1 & 2: exact-oracle equivalence and N-truth ------------------


@pytest.fixture(scope="module")
def oracle_run():
    t0 = time.perf_counter()
    streams = 0
    events_total = 0
    for seed in range(50):
        n = 25 + seed % 16
        cap = n * (n - 1) // 2
        adds = min(120 + 17 * (seed % 13), int(0.75 * cap))
        events = generate_stream(
            n, adds, 3, 2, model="uniform", delete_fraction=0.2, seed=seed
        )
        assert len(events) <= 400
        ec = build_engine(EngineConfig(k=3, mode="exact", dynamic=True))
        sr = build_engine(
            EngineConfig(k=3, mode="sr", dynamic=True, sample_size=15, seed=seed)
        )
        osr = build_engine(
            EngineConfig(k=3, mode="osr", dynamic=True, sample_size=15, seed=seed + 10_000)
        )
        for ev in events:
            ec.process_event(ev)
            sr.process_event(ev)
            osr.process_event(ev)
            counts, total = brute_pattern_counts(ec.graph, 3)
            assert ec.counts == dict(counts), f"EC diverged (seed {seed}, event {ev.seq})"
            assert ec.population == total
            assert sr.population == total, f"SR N diverged (seed {seed}, event {ev.seq})"
            assert osr.population == total, f"OSR N diverged (seed {seed}, event {ev.seq})"
        streams += 1
        events_total += len(events)
    return time.perf_counter() - t0, streams, events_total


def test_criterion_01_exact_oracle_equivalence(oracle_run):
    elapsed, streams, events_total = oracle_run
    assert streams == 50
    assert elapsed < 60.0, f"oracle pass took {elapsed:.1f}s"
    _report(1, "exact-oracle equivalence",
            f"{streams} streams / {events_total} events, every event exact, {elapsed:.1f}s")


def test_criterion_02_population_truth(oracle_run):
    _, streams, events_total = oracle_run
    _report(2, "N-truth for SR and OSR(exact-W)",
            f"population equals brute-force count after all {events_total} events")


# --- criteria 3 & 4: uniformity -------------------------------------------

UNIFORMITY_RUNS = 10_000


def _uniformity_check(events, dynamic, runs):
    incl = Counter()
    occupancies = set()
    eng = None
    for seed in range(runs):
        eng = build_engine(
            EngineConfig(k=3, mode="sr", dynamic=dynamic, sample_size=20, seed=seed)
        )
        for ev in events:
            eng.process_event(ev)
        occupancies.add(len(eng.reservoir.codes))
        for inst in eng.reservoir.slots:
            incl[inst.vertices] += 1
    population = brute_connected_sets(eng.graph, 3)
    nstar = len(population)
    assert eng.population == nstar
    return incl, occupancies, population, nstar


def test_criterion_03_uniformity_incremental():
    events = generate_stream(1500, 300, 3, 2, model="uniform", seed=0)
    incl, _, population, nstar = _uniformity_check(events, False, UNIFORMITY_RUNS)
    assert 80 <= nstar <= 150
    p = 20 / nstar
    sigma = math.sqrt(p * (1 - p) / UNIFORMITY_RUNS)
    worst = max(abs(incl[t] / UNIFORMITY_RUNS - p) for t in population)
    assert worst <= 4 * sigma, f"worst deviation {worst / sigma:.2f} sigma"
    expected = UNIFORMITY_RUNS * 20 / nstar
    chi = stats.chisquare([incl[t] for t in population], [expected] * nstar)
    assert chi.pvalue >= 1e-3
    _report(3, "uniform inclusion, incremental",
            f"N*={nstar}, worst |dev|={worst / sigma:.2f} sigma, chi2 p={chi.pvalue:.3g}")


def test_criterion_04_uniformity_fully_dynamic():
    events = generate_stream(
        1100, 300, 3, 2, model="uniform", delete_fraction=0.25, seed=3
    )
    incl, occupancies, population, nstar = _uniformity_check(events, True, UNIFORMITY_RUNS)
    assert 80 <= nstar <= 150
    assert len(occupancies) == 1, f"occupancy not seed-invariant: {occupancies}"
    m_prime = next(iter(occupancies))
    p = m_prime / nstar
    sigma = math.sqrt(p * (1 - p) / UNIFORMITY_RUNS)
    worst = max(abs(incl[t] / UNIFORMITY_RUNS - p) for t in population)
    assert worst <= 4 * sigma, f"worst deviation {worst / sigma:.2f} sigma"
    expected = UNIFORMITY_RUNS * m_prime / nstar
    chi = stats.chisquare([incl[t] for t in population], [expected] * nstar)
    assert chi.pvalue >= 1e-3
    _report(4, "uniform inclusion, fully-dynamic",
            f"N*={nstar}, occ={m_prime} (seed-invariant), worst |dev|="
            f"{worst / sigma:.2f} sigma, chi2 p={chi.pvalue:.3g}")


# --- criterion 5: skip-distribution fidelity -------------------------------


def _pmf_chisquare(observed, trials, pmf_stream, mass_cutoff=0.99995):
    obs, exp = [], []
    bo = be = 0.0
    covered = 0.0
    for z, p in enumerate(pmf_stream):
        bo += observed.get(z, 0)
        be += p * trials
        covered += p
        if be >= 10:
            obs.append(bo)
            exp.append(be)
            bo = be = 0.0
        if covered >= mass_cutoff:
            break
    obs.append(bo + trials - sum(obs) - bo)
    exp.append(be + trials - sum(exp) - be)
    exp = [max(e, 1e-9) for e in exp]
    scale = sum(obs) / sum(exp)
    return stats.chisquare(obs, [e * scale for e in exp])


def _rs_pmf_stream(n, m):
    surv = 1.0
    z = 0
    while True:
        admit = m / (n + z + 1)
        yield surv * admit
        surv *= 1.0 - admit
        z += 1


def _rp_pmf_stream(c1, d):
    surv = 1.0
    for z in range(d - c1 + 1):
        admit = c1 / (d - z)
        yield surv * admit
        surv *= 1.0 - admit


def test_criterion_05_skip_fidelity():
    from streamfsm.sampling import skip_rp, skip_rs

    trials = 1_000_000
    rng = random.Random(1234)
    obs_rs = Counter(skip_rs(50, 10, rng) for _ in range(trials))
    chi_rs = _pmf_chisquare(obs_rs, trials, _rs_pmf_stream(50, 10))
    assert chi_rs.pvalue >= 1e-3, f"skip_rs pmf p={chi_rs.pvalue}"
    obs_rp = Counter(skip_rp(3, 10, rng) for _ in range(trials))
    chi_rp = _pmf_chisquare(obs_rp, trials, _rp_pmf_stream(3, 10), mass_cutoff=1.1)
    assert chi_rp.pvalue >= 1e-3, f"skip_rp pmf p={chi_rp.pvalue}"

    # per-pattern sample-count means agree between SR and OSR(exact-W)
    events = generate_stream(120, 500, 2, 1, model="uniform", seed=11)
    runs = 5000
    sums = {"sr": Counter(), "osr": Counter()}
    sq = {"sr": Counter(), "osr": Counter()}
    from streamfsm.pattern import canonical_key

    for mode in ("sr", "osr"):
        for seed in range(runs):
            eng = build_engine(EngineConfig(k=3, mode=mode, sample_size=25, seed=seed))
            for ev in events:
                eng.process_event(ev)
            cnt = Counter(canonical_key(inst) for inst in eng.reservoir.slots)
            for key, c in cnt.items():
                sums[mode][key] += c
                sq[mode][key] += c * c
    worst = 0.0
    for key in set(sums["sr"]) | set(sums["osr"]):
        m1 = sums["sr"][key] / runs
        m2 = sums["osr"][key] / runs
        v1 = sq["sr"][key] / runs - m1 * m1
        v2 = sq["osr"][key] / runs - m2 * m2
        se = math.sqrt(max(v1, 1e-9) / runs + max(v2, 1e-9) / runs)
        worst = max(worst, abs(m1 - m2) / se)
    assert worst <= 4.0, f"worst per-pattern mean deviation {worst:.2f} sigma"
    _report(5, "skip-distribution fidelity",
            f"pmf p-values {chi_rs.pvalue:.3g}/{chi_rp.pvalue:.3g}, "
            f"SR vs OSR worst mean dev {worst:.2f} sigma over {runs} seeds")


# --- criterion 6: exact insertion/deletion deltas ---------------------------


def test_criterion_06_delta_correctness():
    rng = random.Random(606)
    checked_w = checked_d = 0
    while checked_w < 1000:
        g = random_labeled_graph(rng, n=rng.randrange(10, 41), m=rng.randrange(10, 90),
                                 num_labels=3, num_edge_labels=2)
        verts = sorted(g.labels)
        for _ in range(10):
            if checked_w >= 1000 or len(verts) < 2:
                break
            u, v = rng.sample(verts, 2)
            if g.has_edge(u, v):
                continue
            before = brute_connected_count(g, 3)
            w = compute_w_exact(g, u, v, 3)
            g.add_edge(u, g.labels[u], v, g.labels[v], 0)
            assert w == brute_connected_count(g, 3) - before
            g.delete_edge(u, v)
            checked_w += 1
    while checked_d < 1000:
        g = random_labeled_graph(rng, n=rng.randrange(10, 41), m=rng.randrange(10, 90),
                                 num_labels=3, num_edge_labels=2)
        edges = [(a, b) for a in g.adj for b in g.adj[a] if a < b]
        rng.shuffle(edges)
        for u, v in edges[:10]:
            if checked_d >= 1000:
                break
            before = brute_connected_count(g, 3)
            g.delete_edge(u, v)
            d = compute_d_exact(g, u, v, 3)
            assert d == before - brute_connected_count(g, 3)
            checked_d += 1
    _report(6, "insertion/deletion delta exactness",
            f"{checked_w} insertions and {checked_d} deletions equal brute force")


# --- criterion 7: (eps, delta) guarantee ------------------------------------


def _skewed_stream(seed, n=300, m=800, heavy=0.9):
    rng = random.Random(seed)
    labels = {v: (0 if rng.random() < heavy else 1) for v in range(n)}
    pairs = set()
    while len(pairs) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    order = sorted(pairs)
    rng.shuffle(order)
    return [
        StreamEvent("+", a, b, labels[a], labels[b], 0, i)
        for i, (a, b) in enumerate(order)
    ]


def test_criterion_07_epsilon_delta_guarantee():
    epsilon, delta = 0.2, 0.1
    t_k = count_patterns(3, 2, 1)
    assert t_k == 10
    m_slots = recommended_sample_size(t_k, epsilon, delta)
    assert m_slots == 484

    events = _skewed_stream(0)
    ec = build_engine(EngineConfig(k=3, mode="exact"))
    for ev in events:
        ec.process_event(ev)
    truth = ec.estimate_frequencies()
    shares = sorted(truth.shares.values(), reverse=True)
    tau = (shares[0] + shares[1]) / 2
    margin = min(abs(tau - p) for p in truth.shares.values())
    assert margin >= epsilon, f"tau margin {margin:.3f} below epsilon"
    assert ec.population > 4 * m_slots

    runs = 500
    bad_estimation = 0
    unsound = 0
    true_frequent = {k for k, p in truth.shares.items() if p >= tau}
    for seed in range(runs):
        eng = build_engine(
            EngineConfig(k=3, mode="sr", tau=tau, epsilon=epsilon, delta=delta,
                         sample_size=m_slots, seed=seed)
        )
        for ev in events:
            eng.process_event(ev)
        est = eng.estimate_frequencies()
        max_err = max(
            abs(est.shares.get(k, 0.0) - p) for k, p in truth.shares.items()
        )
        if max_err > epsilon / 2:
            bad_estimation += 1
        reported = {k for k, _ in eng.report_frequent().entries}
        if not reported <= true_frequent:
            unsound += 1
    assert bad_estimation / runs <= delta + 0.05, f"{bad_estimation}/{runs} estimation misses"
    assert 1 - unsound / runs >= 1 - delta - 0.05, f"{unsound}/{runs} unsound reports"
    _report(7, "(eps,delta) estimation and report soundness",
            f"M={m_slots}, tau={tau:.3f}, miss rate {bad_estimation / runs:.3f} "
            f"(<= {delta + 0.05}), unsound rate {unsound / runs:.3f}")


# --- criterion 8: sketch quality --------------------------------------------


def test_criterion_08_sketch_quality():
    total_re = 0.0
    for seed in range(200):
        hasher = VertexHasher(seed)
        sk = BottomKSketch(256, hasher)
        for x in range(1000):
            sk.insert(hasher.value(x))
        total_re += abs(sk.size_estimate() - 1000) / 1000
    mean_re = total_re / 200
    assert mean_re <= 0.10, f"size_estimate mean RE {mean_re:.3f}"

    from streamfsm.exploration import compute_w_approx

    events = generate_stream(400, 20_000, 1, 1, model="uniform", seed=0)
    g = build_engine(EngineConfig(k=3, mode="exact")).graph
    store = SketchStore(64, VertexHasher(7), g.adj)
    for ev in events:
        g.add_edge(ev.u, ev.label_u, ev.v, ev.label_v, ev.label_e)
        store.on_edge_added(ev.u, ev.v)
    mean_deg = 2 * g.num_edges / g.num_vertices
    assert 80 <= mean_deg <= 120
    rng = random.Random(42)
    verts = sorted(g.labels)
    errs = []
    while len(errs) < 500:
        u, v = rng.sample(verts, 2)
        if g.has_edge(u, v):
            continue
        w_true = compute_w_exact(g, u, v, 3)
        if w_true == 0:
            continue
        g.add_edge(u, 0, v, 0, 0)
        store.on_edge_added(u, v)
        w_hat = compute_w_approx(store, g, u, v, 3)
        g.delete_edge(u, v)
        store.on_edge_deleted(u, v)
        errs.append(abs(w_hat - w_true) / w_true)
    errs.sort()
    median = errs[len(errs) // 2]
    assert median <= 0.30, f"W-approx median RE {median:.3f}"
    _report(8, "sketch quality",
            f"size mean RE {mean_re:.3f} (<=0.10), W-approx median RE {median:.3f} (<=0.30)")


# --- criterion 9: update-time ordering ---------------------------------------


def test_criterion_09_performance_ordering():
    events = generate_stream(
        1500, 100_000, 3, 2, model="power-law", seed=5, power_law_exponent=1.1
    )

    def timed(mode, w_mode):
        eng = build_engine(
            EngineConfig(k=3, mode=mode, sample_size=1000, seed=1,
                         w_mode=w_mode, sketch_size=64)
        )
        t0 = time.perf_counter()
        for ev in events:
            eng.process_event(ev)
        return time.perf_counter() - t0

    t_osr_sketch = timed("osr", "sketch")
    t_osr_exact = timed("osr", "exact")
    t_sr = timed("sr", "exact")
    t_ec = timed("exact", "exact")
    per = {k: v / len(events) * 1e6 for k, v in
           (("ec", t_ec), ("sr", t_sr), ("osr_exact", t_osr_exact), ("osr_sketch", t_osr_sketch))}
    assert t_ec > t_sr, per
    assert t_sr > t_osr_exact, per
    assert t_osr_exact >= t_osr_sketch, per
    assert t_osr_sketch < 60.0
    _report(9, "update-time ordering",
            "mean per-event us: EC {ec:.1f} > SR {sr:.1f} > OSR/exact {osr_exact:.1f} "
            ">= OSR/sketch {osr_sketch:.1f} (OSR/sketch / OSR/exact {ratio:.2f})".format(
                ratio=t_osr_sketch / t_osr_exact, **per))


# --- criterion 10: end-to-end CLI determinism --------------------------------


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "streamfsm", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    stream = tmp_path / "stream.txt"
    gen_args = ("gen", "--n", "80", "--m", "400", "--labels", "2", "--edge-labels", "2",
                "--seed", "17", "--out", str(stream))
    _cli(*gen_args)
    first = stream.read_bytes()
    _cli(*gen_args)
    assert stream.read_bytes() == first

    variants = [
        ("run", str(stream), "--mode", "sr", "--sample-size", "50", "--seed", "9",
         "--tau", "0.3", "--epsilon", "0.1", "--report-every", "100"),
        ("run", str(stream), "--mode", "osr", "--sample-size", "50", "--seed", "9",
         "--window", "150"),
        ("run", str(stream), "--mode", "osr", "--w-mode", "sketch", "--sketch-size", "16",
         "--sample-size", "50", "--seed", "9", "--window", "150"),
        ("compare", str(stream), "--mode", "sr", "--sample-size", "50", "--seed", "9",
         "--report-every", "100"),
        ("compare", str(stream), "--mode", "osr", "--sample-size", "50", "--seed", "9",
         "--window", "150", "--report-every", "100"),
    ]
    for args in variants:
        out1 = _cli(*args)
        out2 = _cli(*args)
        assert out1 == out2, f"nondeterministic output for {args}"
    _report(10, "end-to-end determinism",
            f"{len(variants)} CLI invocations byte-identical across reruns")
