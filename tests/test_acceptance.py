"""Release gate: one test per acceptance criterion, numbered 01..10.

Heavy Monte Carlo fixtures are shared across criteria 6, 7 and 9.  Expected
constants come from in-test high-precision oracles (mpmath at 30 digits) or
from exhaustive enumeration, never from hand arithmetic.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from mpmath import mp, mpf

from hierpolar import (
    SimConfig,
    WiretapParams,
    MessageBundle,
    RandomBundle,
    bec,
    bit_reversal_permutation,
    bob_decode,
    bounds_independent_weak,
    bsc,
    build_code,
    capacity_independent_strong,
    designed_rate,
    encode,
    eve_genie_decode,
    exact_leakage_toy,
    fano_leakage_bound,
    polar_transform,
    polar_transform_inverse,
    reliability_profile,
    run_simulation,
    sample_fading,
    secrecy_capacity_simultaneous,
    select_good_set,
    sweep_gap_surface,
    target_fractions,
    total_random_bits,
    toy_code,
)

mp.dps = 30

FIXTURE = WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.5)
FIXTURE_B = 128
FIXTURE_DELTA = 0.25
FIXTURE_TRIALS = 200
FIXTURE_SEED = 1


def h2(p: float) -> mpf:
    p = mpf(repr(float(p)))
    if p == 0 or p == 1:
        return mpf(0)
    return -p * mp.log(p, 2) - (1 - p) * mp.log(1 - p, 2)


@pytest.fixture(scope="module")
def fixture_runs():
    """Seeded fixture simulations at n = 256, 512, 1024 (criteria 6, 7, 9)."""
    runs = {}
    for n in (256, 512, 1024):
        t0 = time.perf_counter()
        report, _ = run_simulation(
            SimConfig(
                params=FIXTURE,
                n=n,
                b=FIXTURE_B,
                trials=FIXTURE_TRIALS,
                seed=FIXTURE_SEED,
                delta=FIXTURE_DELTA,
            )
        )
        runs[n] = report
        runs[f"wall_{n}"] = time.perf_counter() - t0
    return runs


def test_criterion_01_closed_form_reproduction():
    # the 5 s gate times the library only: parameter construction and the
    # closed-form calls, not input generation or the mpmath oracle
    library_time = 0.0
    rng = np.random.default_rng(20260816)
    checked = 0
    for i in range(10_000):
        family = i % 3
        if family == 0:  # shared fading, either ordering
            lo = np.sort(rng.uniform(0, 0.5, size=2))
            hi = np.sort(rng.uniform(0, 0.5, size=2))
            p1, p2 = float(min(lo[0], hi[0])), float(min(lo[1], hi[1]))
            p1s, p2s = float(max(lo[0], hi[0])), float(max(lo[1], hi[1]))
            if p1 > p2:
                p1, p1s, p2, p2s = p2, p2s, p1, p1s
            q1 = float(rng.uniform(0, 1))
            t0 = time.perf_counter()
            params = WiretapParams(p1=p1, p2=p2, p1s=p1s, p2s=p2s, q1=q1)
            got_upper = got_ach = secrecy_capacity_simultaneous(params)
            library_time += time.perf_counter() - t0
            want = q1 * (h2(p1s) - h2(p1)) + (1 - mpf(repr(q1))) * (h2(p2s) - h2(p2))
        elif family == 1:  # independent, strong ordering p1<=p2<=p1s<=p2s
            p1, p2, p1s, p2s = (float(v) for v in np.sort(rng.uniform(0, 0.5, size=4)))
            q1, q1s = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            t0 = time.perf_counter()
            params = WiretapParams(
                p1=p1, p2=p2, p1s=p1s, p2s=p2s, q1=q1, q1s=q1s, coupling="independent"
            )
            got_upper = got_ach = capacity_independent_strong(params)
            library_time += time.perf_counter() - t0
            mq1, mq1s = mpf(repr(q1)), mpf(repr(q1s))
            want = mq1s * h2(p1s) + (1 - mq1s) * h2(p2s) - mq1 * h2(p1) - (1 - mq1) * h2(p2)
        else:  # independent, interleaved ordering p1<=p1s<=p2<=p2s, q1>=q1s
            p1, p1s, p2, p2s = (float(v) for v in np.sort(rng.uniform(0, 0.5, size=4)))
            q1s = float(rng.uniform(0, 1))
            q1 = float(rng.uniform(q1s, 1))
            t0 = time.perf_counter()
            params = WiretapParams(
                p1=p1, p2=p2, p1s=p1s, p2s=p2s, q1=q1, q1s=q1s, coupling="independent"
            )
            got_upper, got_ach = bounds_independent_weak(params)
            library_time += time.perf_counter() - t0
            mq1, mq1s = mpf(repr(q1)), mpf(repr(q1s))
            want = mq1 * mq1s * h2(p1s) + (1 - mq1s) * h2(p2s) - mq1 * h2(p1) - (
                1 - mq1
            ) * (1 - mq1s) * h2(p2)
            want_ach = (
                mq1 * (h2(p1s) - h2(p1))
                + (1 - mq1s) * (h2(p2s) - h2(p2))
                + (mq1 - mq1s) * (h2(p2) - h2(p1s))
            )
            assert abs(got_ach - float(want_ach)) <= 1e-10
        assert abs(got_upper - float(want)) <= 1e-10
        assert got_ach <= got_upper + 1e-12
        checked += 1
    assert checked == 10_000
    assert library_time < 5.0, f"library time {library_time:.2f} s"


def test_criterion_02_gap_surfaces():
    started = time.perf_counter()
    rows = sweep_gap_surface("gap-coeff", 50)
    best = max(rows, key=lambda r: r["gap_coeff"])
    assert abs(best["gap_coeff"] - 0.25) <= 1e-10
    assert best["q1"] == 0.5 and best["q1s"] == 0.5
    ties = [r for r in rows if abs(r["gap_coeff"] - 0.25) <= 1e-10]
    assert len(ties) == 1

    steps = 50
    rows = sweep_gap_surface("gap-upper", steps)
    grid = np.array([r["gap_upper"] for r in rows]).reshape(steps, steps)
    # nondecreasing along the degraded-state flip rate, nonincreasing along
    # the eavesdropper superior flip rate (zero-filled outside the wedge)
    assert (np.diff(grid, axis=0) >= -1e-12).all()
    assert (np.diff(grid, axis=1) <= 1e-12).all()
    assert time.perf_counter() - started < 5.0


def test_criterion_03_polarization_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(33)
    for k in range(1, 13):
        n = 1 << k
        u = rng.integers(0, 2, size=(1000, n), dtype=np.uint8)
        assert np.array_equal(polar_transform_inverse(polar_transform(u)), u)

    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    for k in range(1, 7):
        n = 1 << k
        g = np.kron(g, f)
        dense = g[bit_reversal_permutation(n)]
        u = rng.integers(0, 2, size=(200, n), dtype=np.uint8)
        assert np.array_equal(polar_transform(u), (u @ dense) % 2)

    trials = 100_000
    exact = reliability_profile(bec(0.5), 8, "exact-bec").z
    est = reliability_profile(bec(0.5), 8, "genie-mc", trials=trials, rng=rng).z
    sigma = np.sqrt(exact * (1.0 - exact) / trials)
    assert (np.abs(est - exact) <= 3.0 * sigma).all()
    assert time.perf_counter() - started < 60.0


def test_criterion_04_good_set_nesting():
    started = time.perf_counter()
    rng = np.random.default_rng(44)
    n = 1024
    for _ in range(100):
        p1 = float(rng.uniform(0.0, 0.5))
        p2 = float(rng.uniform(p1, 0.5))
        prof1 = reliability_profile(bsc(p1), n)
        prof2 = reliability_profile(bsc(p2), n)
        for t in (1e-3, 1e-6, 1e-9):
            good2 = set(select_good_set(prof2, t).tolist())
            good1 = set(select_good_set(prof1, t).tolist())
            assert good2 <= good1
    assert time.perf_counter() - started < 30.0


def test_criterion_05_noiseless_roundtrips():
    started = time.perf_counter()
    scenarios = (
        FIXTURE,
        WiretapParams(p1=0.02, p2=0.11, p1s=0.05, p2s=0.15, q1=0.5),
        WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.5, q1s=0.4, coupling="independent"),
        WiretapParams(p1=0.02, p2=0.11, p1s=0.05, p2s=0.15, q1=0.6, q1s=0.4, coupling="independent"),
    )
    rng = np.random.default_rng(55)
    for params in scenarios:
        code = build_code(params, 256, 32)
        msgs, rnds, frames, traces = [], [], [], []
        for _ in range(100):
            msgs.append(MessageBundle.random(code, rng))
            rnds.append(RandomBundle.random(code, rng))
            frames.append(encode(code, msgs[-1], rnds[-1]))
            traces.append(sample_fading(params, 32, rng))
        # the 100 frames decode as one stack per receiver
        obs = np.where(np.stack(frames), -np.inf, np.inf)
        bob = bob_decode(code, obs, traces)
        eve = eve_genie_decode(code, obs, traces, msgs)
        assert len(bob) == len(eve) == 100
        for msg, rnd, (msg_hat, rnd_hat, status), (rnd_eve, eve_status) in zip(msgs, rnds, bob, eve):
            assert status.ok
            assert msg_hat.same_bits(msg) and rnd_hat.same_bits(rnd)
            assert eve_status.ok and rnd_eve.same_bits(rnd)
    assert time.perf_counter() - started < 60.0


def test_criterion_06_end_to_end_reliability(fixture_runs):
    report = fixture_runs[1024]
    assert report.trials == FIXTURE_TRIALS
    assert report.bob_fer <= 0.05, f"bob_fer {report.bob_fer}"
    assert report.eve_genie_fer <= 0.05, f"eve_genie_fer {report.eve_genie_fer}"
    assert fixture_runs["wall_1024"] < 600.0


def test_criterion_07_fer_trend_with_block_length(fixture_runs):
    fers = [fixture_runs[n].bob_fer for n in (256, 512, 1024)]
    assert fers[0] >= fers[1] >= fers[2], f"bob_fer trend {fers}"
    total = sum(fixture_runs[f"wall_{n}"] for n in (256, 512, 1024))
    assert total < 900.0


def test_criterion_08_rate_convergence():
    started = time.perf_counter()
    capacity = secrecy_capacity_simultaneous(FIXTURE)
    ratios = []
    for k in range(8, 13):
        n = 1 << k
        code = build_code(FIXTURE, n, max(2, n // 8), 0.1)
        ratios.append(designed_rate(code) / capacity)
    assert all(r > 0.0 for r in ratios), f"rate ratios {ratios}"
    assert all(b >= a for a, b in zip(ratios, ratios[1:])), f"rate ratios {ratios}"
    assert time.perf_counter() - started < 120.0


def _oracle_good_set(z0: mpf, n: int, threshold: mpf) -> set:
    """Decoder-order indices at or below ``threshold`` after evolving ``z0``
    to length ``n`` under ``z -> (2z - z^2, z^2)`` at 30 digits: Bhattacharyya
    bounds from ``2 sqrt(p(1-p))`` for a flip law, exact erasure
    probabilities for an erasure law."""
    z = [z0]
    while len(z) < n:
        z = [w for v in z for w in (2 * v - v * v, v * v)]
    # a float construction agrees with the oracle only away from the threshold
    margin = min(abs(v - threshold) for v in z) / threshold
    assert margin > mpf("1e-9"), f"oracle value within {margin} of the threshold"
    return {i for i, v in enumerate(z) if v <= threshold}


# strong-layout reliability chain, most exclusive law first, with the class
# each law's good set adds to the one before it
_STRONG_CHAIN = (
    ("p2s", "block_random"),
    ("p1s", "crossblock_secret"),
    ("p2", "perblock_message"),
    ("p1", "crossblock_message"),
)


def _cumulative_sets(part) -> dict:
    """Good sets ``p2s ⊂ p1s ⊂ p2 ⊂ p1`` rebuilt from the partition classes."""
    sets, acc = {}, set()
    for law, cls in _STRONG_CHAIN:
        acc = acc | set(getattr(part, cls).tolist())
        sets[law] = acc
    return sets


def test_criterion_08_partition_fractions():
    """Finite-length class fractions against the design targets.

    ``target_fractions`` gives limits as ``n, b -> inf``; at a finite length
    the partition sits well below them, as polarization predicts.  Measured
    at the fixture (``n = 4096``, ``b = 512``, ``delta = 0.1``):
    ``block_random`` 0.1658 against 0.3902 and ``bec_info_main`` 0.2266
    against 0.5.  The erasure layer uses exact erasure probabilities at the
    design rate ``q2 (1 + delta) = 0.55``, so no construction keeps more
    rows at that rate; it keeps 116 of 512 (136 without the margin) and
    first comes within 0.1 of ``q1`` near ``b = 2^20``.  So the check holds
    the partition to what the method promises at finite length:

    1. exact sizes: the cumulative good sets and the erasure information
       set equal, index for index, those of a 30-digit evolution of
       ``z -> (2z - z^2, z^2)`` from ``2 sqrt(p(1-p))`` (flip laws) and
       ``min(1, q2 (1 + delta))`` (erasure layer) at thresholds
       ``delta/(2n)`` and ``delta/(2b)``;
    2. the targets as converse bounds: a good index has error probability
       at most ``t``, so ``I(W_i) >= 1 - h(t)``, and ``sum I(W_i) =
       n (1 - H(p))`` caps each cumulative fraction at
       ``(1 - H(p)) / (1 - h(t))``; likewise the erasure information
       fraction is at most ``(1 - q2 (1 + delta)) / (1 - delta/(2b)) <= q1``;
    3. approach: along ``n = 2^8 .. 2^14`` with ``b = n/8`` every
       cumulative fraction and the erasure information fraction is
       non-decreasing.
    """
    started = time.perf_counter()
    n, delta = 1 << 12, 0.1
    part = build_code(FIXTURE, n, delta=delta).partition
    b = part.b
    tgt = target_fractions(FIXTURE)
    sizes = part.sizes()
    checks = {
        "block_random": sizes["block_random"] / n,
        "crossblock_secret": sizes["crossblock_secret"] / n,
        "perblock_message": sizes["perblock_message"] / n,
        "crossblock_message": sizes["crossblock_message"] / n,
        "bec_info_main": sizes["bec_info_main"] / b,
    }
    checks["bec_info_comp"] = 1.0 - checks["bec_info_main"]
    targets = dict(tgt, bec_info_comp=1.0 - tgt["bec_info_main"])
    report = {
        k: (round(v, 4), round(targets[k], 4), round(v - targets[k], 4))
        for k, v in checks.items()
    }
    table = f"(achieved, target, gap): {report}"

    mdelta = mpf(repr(delta))
    t_block = mdelta / (2 * n)
    t_row = mdelta / (2 * b)
    cumulative = _cumulative_sets(part)
    cum_target = 0.0
    for law, cls in _STRONG_CHAIN:
        got = cumulative[law]
        p = mpf(repr(getattr(FIXTURE, law)))
        want = _oracle_good_set(2 * mp.sqrt(p * (1 - p)), n, t_block)
        assert got == want, (
            f"good set of {law}: {len(got)} positions, oracle {len(want)}; {table}"
        )
        cum_target += tgt[cls]
        assert abs(cum_target - float(1 - h2(p))) <= 1e-12, f"target of {law}: {table}"
        bound = (1 - h2(p)) / (1 - h2(t_block))
        assert len(got) / n <= bound, (
            f"{law} fraction {len(got) / n} above converse bound {float(bound)}; {table}"
        )

    q_design = min(mpf(1), (1 - mpf(repr(FIXTURE.q1))) * (1 + mdelta))
    want = _oracle_good_set(q_design, b, t_row)
    got = set(part.bec_info_main.tolist())
    assert got == want, (
        f"erasure information set: {len(got)} rows, oracle {len(want)}; {table}"
    )
    bound = (1 - q_design) / (1 - t_row)
    assert checks["bec_info_main"] <= bound <= tgt["bec_info_main"], (
        f"erasure information fraction above converse bound {float(bound)}; {table}"
    )

    history = []
    for k in range(8, 15):
        m = 1 << k
        p_k = build_code(FIXTURE, m, m // 8, delta=delta).partition
        history.append(
            [len(s) / m for s in _cumulative_sets(p_k).values()]
            + [p_k.bec_info_main.size / p_k.b]
        )
    for prev, cur in zip(history, history[1:]):
        assert all(c >= a for a, c in zip(prev, cur)), (
            f"fractions fell with block length: {history}; {table}"
        )
    assert time.perf_counter() - started < 120.0


def test_criterion_09_security_oracle(fixture_runs):
    started = time.perf_counter()
    assert exact_leakage_toy(toy_code("randomized")) == pytest.approx(0.0, abs=1e-9)
    assert exact_leakage_toy(toy_code("message")) > 0.0

    report = fixture_runs[1024]
    rnd_bits = total_random_bits(
        build_code(FIXTURE, 1024, FIXTURE_B, FIXTURE_DELTA)
    )
    assert report.random_bits == rnd_bits
    bound = fano_leakage_bound(report.eve_genie_fer, rnd_bits, 1024, FIXTURE_B)
    assert report.leakage.per_channel_use == bound.per_channel_use
    assert bound.per_channel_use <= 0.01, f"leakage per use {bound.per_channel_use}"
    assert time.perf_counter() - started < 300.0


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()
    outputs = []
    for tag in ("a", "b"):
        trial_file = tmp_path / f"{tag}.ndjson"
        proc = subprocess.run(
            [
                sys.executable, "-m", "hierpolar.cli", "simulate",
                "--p1", "0.02", "--p2", "0.05", "--p1s", "0.11", "--p2s", "0.15",
                "--q1", "0.5", "--n", "64", "--b", "16", "--trials", "20",
                "--seed", "11", "--out", str(trial_file),
            ],
            capture_output=True,
            check=True,
        )
        outputs.append((proc.stdout, trial_file.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    payload = json.loads(outputs[0][0])
    assert payload["trials"] == 20
    assert time.perf_counter() - started < 60.0
