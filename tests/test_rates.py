"""Closed-form rate, gap and leakage-bound unit tests.

Expected constants come from a high-precision entropy oracle evaluated inside
the tests (mpmath at 30 digits), never from hand arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest
from mpmath import mp, mpf

from hierpolar import (
    RateReport,
    ScenarioTag,
    UnsupportedScenarioError,
    WiretapParams,
    binary_entropy,
    bounds_independent_weak,
    capacity_independent_strong,
    eve_ergodic_capacity,
    fano_leakage_bound,
    gap_and_bound,
    rate_report,
    secrecy_capacity_simultaneous,
    sweep_gap_surface,
)
from hierpolar.rates import SWEEP_FIELDS

mp.dps = 30


def h2(p) -> float:
    p = mpf(repr(float(p)))
    if p == 0 or p == 1:
        return 0.0
    return float(-p * mp.log(p, 2) - (1 - p) * mp.log(1 - p, 2))


FIX = dict(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15)


def test_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_entropy_matches_high_precision_oracle():
    for p in (0.01, 0.11, 0.3, 0.499, 0.77):
        assert binary_entropy(p) == pytest.approx(h2(p), abs=1e-14)
    assert binary_entropy(0.11) == pytest.approx(0.499916, abs=1e-6)


def test_entropy_is_elementwise_on_arrays():
    arr = np.array([0.0, 0.25, 0.5, 1.0])
    out = binary_entropy(arr)
    assert out.shape == (4,)
    assert out[0] == 0.0 and out[3] == 0.0 and out[2] == 1.0
    assert isinstance(binary_entropy(0.25), float)


def test_entropy_domain_checked():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.2, 1.3]))
    for nan in (float("nan"), np.nan, np.array([0.2, np.nan]), np.array(np.nan)):
        with pytest.raises(ValueError, match="domain"):
            binary_entropy(nan)


def test_sim_capacity_trivial_points():
    for q1 in (0.0, 0.3, 1.0):
        perfect = WiretapParams(p1=0.0, p2=0.0, p1s=0.5, p2s=0.5, q1=q1)
        assert secrecy_capacity_simultaneous(perfect) == pytest.approx(1.0, abs=1e-15)
    flat = WiretapParams(p1=0.1, p2=0.2, p1s=0.1, p2s=0.2, q1=0.4)
    assert secrecy_capacity_simultaneous(flat) == pytest.approx(0.0, abs=1e-15)


def test_sim_capacity_fixture_value():
    params = WiretapParams(q1=0.5, **FIX)
    want = 0.5 * (h2(0.11) - h2(0.02)) + 0.5 * (h2(0.15) - h2(0.05))
    got = secrecy_capacity_simultaneous(params)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.34096, abs=1e-5)


def test_sim_capacity_rejects_independent_coupling():
    params = WiretapParams(q1=0.5, q1s=0.5, coupling="independent", **FIX)
    with pytest.raises(ValueError):
        secrecy_capacity_simultaneous(params)


def test_strong_capacity_matches_term_by_term_oracle():
    params = WiretapParams(q1=0.7, q1s=0.3, coupling="independent", **FIX)
    want = 0.3 * h2(0.11) + 0.7 * h2(0.15) - 0.7 * h2(0.02) - 0.3 * h2(0.05)
    assert capacity_independent_strong(params) == pytest.approx(want, abs=1e-12)


def test_strong_capacity_reduces_to_sim_formula_at_equal_state_probs():
    ind = WiretapParams(q1=0.5, q1s=0.5, coupling="independent", **FIX)
    sim = WiretapParams(q1=0.5, **FIX)
    assert capacity_independent_strong(ind) == pytest.approx(
        secrecy_capacity_simultaneous(sim), abs=1e-15
    )


def test_strong_capacity_without_fading_drops_state_probs():
    a = WiretapParams(p1=0.05, p2=0.05, p1s=0.2, p2s=0.2, q1=0.9, q1s=0.1, coupling="independent")
    b = WiretapParams(p1=0.05, p2=0.05, p1s=0.2, p2s=0.2, q1=0.2, q1s=0.7, coupling="independent")
    want = h2(0.2) - h2(0.05)
    assert capacity_independent_strong(a) == pytest.approx(want, abs=1e-12)
    assert capacity_independent_strong(b) == pytest.approx(want, abs=1e-12)


def test_strong_capacity_scenario_checks():
    sim = WiretapParams(q1=0.5, **FIX)
    with pytest.raises(ValueError):
        capacity_independent_strong(sim)
    weak = WiretapParams(
        p1=0.02, p2=0.11, p1s=0.05, p2s=0.15, q1=0.6, q1s=0.4, coupling="independent"
    )
    with pytest.raises(ValueError):
        capacity_independent_strong(weak)


def weak_params(q1=0.6, q1s=0.4, p1=0.02, p2=0.1, p1s=0.05, p2s=0.3) -> WiretapParams:
    return WiretapParams(p1=p1, p2=p2, p1s=p1s, p2s=p2s, q1=q1, q1s=q1s, coupling="independent")


def test_weak_bounds_fixture_gap_value():
    upper, achievable = bounds_independent_weak(weak_params())
    gap, _ = gap_and_bound(weak_params())
    want_gap = 0.4 * 0.4 * (h2(0.1) - h2(0.05))
    assert gap == pytest.approx(want_gap, abs=1e-12)
    assert gap == pytest.approx(0.0292, abs=1e-4)
    assert upper - achievable == pytest.approx(want_gap, abs=1e-12)


def test_weak_bounds_collapse_on_ordering_boundary():
    # p2 == p1s is both orderings at once; every formula must agree there
    tie = WiretapParams(
        p1=0.02, p2=0.08, p1s=0.08, p2s=0.3, q1=0.6, q1s=0.4, coupling="independent"
    )
    upper, achievable = bounds_independent_weak(tie)
    strong = capacity_independent_strong(tie)
    assert upper == pytest.approx(achievable, abs=1e-15)
    assert upper == pytest.approx(strong, abs=1e-12)
    gap, cap = gap_and_bound(tie)
    assert gap == 0.0 and cap == 0.0


def test_weak_bounds_gap_vanishes_at_zero_eve_superior_prob():
    params = weak_params(q1s=0.0)
    upper, achievable = bounds_independent_weak(params)
    assert upper == pytest.approx(achievable, abs=1e-15)


def test_weak_bounds_error_paths():
    with pytest.raises(UnsupportedScenarioError):
        bounds_independent_weak(weak_params(q1=0.3, q1s=0.6))
    strong = WiretapParams(q1=0.5, q1s=0.5, coupling="independent", **FIX)
    with pytest.raises(ValueError):
        bounds_independent_weak(strong)
    sim = WiretapParams(p1=0.02, p2=0.11, p1s=0.05, p2s=0.15, q1=0.5)
    with pytest.raises(ValueError):
        bounds_independent_weak(sim)


def test_gap_identity_and_ordering_fuzz():
    rng = np.random.default_rng(211)
    for _ in range(500):
        p1 = rng.uniform(0, 0.2)
        p1s = rng.uniform(p1, 0.35)
        p2 = rng.uniform(p1s, 0.45)
        p2s = rng.uniform(p2, 0.5)
        q1s = rng.uniform(0, 1)
        q1 = rng.uniform(q1s, 1)
        params = weak_params(q1=q1, q1s=q1s, p1=p1, p2=p2, p1s=p1s, p2s=p2s)
        upper, achievable = bounds_independent_weak(params)
        gap, cap = gap_and_bound(params)
        assert achievable <= upper + 1e-12
        assert gap == pytest.approx(upper - achievable, abs=1e-12)
        assert gap <= cap + 1e-12


def test_gap_maximum_at_balanced_state_probs():
    params = weak_params(q1=0.5, q1s=0.5)
    gap, cap = gap_and_bound(params)
    assert gap == pytest.approx(cap, abs=1e-15)


def test_gap_scenario_checks():
    with pytest.raises(ValueError):
        gap_and_bound(weak_params(q1=0.3, q1s=0.6))
    with pytest.raises(ValueError):
        gap_and_bound(WiretapParams(q1=0.6, q1s=0.4, coupling="independent", **FIX))


def test_eve_ergodic_capacity_values():
    zero = WiretapParams(p1=0.5, p2=0.5, p1s=0.5, p2s=0.5, q1=0.5)
    assert eve_ergodic_capacity(zero) == 0.0
    one = WiretapParams(p1=0.0, p2=0.0, p1s=0.0, p2s=0.0, q1=0.3)
    assert eve_ergodic_capacity(one) == 1.0
    params = WiretapParams(q1=0.5, **FIX)
    want = 0.5 * (1 - h2(0.11)) + 0.5 * (1 - h2(0.15))
    got = eve_ergodic_capacity(params)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.44512, abs=1e-5)


def test_fano_bound_endpoints():
    assert fano_leakage_bound(0.0, 1000, 256, 32).bound_bits_total == 0.0
    full = fano_leakage_bound(1.0, 1000, 256, 32)
    assert full.bound_bits_total == pytest.approx(1000.0, abs=1e-12)


def test_fano_bound_fixture_value():
    lb = fano_leakage_bound(0.01, 10_000, 1024, 128)
    want_total = 0.01 * 10_000 + h2(0.01)
    assert lb.bound_bits_total == pytest.approx(want_total, abs=1e-12)
    assert lb.per_channel_use == pytest.approx(want_total / (1 << 17), abs=1e-15)
    assert lb.per_channel_use == pytest.approx(7.637e-4, abs=1e-6)
    assert lb.random_bit_count == 10_000
    assert lb.eve_fer == 0.01


def test_fano_bound_validation():
    with pytest.raises(ValueError):
        fano_leakage_bound(1.2, 10, 4, 2)
    with pytest.raises(ValueError):
        fano_leakage_bound(0.1, -1, 4, 2)
    with pytest.raises(ValueError):
        fano_leakage_bound(0.1, 10, 0, 2)


def test_rate_report_established_scenarios():
    sim = rate_report(WiretapParams(q1=0.5, **FIX))
    assert sim.scenario is ScenarioTag.SIM_A
    assert sim.capacity_established
    assert sim.upper_bound == sim.achievable
    assert sim.gap == 0.0
    strong = rate_report(WiretapParams(q1=0.7, q1s=0.3, coupling="independent", **FIX))
    assert strong.scenario is ScenarioTag.IND_STRONG
    assert strong.capacity_established


def test_rate_report_weak_scenario():
    rep = rate_report(weak_params())
    assert rep.scenario is ScenarioTag.IND_WEAK
    assert not rep.capacity_established
    assert rep.gap == pytest.approx(rep.upper_bound - rep.achievable, abs=1e-12)
    assert 0.0 < rep.gap <= rep.gap_upper
    assert rep.eve_ergodic_capacity > 0


def test_rate_report_unsupported_regime_keeps_upper_bound():
    rep = rate_report(weak_params(q1=0.3, q1s=0.6))
    assert rep.scenario is ScenarioTag.UNSUPPORTED
    assert rep.achievable is None
    assert rep.gap is None and rep.gap_upper is None
    assert not rep.capacity_established
    assert np.isfinite(rep.upper_bound)
    d = rep.to_dict()
    assert d["scenario"] == "UNSUPPORTED"
    assert set(d) == {
        "scenario",
        "upper_bound",
        "achievable",
        "capacity_established",
        "gap",
        "gap_upper",
        "eve_ergodic_capacity",
    }


def test_rate_report_is_deterministic():
    a = rate_report(weak_params()).to_dict()
    b = rate_report(weak_params()).to_dict()
    assert a == b


def test_sweep_coeff_surface_shape_and_peak():
    rows = sweep_gap_surface("gap-coeff", 10)
    assert len(rows) == 100
    assert all(tuple(r) == tuple(SWEEP_FIELDS) for r in map(dict, rows)) or all(
        set(r) == set(SWEEP_FIELDS) for r in rows
    )
    best = max(rows, key=lambda r: r["gap_coeff"])
    assert best["q1"] == 0.5 and best["q1s"] == 0.5
    assert best["gap_coeff"] == pytest.approx(0.25, abs=1e-15)
    for r in rows:
        if r["q1s"] == 0.0 or r["q1"] < r["q1s"]:
            assert r["gap_coeff"] == 0.0


def test_sweep_coeff_surface_row_order():
    rows = sweep_gap_surface("gap-coeff", 4)
    q1_seq = [r["q1"] for r in rows]
    assert q1_seq == sorted(q1_seq)
    assert [r["q1s"] for r in rows[:4]] == [0.0, 0.25, 0.5, 0.75]


def test_sweep_upper_surface_zero_fill_and_monotonicity():
    steps = 10
    rows = sweep_gap_surface("gap-upper", steps)
    grid = np.array([r["gap_upper"] for r in rows]).reshape(steps, steps)
    p2_vals = np.array([r["p2"] for r in rows]).reshape(steps, steps)
    p1s_vals = np.array([r["p1s"] for r in rows]).reshape(steps, steps)
    assert (grid[p1s_vals > p2_vals] == 0.0).all()
    inside = p1s_vals <= p2_vals
    assert (np.diff(grid, axis=0)[inside[1:, :] & inside[:-1, :]] >= -1e-12).all()
    assert (np.diff(grid, axis=1)[(grid[:, 1:] > 0) | (grid[:, :-1] > 0)] <= 1e-12).all()


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sweep_gap_surface("gap-coeff", 1)
    with pytest.raises(ValueError):
        sweep_gap_surface("side-channel", 10)
