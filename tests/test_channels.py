"""Channel law, wiretap parameter and fading process unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from hierpolar import (
    ChannelLaw,
    FadingTrace,
    ScenarioTag,
    WiretapParams,
    bec,
    bsc,
    classify_scenario,
    sample_fading,
    transmit,
)


def test_law_validation():
    assert bsc(0.3).kind == "bsc"
    assert bec(0.9).param == 0.9
    with pytest.raises(ValueError):
        bsc(0.6)
    with pytest.raises(ValueError):
        bec(1.1)
    with pytest.raises(ValueError):
        bsc(-0.1)
    with pytest.raises(ValueError):
        ChannelLaw("awgn", 0.1)
    assert bec(0.5).is_erasure
    assert not bsc(0.5).is_erasure


def test_params_orderings_enforced():
    WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.5)
    with pytest.raises(ValueError):
        WiretapParams(p1=0.1, p2=0.05, p1s=0.2, p2s=0.3, q1=0.5)  # p1 > p2
    with pytest.raises(ValueError):
        WiretapParams(p1=0.02, p2=0.05, p1s=0.3, p2s=0.2, q1=0.5)  # p1s > p2s
    with pytest.raises(ValueError):
        WiretapParams(p1=0.1, p2=0.2, p1s=0.05, p2s=0.3, q1=0.5)  # p1 > p1s
    with pytest.raises(ValueError):
        WiretapParams(p1=0.02, p2=0.3, p1s=0.1, p2s=0.2, q1=0.5)  # p2 > p2s
    with pytest.raises(ValueError):
        WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=1.5)
    with pytest.raises(ValueError):
        WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.5, coupling="entangled")


def test_params_coupling_rules():
    sim = WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.7)
    assert sim.q1s == 0.7  # simultaneous pins the eavesdropper state prob
    same = WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.7, q1s=0.7)
    assert same.q1s == 0.7
    with pytest.raises(ValueError):
        WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.7, q1s=0.3)
    with pytest.raises(ValueError):
        WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.7, coupling="independent")
    ind = WiretapParams(
        p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.7, q1s=0.3, coupling="independent"
    )
    assert ind.q2 == pytest.approx(0.3)
    assert ind.q2s == pytest.approx(0.7)


def test_classify_all_regimes():
    strong = dict(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15)
    weak = dict(p1=0.02, p2=0.11, p1s=0.05, p2s=0.15)
    assert classify_scenario(WiretapParams(q1=0.5, **strong)) is ScenarioTag.SIM_A
    assert classify_scenario(WiretapParams(q1=0.5, **weak)) is ScenarioTag.SIM_B
    assert (
        classify_scenario(
            WiretapParams(q1=0.5, q1s=0.9, coupling="independent", **strong)
        )
        is ScenarioTag.IND_STRONG
    )
    assert (
        classify_scenario(
            WiretapParams(q1=0.5, q1s=0.3, coupling="independent", **weak)
        )
        is ScenarioTag.IND_WEAK
    )
    assert (
        classify_scenario(
            WiretapParams(q1=0.3, q1s=0.6, coupling="independent", **weak)
        )
        is ScenarioTag.UNSUPPORTED
    )


def test_classify_boundaries():
    # p2 == p1s counts as the strong ordering
    tie = WiretapParams(p1=0.02, p2=0.1, p1s=0.1, p2s=0.2, q1=0.4, q1s=0.9, coupling="independent")
    assert classify_scenario(tie) is ScenarioTag.IND_STRONG
    # q1 == q1s stays supported under the interleaved ordering
    edge = WiretapParams(
        p1=0.02, p2=0.11, p1s=0.05, p2s=0.15, q1=0.4, q1s=0.4, coupling="independent"
    )
    assert classify_scenario(edge) is ScenarioTag.IND_WEAK


def test_unsupported_example_from_interface():
    params = WiretapParams(
        p1=0.02, p2=0.2, p1s=0.1, p2s=0.3, q1=0.3, q1s=0.6, coupling="independent"
    )
    assert classify_scenario(params) is ScenarioTag.UNSUPPORTED


def test_fading_trace_validation():
    with pytest.raises(ValueError):
        FadingTrace(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))
    tr = FadingTrace(np.array([True, False]), np.array([False, False]))
    assert tr.blocks == 2


def test_simultaneous_fading_shares_states():
    params = WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.5)
    rng = np.random.default_rng(101)
    for _ in range(20):
        tr = sample_fading(params, 64, rng)
        assert np.array_equal(tr.main_superior, tr.eve_superior)


def test_independent_fading_matches_marginals():
    params = WiretapParams(
        p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.8, q1s=0.25, coupling="independent"
    )
    rng = np.random.default_rng(103)
    b = 20_000
    tr = sample_fading(params, b, rng)
    assert tr.main_superior.mean() == pytest.approx(0.8, abs=0.02)
    assert tr.eve_superior.mean() == pytest.approx(0.25, abs=0.02)
    # independent draws should not be identical
    assert not np.array_equal(tr.main_superior, tr.eve_superior)


def test_degenerate_state_probabilities():
    params = WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=1.0)
    rng = np.random.default_rng(107)
    assert sample_fading(params, 100, rng).main_superior.all()
    params0 = WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.0)
    assert not sample_fading(params0, 100, rng).main_superior.any()
    with pytest.raises(ValueError):
        sample_fading(params, 0, rng)


def test_transmit_noiseless_flip_law_is_certain():
    rng = np.random.default_rng(109)
    x = rng.integers(0, 2, size=(4, 64), dtype=np.uint8)
    llr = transmit(x, np.array([True, False, True, False]), (bsc(0.0), bsc(0.0)), rng)
    assert llr.shape == (4, 64) and llr.dtype == np.float64
    assert np.array_equal(np.signbit(llr), x.astype(bool))
    assert np.isinf(llr).all()


def test_transmit_flip_law_magnitude_and_rate():
    rng = np.random.default_rng(113)
    superior = np.array([True, False, True, False])
    x = np.zeros((4, 1 << 15), dtype=np.uint8)
    llr = transmit(x, superior, (bsc(0.2), bsc(0.1)), rng)
    for rows, p in ((superior, 0.2), (~superior, 0.1)):
        assert np.allclose(np.abs(llr[rows]), np.log((1 - p) / p))
        assert (llr[rows] < 0).mean() == pytest.approx(p, abs=0.01)


def test_transmit_symmetric_flip_law_gives_zero_llr():
    rng = np.random.default_rng(127)
    llr = transmit(np.ones((2, 16), dtype=np.uint8), np.array([True, False]), (bsc(0.5), bsc(0.5)), rng)
    assert not llr.any()


def test_transmit_erasure_law():
    rng = np.random.default_rng(131)
    q = 0.3
    x = rng.integers(0, 2, size=(2, 1 << 15), dtype=np.uint8)
    llr = transmit(x, np.array([True, False]), (bec(q), bec(q)), rng)
    erased = llr == 0.0
    assert erased.mean() == pytest.approx(q, abs=0.01)
    assert np.array_equal(np.signbit(llr[~erased]), x[~erased].astype(bool))
    assert np.isinf(llr[~erased]).all()


def test_transmit_frame_equals_per_row_draws():
    # one frame draw gives each row the noise of successive rng.random(n)
    # draws, under that row's law
    superior = np.array([True, False, False, True, False])
    for laws in ((bsc(0.1), bsc(0.3)), (bec(0.2), bsc(0.05))):
        x = np.random.default_rng(137).integers(0, 2, size=(5, 32), dtype=np.uint8)
        llr = transmit(x, superior, laws, np.random.default_rng(139))
        rng = np.random.default_rng(139)
        for row, sup in zip(range(5), superior):
            law = laws[0] if sup else laws[1]
            hit = rng.random(32) < law.param
            if law.is_erasure:
                want = np.where(hit, 0.0, np.where(x[row] == 1, -np.inf, np.inf))
            else:
                mag = np.log((1.0 - law.param) / law.param)
                want = np.where(x[row] ^ hit, -mag, mag)
            assert np.array_equal(llr[row], want)


def test_transmit_rejects_bad_frame_shapes():
    rng = np.random.default_rng(137)
    laws = (bsc(0.1), bsc(0.2))
    with pytest.raises(ValueError, match="x must"):
        transmit(np.zeros(4, dtype=np.uint8), np.ones(1, dtype=bool), laws, rng)
    with pytest.raises(ValueError, match="x must"):
        transmit(np.zeros((2, 2, 4), dtype=np.uint8), np.ones(2, dtype=bool), laws, rng)
    with pytest.raises(ValueError, match="superior"):
        transmit(np.zeros((2, 4), dtype=np.uint8), np.ones(3, dtype=bool), laws, rng)
