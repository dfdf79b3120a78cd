"""Monte Carlo driver, trial serialization and toy leakage oracle tests."""

from __future__ import annotations

import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hierpolar import (
    SimConfig,
    WiretapParams,
    build_code,
    derive_trial_seed,
    exact_leakage_toy,
    fano_leakage_bound,
    rate_report,
    run_simulation,
    toy_code,
    total_message_bits,
    total_random_bits,
    wilson_interval,
    write_trials,
)
from hierpolar import polar, scheme, sim
from hierpolar.sim import TRIAL_FIELDS, _manual_toy

SIM_A = WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.5)
IND_WEAK = WiretapParams(
    p1=0.02, p2=0.11, p1s=0.05, p2s=0.15, q1=0.6, q1s=0.4, coupling="independent"
)


def small_config(**kw) -> SimConfig:
    base = dict(params=SIM_A, n=64, b=16, trials=30, seed=7, delta=0.25)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(b=1)
    # sizes, trials and seed must be integers, not bools; numpy integers are
    # stored as int
    for name in ("n", "b", "trials", "seed"):
        for bad in (2.5, True, "3", np.float64(3.0)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                small_config(**{name: bad})
    cfg = small_config(trials=np.int64(3), seed=np.uint32(9))
    assert type(cfg.trials) is int and type(cfg.seed) is int
    assert (cfg.trials, cfg.seed) == (3, 9)
    _, records = run_simulation(cfg)
    assert [r.seed for r in records] == [derive_trial_seed(9, t) for t in range(3)]


def test_trial_seed_matches_hash_spec():
    # first 8 bytes of sha256("seed:trial"), big-endian
    for seed, trial in ((1, 0), (1, 17), (999, 3)):
        digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
        assert derive_trial_seed(seed, trial) == int.from_bytes(digest[:8], "big")


def test_trial_seeds_are_distinct_across_trials_and_seeds():
    seeds = {derive_trial_seed(s, t) for s in (1, 2) for t in range(200)}
    assert len(seeds) == 400


def test_wilson_interval_properties():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.1
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.9
    for errors, trials in ((3, 50), (17, 200), (1, 7)):
        lo, hi = wilson_interval(errors, trials)
        assert 0.0 <= lo <= errors / trials <= hi <= 1.0
    wide = wilson_interval(5, 20)
    narrow = wilson_interval(50, 200)
    assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(8, 4)


def test_run_simulation_is_deterministic():
    rep_a, recs_a = run_simulation(small_config())
    rep_b, recs_b = run_simulation(small_config())
    assert recs_a == recs_b
    da, db = rep_a.to_dict(), rep_b.to_dict()
    da.pop("wall_seconds")
    db.pop("wall_seconds")
    assert da == db


SHORT_CODES = {params: build_code(params, 16, 8, 0.5) for params in (SIM_A, IND_WEAK)}


@given(st.sampled_from(list(SHORT_CODES)), st.integers(1, 4), st.integers(0, 2**63 - 1))
def test_trials_are_independent_of_run_length(params, trials, seed):
    def records(count: int) -> list:
        config = SimConfig(params=params, n=16, b=8, trials=count, seed=seed, delta=0.5)
        return run_simulation(config, code=SHORT_CODES[params])[1]

    assert records(trials) == records(trials + 3)[:trials]


def fixture_at(q1: float) -> WiretapParams:
    return WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=q1)


SHORT_WIDE = dict(n=32, b=64, delta=0.9, trials=10, seed=3)


@pytest.mark.parametrize(
    "config, frames_per_chunk",
    [
        pytest.param(small_config(**SHORT_WIDE), 1, id="1"),
        pytest.param(small_config(**SHORT_WIDE), 3, id="3"),
        # every block superior, then every block degraded: one of the
        # decoders' two block slices is empty in every chunk
        pytest.param(small_config(params=fixture_at(1.0), **SHORT_WIDE), 3, id="all-superior"),
        pytest.param(small_config(params=fixture_at(0.0), **SHORT_WIDE), 3, id="all-degraded"),
        # independent fading lays the eavesdropper's rows out apart from Bob's
        pytest.param(small_config(params=IND_WEAK, **SHORT_WIDE), 3, id="independent"),
        # chunks of 2^18, 2^19 and 2^20 LLRs at n b = 2^16
        *(
            pytest.param(small_config(params=IND_WEAK, n=64, b=1024, trials=10, seed=5), k, id=f"2^{e}")
            for k, e in ((4, 18), (8, 19), (16, 20))
        ),
    ],
)
def test_records_do_not_depend_on_chunk_size(monkeypatch, config, frames_per_chunk):
    # against one chunk of every trial; both receivers fail some of the
    # short-wide frames, so a draw taken from the wrong trial's generator
    # or a block decoded in another's row shows in the records
    monkeypatch.setattr(sim, "_CHUNK_LLRS", config.trials * config.b * config.n)
    _, want = run_simulation(config)
    if config.params == SIM_A:
        assert not all(r.bob_ok for r in want) and not all(r.eve_ok for r in want)
    monkeypatch.setattr(sim, "_CHUNK_LLRS", frames_per_chunk * config.b * config.n)
    _, got = run_simulation(config)
    assert got == want


def test_a_full_chunk_of_fixture_frames_peaks_below_19_bytes_per_llr(monkeypatch):
    # the decoders take the superior and the degraded blocks of a chunk as
    # two slices of its row buffer; with a fancy-index copy of each slice
    # the peak was 22.4 bytes per LLR
    monkeypatch.setattr(sim, "_CHUNK_LLRS", 1 << 19)
    config = SimConfig(params=SIM_A, n=1024, b=128, trials=4, seed=5)
    code = build_code(SIM_A, 1024, 128)
    run_simulation(config, code=code)  # caches filled outside the count
    tracemalloc.start()
    try:
        run_simulation(config, code=code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 19 * (1 << 19)


def test_fixture_flip_law_calls_decode_on_value_codes(monkeypatch):
    # phases one and three decode each block under one BSC, so every such
    # call of both receivers runs the coded levels; phase two's erasure-law
    # calls stay on floats
    receiver, calls, roots = [], [], []
    coded, decode = polar._sc_coded, scheme.sc_decode_batch

    def count_roots(seg, lo, level, run):
        roots.append(level == 0)
        return coded(seg, lo, level, run)

    def record(llr, frozen_mask, frozen_values, erasure_law):
        before = sum(roots)
        out = decode(llr, frozen_mask, frozen_values, erasure_law)
        calls.append((receiver[-1], erasure_law, sum(roots) - before))
        return out

    def tagged(name, run):
        return lambda *args: receiver.append(name) or run(*args)

    monkeypatch.setattr(polar, "_sc_coded", count_roots)
    monkeypatch.setattr(scheme, "sc_decode_batch", record)
    monkeypatch.setattr(sim, "bob_decode", tagged("bob", sim.bob_decode))
    monkeypatch.setattr(sim, "eve_genie_decode", tagged("eve", sim.eve_genie_decode))
    run_simulation(SimConfig(params=SIM_A, n=1024, b=128, trials=4, seed=5))
    # one chunk: each receiver's phase one and phase three, one coded root
    # each, and its phase-two calls, none
    assert sorted((who, coded_roots) for who, erasure, coded_roots in calls if not erasure) == [
        ("bob", 1), ("bob", 1), ("eve", 1), ("eve", 1)
    ]
    phase_two = [(who, coded_roots) for who, erasure, coded_roots in calls if erasure]
    assert {who for who, _ in phase_two} == {"bob", "eve"}
    assert all(coded_roots == 0 for _, coded_roots in phase_two)


def test_summary_aggregates_match_records():
    report, records = run_simulation(small_config())
    assert report.trials == len(records) == 30
    assert report.bob_frame_errors == sum(1 for r in records if not r.bob_ok)
    assert report.eve_frame_errors == sum(1 for r in records if not r.eve_ok)
    assert report.bob_fer == report.bob_frame_errors / 30
    lo, hi = report.bob_fer_ci95
    assert lo <= report.bob_fer <= hi
    lo, hi = report.eve_genie_fer_ci95
    assert lo <= report.eve_genie_fer <= hi
    for r in records:
        assert 0 <= r.main_superior <= 16 and 0 <= r.eve_superior <= 16
        assert r.seed == derive_trial_seed(7, r.trial)
        if r.bob_ok:
            assert r.bob_bit_errors == 0


def test_summary_carries_analytic_context():
    report, _ = run_simulation(small_config())
    code = build_code(SIM_A, 64, 16, 0.25)
    assert report.message_bits == total_message_bits(code)
    assert report.random_bits == total_random_bits(code)
    want = fano_leakage_bound(report.eve_genie_fer, report.random_bits, 64, 16)
    assert report.leakage.bound_bits_total == want.bound_bits_total
    assert report.rate_bounds == rate_report(SIM_A).to_dict()
    d = report.to_dict()
    assert d["config"]["n"] == 64 and d["config"]["seed"] == 7
    assert d["leakage_bound_per_use"] == want.per_channel_use


def test_simulation_reuses_supplied_code():
    code = build_code(SIM_A, 64, 16, 0.25)
    rep_a, recs_a = run_simulation(small_config(), code=code)
    rep_b, recs_b = run_simulation(small_config())
    assert recs_a == recs_b
    with pytest.raises(ValueError):
        run_simulation(small_config(n=128, b=16), code=code)
    # a code built for other params, delta or construction would be reported
    # under the configuration's values
    for field, kw in (
        ("params", dict(params=IND_WEAK)),
        ("delta", dict(delta=0.9)),
        ("construction", dict(construction="genie-mc")),
        ("b", dict(b=32)),
        ("params, delta", dict(params=IND_WEAK, delta=0.5)),
    ):
        with pytest.raises(ValueError, match=f"configured {field}$"):
            run_simulation(small_config(**kw), code=code)
    # construction_trials is not part of a code, so it may differ
    run_simulation(small_config(trials=2, construction_trials=5), code=code)


def test_noiseless_degenerate_params_never_fail():
    params = WiretapParams(p1=0.0, p2=0.0, p1s=0.0, p2s=0.0, q1=0.5)
    report, records = run_simulation(
        SimConfig(params=params, n=32, b=8, trials=20, seed=3, delta=0.25)
    )
    assert report.bob_fer == 0.0
    assert report.eve_genie_fer == 0.0
    assert all(r.bob_bit_errors == 0 for r in records)


def test_ndjson_lines_are_compact_and_ordered():
    _, records = run_simulation(small_config(trials=5))
    buf = io.StringIO()
    write_trials(records, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 5
    for i, line in enumerate(lines):
        assert " " not in line.split('"bob_ok"')[0]
        obj = json.loads(line)
        assert list(obj) == list(TRIAL_FIELDS)
        assert obj["trial"] == i
        assert isinstance(obj["bob_ok"], bool)


def test_csv_format_and_header():
    _, records = run_simulation(small_config(trials=4))
    buf = io.StringIO()
    write_trials(records, buf, fmt="csv")
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(TRIAL_FIELDS)
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[4] in ("true", "false")
    with pytest.raises(ValueError):
        write_trials(records, io.StringIO(), fmt="parquet")


def test_write_trials_output_is_byte_stable():
    _, records = run_simulation(small_config(trials=6))
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_trials(records, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def test_toy_variants():
    randomized = toy_code("randomized")
    assert total_message_bits(randomized) == 0
    assert total_random_bits(randomized) == 8
    message = toy_code("message")
    assert total_message_bits(message) == 2
    with pytest.raises(ValueError):
        toy_code("adaptive")


def test_toy_leakage_endpoints():
    assert exact_leakage_toy(toy_code("randomized")) == pytest.approx(0.0, abs=1e-9)
    # noiseless eavesdropper plus genie-free message bits: everything leaks
    assert exact_leakage_toy(toy_code("message")) == pytest.approx(2.0, abs=1e-9)


def test_toy_leakage_monotone_under_randomization():
    params = WiretapParams(p1=0.0, p2=0.0, p1s=0.0, p2s=0.0, q1=1.0)
    chain = [
        ((0, 1), (2, 3)),
        ((0, 1, 2), (3,)),
        ((0, 1, 2, 3), ()),
    ]
    leaks = [
        exact_leakage_toy(_manual_toy(params, block_random, perblock))
        for block_random, perblock in chain
    ]
    assert leaks[0] == pytest.approx(4.0, abs=1e-9)
    assert leaks[1] == pytest.approx(2.0, abs=1e-9)
    assert leaks[2] == pytest.approx(0.0, abs=1e-9)
    assert leaks[0] > leaks[1] > leaks[2]


def test_toy_leakage_with_noise_stays_below_message_count():
    params = WiretapParams(p1=0.0, p2=0.0, p1s=0.1, p2s=0.2, q1=0.6)
    code = _manual_toy(params, (0, 1, 2), (3,))
    leak = exact_leakage_toy(code)
    assert 0.0 <= leak <= 2.0
    # eavesdropper noise must strictly reduce the noiseless leakage
    assert leak < 2.0


def test_toy_enumeration_guard():
    params = WiretapParams(p1=0.0, p2=0.0, p1s=0.0, p2s=0.0, q1=1.0)
    big = _manual_toy(params, tuple(range(8)), (), n=8, b=4)
    with pytest.raises(ValueError):
        exact_leakage_toy(big)
