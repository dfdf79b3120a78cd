"""The benchmark's own tests: every output check passes on the program's
real output and fails on a corrupted copy of it.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hierpolar as hp  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def oracle():
    return checks.Oracle()


@pytest.fixture(scope="module")
def sim_round(oracle):
    params = hp.WiretapParams(**workloads.FIXTURE)
    code = hp.build_code(params, 64, 8, workloads.DELTA)
    summary, records = hp.run_simulation(hp.SimConfig(params=params, n=64, b=8, trials=6, seed=5), code=code)
    p = checks.param_dict(params)
    args = (p, 64, 8, code.partition.sizes(), 5, 6)
    return args, summary.to_dict(), [r.to_dict() for r in records], oracle.report(p)


def test_simulation_round_passes(sim_round):
    args, summary, records, rate = sim_round
    assert checks.check_round(*args, summary, records, rate) == (set(), [])


@pytest.mark.parametrize("field", ["bob_ok", "eve_ok"])
def test_flipped_outcome_fails(sim_round, field):
    args, summary, records, rate = sim_round
    records = copy.deepcopy(records)
    records[2][field] = not records[2][field]
    bad, problems = checks.check_round(*args, summary, records, rate)
    assert bad and problems


def test_bob_ok_with_bit_errors_fails(sim_round):
    args, summary, records, rate = sim_round
    records = copy.deepcopy(records)
    records[1].update(bob_ok=True, bob_bit_errors=3)
    bad, problems = checks.check_round(*args, summary, records, rate)
    assert 1 in bad and any("bit errors" in m for m in problems)


@pytest.mark.parametrize("field", ["main_superior", "eve_superior", "seed"])
def test_shifted_record_fails(sim_round, field):
    args, summary, records, rate = sim_round
    records = copy.deepcopy(records)
    records[0][field] += 1
    bad, problems = checks.check_round(*args, summary, records, rate)
    assert bad == {0} and problems


@pytest.mark.parametrize("field", ["bob_fer", "leakage_bound_bits_total", "designed_rate"])
def test_perturbed_summary_fails(sim_round, field):
    args, summary, records, rate = sim_round
    summary = dict(summary, **{field: summary[field] + 1e-9})
    bad, problems = checks.check_round(*args, summary, records, rate)
    assert len(bad) == 6 and problems


def test_reliability_hold():
    assert checks.check_reliability("Bob", 1, 40) == []
    assert checks.check_reliability("Bob", 12, 40)


@pytest.fixture(scope="module")
def closed_form():
    wl = workloads.ClosedForm()
    st = wl.inputs(3)
    return wl, st


def test_rate_reports_pass_and_perturbed_rates_fail(closed_form, oracle):
    _, st = closed_form
    for kw in st["mix"]:
        got = hp.rate_report(hp.WiretapParams(**kw)).to_dict()
        want = oracle.report(dict(kw, q1s=kw.get("q1s", kw["q1"])))
        assert checks.check_report(got, want) == []
        for key in ("upper_bound", "achievable", "gap", "gap_upper", "eve_ergodic_capacity"):
            if got[key] is not None:
                assert checks.check_report(dict(got, **{key: got[key] + 1e-9}), want), (kw, key)


def test_sweeps_pass_and_corrupted_rows_fail(closed_form, oracle):
    wl, st = closed_form
    for surface, const in st["sweeps"]:
        rows = hp.sweep_gap_surface(surface, wl.STEPS, **const)
        assert checks.check_sweep(surface, wl.STEPS, const, rows, oracle) == []
        for key in ("gap_upper", "gap_coeff"):
            bad = copy.deepcopy(rows)
            i = next(i for i, r in enumerate(bad) if r[key] > 0)
            bad[i][key] += 1e-9
            assert checks.check_sweep(surface, wl.STEPS, const, bad, oracle)
        outside = copy.deepcopy(rows)
        i = next(i for i, r in enumerate(outside) if r["gap_upper"] == 0 or r["gap_coeff"] == 0)
        key = "gap_upper" if outside[i]["gap_upper"] == 0 else "gap_coeff"
        outside[i][key] = 1e-3
        assert checks.check_sweep(surface, wl.STEPS, const, outside, oracle)


def test_genie_flip_profile_above_bound_fails():
    p, n, trials = 0.11, 256, 512
    z = hp.reliability_profile(hp.bsc(p), n, "genie-mc", trials=trials, rng=np.random.default_rng(1)).z
    assert checks.check_flip_profile(z, p, trials, "bsc") == []
    bound, slack = checks.flip_profile_slack(p, n, trials)
    i = int(np.argmin(bound + slack))
    z = z.copy()
    z[i] = bound[i] + 2 * slack[i]
    assert checks.check_flip_profile(z, p, trials, "bsc")


def test_genie_erasure_profile_off_recursion_fails():
    q, n, trials = 0.4, 256, 1024
    z = hp.reliability_profile(hp.bec(q), n, "genie-mc", trials=trials, rng=np.random.default_rng(2)).z
    assert checks.check_erasure_profile(z, q, trials, "bec") == []
    exact = checks.polarize(q, n)
    slack = checks.binomial_slack(exact * (1 - exact), trials, checks.SLACK_DELTA / 2)
    i = int(np.argmin(np.abs(exact - 0.25)))
    z = z.copy()
    z[i] = exact[i] + 2 * slack[i]
    assert checks.check_erasure_profile(z, q, trials, "bec")


def test_partition_check():
    params = hp.WiretapParams(**workloads.WEAK)
    part = hp.build_code(params, 64, 1024, workloads.DELTA).partition
    arrays = {name: getattr(part, name) for name in checks.CLASSES + workloads.BEC_FIELDS}
    assert checks.check_partition(arrays, 64, 1024, "IND-WEAK") == []
    moved = dict(arrays, block_random=np.union1d(arrays["block_random"], arrays["frozen"][:1]))
    assert checks.check_partition(moved, 64, 1024, "IND-WEAK")
    escaped = dict(arrays, bec_info_eve=np.union1d(arrays["bec_info_eve"], np.setdiff1d(np.arange(1024),
                                                                                        arrays["bec_info_main"])[:1]))
    assert checks.check_partition(escaped, 64, 1024, "IND-WEAK")


def _sc_samples(erasure_law: bool, rows: int = 24, n: int = 32) -> list[dict]:
    rng = np.random.default_rng(7)
    if erasure_law:
        llr = np.where(rng.random((rows, n)) < 0.3, 0.0, np.where(rng.random((rows, n)) < 0.5, np.inf, -np.inf))
    else:
        llr = rng.normal(2.0, 3.0, (rows, n))
        llr[:3, :3] = [np.inf, -np.inf, 0.0]  # certainties and a tie in a few rows
    mask = rng.random(n) < 0.5
    values = np.where(mask, rng.integers(0, 2, (rows, n)), 0).astype(np.uint8)
    decisions, ambiguous = hp.sc_decode_batch(llr, mask, values, erasure_law)
    return [{"frame": (0, 0), "llr": llr, "frozen_mask": mask, "frozen_values": values,
             "erasure_law": erasure_law, "decisions": decisions, "ambiguous": ambiguous}]


@pytest.mark.parametrize("erasure_law", [False, True])
def test_reference_sc_agrees_and_catches_a_flip(erasure_law):
    samples = _sc_samples(erasure_law)
    counts, bad, problems = checks.compare_sc(samples)
    assert (bad, problems) == (set(), []) and counts["compared"] > 0
    unfrozen = np.nonzero(~samples[0]["frozen_mask"])[0]
    row = int(np.nonzero(~checks.reference_sc(samples[0]["llr"], samples[0]["frozen_mask"],
                                              samples[0]["frozen_values"], erasure_law)[2])[0][0])
    flipped = [dict(samples[0], decisions=samples[0]["decisions"].copy())]
    flipped[0]["decisions"][row, unfrozen[-1]] ^= 1
    assert checks.compare_sc(flipped)[1] == {(0, 0)}
    if erasure_law:
        flagged = [dict(samples[0], ambiguous=~samples[0]["ambiguous"])]
        assert checks.compare_sc(flagged)[2]


def test_census_fills_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    tracing.standard_hooks(tracer)
    restore = tracer.install(hp)
    try:
        problems = workloads.census(hp, tracer.call)
    finally:
        restore()
    assert problems == []
    values = tracing.layer_metrics(tracer)
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_pct"}
    assert names == set(values) and all(values[k] is not None and values[k] > 0 for k in names)
