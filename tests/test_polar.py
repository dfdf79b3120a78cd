"""Transform, reliability profile and successive-cancellation unit tests."""

from __future__ import annotations

import gc
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hierpolar import (
    ReliabilityProfile,
    WiretapParams,
    bec,
    bit_reversal_permutation,
    bsc,
    build_code,
    polar_transform,
    polar_transform_inverse,
    reliability_profile,
    sc_decode_batch,
    select_good_set,
    transmit,
)
from hierpolar import polar
from hierpolar.polar import _GENIE_TILE, _GENIE_WORKERS, _f_combine, _g_combine, _genie_plan


def dense_generator(n: int) -> np.ndarray:
    # independent oracle: B_n F^k as an explicit matrix over GF(2)
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    while g.shape[0] < n:
        g = np.kron(g, f)
    return g[bit_reversal_permutation(n)]


def test_bit_reversal_small_tables():
    assert bit_reversal_permutation(1).tolist() == [0]
    assert bit_reversal_permutation(2).tolist() == [0, 1]
    assert bit_reversal_permutation(4).tolist() == [0, 2, 1, 3]
    assert bit_reversal_permutation(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]


def test_bit_reversal_is_an_involution_permutation():
    for k in range(11):
        perm = bit_reversal_permutation(1 << k)
        assert sorted(perm.tolist()) == list(range(1 << k))
        assert np.array_equal(perm[perm], np.arange(1 << k))


def test_bit_reversal_rejects_bad_lengths():
    for n in (0, 3, 5, 6, -4):
        with pytest.raises(ValueError):
            bit_reversal_permutation(n)


def test_transform_kernel_cases():
    assert polar_transform([1, 0]).tolist() == [1, 0]
    assert polar_transform([1, 1]).tolist() == [0, 1]
    assert polar_transform([0, 1, 0, 0]).tolist() == [1, 0, 1, 0]


def test_transform_zero_input_stays_zero():
    for k in range(8):
        n = 1 << k
        assert not polar_transform(np.zeros(n, dtype=np.uint8)).any()


def test_transform_rejects_bad_lengths_and_values():
    with pytest.raises(ValueError):
        polar_transform([0, 1, 1])
    with pytest.raises(ValueError):
        polar_transform([0, 2])


def test_inverse_examples():
    assert polar_transform_inverse([1, 0]).tolist() == [1, 0]
    assert polar_transform_inverse([1, 0, 1, 0]).tolist() == [0, 1, 0, 0]


def test_transform_is_an_involution():
    rng = np.random.default_rng(7)
    for k in range(1, 13):
        n = 1 << k
        u = rng.integers(0, 2, size=(40, n), dtype=np.uint8)
        assert np.array_equal(polar_transform_inverse(polar_transform(u)), u)


def test_involution_on_many_length_256_vectors():
    rng = np.random.default_rng(11)
    u = rng.integers(0, 2, size=(1000, 256), dtype=np.uint8)
    assert np.array_equal(polar_transform_inverse(polar_transform(u)), u)


def test_transform_matches_dense_matrix_up_to_64():
    rng = np.random.default_rng(3)
    for n in (2, 4, 8, 16, 32, 64):
        g = dense_generator(n)
        u = rng.integers(0, 2, size=(64, n), dtype=np.uint8)
        assert np.array_equal(polar_transform(u), (u @ g) % 2)


def test_transform_linearity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.integers(0, 2, size=128, dtype=np.uint8)
        v = rng.integers(0, 2, size=128, dtype=np.uint8)
        assert np.array_equal(polar_transform(u ^ v), polar_transform(u) ^ polar_transform(v))


def test_bec_profile_exact_small():
    assert reliability_profile(bec(0.5), 2, "exact-bec").z.tolist() == [0.75, 0.25]
    assert reliability_profile(bec(0.5), 4, "exact-bec").z.tolist() == [
        0.9375,
        0.5625,
        0.4375,
        0.0625,
    ]


def test_bec_profile_values_sum_is_preserved():
    # each recursion step conserves the total: (2z - z^2) + z^2 = 2z
    for q in (0.1, 0.3, 0.625):
        z = reliability_profile(bec(q), 256, "exact-bec").z
        assert z.sum() == pytest.approx(256 * q, rel=1e-12)


def test_bound_profile_fixed_points():
    assert not reliability_profile(bsc(0.0), 64).z.any()
    assert (reliability_profile(bsc(0.5), 64).z == 1.0).all()


def test_bound_profile_starts_from_bhattacharyya():
    p = 0.11
    z0 = 2.0 * np.sqrt(p * (1 - p))
    z = reliability_profile(bsc(p), 2).z
    assert z[0] == pytest.approx(2 * z0 - z0 * z0, abs=1e-15)
    assert z[1] == pytest.approx(z0 * z0, abs=1e-15)


def test_bound_profile_on_erasure_law_is_exact():
    a = reliability_profile(bec(0.3), 128, "bhattacharyya-bound").z
    b = reliability_profile(bec(0.3), 128, "exact-bec").z
    assert np.array_equal(a, b)


def test_exact_bec_rejects_flip_law():
    with pytest.raises(ValueError):
        reliability_profile(bsc(0.1), 8, "exact-bec")


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        reliability_profile(bsc(0.1), 8, "monte-zirconia")


def test_profile_validation():
    with pytest.raises(ValueError):
        ReliabilityProfile(n=4, z=np.array([0.1, 0.2, 0.3]), method="exact-bec", law=bec(0.5))
    with pytest.raises(ValueError):
        ReliabilityProfile(n=2, z=np.array([0.1, 1.2]), method="exact-bec", law=bec(0.5))


def test_select_good_set_small_bec():
    prof = reliability_profile(bec(0.5), 4, "exact-bec")
    assert select_good_set(prof, 0.5).tolist() == [2, 3]
    assert select_good_set(prof, 1.0).tolist() == [0, 1, 2, 3]
    assert select_good_set(prof, 0.01).tolist() == []
    with pytest.raises(ValueError):
        select_good_set(prof, 0.0)
    with pytest.raises(ValueError):
        select_good_set(prof, 1.5)


def test_bound_profile_nesting_under_degradation():
    # smaller z0 dominates index by index, so good sets nest
    rng = np.random.default_rng(23)
    for _ in range(25):
        p_lo = rng.uniform(0.01, 0.2)
        p_hi = rng.uniform(p_lo, 0.45)
        z_lo = reliability_profile(bsc(p_lo), 256).z
        z_hi = reliability_profile(bsc(p_hi), 256).z
        assert (z_lo <= z_hi + 1e-15).all()
        for t in (1e-2, 1e-4, 1e-8):
            good_hi = set(select_good_set(reliability_profile(bsc(p_hi), 256), t).tolist())
            good_lo = set(select_good_set(reliability_profile(bsc(p_lo), 256), t).tolist())
            assert good_hi <= good_lo


def test_genie_profile_matches_exact_bec_at_n8():
    rng = np.random.default_rng(17)
    trials = 20_000
    exact = reliability_profile(bec(0.4), 8, "exact-bec").z
    est = reliability_profile(bec(0.4), 8, "genie-mc", trials=trials, rng=rng).z
    se = np.sqrt(exact * (1 - exact) / trials)
    assert (np.abs(est - exact) <= 4 * se + 1e-12).all()


def test_genie_profile_on_noiseless_law_is_zero():
    rng = np.random.default_rng(29)
    z = reliability_profile(bsc(0.0), 16, "genie-mc", trials=200, rng=rng).z
    assert not z.any()


def test_genie_profile_rejects_bad_trials():
    for trials in (0, -3, 2.5, 3.0, True, False, "5"):
        with pytest.raises(ValueError, match="trials"):
            reliability_profile(bsc(0.1), 8, "genie-mc", trials=trials)
    assert reliability_profile(bsc(0.1), 8, "genie-mc", trials=np.int64(3)).z.shape == (8,)


def test_genie_profile_rejects_a_seed_for_rng():
    for rng in (5, np.int64(5), np.random.RandomState(5)):
        with pytest.raises(TypeError, match="rng must be a numpy.random.Generator"):
            reliability_profile(bsc(0.1), 8, "genie-mc", trials=4, rng=rng)


def test_block_length_rejects_bool():
    for n in (True, False):
        with pytest.raises(ValueError, match=r"^n \(block length\) must be a power of two"):
            reliability_profile(bsc(0.1), n)
        with pytest.raises(ValueError, match="must be a power of two"):
            bit_reversal_permutation(n)


def certain_llr(bits) -> np.ndarray:
    # LLRs of perfectly known bits: +inf for 0, -inf for 1
    return np.where(np.asarray(bits, dtype=bool), -np.inf, np.inf)


def sc_decode_one(llr, frozen_mask, frozen_values, erasure_law=False):
    """Decode one block through the batch decoder: (decisions, ambiguous)."""
    decisions, ambiguous = sc_decode_batch(
        np.asarray(llr, dtype=np.float64)[None, :], frozen_mask, frozen_values, erasure_law
    )
    return decisions[0], bool(ambiguous[0])


def noiseless_roundtrip(n: int, rng: np.random.Generator) -> None:
    k = int(rng.integers(0, n + 1))
    unfrozen = np.sort(rng.choice(n, size=k, replace=False))
    frozen_mask = np.ones(n, dtype=bool)
    frozen_mask[unfrozen] = False
    frozen_values = np.where(frozen_mask, rng.integers(0, 2, size=n), 0).astype(np.uint8)
    u = frozen_values.copy()
    u[unfrozen] = rng.integers(0, 2, size=k, dtype=np.uint8)
    hat, ambiguous = sc_decode_one(certain_llr(polar_transform(u)), frozen_mask, frozen_values)
    assert np.array_equal(hat, u)
    assert not ambiguous


def test_sc_noiseless_roundtrip_many_specs():
    rng = np.random.default_rng(41)
    for n in (2, 8, 64, 256):
        for _ in range(20):
            noiseless_roundtrip(n, rng)


def test_sc_all_frozen_returns_frozen_values():
    rng = np.random.default_rng(43)
    n = 16
    llr = rng.normal(size=n)
    all_frozen = np.ones(n, dtype=bool)
    out, _ = sc_decode_one(llr, all_frozen, np.zeros(n, dtype=np.uint8))
    assert not out.any()
    vals = rng.integers(0, 2, size=n, dtype=np.uint8)
    out2, _ = sc_decode_one(llr, all_frozen, vals)
    assert out2.tolist() == vals.tolist()


def test_sc_tie_decodes_to_one_under_flip_law():
    out, ambiguous = sc_decode_one(np.zeros(2), np.zeros(2, dtype=bool), np.zeros(2, dtype=np.uint8))
    assert out.tolist() == [1, 1]
    assert not ambiguous


def test_sc_erasure_ambiguity_is_flagged():
    frozen_mask = np.array([True, True, False, False])
    _, ambiguous = sc_decode_one(np.zeros(4), frozen_mask, np.zeros(4, dtype=np.uint8), True)
    assert ambiguous


def test_sc_single_info_bit_bec_with_three_erasures():
    # one unfrozen position; the only surviving observation pins it
    rng = np.random.default_rng(47)
    frozen_mask = np.array([True, True, True, False])
    erased = np.array([True, True, True, False])
    for _ in range(100):
        u = np.zeros(4, dtype=np.uint8)
        u[3] = rng.integers(0, 2)
        x = polar_transform(u)
        llr = np.where(erased, 0.0, certain_llr(x))
        hat, ambiguous = sc_decode_one(llr, frozen_mask, np.zeros(4, dtype=np.uint8), True)
        assert not ambiguous
        assert np.array_equal(hat, u)
        assert polar_transform(hat)[3] == x[3]


def test_sc_length_mismatch_rejected():
    frozen_mask = np.array([True, True, True, False])
    zeros = np.zeros(4, dtype=np.uint8)
    bad_inputs = [
        ("frozen_mask", np.zeros((1, 8)), frozen_mask, zeros),  # length mismatch
        ("frozen_values", np.zeros((1, 4)), frozen_mask, np.zeros(8, dtype=np.uint8)),
        ("frozen_values", np.ones((1, 4)), np.ones(4, dtype=bool), np.array([2, 0, 0, 0])),
        ("llr", np.full((1, 4), np.nan), frozen_mask, zeros),
    ]
    for name, llr, mask, values in bad_inputs:
        with pytest.raises(ValueError, match=name):
            sc_decode_batch(llr, mask, values, False)


def test_sc_batch_agrees_with_single_block():
    rng = np.random.default_rng(53)
    n = 32
    frozen_mask = np.ones(n, dtype=bool)
    frozen_mask[rng.choice(n, size=12, replace=False)] = False
    frozen_values = np.where(frozen_mask, rng.integers(0, 2, size=n), 0).astype(np.uint8)
    llr = rng.normal(scale=3.0, size=(25, n))
    got, ambiguous = sc_decode_batch(llr, frozen_mask, frozen_values, False)
    assert not ambiguous.any()
    for row in range(25):
        single, _ = sc_decode_one(llr[row], frozen_mask, frozen_values)
        assert np.array_equal(got[row], single)


def test_sc_batch_per_row_frozen_values():
    rng = np.random.default_rng(59)
    n = 8
    mask = np.ones(n, dtype=bool)
    vals = rng.integers(0, 2, size=(6, n), dtype=np.uint8)
    out, ambiguous = sc_decode_batch(np.zeros((6, n)), mask, vals, False)
    assert np.array_equal(out, vals)
    assert not ambiguous.any()


def test_sc_batch_flags_only_ambiguous_rows():
    # row 0 fully known, row 1 fully erased; only row 1 is ambiguous
    frozen_mask = np.array([True, True, True, False])
    u = np.array([0, 0, 0, 1], dtype=np.uint8)
    llr = np.stack([certain_llr(polar_transform(u)), np.zeros(4)])
    out, ambiguous = sc_decode_batch(llr, frozen_mask, np.zeros(4, dtype=np.uint8), True)
    assert ambiguous.tolist() == [False, True]
    assert np.array_equal(out[0], u)


def reference_sc(llr, frozen_mask, frozen_values, erasure_law):
    """Plain SC on one row, after Arikan's recursion for x = u B_n F^k:
    the LLR of u_i splits y into halves and the earlier decisions into odd
    and even parts, and is recomputed from scratch for every i.  Returns the
    decisions, the ambiguity flag and the decision LLRs."""

    def bit_llr(y: np.ndarray, u: np.ndarray) -> np.ndarray:
        if y.size == 1:
            return y
        half, k = y.size // 2, u.size // 2
        odd_xor_even = u[0 : 2 * k : 2] ^ u[1 : 2 * k : 2]
        upper = bit_llr(y[:half], odd_xor_even)
        lower = bit_llr(y[half:], u[1 : 2 * k : 2])
        if u.size % 2 == 0:
            return _f_combine(upper, lower)
        return _g_combine(upper, lower, u[-1:])

    n = llr.size
    u = np.zeros(n, dtype=np.uint8)
    leaves = np.zeros(n)
    ambiguous = False
    for i in range(n):
        leaves[i] = bit_llr(llr, u[:i])[0]
        if frozen_mask[i]:
            u[i] = frozen_values[i]
        else:
            u[i] = leaves[i] <= 0.0
            ambiguous |= erasure_law and leaves[i] == 0.0
    return u, ambiguous, leaves


LLR_VALUES = st.one_of(
    st.sampled_from([0.0, np.inf, -np.inf, 36.0, -36.0, 1e300, -1e300]),
    st.floats(-60.0, 60.0),
)


@st.composite
def sc_inputs(draw):
    # fill=nothing() draws every entry on its own instead of repeating one
    # fill value, which would hide most partial-sum faults
    n = draw(st.sampled_from([1, 2, 4, 8, 16]))
    rows = draw(st.integers(1, 4))
    llr = draw(hnp.arrays(np.float64, (rows, n), elements=LLR_VALUES, fill=st.nothing()))
    frozen_mask = draw(hnp.arrays(bool, n, elements=st.booleans(), fill=st.nothing()))
    shape = (rows, n) if draw(st.booleans()) else (n,)
    frozen_values = draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 1), fill=st.nothing()))
    return llr, frozen_mask, frozen_values, draw(st.booleans())


@given(sc_inputs())
def test_sc_batch_matches_reference_recursion(case):
    llr, frozen_mask, frozen_values, erasure_law = case
    decisions, ambiguous = sc_decode_batch(llr, frozen_mask, frozen_values, erasure_law)
    values = np.broadcast_to(frozen_values, llr.shape)
    for row in range(llr.shape[0]):
        want, want_ambiguous, _ = reference_sc(llr[row], frozen_mask, values[row], erasure_law)
        assert decisions[row].tolist() == want.tolist()
        assert ambiguous[row] == want_ambiguous


def plain_sc(llr, frozen_mask, frozen_values, erasure_law):
    """The unpruned batched SC recursion: every node computes f and g with
    the general arithmetic, every position reaches the leaf rule.  The
    reference for sizes too large for reference_sc."""
    batch, n = llr.shape
    values = np.broadcast_to(frozen_values, (batch, n))
    decisions = np.empty((batch, n), dtype=np.uint8)
    ambiguous = np.zeros(batch, dtype=bool)

    def descend(seg, lo):  # seg in codeword order; returns the partial sums
        if seg.shape[1] == 1:
            col = seg[:, 0]
            if frozen_mask[lo]:
                u = values[:, lo]
            else:
                u = (col <= 0.0).astype(np.uint8)
                if erasure_law:
                    ambiguous[:] |= col == 0.0
            decisions[:, lo] = u
            return u[:, None]
        a, b = seg[:, 0::2], seg[:, 1::2]
        left = descend(_f_combine(a, b), lo)
        right = descend(_g_combine(a, b, left), lo + seg.shape[1] // 2)
        out = np.empty(seg.shape, dtype=np.uint8)
        out[:, 0::2] = left ^ right
        out[:, 1::2] = right
        return out

    descend(llr, 0)
    return decisions, ambiguous


@given(sc_inputs())
def test_plain_sc_matches_reference_recursion(case):
    llr, frozen_mask, frozen_values, erasure_law = case
    decisions, ambiguous = plain_sc(llr, frozen_mask, frozen_values, erasure_law)
    values = np.broadcast_to(frozen_values, llr.shape)
    for row in range(llr.shape[0]):
        want, want_ambiguous, _ = reference_sc(llr[row], frozen_mask, values[row], erasure_law)
        assert decisions[row].tolist() == want.tolist()
        assert ambiguous[row] == want_ambiguous


def phase_masks(code):
    """The frozen masks of both receivers' three phases for ``code``."""
    P, n, b = code.partition, code.n, code.b

    def mask(size, *index_sets):
        out = np.zeros(size, dtype=bool)
        for idx in index_sets:
            out[idx] = True
        return out

    return [
        mask(n, P.frozen),  # Bob, phase one
        ~mask(b, P.bec_info_main),  # Bob, phase two
        mask(n, P.frozen, P.crossblock_message, P.crossblock_random),  # Bob, phase three
        mask(n, P.frozen, P.perblock_message, P.crossblock_message),  # Eve, phase one
        ~mask(b, code.secret_info),  # Eve, phase two
        ~mask(b, code.random_info),
        ~mask(n, P.block_random),  # Eve, phase three
    ]


FIXTURE = WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.5)
IND_WEAK = WiretapParams(
    p1=0.02, p2=0.11, p1s=0.05, p2s=0.15, q1=0.6, q1s=0.4, coupling="independent"
)
PHASE_MASKS = [
    *phase_masks(build_code(FIXTURE, 1024, 128)),
    *phase_masks(build_code(IND_WEAK, 64, 1024)),
]


@st.composite
def pruned_sc_inputs(draw):
    # numpy draws from a hypothesis seed: element-wise drawing at n=1024 is
    # too slow, and the seed still shrinks
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        frozen_mask = draw(st.sampled_from(PHASE_MASKS))
    else:
        n = 1 << draw(st.integers(0, 10))
        frozen_mask = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    n = frozen_mask.size
    rows = draw(st.integers(1, 4))
    # up to 1e308, where sums of a few LLRs overflow to infinities
    lo = draw(st.integers(-320, 308))
    mag = 10.0 ** rng.uniform(lo, draw(st.integers(lo, 308)), size=(rows, n))
    llr = np.where(rng.random((rows, n)) < 0.5, -mag, mag)
    kind = draw(st.sampled_from(["finite", "ternary", "mixed"]))
    if kind != "finite":
        certain = rng.random((rows, n)) < (1.0 if kind == "ternary" else 0.5)
        llr[certain] = np.copysign(np.inf, llr[certain])
    zero = rng.random((rows, n)) < draw(st.sampled_from([0.0, 0.01, 0.3]))
    llr[zero] = np.copysign(0.0, llr[zero])
    shape = (rows, n) if draw(st.booleans()) else (n,)
    frozen_values = rng.integers(0, 2, size=shape, dtype=np.uint8) * draw(st.sampled_from([0, 1]))
    return llr, frozen_mask, frozen_values, draw(st.booleans())


@settings(max_examples=120)
@given(pruned_sc_inputs())
def test_pruned_sc_matches_plain_recursion(case):
    # finite, ternary and mixed calls take their own arithmetic and prune
    # Rate-0 and guarded Rate-1 nodes; none of it may move a decision
    llr, frozen_mask, frozen_values, erasure_law = case
    decisions, ambiguous = sc_decode_batch(llr, frozen_mask, frozen_values, erasure_law)
    want, want_ambiguous = plain_sc(llr, frozen_mask, frozen_values, erasure_law)
    assert np.array_equal(decisions, want)
    assert np.array_equal(ambiguous, want_ambiguous)


@pytest.mark.parametrize("n, magnitude", [(1024, 1.0), (8, 1e-120), (2, 1e-300)])
def test_rate1_guard_keeps_underflowed_ties(n, magnitude):
    # f applied log2(n) times to these magnitudes underflows to a tie, so
    # every position decides 1; hard decisions would decide 0 throughout
    llr = np.full((1, n), magnitude)
    decisions, ambiguous = sc_decode_batch(llr, np.zeros(n, bool), np.zeros(n, np.uint8), False)
    assert decisions.tolist() == [[1] * n]
    assert not ambiguous.any()
    assert plain_sc(llr, np.zeros(n, bool), np.zeros(n, np.uint8), False)[0].tolist() == [[1] * n]

@given(
    st.sampled_from([bsc(0.11), bsc(0.3), bec(0.4)]),
    st.sampled_from([2, 4, 8, 16]),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_genie_profile_matches_reference_genie_counts(law, n, trials, seed):
    z = reliability_profile(law, n, "genie-mc", trials=trials, rng=np.random.default_rng(seed)).z
    # the profile's draws: the bits of every trial, then the channel
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 2, size=(trials, n), dtype=np.uint8)
    llr = transmit(polar_transform(u), np.ones(trials, dtype=bool), (law, law), rng)
    bad = np.zeros(n)
    for row in range(trials):
        _, _, leaves = reference_sc(llr[row], np.ones(n, dtype=bool), u[row], law.is_erasure)
        bad += (leaves == 0.0) if law.is_erasure else ((leaves <= 0.0) != u[row])
    assert z.tolist() == (bad / trials).tolist()


def genie_leaves(llr, u):
    """The genie-aided SC recursion: plain_sc's depth-first tree with the
    true bits ``u`` as every partial sum.  Returns the (batch, n) decision
    LLRs in decoder order."""
    leaves = np.empty(llr.shape)

    def descend(seg, lo):  # seg in codeword order; returns the true partial sums
        if seg.shape[1] == 1:
            leaves[:, lo] = seg[:, 0]
            return u[:, lo : lo + 1]
        a, b = seg[:, 0::2], seg[:, 1::2]
        left = descend(_f_combine(a, b), lo)
        right = descend(_g_combine(a, b, left), lo + seg.shape[1] // 2)
        out = np.empty(seg.shape, dtype=np.uint8)
        out[:, 0::2] = left ^ right
        out[:, 1::2] = right
        return out

    descend(llr, 0)
    return leaves


@st.composite
def genie_cases(draw, kind):
    # a law of the given kind; trial counts around one, two and three
    # per-worker row tiles and just past a draw chunk of 2^22 / n trials, at
    # whose end the tiles start over
    n = draw(st.sampled_from([1 << k for k in range(12, -1, -1)]))
    if kind == "bsc(p)":
        law = bsc(draw(st.floats(0.001, 0.45)))
    elif kind == "bec(q)":
        law = bec(draw(st.floats(0.01, 0.99)))
    else:
        law = (bsc if kind.startswith("bsc") else bec)(float(kind[4:-1]))
    tile, chunk = max(1, _GENIE_TILE // _GENIE_WORKERS // n), (1 << 22) // n
    base = draw(st.sampled_from([0, tile, 2 * tile, 3 * tile, chunk]))
    trials = max(1, base + draw(st.integers(-2, 2 if base else 40)))
    return law, n, trials, draw(st.integers(0, 2**32 - 1))


def assert_genie_profile_matches_depth_first(law, n, trials, seed):
    # the level-wise zero-codeword profile against the genie on the drawn
    # codewords, through the general f and g
    z = reliability_profile(law, n, "genie-mc", trials=trials, rng=np.random.default_rng(seed)).z
    # the profile's draws: per chunk of trials, the bits, then the channel
    rng = np.random.default_rng(seed)
    bad = np.zeros(n)
    chunk = (1 << 22) // n
    for done in range(0, trials, chunk):
        m = min(chunk, trials - done)
        u = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        leaves = genie_leaves(transmit(polar_transform(u), np.ones(m, dtype=bool), (law, law), rng), u)
        wrong = (leaves == 0.0) if law.is_erasure else ((leaves <= 0.0) != u)
        bad += wrong.sum(axis=0)
    assert z.tolist() == (bad / trials).tolist()


@pytest.mark.parametrize("kind", ["bsc(0)", "bsc(p)", "bsc(0.5)", "bec(0)", "bec(q)", "bec(1)"])
@settings(max_examples=6)
@given(data=st.data())
def test_genie_profile_matches_depth_first_genie(kind, data):
    assert_genie_profile_matches_depth_first(*data.draw(genie_cases(kind)))


@pytest.mark.parametrize(
    "law, trials", [(bsc(0.11), 4096 + _GENIE_TILE // 1024 + 1), (bec(0.3), 3 * _GENIE_TILE // 1024 + 1)]
)
def test_genie_profile_matches_depth_first_genie_at_tile_and_chunk_ends(law, trials):
    # noisy laws at n = 1024: one tile and a row past a draw chunk, and a
    # row past three tiles
    assert_genie_profile_matches_depth_first(law, 1024, trials, 7)


@pytest.mark.parametrize("law, n, trials", [(bsc(0.07), 4096, 24), (bec(0.4), 2048, 40)])
def test_genie_profile_matches_depth_first_genie_past_the_coded_levels(law, n, trials):
    # the flip law runs its levels from width 128 down in floats; the
    # erasure law runs every level on codes
    assert_genie_profile_matches_depth_first(law, n, trials, 13)


def genie_profiles_by_worker_count(law, n, trials, seed, counts):
    # the profile computed with each number of workers in counts
    profiles = []
    for workers in counts:
        with mock.patch.object(polar, "_GENIE_WORKERS", workers):
            rng = np.random.default_rng(seed)
            profiles.append(reliability_profile(law, n, "genie-mc", trials=trials, rng=rng).z.tolist())
    return profiles


@pytest.mark.parametrize("kind", ["bsc(p)", "bec(q)"])
@settings(max_examples=12)
@given(data=st.data())
def test_genie_profile_does_not_depend_on_the_worker_count(kind, data):
    one, two, three = genie_profiles_by_worker_count(*data.draw(genie_cases(kind)), (1, 2, 3))
    assert one == two == three


@pytest.mark.parametrize("law", [bsc(0.11), bec(0.3)])
@pytest.mark.parametrize("n", [1, 4096])
def test_genie_profile_does_not_depend_on_the_worker_count_past_a_chunk(law, n):
    # the extreme block lengths, three rows into a second draw chunk
    one, two, three = genie_profiles_by_worker_count(law, n, (1 << 22) // n + 3, 23, (1, 2, 3))
    assert one == two == three


def test_genie_workers_keep_the_stream_under_frequent_thread_switches():
    # more workers than this machine's CPUs, switching threads every
    # microsecond: a draw taken out of order or a lost count changes z
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        one, four = genie_profiles_by_worker_count(bsc(0.11), 64, 200 * (_GENIE_TILE // 4 // 64) + 3, 17, (1, 4))
    finally:
        sys.setswitchinterval(interval)
    assert one == four


@pytest.mark.parametrize("where", ["second call", "first helper call"])
def test_genie_worker_failure_reaches_the_caller_and_ends_every_helper(monkeypatch, where):
    calls = []
    levels = polar._genie_levels

    def failing(*args):
        calls.append(threading.current_thread())
        caller = threading.current_thread() is threading.main_thread()
        if (len(calls) == 2) if where == "second call" else not caller:
            raise RuntimeError(where)
        if caller:
            time.sleep(0.005)  # let the helpers take tiles
        return levels(*args)

    monkeypatch.setattr(polar, "_genie_levels", failing)
    monkeypatch.setattr(polar, "_GENIE_WORKERS", 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=where):
        reliability_profile(bsc(0.11), 1024, "genie-mc", trials=2048, rng=np.random.default_rng(5))
    assert threading.active_count() == before
    # the failure stops the other workers after the tile they hold, long
    # before the 98 tiles of the run
    assert len(calls) < 10


def test_single_tile_genie_profile_starts_no_thread(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    monkeypatch.setattr(polar, "_GENIE_WORKERS", 4)
    tile = _GENIE_TILE // 4 // 64
    reliability_profile(bsc(0.1), 64, "genie-mc", trials=tile)
    assert started == []
    reliability_profile(bsc(0.1), 64, "genie-mc", trials=tile + 1)
    assert len(started) == 1


def test_genie_helpers_see_the_callers_errstate(monkeypatch):
    seen = {}
    step = polar._genie_step

    def recording(*args):
        seen.setdefault(threading.get_ident(), set()).add(np.geterr()["over"])
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.002)  # let the helpers take tiles
        step(*args)

    monkeypatch.setattr(polar, "_genie_step", recording)
    monkeypatch.setattr(polar, "_GENIE_WORKERS", 3)
    with np.errstate(over="raise"):
        reliability_profile(bsc(0.11), 1024, "genie-mc", trials=256, rng=np.random.default_rng(9))
    assert len(seen) == 3
    assert all(modes == {"raise"} for modes in seen.values())


@pytest.mark.parametrize("law", [bsc(0.02), bsc(0.15)])
def test_genie_plan_codes_flip_levels_down_to_width_32(law):
    _, finite, plan = _genie_plan(law, 1024)
    assert finite and 1024 >> len(plan) == 32
    for size, base, tables in plan:
        assert tables.shape[1] == (size**2).sum() <= _GENIE_TILE
        assert base.ravel().tolist() == (np.cumsum(size**2) - size.ravel() ** 2).tolist()
    # codes between the coded levels, the float LLRs out of the last one
    assert [tables.dtype for _, _, tables in plan] == [np.uint8] * 4 + [np.float64]


@pytest.mark.parametrize("law", [bec(0.3), bec(1.0), bsc(0.0), bsc(0.5)])
def test_genie_plan_codes_every_level_of_an_erasure_or_noiseless_law(law):
    # their nodes take at most three values ({0, +inf}, and -inf for bsc(0))
    for n in (1, 2, 1024, 2048):
        _, _, plan = _genie_plan(law, n)
        assert len(plan) == n.bit_length() - 1
        assert all(tables.shape[1] <= 9 * size.size for size, _, tables in plan)


def test_sc_leaves_no_reference_cycles():
    # a cycle would keep each call's workspace, frozen values and (genie-mc)
    # true bits alive until the cyclic collector happens to run
    rng = np.random.default_rng(61)
    gc.collect()
    gc.disable()
    try:
        llr, frozen_mask = rng.normal(size=(8, 64)), rng.random(64) < 0.5
        sc_decode_batch(llr, frozen_mask, np.zeros(64, np.uint8), False)
        assert gc.collect() == 0
        reliability_profile(bsc(0.1), 64, "genie-mc", trials=50, rng=rng)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sums_overflowing_to_opposite_infinities_cancel_to_a_tie():
    # g sums the two halves to +inf and -inf; the pinned bit at position 2
    # makes the next g add them, which must give a tie, as inf - inf does
    llr = np.array([[1e308, 1e308, -1e308, -1e308]])
    mask = np.array([True, True, True, False])
    decisions, ambiguous = sc_decode_batch(llr, mask, np.zeros(4, np.uint8), True)
    assert decisions.tolist() == [[0, 0, 0, 1]]
    assert ambiguous.tolist() == [True]
