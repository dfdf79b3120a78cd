"""Hierarchical code construction, encoder and decoder unit tests."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hierpolar import (
    FadingTrace,
    MessageBundle,
    RandomBundle,
    ScenarioTag,
    UnsupportedScenarioError,
    WiretapParams,
    binary_entropy,
    bit_reversal_permutation,
    bob_decode,
    bsc,
    build_code,
    bundle_shapes,
    designed_rate,
    encode,
    eve_genie_decode,
    reliability_profile,
    sample_fading,
    select_good_set,
    target_fractions,
    total_message_bits,
    total_random_bits,
    transmit,
)

SIM_A = WiretapParams(p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.5)
SIM_B = WiretapParams(p1=0.02, p2=0.11, p1s=0.05, p2s=0.15, q1=0.5)
IND_STRONG = WiretapParams(
    p1=0.02, p2=0.05, p1s=0.11, p2s=0.15, q1=0.5, q1s=0.4, coupling="independent"
)
IND_WEAK = WiretapParams(
    p1=0.02, p2=0.11, p1s=0.05, p2s=0.15, q1=0.6, q1s=0.4, coupling="independent"
)
ALL_SCENARIOS = (SIM_A, SIM_B, IND_STRONG, IND_WEAK)

N_CLASSES = (
    "block_random",
    "crossblock_secret",
    "perblock_message",
    "crossblock_message",
    "crossblock_random",
    "frozen",
)


def dense_generator(n: int) -> np.ndarray:
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    while g.shape[0] < n:
        g = np.kron(g, f)
    return g[bit_reversal_permutation(n)]


def noiseless_obs(frame) -> np.ndarray:
    return np.where(frame, -np.inf, np.inf)


def test_partition_is_a_partition_for_every_scenario():
    for params in ALL_SCENARIOS:
        part = build_code(params, 64, 16).partition
        pieces = [getattr(part, c) for c in N_CLASSES]
        merged = np.concatenate(pieces)
        assert merged.size == 64
        assert np.array_equal(np.sort(merged), np.arange(64))
        for arr in pieces:
            assert np.array_equal(arr, np.sort(arr))
        for bec_set in (part.bec_info_main, part.bec_info_eve):
            assert bec_set.size == 0 or (0 <= bec_set[0] and bec_set[-1] < 16)
        sizes = part.sizes()
        assert sum(sizes[c] for c in N_CLASSES) == 64


def test_partition_classes_follow_good_set_chain():
    # cumulative unions reproduce the four nested good sets, most exclusive
    # law first: p2s < p1s < p2 < p1 under the strong ordering and
    # p2s < p2 < p1s < p1 under the interleaved one
    chains = {
        SIM_A: (
            ("p2s", "block_random"),
            ("p1s", "crossblock_secret"),
            ("p2", "perblock_message"),
            ("p1", "crossblock_message"),
        ),
        IND_WEAK: (
            ("p2s", "block_random"),
            ("p2", "crossblock_secret"),
            ("p1s", "crossblock_random"),
            ("p1", "crossblock_message"),
        ),
    }
    t = 0.25 / (2 * 256)
    for params, chain in chains.items():
        part = build_code(params, 256, 32, delta=0.25).partition
        acc = set()
        for law, cls in chain:
            acc |= set(getattr(part, cls).tolist())
            good = select_good_set(reliability_profile(bsc(getattr(params, law)), 256), t)
            assert acc == set(good.tolist()), (params, law)
        unused = set(N_CLASSES) - {cls for _, cls in chain} - {"frozen"}
        assert [getattr(part, cls).size for cls in unused] == [0]
        assert set(part.frozen.tolist()) == set(range(256)) - acc


def test_partition_weak_layout_has_no_per_block_class():
    for params in (SIM_B, IND_WEAK):
        part = build_code(params, 64, 16).partition
        assert part.perblock_message.size == 0


def test_partition_collapses_when_states_coincide():
    # p1 == p2 leaves no cross-block message freedom
    flat_main = WiretapParams(p1=0.05, p2=0.05, p1s=0.11, p2s=0.15, q1=0.5)
    assert build_code(flat_main, 64, 16).partition.crossblock_message.size == 0
    # p1s == p2s leaves no cross-block secret rows
    flat_eve = WiretapParams(p1=0.02, p2=0.05, p1s=0.15, p2s=0.15, q1=0.5)
    assert build_code(flat_eve, 64, 16).partition.crossblock_secret.size == 0


def test_partition_validation():
    with pytest.raises(ValueError):
        build_code(SIM_A, 64, 16, delta=0.0)
    with pytest.raises(ValueError):
        build_code(SIM_A, 64, 16, delta=1.0)
    with pytest.raises(ValueError):
        build_code(SIM_A, 63, 16)
    with pytest.raises(ValueError, match=r"^b \(blocks per frame\) must be a power of two"):
        build_code(SIM_A, 64, 12)
    with pytest.raises(ValueError, match=r"^n \(block length\) must be a power of two"):
        build_code(SIM_A, 48, 8)
    with pytest.raises(ValueError):
        build_code(SIM_A, 64, 16, construction="dense-evolution")
    unsupported = WiretapParams(
        p1=0.02, p2=0.2, p1s=0.1, p2s=0.3, q1=0.3, q1s=0.6, coupling="independent"
    )
    with pytest.raises(UnsupportedScenarioError):
        build_code(unsupported, 64, 16)


def test_code_selects_secret_info_set_by_coupling():
    sim = build_code(SIM_B, 64, 16)
    assert np.array_equal(sim.secret_info, sim.partition.bec_info_main)
    assert sim.weak_extra_positions.size == 0
    ind = build_code(IND_WEAK, 64, 16)
    assert np.array_equal(ind.secret_info, ind.partition.bec_info_eve)
    extra = set(ind.partition.bec_info_main) - set(ind.partition.bec_info_eve)
    assert set(ind.weak_extra_positions.tolist()) == extra
    # eavesdropper info set nests inside the main one for the weak ordering
    assert set(ind.partition.bec_info_eve) <= set(ind.partition.bec_info_main)


def test_build_code_rejects_bool_block_lengths_and_single_blocks():
    with pytest.raises(ValueError, match=r"^n \(block length\) must be a power of two"):
        build_code(SIM_A, True, True)
    with pytest.raises(ValueError, match=r"^b \(blocks per frame\) must be a power of two"):
        build_code(SIM_A, 64, True)
    with pytest.raises(ValueError, match=r"^b \(blocks per frame\) must be at least 2, got 1$"):
        build_code(SIM_A, 64, 1)
    assert build_code(SIM_A, 1).partition.b == 2


def test_genie_mc_construction_rejects_a_seed_for_rng():
    with pytest.raises(TypeError, match="rng must be a numpy.random.Generator"):
        build_code(SIM_A, 64, 16, construction="genie-mc", rng=5)


def test_genie_mc_construction_keeps_nesting():
    rng = np.random.default_rng(61)
    code = build_code(SIM_A, 64, 16, construction="genie-mc", construction_trials=512, rng=rng)
    part = code.partition
    pieces = [getattr(part, c) for c in N_CLASSES]
    assert np.array_equal(np.sort(np.concatenate(pieces)), np.arange(64))


def test_bundle_flat_roundtrip_and_counts():
    rng = np.random.default_rng(67)
    for params in ALL_SCENARIOS:
        code = build_code(params, 64, 16)
        msg = MessageBundle.random(code, rng)
        rnd = RandomBundle.random(code, rng)
        assert msg.total_bits() == total_message_bits(code)
        assert rnd.total_bits() == total_random_bits(code)
        assert MessageBundle.from_flat(code, msg.to_flat()).same_bits(msg)
        assert RandomBundle.from_flat(code, rnd.to_flat()).same_bits(rnd)
        msg_shapes, rnd_shapes = bundle_shapes(code)
        assert list(msg_shapes) == list(MessageBundle._fields)
        assert list(rnd_shapes) == list(RandomBundle._fields)


def test_designed_rate_is_message_bits_per_use():
    for params in ALL_SCENARIOS:
        code = build_code(params, 256, 32)
        assert designed_rate(code) == total_message_bits(code) / (256 * 32)


def test_designed_rate_zero_without_message_classes():
    flat = WiretapParams(p1=0.11, p2=0.11, p1s=0.11, p2s=0.11, q1=0.5)
    code = build_code(flat, 64, 16)
    assert total_message_bits(code) == 0
    assert designed_rate(code) == 0.0


def test_encode_zero_in_zero_out():
    for params in ALL_SCENARIOS:
        code = build_code(params, 64, 16)
        frame = encode(code, MessageBundle.zeros(code), RandomBundle.zeros(code))
        assert frame.shape == (16, 64)
        assert not frame.any()


def test_encode_rejects_wrong_shapes():
    code = build_code(SIM_A, 64, 16)
    other = build_code(SIM_A, 64, 32)
    rng = np.random.default_rng(71)
    with pytest.raises(ValueError):
        encode(code, MessageBundle.random(other, rng), RandomBundle.zeros(code))


def dense_two_phase(code, msg: MessageBundle, rnd: RandomBundle) -> np.ndarray:
    # independent encoder oracle: explicit generator matrices, no butterflies
    P = code.partition
    g_rows = dense_generator(code.b)
    g_block = dense_generator(code.n)

    def row_encode(width: int, fill: dict) -> np.ndarray:
        u = np.zeros((width, code.b), dtype=np.uint8)
        if width == 0:
            return u
        for cols, bits in fill.items():
            if cols:
                u[:, list(cols)] = bits
        return (u @ g_rows) % 2

    secret = row_encode(
        P.crossblock_secret.size,
        {
            tuple(code.secret_info): rnd.crossblock_secret,
            tuple(code.secret_msg_positions): msg.crossblock_secret,
        },
    )
    message = row_encode(
        P.crossblock_message.size, {tuple(P.bec_info_main): msg.crossblock_message}
    )
    if code.scenario is ScenarioTag.IND_WEAK:
        random_rows = row_encode(
            P.crossblock_random.size,
            {
                tuple(P.bec_info_eve): rnd.crossblock_random,
                tuple(code.weak_extra_positions): msg.crossblock_random_extra,
            },
        )
    else:
        random_rows = row_encode(
            P.crossblock_random.size, {tuple(P.bec_info_main): rnd.crossblock_random}
        )

    pre = np.zeros((code.b, code.n), dtype=np.uint8)
    pre[:, P.block_random] = rnd.block_random
    pre[:, P.crossblock_secret] = secret.T
    pre[:, P.perblock_message] = msg.per_block
    pre[:, P.crossblock_message] = message.T
    pre[:, P.crossblock_random] = random_rows.T
    return (pre @ g_block) % 2


def test_encoder_matches_dense_two_phase_oracle():
    rng = np.random.default_rng(73)
    for params in ALL_SCENARIOS:
        code = build_code(params, 64, 16)
        for _ in range(5):
            msg = MessageBundle.random(code, rng)
            rnd = RandomBundle.random(code, rng)
            assert np.array_equal(encode(code, msg, rnd), dense_two_phase(code, msg, rnd))


def roundtrip_once(code, rng: np.random.Generator) -> None:
    msg = MessageBundle.random(code, rng)
    rnd = RandomBundle.random(code, rng)
    frame = encode(code, msg, rnd)
    trace = sample_fading(code.params, code.b, rng)
    obs = noiseless_obs(frame)
    msg_hat, rnd_hat, status = bob_decode(code, obs, trace)
    assert status.ok
    assert msg_hat.same_bits(msg)
    assert rnd_hat.same_bits(rnd)
    rnd_eve, eve_status = eve_genie_decode(code, obs, trace, msg)
    assert eve_status.ok
    assert rnd_eve.same_bits(rnd)


def test_noiseless_roundtrip_all_scenarios_small():
    rng = np.random.default_rng(79)
    for params in ALL_SCENARIOS:
        code = build_code(params, 64, 16)
        for _ in range(25):
            roundtrip_once(code, rng)


@given(
    st.sampled_from(ALL_SCENARIOS),
    st.sampled_from([4, 8, 16, 32]),
    st.sampled_from([2, 4, 8, 16, 32]),
    st.floats(0.05, 0.95),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_decoders_never_guess_on_certain_observations(params, n, b, delta, seed, data):
    # a noiseless frame leaves only the erasure layer uncertain: a decoder
    # either recovers every bit or reports a phase-two failure
    code = build_code(params, n, b, delta)
    rng = np.random.default_rng(seed)
    msg = MessageBundle.random(code, rng)
    rnd = RandomBundle.random(code, rng)
    obs = noiseless_obs(encode(code, msg, rnd))

    def states() -> np.ndarray:
        # a uniform count of superior blocks reaches the all-degraded traces
        # where the erasure layer is ambiguous
        superior = np.zeros(b, dtype=bool)
        superior[rng.permutation(b)[: data.draw(st.integers(0, b))]] = True
        return superior

    main = states()
    eve = main if params.coupling == "simultaneous" else states()
    trace = FadingTrace(main, eve)

    msg_hat, rnd_hat, status = bob_decode(code, obs, trace)
    assert status.failed_phase == (None if status.ok else "phase2")
    if status.ok:
        assert msg_hat.same_bits(msg) and rnd_hat.same_bits(rnd)
    rnd_eve, eve_status = eve_genie_decode(code, obs, trace, msg)
    assert eve_status.failed_phase == (None if eve_status.ok else "phase2")
    if eve_status.ok:
        assert rnd_eve.same_bits(rnd)


STACK_CODES = {params: build_code(params, 32, 32, 0.25) for params in (SIM_A, IND_WEAK)}


def assert_same_bundle(got, want) -> None:
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert np.array_equal(a, b), field.name


@given(st.sampled_from(list(STACK_CODES)), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_stacked_decoders_equal_per_frame_decoders(params, frames, seed, data):
    # one decode of a (T, b, n) stack, or of the same frames as the engine's
    # rows, gives each frame what decoding it alone gives; a uniform count of superior blocks per frame mixes frames with
    # no superior block, all-superior frames and frames the erasure layer
    # leaves ambiguous in one stack
    code = STACK_CODES[params]
    b = code.b
    rng = np.random.default_rng(seed)

    def states() -> np.ndarray:
        superior = np.zeros(b, dtype=bool)
        superior[rng.permutation(b)[: data.draw(st.integers(0, b))]] = True
        return superior

    traces, msgs, main, eve = [], [], [], []
    for _ in range(frames):
        main_states = states()
        eve_states = main_states if params.coupling == "simultaneous" else states()
        trace = FadingTrace(main_states, eve_states)
        msg = MessageBundle.random(code, rng)
        frame = encode(code, msg, RandomBundle.random(code, rng))
        main.append(transmit(frame, trace.main_superior, (bsc(params.p1), bsc(params.p2)), rng))
        eve.append(transmit(frame, trace.eve_superior, (bsc(params.p1s), bsc(params.p2s)), rng))
        traces.append(trace)
        msgs.append(msg)

    def laid_out(llrs: list, field: str) -> np.ndarray:
        # the engine's rows: every superior block, then every other block,
        # each in frame and block order
        blocks = [(getattr(trace, field)[j], llr[j]) for trace, llr in zip(traces, llrs) for j in range(b)]
        return np.array([x for s, x in blocks if s] + [x for s, x in blocks if not s])

    stacked_bob = bob_decode(code, np.stack(main), traces)
    stacked_eve = eve_genie_decode(code, np.stack(eve), traces, msgs)
    rows_bob = bob_decode(code, laid_out(main, "main_superior"), traces)
    rows_eve = eve_genie_decode(code, laid_out(eve, "eve_superior"), traces, msgs)
    assert len(stacked_bob) == len(stacked_eve) == frames
    for got, want in zip(rows_bob + rows_eve, stacked_bob + stacked_eve):
        assert got[-1] == want[-1]  # the status
        for bundle, want_bundle in zip(got[:-1], want[:-1]):
            assert_same_bundle(bundle, want_bundle)
    for t in range(frames):
        msg_hat, rnd_hat, status = bob_decode(code, main[t], traces[t])
        assert_same_bundle(stacked_bob[t][0], msg_hat)
        assert_same_bundle(stacked_bob[t][1], rnd_hat)
        assert stacked_bob[t][2] == status
        rnd_eve, eve_status = eve_genie_decode(code, eve[t], traces[t], msgs[t])
        assert_same_bundle(stacked_eve[t][0], rnd_eve)
        assert stacked_eve[t][1] == eve_status


def test_all_superior_trace_recovers_without_erasure_decoding():
    rng = np.random.default_rng(83)
    code = build_code(SIM_A, 64, 16)
    msg = MessageBundle.random(code, rng)
    rnd = RandomBundle.random(code, rng)
    frame = encode(code, msg, rnd)
    trace = FadingTrace(np.ones(16, dtype=bool), np.ones(16, dtype=bool))
    msg_hat, rnd_hat, status = bob_decode(code, noiseless_obs(frame), trace)
    assert status.ok and msg_hat.same_bits(msg) and rnd_hat.same_bits(rnd)


def test_all_degraded_trace_reports_frame_failure():
    # every cross-block row arrives fully erased; with information on the
    # rows this must surface as a phase-2 failure, not silent corruption
    rng = np.random.default_rng(89)
    code = build_code(SIM_A, 256, 32)
    assert code.partition.crossblock_message.size > 0
    assert code.partition.bec_info_main.size > 0
    msg = MessageBundle.random(code, rng)
    rnd = RandomBundle.random(code, rng)
    frame = encode(code, msg, rnd)
    trace = FadingTrace(np.zeros(32, dtype=bool), np.zeros(32, dtype=bool))
    _, _, status = bob_decode(code, noiseless_obs(frame), trace)
    assert not status.ok
    assert status.failed_phase == "phase2"


def test_eve_empty_randomness_degenerate():
    params = WiretapParams(p1=0.1, p2=0.1, p1s=0.5, p2s=0.5, q1=0.5)
    code = build_code(params, 64, 16)
    rng = np.random.default_rng(97)
    msg = MessageBundle.random(code, rng)
    rnd = RandomBundle.random(code, rng)
    assert rnd.total_bits() == 0
    frame = encode(code, msg, rnd)
    trace = sample_fading(params, 16, rng)
    rnd_hat, status = eve_genie_decode(code, noiseless_obs(frame), trace, msg)
    assert status.ok
    assert rnd_hat.total_bits() == 0


def test_decode_input_validation():
    code = build_code(SIM_A, 64, 16)
    rng = np.random.default_rng(101)
    llr = noiseless_obs(encode(code, MessageBundle.zeros(code), RandomBundle.zeros(code)))
    short_trace = FadingTrace(np.ones(8, dtype=bool), np.ones(8, dtype=bool))
    with pytest.raises(ValueError):
        bob_decode(code, llr, short_trace)
    trace = sample_fading(SIM_A, 16, rng)
    with pytest.raises(ValueError, match="llr"):
        bob_decode(code, llr[:-1], trace)
    with pytest.raises(ValueError, match="traces"):
        bob_decode(code, np.stack([llr, llr]), [trace])
    # two traces take a (2, 16, 64) stack or (32, 64) rows
    with pytest.raises(ValueError, match="llr"):
        bob_decode(code, llr, [trace, trace])
    with pytest.raises(ValueError, match="llr"):
        bob_decode(code, np.stack([llr, llr]), trace)


def test_target_fractions_sum_to_one_over_block_classes():
    for params in ALL_SCENARIOS:
        tgt = target_fractions(params)
        assert sum(tgt[c] for c in N_CLASSES) == pytest.approx(1.0, abs=1e-12)
        assert tgt["bec_info_main"] == params.q1
        assert tgt["bec_info_eve"] == params.q1s
        assert all(v >= -1e-15 for v in tgt.values())
    unsupported = WiretapParams(
        p1=0.02, p2=0.2, p1s=0.1, p2s=0.3, q1=0.3, q1s=0.6, coupling="independent"
    )
    with pytest.raises(UnsupportedScenarioError):
        target_fractions(unsupported)


def test_target_fractions_are_the_entropy_gaps_of_each_layout():
    h1, h2, h1s, h2s = (binary_entropy(p) for p in (0.02, 0.05, 0.11, 0.15))
    assert target_fractions(SIM_A) == {
        "block_random": 1.0 - h2s,
        "crossblock_secret": h2s - h1s,
        "perblock_message": h1s - h2,
        "crossblock_message": h2 - h1,
        "crossblock_random": 0.0,
        "frozen": h1,
        "bec_info_main": 0.5,
        "bec_info_eve": 0.5,
    }
    h1, h2, h1s, h2s = (binary_entropy(p) for p in (0.02, 0.11, 0.05, 0.15))
    assert target_fractions(IND_WEAK) == {
        "block_random": 1.0 - h2s,
        "crossblock_secret": h2s - h2,
        "crossblock_random": h2 - h1s,
        "crossblock_message": h1s - h1,
        "perblock_message": 0.0,
        "frozen": h1,
        "bec_info_main": 0.6,
        "bec_info_eve": 0.4,
    }
