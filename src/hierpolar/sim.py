"""Monte Carlo measurement harness and exact leakage analysis for toy codes.

Trial streams are reproducible: trial ``t`` under master seed ``s`` uses a
generator seeded by the first 8 bytes of ``sha256(f"{s}:{t}")``, so runs can
be chunked or parallelised without changing results.  Within a trial the
draw order is fixed: fading trace, then message bundle, then random bundle,
then the main-channel noise of the whole (b, n) frame, then the
eavesdropper's.  Each frame's noise is one ``rng.random((b, n))`` draw, row
by row, so block ``i`` sees the values a per-block draw in block order would.

``run_simulation`` walks the trials in chunks of ``max(1, 2**19 // (b n))``
frames, so that the LLRs of a chunk take 4 MB.  Each trial of a chunk
first draws its fading trace and bundles and encodes its frame.  Then each
draws its main-channel noise, and its LLRs go straight into the chunk's
(T b, n) row buffer, in the decoders' layout: the blocks in the superior
main state first.  Bob decodes the chunk in one call.  Only then does each
trial draw its eavesdropper noise, from its own generator, into the same
buffer laid out by the eavesdropper's states, and the chunk goes through
the eavesdropper's decoder in one call.  Every trial draws from its own
generator only, and the decoders give each frame what decoding it alone
gives, so the records do not depend on the chunk size.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .channels import WiretapParams, bsc, classify_scenario, sample_fading, transmit
from .rates import LeakageBound, fano_leakage_bound, rate_report
from .scheme import (
    CLASSES,
    HierarchicalCode,
    IndexPartition,
    MessageBundle,
    RandomBundle,
    _row_order,
    bob_decode,
    build_code,
    designed_rate,
    encode,
    eve_genie_decode,
    total_message_bits,
    total_random_bits,
)

__all__ = [
    "SimConfig",
    "SummaryReport",
    "TrialRecord",
    "derive_trial_seed",
    "exact_leakage_toy",
    "run_simulation",
    "toy_code",
    "wilson_interval",
    "write_trials",
]

# LLRs in one chunk of frames, the rows both receivers decode in turn:
# 4 MB of float64, four frames at n = 1024, b = 128
_CHUNK_LLRS = 1 << 19

# serialized field order is part of the output contract
TRIAL_FIELDS = ("trial", "seed", "main_superior", "eve_superior", "bob_ok", "bob_bit_errors", "eve_ok")

TRIAL_FORMATS = ("ndjson", "csv")


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run."""

    params: WiretapParams
    n: int
    b: int
    trials: int
    seed: int = 1
    delta: float = 0.25
    construction: str = "bhattacharyya-bound"
    construction_trials: int = 2048

    def __post_init__(self) -> None:
        for name in ("n", "b", "trials", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.b < 2:
            raise ValueError("need at least two blocks per frame")


@dataclass(frozen=True)
class TrialRecord:
    """One frame transmission: state counts and both decoders' outcomes."""

    trial: int
    seed: int
    main_superior: int
    eve_superior: int
    bob_ok: bool
    bob_bit_errors: int
    eve_ok: bool

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in TRIAL_FIELDS}


@dataclass(frozen=True)
class SummaryReport:
    """Aggregated simulation results plus the analytic context."""

    config: SimConfig
    scenario: str
    designed_rate: float
    message_bits: int
    random_bits: int
    partition_sizes: dict
    trials: int
    bob_frame_errors: int
    bob_fer: float
    bob_fer_ci95: tuple[float, float]
    bob_bit_error_rate: float
    eve_frame_errors: int
    eve_genie_fer: float
    eve_genie_fer_ci95: tuple[float, float]
    leakage: LeakageBound
    rate_bounds: dict
    wall_seconds: float

    def to_dict(self) -> dict:
        cfg = {
            "p1": self.config.params.p1,
            "p2": self.config.params.p2,
            "p1s": self.config.params.p1s,
            "p2s": self.config.params.p2s,
            "q1": self.config.params.q1,
            "q1s": self.config.params.q1s,
            "coupling": self.config.params.coupling,
            "n": self.config.n,
            "b": self.config.b,
            "trials": self.config.trials,
            "seed": self.config.seed,
            "delta": self.config.delta,
            "construction": self.config.construction,
        }
        return {
            "config": cfg,
            "scenario": self.scenario,
            "designed_rate": self.designed_rate,
            "message_bits": self.message_bits,
            "random_bits": self.random_bits,
            "partition_sizes": self.partition_sizes,
            "trials": self.trials,
            "bob_frame_errors": self.bob_frame_errors,
            "bob_fer": self.bob_fer,
            "bob_fer_ci95": list(self.bob_fer_ci95),
            "bob_bit_error_rate": self.bob_bit_error_rate,
            "eve_frame_errors": self.eve_frame_errors,
            "eve_genie_fer": self.eve_genie_fer,
            "eve_genie_fer_ci95": list(self.eve_genie_fer_ci95),
            "leakage_bound_bits_total": self.leakage.bound_bits_total,
            "leakage_bound_per_use": self.leakage.per_channel_use,
            "rate_bounds": self.rate_bounds,
            "wall_seconds": self.wall_seconds,
        }


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """Stable per-trial seed: first 8 bytes of sha256 over ``"seed:trial"``."""
    digest = hashlib.sha256(f"{master_seed}:{trial}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not (0 <= errors <= trials):
        raise ValueError("errors must lie in [0, trials]")
    phat = errors / trials
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2.0 * trials)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    # clamp to [0,1] and force containment of phat against float roundoff
    lo = max(0.0, min((centre - half) / denom, phat))
    hi = min(1.0, max((centre + half) / denom, phat))
    return (lo, hi)


def _run_chunk(
    code: HierarchicalCode, trials: range, master_seed: int, llr: np.ndarray
) -> list[TrialRecord]:
    # the trials share the (len(trials) * b, n) buffer llr, in the decoders'
    # row layout: main-channel LLRs for Bob's decode, then the
    # eavesdropper's for Eve's
    params = code.params
    draws = []
    for trial in trials:
        seed = derive_trial_seed(master_seed, trial)
        rng = np.random.default_rng(seed)
        trace = sample_fading(params, code.b, rng)
        msg = MessageBundle.random(code, rng)
        rnd = RandomBundle.random(code, rng)
        draws.append((seed, rng, trace, msg, rnd, encode(code, msg, rnd)))
    seeds, rngs, traces, msgs, rnds, frames = zip(*draws)

    def send(field: str, laws: tuple) -> None:
        # each frame's LLRs straight into the rows its blocks take
        superior = np.stack([getattr(trace, field) for trace in traces])
        rows = np.argsort(_row_order(superior)).reshape(superior.shape)
        for t, frame in enumerate(frames):
            llr[rows[t]] = transmit(frame, superior[t], laws, rngs[t])

    send("main_superior", (bsc(params.p1), bsc(params.p2)))
    bob = bob_decode(code, llr, traces)
    send("eve_superior", (bsc(params.p1s), bsc(params.p2s)))
    eve = eve_genie_decode(code, llr, traces, msgs)

    records = []
    for t, trial in enumerate(trials):
        msg_hat, _, bob_status = bob[t]
        rnd_hat, eve_status = eve[t]
        bob_bit_errors = msgs[t].bit_errors(msg_hat)
        records.append(
            TrialRecord(
                trial=trial,
                seed=seeds[t],
                main_superior=int(traces[t].main_superior.sum()),
                eve_superior=int(traces[t].eve_superior.sum()),
                bob_ok=bob_status.ok and bob_bit_errors == 0,
                bob_bit_errors=bob_bit_errors,
                eve_ok=eve_status.ok and rnds[t].same_bits(rnd_hat),
            )
        )
    return records


def run_simulation(
    config: SimConfig, *, code: HierarchicalCode | None = None
) -> tuple[SummaryReport, list[TrialRecord]]:
    """Run ``config.trials`` independent frame transmissions.

    Builds the code unless one is supplied (callers reuse a code across
    several runs to skip reconstruction).  Returns the aggregate report and
    the per-trial records in trial order.
    """
    start = time.perf_counter()
    if code is None:
        code = build_code(
            config.params,
            config.n,
            config.b,
            config.delta,
            config.construction,
            construction_trials=config.construction_trials,
        )
    else:
        P = code.partition
        built = dict(params=code.params, n=P.n, b=P.b, delta=P.delta, construction=code.construction)
        wrong = [k for k, v in built.items() if getattr(config, k) != v]
        if wrong:
            raise ValueError(f"supplied code does not match the configured {', '.join(wrong)}")

    chunk = max(1, _CHUNK_LLRS // (code.b * code.n))
    llr = np.empty((min(chunk, config.trials) * code.b, code.n))
    records = []
    for start in range(0, config.trials, chunk):
        trials = range(start, min(start + chunk, config.trials))
        records += _run_chunk(code, trials, config.seed, llr[: len(trials) * code.b])

    bob_frame_errors = sum(1 for r in records if not r.bob_ok)
    eve_frame_errors = sum(1 for r in records if not r.eve_ok)
    msg_bits = total_message_bits(code)
    rnd_bits = total_random_bits(code)
    total_msg_sent = msg_bits * config.trials
    bit_errs = sum(r.bob_bit_errors for r in records)
    eve_fer = eve_frame_errors / config.trials

    report = SummaryReport(
        config=config,
        scenario=code.scenario.value,
        designed_rate=designed_rate(code),
        message_bits=msg_bits,
        random_bits=rnd_bits,
        partition_sizes=code.partition.sizes(),
        trials=config.trials,
        bob_frame_errors=bob_frame_errors,
        bob_fer=bob_frame_errors / config.trials,
        bob_fer_ci95=wilson_interval(bob_frame_errors, config.trials),
        bob_bit_error_rate=(bit_errs / total_msg_sent) if total_msg_sent else 0.0,
        eve_frame_errors=eve_frame_errors,
        eve_genie_fer=eve_fer,
        eve_genie_fer_ci95=wilson_interval(eve_frame_errors, config.trials),
        leakage=fano_leakage_bound(eve_fer, rnd_bits, config.n, config.b),
        rate_bounds=rate_report(config.params).to_dict(),
        wall_seconds=time.perf_counter() - start,
    )
    return report, records


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_trials(records: list[TrialRecord], fh: io.TextIOBase, fmt: str = "ndjson") -> None:
    """Serialize trial records; output is byte-stable for a given record list.

    ``ndjson`` writes one compact JSON object per line in the pinned field
    order; ``csv`` writes a header row then one row per trial with booleans
    as ``true``/``false``.
    """
    if fmt == "ndjson":
        for r in records:
            fh.write(json.dumps(r.to_dict(), separators=(",", ":")) + "\n")
    elif fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRIAL_FIELDS)
        for r in records:
            writer.writerow([_format_value(getattr(r, f)) for f in TRIAL_FIELDS])
    else:
        raise ValueError(f"unknown trial format {fmt!r}")


# ---------------------------------------------------------------------------
# exact leakage on enumerable toy codes

_TOY_ENUM_LIMIT = 1 << 24  # joint table cells: messages * randomness * states * outputs


def toy_code(variant: str) -> HierarchicalCode:
    """Tiny hand-partitioned codes (n=4, b=2) on noiseless channels, small
    enough for exact leakage enumeration.

    ``randomized``: every input position carries fresh randomness, no message.
    ``message``: one per-block position carries message bits instead.
    """
    params = WiretapParams(p1=0.0, p2=0.0, p1s=0.0, p2s=0.0, q1=1.0, coupling="simultaneous")
    layouts = {
        "randomized": ((0, 1, 2, 3), ()),
        "message": ((0, 1, 2), (3,)),
    }
    if variant not in layouts:
        raise ValueError(f"unknown toy variant {variant!r}")
    block_random, perblock_message = layouts[variant]
    return _manual_toy(params, block_random, perblock_message)


def _manual_toy(
    params: WiretapParams, block_random: tuple, perblock_message: tuple, n: int = 4, b: int = 2
) -> HierarchicalCode:
    classes = dict.fromkeys(CLASSES, np.empty(0, dtype=np.int64))
    classes["block_random"] = np.asarray(block_random, dtype=np.int64)
    classes["perblock_message"] = np.asarray(perblock_message, dtype=np.int64)
    used = np.concatenate([classes["block_random"], classes["perblock_message"]])
    classes["frozen"] = np.setdiff1d(np.arange(n), used)
    partition = IndexPartition(
        n=n,
        b=b,
        **classes,
        bec_info_main=np.arange(b, dtype=np.int64),
        bec_info_eve=np.arange(b, dtype=np.int64),
        delta=0.25,
    )
    return HierarchicalCode(
        params=params,
        scenario=classify_scenario(params),
        partition=partition,
        construction="bhattacharyya-bound",
    )


def _bsc_pattern_dist(p: float, n: int) -> np.ndarray:
    """Probability of each length-n flip pattern (index = packed bits)."""
    out = np.ones(1, dtype=np.float64)
    single = np.array([1.0 - p, p], dtype=np.float64)
    for _ in range(n):
        out = np.kron(out, single)
    return out


def _pack_rows(bits: np.ndarray) -> int:
    # big-endian pack of a flat bit vector into an int index
    val = 0
    for bit in bits.reshape(-1):
        val = (val << 1) | int(bit)
    return val


def exact_leakage_toy(code: HierarchicalCode) -> float:
    """Exact mutual information (bits) between the message and the
    eavesdropper's view (observation plus its fading states), by enumeration.

    Only feasible for tiny codes; raises if the joint table would exceed
    2**24 cells.  The main channel's states are independent of everything
    the eavesdropper sees once the codeword is fixed, so they are not
    enumerated.
    """
    n, b = code.n, code.b
    params = code.params
    nb = n * b
    k_m = total_message_bits(code)
    k_r = total_random_bits(code)

    q_sup = params.q1s if params.coupling == "independent" else params.q1
    n_states = 1 << b
    cells = (1 << k_m) * (1 << k_r) * n_states * (1 << nb)
    if cells > _TOY_ENUM_LIMIT:
        raise ValueError("toy enumeration limit exceeded")

    # per-state output noise distributions, one per fading pattern
    state_probs = np.empty(n_states, dtype=np.float64)
    noise_dists = np.empty((n_states, 1 << nb), dtype=np.float64)
    for s_idx in range(n_states):
        sup = np.array([(s_idx >> (b - 1 - i)) & 1 for i in range(b)], dtype=bool)
        prob = 1.0
        dist = np.ones(1, dtype=np.float64)
        for i in range(b):
            p_blk = params.p1s if sup[i] else params.p2s
            prob *= q_sup if sup[i] else (1.0 - q_sup)
            dist = np.kron(dist, _bsc_pattern_dist(p_blk, n))
        state_probs[s_idx] = prob
        noise_dists[s_idx] = dist

    xor_index = np.arange(1 << nb)

    # P(z, s | m) averaged over the uniform randomness
    p_m = 1.0 / (1 << k_m)
    p_r = 1.0 / (1 << k_r)
    joint_given_m = np.zeros(((1 << k_m), n_states, 1 << nb), dtype=np.float64)
    for m_idx in range(1 << k_m):
        m_bits = np.array([(m_idx >> (k_m - 1 - i)) & 1 for i in range(k_m)], dtype=np.uint8)
        msg = MessageBundle.from_flat(code, m_bits)
        for r_idx in range(1 << k_r):
            r_bits = np.array([(r_idx >> (k_r - 1 - i)) & 1 for i in range(k_r)], dtype=np.uint8)
            rnd = RandomBundle.from_flat(code, r_bits)
            x = _pack_rows(encode(code, msg, rnd))
            shifted = noise_dists[:, xor_index ^ x]
            joint_given_m[m_idx] += p_r * shifted * state_probs[:, None]

    marginal = (joint_given_m * p_m).sum(axis=0)
    info = 0.0
    for m_idx in range(1 << k_m):
        cond = joint_given_m[m_idx]
        mask = cond > 0.0
        info += p_m * float(
            (cond[mask] * np.log2(cond[mask] / marginal[mask])).sum()
        )
    return max(0.0, info)
