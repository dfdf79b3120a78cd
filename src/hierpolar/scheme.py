"""Hierarchical wiretap coding over block-fading binary symmetric channels.

A frame is ``b`` polar blocks of length ``n``.  Per-block input positions are
split into six classes by decoding reliability, and the classes that are only
reliable in some channel states are protected across blocks by length-``b``
erasure polar codes (a degraded block behaves as an erasure of that block's
entry in the row).  Encoding therefore runs in two phases: first the
cross-block rows, then the per-block columns.

Position classes
----------------
block_random        decodable by everyone in every state; carries fresh
                    uniform randomness per block to saturate the
                    eavesdropper's channel.
crossblock_secret   decodable by the intended receiver in both states, by the
                    eavesdropper only in its superior state; rows mix message
                    bits with enough randomness to cover what the
                    eavesdropper can resolve.
perblock_message    decodable by the receiver in both states, never by the
                    eavesdropper; carries fresh message bits per block
                    (strong orderings only).
crossblock_message  decodable only in the superior main state; message rows
                    are erasure-coded across blocks so degraded blocks can be
                    filled back in.
crossblock_random   decodable in the superior state of either party only;
                    rows carry randomness (plus a residual message slice
                    under independent weak coupling).
frozen              reliable for no one; pinned to zero.

All index arrays are sorted, 0-based and refer to decoder order within a
block (classes) or to decoder order within a cross-block row (the erasure
code information sets ``bec_info_main`` / ``bec_info_eve``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelLaw,
    FadingTrace,
    ScenarioTag,
    UnsupportedScenarioError,
    WiretapParams,
    bec,
    bsc,
    classify_scenario,
)
from .polar import (
    _as_bits,
    _require_block_length,
    polar_transform,
    polar_transform_inverse,
    reliability_profile,
    sc_decode_batch,
    select_good_set,
)
from .rates import binary_entropy

__all__ = [
    "ConstructionInfeasibleError",
    "DecodeStatus",
    "HierarchicalCode",
    "IndexPartition",
    "MessageBundle",
    "RandomBundle",
    "bob_decode",
    "build_code",
    "bundle_shapes",
    "designed_rate",
    "encode",
    "eve_genie_decode",
    "target_fractions",
    "total_message_bits",
    "total_random_bits",
]

CONSTRUCTIONS = ("bhattacharyya-bound", "genie-mc")

# the six per-block position classes, in field order
CLASSES = (
    "block_random",
    "crossblock_secret",
    "perblock_message",
    "crossblock_message",
    "crossblock_random",
    "frozen",
)

# the reliability chain of each layout, most exclusive flip law first, with
# the class that law's good set adds to the one before it; positions outside
# the last good set are frozen.  The strong ordering (p2 <= p1s) nests
# p2s < p1s < p2 < p1, the interleaved one p2s < p2 < p1s < p1.
_STRONG = (
    ("p2s", "block_random"),
    ("p1s", "crossblock_secret"),
    ("p2", "perblock_message"),
    ("p1", "crossblock_message"),
)
_INTERLEAVED = (
    ("p2s", "block_random"),
    ("p2", "crossblock_secret"),
    ("p1s", "crossblock_random"),
    ("p1", "crossblock_message"),
)
_LAYOUTS = {
    ScenarioTag.SIM_A: _STRONG,
    ScenarioTag.IND_STRONG: _STRONG,
    ScenarioTag.SIM_B: _INTERLEAVED,
    ScenarioTag.IND_WEAK: _INTERLEAVED,
}


class ConstructionInfeasibleError(Exception):
    """The requested partition cannot be built consistently."""


@dataclass(frozen=True)
class IndexPartition:
    """Disjoint per-block position classes plus the cross-block erasure-code
    information sets.  See the module docstring for class semantics."""

    n: int
    b: int
    block_random: np.ndarray
    crossblock_secret: np.ndarray
    perblock_message: np.ndarray
    crossblock_message: np.ndarray
    crossblock_random: np.ndarray
    frozen: np.ndarray
    bec_info_main: np.ndarray
    bec_info_eve: np.ndarray
    delta: float

    def __post_init__(self) -> None:
        norm = {name: np.unique(np.asarray(getattr(self, name), dtype=np.int64)) for name in CLASSES}
        total = np.concatenate(list(norm.values()))
        if total.size != self.n or np.unique(total).size != self.n:
            raise ValueError("classes must partition the n per-block positions")
        if total.size and (total.min() < 0 or total.max() >= self.n):
            raise ValueError("class indices out of range")
        for name, arr in norm.items():
            object.__setattr__(self, name, arr)
        for name in ("bec_info_main", "bec_info_eve"):
            arr = np.unique(np.asarray(getattr(self, name), dtype=np.int64))
            if arr.size and (arr.min() < 0 or arr.max() >= self.b):
                raise ValueError(f"{name} indices out of range")
            object.__setattr__(self, name, arr)
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")

    def sizes(self) -> dict:
        fields = CLASSES + ("bec_info_main", "bec_info_eve")
        return {name: int(getattr(self, name).size) for name in fields}


@dataclass(frozen=True)
class HierarchicalCode:
    """A constructed code: parameters, scenario tag and index partition."""

    params: WiretapParams
    scenario: ScenarioTag
    partition: IndexPartition
    construction: str

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def b(self) -> int:
        return self.partition.b

    @property
    def secret_info(self) -> np.ndarray:
        """Positions of the random fill inside crossblock_secret rows: the
        erasure-code information set matched to whoever must *fail* to infer
        the message, i.e. the eavesdropper's erasure rate."""
        if self.params.coupling == "simultaneous":
            return self.partition.bec_info_main
        return self.partition.bec_info_eve

    @property
    def random_info(self) -> np.ndarray:
        """Positions of the random fill inside crossblock_random rows: the
        main information set under shared fading, the eavesdropper's under
        independent weak coupling (the rest of the main set carries
        ``weak_extra_positions``), none in the strong layouts, which have
        no crossblock_random class."""
        if self.scenario is ScenarioTag.SIM_B:
            return self.partition.bec_info_main
        if self.scenario is ScenarioTag.IND_WEAK:
            return self.partition.bec_info_eve
        return np.empty(0, dtype=np.int64)

    @property
    def secret_msg_positions(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.b), self.secret_info)

    @property
    def weak_extra_positions(self) -> np.ndarray:
        """Message slice inside crossblock_random rows (independent weak
        coupling): main info set minus the eavesdropper info set."""
        if self.scenario is ScenarioTag.IND_WEAK:
            return np.setdiff1d(self.partition.bec_info_main, self.partition.bec_info_eve)
        return np.empty(0, dtype=np.int64)


def build_code(
    params: WiretapParams,
    n: int,
    b: int | None = None,
    delta: float = 0.25,
    construction: str = "bhattacharyya-bound",
    *,
    construction_trials: int = 2048,
    rng: np.random.Generator | None = None,
) -> HierarchicalCode:
    """Classify the scenario of ``params`` and build its code at block length
    ``n`` with ``b`` blocks per frame (default n/8).

    Per-block classes come from good-set differences of the four flip laws at
    the single threshold ``delta / (2n)``, along the scenario's layout.  The
    cross-block erasure codes use exact erasure-probability profiles at
    threshold ``delta / (2b)`` with the design erasure rate inflated by
    ``(1 + delta)`` as the reliability margin.  ``construction`` picks the
    flip-law profile method: the Bhattacharyya bound recursion
    (conservative, deterministically nested) or genie-aided Monte Carlo
    (tighter rates; nesting is enforced by intersecting down the
    reliability chain).
    """
    n = _require_block_length(n, "n (block length)")
    b = _require_block_length(max(2, n // 8) if b is None else b, "b (blocks per frame)")
    if b < 2:
        raise ValueError(f"b (blocks per frame) must be at least 2, got {b}")
    tag = classify_scenario(params)
    if tag is ScenarioTag.UNSUPPORTED:
        raise UnsupportedScenarioError(
            "independent fading with p1s <= p2 and q1 < q1s has no supported scheme"
        )
    if construction not in CONSTRUCTIONS:
        raise ValueError(f"construction must be one of {CONSTRUCTIONS}")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")

    t_block = delta / (2.0 * n)
    if construction == "genie-mc" and rng is None:
        rng = np.random.default_rng(0)
    masks = {}
    for name in ("p1", "p2", "p1s", "p2s"):
        law = bsc(getattr(params, name))
        prof = reliability_profile(
            law, n, method=construction, trials=construction_trials, rng=rng
        )
        masks[name] = prof.z <= t_block

    layout = _LAYOUTS[tag]
    chain = [law for law, _ in layout]
    # the good sets must nest down the chain; Monte Carlo estimates need not,
    # so genie-mc intersects them first, outermost law first
    for outer, inner in zip(chain[::-1], chain[-2::-1]):
        if construction == "genie-mc":
            masks[inner] &= masks[outer]
        if (masks[inner] & ~masks[outer]).any():
            raise ConstructionInfeasibleError("good sets failed to nest")

    classes = dict.fromkeys(CLASSES, np.empty(0, dtype=np.int64))
    held = np.zeros(n, dtype=bool)
    for law, name in layout:
        classes[name] = np.nonzero(masks[law] & ~held)[0]
        held = masks[law]
    classes["frozen"] = np.nonzero(~held)[0]

    t_row = delta / (2.0 * b)
    q_main = min(1.0, params.q2 * (1.0 + delta))
    q_eve = min(1.0, params.q2s * (1.0 + delta))
    prof_main = reliability_profile(bec(q_main), b, method="exact-bec")
    info_main = select_good_set(prof_main, t_row)
    if params.coupling == "simultaneous":
        info_eve = info_main.copy()
    else:
        prof_eve = reliability_profile(bec(q_eve), b, method="exact-bec")
        info_eve = select_good_set(prof_eve, t_row)
    if tag is ScenarioTag.IND_WEAK and not np.isin(info_eve, info_main).all():
        raise ConstructionInfeasibleError(
            "eavesdropper erasure-code information set escapes the main one"
        )

    partition = IndexPartition(
        n=n, b=b, **classes, bec_info_main=info_main, bec_info_eve=info_eve, delta=delta
    )
    return HierarchicalCode(
        params=params, scenario=tag, partition=partition, construction=construction
    )


def bundle_shapes(code: HierarchicalCode) -> tuple[dict, dict]:
    """Shapes of the message and randomness arrays for ``code``.

    Flat packing order (used by ``to_flat``/``from_flat``) is the key order
    of the returned dicts.
    """
    P = code.partition
    info = code.secret_info
    extra = code.weak_extra_positions
    msg_shapes = {
        "crossblock_secret": (P.crossblock_secret.size, P.b - info.size),
        "crossblock_message": (P.crossblock_message.size, P.bec_info_main.size),
        "per_block": (P.b, P.perblock_message.size),
        "crossblock_random_extra": (P.crossblock_random.size, extra.size),
    }
    rnd_shapes = {
        "crossblock_secret": (P.crossblock_secret.size, info.size),
        "block_random": (P.b, P.block_random.size),
        "crossblock_random": (P.crossblock_random.size, code.random_info.size),
    }
    return msg_shapes, rnd_shapes


class _Bundle:
    """Shared helpers for bit bundles stored as dicts of uint8 arrays."""

    _fields: tuple[str, ...] = ()
    _half: int  # which of bundle_shapes' two dicts describes the bundle

    @classmethod
    def _shapes(cls, code: HierarchicalCode) -> dict:
        return bundle_shapes(code)[cls._half]

    @classmethod
    def _bit_count(cls, code: HierarchicalCode) -> int:
        return int(sum(int(np.prod(s)) for s in cls._shapes(code).values()))

    @classmethod
    def random(cls, code: HierarchicalCode, rng: np.random.Generator):
        shapes = cls._shapes(code)
        return cls(**{k: rng.integers(0, 2, size=v, dtype=np.uint8) for k, v in shapes.items()})

    @classmethod
    def zeros(cls, code: HierarchicalCode):
        return cls(**{k: np.zeros(v, dtype=np.uint8) for k, v in cls._shapes(code).items()})

    @classmethod
    def from_flat(cls, code: HierarchicalCode, flat: np.ndarray):
        flat = _as_bits(flat).reshape(-1)
        out = {}
        pos = 0
        for k, shp in cls._shapes(code).items():
            count = int(np.prod(shp))
            out[k] = flat[pos : pos + count].reshape(shp).astype(np.uint8)
            pos += count
        if pos != flat.size:
            raise ValueError("flat bit vector length does not match bundle shapes")
        return cls(**out)

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self, f) for f in self._fields]

    def to_flat(self) -> np.ndarray:
        parts = [a.reshape(-1) for a in self._arrays()]
        return np.concatenate(parts) if parts else np.empty(0, np.uint8)

    def total_bits(self) -> int:
        return int(sum(a.size for a in self._arrays()))

    def bit_errors(self, other: "_Bundle") -> int:
        return int((self.to_flat() ^ other.to_flat()).sum())

    def same_bits(self, other: "_Bundle") -> bool:
        return self.bit_errors(other) == 0


@dataclass(frozen=True)
class MessageBundle(_Bundle):
    """Message bits split by carrying class (rows x per-row bits)."""

    crossblock_secret: np.ndarray
    crossblock_message: np.ndarray
    per_block: np.ndarray
    crossblock_random_extra: np.ndarray

    _fields = ("crossblock_secret", "crossblock_message", "per_block", "crossblock_random_extra")
    _half = 0


@dataclass(frozen=True)
class RandomBundle(_Bundle):
    """Uniform random fill split by carrying class."""

    crossblock_secret: np.ndarray
    block_random: np.ndarray
    crossblock_random: np.ndarray

    _fields = ("crossblock_secret", "block_random", "crossblock_random")
    _half = 1


def total_message_bits(code: HierarchicalCode) -> int:
    return MessageBundle._bit_count(code)


def total_random_bits(code: HierarchicalCode) -> int:
    return RandomBundle._bit_count(code)


def designed_rate(code: HierarchicalCode) -> float:
    """Message bits per channel use; exactly total_message_bits / (n b)."""
    return total_message_bits(code) / float(code.n * code.b)


def _check_shapes(actual: "_Bundle", expected: dict, what: str) -> None:
    for k, shp in expected.items():
        arr = getattr(actual, k)
        if tuple(arr.shape) != tuple(shp):
            raise ValueError(f"{what}.{k} must have shape {tuple(shp)}, got {tuple(arr.shape)}")


def _placed(shape: tuple[int, ...], *parts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """A uint8 array of ``shape``, zero except that each ``(columns, bits)``
    of ``parts`` fills those columns of the last axis."""
    out = np.zeros(shape, dtype=np.uint8)
    for columns, bits in parts:
        out[..., columns] = bits
    return out


def _row_codewords(shape: tuple[int, ...], *parts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Cross-block row codewords, length-b rows on the last axis of
    ``shape``: the transform of ``_placed(shape, *parts)``."""
    fill = _placed(shape, *parts)
    return polar_transform(fill) if fill.size else fill


def encode(code: HierarchicalCode, msg: MessageBundle, rnd: RandomBundle) -> np.ndarray:
    """Two-phase encoder: cross-block rows first, then each block's column
    layout, then the per-block polar transform.  Returns the (b, n) uint8
    frame, one codeword per row."""
    msg_shapes, rnd_shapes = bundle_shapes(code)
    _check_shapes(msg, msg_shapes, "msg")
    _check_shapes(rnd, rnd_shapes, "rnd")
    P = code.partition
    b = code.b
    secret = _row_codewords(
        (P.crossblock_secret.size, b),
        (code.secret_info, rnd.crossblock_secret),
        (code.secret_msg_positions, msg.crossblock_secret),
    )
    message = _row_codewords(
        (P.crossblock_message.size, b), (P.bec_info_main, msg.crossblock_message)
    )
    random_rows = _row_codewords(
        (P.crossblock_random.size, b),
        (code.random_info, rnd.crossblock_random),
        (code.weak_extra_positions, msg.crossblock_random_extra),
    )

    pre = _placed(
        (b, code.n),
        (P.block_random, rnd.block_random),
        (P.crossblock_secret, secret.T),
        (P.perblock_message, msg.per_block),
        (P.crossblock_message, message.T),
        (P.crossblock_random, random_rows.T),
    )
    return polar_transform(pre)


@dataclass(frozen=True)
class DecodeStatus:
    """Outcome of a frame decode; ``failed_phase`` names the first phase that
    hit an unresolvable erasure (only the cross-block erasure phase can
    detect its own failure)."""

    ok: bool
    failed_phase: str | None = None


def _mask_of(n: int, *index_sets: np.ndarray) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for s in index_sets:
        mask[s] = True
    return mask


def _frames(
    code: HierarchicalCode, llr: np.ndarray, *per_frame
) -> tuple[np.ndarray, list[list], bool]:
    """A decoder's input as a stack: the (T, b, n) LLRs, each per-frame
    argument as a list of T, and whether the input was a single frame."""
    llr = np.asarray(llr, dtype=np.float64)
    single = llr.ndim == 2
    if single:
        llr = llr[None]
        per_frame = tuple([arg] for arg in per_frame)
    b, n = code.b, code.n
    if llr.ndim != 3 or llr.shape[1:] != (b, n):
        shape = llr.shape[1:] if single else llr.shape
        raise ValueError(f"llr must have shape {(b, n)} or (T, {b}, {n}), got {shape}")
    lists = [list(arg) for arg in per_frame]
    for arg in lists:
        if len(arg) != llr.shape[0]:
            raise ValueError(
                f"{llr.shape[0]} stacked frames need as many traces and bundles, got {len(arg)}"
            )
    return llr, lists, single


def _superior(code: HierarchicalCode, traces: list[FadingTrace], field: str) -> np.ndarray:
    """The (T, b) state vectors ``field`` of the traces."""
    if any(trace.blocks != code.b for trace in traces):
        raise ValueError("trace length does not match frame")
    return np.stack([getattr(trace, field) for trace in traces])


def _per_frame(cls: type, **stacked: np.ndarray) -> list:
    """One ``cls`` bundle per frame from fields stacked on a leading frame axis."""
    frames = len(next(iter(stacked.values())))
    return [cls(**{k: v[t] for k, v in stacked.items()}) for t in range(frames)]


def _three_phase(
    code: HierarchicalCode,
    llr: np.ndarray,
    superior: np.ndarray,
    pinned: np.ndarray,
    sup_frozen: np.ndarray,
    row_groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    deg_frozen: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray], list[DecodeStatus]]:
    """The hierarchical decoder both receivers run, fed by a receiver's table,
    over a stack of T frames.

    ``llr`` holds the receiver's (T, b, n) channel LLRs, one block per row,
    ``superior`` its (T, b) state vectors and ``pinned`` a (T, b, n) array of
    the bits it knows before decoding, zero elsewhere.  Phase one decodes the
    superior blocks of all frames in one call, with the ``sup_frozen``
    positions pinned.  Phase two decodes each ``(columns, info, fill)`` row
    group: the cross-block rows at per-block positions ``columns``, certain
    on superior blocks and erased on degraded ones, as a length-b erasure
    code with information set ``info`` and frozen bits ``fill``, (b,) for
    every row or (T * columns.size, b), frame by frame.  The rows of all
    frames go in one call.  Phase three decodes the degraded blocks of all
    frames with the ``deg_frozen`` positions pinned, the phase-two rows among
    them.  Rows never mix: each frame's result is the result of decoding it
    alone.

    Returns the (T, b, n) pre-transform decisions, each group's (T, rows, b)
    decoder-order row decisions and each frame's status.
    """
    frames, b, n = llr.shape
    pre_hat = np.ascontiguousarray(pinned)
    flat = pre_hat.reshape(frames * b, n)
    sup = superior.reshape(-1)
    deg = ~sup

    block_llr = llr.reshape(frames * b, n)
    dec_sup, _ = sc_decode_batch(block_llr[sup], sup_frozen, flat[sup], erasure_law=False)
    flat[sup] = dec_sup

    rows = []
    ambiguous = np.zeros(frames, dtype=bool)
    for columns, info, fill in row_groups:
        dec_rows = np.zeros((frames, columns.size, b), dtype=np.uint8)
        if columns.size:
            bits = pre_hat[:, :, columns].transpose(0, 2, 1)
            row_llr = np.where(superior[:, None, :], (1.0 - 2.0 * bits) * np.inf, 0.0)
            frozen = ~_mask_of(b, info)
            dec, amb = sc_decode_batch(row_llr.reshape(-1, b), frozen, fill, erasure_law=True)
            del row_llr  # not held through phase three, where memory peaks
            dec_rows = dec.reshape(dec_rows.shape)
            pre_hat[:, :, columns] = polar_transform(dec_rows).transpose(0, 2, 1)
            ambiguous |= amb.reshape(frames, columns.size).any(axis=1)
        rows.append(dec_rows)

    dec_deg, _ = sc_decode_batch(block_llr[deg], deg_frozen, flat[deg], erasure_law=False)
    flat[deg] = dec_deg
    statuses = [DecodeStatus(ok=not a, failed_phase="phase2" if a else None) for a in ambiguous]
    return pre_hat, rows, statuses


def bob_decode(
    code: HierarchicalCode, llr: np.ndarray, trace: FadingTrace | Sequence[FadingTrace]
):
    """Intended-receiver decoder (knows the trace, not the sent bits) of the
    main-channel LLRs ``llr``.

    Given one (b, n) frame and its ``FadingTrace``, returns
    ``(msg_hat, rnd_hat, status)``.  Given a (T, b, n) stack and a sequence
    of T traces, returns the list of the T results, each what that frame
    alone would give; the stack is decoded in one pass of the engine.

    Runs the three phases with only the frozen class pinned on superior
    blocks and the cross-block message/random rows decoded in phase two.
    The crossblock_secret rows are then fully known and inverted to split
    message from randomness.
    """
    P = code.partition
    llr, (traces,), single = _frames(code, llr, trace)
    frames, b, n = llr.shape
    # both row kinds carry bits only on the main information set: random
    # rows hold their fill on random_info and the weak-extra message slice
    # on the rest of it
    row_classes = np.concatenate([P.crossblock_message, P.crossblock_random])
    pre_hat, (dec_rows,), statuses = _three_phase(
        code,
        llr,
        _superior(code, traces, "main_superior"),
        pinned=np.zeros((frames, b, n), dtype=np.uint8),
        sup_frozen=_mask_of(n, P.frozen),
        row_groups=[(row_classes, P.bec_info_main, np.zeros(b, dtype=np.uint8))],
        deg_frozen=_mask_of(n, P.frozen, P.crossblock_message, P.crossblock_random),
    )

    n_msg = P.crossblock_message.size
    msg_rows = dec_rows[:, :n_msg]
    rnd_rows = dec_rows[:, n_msg:]

    secret_vals = pre_hat[:, :, P.crossblock_secret].transpose(0, 2, 1)
    secret_pre = polar_transform_inverse(secret_vals) if secret_vals.size else secret_vals

    msg_hats = _per_frame(
        MessageBundle,
        crossblock_secret=secret_pre[..., code.secret_msg_positions],
        crossblock_message=msg_rows[..., P.bec_info_main],
        per_block=pre_hat[..., P.perblock_message],
        crossblock_random_extra=rnd_rows[..., code.weak_extra_positions],
    )
    rnd_hats = _per_frame(
        RandomBundle,
        crossblock_secret=secret_pre[..., code.secret_info],
        block_random=pre_hat[..., P.block_random],
        crossblock_random=rnd_rows[..., code.random_info],
    )
    results = list(zip(msg_hats, rnd_hats, statuses))
    return results[0] if single else results


def eve_genie_decode(
    code: HierarchicalCode,
    llr: np.ndarray,
    trace: FadingTrace | Sequence[FadingTrace],
    msg: MessageBundle | Sequence[MessageBundle],
):
    """Genie-aided eavesdropper decoder of the eavesdropper LLRs ``llr``:
    receives every message bit and must recover all random fill.
    Measures how completely the randomness saturates the eavesdropper's
    observation (the leakage proxy).

    Given one (b, n) frame, its ``FadingTrace`` and its ``MessageBundle``,
    returns ``(rnd_hat, status)``.  Given a (T, b, n) stack with T traces
    and T message bundles, returns the list of the T results, each what
    that frame alone would give.

    Mirrors the receiver's three phases with the eavesdropper's flip laws and
    its own state trace; message-bearing classes are pinned from the genie
    instead of decoded, and the secret and random rows are decoded on their
    random-fill information sets with the message slices as frozen bits.
    """
    P = code.partition
    llr, (traces, msgs), single = _frames(code, llr, trace, msg)
    frames, b, n = llr.shape
    msg_shapes, _ = bundle_shapes(code)
    for m in msgs:
        _check_shapes(m, msg_shapes, "msg")

    def stacked(field: str) -> np.ndarray:
        return np.stack([getattr(m, field) for m in msgs])

    def fill(rows: int, *parts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        # each frame's row fill, frames stacked row-wise
        return _placed((frames, rows, b), *parts).reshape(frames * rows, b)

    message_rows = _row_codewords(
        (frames, P.crossblock_message.size, b), (P.bec_info_main, stacked("crossblock_message"))
    )
    pinned = _placed(
        (frames, b, n),
        (P.crossblock_message, message_rows.transpose(0, 2, 1)),
        (P.perblock_message, stacked("per_block")),
    )
    secret_fill = fill(
        P.crossblock_secret.size, (code.secret_msg_positions, stacked("crossblock_secret"))
    )
    random_fill = fill(
        P.crossblock_random.size, (code.weak_extra_positions, stacked("crossblock_random_extra"))
    )
    pre_hat, (dec_secret, dec_random), statuses = _three_phase(
        code,
        llr,
        _superior(code, traces, "eve_superior"),
        pinned=pinned,
        sup_frozen=_mask_of(n, P.frozen, P.perblock_message, P.crossblock_message),
        row_groups=[
            (P.crossblock_secret, code.secret_info, secret_fill),
            (P.crossblock_random, code.random_info, random_fill),
        ],
        deg_frozen=~_mask_of(n, P.block_random),
    )

    rnd_hats = _per_frame(
        RandomBundle,
        crossblock_secret=dec_secret[..., code.secret_info],
        block_random=pre_hat[..., P.block_random],
        crossblock_random=dec_random[..., code.random_info],
    )
    results = list(zip(rnd_hats, statuses))
    return results[0] if single else results


def target_fractions(params: WiretapParams) -> dict:
    """Limiting class fractions (of n) and erasure-info fractions (of b) as
    block length and frame size grow, for the scenario of ``params``.

    These are the limits under exact reliabilities: the good set of flip
    rate ``p`` fills ``1 - H(p)`` of the block and the erasure layer keeps
    ``q1`` of each row.  A finite partition sits below them.  The default
    ``bhattacharyya-bound`` construction runs the erasure recursion from
    ``2 sqrt(p(1-p))``, so its cumulative good fractions tend to
    ``1 - 2 sqrt(p(1-p))`` instead (``block_random`` tends to 0.286, not
    0.390, at ``p2s = 0.15``).  The erasure layer, built at the design rate
    ``q2 (1 + delta)``, tends to ``1 - q2 (1 + delta)``.  Whether the
    default construction must reach these targets is left open.
    """
    tag = classify_scenario(params)
    if tag is ScenarioTag.UNSUPPORTED:
        raise UnsupportedScenarioError("no partition targets in the unsupported regime")
    # each class takes the entropy gap between its law and the one before it
    parts = dict.fromkeys(CLASSES, 0.0)
    held = 1.0
    for law, name in _LAYOUTS[tag]:
        h = binary_entropy(getattr(params, law))
        parts[name] = held - h
        held = h
    parts["frozen"] = held
    parts["bec_info_main"] = params.q1
    parts["bec_info_eve"] = params.q1s
    return parts
