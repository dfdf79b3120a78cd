"""Polar-code primitives: transform, reliability profiles, successive cancellation.

Bit vectors are numpy ``uint8`` arrays with values in {0, 1} whose length is a
power of two.  The encoder map is ``x = u @ (B_n F^k) (mod 2)`` where ``F`` is
the 2x2 kernel [[1, 0], [1, 1]], ``F^k`` its k-fold Kronecker power and ``B_n``
the bit-reversal permutation matrix.  The map is an involution over GF(2), so
the inverse transform is the transform itself.

Index convention
----------------
All index sets (unfrozen sets, reliability profiles, good sets) refer to the
position of a bit in the *decoder* order, i.e. the order in which successive
cancellation decides bits.  Indices are 0-based.  The reliability recursion
``z_minus = 2z - z^2``, ``z_plus = z^2`` emits values in exactly this order.

Log-likelihood ratios are ``log(P(y|bit=0) / P(y|bit=1))``: positive favours
bit 0.  ``+inf`` / ``-inf`` encode certainty, 0 encodes a structural erasure
or a likelihood tie.  Ties on unfrozen decisions decode to bit 1.  For erasure
laws a zero LLR at an unfrozen decision is a genuine ambiguity and is flagged
in the ambiguity mask of :func:`sc_decode_batch`, never silently guessed.

Successive cancellation
-----------------------
One recursion serves :func:`sc_decode_batch` and the ``genie-mc`` profile.
Given a frozen mask it prunes by node kind (Alamdar-Yazdi & Kschischang,
2011; Sarkis et al., 2014), with decisions bit-identical to the full tree.
A Rate-0 node (all positions frozen) is never descended: its decisions are
its pinned bits, its partial sums their transform.  Under a flip law a
Rate-1 node (none frozen) takes the hard decisions ``x = llr <= 0`` as its
partial sums and ``polar_transform(x)`` as its decisions, if a guard proves
that no f below it rounds to 0; erasure-law calls prune Rate-0 nodes only
(ROADMAP item 2a keeps their Rate-1 nodes for a sign arithmetic).
|f(a, b)| grows with |a| and |b|, and with consistent hard decisions every
g adds two values of one sign, so the guard is ``min |llr| >= t(w)`` at
width w, where t(w) is the smallest power of ten m whose f(m, m), applied
log2(w) times, stays above 0: 1e-161 at w = 2, 1e-4 at 64, 10 at 1024,
computed from this module's own f.

Each call picks its arithmetic from its LLRs.  When they are finite and
too small for a sum to overflow, f and g skip the infinity handling.
Otherwise they handle infinities exactly: inf - inf gives 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .channels import ChannelLaw

__all__ = [
    "ReliabilityProfile",
    "bit_reversal_permutation",
    "polar_transform",
    "polar_transform_inverse",
    "reliability_profile",
    "sc_decode_batch",
    "select_good_set",
]

PROFILE_METHODS = ("exact-bec", "bhattacharyya-bound", "genie-mc")

# tanh saturates near 19; this keeps arctanh finite unless an input was
# genuinely infinite, in which case the exact certainty algebra takes over.
_ATANH_LIMIT = 1.0 - 1e-15


def _require_block_length(n: int, what: str = "block length") -> int:
    if not isinstance(n, (int, np.integer)) or n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"{what} must be a power of two >= 1, got {n!r}")
    return int(n)


def _as_bits(v: np.ndarray | Iterable[int], what: str = "bit vectors") -> np.ndarray:
    arr = np.asarray(v)
    if arr.dtype != np.uint8:
        if not np.isin(arr, (0, 1)).all():
            raise ValueError(f"{what} may only contain 0 and 1")
        arr = arr.astype(np.uint8)
    return arr


@functools.lru_cache(maxsize=None)
def _cached_bit_reversal(n: int) -> np.ndarray:
    k = n.bit_length() - 1
    perm = np.zeros(n, dtype=np.int64)
    for i in range(n):
        r = 0
        x = i
        for _ in range(k):
            r = (r << 1) | (x & 1)
            x >>= 1
        perm[i] = r
    perm.setflags(write=False)
    return perm


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Involutive permutation of ``{0, .., n-1}`` reversing each index's bits.

    ``n`` must be a power of two.  Entry ``i`` holds the index whose binary
    expansion (over log2(n) digits) is the reverse of ``i``'s.
    """
    return _cached_bit_reversal(_require_block_length(n))


def _kernel_power_inplace(x: np.ndarray) -> None:
    # butterfly for v -> v @ F^k over GF(2), operating on the last axis
    n = x.shape[-1]
    d = 1
    while d < n:
        v = x.reshape(x.shape[:-1] + (n // (2 * d), 2, d))
        v[..., 0, :] ^= v[..., 1, :]
        d *= 2


def polar_transform(u: np.ndarray | Iterable[int]) -> np.ndarray:
    """Encode ``u`` (last axis = block) through the bit-reversed polar map.

    Accepts a single vector or a batch with the block on the last axis.
    Runs in O(n log n) per block and agrees bit-for-bit with the dense
    matrix product against ``B_n F^k``.
    """
    u = _as_bits(u)
    n = _require_block_length(u.shape[-1])
    x = np.ascontiguousarray(u[..., bit_reversal_permutation(n)])
    _kernel_power_inplace(x)
    return x


def polar_transform_inverse(x: np.ndarray | Iterable[int]) -> np.ndarray:
    """Invert :func:`polar_transform`.  The map is an involution, so this is
    the same butterfly; kept as its own entry point for call-site clarity."""
    return polar_transform(x)


@dataclass(frozen=True)
class ReliabilityProfile:
    """Per-index channel quality in decoder order.

    ``z`` holds, depending on ``method``: exact erasure probabilities
    (``exact-bec``), Bhattacharyya upper bounds (``bhattacharyya-bound``)
    or Monte Carlo genie-aided decision error estimates (``genie-mc``).
    Lower is better in every case.
    """

    n: int
    z: np.ndarray
    method: str
    law: "ChannelLaw"

    def __post_init__(self) -> None:
        _require_block_length(self.n)
        if self.method not in PROFILE_METHODS:
            raise ValueError(f"unknown profile method {self.method!r}")
        z = np.asarray(self.z, dtype=np.float64)
        if z.shape != (self.n,):
            raise ValueError("profile length must match n")
        if (z < 0).any() or (z > 1).any():
            raise ValueError("profile values must lie in [0, 1]")
        object.__setattr__(self, "z", z)


def _doubling_recursion(z0: float, n: int) -> np.ndarray:
    z = np.array([z0], dtype=np.float64)
    while z.size < n:
        out = np.empty(z.size * 2, dtype=np.float64)
        out[0::2] = 2.0 * z - z * z
        out[1::2] = z * z
        z = out
    return np.clip(z, 0.0, 1.0)


def _llr_magnitude(law: "ChannelLaw") -> float:
    # certainty for an erasure law (its unerased outputs are exact)
    if law.kind == "bec":
        return np.inf
    with np.errstate(divide="ignore"):
        return np.log((1.0 - law.param) / law.param) if law.param > 0 else np.inf


def _channel_llrs(
    x: np.ndarray, superior: np.ndarray, laws: Sequence["ChannelLaw"], rng: np.random.Generator
) -> np.ndarray:
    # one draw of rng.random(x.shape) for the (rows, n) bits x: row i goes
    # through laws[0] where superior[i], else laws[1].  A flip law flips the
    # bits its draw hits, an erasure law zeroes their LLRs.  Each law's
    # magnitude is one scalar, selected per row and never recomputed over an
    # array, so a row's LLRs do not depend on the other rows' laws.
    # channels.transmit samples here
    sup, deg = laws

    def pick(a, b) -> np.ndarray:
        return np.where(superior, a, b)[:, None]

    hit = rng.random(x.shape) < pick(sup.param, deg.param)
    erasure = pick(sup.is_erasure, deg.is_erasure)
    mag = pick(_llr_magnitude(sup), _llr_magnitude(deg))
    llr = np.where(x ^ (hit & ~erasure), -mag, mag)
    llr[hit & erasure] = 0.0
    return llr


def _genie_mc_profile(law: "ChannelLaw", n: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    # genie-aided SC: every partial sum uses the true bit, and each leaf
    # counts the rows whose decision there would be wrong (erased, for an
    # erasure law)
    bad = np.zeros(n, dtype=np.float64)
    done = 0
    chunk = max(1, min(trials, (1 << 22) // n))
    while done < trials:
        m = min(chunk, trials - done)
        u = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        llr = _channel_llrs(polar_transform(u), np.ones(m, dtype=bool), (law, law), rng)

        def leaf(col: np.ndarray, i: int) -> np.ndarray:
            if law.kind == "bsc":
                bad[i] += np.count_nonzero((col <= 0.0) != u[:, i])
            else:
                bad[i] += np.count_nonzero(col == 0.0)
            return u[:, i]

        _successive_cancellation(llr, leaf)
        done += m
    return bad / float(trials)


def reliability_profile(
    law: "ChannelLaw",
    n: int,
    method: str = "bhattacharyya-bound",
    *,
    trials: int = 10_000,
    rng: np.random.Generator | None = None,
) -> ReliabilityProfile:
    """Compute a per-index reliability profile for ``law`` at block length ``n``.

    Parameters
    ----------
    law:
        Binary symmetric or binary erasure channel law.
    n:
        Block length, a power of two.
    method:
        ``exact-bec`` evolves exact erasure probabilities (erasure laws only).
        ``bhattacharyya-bound`` runs the same recursion from the Bhattacharyya
        parameter: ``2 sqrt(p(1-p))`` for a flip law (upper bounds), the
        erasure probability for an erasure law (exact there).
        ``genie-mc`` estimates per-index decision error rates from ``trials``
        genie-aided successive cancellation runs.
    """
    n = _require_block_length(n)
    if method == "exact-bec":
        if law.kind != "bec":
            raise ValueError("exact-bec profiles require an erasure law")
        z = _doubling_recursion(float(law.param), n)
    elif method == "bhattacharyya-bound":
        if law.kind == "bsc":
            p = float(law.param)
            z0 = 2.0 * np.sqrt(p * (1.0 - p))
        else:
            z0 = float(law.param)
        z = _doubling_recursion(z0, n)
    elif method == "genie-mc":
        if trials < 1:
            raise ValueError("genie-mc needs a positive trial count")
        if rng is None:
            rng = np.random.default_rng(0)
        z = _genie_mc_profile(law, n, int(trials), rng)
    else:
        raise ValueError(f"unknown profile method {method!r}")
    return ReliabilityProfile(n=n, z=z, method=method, law=law)


def select_good_set(profile: ReliabilityProfile, threshold: float) -> np.ndarray:
    """Indices whose profile value is at or below ``threshold``, sorted ascending."""
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must lie in (0, 1], got {threshold!r}")
    return np.nonzero(profile.z <= threshold)[0].astype(np.int64)


def _f_finite(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    # check-node update 2 atanh(tanh(a/2) tanh(b/2)), exact while no input is
    # infinite; out and scratch, when given, are arrays of the inputs' shape
    out = np.multiply(a, 0.5, out=out)
    np.tanh(out, out=out)
    tb = np.multiply(b, 0.5, out=scratch)
    out *= np.tanh(tb, out=tb)
    np.minimum(out, _ATANH_LIMIT, out=out)
    np.maximum(out, -_ATANH_LIMIT, out=out)
    np.arctanh(out, out=out)
    out *= 2.0
    return out


def _f_combine(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    # exact check-node update, with the certainty algebra restored for
    # genuinely infinite inputs
    out = _f_finite(a, b, out, scratch)
    inf_a = np.isinf(a)
    inf_b = np.isinf(b)
    if inf_a.any() or inf_b.any():
        sa = np.sign(a)
        sb = np.sign(b)
        # the unselected entries may evaluate 0 * inf; the mask leaves them out
        with np.errstate(invalid="ignore"):
            np.copyto(out, sa * sb * np.inf, where=inf_a & inf_b)
            np.copyto(out, sa * b, where=inf_a & ~inf_b)
            np.copyto(out, sb * a, where=~inf_a & inf_b)
    return out


def _g_finite(
    a: np.ndarray, b: np.ndarray, u_left: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    # variable-node update b + (1 - 2 u_left) a, exact while no input is infinite
    out = np.multiply(u_left, -2.0, out=out, dtype=np.float64)
    out += 1.0
    out *= a
    out += b
    return out


def _g_combine(
    a: np.ndarray, b: np.ndarray, u_left: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    # exact variable-node update; conflicting certainties (inf - inf) carry
    # no information and collapse to an erasure
    with np.errstate(invalid="ignore"):
        out = _g_finite(a, b, u_left, out)
    bad = np.isnan(out)
    if bad.any():
        out[bad] = 0.0
    return out


@functools.lru_cache(maxsize=None)
def _rate1_floor(w: int) -> float:
    # the smallest power of ten m whose f applied log2(w) times, f(m, m) then
    # f of that with itself, stays above 0; see the module docstring
    m = 10.0 ** np.arange(-320, 309)
    v = m
    for _ in range(w.bit_length() - 1):
        v = _f_finite(v, v)
    return float(m[np.argmax(v > 0.0)])


class _SCRun:
    # one SC pass: the per-level workspace, the arithmetic, the leaf rule
    # and, when the frozen positions are given, what pruning needs
    __slots__ = (
        "llrs", "sums", "scratch", "spare", "f", "g", "leaf", "count", "pins", "decisions", "hard"
    )


def _pinned(run: _SCRun, lo: int, w: int) -> np.ndarray | None:
    # a Rate-0 node's codeword-order partial sums, after writing its pinned
    # bits to the decisions; None for any other node
    count = run.count
    if count is None or count[lo + w] - count[lo] != w:
        return None
    u = run.pins[..., lo : lo + w]
    run.decisions[:, lo : lo + w] = u
    # the transform of zero bits is zero, and of a single bit the bit itself
    return u if w == 1 or not u.any() else polar_transform(u)


def _sc_descend(seg: np.ndarray, lo: int, level: int, run: _SCRun) -> np.ndarray:
    # one node of the SC tree: seg holds its (batch, width) LLRs in codeword
    # order, lo its first decoder-order position; returns its partial sums in
    # codeword order.  Its children see the even/odd pairs of seg through f
    # and g, written into llrs[level]; its partial sums go to sums[level],
    # left ones first so that g can read them
    w = seg.shape[1]
    if w == 1:
        return run.leaf(seg[:, 0], lo)[:, None]
    if (
        run.hard
        and run.count[lo] == run.count[lo + w]
        and np.abs(seg, out=run.spare[level]).min() >= _rate1_floor(w)
    ):  # a guarded Rate-1 node: hard decisions are its partial sums
        x = (seg <= 0).view(np.uint8)
        run.decisions[:, lo : lo + w] = polar_transform(x)
        return x
    child, out = run.llrs[level], run.sums[level]
    half = w // 2
    a = seg[:, 0::2]
    b = seg[:, 1::2]
    left = out[:, 0::2]
    x = _pinned(run, lo, half)
    if x is None:
        x = _sc_descend(run.f(a, b, child, run.scratch[level]), lo, level + 1, run)
    left[...] = x
    x = _pinned(run, lo + half, half)
    if x is None:
        x = _sc_descend(run.g(a, b, left, child), lo + half, level + 1, run)
    left ^= x
    out[:, 1::2] = x
    return out


def _successive_cancellation(
    llr: np.ndarray,
    leaf: Callable[[np.ndarray, int], np.ndarray],
    frozen: np.ndarray | None = None,
    pins: np.ndarray | None = None,
    decisions: np.ndarray | None = None,
    hard: bool = False,
) -> None:
    """The SC butterfly over a (batch, n) LLR array in codeword order.

    At decoder-order position ``i`` it calls ``leaf(col, i)`` with the
    (batch,) decision LLRs and feeds the (batch,) uint8 bits it returns
    into the partial sums.  ``llr`` is read, never written.  A node splits
    its LLRs into even and odd positions, so the tree runs in codeword order
    without a bit-reversed copy.  Each level keeps one LLR buffer, which its
    f and then its g values share (the f values are dead once the left
    subtree returns), and one uint8 partial-sum buffer: batch x n LLRs and
    batch x 2n bytes in all, allocated once per call.

    Without ``frozen`` every position reaches the leaf rule.  With the (n,)
    ``frozen`` mask the tree is pruned: a Rate-0 node writes its ``pins``,
    (n,) or (batch, n), to the (batch, n) ``decisions``; with ``hard`` too,
    a guarded Rate-1 node writes its hard decisions there.  The leaf rule
    sees only the unfrozen positions outside them.
    """
    batch, n = llr.shape
    run = _SCRun()
    run.leaf, run.pins, run.decisions, run.hard = leaf, pins, decisions, hard
    run.count = None if frozen is None else [0] + np.cumsum(frozen).tolist()
    if _pinned(run, 0, n) is not None:
        return
    # below this bound no sum of n LLRs, nor any f, can reach an infinity
    finite = max(llr.max(), -llr.min()) < np.finfo(np.float64).max / (2 * n)
    run.f, run.g = (_f_finite, _g_finite) if finite else (_f_combine, _g_combine)
    flat = np.empty(batch * n, dtype=np.float64)
    bits = np.empty(2 * batch * n, dtype=np.uint8)
    run.llrs, run.sums, run.scratch, run.spare = [], [], [], []
    pos = 0
    for w in (n >> k for k in range(1, n.bit_length())):  # child widths n/2, .., 1
        run.llrs.append(flat[pos * batch : (pos + w) * batch].reshape(batch, w))
        run.sums.append(bits[2 * pos * batch : 2 * (pos + w) * batch].reshape(batch, 2 * w))
        # f's half-width scratch and the Rate-1 guard's full-width one: the
        # buffers of the levels below plus the one spare slot, all dead
        # while this level computes f or tests its node
        run.scratch.append(flat[(n - w) * batch :].reshape(batch, w))
        run.spare.append(flat[pos * batch :].reshape(batch, 2 * w))
        pos += w
    _sc_descend(llr, 0, 0, run)


def sc_decode_batch(
    llr: np.ndarray,
    frozen_mask: np.ndarray,
    frozen_values: np.ndarray,
    erasure_law: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Successive cancellation over a batch of blocks sharing one frozen set.

    Parameters
    ----------
    llr:
        (batch, n) channel LLRs in codeword order, without NaN.
    frozen_mask:
        (n,) True where the decoder-order position is frozen.
    frozen_values:
        (n,) or (batch, n) pinned bits (0 or 1) for frozen positions.
    erasure_law:
        When True a zero LLR at an unfrozen decision marks the block ambiguous.

    Returns
    -------
    (decisions, ambiguous):
        decisions is (batch, n) uint8 in decoder order; ambiguous is a
        (batch,) bool mask of blocks that hit an unresolvable erasure.
    """
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim != 2:
        raise ValueError("llr must be (batch, n)")
    if np.isnan(llr).any():
        raise ValueError("llr must not contain NaN")
    batch, n = llr.shape
    _require_block_length(n)
    frozen_mask = np.asarray(frozen_mask, dtype=bool)
    if frozen_mask.shape != (n,):
        raise ValueError("frozen_mask must be (n,)")
    frozen_values = _as_bits(frozen_values, "frozen_values")
    if frozen_values.shape not in ((n,), (batch, n)):
        raise ValueError("frozen_values must be (n,) or (batch, n)")

    decisions = np.empty((batch, n), dtype=np.uint8)
    ambiguous = np.zeros(batch, dtype=bool)
    if batch == 0:
        return decisions, ambiguous

    def leaf(col: np.ndarray, i: int) -> np.ndarray:
        u = (col <= 0.0).view(np.uint8)
        if erasure_law:
            np.logical_or(ambiguous, col == 0.0, out=ambiguous)
        decisions[:, i] = u
        return u

    _successive_cancellation(llr, leaf, frozen_mask, frozen_values, decisions, not erasure_law)
    return decisions, ambiguous

