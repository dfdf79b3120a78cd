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
:func:`sc_decode_batch` runs one recursion, pruned by node kind
(Alamdar-Yazdi & Kschischang, 2011; Sarkis et al., 2014), with decisions
bit-identical to the full tree.
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

The ``genie-mc`` profile does not run this recursion.  Its genie knows
every partial sum, so no decision feeds back: it evolves the all-zero
codeword's LLRs one tree level at a time with the same f and g, which gives
each decision LLR of any codeword up to its sign (Arikan, 2009; Vangala,
Viterbo & Hong, 2015).  Near the channel a node takes few distinct LLRs, so
those levels run on small integer codes through f and g tables built once
per call, while the tables hold at most ``_GENIE_TILE`` entries: widths n
to n/16 for the fixture's flip laws, and every level of an erasure law.
The tiles of rows run on the calling thread and a helper thread per
further usable CPU (four threads at most).  The threads take the tiles in
order and draw each one's channel under one lock, so the generator's
stream and every estimate are the same for any number of threads.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

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

# LLRs per genie-mc tile, shared by the workers: each of them draws its
# channel and evolves the tree levels on whole rows of about
# _GENIE_TILE / _GENIE_WORKERS LLRs at a time, so the buffers in flight stay
# small however many workers there are
_GENIE_TILE = 1 << 16

# threads that evolve a genie-mc profile's tiles, the calling one included:
# the CPUs this process may run on, at most four
_GENIE_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

# tanh saturates near 19; this keeps arctanh finite unless an input was
# genuinely infinite, in which case the exact certainty algebra takes over.
_ATANH_LIMIT = 1.0 - 1e-15


def _require_block_length(n: int, what: str = "block length") -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1 or (n & (n - 1)) != 0:
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
    # genie-aided SC, where every partial sum is the true bit.  The channel
    # is symmetric, so the LLRs of codeword x are those of the zero codeword
    # times (-1)^x: f is odd in each argument, and g with the true left bits
    # adds the halves up to that sign.  With nothing fed back, the zero
    # codeword's tree runs one level at a time, on value codes near the
    # channel (see _genie_plan), then on floats (see _genie_levels); u is
    # drawn only to keep the generator's stream and to score each position:
    # a tie decides 1, so it is wrong where the true bit is 0 (an erasure
    # law counts every tie).  A chunk of trials draws its bits, then its
    # channel tile by tile, as channels.transmit would: a hit codes root[1].
    # Up to _GENIE_WORKERS threads, the calling one included, take the
    # tiles in order and draw each under one lock, so the stream is the same
    # for any number of them; each evolves its tiles in its own workspace
    # and counts its errors in its own row of bad
    root, finite, plan = _genie_plan(law, n)
    perm = bit_reversal_permutation(n)
    tile = max(1, min(trials, _GENIE_TILE // _GENIE_WORKERS // n))
    bad = np.zeros((_GENIE_WORKERS, n), dtype=np.int64)
    lock = threading.Lock()

    def evolve(u: np.ndarray, starts: Iterator[int], wrong: np.ndarray) -> None:
        # the tiles of u that this worker takes, until none is left.  A
        # tile's draw and hits sit in the scratch and spare slots, which the
        # levels need only once the hits are coded
        work = np.empty(3 * tile * n, dtype=np.float64)
        codes = np.empty(2 * tile * n, dtype=np.uint8)
        try:
            while True:
                with lock:
                    r = next(starts, None)
                    if r is None:
                        return
                    t = min(tile, u.shape[0] - r)
                    draw = rng.random(out=work[2 * t * n : 3 * t * n].reshape(t, n))
                cur, nxt, scratch = (work[k * t * n : (k + 1) * t * n].reshape(n, t) for k in range(3))
                code, spare = (codes[k * t * n : (k + 1) * t * n].reshape(n, t) for k in range(2))
                hit = np.less(draw, law.param, out=spare.reshape(t, n))
                np.take(hit.T, perm, axis=0, out=code)
                if not plan:  # n = 1: the channel LLRs are the leaves
                    np.take(root, code, out=cur)
                for k, (size, base, tables) in enumerate(plan):
                    pair = code.reshape(size.shape[0], 2, -1, t)
                    idx = pair[:, 0] * size + base
                    idx += pair[:, 1]
                    out = (cur if k == len(plan) - 1 else spare).reshape(pair.shape).swapaxes(0, 1)
                    np.take(tables, idx, axis=1, out=out)
                    code, spare = spare, code
                leaves = _genie_levels(cur, nxt, scratch, finite, n >> len(plan))
                if law.is_erasure:
                    wrong += np.count_nonzero(leaves == 0.0, axis=1)
                else:
                    wrong += np.count_nonzero(np.where(u[r : r + t].T, leaves < 0.0, leaves <= 0.0), axis=1)
        except BaseException:
            with lock:  # the other workers stop after their current tile
                collections.deque(starts, maxlen=0)
            raise

    chunk = max(1, (1 << 22) // n)
    for done in range(0, trials, chunk):
        u = rng.integers(0, 2, size=(min(chunk, trials - done), n), dtype=np.uint8)
        starts = iter(range(0, u.shape[0], tile))
        workers = min(_GENIE_WORKERS, -(-u.shape[0] // tile))
        _on_threads(evolve, [(u, starts, row) for row in bad[:workers]])
    return bad.sum(axis=0) / float(trials)


def _on_threads(task: Callable[..., None], args: list[tuple]) -> None:
    # task(*args[0]) on the calling thread and task(*a) for each later a on
    # a helper thread of its own, run in a copy of the caller's context (so
    # numpy's errstate holds there too); joins every helper, then re-raises
    # the first exception a helper raised
    errors: list[BaseException] = []

    def helper(*a) -> None:
        try:
            task(*a)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    started = []
    try:
        for a in args[1:]:
            thread = threading.Thread(target=contextvars.copy_context().run, args=(helper, *a))
            thread.start()
            started.append(thread)
        task(*args[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def _genie_plan(law: "ChannelLaw", n: int) -> tuple[np.ndarray, bool, list]:
    # the root's values (unhit, hit), whether they are finite, and code
    # tables for the tree levels next to the channel.  There a node holds
    # codes into its values V (sorted below the root); its code pair (i, j),
    # at entry |V| i + j of its slice of the level's tables, maps to the codes
    # of f(V[i], V[j]) and V[i] + V[j] in its children's values, computed by
    # the float levels' own step (np.unique merges 0.0 with -0.0, which no
    # later f, g or score tells apart).  Levels are coded while their tables
    # hold at most _GENIE_TILE entries, so codes fit a uint8; the last coded
    # level's tables hold the child LLRs.  Equal values share their tables
    mag = _llr_magnitude(law)
    root = np.array([np.inf, 0.0] if law.is_erasure else [mag, -mag])
    finite = bool(np.isfinite(root).all())
    pairs, plan, values = {}, [], [root]
    while len(values) < n and sum(v.size**2 for v in values) <= _GENIE_TILE:
        for v in values:
            if v.tobytes() not in pairs:
                a, b = np.repeat(v, v.size), np.tile(v, v.size)
                llr = np.empty((2, a.size))
                _genie_step(a, b, llr[0], llr[1], np.empty_like(a), finite)
                pairs[v.tobytes()] = llr, [np.unique(x, return_inverse=True) for x in llr]
        level = [pairs[v.tobytes()] for v in values]
        size = np.array([v.size for v in values])[:, None, None]
        codes = np.concatenate([[c for _, c in kids] for _, kids in level], axis=1)
        plan.append((size, np.cumsum(size**2, axis=0) - size**2, codes.astype(np.uint8)))
        values = [vals for _, kids in level for vals, _ in kids]
    if plan:
        plan[-1] = plan[-1][:2] + (np.concatenate([llr for llr, _ in level], axis=1),)
    return root, finite, plan


def _genie_step(
    a: np.ndarray, b: np.ndarray, left: np.ndarray, right: np.ndarray, scratch: np.ndarray, finite: bool
) -> None:
    # one genie level: f of the halves a and b into left, their sum into right
    if finite:
        _f_finite(a, b, left, scratch)
        np.add(a, b, out=right)
    else:
        _f_combine(a, b, left, scratch)
        with np.errstate(invalid="ignore"):
            _nan_to_tie(np.add(a, b, out=right))


def _genie_levels(cur: np.ndarray, nxt: np.ndarray, scratch: np.ndarray, finite: bool, w: int) -> np.ndarray:
    # the zero codeword's SC tree one level at a time from width w down, on
    # (n, rows) LLRs in bit-reversed order: a node of width w holds its even
    # codeword positions in its first half and its odd ones in its second,
    # each half again in bit-reversed order, so its children are f and the
    # sum of its halves, laid out side by side.  After the last level row i
    # holds the decision LLRs of decoder position i.  cur, nxt and scratch
    # are workspaces of the same shape; the result is one of the first two
    n, t = cur.shape
    while w > 1:
        half = w // 2
        a, b = cur.reshape(n // w, 2, half, t).transpose(1, 0, 2, 3)
        left, right = nxt.reshape(n // w, 2, half, t).transpose(1, 0, 2, 3)
        _genie_step(a, b, left, right, scratch[: n // 2].reshape(n // w, half, t), finite)
        cur, nxt, w = nxt, cur, half
    return cur


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
        genie-aided successive cancellation runs, where every earlier bit is
        known: the all-zero codeword's LLRs, evolved level by level, scored
        against random bits drawn alongside (a tie decides 1; under an
        erasure law every tie counts).  ``trials`` is a positive int and
        ``rng`` a ``numpy.random.Generator`` (default: seeded with 0).
    """
    n = _require_block_length(n, "n (block length)")
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
        if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
            raise ValueError(f"genie-mc trials must be a positive integer, got {trials!r}")
        if rng is None:
            rng = np.random.default_rng(0)
        elif not isinstance(rng, np.random.Generator):
            raise TypeError(f"genie-mc rng must be a numpy.random.Generator, got {rng!r}")
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
    # exact variable-node update; sums may overflow to an infinity
    with np.errstate(invalid="ignore", over="ignore"):
        out = _g_finite(a, b, u_left, out)
    return _nan_to_tie(out)


def _nan_to_tie(out: np.ndarray) -> np.ndarray:
    # conflicting certainties (inf - inf) carry no information and collapse
    # to an erasure
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
    # one SC pass: the per-level workspace, the arithmetic, what pruning
    # needs and where the decisions and ambiguity flags go
    __slots__ = (
        "llrs", "sums", "scratch", "spare", "f", "g", "count", "pins", "decisions", "ambiguous",
        "erasure",
    )


def _pinned(run: _SCRun, lo: int, w: int) -> np.ndarray | None:
    # a Rate-0 node's codeword-order partial sums, after writing its pinned
    # bits to the decisions; None for any other node
    if run.count[lo + w] - run.count[lo] != w:
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
    if w == 1:  # an unfrozen position: a tie decides 1
        col = seg[:, 0]
        if run.erasure:
            np.logical_or(run.ambiguous, col == 0.0, out=run.ambiguous)
        u = (col <= 0.0).view(np.uint8)
        run.decisions[:, lo] = u
        return u[:, None]
    if (
        not run.erasure
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
    frozen: np.ndarray,
    pins: np.ndarray,
    decisions: np.ndarray,
    ambiguous: np.ndarray,
    erasure_law: bool,
) -> None:
    """The pruned SC butterfly over a (batch, n) LLR array in codeword order.

    It writes the decoder-order bits to the (batch, n) ``decisions``: the
    (n,) or (batch, n) ``pins`` where the (n,) ``frozen`` mask is set, and
    ``llr <= 0`` of the decision LLR elsewhere.  Under an erasure law a zero
    decision LLR also sets the row's flag in the (batch,) ``ambiguous``.
    ``llr`` is read, never written.  A node splits its LLRs into even and
    odd positions, so the tree runs in codeword order without a bit-reversed
    copy.  Each level keeps one LLR buffer, which its f and then its g
    values share (the f values are dead once the left subtree returns), and
    one uint8 partial-sum buffer: batch x n LLRs and batch x 2n bytes in
    all, allocated once per call.

    A Rate-0 node writes its pins without descending; under a flip law a
    guarded Rate-1 node writes its hard decisions.
    """
    batch, n = llr.shape
    run = _SCRun()
    run.pins, run.decisions, run.ambiguous, run.erasure = pins, decisions, ambiguous, erasure_law
    run.count = [0] + np.cumsum(frozen).tolist()
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
    if batch > 0:
        _successive_cancellation(llr, frozen_mask, frozen_values, decisions, ambiguous, erasure_law)
    return decisions, ambiguous

