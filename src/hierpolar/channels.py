"""Channel laws, wiretap fading parameters and scenario classification.

The transmission model is a block-fading binary symmetric wiretap channel:
each length-n block sees the main channel and the eavesdropper channel in one
of two states, superior or degraded, held for the whole block.  State draws
are i.i.d. across blocks.  ``coupling`` says whether both channels share one
state process ("simultaneous") or fade independently ("independent").

Parameter names follow the exported interface: ``p1``/``p2`` are the main
channel flip probabilities in the superior/degraded state, ``p1s``/``p2s``
the eavesdropper's, ``q1`` the probability of the main channel being superior
and ``q1s`` the eavesdropper's superior-state probability.  Degradation
requires ``p1 <= p1s`` and ``p2 <= p2s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .polar import _as_bits, _channel_llrs

__all__ = [
    "ChannelLaw",
    "FadingTrace",
    "ScenarioTag",
    "UnsupportedScenarioError",
    "WiretapParams",
    "bec",
    "bsc",
    "classify_scenario",
    "sample_fading",
    "transmit",
]


class UnsupportedScenarioError(Exception):
    """Raised for parameter regimes with no supported coding scheme."""


@dataclass(frozen=True)
class ChannelLaw:
    """A memoryless binary channel: ``bsc`` flips with probability ``param``
    (at most 0.5), ``bec`` erases with probability ``param``."""

    kind: str
    param: float

    def __post_init__(self) -> None:
        if self.kind not in ("bsc", "bec"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        p = float(self.param)
        hi = 0.5 if self.kind == "bsc" else 1.0
        if not (0.0 <= p <= hi):
            raise ValueError(f"{self.kind} parameter must lie in [0, {hi}], got {p!r}")
        object.__setattr__(self, "param", p)

    @property
    def is_erasure(self) -> bool:
        return self.kind == "bec"


def bsc(p: float) -> ChannelLaw:
    return ChannelLaw("bsc", p)


def bec(q: float) -> ChannelLaw:
    return ChannelLaw("bec", q)


class ScenarioTag(Enum):
    """Ordering/coupling regime of a wiretap parameter set.

    SIM_A: shared fading, eavesdropper degraded blockwise even across states
    (main degraded flip prob <= eavesdropper superior flip prob).
    SIM_B: shared fading with interleaved orderings.
    IND_STRONG: independent fading, strong ordering (capacity known).
    IND_WEAK: independent fading, interleaved ordering with the main channel
    more often superior; capacity bracketed by bounds.
    UNSUPPORTED: independent interleaved ordering with the eavesdropper more
    often superior; no scheme or bound is implemented.
    """

    SIM_A = "SIM-A"
    SIM_B = "SIM-B"
    IND_STRONG = "IND-STRONG"
    IND_WEAK = "IND-WEAK"
    UNSUPPORTED = "UNSUPPORTED"


@dataclass(frozen=True)
class WiretapParams:
    """Flip probabilities, state probabilities and the fading coupling.

    For simultaneous coupling the eavesdropper's state probability is the
    main channel's by construction; passing a conflicting ``q1s`` is an error.
    """

    p1: float
    p2: float
    p1s: float
    p2s: float
    q1: float
    q1s: float | None = None
    coupling: str = "simultaneous"

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p1s", "p2s"):
            v = float(getattr(self, name))
            if not (0.0 <= v <= 0.5):
                raise ValueError(f"{name} must lie in [0, 0.5], got {v!r}")
            object.__setattr__(self, name, v)
        if self.p1 > self.p2:
            raise ValueError("superior main state cannot be noisier than degraded (p1 <= p2)")
        if self.p1s > self.p2s:
            raise ValueError("superior eavesdropper state cannot be noisier than degraded (p1s <= p2s)")
        if self.p1 > self.p1s:
            raise ValueError("eavesdropper must be degraded in the superior state (p1 <= p1s)")
        if self.p2 > self.p2s:
            raise ValueError("eavesdropper must be degraded in the degraded state (p2 <= p2s)")
        q1 = float(self.q1)
        if not (0.0 <= q1 <= 1.0):
            raise ValueError("q1 must lie in [0, 1]")
        object.__setattr__(self, "q1", q1)
        if self.coupling not in ("simultaneous", "independent"):
            raise ValueError(f"coupling must be simultaneous or independent, got {self.coupling!r}")
        if self.coupling == "simultaneous":
            if self.q1s is not None and float(self.q1s) != q1:
                raise ValueError("simultaneous coupling fixes q1s = q1")
            object.__setattr__(self, "q1s", q1)
        else:
            if self.q1s is None:
                raise ValueError("independent coupling requires q1s")
            q1s = float(self.q1s)
            if not (0.0 <= q1s <= 1.0):
                raise ValueError("q1s must lie in [0, 1]")
            object.__setattr__(self, "q1s", q1s)

    @property
    def q2(self) -> float:
        return 1.0 - self.q1

    @property
    def q2s(self) -> float:
        return 1.0 - self.q1s


def classify_scenario(params: WiretapParams) -> ScenarioTag:
    """Tag the parameter regime.  The boundary ``p2 == p1s`` counts as the
    strong ordering."""
    strong = params.p2 <= params.p1s
    if params.coupling == "simultaneous":
        return ScenarioTag.SIM_A if strong else ScenarioTag.SIM_B
    if strong:
        return ScenarioTag.IND_STRONG
    if params.q1 >= params.q1s:
        return ScenarioTag.IND_WEAK
    return ScenarioTag.UNSUPPORTED


@dataclass(frozen=True)
class FadingTrace:
    """Realized per-block channel states; True marks the superior state."""

    main_superior: np.ndarray
    eve_superior: np.ndarray

    def __post_init__(self) -> None:
        main = np.asarray(self.main_superior, dtype=bool)
        eve = np.asarray(self.eve_superior, dtype=bool)
        if main.shape != eve.shape or main.ndim != 1:
            raise ValueError("state vectors must be 1-d and equally long")
        object.__setattr__(self, "main_superior", main)
        object.__setattr__(self, "eve_superior", eve)

    @property
    def blocks(self) -> int:
        return int(self.main_superior.shape[0])


def sample_fading(params: WiretapParams, b: int, rng: np.random.Generator) -> FadingTrace:
    """Draw one i.i.d. state vector (pair) for ``b`` blocks.

    Simultaneous coupling reuses the main draw for the eavesdropper, so both
    state vectors are identical.  Independent coupling draws the eavesdropper
    states afterwards from the same generator.
    """
    if b < 1:
        raise ValueError("need at least one block")
    main = rng.random(b) < params.q1
    if params.coupling == "simultaneous":
        eve = main.copy()
    else:
        eve = rng.random(b) < params.q1s
    return FadingTrace(main_superior=main, eve_superior=eve)


def transmit(
    x: np.ndarray,
    superior: np.ndarray,
    laws: tuple[ChannelLaw, ChannelLaw],
    rng: np.random.Generator,
) -> np.ndarray:
    """Send a (b, n) frame of bits and return its (b, n) float64 LLRs.

    Row ``i`` goes through ``laws[0]`` where ``superior[i]`` is true and
    through ``laws[1]`` otherwise.  The noise is one ``rng.random((b, n))``
    draw, the same values as ``b`` successive ``rng.random(n)`` draws, so
    row ``i`` sees the noise a per-block transmission in row order would.
    Flip laws yield LLRs of magnitude ``log((1-p)/p)`` (infinite at p = 0,
    zero at p = 0.5); erasure laws yield certainties, with zero LLRs at the
    erased positions.
    """
    x = _as_bits(x)
    superior = np.asarray(superior, dtype=bool)
    if x.ndim != 2:
        raise ValueError(f"x must be a (b, n) frame, got shape {x.shape}")
    if superior.shape != x.shape[:1]:
        raise ValueError(f"superior must have shape {x.shape[:1]}, got {superior.shape}")
    if len(laws) != 2:
        raise ValueError("laws must be a (superior, degraded) pair")
    return _channel_llrs(x, superior, laws, rng)
