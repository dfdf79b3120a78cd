"""Closed-form secrecy rates, capacity gaps and leakage bounds.

All rates are in bits per channel use, all logarithms base 2, and the binary
entropy is extended by continuity with H(0) = H(1) = 0.  Scenario naming and
parameter conventions are those of :mod:`hierpolar.channels`; the rate
operations take a full :class:`~hierpolar.channels.WiretapParams` and check
that its coupling and ordering match the formula they implement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ScenarioTag,
    UnsupportedScenarioError,
    WiretapParams,
    classify_scenario,
)

__all__ = [
    "LeakageBound",
    "RateReport",
    "binary_entropy",
    "bounds_independent_weak",
    "capacity_independent_strong",
    "eve_ergodic_capacity",
    "fano_leakage_bound",
    "gap_and_bound",
    "rate_report",
    "secrecy_capacity_simultaneous",
    "sweep_gap_surface",
]

SWEEP_FIELDS = ("q1", "q1s", "p2", "p1s", "gap_coeff", "gap_upper")

_CAPACITY_TOL = 1e-12


def binary_entropy(p):
    """H(p) = -p log2 p - (1-p) log2 (1-p), elementwise, H(0) = H(1) = 0."""
    arr = np.asarray(p, dtype=np.float64)
    if (arr < 0.0).any() or (arr > 1.0).any():
        raise ValueError("binary_entropy domain is [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -arr * np.log2(arr) - (1.0 - arr) * np.log2(1.0 - arr)
    h = np.where((arr == 0.0) | (arr == 1.0), 0.0, h)
    return float(h) if np.isscalar(p) or np.ndim(p) == 0 else h


def _check_prob(name: str, v: float, hi: float = 1.0) -> float:
    v = float(v)
    if not (0.0 <= v <= hi):
        raise ValueError(f"{name} must lie in [0, {hi}], got {v!r}")
    return v


def _sim_capacity(p1: float, p2: float, p1s: float, p2s: float, q1: float) -> float:
    h1, h2, h1s, h2s = (binary_entropy(v) for v in (p1, p2, p1s, p2s))
    return q1 * (h1s - h1) + (1.0 - q1) * (h2s - h2)


def _ind_strong_capacity(
    p1: float, p2: float, p1s: float, p2s: float, q1: float, q1s: float
) -> float:
    h1, h2, h1s, h2s = (binary_entropy(v) for v in (p1, p2, p1s, p2s))
    return q1s * h1s + (1.0 - q1s) * h2s - q1 * h1 - (1.0 - q1) * h2


def _weak_upper(p1: float, p2: float, p1s: float, p2s: float, q1: float, q1s: float) -> float:
    h1, h2, h1s, h2s = (binary_entropy(v) for v in (p1, p2, p1s, p2s))
    q2, q2s = 1.0 - q1, 1.0 - q1s
    return q1 * q1s * h1s + q2s * h2s - q1 * h1 - q2 * q2s * h2


def _weak_achievable(
    p1: float, p2: float, p1s: float, p2s: float, q1: float, q1s: float
) -> float:
    h1, h2, h1s, h2s = (binary_entropy(v) for v in (p1, p2, p1s, p2s))
    q2s = 1.0 - q1s
    return q1 * (h1s - h1) + q2s * (h2s - h2) + (q1 - q1s) * (h2 - h1s)


def secrecy_capacity_simultaneous(params: WiretapParams) -> float:
    """Ergodic secrecy capacity under shared fading states:
    ``q1 (H(p1s) - H(p1)) + q2 (H(p2s) - H(p2))``."""
    if params.coupling != "simultaneous":
        raise ValueError("formula requires simultaneous coupling")
    return _sim_capacity(params.p1, params.p2, params.p1s, params.p2s, params.q1)


def capacity_independent_strong(params: WiretapParams) -> float:
    """Secrecy capacity under independent fading with the strong ordering
    ``p2 <= p1s``: ``q1s H(p1s) + q2s H(p2s) - q1 H(p1) - q2 H(p2)``."""
    if params.coupling != "independent":
        raise ValueError("formula requires independent coupling")
    if params.p2 > params.p1s:
        raise ValueError("strong ordering requires p2 <= p1s")
    return _ind_strong_capacity(
        params.p1, params.p2, params.p1s, params.p2s, params.q1, params.q1s
    )


def bounds_independent_weak(params: WiretapParams) -> tuple[float, float]:
    """Upper bound and achievable secrecy rate for independent fading with
    the interleaved ordering ``p1 <= p1s <= p2 <= p2s``.

    upper      = q1 q1s H(p1s) + q2s H(p2s) - q1 H(p1) - q2 q2s H(p2)
    achievable = q1 (H(p1s) - H(p1)) + q2s (H(p2s) - H(p2))
                 + (q1 - q1s)(H(p2) - H(p1s))

    The achievable expression needs ``q1 >= q1s``; below that no scheme is
    known and :class:`UnsupportedScenarioError` is raised.
    """
    if params.coupling != "independent":
        raise ValueError("weak-ordering bounds require independent coupling")
    if params.p1s > params.p2:
        raise ValueError("interleaved ordering requires p1s <= p2")
    if params.q1 < params.q1s:
        raise UnsupportedScenarioError(
            "no achievable scheme for q1 < q1s under the interleaved ordering"
        )
    args = (params.p1, params.p2, params.p1s, params.p2s, params.q1, params.q1s)
    return _weak_upper(*args), _weak_achievable(*args)


def gap_and_bound(params: WiretapParams) -> tuple[float, float]:
    """Gap between the weak-ordering bounds and its universal cap.

    Returns ``(q1s q2 (H(p2) - H(p1s)), 0.25 (H(p2) - H(p1s)))``.  The gap
    equals upper - achievable identically on the supported region.
    """
    if params.coupling != "independent":
        raise ValueError("the gap is defined for independent coupling")
    if params.p1s > params.p2:
        raise ValueError("the gap is defined for p1s <= p2")
    if params.q1 < params.q1s:
        raise ValueError("the gap is defined for q1 >= q1s")
    spread = binary_entropy(params.p2) - binary_entropy(params.p1s)
    return params.q1s * params.q2 * spread, 0.25 * spread


def eve_ergodic_capacity(params: WiretapParams) -> float:
    """Ergodic capacity of the eavesdropper's fading channel,
    ``q1s (1 - H(p1s)) + q2s (1 - H(p2s))``.  This is the randomness rate the
    scheme must spend to saturate the eavesdropper's observation."""
    h1s = binary_entropy(params.p1s)
    h2s = binary_entropy(params.p2s)
    return params.q1s * (1.0 - h1s) + params.q2s * (1.0 - h2s)


@dataclass(frozen=True)
class LeakageBound:
    """Information-leakage bound derived from a genie-aided eavesdropper's
    frame error rate over the random bits.

    ``bound_bits_total`` is ``fer * random_bit_count + H(fer)`` bits per
    frame; ``per_channel_use`` divides by the frame length.
    """

    bound_bits_total: float
    per_channel_use: float
    eve_fer: float
    random_bit_count: int


def fano_leakage_bound(
    eve_fer: float, random_bit_count: int, n: int, b: int
) -> LeakageBound:
    """Bound the per-frame message leakage from the genie-aided eavesdropper's
    failure rate at recovering all random bits."""
    eve_fer = _check_prob("eve_fer", eve_fer)
    if random_bit_count < 0:
        raise ValueError("random_bit_count must be nonnegative")
    if n < 1 or b < 1:
        raise ValueError("n and b must be positive")
    total = eve_fer * float(random_bit_count) + binary_entropy(eve_fer)
    return LeakageBound(
        bound_bits_total=total,
        per_channel_use=total / (float(n) * float(b)),
        eve_fer=eve_fer,
        random_bit_count=int(random_bit_count),
    )


@dataclass(frozen=True)
class RateReport:
    """Secrecy-rate summary for one parameter set.

    ``achievable`` and the gap fields are ``None`` in the unsupported regime
    (the upper bound still applies there).  ``capacity_established`` holds
    exactly when the gap vanishes (to 1e-12).
    """

    scenario: ScenarioTag
    upper_bound: float
    achievable: float | None
    capacity_established: bool
    gap: float | None
    gap_upper: float | None
    eve_ergodic_capacity: float

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.value,
            "upper_bound": self.upper_bound,
            "achievable": self.achievable,
            "capacity_established": self.capacity_established,
            "gap": self.gap,
            "gap_upper": self.gap_upper,
            "eve_ergodic_capacity": self.eve_ergodic_capacity,
        }


def rate_report(params: WiretapParams) -> RateReport:
    """Evaluate the applicable bounds for ``params`` and report them."""
    tag = classify_scenario(params)
    eve_cap = eve_ergodic_capacity(params)
    if tag in (ScenarioTag.SIM_A, ScenarioTag.SIM_B):
        c = secrecy_capacity_simultaneous(params)
        return RateReport(tag, c, c, True, 0.0, 0.0, eve_cap)
    if tag is ScenarioTag.IND_STRONG:
        c = capacity_independent_strong(params)
        return RateReport(tag, c, c, True, 0.0, 0.0, eve_cap)
    if tag is ScenarioTag.UNSUPPORTED:
        upper = _weak_upper(
            params.p1, params.p2, params.p1s, params.p2s, params.q1, params.q1s
        )
        return RateReport(tag, upper, None, False, None, None, eve_cap)
    upper, achievable = bounds_independent_weak(params)
    gap, gap_upper = gap_and_bound(params)
    return RateReport(tag, upper, achievable, gap <= _CAPACITY_TOL, gap, gap_upper, eve_cap)


def _coeff(q1: float, q1s: float) -> float:
    # gap coefficient q1s * q2 on the supported wedge, zero elsewhere
    return q1s * (1.0 - q1) if q1 >= q1s else 0.0


def _upper(p2: float, p1s: float) -> float:
    # zero-filled outside p1s <= p2, matching the surface convention
    if p1s > p2:
        return 0.0
    return 0.25 * (binary_entropy(p2) - binary_entropy(p1s))


def sweep_gap_surface(
    surface: str,
    steps: int,
    *,
    q1: float = 0.5,
    q1s: float = 0.5,
    p2: float = 0.2,
    p1s: float = 0.1,
) -> list[dict]:
    """Tabulate a gap surface on a steps x steps grid.

    ``surface='gap-coeff'`` sweeps the state probabilities over the grid
    ``{j/steps : j = 0..steps-1}`` (step 1/steps, so 0.5 is on every
    even-sized grid) while the flip probabilities stay at their configured
    constants.  ``surface='gap-upper'`` sweeps ``p2`` and ``p1s`` over
    ``linspace(0, 0.5, steps)`` with the state probabilities constant.
    Points outside the supported wedge carry zeros.  Rows are emitted with
    the first swept variable outermost, both ascending.
    """
    if steps < 2:
        raise ValueError("need at least a 2x2 grid")
    rows: list[dict] = []
    if surface == "gap-coeff":
        grid = np.arange(steps, dtype=np.float64) / float(steps)
        upper_const = _upper(_check_prob("p2", p2, 0.5), _check_prob("p1s", p1s, 0.5))
        for g1 in grid:
            for g1s in grid:
                rows.append(
                    {
                        "q1": float(g1),
                        "q1s": float(g1s),
                        "p2": float(p2),
                        "p1s": float(p1s),
                        "gap_coeff": _coeff(float(g1), float(g1s)),
                        "gap_upper": upper_const,
                    }
                )
    elif surface == "gap-upper":
        grid = np.linspace(0.0, 0.5, steps)
        coeff_const = _coeff(_check_prob("q1", q1), _check_prob("q1s", q1s))
        for v2 in grid:
            for v1s in grid:
                rows.append(
                    {
                        "q1": float(q1),
                        "q1s": float(q1s),
                        "p2": float(v2),
                        "p1s": float(v1s),
                        "gap_coeff": coeff_const,
                        "gap_upper": _upper(float(v2), float(v1s)),
                    }
                )
    else:
        raise ValueError(f"unknown surface {surface!r}")
    return rows
