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
    if isinstance(p, float):
        # a float (np.float64 too) skips the 0-d array; np.log2 on it rounds
        # as the array path does, where math.log2 differs in the last bit
        if not 0.0 <= p <= 1.0:
            raise ValueError("binary_entropy domain is [0, 1]")
        if p == 0.0 or p == 1.0:
            return 0.0
        return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))
    arr = np.asarray(p, dtype=np.float64)
    # written so that NaN, which fails every comparison, is rejected too
    if not ((arr >= 0.0).all() and (arr <= 1.0).all()):
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


def _entropies(params: WiretapParams) -> tuple[float, float, float, float]:
    # (H(p1), H(p2), H(p1s), H(p2s)), the arguments of the helpers below
    return tuple(binary_entropy(v) for v in (params.p1, params.p2, params.p1s, params.p2s))


def _sim_capacity(h: tuple, params: WiretapParams) -> float:
    h1, h2, h1s, h2s = h
    q1 = params.q1
    return q1 * (h1s - h1) + (1.0 - q1) * (h2s - h2)


def _ind_strong_capacity(h: tuple, params: WiretapParams) -> float:
    h1, h2, h1s, h2s = h
    q1, q1s = params.q1, params.q1s
    return q1s * h1s + (1.0 - q1s) * h2s - q1 * h1 - (1.0 - q1) * h2


def _weak_upper(h: tuple, params: WiretapParams) -> float:
    h1, h2, h1s, h2s = h
    q1, q1s = params.q1, params.q1s
    q2, q2s = 1.0 - q1, 1.0 - q1s
    return q1 * q1s * h1s + q2s * h2s - q1 * h1 - q2 * q2s * h2


def _weak_achievable(h: tuple, params: WiretapParams) -> float:
    h1, h2, h1s, h2s = h
    q1, q1s = params.q1, params.q1s
    q2s = 1.0 - q1s
    return q1 * (h1s - h1) + q2s * (h2s - h2) + (q1 - q1s) * (h2 - h1s)


def _gap(h2: float, h1s: float, params: WiretapParams) -> tuple[float, float]:
    spread = h2 - h1s
    return params.q1s * params.q2 * spread, 0.25 * spread


def _eve_capacity(h1s: float, h2s: float, params: WiretapParams) -> float:
    return params.q1s * (1.0 - h1s) + params.q2s * (1.0 - h2s)


def secrecy_capacity_simultaneous(params: WiretapParams) -> float:
    """Ergodic secrecy capacity under shared fading states:
    ``q1 (H(p1s) - H(p1)) + q2 (H(p2s) - H(p2))``."""
    if params.coupling != "simultaneous":
        raise ValueError("formula requires simultaneous coupling")
    return _sim_capacity(_entropies(params), params)


def capacity_independent_strong(params: WiretapParams) -> float:
    """Secrecy capacity under independent fading with the strong ordering
    ``p2 <= p1s``: ``q1s H(p1s) + q2s H(p2s) - q1 H(p1) - q2 H(p2)``."""
    if params.coupling != "independent":
        raise ValueError("formula requires independent coupling")
    if params.p2 > params.p1s:
        raise ValueError("strong ordering requires p2 <= p1s")
    return _ind_strong_capacity(_entropies(params), params)


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
    h = _entropies(params)
    return _weak_upper(h, params), _weak_achievable(h, params)


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
    return _gap(binary_entropy(params.p2), binary_entropy(params.p1s), params)


def eve_ergodic_capacity(params: WiretapParams) -> float:
    """Ergodic capacity of the eavesdropper's fading channel,
    ``q1s (1 - H(p1s)) + q2s (1 - H(p2s))``.  This is the randomness rate the
    scheme must spend to saturate the eavesdropper's observation."""
    return _eve_capacity(binary_entropy(params.p1s), binary_entropy(params.p2s), params)


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
    for name, v, least in (("random_bit_count", random_bit_count, 0), ("n", n, 1), ("b", b, 1)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
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
    # the tag settles the coupling and ordering checks of the public
    # formulas, so the helpers share one evaluation of the four entropies
    tag = classify_scenario(params)
    h = _entropies(params)
    _, h2, h1s, h2s = h
    eve_cap = _eve_capacity(h1s, h2s, params)
    if tag in (ScenarioTag.SIM_A, ScenarioTag.SIM_B):
        c = _sim_capacity(h, params)
        return RateReport(tag, c, c, True, 0.0, 0.0, eve_cap)
    if tag is ScenarioTag.IND_STRONG:
        c = _ind_strong_capacity(h, params)
        return RateReport(tag, c, c, True, 0.0, 0.0, eve_cap)
    upper = _weak_upper(h, params)
    if tag is ScenarioTag.UNSUPPORTED:
        return RateReport(tag, upper, None, False, None, None, eve_cap)
    achievable = _weak_achievable(h, params)
    gap, gap_upper = _gap(h2, h1s, params)
    return RateReport(tag, upper, achievable, gap <= _CAPACITY_TOL, gap, gap_upper, eve_cap)


def _coeff(q1: float, q1s: float) -> float:
    # gap coefficient q1s * q2 on the supported wedge, zero elsewhere
    return q1s * (1.0 - q1) if q1 >= q1s else 0.0


def _upper(p2: float, p1s: float, h2: float, h1s: float) -> float:
    # 0.25 (H(p2) - H(p1s)), zero-filled outside p1s <= p2, matching the
    # surface convention
    return 0.0 if p1s > p2 else 0.25 * (h2 - h1s)


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
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 2:
        raise ValueError(f"steps must be at least 2 (a 2x2 grid), got {steps!r}")
    rows: list[dict] = []
    if surface == "gap-coeff":
        grid = (np.arange(steps, dtype=np.float64) / float(steps)).tolist()
        p2, p1s = _check_prob("p2", p2, 0.5), _check_prob("p1s", p1s, 0.5)
        upper_const = _upper(p2, p1s, binary_entropy(p2), binary_entropy(p1s))
        for g1 in grid:
            for g1s in grid:
                rows.append(
                    {
                        "q1": g1,
                        "q1s": g1s,
                        "p2": p2,
                        "p1s": p1s,
                        "gap_coeff": _coeff(g1, g1s),
                        "gap_upper": upper_const,
                    }
                )
    elif surface == "gap-upper":
        grid = np.linspace(0.0, 0.5, steps).tolist()
        h = [binary_entropy(v) for v in grid]
        coeff_const = _coeff(_check_prob("q1", q1), _check_prob("q1s", q1s))
        for v2, h2 in zip(grid, h):
            for v1s, h1s in zip(grid, h):
                rows.append(
                    {
                        "q1": float(q1),
                        "q1s": float(q1s),
                        "p2": v2,
                        "p1s": v1s,
                        "gap_coeff": coeff_const,
                        "gap_upper": _upper(v2, v1s, h2, h1s),
                    }
                )
    else:
        raise ValueError(f"unknown surface {surface!r}")
    return rows
