"""Output checks for the hierpolar benchmark, computed apart from the program.

Each check returns a list of problems (strings); an empty list means the
output passed.  The formulas are written again here from the documented
definitions (README, module docstrings, the paper's closed forms); nothing
in this file calls into hierpolar.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

RATE_TOL = 1e-12  # absolute tolerance on closed-form values against the oracle
FER_LIMIT = 0.05  # design reliability, as in acceptance criterion 06
FER_ALPHA = 1e-6  # a run breaks the hold when P(errors >= observed | FER_LIMIT) < FER_ALPHA
NEAR_TIE = 1e-6  # flip-law rows whose reference meets |leaf LLR| <= NEAR_TIE are not compared
SLACK_DELTA = 1e-9  # per-index false-alarm probability of the binomial slack

CLASSES = (
    "block_random",
    "crossblock_secret",
    "perblock_message",
    "crossblock_message",
    "crossblock_random",
    "frozen",
)


def entropy(p: float) -> float:
    """Binary entropy in bits, H(0) = H(1) = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def scenario_of(p: dict) -> str:
    """Scenario tag from the README's taxonomy; ``p2 == p1s`` is strong."""
    strong = p["p2"] <= p["p1s"]
    if p["coupling"] == "simultaneous":
        return "SIM-A" if strong else "SIM-B"
    if strong:
        return "IND-STRONG"
    return "IND-WEAK" if p["q1"] >= p["q1s"] else "UNSUPPORTED"


def param_dict(params) -> dict:
    return {k: getattr(params, k) for k in ("p1", "p2", "p1s", "p2s", "q1", "q1s", "coupling")}


# ---------------------------------------------------------------------------
# closed forms: a 30-digit oracle


class Oracle:
    """Closed-form rates at 30 significant digits (mpmath), cached by input."""

    def __init__(self) -> None:
        import mpmath

        self.mp = mpmath.mp.clone()
        self.mp.dps = 30
        self._h: dict[float, object] = {}

    def h(self, p: float):
        if p not in self._h:
            mp = self.mp
            x = mp.mpf(p)
            self._h[p] = mp.mpf(0) if x in (0, 1) else -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)
        return self._h[p]

    def report(self, p: dict) -> dict:
        """Expected ``RateReport.to_dict()`` with mpf numbers."""
        mp = self.mp
        h1, h2, h1s, h2s = (self.h(p[k]) for k in ("p1", "p2", "p1s", "p2s"))
        q1, q1s = mp.mpf(p["q1"]), mp.mpf(p["q1s"])
        q2, q2s = 1 - q1, 1 - q1s
        tag = scenario_of(p)
        eve = q1s * (1 - h1s) + q2s * (1 - h2s)
        out = {"scenario": tag, "eve_ergodic_capacity": eve}
        if tag in ("SIM-A", "SIM-B", "IND-STRONG"):
            if tag == "IND-STRONG":
                c = q1s * h1s + q2s * h2s - q1 * h1 - q2 * h2
            else:
                c = q1 * (h1s - h1) + q2 * (h2s - h2)
            out.update(upper_bound=c, achievable=c, capacity_established=True, gap=mp.mpf(0), gap_upper=mp.mpf(0))
            return out
        upper = q1 * q1s * h1s + q2s * h2s - q1 * h1 - q2 * q2s * h2
        if tag == "UNSUPPORTED":
            out.update(upper_bound=upper, achievable=None, capacity_established=False, gap=None, gap_upper=None)
            return out
        achievable = q1 * (h1s - h1) + q2s * (h2s - h2) + (q1 - q1s) * (h2 - h1s)
        gap = q1s * q2 * (h2 - h1s)
        out.update(
            upper_bound=upper,
            achievable=achievable,
            capacity_established=bool(gap <= RATE_TOL),
            gap=gap,
            gap_upper=(h2 - h1s) / 4,
        )
        return out

    def gap_upper(self, p2: float, p1s: float):
        return (self.h(p2) - self.h(p1s)) / 4 if p1s <= p2 else self.mp.mpf(0)


def check_report(got: dict, want: dict, what: str = "report") -> list[str]:
    """Compare a ``RateReport.to_dict()`` with the oracle's expectation."""
    problems = []
    if got.get("scenario") != want["scenario"]:
        problems.append(f"{what}: scenario {got.get('scenario')!r}, expected {want['scenario']!r}")
    if got.get("capacity_established") is not want["capacity_established"]:
        problems.append(f"{what}: capacity_established {got.get('capacity_established')!r}")
    for key in ("upper_bound", "achievable", "gap", "gap_upper", "eve_ergodic_capacity"):
        g, w = got.get(key), want[key]
        if w is None or g is None:
            if g is not w:
                problems.append(f"{what}: {key} {g!r}, expected {w!r}")
        elif not isinstance(g, float) or not abs(g - w) <= RATE_TOL:
            problems.append(f"{what}: {key} {g!r} differs from the oracle {float(w)!r}")
    if want["scenario"] == "IND-WEAK" and not problems:
        if not abs(got["gap"] - (got["upper_bound"] - got["achievable"])) <= RATE_TOL:
            problems.append(f"{what}: gap is not upper_bound - achievable")
    return problems


def sweep_grid(surface: str, steps: int) -> list[float]:
    if surface == "gap-coeff":
        return [j / steps for j in range(steps)]
    return [0.5 * j / (steps - 1) for j in range(steps)]


def check_sweep(surface: str, steps: int, const: dict, rows: list, oracle: Oracle) -> list[str]:
    """Rows of ``sweep_gap_surface``: the grid in order, ``q1s q2`` and
    ``(H(p2) - H(p1s)) / 4`` on the supported wedge, zeros outside it."""
    grid = sweep_grid(surface, steps)
    swept = ("q1", "q1s") if surface == "gap-coeff" else ("p2", "p1s")
    if len(rows) != steps * steps:
        return [f"{surface}: {len(rows)} rows, expected {steps * steps}"]
    problems = []
    for i, row in enumerate(rows):
        point = dict(const)
        point[swept[0]], point[swept[1]] = grid[i // steps], grid[i % steps]
        for key in ("q1", "q1s", "p2", "p1s"):
            if not abs(row[key] - point[key]) <= 1e-15:
                problems.append(f"{surface} row {i}: {key}={row[key]!r}, grid point {point[key]!r}")
        q1, q1s = row["q1"], row["q1s"]
        coeff = q1s * (1.0 - q1) if q1 >= q1s else 0.0
        if not abs(row["gap_coeff"] - coeff) <= RATE_TOL:
            problems.append(f"{surface} row {i}: gap_coeff {row['gap_coeff']!r}, expected {coeff!r}")
        upper = oracle.gap_upper(row["p2"], row["p1s"])
        if not abs(row["gap_upper"] - upper) <= RATE_TOL:
            problems.append(f"{surface} row {i}: gap_upper {row['gap_upper']!r}, oracle {float(upper)!r}")
    return problems


# ---------------------------------------------------------------------------
# simulation records and summaries


def trial_seed(master: int, trial: int) -> int:
    """First 8 bytes (big-endian) of sha256 over ``"master:trial"``."""
    digest = hashlib.sha256(f"{master}:{trial}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def superior_counts(p: dict, b: int, seed: int) -> tuple[int, int]:
    """Superior-state block counts of a trial, drawn in the documented
    order: the main states first, then (independent fading only) the
    eavesdropper's, from a generator seeded by the trial seed."""
    rng = np.random.default_rng(seed)
    main = rng.random(b) < p["q1"]
    eve = main if p["coupling"] == "simultaneous" else rng.random(b) < p["q1s"]
    return int(main.sum()), int(eve.sum())


def wilson(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    phat = errors / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2.0 * trials)) / denom
    half = z / denom * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, centre - half), min(1.0, centre + half)


def bundle_bits(sizes: dict, scenario: str, coupling: str) -> tuple[int, int]:
    """Message and random bits per frame from the class sizes (scheme docs)."""
    b_main, b_eve = sizes["bec_info_main"], sizes["bec_info_eve"]
    info = b_main if coupling == "simultaneous" else b_eve
    extra = b_main - b_eve if scenario == "IND-WEAK" else 0
    t_cols = {"SIM-B": b_main, "IND-WEAK": b_eve}.get(scenario, 0)
    b = sizes["_b"]
    msg = (
        sizes["crossblock_secret"] * (b - info)
        + sizes["crossblock_message"] * b_main
        + b * sizes["perblock_message"]
        + sizes["crossblock_random"] * extra
    )
    rnd = sizes["crossblock_secret"] * info + b * sizes["block_random"] + sizes["crossblock_random"] * t_cols
    return msg, rnd


def _close(a, b, tol=1e-12) -> bool:
    return isinstance(a, float) and abs(a - b) <= tol * max(1.0, abs(b))


def check_round(p: dict, n: int, b: int, sizes: dict, master: int, trials: int, summary: dict, records: list,
                rate_oracle: dict) -> tuple[set, list[str]]:
    """Check one ``run_simulation`` call.

    ``summary`` is ``SummaryReport.to_dict()`` and ``records`` the
    ``TrialRecord.to_dict()`` list.  Returns the trial indices whose record
    failed and the problems found; a summary problem fails every trial.
    """
    bad, problems, summary_problems = set(), [], []
    for t, r in enumerate(records):
        why = []
        if r["trial"] != t:
            why.append(f"trial index {r['trial']}")
        seed = trial_seed(master, t)
        if r["seed"] != seed:
            why.append(f"seed {r['seed']} != sha256 seed {seed}")
        if (r["main_superior"], r["eve_superior"]) != superior_counts(p, b, seed):
            why.append(f"superior counts {(r['main_superior'], r['eve_superior'])} != "
                       f"redrawn {superior_counts(p, b, seed)}")
        if not isinstance(r["bob_ok"], bool) or not isinstance(r["eve_ok"], bool):
            why.append("outcome flags are not booleans")
        if r["bob_ok"] and r["bob_bit_errors"] != 0:
            why.append(f"bob_ok with {r['bob_bit_errors']} bit errors")
        if why:
            bad.add(t)
            problems.append(f"trial {t}: " + "; ".join(why))

    msg_bits, rnd_bits = bundle_bits(dict(summary["partition_sizes"], _b=b), summary["scenario"], p["coupling"])
    bob_err = sum(not r["bob_ok"] for r in records)
    eve_err = sum(not r["eve_ok"] for r in records)
    bit_err = sum(r["bob_bit_errors"] for r in records)
    fer_b, fer_e = bob_err / trials, eve_err / trials
    leak = fer_e * rnd_bits + entropy(fer_e)
    if len(records) != trials:
        summary_problems.append(f"{len(records)} records for {trials} trials")
    expect = {
        "trials": trials,
        "scenario": scenario_of(p),
        "partition_sizes": sizes,
        "message_bits": msg_bits,
        "random_bits": rnd_bits,
        "bob_frame_errors": bob_err,
        "eve_frame_errors": eve_err,
    }
    for key, want in expect.items():
        if summary[key] != want:
            summary_problems.append(f"summary {key} {summary[key]!r}, expected {want!r}")
    floats = {
        "designed_rate": msg_bits / (n * b),
        "bob_fer": fer_b,
        "eve_genie_fer": fer_e,
        "bob_bit_error_rate": bit_err / (msg_bits * trials) if msg_bits else 0.0,
        "leakage_bound_bits_total": leak,
        "leakage_bound_per_use": leak / (n * b),
    }
    for key, want in floats.items():
        if not _close(summary[key], want):
            summary_problems.append(f"summary {key} {summary[key]!r}, expected {want!r}")
    for key, errors in (("bob_fer_ci95", bob_err), ("eve_genie_fer_ci95", eve_err)):
        got, want = summary[key], wilson(errors, trials)
        if len(got) != 2 or not all(_close(g, w) for g, w in zip(got, want)):
            summary_problems.append(f"summary {key} {got!r}, Wilson interval {want!r}")
    summary_problems += check_report(summary["rate_bounds"], rate_oracle, "summary rate_bounds")
    if summary_problems:
        bad = set(range(trials))
    return bad, problems + summary_problems


def binom_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1))


def check_reliability(who: str, errors: int, frames: int) -> list[str]:
    """The run's frame errors must be consistent with a FER of at most FER_LIMIT."""
    tail = binom_tail(errors, frames, FER_LIMIT)
    if tail < FER_ALPHA:
        return [f"{who} FER {errors}/{frames} exceeds {FER_LIMIT} (binomial tail {tail:.2e})"]
    return []


# ---------------------------------------------------------------------------
# code construction


def check_partition(part: dict, n: int, b: int, scenario: str) -> list[str]:
    """The six classes partition [0, n); the cumulative good sets nest, so
    the layout's unused class is empty; the erasure-code information sets
    lie in [0, b) and nest as the scenario requires."""
    problems = []
    seen = np.zeros(n, dtype=np.int64)
    for name in CLASSES:
        idx = np.asarray(part[name])
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            problems.append(f"{name} has indices outside [0, {n})")
            continue
        if np.any(np.diff(idx) <= 0):
            problems.append(f"{name} is not sorted and duplicate-free")
        np.add.at(seen, idx, 1)
    if not np.all(seen == 1):
        problems.append(f"classes cover {int((seen > 0).sum())} of {n} positions, {int((seen > 1).sum())} twice")
    unused = "crossblock_random" if scenario in ("SIM-A", "IND-STRONG") else "perblock_message"
    if len(part[unused]):
        problems.append(f"{unused} must be empty in {scenario}")
    info = {}
    for name in ("bec_info_main", "bec_info_eve"):
        idx = np.asarray(part[name])
        if idx.size and (idx.min() < 0 or idx.max() >= b or np.any(np.diff(idx) <= 0)):
            problems.append(f"{name} is not a sorted subset of [0, {b})")
        info[name] = set(idx.tolist())
    if scenario in ("SIM-A", "SIM-B") and info["bec_info_main"] != info["bec_info_eve"]:
        problems.append("simultaneous fading needs one erasure information set")
    if scenario == "IND-WEAK" and not info["bec_info_eve"] <= info["bec_info_main"]:
        problems.append("bec_info_eve escapes bec_info_main")
    return problems


def expected_classes(z: dict, n: int, delta: float, scenario: str) -> dict:
    """Classes from genie-mc profiles of the four flip laws: good sets at
    ``delta / (2n)``, intersected down the reliability chain."""
    good = {k: np.asarray(v) <= delta / (2.0 * n) for k, v in z.items()}
    strong = scenario in ("SIM-A", "IND-STRONG")
    chain = ("p1", "p2", "p1s", "p2s") if strong else ("p1", "p1s", "p2", "p2s")
    for outer, inner in zip(chain, chain[1:]):
        good[inner] = good[inner] & good[outer]
    sets = [good[k] for k in reversed(chain)]  # most exclusive first
    diffs = [sets[0]] + [sets[i] & ~sets[i - 1] for i in range(1, 4)]
    names = (
        ("block_random", "crossblock_secret", "perblock_message", "crossblock_message")
        if strong
        else ("block_random", "crossblock_secret", "crossblock_random", "crossblock_message")
    )
    out = {name: np.nonzero(d)[0] for name, d in zip(names, diffs)}
    out["frozen"] = np.nonzero(~good["p1"])[0]
    for name in CLASSES:
        out.setdefault(name, np.empty(0, dtype=np.int64))
    return out


def polarize(z0: float, n: int) -> np.ndarray:
    """Erasure recursion ``z -> (2z - z^2, z^2)`` in decoder order."""
    z = np.array([z0])
    while z.size < n:
        z = np.stack([2.0 * z - z * z, z * z], axis=1).reshape(-1)
    return z


def binomial_slack(var: np.ndarray, trials: int, delta: float) -> np.ndarray:
    """Bernstein deviation of a mean of ``trials`` Bernoulli draws with
    variance at most ``var``, exceeded with probability at most ``delta``."""
    log_term = math.log(1.0 / delta)
    a = 2.0 * log_term / 3.0
    return (a + np.sqrt(a * a + 8.0 * trials * log_term * var)) / (2.0 * trials)


def flip_profile_slack(p: float, n: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Bhattacharyya bound from ``2 sqrt(p(1-p))`` and the slack above it."""
    bound = polarize(2.0 * math.sqrt(p * (1.0 - p)), n)
    m = np.minimum(bound, 0.5)
    return bound, binomial_slack(m * (1.0 - m), trials, SLACK_DELTA)


def check_flip_profile(z: np.ndarray, p: float, trials: int, what: str) -> list[str]:
    """A genie-mc error estimate cannot exceed the Bhattacharyya bound of
    its synthetic channel by more than the binomial slack."""
    z = np.asarray(z)
    bound, slack = flip_profile_slack(p, z.size, trials)
    over = z > bound + slack
    if over.any():
        i = int(np.argmax(z - bound - slack))
        return [f"{what}: {int(over.sum())} estimates above the Bhattacharyya bound, "
                f"worst index {i}: {z[i]:.5f} > {bound[i]:.5f} + {slack[i]:.5f}"]
    return []


def check_erasure_profile(z: np.ndarray, q: float, trials: int, what: str) -> list[str]:
    """A genie-mc erasure profile must match the exact erasure recursion
    within the two-sided binomial slack."""
    z = np.asarray(z)
    exact = polarize(q, z.size)
    slack = binomial_slack(exact * (1.0 - exact), trials, SLACK_DELTA / 2.0)
    off = np.abs(z - exact) > slack
    if off.any():
        i = int(np.argmax(np.abs(z - exact) - slack))
        return [f"{what}: {int(off.sum())} estimates off the exact recursion, "
                f"worst index {i}: {z[i]:.5f} vs {exact[i]:.5f} +- {slack[i]:.5f}"]
    return []


# ---------------------------------------------------------------------------
# reference successive cancellation


def bit_reversal(n: int) -> np.ndarray:
    k = n.bit_length() - 1
    return np.array([int(format(i, f"0{k}b")[::-1], 2) if k else 0 for i in range(n)])


def boxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact check-node update in log form; 0 and +-inf follow the certainty
    algebra (an erasure absorbs, a certainty passes the other input)."""
    mag_a, mag_b = np.abs(a), np.abs(b)
    with np.errstate(invalid="ignore"):
        d = np.abs(mag_a - mag_b)
    d[np.isnan(d)] = 0.0  # inf - inf: equal certainties
    mag = np.minimum(mag_a, mag_b) + np.log1p(np.exp(-(mag_a + mag_b))) - np.log1p(np.exp(-d))
    return np.sign(a) * np.sign(b) * mag


def combine(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Variable-node update; conflicting certainties give an erasure."""
    with np.errstate(invalid="ignore"):
        out = b + (1.0 - 2.0 * u) * a
    out[np.isnan(out)] = 0.0
    return out


def reference_sc(llr: np.ndarray, frozen_mask: np.ndarray, frozen_values: np.ndarray, erasure_law: bool):
    """Plain SC recursion: decisions in decoder order, ties decide 1, an
    unfrozen zero LLR under an erasure law flags the row ambiguous.
    Returns (decisions, ambiguous, near_tie) with near_tie marking rows
    that met an unfrozen leaf with |LLR| <= NEAR_TIE under a flip law."""
    rows, n = llr.shape
    decisions = np.zeros((rows, n), dtype=np.uint8)
    ambiguous = np.zeros(rows, dtype=bool)
    near_tie = np.zeros(rows, dtype=bool)

    def descend(seg: np.ndarray, lo: int) -> np.ndarray:
        if seg.shape[1] == 1:
            leaf = seg[:, 0]
            if frozen_mask[lo]:
                u = frozen_values[:, lo]
            else:
                u = (leaf <= 0.0).astype(np.uint8)
                if erasure_law:
                    ambiguous[:] |= leaf == 0.0
                else:
                    near_tie[:] |= np.abs(leaf) <= NEAR_TIE
            decisions[:, lo] = u
            return u[:, None]
        half = seg.shape[1] // 2
        a, b = seg[:, :half], seg[:, half:]
        left = descend(boxplus(a, b), lo)
        right = descend(combine(a, b, left), lo + half)
        return np.concatenate([left ^ right, right], axis=1)

    descend(llr[:, bit_reversal(n)], 0)
    return decisions, ambiguous, near_tie


def compare_sc(samples: list[dict]) -> tuple[dict, set, list[str]]:
    """Compare captured ``sc_decode_batch`` rows with the reference.

    Each sample holds ``llr``, ``frozen_mask``, ``frozen_values`` (one row
    per llr row), ``erasure_law``, the program's ``decisions`` and
    ``ambiguous``, and the ``frame`` key it belongs to.  Rows sharing a
    frozen mask and law are decoded together.  Returns counts, the frame
    keys with a mismatching row and the problems.
    """
    groups: dict = {}
    for s in samples:
        groups.setdefault((s["erasure_law"], s["frozen_mask"].tobytes()), []).append(s)
    counts = {"rows": 0, "compared": 0, "near_tie": 0, "mismatch": 0}
    bad, problems = set(), []
    for (erasure_law, _), group in groups.items():
        cat = lambda key: np.concatenate([s[key] for s in group])  # noqa: E731
        frames = [s["frame"] for s in group for _ in range(len(s["llr"]))]
        dec, amb, tie = reference_sc(cat("llr"), group[0]["frozen_mask"], cat("frozen_values"), erasure_law)
        diff = (dec != cat("decisions")).any(axis=1) | (amb != cat("ambiguous"))
        diff &= ~tie
        counts["rows"] += len(frames)
        counts["near_tie"] += int(tie.sum())
        counts["compared"] += int((~tie).sum())
        counts["mismatch"] += int(diff.sum())
        bad.update(frames[i] for i in np.nonzero(diff)[0])
        if diff.any():
            problems.append(f"sc_decode_batch (erasure_law={erasure_law}) differs from the reference "
                            f"on {int(diff.sum())} of {len(frames)} rows")
    return counts, bad, problems
