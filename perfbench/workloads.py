"""The benchmark's workloads: inputs from the seed, program set-up, timed
rounds, and the checks on what the rounds returned.

A workload runs whole rounds of the same operations until its measured
time reaches the run length.  Only the program calls are timed; turning
outputs into plain data and checking them happen between the timed spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks

DELTA = 0.25
FIXTURE = {"p1": 0.02, "p2": 0.05, "p1s": 0.11, "p2s": 0.15, "q1": 0.5}
WEAK = {"p1": 0.02, "p2": 0.11, "p1s": 0.05, "p2s": 0.15, "q1": 0.6, "q1s": 0.4, "coupling": "independent"}
BEC_FIELDS = ("bec_info_main", "bec_info_eve")


@dataclass
class Round:
    k: int
    ops: int
    busy: float  # seconds spent inside program calls
    out: dict


@dataclass
class Verdict:
    """Failed operation keys, problems that fail only those operations, and
    run-level problems that make the run incorrect."""

    failed: set = field(default_factory=set)
    op_problems: list = field(default_factory=list)
    run_problems: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# Calibration kernels: fixed work done by the benchmark's own code, of the
# same kind as a workload's, timed between rounds.  The host's CPU speed
# drifts by a factor of about 1.6 over seconds to minutes; dividing program
# time by the kernel's time at that moment, times its time on the reference
# machine (a 2-vCPU VM in its fast state), removes the drift from the
# end-to-end figures.  No change to hierpolar can move a kernel.


@dataclass(frozen=True)
class Kernel:
    run: object  # zero-argument callable
    reference_s: float


def sc_kernel(rows: int, n: int, reference_s: float) -> Kernel:
    """The reference SC on fixed LLRs: numpy on (rows, n) arrays under a
    Python recursion, like the program's decoders."""
    rng = np.random.default_rng(0)
    llr = rng.normal(3.0, 2.0, (rows, n))
    mask = rng.random(n) < 0.5
    values = np.zeros((rows, n), dtype=np.uint8)
    return Kernel(lambda: checks.reference_sc(llr, mask, values, False), reference_s)


def scalar_kernel(calls: int = 20000, reference_s: float = 0.0080) -> Kernel:
    """Scalar Python arithmetic: the benchmark's own binary entropy."""
    return Kernel(lambda: sum(checks.entropy((i + 1) / (calls + 2)) for i in range(calls)), reference_s)


def numpy_scalar_kernel(calls: int = 800, reference_s: float = 0.0071) -> Kernel:
    """Binary entropy through numpy on 0-d arrays, like the closed forms."""

    def run() -> float:
        total = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(calls):
                a = np.asarray((i + 1) / (calls + 2))
                h = -a * np.log2(a) - (1.0 - a) * np.log2(1.0 - a)
                total += float(np.where((a == 0.0) | (a == 1.0), 0.0, h))
        return total

    return Kernel(run, reference_s)


class Workload:
    """Steps a workload may leave out.  Each workload sets ``kernel``, the
    calibration kernel timed between its rounds."""

    kernel: Kernel

    def setup(self, hp, st: dict) -> None:
        """Program work that has to happen before the first round."""

    def trace_prelude(self, hp, st: dict, call) -> None:
        """Calls made once under tracing, before the traced rounds."""

    def hooks(self, tracer, st: dict) -> None:
        """Span hooks that keep what the checks of a traced run need."""

    def kernel_check(self, hp, st: dict) -> list[str]:
        """Checks that draw their own outputs after the rounds."""
        return []


class Simulate(Workload):
    """``run_simulation`` rounds of FRAMES frames on a code built in set-up;
    each round gets its own master seed, derived from the run's seed."""

    FRAMES = 4
    REFERENCE_FRAMES = 16  # traced frames whose SC calls the reference decoder replays
    kernel = sc_kernel(16, 256, reference_s=0.0077)

    def __init__(self, params: dict, n: int, b: int, hold_eve: bool) -> None:
        self.params, self.n, self.b, self.hold_eve = params, n, b, hold_eve

    def inputs(self, seed: int) -> dict:
        return {"seed": seed, "samples": [], "frame": -1}

    def setup(self, hp, st: dict) -> None:
        st["params"] = hp.WiretapParams(**self.params)
        st["code"] = hp.build_code(st["params"], self.n, self.b, DELTA)

    def round(self, hp, st: dict, k: int, call) -> Round:
        master = st["seed"] * 1_000_000 + k
        config = hp.SimConfig(params=st["params"], n=self.n, b=self.b, trials=self.FRAMES, seed=master, delta=DELTA)
        st["round"], st["trial"] = k, -1
        start = perf_counter()
        try:
            summary, records = call("sim.run_simulation", hp.run_simulation, config, code=st["code"])
        except Exception as exc:  # a raising operation is a failed one
            return Round(k, self.FRAMES, perf_counter() - start, {"error": repr(exc)})
        busy = perf_counter() - start
        return Round(k, self.FRAMES, busy, {"master": master, "summary": summary.to_dict(),
                                            "records": [r.to_dict() for r in records]})

    def trace_prelude(self, hp, st: dict, call) -> None:
        for _ in range(5):
            call("scheme.build_code", hp.build_code, st["params"], self.n, self.b, DELTA)

    def hooks(self, tracer, st: dict) -> None:
        """Count frames by their fading draw; keep the inputs and outputs of
        the first traced frames' SC calls for the reference decoder."""

        def fading(args, out):
            st["frame"] += 1
            st["trial"] += 1

        def sample(args, out):
            if st["frame"] >= self.REFERENCE_FRAMES:
                return
            llr = np.array(args["llr"], dtype=np.float64)
            st["samples"].append({
                "frame": (st["round"], st["trial"]),
                "llr": llr,
                "frozen_mask": np.array(args["frozen_mask"], dtype=bool),
                "frozen_values": np.broadcast_to(np.asarray(args["frozen_values"], dtype=np.uint8), llr.shape).copy(),
                "erasure_law": bool(args["erasure_law"]),
                "decisions": out[0].copy(),
                "ambiguous": out[1].copy(),
            })

        tracer.on("channels.sample_fading", fading)
        tracer.on("polar.sc_decode_batch", sample)

    def check(self, st: dict, rounds: list, oracle) -> Verdict:
        v = Verdict()
        p = checks.param_dict(st["params"])
        part = st["code"].partition
        sizes = part.sizes()
        v.run_problems += checks.check_partition(
            {name: getattr(part, name) for name in checks.CLASSES + BEC_FIELDS}, self.n, self.b, checks.scenario_of(p))
        rate = oracle.report(p)
        frames = bob = eve = 0
        for r in rounds:
            if "error" in r.out:
                v.failed |= {(r.k, t) for t in range(r.ops)}
                v.op_problems.append(f"round {r.k} raised {r.out['error']}")
                continue
            bad, problems = checks.check_round(p, self.n, self.b, sizes, r.out["master"], self.FRAMES,
                                               r.out["summary"], r.out["records"], rate)
            v.failed |= {(r.k, t) for t in bad}
            v.op_problems += [f"round {r.k}: {m}" for m in problems]
            frames += len(r.out["records"])
            bob += sum(not rec["bob_ok"] for rec in r.out["records"])
            eve += sum(not rec["eve_ok"] for rec in r.out["records"])
        v.run_problems += checks.check_reliability("Bob", bob, frames)
        if self.hold_eve:
            v.run_problems += checks.check_reliability("eavesdropper", eve, frames)
        v.detail.update(frames=frames, bob_frame_errors=bob, eve_frame_errors=eve)
        if st["samples"]:
            counts, bad, problems = checks.compare_sc(st["samples"])
            v.failed |= bad
            v.op_problems += problems
            v.detail["reference_sc_rows"] = counts
        return v


class GenieConstruct(Workload):
    """Genie-aided Monte Carlo constructions at the fixture point, each
    with its own generator seeded from the run's seed and the round."""

    N, B, TRIALS = 1024, 128, 2048
    ERASURE_TRIALS = 4096
    kernel = sc_kernel(512, 512, reference_s=0.055)

    def inputs(self, seed: int) -> dict:
        return {"seed": seed, "profiles": []}

    def setup(self, hp, st: dict) -> None:
        st["params"] = hp.WiretapParams(**FIXTURE)

    def round(self, hp, st: dict, k: int, call) -> Round:
        rng = np.random.default_rng([st["seed"], k])
        st["profiles"] = []
        start = perf_counter()
        try:
            code = call("scheme.build_code", hp.build_code, st["params"], self.N, self.B, DELTA, "genie-mc", rng=rng)
        except Exception as exc:
            return Round(k, 1, perf_counter() - start, {"error": repr(exc)})
        busy = perf_counter() - start
        part = {name: getattr(code.partition, name) for name in checks.CLASSES + BEC_FIELDS}
        return Round(k, 1, busy, {"partition": part, "profiles": st["profiles"]})

    def hooks(self, tracer, st: dict) -> None:
        def keep(args, out):
            if args["method"] == "genie-mc" and args["law"].kind == "bsc":
                st["profiles"].append((float(args["law"].param), out.z.copy(), int(args["trials"])))

        tracer.on("polar.reliability_profile", keep)

    def check(self, st: dict, rounds: list, oracle) -> Verdict:
        v = Verdict()
        p = checks.param_dict(st["params"])
        tag = checks.scenario_of(p)
        for r in rounds:
            if "error" in r.out:
                v.failed.add(r.k)
                v.op_problems.append(f"construction {r.k} raised {r.out['error']}")
                continue
            problems = checks.check_partition(r.out["partition"], self.N, self.B, tag)
            if r.out["profiles"]:  # traced: the estimates this construction used
                z = {}
                for law, est, trials in r.out["profiles"]:
                    name = next(k for k in ("p1", "p2", "p1s", "p2s") if p[k] == law)
                    z[name] = est
                    problems += checks.check_flip_profile(est, law, trials, f"genie profile of bsc({law})")
                want = checks.expected_classes(z, self.N, DELTA, tag)
                problems += [f"{name} differs from the good sets of the genie profiles"
                             for name in checks.CLASSES if not np.array_equal(want[name], r.out["partition"][name])]
            if problems:
                v.failed.add(r.k)
                v.op_problems += [f"construction {r.k}: {m}" for m in problems]
        return v

    def kernel_check(self, hp, st: dict) -> list[str]:
        """Genie-mc profiles drawn apart from the constructions: each flip
        law under its Bhattacharyya bound, and an erasure law against the
        exact erasure recursion, at Z0 of one of the four flip laws."""
        rng = np.random.default_rng([st["seed"], 1 << 40])
        problems = []
        laws = [st["params"].p1, st["params"].p2, st["params"].p1s, st["params"].p2s]
        for law in laws:
            z = hp.reliability_profile(hp.bsc(law), self.N, "genie-mc", trials=self.TRIALS, rng=rng).z
            problems += checks.check_flip_profile(z, law, self.TRIALS, f"genie profile of bsc({law})")
        p = laws[st["seed"] % 4]
        q = 2.0 * (p * (1.0 - p)) ** 0.5
        z = hp.reliability_profile(hp.bec(q), self.N, "genie-mc", trials=self.ERASURE_TRIALS, rng=rng).z
        problems += checks.check_erasure_profile(z, q, self.ERASURE_TRIALS, f"genie profile of bec({q:.4f})")
        return problems


class ClosedForm(Workload):
    """Rounds of ``rate_report`` over a seeded mix of parameter sets (five
    scenario kinds, PER_KIND each) plus one sweep of each gap surface."""

    PER_KIND = 12
    STEPS = 16
    kernel = numpy_scalar_kernel()
    KINDS = ("SIM-A", "SIM-B", "IND-STRONG", "IND-WEAK", "UNSUPPORTED")

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        mix = []
        for kind in self.KINDS:
            for i in range(self.PER_KIND):
                a, b, c, d = (float(x) for x in np.sort(rng.uniform(0.0, 0.5, 4)))
                if i == 0:
                    a, d = 0.0, 0.5  # entropy at both ends of its domain
                strong = kind in ("SIM-A", "IND-STRONG")
                kw = {"p1": a, "p2": b, "p1s": c, "p2s": d} if strong else {"p1": a, "p1s": b, "p2": c, "p2s": d}
                lo, hi = (float(x) for x in np.sort(rng.uniform(0.0, 1.0, 2)))
                if kind.startswith("SIM"):
                    kw.update(q1=lo, coupling="simultaneous")
                else:
                    q1, q1s = {"IND-STRONG": (lo, hi), "IND-WEAK": (hi, lo), "UNSUPPORTED": (lo, hi)}[kind]
                    kw.update(q1=q1, q1s=q1s, coupling="independent")
                mix.append(kw)
        p1s, p2 = (float(x) for x in np.sort(rng.uniform(0.0, 0.5, 2)))
        q1s, q1 = (float(x) for x in np.sort(rng.uniform(0.0, 1.0, 2)))
        sweeps = [("gap-coeff", {"p2": p2, "p1s": p1s}), ("gap-upper", {"q1": q1, "q1s": q1s})]
        return {"mix": mix, "sweeps": sweeps, "first": None}

    def round(self, hp, st: dict, k: int, call) -> Round:
        busy, outs = 0.0, []
        for kw in st["mix"]:
            start = perf_counter()
            try:
                out = call("rates.rate_report", hp.rate_report, hp.WiretapParams(**kw))
            except Exception as exc:
                out = exc
            busy += perf_counter() - start
            outs.append(out)
        for surface, const in st["sweeps"]:
            start = perf_counter()
            try:
                out = call("rates.sweep_gap_surface", hp.sweep_gap_surface, surface, self.STEPS, **const)
            except Exception as exc:
                out = exc
            busy += perf_counter() - start
            outs.append(out)
        if st["first"] is None:
            st["first"] = outs
            return Round(k, len(outs), busy, {"differs": []})
        differs = [i for i, (a, b) in enumerate(zip(outs, st["first"])) if isinstance(a, Exception) or a != b]
        return Round(k, len(outs), busy, {"differs": differs})

    def check(self, st: dict, rounds: list, oracle) -> Verdict:
        """The first round is checked against the oracle; every later round
        must return what the first returned."""
        v = Verdict()
        wrong = set()
        for i, (kw, out) in enumerate(zip(st["mix"], st["first"])):
            p = dict(kw, q1s=kw.get("q1s", kw["q1"]))
            problems = (
                [f"raised {out!r}"] if isinstance(out, Exception)
                else checks.check_report(out.to_dict(), oracle.report(p), f"rate_report({kw})")
            )
            if problems:
                wrong.add(i)
                v.op_problems += problems
        for j, (surface, const) in enumerate(st["sweeps"], start=len(st["mix"])):
            out = st["first"][j]
            problems = (
                [f"{surface} raised {out!r}"] if isinstance(out, Exception)
                else checks.check_sweep(surface, self.STEPS, const, out, oracle)
            )
            if problems:
                wrong.add(j)
                v.op_problems += problems
        for r in rounds:
            bad = wrong | set(r.out["differs"])
            v.failed |= {(r.k, i) for i in bad}
            if r.out["differs"]:
                v.op_problems.append(f"round {r.k}: outputs {r.out['differs']} differ from the first round")
        return v


WORKLOADS = {
    "fixture-n1024": Simulate(FIXTURE, 1024, 128, hold_eve=True),
    "weak-wide-n64-b1024": Simulate(WEAK, 64, 1024, hold_eve=False),
    "genie-construct-n1024": GenieConstruct(),
    "closed-form": ClosedForm(),
}


def census(hp, call) -> list[str]:
    """A small fixed pass through every traced layer.  Its spans stand in
    for the per-layer metrics of layers a workload never reaches; its
    outputs are checked like the workloads'."""
    sim = Simulate(FIXTURE, 256, 32, hold_eve=False)
    st = sim.inputs(0)
    st["params"] = hp.WiretapParams(**FIXTURE)
    for _ in range(3):
        st["code"] = call("scheme.build_code", hp.build_code, st["params"], sim.n, sim.b, DELTA)
    rounds = [sim.round(hp, st, 0, call)]
    call("scheme.build_code", hp.build_code, st["params"], sim.n, sim.b, DELTA, "genie-mc",
         construction_trials=256, rng=np.random.default_rng(0))
    rows = call("rates.sweep_gap_surface", hp.sweep_gap_surface, "gap-upper", 8)
    oracle = checks.Oracle()
    v = sim.check(st, rounds, oracle)
    return v.run_problems + v.op_problems + checks.check_sweep(
        "gap-upper", 8, {"q1": 0.5, "q1s": 0.5}, rows, oracle)
