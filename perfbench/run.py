"""Benchmark of hierpolar: simulation, genie-aided construction, closed forms.

Run from the repository root:

    python3 perfbench/run.py --workload fixture-n1024 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records the machine, the versions and
the run's details; the same record, with the spans of a traced run, is
written to ``.perfbench-runs/``.  The program is imported from ``src/``
of the same checkout and runs in this one process, with numpy's thread
pools held to one thread.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
CAL_EVERY = 0.25  # seconds of program time between calibration kernels
SPANS_WRITTEN = 50_000  # a traced run writes its first spans, and the count of all


def fresh_import():
    """Import hierpolar anew (numpy stays loaded); returns it and the seconds taken."""
    for name in [m for m in sys.modules if m == "hierpolar" or m.startswith("hierpolar.")]:
        del sys.modules[name]
    start = perf_counter()
    hp = importlib.import_module("hierpolar")
    return hp, perf_counter() - start


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def kernel_s(kernel) -> float:
    start = perf_counter()
    kernel.run()
    return perf_counter() - start


def reference_s(seconds: float, kernel, before: float, after: float) -> float:
    """``seconds`` of program time in reference seconds, given the kernel's
    times just before and just after them."""
    return seconds * kernel.reference_s / ((before + after) / 2)


def run_pass(wl, hp, st, k0: int, seconds: float, call) -> tuple[list, float]:
    """Whole rounds from round ``k0``, at least one, until their program
    time reaches ``seconds``.  Returns the rounds and their program time in
    reference seconds: each stretch of at least CAL_EVERY seconds between
    two runs of the workload's kernel is scaled by the kernel's reference
    time over its mean time at both ends."""
    rounds, busy, stretch, reference = [], 0.0, 0.0, 0.0
    before = kernel_s(wl.kernel)
    while True:
        r = wl.round(hp, st, k0 + len(rounds), call)
        rounds.append(r)
        busy += r.busy
        stretch += r.busy
        if stretch >= CAL_EVERY or busy >= seconds:
            after = kernel_s(wl.kernel)
            reference += reference_s(stretch, wl.kernel, before, after)
            before, stretch = after, 0.0
        if busy >= seconds:
            return rounds, reference


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "hierpolar" / "__init__.py").is_file():
        print(f"perfbench: no hierpolar sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import hierpolar  # noqa: F401  (first import, numpy included)

    first_import_s = perf_counter() - start
    if Path(hierpolar.__file__).resolve().parent != SRC / "hierpolar":
        print(f"perfbench: imported hierpolar from {hierpolar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    st = wl.inputs(args.seed)

    setups, setups_reference = [], []
    scalar = workloads.scalar_kernel()
    before = kernel_s(scalar)
    for _ in range(SETUP_REPEATS):
        hp, import_s = fresh_import()
        start = perf_counter()
        wl.setup(hp, st)
        setups.append(import_s + perf_counter() - start)
        after = kernel_s(scalar)
        setups_reference.append(reference_s(setups[-1], scalar, before, after))
        before = after

    detail = {"first_import_s": first_import_s, "setup_samples_s": setups}
    run_problems = []
    if not args.trace:
        warm_up = wl.round(hp, st, 0, workloads.direct)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rest, rest_s = run_pass(wl, hp, st, 1, args.seconds, workloads.direct)
        rounds = [warm_up] + rest
        busy = sum(r.busy for r in rest)
        ops = sum(r.ops for r in rest)
        values = {
            "ops_per_ref_s": ops / rest_s,
            "setup_s": statistics.median(setups_reference),
            "peak_rss_mb": peak_mb,
        }
        detail.update(ops_per_s=ops / busy, ref_s_per_s=rest_s / busy)
        spans = None
    else:
        plain, plain_s = run_pass(wl, hp, st, 0, args.seconds / 2, workloads.direct)
        tracer = tracing.Tracer()
        tracing.standard_hooks(tracer)
        wl.hooks(tracer, st)
        restore = tracer.install(hp)
        try:
            wl.trace_prelude(hp, st, tracer.call)
            traced, traced_s = run_pass(wl, hp, st, len(plain), args.seconds / 2, tracer.call)
        finally:
            restore()
        rounds = plain + traced
        probe = tracing.Tracer()
        tracing.standard_hooks(probe)
        restore = probe.install(hp)
        try:
            run_problems += workloads.census(hp, probe.call)
        finally:
            restore()
        values = tracing.layer_metrics(tracer)
        stand_in = tracing.layer_metrics(probe)
        detail["census_metrics"] = sorted(k for k, v in values.items() if v is None)
        values = {k: stand_in[k] if v is None else v for k, v in values.items()}
        per_op = lambda ref_s, rs: ref_s / sum(r.ops for r in rs)  # noqa: E731
        values["trace.overhead_pct"] = 100.0 * (per_op(traced_s, traced) / per_op(plain_s, plain) - 1.0)
        spans = tracer.dump(SPANS_WRITTEN)

    verdict = wl.check(st, rounds, checks.Oracle())
    run_problems += wl.kernel_check(hp, st) + verdict.run_problems
    detail.update(verdict.detail, rounds=len(rounds), busy_s=sum(r.busy for r in rounds))

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec[kind]}
    result = {
        "correct": not run_problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": len(verdict.failed),
        "metrics": metrics,
    }
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hierpolar": hp.__version__,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
    }
    problems = run_problems + verdict.op_problems
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "detail": detail, "problems": problems, "result": result}
    out_dir = ROOT / ".perfbench-runs"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}.seed{args.seed}.trace{args.trace}.json", "w") as fh:
        json.dump(dict(record, spans=spans), fh, separators=(",", ":"))
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
