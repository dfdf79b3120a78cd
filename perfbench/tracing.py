"""Spans around hierpolar's layer functions, for the traced benchmark run.

``Tracer.install`` replaces every public function of ``channels``,
``scheme``, ``polar`` and ``rates`` at the module attributes through which
``sim``, ``scheme`` and ``rates`` call it, so ``run_simulation`` runs
unchanged while each call it makes into a layer opens a span.  The
benchmark opens the root spans itself around the public calls it makes.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import statistics
from array import array
from time import perf_counter

LAYERS = ("channels", "scheme", "polar", "rates")
CALLERS = ("sim", "scheme", "rates")


class Tracer:
    """Spans in columns: parent index, name id, start and end seconds, and
    attributes for the spans whose name has hooks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("l")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._hooks: dict = {}

    def on(self, name: str, hook) -> None:
        """Call ``hook(arguments, result)`` after each ``name`` span; the
        dicts the hooks return make the span's attributes."""
        self._hooks.setdefault(name, []).append(hook)

    def wrap(self, name: str, fn):
        stack, attrs = self._stack, self.attrs
        parent, names, start, end = self.parent, self.name, self.start, self.end
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        hooks = self._hooks.get(name, [])
        signature = inspect.signature(fn) if hooks else None

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hooks:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs[i] = {}
                for hook in hooks:
                    attrs[i].update(hook(bound.arguments, out) or {})
            return out

        return traced

    def dump(self, limit: int) -> dict:
        """The first ``limit`` spans as JSON-ready columns."""
        return {
            "names": self.names,
            "count": len(self.start),
            "parent": self.parent[:limit].tolist(),
            "name": self.name[:limit].tolist(),
            "start": self.start[:limit].tolist(),
            "end": self.end[:limit].tolist(),
            "attrs": {i: a for i, a in self.attrs.items() if i < limit},
        }

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, hp):
        """Wrap the layer functions in the caller modules of package ``hp``;
        returns a function that puts the originals back."""
        undo = []
        for caller in CALLERS:
            module = getattr(hp, caller)
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer in LAYERS and attr in getattr(hp, layer).__all__:
                    undo.append((module, attr, obj))
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", obj))

        def restore() -> None:
            for module, attr, obj in undo:
                setattr(module, attr, obj)

        return restore


def _stats(t: Tracer) -> dict:
    """Per span name: calls, total and self seconds, and (seconds, attrs)
    of each call that has attributes."""
    child = [0.0] * len(t.start)
    for i, p in enumerate(t.parent):
        if p >= 0:
            child[p] += t.end[i] - t.start[i]
    out: dict = {}
    for i, name_id in enumerate(t.name):
        s = out.setdefault(t.names[name_id], {"calls": 0, "total": 0.0, "self": 0.0, "attrs": []})
        dt = t.end[i] - t.start[i]
        s["calls"] += 1
        s["total"] += dt
        s["self"] += dt - child[i]
        if i in t.attrs:  # absent when the call raised
            s["attrs"].append((dt, t.attrs[i]))
    return out


def _ratio(num: float, den: float):
    return num / den if den else None


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass; ``None`` where the pass never
    reached the spans a metric needs."""
    st = _stats(tracer)
    get = lambda name: st.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "attrs": []})  # noqa: E731
    frames = sum(a["frames"] for _, a in get("sim.run_simulation")["attrs"])
    per_frame = lambda seconds: _ratio(1e3 * seconds, frames)  # noqa: E731

    sc = {True: [0, 0.0, 0], False: [0, 0.0, 0]}  # erasure_law -> calls, seconds, rows
    for dt, a in get("polar.sc_decode_batch")["attrs"]:
        acc = sc[a["erasure"]]
        acc[0] += 1
        acc[1] += dt
        acc[2] += a["rows"]
    sc_calls = sc[True][0] + sc[False][0]
    builds = [dt for dt, a in get("scheme.build_code")["attrs"] if a["construction"] == "bhattacharyya-bound"]
    genie = [(dt, a["trials"]) for dt, a in get("polar.reliability_profile")["attrs"] if a["method"] == "genie-mc"]
    sweep = get("rates.sweep_gap_surface")
    entropy, report = get("rates.binary_entropy"), get("rates.rate_report")
    transform = get("polar.polar_transform")["total"] + get("polar.polar_transform_inverse")["total"]

    metrics = {
        "sim.self_ms": per_frame(get("sim.run_simulation")["self"]),
        "channels.transmit_ms": per_frame(get("channels.transmit")["total"]),
        "channels.transmit_calls": _ratio(get("channels.transmit")["calls"], frames),
        "scheme.encode_ms": per_frame(get("scheme.encode")["total"]),
        "scheme.bob_self_ms": per_frame(get("scheme.bob_decode")["self"]),
        "scheme.eve_self_ms": per_frame(get("scheme.eve_genie_decode")["self"]),
        "scheme.build_ms": 1e3 * statistics.median(builds) if builds else None,
        "polar.sc_block_ms": per_frame(sc[False][1]),
        "polar.sc_block_us_per_row": _ratio(1e6 * sc[False][1], sc[False][2]),
        "polar.sc_erasure_ms": per_frame(sc[True][1]),
        "polar.sc_erasure_us_per_row": _ratio(1e6 * sc[True][1], sc[True][2]),
        "polar.sc_calls": _ratio(sc_calls, frames),
        "polar.sc_rows_per_call": _ratio(sc[True][2] + sc[False][2], sc_calls),
        "polar.transform_ms": per_frame(transform),
        "polar.genie_us_per_row": _ratio(1e6 * sum(dt for dt, _ in genie), sum(t for _, t in genie)),
        "rates.binary_entropy_us": _ratio(1e6 * entropy["total"], entropy["calls"]),
        "rates.rate_report_us": _ratio(1e6 * report["total"], report["calls"]),
        "rates.sweep_us_per_row": _ratio(1e6 * sweep["total"], sum(a["rows"] for _, a in sweep["attrs"])),
    }
    return metrics


def standard_hooks(tracer: Tracer) -> None:
    """Attributes the per-layer metrics read."""
    tracer.on("sim.run_simulation", lambda a, out: {"frames": a["config"].trials})
    tracer.on("scheme.build_code", lambda a, out: {"construction": a["construction"]})
    tracer.on("rates.sweep_gap_surface", lambda a, out: {"rows": len(out)})
    tracer.on("polar.reliability_profile", lambda a, out: {"method": a["method"], "trials": a["trials"]})
    tracer.on(
        "polar.sc_decode_batch",
        lambda a, out: {"rows": len(a["llr"]), "erasure": bool(a["erasure_law"])},
    )
