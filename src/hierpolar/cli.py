"""Command line front end.

Subcommands
-----------
rates        closed-form secrecy-rate bounds for a channel configuration
construct    build a code and report its index partition and designed rate
simulate     Monte Carlo frame transmissions with both decoders
sweep        gap-coefficient / gap-bound surfaces as CSV
toy-leakage  exact leakage of the enumerable toy codes

Channel parameters may come from ``--config`` (a flat ``key = value`` file)
with individual flags taking precedence.  Exit codes: 0 success, 1 usage or
configuration error, 2 unsupported channel scenario.
"""

from __future__ import annotations

import argparse
import json
import sys

from .channels import UnsupportedScenarioError, WiretapParams
from .rates import SWEEP_FIELDS, rate_report, sweep_gap_surface
from .scheme import (
    ConstructionInfeasibleError,
    build_code,
    designed_rate,
    target_fractions,
    total_message_bits,
    total_random_bits,
)
from .sim import TRIAL_FORMATS, SimConfig, exact_leakage_toy, run_simulation, toy_code, write_trials

__all__ = ["cli_dispatch", "main"]

_CONFIG_KEYS = {
    "p1": float,
    "p2": float,
    "p1s": float,
    "p2s": float,
    "q1": float,
    "q1s": float,
    "coupling": str,
    "n": int,
    "b": int,
    "delta": float,
    "construction": str,
    "construction_trials": int,
    "trials": int,
    "seed": int,
    "format": str,
    "surface": str,
    "steps": int,
    "variant": str,
}


class CliError(Exception):
    """Bad usage or configuration detected after argument parsing."""


def _load_config(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _CONFIG_KEYS:
                raise CliError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](val)
            except ValueError:
                raise CliError(f"{path}:{lineno}: bad value for {key!r}: {val!r}") from None
    return values


def _pick(args: argparse.Namespace, cfg: dict, key: str, default=None):
    # precedence: explicit flag, then config file, then built-in default
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _require(value, flag: str):
    if value is None:
        raise CliError(f"missing required parameter {flag} (flag or config file)")
    return value


def _params_from(args: argparse.Namespace, cfg: dict) -> WiretapParams:
    coupling = _pick(args, cfg, "coupling", "simultaneous")
    q1s = _pick(args, cfg, "q1s")
    return WiretapParams(
        p1=_require(_pick(args, cfg, "p1"), "--p1"),
        p2=_require(_pick(args, cfg, "p2"), "--p2"),
        p1s=_require(_pick(args, cfg, "p1s"), "--p1s"),
        p2s=_require(_pick(args, cfg, "p2s"), "--p2s"),
        q1=_require(_pick(args, cfg, "q1"), "--q1"),
        q1s=q1s,
        coupling=coupling,
    )


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p1", type=float, help="main-channel flip rate, superior state")
    p.add_argument("--p2", type=float, help="main-channel flip rate, degraded state")
    p.add_argument("--p1s", type=float, help="eavesdropper flip rate, superior state")
    p.add_argument("--p2s", type=float, help="eavesdropper flip rate, degraded state")
    p.add_argument("--q1", type=float, help="probability a main-channel block is superior")
    p.add_argument("--q1s", type=float, help="eavesdropper superior-state probability (independent coupling)")
    p.add_argument(
        "--coupling",
        choices=("simultaneous", "independent"),
        help="fading coupling between the two channels (default simultaneous)",
    )


def _add_code_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="per-block code length (power of two)")
    p.add_argument("--b", type=int, help="blocks per frame (power of two)")
    p.add_argument("--delta", type=float, help="construction margin in (0,1), default 0.25")
    p.add_argument(
        "--construction",
        choices=("bhattacharyya-bound", "genie-mc"),
        help="reliability profile method (default bhattacharyya-bound)",
    )
    p.add_argument(
        "--construction-trials",
        type=int,
        help="Monte Carlo trials for genie-mc construction (default 2048)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierpolar",
        description="hierarchical polar coding on block-fading binary symmetric wiretap channels",
    )
    parser.add_argument("--config", help="flat key = value parameter file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="closed-form secrecy-rate bounds")
    _add_channel_flags(p_rates)
    p_rates.set_defaults(func=_cmd_rates)

    p_con = sub.add_parser("construct", help="build a code and show its partition")
    _add_channel_flags(p_con)
    _add_code_flags(p_con)
    p_con.set_defaults(func=_cmd_construct)

    p_sim = sub.add_parser("simulate", help="Monte Carlo frame simulation")
    _add_channel_flags(p_sim)
    _add_code_flags(p_sim)
    p_sim.add_argument("--trials", type=int, help="number of frames (default 100)")
    p_sim.add_argument("--seed", type=int, help="master seed (default 1)")
    p_sim.add_argument("--out", help="write per-trial records to this file")
    p_sim.add_argument("--format", choices=TRIAL_FORMATS, help="trial record format (default ndjson)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="gap surfaces over parameter grids")
    p_sweep.add_argument("--surface", choices=("gap-coeff", "gap-upper"), help="which surface (default gap-coeff)")
    p_sweep.add_argument("--steps", type=int, help="grid steps per axis (default 50)")
    p_sweep.add_argument("--q1", type=float, help="fixed q1 for the gap-upper surface (default 0.5)")
    p_sweep.add_argument("--q1s", type=float, help="fixed q1s for the gap-upper surface (default 0.5)")
    p_sweep.add_argument("--p2", type=float, help="fixed p2 for the gap-coeff surface (default 0.2)")
    p_sweep.add_argument("--p1s", type=float, help="fixed p1s for the gap-coeff surface (default 0.1)")
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_toy = sub.add_parser("toy-leakage", help="exact leakage of an enumerable toy code")
    p_toy.add_argument("--variant", choices=("randomized", "message"), help="toy layout (default randomized)")
    p_toy.set_defaults(func=_cmd_toy)

    # accepted after the subcommand as well; SUPPRESS keeps the subparser
    # from clobbering a value parsed at the top level
    for p in (p_rates, p_con, p_sim, p_sweep, p_toy):
        p.add_argument("--config", default=argparse.SUPPRESS, help="flat key = value parameter file")

    return parser


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cmd_rates(args: argparse.Namespace, cfg: dict) -> int:
    params = _params_from(args, cfg)
    _emit(rate_report(params).to_dict())
    return 0


def _code_args(args: argparse.Namespace, cfg: dict) -> dict:
    """Frame size and construction settings, as ``build_code`` keywords."""
    n = int(_require(_pick(args, cfg, "n"), "--n"))
    b = _pick(args, cfg, "b")
    return {
        "n": n,
        "b": int(b) if b is not None else max(2, n // 8),
        "delta": float(_pick(args, cfg, "delta", 0.25)),
        "construction": str(_pick(args, cfg, "construction", "bhattacharyya-bound")),
        "construction_trials": int(_pick(args, cfg, "construction_trials", 2048)),
    }


def _cmd_construct(args: argparse.Namespace, cfg: dict) -> int:
    code = build_code(_params_from(args, cfg), **_code_args(args, cfg))
    sizes = code.partition.sizes()
    fractions = {
        k: (v / code.b if k.startswith("bec_") else v / code.n) for k, v in sizes.items()
    }
    _emit(
        {
            "scenario": code.scenario.value,
            "n": code.n,
            "b": code.b,
            "delta": code.partition.delta,
            "construction": code.construction,
            "partition_sizes": sizes,
            "partition_fractions": fractions,
            "designed_rate": designed_rate(code),
            "message_bits": total_message_bits(code),
            "random_bits": total_random_bits(code),
            "target_fractions": target_fractions(code.params),
        }
    )
    return 0


def _cmd_simulate(args: argparse.Namespace, cfg: dict) -> int:
    config = SimConfig(
        params=_params_from(args, cfg),
        **_code_args(args, cfg),
        trials=int(_pick(args, cfg, "trials", 100)),
        seed=int(_pick(args, cfg, "seed", 1)),
    )
    # a config file bypasses argparse's choices; check before any trial runs
    fmt = str(_pick(args, cfg, "format", "ndjson"))
    if fmt not in TRIAL_FORMATS:
        raise CliError(f"format must be one of {TRIAL_FORMATS}, got {fmt!r}")
    report, records = run_simulation(config)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_trials(records, fh, fmt)
    # timing goes to stderr so repeat runs stay byte-identical on stdout
    payload = report.to_dict()
    wall = payload.pop("wall_seconds")
    print(f"wall_seconds: {wall:.3f}", file=sys.stderr)
    _emit(payload)
    return 0


def _cmd_sweep(args: argparse.Namespace, cfg: dict) -> int:
    surface = str(_pick(args, cfg, "surface", "gap-coeff"))
    steps = int(_pick(args, cfg, "steps", 50))
    rows = sweep_gap_surface(
        surface,
        steps,
        q1=float(_pick(args, cfg, "q1", 0.5)),
        q1s=float(_pick(args, cfg, "q1s", 0.5)),
        p2=float(_pick(args, cfg, "p2", 0.2)),
        p1s=float(_pick(args, cfg, "p1s", 0.1)),
    )
    lines = [",".join(SWEEP_FIELDS)]
    for row in rows:
        lines.append(",".join(repr(float(row[k])) for k in SWEEP_FIELDS))
    text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_toy(args: argparse.Namespace, cfg: dict) -> int:
    variant = str(_pick(args, cfg, "variant", "randomized"))
    code = toy_code(variant)
    leakage = exact_leakage_toy(code)
    _emit(
        {
            "variant": variant,
            "message_bits": total_message_bits(code),
            "random_bits": total_random_bits(code),
            "leakage_bits": leakage,
        }
    )
    return 0


def cli_dispatch(argv: list[str] | None = None) -> int:
    """Parse and run; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; we reserve 2
        # for unsupported scenarios
        return 0 if exc.code == 0 else 1
    try:
        cfg = _load_config(args.config) if args.config else {}
        return args.func(args, cfg)
    except UnsupportedScenarioError as exc:
        print(f"unsupported scenario: {exc}", file=sys.stderr)
        return 2
    except (CliError, ConstructionInfeasibleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
