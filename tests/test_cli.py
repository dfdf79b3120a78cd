"""Command-line interface tests: exit codes, config handling, output shapes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hierpolar
from hierpolar import channels, cli, cli_dispatch, polar, rates, scheme, sim

SIM_FLAGS = ["--p1", "0.02", "--p2", "0.05", "--p1s", "0.11", "--p2s", "0.15", "--q1", "0.5"]
UNSUPPORTED_FLAGS = [
    "--p1", "0.02", "--p2", "0.2", "--p1s", "0.1", "--p2s", "0.3",
    "--q1", "0.3", "--q1s", "0.6", "--coupling", "independent",
]


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = cli_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rates_happy_path(capsys):
    code, out, _ = run(capsys, ["rates"] + SIM_FLAGS)
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"] == "SIM-A"
    assert payload["capacity_established"] is True
    assert payload["upper_bound"] == pytest.approx(0.34096, abs=1e-5)


def test_rates_reports_unsupported_regime_without_failing(capsys):
    # the upper bound exists there, so the report is still emitted
    code, out, _ = run(capsys, ["rates"] + UNSUPPORTED_FLAGS)
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"] == "UNSUPPORTED"
    assert payload["achievable"] is None


def test_missing_parameter_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["rates", "--p1", "0.02"])
    assert code == 1
    assert "missing required parameter" in err


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["simulate", "--help"])[0] == 0


def test_bad_usage_exits_one(capsys):
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["transmogrify"])[0] == 1
    assert run(capsys, ["sweep", "--surface", "gap-cube"])[0] == 1


def test_construct_unsupported_scenario_exits_two(capsys):
    code, _, err = run(capsys, ["construct"] + UNSUPPORTED_FLAGS + ["--n", "64", "--b", "16"])
    assert code == 2
    assert "unsupported" in err.lower()


def test_construct_rejects_a_single_block(capsys):
    # simulate refuses b = 1, so construct does too
    code, out, err = run(capsys, ["construct"] + SIM_FLAGS + ["--n", "64", "--b", "1"])
    assert code == 1 and out == ""
    assert "b (blocks per frame) must be at least 2" in err


def test_construct_reports_partition(capsys):
    code, out, _ = run(capsys, ["construct"] + SIM_FLAGS + ["--n", "64", "--b", "16"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 64 and payload["b"] == 16
    n_classes = [k for k in payload["partition_sizes"] if not k.startswith("bec_")]
    assert sum(payload["partition_sizes"][k] for k in n_classes) == 64
    assert set(payload["partition_fractions"]) == set(payload["partition_sizes"])
    assert payload["designed_rate"] == payload["message_bits"] / (64 * 16)
    assert "target_fractions" in payload


def test_config_file_supplies_parameters(tmp_path, capsys):
    cfg = tmp_path / "chan.cfg"
    cfg.write_text(
        "# fixture channel\n"
        "p1 = 0.02\np2 = 0.05\n"
        "p1s = 0.11  # eavesdropper, superior\n"
        "p2s = 0.15\nq1 = 0.5\n"
    )
    code, out, _ = run(capsys, ["--config", str(cfg), "rates"])
    assert code == 0
    assert json.loads(out)["scenario"] == "SIM-A"


def test_config_accepted_after_subcommand(tmp_path, capsys):
    cfg = tmp_path / "chan.cfg"
    cfg.write_text("p1 = 0.02\np2 = 0.05\np1s = 0.11\np2s = 0.15\nq1 = 0.5\n")
    code, out, _ = run(capsys, ["rates", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["scenario"] == "SIM-A"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "chan.cfg"
    cfg.write_text("p1 = 0.02\np2 = 0.05\np1s = 0.11\np2s = 0.15\nq1 = 0.9\n")
    _, out_cfg, _ = run(capsys, ["--config", str(cfg), "rates"])
    _, out_flag, _ = run(capsys, ["--config", str(cfg), "rates", "--q1", "0.5"])
    sim_cap = lambda s: json.loads(s)["upper_bound"]
    assert sim_cap(out_flag) == pytest.approx(0.34096, abs=1e-5)
    assert sim_cap(out_cfg) != sim_cap(out_flag)


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("p9 = 0.1\n")
    assert run(capsys, ["--config", str(bad_key), "rates"])[0] == 1
    bad_val = tmp_path / "b.cfg"
    bad_val.write_text("p1 = fast\n")
    assert run(capsys, ["--config", str(bad_val), "rates"])[0] == 1
    bad_line = tmp_path / "c.cfg"
    bad_line.write_text("p1 0.1\n")
    assert run(capsys, ["--config", str(bad_line), "rates"])[0] == 1
    assert run(capsys, ["--config", str(tmp_path / "missing.cfg"), "rates"])[0] == 1


def test_simulate_rejects_config_format_before_running(tmp_path, capsys):
    # a config value skips argparse's choices; the run must not start, and
    # an existing --out file must keep its bytes
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("format = xml\n")
    out = tmp_path / "trials.txt"
    out.write_bytes(b"earlier run\n")
    code, stdout, err = run(capsys, ["--config", str(cfg)] + simulate_args(out))
    assert code == 1
    assert "format" in err and "xml" in err
    assert "wall_seconds" not in err and stdout == ""
    assert out.read_bytes() == b"earlier run\n"


def test_package_runs_as_module_without_warnings():
    src = str(Path(hierpolar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hierpolar", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "simulate" in proc.stdout
    assert proc.stderr == ""


def test_star_import_binds_each_layer_export():
    ns: dict = {}
    exec("from hierpolar import *", ns)
    for layer in (channels, polar, rates, scheme, sim):
        for name in layer.__all__:
            assert ns[name] is getattr(layer, name), (layer.__name__, name)
    assert ns["cli_dispatch"] is cli.cli_dispatch
    assert set(ns) - {"__builtins__"} == set(hierpolar.__all__)
    assert hierpolar.__all__ == sorted(hierpolar.__all__)


def simulate_args(out_path=None, fmt=None, seed="3"):
    argv = ["simulate"] + SIM_FLAGS + [
        "--n", "32", "--b", "8", "--trials", "5", "--seed", seed, "--delta", "0.25",
    ]
    if out_path:
        argv += ["--out", str(out_path)]
    if fmt:
        argv += ["--format", fmt]
    return argv


def test_simulate_emits_summary_and_trials(tmp_path, capsys):
    trials = tmp_path / "trials.ndjson"
    code, out, err = run(capsys, simulate_args(trials))
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 5
    assert payload["config"]["seed"] == 3
    assert "wall_seconds" not in payload
    assert "wall_seconds" in err
    lines = trials.read_text().splitlines()
    assert len(lines) == 5
    assert json.loads(lines[0])["trial"] == 0


def test_simulate_csv_trials(tmp_path, capsys):
    trials = tmp_path / "trials.csv"
    code, _, _ = run(capsys, simulate_args(trials, fmt="csv"))
    assert code == 0
    lines = trials.read_text().splitlines()
    assert lines[0].startswith("trial,seed,")
    assert len(lines) == 6


def test_simulate_repeat_runs_are_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a.ndjson"
    out_b = tmp_path / "b.ndjson"
    _, stdout_a, _ = run(capsys, simulate_args(out_a))
    _, stdout_b, _ = run(capsys, simulate_args(out_b))
    assert stdout_a == stdout_b
    assert out_a.read_bytes() == out_b.read_bytes()


IND_WEAK_FLAGS = [
    "--p1", ".02", "--p2", ".11", "--p1s", ".05", "--p2s", ".15",
    "--q1", ".6", "--q1s", ".4", "--coupling", "independent",
]
SHORT_WIDE = ["--n", "32", "--b", "64", "--delta", "0.9", "--trials", "40", "--seed", "11"]


@pytest.mark.parametrize(
    "flags, stdout_sha256, ndjson_sha256",
    [
        pytest.param(
            SIM_FLAGS + ["--n", "64", "--b", "16", "--trials", "20", "--seed", "11"],
            "bd034d9ac522d95059621c03233725484a8d56f86bea90d00161a0438973cd25",
            "f30fed250b48ddf5242ac4435cce4a315f5d614304cbe32f377f3dc0acfb46cb",
            id="criterion-10",
        ),
        pytest.param(
            SIM_FLAGS + SHORT_WIDE,
            "f9bdff2d2df56a1c0d22ed24527489c526368ccefe584b9d14065604f09ef970",
            "8200762712198fd5b3da87f361ccd51ac4f3d9c6efc54848e90f36053f388983",
            id="sim-a-short-wide",
        ),
        pytest.param(
            IND_WEAK_FLAGS + SHORT_WIDE,
            "a8510d9590875bf5c97e8200fa6471d5bbfbd31f39c526c9fe2edaf30a8f2053",
            "17c456fffc838c97a106b4ad9389033b75c727f36fbe7c07721e7f35152b4ace",
            id="ind-weak-short-wide",
        ),
        pytest.param(
            SIM_FLAGS + ["--n", "256", "--b", "128", "--trials", "19", "--seed", "11"],
            "27b9ac621d701dabbed8d1c648027775b0869a09cba0de601bac87e04d7a20fb",
            "3103e5bfd603f66dcbacdfe3f3990c1a49df74f86b8242e02b9a02a3c39fb64d",
            id="sim-a-three-chunks",
        ),
        pytest.param(
            SIM_FLAGS + ["--n", "1024", "--b", "128", "--trials", "5", "--seed", "21"],
            "4acb87ccc973138274acdfdf25dd10b0009d0cd43c3235b9c2850ebff7595af4",
            "70698b563de62a2127fde63adb98c87f23607b916ef3ca55040e2668c62d9240",
            id="sim-a-n1024",
        ),
        pytest.param(
            IND_WEAK_FLAGS + ["--n", "64", "--b", "1024", "--trials", "4", "--seed", "3"],
            "700d1a84ef8596f8795cc48a2e0ff00871b93a99f1439888eed4ac659152b460",
            "f792fd6a3c7b3e2c9d1328023e3b266a4dc56a0c70416bac89767c651c1a85d7",
            id="ind-weak-b1024",
        ),
    ],
)
def test_simulate_output_is_pinned(tmp_path, capsys, flags, stdout_sha256, ndjson_sha256):
    # the fixed-seed output contract: stdout JSON and NDJSON records are
    # byte-identical across refactors; the two short-wide runs have frame
    # failures for both receivers, so their failure paths are pinned too,
    # and the n=256, b=128 run decodes its 19 frames in chunks of 8, 8 and 3;
    # the n=1024 run meets the strictest Rate-1 guard of the SC decoder and
    # the b=1024 run its widest erasure calls
    trials = tmp_path / "trials.ndjson"
    code, out, _ = run(capsys, ["simulate"] + flags + ["--out", str(trials)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
    assert hashlib.sha256(trials.read_bytes()).hexdigest() == ndjson_sha256


def test_simulate_seed_changes_output(tmp_path, capsys):
    _, stdout_a, _ = run(capsys, simulate_args(seed="3"))
    _, stdout_b, _ = run(capsys, simulate_args(seed="4"))
    a, b = json.loads(stdout_a), json.loads(stdout_b)
    assert a["config"]["seed"] != b["config"]["seed"]


def test_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, ["sweep", "--surface", "gap-coeff", "--steps", "10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q1,q1s,p2,p1s,gap_coeff,gap_upper"
    assert len(lines) == 101
    coeffs = [float(line.split(",")[4]) for line in lines[1:]]
    assert max(coeffs) == pytest.approx(0.25, abs=1e-12)


def test_sweep_writes_file(tmp_path, capsys):
    out_file = tmp_path / "surface.csv"
    code, out, _ = run(
        capsys, ["sweep", "--surface", "gap-upper", "--steps", "5", "--out", str(out_file)]
    )
    assert code == 0
    assert out == ""
    assert out_file.read_text().splitlines()[0] == "q1,q1s,p2,p1s,gap_coeff,gap_upper"


def test_toy_leakage_variants(capsys):
    code, out, _ = run(capsys, ["toy-leakage", "--variant", "randomized"])
    assert code == 0
    assert json.loads(out)["leakage_bits"] == pytest.approx(0.0, abs=1e-9)
    code, out, _ = run(capsys, ["toy-leakage", "--variant", "message"])
    assert code == 0
    payload = json.loads(out)
    assert payload["leakage_bits"] == pytest.approx(2.0, abs=1e-9)
    assert payload["message_bits"] == 2
