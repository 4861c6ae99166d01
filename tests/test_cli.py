"""End-to-end command tests driving main() in process."""

import contextlib
import importlib
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpoisson import PoissonSystem, cli, eigenpairs, simulator
from qpoisson.analytics import SWEEP_COLUMNS
from qpoisson.cli import main, mitigation_trial
from qpoisson.noise import ReadoutModel

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_exact_stdout(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--preset", "table1-3x3", "--f", "0", "--l", "10"
    )
    assert code == 0
    assert "problem 3x3 (n=2, d=1)" in out
    assert "mode=explicit" in out
    assert "i=6 f=0 l=10" in out
    assert "relative error" in out
    assert "success probability:" in out


def test_solve_json_artifact_is_reproducible(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, out, _ = run_cli(
            capsys,
            "solve", "--preset", "table1-3x3", "--f", "0", "--l", "10",
            "--output", str(path),
        )
        assert code == 0
        assert f"wrote {path}" in out
    assert paths[0].read_bytes() == paths[1].read_bytes()
    payload = json.loads(paths[0].read_text())
    assert payload["config"]["preset"] == "table1-3x3"
    assert payload["config"]["fraction_bits"] == 0
    assert payload["mode_resolved"] == "explicit"
    assert "run_percent" in payload["success_probability"]
    assert len(payload["solution"]) == 3


def test_solve_sample_backend_payload(capsys, tmp_path):
    path = tmp_path / "sampled.json"
    code, _, _ = run_cli(
        capsys,
        "solve", "--preset", "table1-3x3", "--f", "0", "--l", "10",
        "--backend", "sample", "--shots", "20000", "--seed", "9",
        "--output", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["rng"] == "PCG64"
    assert sum(payload["histogram"].values()) == 20000
    assert all(len(k) == 3 for k in payload["histogram"])
    assert "empirical_percent" in payload["success_probability"]


def test_solve_csv_solution_rows(capsys, tmp_path):
    path = tmp_path / "solution.csv"
    code, _, _ = run_cli(
        capsys,
        "solve", "--preset", "table1-3x3", "--f", "0", "--l", "10",
        "--format", "csv", "--output", str(path),
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "index,amplitude"
    assert len(lines) == 5


def test_solve_sample_csv_histogram_rows(capsys, tmp_path):
    path = tmp_path / "histogram.csv"
    code, _, _ = run_cli(
        capsys,
        "solve", "--preset", "table1-3x3", "--f", "0", "--l", "10",
        "--backend", "sample", "--shots", "20000", "--seed", "9",
        "--format", "csv", "--output", str(path),
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "bitstring,count"
    rows = [line.split(",") for line in lines[2:]]
    assert [bits for bits, _ in rows] == sorted(bits for bits, _ in rows)
    assert all(len(bits) == 3 and int(count) > 0 for bits, count in rows)
    assert sum(int(count) for _, count in rows) == 20000


@pytest.mark.parametrize("backend", ["exact", "sample"])
def test_solve_refuses_an_all_zero_angle_table_before_running(capsys, monkeypatch, backend):
    """At l = 2 every 15x15 angle rounds to 0: no rotation, so nothing is run."""
    def run(*args):
        raise AssertionError("the circuit ran although its angle table is all zero")

    monkeypatch.setattr(cli.sim, "readout", run)
    monkeypatch.setattr(cli.sim, "sample", run)
    code, out, err = run_cli(capsys, "solve", "--preset", "table1-15x15", "--f", "8", "--l", "2",
                             "--backend", backend)
    assert code == 2 and out == ""
    assert "no rotation angle survives l = 2" in err


def test_one_eigenvalue_solve_reads_no_phase_product(capsys):
    """26 qubits fused, no reg E control: the marginal is a product of norms (Parseval)."""
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "solve", "--n", "1", "--b", "1", "--f", "20")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and "mode=fused  i=4 f=20" in out
    assert "solution  1.000000" in out and "relative error 0 (0%)" in out
    # the 2**24-entry product of the phase pairs alone held 385 MiB
    assert peak < 8 * 2**20


def test_verify_phase_eigenvector(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-phase", "--preset", "table1-3x3", "--f", "0", "--l", "10",
        "--eigen-index", "2",
    )
    assert code == 0
    assert out.strip() == "100000 (decimal 32): 1.000000"


def test_verify_phase_mixed_input(capsys, tmp_path):
    system = PoissonSystem(n=2, b=np.array([2**-0.5, 0.5, 0.5]))
    u = eigenpairs(system).vectors
    vec = 0.5 * u[:, 0] + 2**-0.5 * u[:, 1] + 0.5 * u[:, 2]
    path = tmp_path / "phase.json"
    code, out, _ = run_cli(
        capsys,
        "verify-phase", "--n", "2", "--b", ",".join(repr(float(x)) for x in vec),
        "--f", "0", "--l", "10",
        "--input", ",".join(repr(float(x)) for x in vec),
        "--output", str(path),
    )
    assert code == 0
    probs = json.loads(path.read_text())["probabilities"]
    assert probs["001001"] == pytest.approx(0.25, abs=1e-10)
    assert probs["100000"] == pytest.approx(0.5, abs=1e-10)
    assert probs["110110"] == pytest.approx(0.25, abs=1e-10)
    assert "(decimal 9)" in out and "(decimal 32)" in out and "(decimal 54)" in out


def test_verify_phase_sampled_artifact_is_reproducible(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, out, _ = run_cli(
            capsys,
            "verify-phase", "--preset", "table1-3x3", "--f", "4", "--eigen-index", "2",
            "--backend", "sample", "--shots", "100000", "--seed", "5", "--output", str(path),
        )
        assert code == 0 and f"wrote {path}" in out
    assert paths[0].read_bytes() == paths[1].read_bytes()
    payload = json.loads(paths[0].read_text())
    assert payload["rng"] == "PCG64" and "probabilities" not in payload
    histogram = payload["histogram"]
    width = 2 * 2 + 2 + 4  # reg E: i = 2n + 2 integer bits and f = 4 fraction bits
    assert histogram and all(re.fullmatch(f"[01]{{{width}}}", bits) for bits in histogram)
    assert sum(histogram.values()) == 100000


def test_verify_phase_input_flag_conflicts(capsys):
    code, _, err = run_cli(
        capsys,
        "verify-phase", "--preset", "table1-3x3",
        "--eigen-index", "1", "--input", "1.0,0.0,0.0",
    )
    assert code == 2
    assert "not both" in err
    code, _, err = run_cli(capsys, "verify-phase", "--preset", "table1-3x3")
    assert code == 2
    assert "needs --eigen-index or --input" in err
    for vector in ("nan,1,1", "inf,1,1"):
        code, out, err = run_cli(capsys, "verify-phase", "--preset", "table1-3x3", "--f", "0",
                                 "--l", "10", f"--input={vector}")
        assert (code, out, err) == (2, "", "error: vector entries must be finite\n")
    for j in ("0", "-1", "4"):  # the 3x3 system has eigenvectors 1..3
        code, out, err = run_cli(capsys, "verify-phase", "--preset", "table1-3x3",
                                 f"--eigen-index={j}")
        assert (code, out, err) == (2, "", f"error: eigen index must be in 1..3, got {j}\n")


def test_sweep_csv(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--preset", "table1-3x3", "--l", "16",
        "--f-values", "0,4,8", "--format", "csv", "--output", str(path),
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 5
    errors = [float(line.split(",")[4]) for line in lines[2:]]
    assert errors == sorted(errors, reverse=True)
    assert [line.split(",")[1] for line in lines[2:]] == ["0", "4", "8"]


def test_render_csv_writes_numbers_as_str():
    # repr would write np.float64(0.1) under numpy 2
    row = {"a": np.float64(0.1), "b": 0.1, "c": 3, "d": True, "e": "x"}
    text = cli._render_csv(list(row), [row], {"n": 2})
    assert text == '# config {"n":2}\na,b,c,d,e\n0.1,0.1,3,True,x\n'


def test_sweep_rejects_empty_f_values(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--preset", "table1-3x3", "--f-values", ""
    )
    assert code == 2
    assert "at least one f value" in err


def test_resources_header_only(capsys):
    code, out, _ = run_cli(
        capsys, "resources", "--n-values", "", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1] == ",".join(
        ("problem", "n", "f", "l", "mode", "qubits", "b_width", "e_width",
         "a_width", "gates", "depth", "cnots_est", "fidelity", "washed_out")
    )


@pytest.mark.parametrize("n", ["0", "-1"])
def test_resources_rejects_grid_exponents_below_1(capsys, n):
    code, out, err = run_cli(capsys, "resources", f"--n-values={n}")
    assert code == 2 and out == ""
    assert f"n must be >= 1, got {n}" in err


@pytest.mark.parametrize("argv, message", [
    (("--n-values", "1000000"), "fused pipeline needs 3000011 qubits, budget is 28"),
    (("--n-values", "24"), "fused pipeline needs 83 qubits, budget is 28"),
    (("--n-values", "20", "--i", "1", "--f", "0"),
     "matrix dimension 1048575 exceeds budget 4096"),
], ids=("n-1e6", "n-24", "n-20-narrow-format"))
def test_resources_checks_the_budget_before_the_stand_in(capsys, argv, message):
    """An over-budget size exits 3 before the 2**n - 1 entries of its stand-in b exist."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "resources", *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (3, "", f"error: {message}\n")
    assert peak < 4 * 2**20


def test_resources_fused_qubit_totals(capsys, tmp_path):
    path = tmp_path / "resources.json"
    code, _, _ = run_cli(
        capsys,
        "resources", "--n-values", "2,3,4", "--mode", "fused",
        "--output", str(path),
    )
    assert code == 0
    rows = json.loads(path.read_text())["rows"]
    assert [row["qubits"] for row in rows] == [17, 20, 23]
    assert all(row["mode"] == "fused" for row in rows)
    depths = [row["depth"] for row in rows]
    assert depths[0] < depths[1] < depths[2]


def test_integer_bits_override_widens_reg_e(capsys, tmp_path):
    path = tmp_path / "resources.json"
    code, _, _ = run_cli(
        capsys, "resources", "--n-values", "2", "--i", "7", "--f", "2", "--output", str(path)
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["config"]["integer_bits"] == 7
    assert [row["e_width"] for row in payload["rows"]] == [9]


def test_integer_bits_too_narrow_for_the_spectrum_exits_2(capsys):
    # the 3x3 spectrum reaches lambda = 32, which needs 8 bits at f = 2
    code, out, err = run_cli(capsys, "solve", "--preset", "table1-3x3", "--i", "5", "--f", "2")
    assert code == 2 and out == ""
    assert "needs more than m = 7 bits" in err
    # the message names the snapped integer it rejects, not the unsnapped eigenvalue
    assert "128" in err and "31.99999" not in err


def test_mitigate_demo_improves_error(capsys):
    code, out, _ = run_cli(capsys, "mitigate-demo", "--shots", "100000")
    assert code == 0
    assert "mitigation helped" in out


def test_mitigate_demo_falls_back_to_3x3_only_without_a_problem(capsys, tmp_path):
    path = tmp_path / "demo.json"
    code, _, _ = run_cli(capsys, "mitigate-demo", "--shots", "1000", "--output", str(path))
    assert code == 0
    config = json.loads(path.read_text())["config"]
    assert config["preset"] == "table1-3x3" and config["n"] == 2
    code, out, err = run_cli(capsys, "mitigate-demo", "--b", "1,1,1")
    assert code == 2 and out == ""
    assert "underspecified" in err


def test_mitigate_demo_refuses_a_wide_model_before_sampling(capsys, monkeypatch):
    def corrupt(*args):
        raise AssertionError("corrupt ran before the calibration width was checked")

    monkeypatch.setattr(cli.noise, "corrupt", corrupt)
    b = ",".join(["1"] * (2**11 - 1))
    code, out, err = run_cli(capsys, "mitigate-demo", "--n", "11", "--b", b, "--shots", "1000")
    assert code == 3 and out == ""
    assert "calibration width 11 exceeds 10" in err


def test_mitigate_demo_never_builds_the_dense_calibration_matrix(capsys, monkeypatch):
    def calibration_matrix(model):
        raise AssertionError("mitigate-demo built the 2**w x 2**w calibration matrix")

    monkeypatch.setattr(cli.noise, "calibration_matrix", calibration_matrix)
    b = ",".join(["1"] * (2**10 - 1))
    tracemalloc.start()
    code, out, _ = run_cli(capsys, "mitigate-demo", "--n", "10", "--b", b, "--shots", "1000")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert code == 0 and "relative error mitigated" in out
    # M, M^T M and |M^T M| alone held 24 MiB at w = 10
    assert peak < 4 * 2**20


def test_mitigate_demo_refuses_more_draws_than_the_budget_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mitigate-demo", "--shots", "100000000000000")
    assert (code, out) == (3, "")
    assert "corrupt needs 2e+14 draws, budget is 4294967296" in err
    # drawing them would take weeks; the multinomial split of the shots is all that runs
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("argv", [
    ("solve", "--preset", "table1-15x15", "--backend", "sample"),
    ("verify-phase", "--preset", "table1-15x15", "--eigen-index", "1", "--backend", "sample"),
    ("mitigate-demo", "--preset", "table1-15x15"),
], ids=("solve", "verify-phase", "mitigate-demo"))
def test_negative_seed_exits_2_before_any_work(capsys, monkeypatch, argv):
    def resolve(cfg):
        raise AssertionError("the problem was resolved before the seed was checked")

    monkeypatch.setattr(cli, "_resolve_system", resolve)
    assert run_cli(capsys, *argv, "--seed", "-1") == (2, "", "error: --seed must be >= 0, got -1\n")


@pytest.mark.parametrize("shots", [str(2**63), str(10**20)], ids=("2^63", "1e20"))
@pytest.mark.parametrize("argv", [
    ("solve", "--preset", "table1-3x3", "--backend", "sample"),
    ("verify-phase", "--preset", "table1-3x3", "--eigen-index", "1", "--backend", "sample"),
    ("mitigate-demo", "--preset", "table1-3x3"),
], ids=("solve", "verify-phase", "mitigate-demo"))
def test_shots_beyond_the_multinomial_draw_exit_2(capsys, argv, shots):
    """numpy draws at most 2**63 - 1 shots in one multinomial call; more is bad input."""
    code, out, err = run_cli(capsys, *argv, "--shots", shots)
    assert (code, out) == (2, "")
    assert f"shots must be in 1..{2**63 - 1}, got {shots}" in err


def test_mitigation_trial_roundtrip():
    model = ReadoutModel.uniform(2, 0.02, 0.05)
    trial = mitigation_trial(np.array([0.0, 0.5, 0.25, 0.25]), model, 100_000, seed=4)
    assert trial["relative_error_mitigated"] < trial["relative_error_unmitigated"]
    assert sum(trial["mitigated_distribution"]) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="length 3 wants width 2 bits"):
        mitigation_trial(np.array([0.5, 0.25, 0.25]), model, 100, seed=4)


def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fraction_bits": 0, "angle_bits": 10}))
    code, out, _ = run_cli(
        capsys, "solve", "--preset", "table1-3x3", "--config", str(cfg)
    )
    assert code == 0
    assert "i=6 f=0 l=10" in out
    code, out, _ = run_cli(
        capsys, "solve", "--preset", "table1-3x3", "--config", str(cfg), "--f", "4"
    )
    assert code == 0
    assert "i=6 f=4 l=10" in out
    # null for an option whose default is None keeps that default
    cfg.write_text(json.dumps({"integer_bits": None, "output": None}))
    code, out, _ = run_cli(capsys, "solve", "--preset", "table1-3x3", "--config", str(cfg))
    assert code == 0
    assert "i=6 f=8 l=16" in out


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"fraction_bitz": 0}))
    code, _, err = run_cli(
        capsys, "solve", "--preset", "table1-3x3", "--config", str(cfg)
    )
    assert code == 2
    assert "unknown config keys" in err


COMMAND_ARGV = {
    "solve": ("solve", "--preset", "table1-3x3", "--f", "0", "--l", "10"),
    "verify-phase": ("verify-phase", "--preset", "table1-3x3", "--f", "0", "--l", "10",
                     "--eigen-index", "2"),
    "sweep": ("sweep", "--preset", "table1-3x3", "--f-values", "0", "--l", "10"),
    "resources": ("resources", "--n-values", "2"),
    "mitigate-demo": ("mitigate-demo",),
}
BAD_VALUES = {"mode": "sideways", "phase_mode": "fake", "backend": "gpu", "shots": 0,
              "format": "xml", "d": 2}
CONSUMERS = {
    "mode": ("solve", "sweep", "resources"),
    "phase_mode": ("solve", "verify-phase", "sweep", "resources"),
    "backend": ("solve", "verify-phase"),
    "shots": ("solve", "verify-phase", "mitigate-demo"),
    "format": ("solve", "sweep", "resources"),
    "d": tuple(COMMAND_ARGV),
}


@pytest.mark.parametrize("command", tuple(COMMAND_ARGV))
def test_config_d_1_is_accepted(capsys, tmp_path, command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"d": 1}))
    assert run_cli(capsys, *COMMAND_ARGV[command], "--config", str(cfg))[0] == 0


@pytest.mark.parametrize(
    "field, command",
    [(field, command) for field, commands in CONSUMERS.items() for command in commands],
)
def test_bad_config_value_exits_2(capsys, tmp_path, field, command):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({field: BAD_VALUES[field]}))
    code, _, err = run_cli(capsys, *COMMAND_ARGV[command], "--config", str(cfg))
    assert code == 2
    assert field in err


def test_malformed_noise_model_exits_2(capsys, tmp_path):
    path = tmp_path / "noise.json"
    cases = [
        ({"0": {"p01": 0.01}, "1": {"p01": 0.01, "p10": 0.02}}, "p10"),
        # JSON numbers only: neither a string nor a boolean reads as a flip probability
        ({"0": {"p01": "0.02", "p10": False}, "1": {"p01": 0.01, "p10": 0.02}},
         "every qubit needs numeric p01 and p10"),
        # the 3x3 default problem has n = 2 measured bits
        ({str(q): {"p01": 0.01, "p10": 0.02} for q in range(3)},
         "noise model width 3 does not match n = 2"),
    ]
    for model, message in cases:
        path.write_text(json.dumps(model))
        code, out, err = run_cli(capsys, "mitigate-demo", "--noise-model", str(path))
        assert code == 2 and out == ""
        assert message in err


def test_programming_error_is_not_reported_as_bad_input(monkeypatch):
    def broken(cfg):
        raise KeyError("a bug, not an input")

    monkeypatch.setattr(cli, "cmd_solve", broken)
    with pytest.raises(KeyError):
        main(["solve", "--preset", "table1-3x3"])


def test_bad_choice_exits_2(capsys):
    assert run_cli(capsys, "solve", "--preset", "table1-3x3", "--mode", "sideways")[0] == 2


def test_preset_and_explicit_problem_conflict(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--preset", "table1-3x3", "--n", "2", "--b", "1,1,1"
    )
    assert code == 2
    assert "not both" in err


def test_explicit_mode_over_budget_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--preset", "table1-15x15", "--mode", "explicit"
    )
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("solve", "--preset", "table1-3x3", "--f", "1100"), 3,
         "error: fused pipeline needs 1109 qubits, budget is 28\n"),
        (("resources", "--n-values", "12", "--mode", "explicit"), 3,
         "error: explicit pipeline needs at least 47 qubits, budget is 28\n"),
        # the true_a walk never encodes lambda = 9, which 3 integer bits cannot hold
        (("verify-phase", "--preset", "table1-3x3", "--f", "0", "--i", "3",
          "--phase-mode", "true_a", "--eigen-index", "1"), 0, ""),
        (("verify-phase", "--preset", "table1-3x3", "--eigen-index", "1", "--l", "1100"), 0, ""),
    ],
    ids=("f-1100", "explicit-n-12", "true-a-narrow-i", "verify-l-1100"),
)
def test_format_extremes_exit_codes(capsys, argv, code, message):
    assert run_cli(capsys, *argv)[::2] == (code, message)


def test_verify_phase_refuses_over_budget_before_the_eigenvectors(capsys, monkeypatch):
    def no_eigenpairs(system):
        raise AssertionError("eigenpairs ran before the budget check")

    monkeypatch.setattr(cli, "eigenpairs", no_eigenpairs)
    ones = ",".join(["1"] * 4095)
    code, _, err = run_cli(capsys, "verify-phase", "--n", "12", f"--b={ones}",
                           "--eigen-index", "1")
    assert code == 3
    assert "phase verification needs 47 qubits" in err


def test_angle_bits_beyond_the_float_range(capsys, tmp_path):
    artifacts = {}
    for l in ("60", "1100", "1000000000"):
        path = tmp_path / f"l{l}.json"
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "solve", "--preset", "table1-3x3", "--f", "4", "--l", l,
                                 "--output", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a double omega has no set bit past position 1074, so no wider l costs more
        assert code == 0 and time.perf_counter() - start < 1.0 and peak < 4 * 2**20
        artifacts[l] = json.loads(path.read_text())
        assert artifacts[l]["config"].pop("angle_bits") == int(l)
    # omega has 53 significant bits, so 60 already holds every one of them
    assert artifacts["60"] == artifacts["1100"] == artifacts["1000000000"]


SCALED_ARGV = {
    "solve": lambda b: ("solve", "--n", "2", f"--b={b}", "--f", "0", "--l", "10"),
    "verify-phase": lambda b: ("verify-phase", "--n", "2", "--b", "1,1,1", "--f", "0",
                               "--l", "10", f"--input={b}"),
    "mitigate-demo": lambda b: ("mitigate-demo", "--n", "2", f"--b={b}", "--shots", "1000"),
}


def assert_close(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_close(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_close(g, w)
    else:
        assert got == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("scale", ("1e308", "1e-320"))
@pytest.mark.parametrize("command", tuple(SCALED_ARGV))
def test_right_hand_side_scale_does_not_change_the_answer(capsys, tmp_path, command, scale):
    payloads = []
    for b in ("1,1,1", ",".join([scale] * 3)):
        path = tmp_path / "run.json"
        code, _, err = run_cli(capsys, *SCALED_ARGV[command](b), "--output", str(path))
        assert code == 0, err
        payload = json.loads(path.read_text())
        del payload["config"]  # echoes b or the input as given
        payloads.append(payload)
    assert_close(payloads[1], payloads[0])


def test_auto_downgrade_warns(capsys):
    code, _, err = run_cli(capsys, "solve", "--preset", "table1-7x7")
    assert code == 0
    assert "auto mode chose the fused rotation" in err


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qpoisson", "solve", "--n", "1", "--b", "1.0",
         "--f", "0", "--l", "8"],
        capture_output=True,
        text=True,
        timeout=120,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert "problem 1x1" in proc.stdout


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, qpoisson.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=src_env(),
        check=True,
    )
    assert proc.stdout.strip() == "[]"


# The options each subcommand reads, written out here rather than taken from
# cli.OPTIONS, so that a subcommand that starts taking one more fails a test.
READS = {
    "solve": {"config", "preset", "n", "b", "integer_bits", "fraction_bits", "angle_bits",
              "mode", "phase_mode", "backend", "shots", "seed", "output", "format"},
    "verify-phase": {"config", "preset", "n", "b", "integer_bits", "fraction_bits", "angle_bits",
                     "phase_mode", "backend", "shots", "seed", "output", "eigen_index", "input"},
    "sweep": {"config", "preset", "n", "b", "integer_bits", "angle_bits", "mode", "phase_mode",
              "output", "format", "f_values"},
    "resources": {"config", "integer_bits", "fraction_bits", "angle_bits", "mode", "phase_mode",
                  "output", "format", "n_values"},
    "mitigate-demo": {"config", "preset", "n", "b", "shots", "seed", "output", "p01", "p10",
                      "noise_model"},
}
FLAGS = {"integer_bits": "--i", "fraction_bits": "--f", "angle_bits": "--l"}
# A well-typed value of each option, as flag text and as a JSON config value.
GOOD = {"preset": "table1-3x3", "n": 2, "b": [1.0, 1.0, 1.0], "integer_bits": 6,
        "fraction_bits": 4, "angle_bits": 10, "mode": "fused", "phase_mode": "encoded",
        "backend": "exact", "shots": 100, "seed": 3, "format": "csv", "eigen_index": 1,
        "input": [1.0, 0.0, 0.0], "f_values": [0], "n_values": [2], "p01": 0.1, "p10": 0.1,
        "noise_model": "noise.json", "output": "artifact.json"}
# Wrong JSON types per option type: a list for a scalar, a scalar for a list,
# a bool for a number, a string for a number ({"output": 1} once wrote the
# artifact to stdout).  null is wrong where the option has a default; for the
# others it means "unset".
WRONG = {
    int: [[2], True, 2.5, "2"],
    float: [[0.1], True, "0.1"],
    str: [["x"], 1, True],
    list: [3, "0,4", [True], ["1"]],
}
OPTIONAL = {"config", "preset", "n", "b", "integer_bits", "output", "eigen_index", "input",
            "noise_model"}
# Includes the 19 pairs among the formerly shared flags that were taken and ignored.
UNREAD = [(command, name) for command in READS for name in sorted(set(GOOD) - READS[command])]


def flag(name: str) -> str:
    return FLAGS.get(name, "--" + name.replace("_", "-"))


def flag_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def test_each_subcommand_accepts_only_the_options_it_reads(capsys):
    total = 0
    for command, names in READS.items():
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        text = capsys.readouterr().out.split("options:", 1)[1]
        offered = set(re.findall(r"^  (--[\w-]+)", text, flags=re.M)) - {"--help"}
        assert offered == {flag(name) for name in names}, command
        total += len(offered)
    assert total == 58


@pytest.mark.parametrize("command, name", UNREAD)
def test_unread_option_exits_2(capsys, tmp_path, command, name):
    argv = COMMAND_ARGV[command]
    code, out, err = run_cli(capsys, *argv, flag(name), flag_text(GOOD[name]))
    assert code == 2 and flag(name) in err and not out
    cfg = tmp_path / "unread.json"
    cfg.write_text(json.dumps({name: GOOD[name]}))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and repr(name) in err and not out


def test_config_file_cannot_name_a_config_file(capsys, tmp_path):
    cfg = tmp_path / "nested.json"
    cfg.write_text(json.dumps({"config": str(cfg)}))
    code, _, err = run_cli(capsys, "solve", "--preset", "table1-3x3", "--config", str(cfg))
    assert code == 2 and "'config'" in err


@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command, names in READS.items() for name in sorted(names - {"config"})],
)
def test_wrong_config_type_exits_2(capsys, tmp_path, command, name):
    wrong = WRONG[type(GOOD[name])] + ([] if name in OPTIONAL else [None])
    cfg = tmp_path / "wrong.json"
    for value in wrong:
        cfg.write_text(json.dumps({name: value}))
        code, out, err = run_cli(capsys, *COMMAND_ARGV[command], "--config", str(cfg))
        assert (code, out) == (2, ""), value
        assert repr(name) in err, value


@pytest.mark.parametrize("command", tuple(COMMAND_ARGV))
def test_config_block_echoes_the_options_read(capsys, tmp_path, command):
    path = tmp_path / "artifact.json"
    assert run_cli(capsys, *COMMAND_ARGV[command], "--output", str(path))[0] == 0
    config = json.loads(path.read_text())["config"]
    assert set(config) == READS[command] - {"config", "output", "format"} | {"d"}


def readme_cli_section() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0].splitlines()


def test_readme_option_table_matches_subcommands():
    rows = [re.fullmatch(r"\| `([\w-]+)` \| `([^`]*)` \|", line) for line in readme_cli_section()]
    listed = {row[1]: set(row[2].split()) for row in rows if row}
    assert listed == {
        command: {flag(name) for name in names - {"config", "output"}}
        for command, names in READS.items()
    }


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    commands = [line for line in readme_cli_section() if line.startswith("qpoisson ")]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert run_cli(capsys, *shlex.split(line)[1:])[0] == 0, line


def test_no_benchmark_or_readme_command_runs_apply_gate(capsys, tmp_path, monkeypatch):
    # no builder circuit lowers to a GATE pass, so apply_gate is a reference only
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    argvs = [op.argv for name in workloads.WORKLOADS for op in workloads.build(name, 3)]
    argvs += [shlex.split(line)[1:] for line in readme_cli_section() if line.startswith("qpoisson ")]
    kinds = []
    reference = simulator.apply_gate

    def counted(state, gate):
        kinds.append(gate.kind)
        return reference(state, gate)

    monkeypatch.setattr(simulator, "apply_gate", counted)
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert kinds == []


# Flag texts per option: (ordinary, extreme or malformed).  The problems stay
# at 3x3 and 7x7, which hold at most 20 live qubits (a 16 MiB state), or run
# past QUBIT_BUDGET and exit 3: a run within the budget may hold a 28-qubit,
# 4 GiB state by design.  "{tmp}" is the test's scratch directory.
ARGV_VALUES = {
    "config": (["{tmp}/config.json"],
               ["{tmp}/list.json", "{tmp}/broken.json", "{tmp}/missing.json"]),
    "integer_bits": (["4", "8"], ["1", "40", "0", "-3", "10000000000", "x"]),
    "fraction_bits": (["0", "2", "8"], ["40", "1100", "1000000000", "-1", "x"]),
    "angle_bits": (["16"], ["1", "1100", "1000000000", "0", "-1", "x"]),
    "mode": (["auto", "fused", "explicit"], ["sideways"]),
    "phase_mode": (["encoded", "true_a"], ["x"]),
    "backend": (["exact", "sample"], ["x"]),
    "shots": (["1", "1000"], [str(2**63 - 1), str(2**63), str(10**20), "0", "-5", "1e5", "x"]),
    "seed": (["0"], [str(2**64), str(10**30), "-1", "x"]),
    "output": (["{tmp}/artifact.out"], ["{tmp}", "{tmp}/missing/artifact.out", ""]),
    "format": (["json", "csv"], ["xml"]),
    "eigen_index": (["1", "7"], ["8", "0", "-1", "1000000000", "x"]),
    "input": (["1,0,0", "1,-1,2,0,0,0,3"],
              ["0,0,0", "1e308,1e308,1e308", "nan,0,0", "1", "", "x"]),
    "f_values": (["0", "0,4,8"], ["", "-1", "1100", "0,0,0,0,0,0", "x"]),
    "n_values": (["2", "2,3,4"], ["5", "30", "1000000", "", "0", "x"]),
    "p01": (["0", "0.02"], ["0.45", "0.5", "1", "-0.1", "1e-300", "nan", "inf", "x"]),
    "p10": (["0", "0.05"], ["0.45", "0.5", "1", "-0.1", "1e-300", "nan", "inf", "x"]),
    "noise_model": (["{tmp}/noise.json"],
                    ["{tmp}/wide-noise.json", "{tmp}/list.json", "{tmp}/broken.json",
                     "{tmp}/missing.json"]),
}
# The problem flags (--preset, --n, --b) are drawn together, the same way.
ARGV_PROBLEMS = (
    [["--preset=table1-3x3"], ["--preset=table1-7x7"], ["--n=1", "--b=1"],
     ["--n=2", "--b=1,-2,0.5"]],
    [[], ["--preset=table1-99x99"], ["--preset="], ["--preset=table1-3x3", "--n=2", "--b=1,1,1"],
     ["--n=30", "--b=1,1,1"], ["--n=1000000"], ["--n=0", "--b=1"], ["--n=-1", "--b=1"],
     ["--n=2.5", "--b=1"], ["--n=x", "--b=1"], ["--b=1,1,1"]]
    + [["--n=2", f"--b={b}"] for b in ("0,0,0", "1e308,1e308,1e308", "5e-324,0,0", "nan,1,1",
                                       "inf,1,1", "", "1,,1", "1", "x")],
)
ARGV_FILES = {
    "list.json": [1, 2],
    "noise.json": {str(q): {"p01": 0.01, "p10": 0.03} for q in range(3)},
    "wide-noise.json": {str(q): {"p01": 0.01, "p10": 0.03} for q in range(30)},
}
ARGV_SECONDS = 10  # per run; DRAW_BUDGET alone admits runs of about 20 s on two cores
ARGV_PEAK = 64 * 2**20  # tracemalloc peak per run


@st.composite
def cli_argv(draw):
    """A subcommand, its problem and about half its other options; one value in four is odd."""
    def pick(ordinary, odd):
        return draw(st.sampled_from(odd if draw(st.integers(0, 3)) == 0 else ordinary))

    command = draw(st.sampled_from(sorted(READS)))
    argv = [command] + (pick(*ARGV_PROBLEMS) if "preset" in READS[command] else [])
    for name in sorted(READS[command] - {"preset", "n", "b"}):
        if draw(st.booleans()):  # --flag=value, so that a value may start with "-"
            argv.append(f"{flag(name)}={pick(*ARGV_VALUES[name])}")
    return argv


class Overtime(Exception):
    """A run outlasted ARGV_SECONDS; main maps no such exception to an exit code."""


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv")
    for name, content in ARGV_FILES.items():
        (path / name).write_text(json.dumps(content))
    (path / "config.json").write_text(json.dumps({"output": str(path / "from-config.out")}))
    (path / "broken.json").write_text("{")
    return path


@settings(max_examples=100, deadline=None)
@given(argv=cli_argv())
@example(argv=["resources", "--n-values=30"])
@example(argv=["resources", "--n-values=1000000"])
@example(argv=["solve", "--preset=table1-3x3", "--backend=sample", f"--shots={10**20}"])
@example(argv=["mitigate-demo", f"--shots={10**14}"])
@example(argv=["solve", "--preset=table1-7x7", "--f=4", f"--l={10**9}"])
def test_every_argv_exits_with_a_documented_code_in_bounded_memory(argv_dir, argv):
    """0, 2 or 3, whatever the flags; the run is cut after ARGV_SECONDS by SIGALRM."""
    argv = [arg.replace("{tmp}", str(argv_dir)) for arg in argv]

    def overtime(signum, frame):
        raise Overtime(f"{shlex.join(argv)} ran past {ARGV_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, ARGV_SECONDS)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3), argv
    assert peak < ARGV_PEAK, argv
