"""End-to-end command tests driving main() in process."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qpoisson import PoissonSystem, cli, eigenpairs
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


def test_mitigation_trial_roundtrip():
    model = ReadoutModel.uniform(2, 0.02, 0.05)
    trial = mitigation_trial(np.array([0.0, 0.5, 0.25, 0.25]), model, 100_000, seed=4)
    assert trial["relative_error_mitigated"] < trial["relative_error_unmitigated"]
    assert sum(trial["mitigated_distribution"]) == pytest.approx(1.0, abs=1e-9)


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
    path.write_text(json.dumps({"0": {"p01": 0.01}, "1": {"p01": 0.01, "p10": 0.02}}))
    code, _, err = run_cli(capsys, "mitigate-demo", "--noise-model", str(path))
    assert code == 2
    assert "p10" in err


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
    for l in ("60", "1100"):
        path = tmp_path / f"l{l}.json"
        code, _, _ = run_cli(capsys, "solve", "--preset", "table1-3x3", "--f", "4", "--l", l,
                             "--output", str(path))
        assert code == 0
        artifacts[l] = json.loads(path.read_text())
        assert artifacts[l]["config"].pop("angle_bits") == int(l)
    # omega has 53 significant bits, so 60 already holds every one of them
    assert artifacts["60"] == artifacts["1100"]


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
