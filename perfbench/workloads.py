"""Workload op lists: each op is one `qpoisson` command line plus its inputs.

A workload is a fixed list of ops that runs back to back, in order, as one
pass (closed loop, one client).  Every input the CLI receives -- right-hand
sides and sampling seeds -- is drawn here from the workload seed, so the same
seed gives the same argv.  The reasons each workload exists are recorded next
to its name in BENCHMARK.json and in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Untimed op that readies a fresh process: 9 qubits, fused, exact.
WARMUP_ARGV = ("solve", "--preset", "table1-3x3", "--f", "0", "--l", "10", "--mode", "fused")

DEFAULT_ANGLE_BITS = 16
NARROW_SWEEPS = (("table1-3x3", (0, 4, 8)), ("table1-7x7", (0, 4, 8)), ("table1-15x15", (0, 4)))
NARROW_RESOURCE_MODES = ("fused", "auto")
NARROW_RESOURCE_N = (2, 3, 4)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its subcommand, its argv, and what the oracle needs.

    spec holds the inputs the oracle derives its reference from: `preset` or
    (`n`, `b`), `f`, `l`, `backend`, `shots`, ... exactly as passed on argv.
    """

    command: str
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict)


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _problem_args(spec: dict) -> list[str]:
    if "preset" in spec:
        return ["--preset", spec["preset"]]
    # `--b=` keeps argparse from reading a leading minus sign as a flag
    return ["--n", str(spec["n"]), f"--b={_floats(spec['b'])}"]


def _solve(**spec) -> Op:
    spec.setdefault("l", DEFAULT_ANGLE_BITS)
    spec.setdefault("backend", "exact")
    argv = ["solve", *_problem_args(spec), "--f", str(spec["f"]), "--l", str(spec["l"])]
    if spec.get("mode", "auto") != "auto":
        argv += ["--mode", spec["mode"]]
    if spec["backend"] == "sample":
        argv += ["--backend", "sample", "--shots", str(spec["shots"]), "--seed", str(spec["seed"])]
    return Op("solve", tuple(argv), spec)


def wide(rng: np.random.Generator) -> list[Op]:
    # Inputs are fixed presets; the seed has nothing to draw here.
    return [
        _solve(preset="table1-15x15", f=8, mode="fused"),
        _solve(preset="table1-7x7", f=0, mode="auto"),
    ]


def narrow(rng: np.random.Generator) -> list[Op]:
    ops = [
        Op(
            "sweep",
            ("sweep", "--preset", preset, "--f-values", ",".join(map(str, fs)), "--mode", "fused"),
            {"preset": preset, "f_values": fs, "l": DEFAULT_ANGLE_BITS, "mode": "fused"},
        )
        for preset, fs in NARROW_SWEEPS
    ]
    ops += [
        Op(
            "resources",
            ("resources", "--n-values", ",".join(map(str, NARROW_RESOURCE_N)), "--mode", mode),
            {"mode": mode},
        )
        for mode in NARROW_RESOURCE_MODES
    ]
    dim = 2**3 - 1
    # Two all-positive and two signed right-hand sides; the signed ones are
    # kept whatever they draw, so an unsigned solver shows up as failures.
    rhs = [rng.uniform(0.1, 1.0, dim) for _ in range(2)]
    rhs += [rng.standard_normal(dim) for _ in range(2)]
    ops += [_solve(n=3, b=b, f=4, mode="fused") for b in rhs]
    return ops


def sample_mitigate(rng: np.random.Generator) -> list[Op]:
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=6)]
    ops = [
        _solve(preset="table1-3x3", f=4, mode="fused", backend="sample", shots=10_000_000,
               seed=seeds[0]),
        _solve(preset="table1-7x7", f=4, mode="fused", backend="sample", shots=10_000_000,
               seed=seeds[1]),
    ]
    phase = {"preset": "table1-3x3", "f": 4, "l": DEFAULT_ANGLE_BITS, "eigen_index": 2,
             "shots": 10_000_000, "seed": seeds[2]}
    ops.append(Op(
        "verify-phase",
        ("verify-phase", "--preset", "table1-3x3", "--f", "4", "--eigen-index", "2",
         "--backend", "sample", "--shots", str(phase["shots"]), "--seed", str(phase["seed"])),
        phase,
    ))
    mitigations = [
        {"preset": "table1-15x15", "shots": 10_000_000, "seed": seeds[3]},
        {"n": 8, "b": rng.uniform(0.1, 1.0, 2**8 - 1), "shots": 1_000_000, "seed": seeds[4]},
        {"n": 9, "b": rng.uniform(0.1, 1.0, 2**9 - 1), "shots": 1_000_000, "seed": seeds[5]},
    ]
    for spec in mitigations:
        argv = ("mitigate-demo", *_problem_args(spec),
                "--shots", str(spec["shots"]), "--seed", str(spec["seed"]))
        ops.append(Op("mitigate-demo", argv, spec))
    return ops


WORKLOADS = {"wide": wide, "narrow": narrow, "sample-mitigate": sample_mitigate}


def build(name: str, seed: int) -> list[Op]:
    """The op list of workload `name` for workload seed `seed`."""
    return WORKLOADS[name](np.random.default_rng(seed))
