"""Config-driven experiment runner for the Poisson solver pipeline.

Subcommands
    solve          build + run the full pipeline, report solution and errors
    verify-phase   run state prep + QPE only and read the eigenvalue register
    sweep          repeat solve across amplification widths, tabulate metrics
    resources      tabulate qubit/depth/CNOT estimates across problem sizes
    mitigate-demo  readout-noise corrupt/mitigate round trip on the input state

Configuration precedence is defaults < --config JSON < explicit flags, and
every run embeds its fully resolved configuration in the output so results
are self-describing.  A config file may carry "d": 1, the only dimension
solved.  Outputs are deterministic byte-for-byte for a fixed config and
seed.  Exit codes: 0 success, 2 invalid configuration or input, 3 resource
budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Sequence

import numpy as np

from . import analytics
from . import circuit as qc
from . import noise
from . import simulator as sim
from .encoding import FixedPointFormat, default_format
from .errors import QPoissonError, ResourceError, check_choice
from .model import PoissonSystem, eigenpairs

__all__ = ["DEFAULTS", "FORMATS", "PRESETS", "RESOURCE_COLUMNS", "main"]

# Right-hand sides for the three benchmark grids (unit-norm as listed; the
# 15x15 state zeroes its last two entries).
PRESETS = {
    "table1-3x3": {"n": 2, "b": (2**-0.5, 0.5, 0.5)},
    "table1-7x7": {"n": 3, "b": (0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5)},
    "table1-15x15": {"n": 4, "b": (0.25,) * 12 + (0.5, 0.0, 0.0)},
}

DEFAULTS = {
    "preset": None,
    "n": None,
    "b": None,
    "d": 1,
    "integer_bits": None,
    "fraction_bits": 8,
    "angle_bits": 16,
    "mode": "auto",
    "phase_mode": "encoded",
    "backend": "exact",
    "shots": 1_000_000,
    "seed": 1234,
    "p01": 0.02,
    "p10": 0.05,
    "noise_model": None,
    "format": "json",
    "output": None,
    "f_values": (0, 4, 8),
    "n_values": (2, 3, 4),
    "eigen_index": None,
    "input": None,
}

FORMATS = ("json", "csv")

RESOURCE_COLUMNS = (
    "problem",
    "n",
    "f",
    "l",
    "mode",
    "qubits",
    "b_width",
    "e_width",
    "a_width",
    "gates",
    "depth",
    "cnots_est",
    "fidelity",
    "washed_out",
)


def _int_list(text: str) -> list[int]:
    text = text.strip()
    return [int(part) for part in text.split(",")] if text else []


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",")]


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(raw) - set(DEFAULTS))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        cfg.update(raw)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if cfg["d"] != 1:
        raise ValueError(f"only 1D grids are solved (d = 1), got d = {cfg['d']!r}")
    check_choice("format", cfg["format"], FORMATS)
    return cfg


def _resolve_system(cfg: dict) -> PoissonSystem:
    if cfg["preset"] is not None:
        if cfg["preset"] not in PRESETS:
            raise ValueError(f"unknown preset {cfg['preset']!r}; choose from {sorted(PRESETS)}")
        if cfg["n"] is not None or cfg["b"] is not None:
            raise ValueError("give either a preset or explicit --n/--b, not both")
        preset = PRESETS[cfg["preset"]]
        return PoissonSystem(n=preset["n"], b=np.asarray(preset["b"]))
    if cfg["n"] is None or cfg["b"] is None:
        raise ValueError("problem underspecified: need --preset, or both --n and --b")
    return PoissonSystem(n=int(cfg["n"]), b=np.asarray(cfg["b"], dtype=float))


def _resolve_format(cfg: dict, n: int) -> FixedPointFormat:
    fmt = default_format(n, int(cfg["fraction_bits"]), int(cfg["angle_bits"]))
    if cfg["integer_bits"] is None:
        return fmt
    return dataclasses.replace(fmt, integer_bits=int(cfg["integer_bits"]))


def _base_config(cfg: dict, system: PoissonSystem, fmt: FixedPointFormat) -> dict:
    return {
        "preset": cfg["preset"],
        "n": system.n,
        "d": 1,
        "b": [float(x) for x in system.b],
        "integer_bits": fmt.integer_bits,
        "fraction_bits": fmt.fraction_bits,
        "angle_bits": fmt.angle_bits,
        "mode": cfg["mode"],
        "phase_mode": cfg["phase_mode"],
        "backend": cfg["backend"],
        "shots": int(cfg["shots"]),
        "seed": int(cfg["seed"]),
    }


def _warn_downgrade(requested: str, resolved: str) -> None:
    if requested == "auto" and resolved == "fused":
        print(
            f"note: auto mode chose the fused rotation (explicit layout would "
            f"exceed {qc.AUTO_EXPLICIT_LIMIT} qubits)",
            file=sys.stderr,
        )


def _render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_csv(columns: Sequence[str], rows: Sequence[dict], config: dict) -> str:
    lines = ["# config " + json.dumps(config, sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {output}")
    else:
        sys.stdout.write(text)


def _problem_label(system: PoissonSystem) -> str:
    return f"{system.dim}x{system.dim}"


def cmd_solve(cfg: dict) -> int:
    system = _resolve_system(cfg)
    fmt = _resolve_format(cfg, system.n)
    record = analytics.solve(
        system, fmt, mode=cfg["mode"], phase_mode=cfg["phase_mode"], backend=cfg["backend"],
        shots=int(cfg["shots"]), seed=int(cfg["seed"]),
    )
    mode = record.circuit.metadata["mode"]
    _warn_downgrade(cfg["mode"], mode)
    solution, rel = record.solution, record.rel_error
    run_key = "run_percent" if record.sampled is None else "empirical_percent"
    sp = {
        run_key: record.run_percent,
        "expected_percent": record.expected_percent,
        "analytic_truncated_percent": record.analytic_truncated_percent,
        "analytic_exact_percent": record.analytic_exact_percent,
    }
    payload: dict = {
        "config": _base_config(cfg, system, fmt),
        "mode_resolved": mode,
        "solution": [float(x) for x in solution],
        "exact_solution": [float(x) for x in record.exact],
        "relative_error": rel,
        "success_probability": sp,
    }
    if record.sampled is not None:
        payload["histogram"] = dict(sorted(record.sampled.histogram.items()))
        payload["rng"] = record.sampled.rng

    print(
        f"problem {_problem_label(system)} (n={system.n}, d=1)  mode={mode}  "
        f"i={fmt.integer_bits} f={fmt.fraction_bits} l={fmt.angle_bits}"
    )
    print("solution  " + " ".join(f"{x:.6f}" for x in solution))
    print("exact     " + " ".join(f"{x:.6f}" for x in record.exact))
    print(f"relative error {rel:.6g} ({100.0 * rel:.4g}%)")
    print(
        f"success probability: run {sp[run_key]:.4g}%  expected {sp['expected_percent']:.4g}%  "
        f"analytic truncated {sp['analytic_truncated_percent']:.4g}%  "
        f"analytic exact {sp['analytic_exact_percent']:.4g}%"
    )
    if cfg["output"] and cfg["format"] == "json":
        _emit(_render_json(payload), cfg["output"])
    elif cfg["output"]:
        if record.sampled is not None:
            columns = ("bitstring", "count")
            rows = [{"bitstring": k, "count": v} for k, v in payload["histogram"].items()]
        else:
            columns = ("index", "amplitude")
            rows = [{"index": k + 1, "amplitude": float(x)} for k, x in enumerate(solution)]
        _emit(_render_csv(columns, rows, payload["config"]), cfg["output"])
    return 0


def cmd_verify_phase(cfg: dict) -> int:
    system = _resolve_system(cfg)
    fmt = _resolve_format(cfg, system.n)
    if cfg["eigen_index"] is not None and cfg["input"] is not None:
        raise ValueError("give --eigen-index or --input, not both")
    if cfg["eigen_index"] is not None:
        j = int(cfg["eigen_index"])
        if not 1 <= j <= system.dim:
            raise ValueError(f"eigen index must be in 1..{system.dim}, got {j}")
        vec = eigenpairs(system).vectors[:, j - 1]
    elif cfg["input"] is not None:
        vec = np.asarray(cfg["input"], dtype=float)
    else:
        raise ValueError("verify-phase needs --eigen-index or --input")
    sim.check_backend(cfg["backend"], int(cfg["shots"]))

    built = qc.build_phase_verification(system, fmt, vec, cfg["phase_mode"])
    state = sim.run_exact(built)
    config = _base_config(cfg, system, fmt)
    config["eigen_index"] = cfg["eigen_index"]
    config["input"] = [float(x) for x in vec]
    payload: dict = {"config": config}
    width = fmt.total_bits
    if cfg["backend"] == "exact":
        probs = sim.register_probabilities(state, built.layout.reg_e)
        readout = {
            format(idx, f"0{width}b"): float(p)
            for idx, p in enumerate(probs)
            if p > 1e-12
        }
        payload["probabilities"] = readout
        spec = ".6f"
    else:
        readout = sim.sample_counts(state, built.layout.reg_e, int(cfg["shots"]), int(cfg["seed"]))
        payload["histogram"] = dict(sorted(readout.items()))
        payload["rng"] = sim.RNG_NAME
        spec = ""
    for bits, value in sorted(readout.items()):
        print(f"{bits} (decimal {int(bits, 2)}): {value:{spec}}")
    if cfg["output"]:
        _emit(_render_json(payload), cfg["output"])
    return 0


def cmd_sweep(cfg: dict) -> int:
    f_values = [int(f) for f in cfg["f_values"]]
    if not f_values:
        raise ValueError("sweep needs at least one f value")
    system = _resolve_system(cfg)
    fmt = _resolve_format(cfg, system.n)
    rows = []
    for f in f_values:
        row = analytics.sweep_record(
            _problem_label(system), system, dataclasses.replace(fmt, fraction_bits=f),
            mode=cfg["mode"], phase_mode=cfg["phase_mode"],
        )
        _warn_downgrade(cfg["mode"], row["mode"])
        rows.append(row)
    config = _base_config(cfg, system, fmt)
    del config["fraction_bits"]
    config["f_values"] = f_values
    if cfg["format"] == "csv":
        text = _render_csv(analytics.SWEEP_COLUMNS, rows, config)
    else:
        text = _render_json({"config": config, "rows": rows})
    _emit(text, cfg["output"])
    return 0


def cmd_resources(cfg: dict) -> int:
    n_values = [int(n) for n in cfg["n_values"]]
    rows = []
    for n in n_values:
        dim = 2**n - 1
        # resource shape is input-independent; a flat state stands in for b
        system = PoissonSystem(n=n, b=np.full(dim, dim**-0.5))
        fmt = _resolve_format(cfg, n)
        built = qc.build_pipeline(system, fmt, mode=cfg["mode"], phase_mode=cfg["phase_mode"])
        _warn_downgrade(cfg["mode"], built.metadata["mode"])
        report = analytics.resource_report(built)
        rows.append(
            {
                "problem": f"{dim}x{dim}",
                "n": n,
                "f": fmt.fraction_bits,
                "l": fmt.angle_bits,
                "mode": built.metadata["mode"],
                "qubits": report.total_qubits,
                "b_width": report.register_widths["b"],
                "e_width": report.register_widths["e"],
                "a_width": report.register_widths["a"],
                "gates": len(built.gates),
                "depth": report.depth,
                "cnots_est": report.estimated_cnots,
                "fidelity": report.estimated_fidelity,
                "washed_out": report.washed_out,
            }
        )
    config = {
        "n_values": n_values,
        "d": 1,
        "integer_bits": cfg["integer_bits"],
        "fraction_bits": int(cfg["fraction_bits"]),
        "angle_bits": int(cfg["angle_bits"]),
        "mode": cfg["mode"],
        "phase_mode": cfg["phase_mode"],
    }
    if cfg["format"] == "csv":
        text = _render_csv(RESOURCE_COLUMNS, rows, config)
    else:
        text = _render_json({"config": config, "rows": rows})
    _emit(text, cfg["output"])
    return 0


def mitigation_trial(p_ideal: np.ndarray, model: noise.ReadoutModel, shots: int, seed: int) -> dict:
    """Sample p_ideal, corrupt the reads, mitigate, compare amplitude errors."""
    p_ideal = np.asarray(p_ideal, dtype=float)
    width = model.width
    if p_ideal.size != 2**width:
        raise ValueError(f"distribution length {p_ideal.size} wants width {width} bits")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p_ideal)
    ideal_hist = {format(k, f"0{width}b"): int(c) for k, c in enumerate(counts) if c}
    noisy_hist = noise.corrupt(ideal_hist, model, seed + 1)
    calibration = noise.calibration_matrix(model, width)
    mitigated = noise.mitigate(noisy_hist, calibration)
    noisy_p = np.zeros(2**width)
    for bits, count in noisy_hist.items():
        noisy_p[int(bits, 2)] += count
    noisy_p /= shots
    amp_ideal = np.sqrt(p_ideal)
    rel_noisy = analytics.relative_error(amp_ideal, np.sqrt(noisy_p))
    rel_mitigated = analytics.relative_error(amp_ideal, np.sqrt(mitigated))
    return {
        "ideal_distribution": [float(x) for x in p_ideal],
        "noisy_distribution": [float(x) for x in noisy_p],
        "mitigated_distribution": [float(x) for x in mitigated],
        "relative_error_unmitigated": rel_noisy,
        "relative_error_mitigated": rel_mitigated,
    }


def cmd_mitigate_demo(cfg: dict) -> int:
    if cfg["preset"] is None and cfg["n"] is None:
        cfg = dict(cfg)
        cfg["preset"] = "table1-3x3"
    system = _resolve_system(cfg)
    if cfg["noise_model"] is not None:
        model = noise.ReadoutModel.from_json(cfg["noise_model"])
        if model.width != system.n:
            raise ValueError(
                f"noise model width {model.width} does not match n = {system.n}"
            )
    else:
        model = noise.ReadoutModel.uniform(system.n, float(cfg["p01"]), float(cfg["p10"]))
    bhat = np.asarray(system.b, dtype=float)
    bhat = bhat / np.linalg.norm(bhat)
    p_ideal = np.concatenate([[0.0], bhat**2])
    trial = mitigation_trial(p_ideal, model, int(cfg["shots"]), int(cfg["seed"]))

    config = {
        "preset": cfg["preset"],
        "n": system.n,
        "d": 1,
        "b": [float(x) for x in system.b],
        "p01": list(model.p01),
        "p10": list(model.p10),
        "noise_model": cfg["noise_model"],
        "shots": int(cfg["shots"]),
        "seed": int(cfg["seed"]),
    }
    payload = {"config": config, **trial}
    rel_n = trial["relative_error_unmitigated"]
    rel_m = trial["relative_error_mitigated"]
    print(f"readout flips: p01={list(model.p01)} p10={list(model.p10)}")
    print(f"relative error unmitigated {rel_n:.6g} ({100.0 * rel_n:.4g}%)")
    print(f"relative error mitigated   {rel_m:.6g} ({100.0 * rel_m:.4g}%)")
    print("mitigation helped" if rel_m < rel_n else "mitigation did not help")
    if cfg["output"]:
        _emit(_render_json(payload), cfg["output"])
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file of config overrides")
    parser.add_argument("--preset", help="named problem: " + ", ".join(sorted(PRESETS)))
    parser.add_argument("--n", type=int, help="grid exponent (dim = 2**n - 1)")
    parser.add_argument("--b", type=_float_list, help="comma-separated right-hand side")
    parser.add_argument("--i", dest="integer_bits", type=int, help="integer bits (default 2n+2)")
    parser.add_argument("--f", dest="fraction_bits", type=int, help="amplification bits")
    parser.add_argument("--l", dest="angle_bits", type=int, help="angle register bits")
    parser.add_argument("--mode", choices=qc.MODES)
    parser.add_argument("--phase-mode", dest="phase_mode", choices=qc.PHASE_MODES)
    parser.add_argument("--backend", choices=sim.BACKENDS)
    parser.add_argument("--shots", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output", help="write the result artifact to this path")
    parser.add_argument("--format", choices=FORMATS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpoisson",
        description="Quantum solver pipeline for the 1D Poisson equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the full pipeline")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify-phase", help="read the eigenvalue register after QPE")
    _add_common(p_verify)
    p_verify.add_argument("--eigen-index", dest="eigen_index", type=int,
                          help="prepare eigenvector j (1-based)")
    p_verify.add_argument("--input", type=_float_list,
                          help="comma-separated grid values to prepare")
    p_verify.set_defaults(func=cmd_verify_phase)

    p_sweep = sub.add_parser("sweep", help="metrics across amplification widths")
    _add_common(p_sweep)
    p_sweep.add_argument("--f-values", dest="f_values", type=_int_list,
                         help="comma-separated amplification bit counts")
    p_sweep.set_defaults(func=cmd_sweep)

    p_res = sub.add_parser("resources", help="resource estimates across sizes")
    _add_common(p_res)
    p_res.add_argument("--n-values", dest="n_values", type=_int_list,
                       help="comma-separated grid exponents (empty for header only)")
    p_res.set_defaults(func=cmd_resources)

    p_mit = sub.add_parser("mitigate-demo", help="readout corrupt/mitigate round trip")
    _add_common(p_mit)
    p_mit.add_argument("--p01", type=float, help="Pr(read 1 | true 0) on every qubit")
    p_mit.add_argument("--p10", type=float, help="Pr(read 0 | true 1) on every qubit")
    p_mit.add_argument("--noise-model", dest="noise_model",
                       help="JSON noise model {qubit: {p01, p10}}")
    p_mit.set_defaults(func=cmd_mitigate_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        return args.func(cfg)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, QPoissonError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
