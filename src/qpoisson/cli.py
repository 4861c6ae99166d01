"""Config-driven experiment runner for the Poisson solver pipeline.

Subcommands
    solve          build + run the full pipeline, report solution and errors
    verify-phase   run state prep + QPE only and read the eigenvalue register
    sweep          repeat solve across amplification widths, tabulate metrics
    resources      tabulate qubit/depth/CNOT estimates across problem sizes
    mitigate-demo  readout-noise corrupt/mitigate round trip on the input state

OPTIONS declares each option once: its flag, type, default, help text and
the subcommands that read it.  A subcommand takes only the options it reads,
as flags and as --config keys alike, and refuses any other.  Precedence is
defaults < --config JSON < explicit flags; config values are checked by the
same types and choices as flags, and a config file may also carry "d": 1,
the only dimension solved.  Every run embeds the resolved value of each option
it read (but config, output and format) in its output, so results are
self-describing.  Outputs are deterministic byte-for-byte for a fixed config
and seed.  Exit codes: 0 success, 2 invalid configuration or input, 3
resource budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import get_args

import numpy as np

from . import analytics
from . import circuit as qc
from . import noise
from . import simulator as sim
from .encoding import FixedPointFormat, default_format
from .errors import QPoissonError, ResourceError, check_choice
from .model import PoissonSystem, _check_dim, eigenpairs, square_safe

__all__ = ["FORMATS", "OPTIONS", "PRESETS", "RESOURCE_COLUMNS", "Option", "main"]

# Right-hand sides for the three benchmark grids (unit-norm as listed; the
# 15x15 state zeroes its last two entries).
PRESETS = {
    "table1-3x3": {"n": 2, "b": (2**-0.5, 0.5, 0.5)},
    "table1-7x7": {"n": 3, "b": (0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5)},
    "table1-15x15": {"n": 4, "b": (0.25,) * 12 + (0.5, 0.0, 0.0)},
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


# Flag-text converters of the list types; a scalar type converts its own text.
_LIST_PARSERS = {list[int]: _int_list, list[float]: _float_list}


@dataclass(frozen=True)
class Option:
    """One option: a flag, and the --config key of the same name.

    type is int, float, str, list[int] or list[float].  A default of None
    marks an optional value, which a config file may also set to null.
    """

    name: str
    flag: str
    type: type
    default: object
    help: str
    commands: tuple[str, ...]
    choices: tuple[str, ...] | None = None

    def from_json(self, value):
        """The config file's value, converted as the flag's; ValueError if mistyped."""
        if value is None and self.default is None:
            return None
        is_list = self.type in _LIST_PARSERS
        item = get_args(self.type)[0] if is_list else self.type
        items = value if is_list else [value]
        # JSON has one number type for int and float, and bool is no number
        accepted = (int, float) if item is float else (item,)
        if type(items) is not list or any(type(x) not in accepted for x in items):
            raise ValueError(f"config key {self.name!r} must be {self.type.__name__}, "
                             f"got {value!r}")
        value = [item(x) for x in items] if is_list else item(value)
        if self.choices is not None:
            check_choice(self.name, value, self.choices)
        return value


_ALL = ("solve", "verify-phase", "sweep", "resources", "mitigate-demo")
_PROBLEM = ("solve", "verify-phase", "sweep", "mitigate-demo")
_CIRCUIT = ("solve", "verify-phase", "sweep", "resources")
_PIPELINE = ("solve", "sweep", "resources")
_SAMPLED = ("solve", "verify-phase", "mitigate-demo")

OPTIONS = (
    Option("config", "--config", str, None, "JSON file of config overrides", _ALL),
    Option("preset", "--preset", str, None, "named problem", _PROBLEM, tuple(PRESETS)),
    Option("n", "--n", int, None, "grid exponent (dim = 2**n - 1)", _PROBLEM),
    Option("b", "--b", list[float], None, "comma-separated right-hand side", _PROBLEM),
    Option("integer_bits", "--i", int, None, "integer bits (default 2n+2)", _CIRCUIT),
    Option("fraction_bits", "--f", int, 8, "amplification bits",
           ("solve", "verify-phase", "resources")),
    Option("angle_bits", "--l", int, 16, "angle register bits", _CIRCUIT),
    Option("mode", "--mode", str, "auto", "controlled-rotation realization", _PIPELINE, qc.MODES),
    Option("phase_mode", "--phase-mode", str, "encoded", "QPE walk phases", _CIRCUIT,
           qc.PHASE_MODES),
    Option("backend", "--backend", str, "exact", "read the state exactly or sample it",
           ("solve", "verify-phase"), sim.BACKENDS),
    Option("shots", "--shots", int, 1_000_000, "number of samples", _SAMPLED),
    Option("seed", "--seed", int, 1234, "sampling seed", _SAMPLED),
    Option("output", "--output", str, None, "write the result artifact to this path", _ALL),
    Option("format", "--format", str, "json", "artifact format", _PIPELINE, FORMATS),
    Option("eigen_index", "--eigen-index", int, None, "prepare eigenvector j (1-based)",
           ("verify-phase",)),
    Option("input", "--input", list[float], None, "comma-separated grid values to prepare",
           ("verify-phase",)),
    Option("f_values", "--f-values", list[int], (0, 4, 8),
           "comma-separated amplification bit counts", ("sweep",)),
    Option("n_values", "--n-values", list[int], (2, 3, 4),
           "comma-separated grid exponents (empty for header only)", ("resources",)),
    Option("p01", "--p01", float, 0.02, "Pr(read 1 | true 0) on every qubit", ("mitigate-demo",)),
    Option("p10", "--p10", float, 0.05, "Pr(read 0 | true 1) on every qubit", ("mitigate-demo",)),
    Option("noise_model", "--noise-model", str, None, "JSON noise model {qubit: {p01, p10}}",
           ("mitigate-demo",)),
)


def _merge_config(args: argparse.Namespace) -> dict:
    """Each option args.command reads, resolved: defaults < --config < flags."""
    options = [opt for opt in OPTIONS if args.command in opt.commands]
    cfg = {opt.name: opt.default for opt in options}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        d = raw.pop("d", 1)
        if type(d) is not int or d != 1:
            raise ValueError(f"only 1D grids are solved (d = 1), got d = {d!r}")
        unknown = sorted(set(raw) - (set(cfg) - {"config"}))
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {unknown}")
        for opt in options:
            if opt.name in raw:
                cfg[opt.name] = opt.from_json(raw[opt.name])
    for name in cfg:
        value = getattr(args, name)
        if value is not None:
            cfg[name] = value
    # numpy refuses a negative seed only when it draws, after the whole run
    if cfg.get("seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {cfg['seed']}")
    return cfg


def _echo(cfg: dict, system: PoissonSystem | None = None, **resolved) -> dict:
    """The config block: each option read but config, output and format, plus d = 1.

    resolved and system (n and b) give the values a run worked out itself.
    """
    config = {k: v for k, v in cfg.items() if k not in ("config", "output", "format")}
    if system is not None:
        config.update(n=system.n, b=[float(x) for x in system.b])
    config.update(resolved, d=1)
    return config


def _resolve_system(cfg: dict) -> PoissonSystem:
    if cfg["preset"] is not None:
        if cfg["n"] is not None or cfg["b"] is not None:
            raise ValueError("give either a preset or explicit --n/--b, not both")
        preset = PRESETS[cfg["preset"]]
        return PoissonSystem(n=preset["n"], b=np.asarray(preset["b"]))
    if cfg["n"] is None or cfg["b"] is None:
        raise ValueError("problem underspecified: need --preset, or both --n and --b")
    return PoissonSystem(n=cfg["n"], b=np.asarray(cfg["b"], dtype=float))


def _resolve_format(cfg: dict, n: int, fraction_bits: int) -> FixedPointFormat:
    fmt = default_format(n, fraction_bits, cfg["angle_bits"])
    if cfg["integer_bits"] is None:
        return fmt
    return dataclasses.replace(fmt, integer_bits=cfg["integer_bits"])


def _warn_downgrade(requested: str, resolved: str) -> None:
    if requested == "auto" and resolved == "fused":
        print(
            f"note: auto mode chose the fused rotation (explicit layout would "
            f"exceed {qc.AUTO_EXPLICIT_LIMIT} qubits)",
            file=sys.stderr,
        )


def _render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _render_csv(columns: Sequence[str], rows: Sequence[dict], config: dict) -> str:
    lines = ["# config " + json.dumps(config, sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(columns))
    lines += [",".join(str(row[c]) for c in columns) for row in rows]
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


def _by_bitstring(values: np.ndarray) -> dict:
    """The nonzero entries of a vector over 2**w outcome values, keyed by w-bit strings."""
    width = len(values).bit_length() - 1
    idx = np.flatnonzero(values)
    return dict(zip((format(v, f"0{width}b") for v in idx.tolist()), values[idx].tolist()))


def cmd_solve(cfg: dict) -> int:
    system = _resolve_system(cfg)
    fmt = _resolve_format(cfg, system.n, cfg["fraction_bits"])
    record = analytics.solve(
        system, fmt, mode=cfg["mode"], phase_mode=cfg["phase_mode"], backend=cfg["backend"],
        shots=cfg["shots"], seed=cfg["seed"],
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
        "config": _echo(cfg, system, integer_bits=fmt.integer_bits),
        "mode_resolved": mode,
        "solution": [float(x) for x in solution],
        "exact_solution": [float(x) for x in record.exact],
        "relative_error": rel,
        "success_probability": sp,
    }
    if record.sampled is not None:
        payload["histogram"] = _by_bitstring(record.sampled.counts)
        payload["rng"] = sim.RNG_NAME

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
    fmt = _resolve_format(cfg, system.n, cfg["fraction_bits"])
    j = cfg["eigen_index"]
    if j is not None and cfg["input"] is not None:
        raise ValueError("give --eigen-index or --input, not both")
    if j is not None:
        if not 1 <= j <= system.dim:
            raise ValueError(f"eigen index must be in 1..{system.dim}, got {j}")
        qc._verification_layout(system.n, fmt)  # refuse before the O(N**2) eigenvectors
        vec = eigenpairs(system).vectors[:, j - 1]
    elif cfg["input"] is not None:
        vec = np.asarray(cfg["input"], dtype=float)
    else:
        raise ValueError("verify-phase needs --eigen-index or --input")
    sim.check_backend(cfg["backend"], cfg["shots"])

    built = qc.build_phase_verification(system, fmt, vec, cfg["phase_mode"])
    probs = sim.readout(built, built.layout.reg_e)
    config = _echo(cfg, system, integer_bits=fmt.integer_bits,
                   input=[float(x) for x in vec])
    payload: dict = {"config": config}
    if cfg["backend"] == "exact":
        readout = _by_bitstring(np.where(probs > 1e-12, probs, 0.0))
        payload["probabilities"] = readout
        spec = ".6f"
    else:
        readout = _by_bitstring(sim.draw_counts(probs, cfg["shots"], cfg["seed"]))
        payload["histogram"] = readout
        payload["rng"] = sim.RNG_NAME
        spec = ""
    for bits, value in readout.items():
        print(f"{bits} (decimal {int(bits, 2)}): {value:{spec}}")
    if cfg["output"]:
        _emit(_render_json(payload), cfg["output"])
    return 0


def cmd_sweep(cfg: dict) -> int:
    if not cfg["f_values"]:
        raise ValueError("sweep needs at least one f value")
    system = _resolve_system(cfg)
    formats = [_resolve_format(cfg, system.n, f) for f in cfg["f_values"]]
    rows = []
    for fmt in formats:
        row = analytics.sweep_record(
            _problem_label(system), system, fmt, mode=cfg["mode"], phase_mode=cfg["phase_mode"],
        )
        _warn_downgrade(cfg["mode"], row["mode"])
        rows.append(row)
    config = _echo(cfg, system, integer_bits=formats[0].integer_bits)
    if cfg["format"] == "csv":
        text = _render_csv(analytics.SWEEP_COLUMNS, rows, config)
    else:
        text = _render_json({"config": config, "rows": rows})
    _emit(text, cfg["output"])
    return 0


def cmd_resources(cfg: dict) -> int:
    rows = []
    for n in cfg["n_values"]:
        if n < 1:  # the flat stand-in below needs 2**n - 1 >= 1 entries
            raise ValueError(f"n must be >= 1, got {n}")
        fmt = _resolve_format(cfg, n, cfg["fraction_bits"])
        # both budgets before the stand-in's 2**n - 1 entries are allocated
        qc._pipeline_layout(n, fmt, cfg["mode"])
        dim = _check_dim(n)
        # resource shape is input-independent; a flat state stands in for b
        system = PoissonSystem(n=n, b=np.full(dim, dim**-0.5))
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
    # integer_bits is echoed as given: its default differs per problem size
    config = _echo(cfg)
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
    sim.check_shots(shots)
    # refuse too wide a model before any shot is drawn
    noise.check_calibration_width(model)
    rng = np.random.default_rng(seed)
    noisy = noise.corrupt(rng.multinomial(shots, p_ideal), model, seed + 1)
    mitigated = noise.mitigate(noisy, model)
    noisy_p = noisy / shots
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
    if cfg["preset"] is None and cfg["n"] is None and cfg["b"] is None:
        cfg = {**cfg, "preset": "table1-3x3"}
    system = _resolve_system(cfg)
    if cfg["noise_model"] is not None:
        model = noise.ReadoutModel.from_json(cfg["noise_model"])
        if model.width != system.n:
            raise ValueError(
                f"noise model width {model.width} does not match n = {system.n}"
            )
    else:
        model = noise.ReadoutModel.uniform(system.n, cfg["p01"], cfg["p10"])
    bhat = square_safe(system.b)
    bhat = bhat / np.linalg.norm(bhat)
    p_ideal = np.concatenate([[0.0], bhat**2])
    trial = mitigation_trial(p_ideal, model, cfg["shots"], cfg["seed"])

    config = _echo(cfg, system, p01=list(model.p01), p10=list(model.p10))
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


def _commands() -> dict:
    """Each subcommand's handler and help text; main looks the handler up when it runs."""
    return {
        "solve": (cmd_solve, "run the full pipeline"),
        "verify-phase": (cmd_verify_phase, "read the eigenvalue register after QPE"),
        "sweep": (cmd_sweep, "metrics across amplification widths"),
        "resources": (cmd_resources, "resource estimates across sizes"),
        "mitigate-demo": (cmd_mitigate_demo, "readout corrupt/mitigate round trip"),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qpoisson",
        description="Quantum solver pipeline for the 1D Poisson equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _commands().items():
        # no prefix matching: `resources --n` would otherwise read as --n-values
        sub_parser = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for opt in OPTIONS:
            if command in opt.commands:
                parse = _LIST_PARSERS.get(opt.type, opt.type)
                sub_parser.add_argument(opt.flag, dest=opt.name, type=parse, choices=opt.choices,
                                        help=opt.help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        return _commands()[args.command][0](cfg)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, QPoissonError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
