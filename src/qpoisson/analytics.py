"""The library solve path, error metrics, success probabilities, resources.

Success probabilities are reported as percentages throughout.  With the
rotation constant C = 1 the ancilla lands on |1> with amplitude sin(pi*omega_j)
= 1/lambda_j per eigencomponent, so the analytic ceiling for a uniform
eigenmixture is 100 * sum(1/lambda^2) and the exact post-selection probability
of a pipeline run is the beta-weighted variant using the finite-precision
angles actually loaded.

Resource estimates use declared estimator conventions, not a transpiler:
a multi-controlled gate with c controls counts 2c^2 - 2c + 1 two-qubit gates
(ancilla-free quadratic construction), a controlled dense unitary on t
targets counts 4^t (order-of-magnitude bound), a swap counts 3, plain
single-qubit gates count 0.  Depth is greedy per-qubit scheduling where each
gate occupies max(1, its two-qubit cost) layers on every qubit it touches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import circuit as qc
from . import simulator as sim
from .encoding import AngleTable, FixedPointFormat, decode_fraction, effective_lambda
from .model import EigenData, PoissonSystem, exact_solve
from .noise import fidelity_estimate

__all__ = [
    "WASHED_OUT_THRESHOLD",
    "SWEEP_COLUMNS",
    "ResourceReport",
    "SolveRecord",
    "solve",
    "relative_error",
    "analytic_success_probability",
    "expected_success_probability",
    "empirical_success_probability",
    "resource_report",
    "sweep_record",
]

# Below this forecast fidelity a hardware run returns noise, not signal.
WASHED_OUT_THRESHOLD = 1e-6

SWEEP_COLUMNS = (
    "problem",
    "f",
    "l",
    "mode",
    "rel_error",
    "sp_expected",
    "sp_analytic_truncated",
    "sp_analytic_exact",
    "qubits",
    "depth",
    "cnots_est",
)


def relative_error(exact: np.ndarray, approx: np.ndarray) -> float:
    """Euclidean norm of (exact - approx) over the norm of exact."""
    exact = np.asarray(exact, dtype=float)
    approx = np.asarray(approx, dtype=float)
    if exact.shape != approx.shape:
        raise ValueError(f"shape mismatch: {exact.shape} vs {approx.shape}")
    scale = float(np.linalg.norm(exact))
    if scale == 0.0:
        raise ValueError("exact vector must be nonzero")
    return float(np.linalg.norm(exact - approx)) / scale


def analytic_success_probability(lambdas: np.ndarray) -> float:
    """Percentage 100 * sum(1/lambda^2), the uniform-mixture ceiling.

    sin(pi * omega) = 1/lambda exactly for omega = arccot(sqrt(lambda^2-1))/pi,
    so this is the angle formula with every amplitude weight set to 1.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(lambdas < 1.0):
        raise ValueError("eigenvalues below 1 cannot be rotation-encoded")
    return float(100.0 * np.sum(1.0 / lambdas**2))


def expected_success_probability(eigs: EigenData, table: AngleTable) -> float:
    """Percentage the exact run post-selects: 100 * sum beta^2 sin^2(pi w)."""
    if len(eigs.betas) != len(table.encoded_omegas):
        raise ValueError("eigendata and angle table disagree on system size")
    total = 0.0
    for beta, bits in zip(eigs.betas, table.encoded_omegas):
        omega_hat = decode_fraction(bits)
        total += beta**2 * np.sin(np.pi * omega_hat) ** 2
    return float(100.0 * total)


def empirical_success_probability(result: sim.RunResult) -> float:
    """Percentage of trials that post-selected successfully."""
    return 100.0 * result.success_prob


def _two_qubit_cost(gate: qc.Gate) -> int:
    if gate.kind == qc.SWAP:
        return 3
    if gate.kind in (qc.MULTI_CONTROLLED_X, qc.MULTI_CONTROLLED_RY):
        c = len(gate.controls)
        return 2 * c * c - 2 * c + 1 if c else 0
    if gate.kind == qc.CONTROLLED_UNITARY:
        return 4 ** len(gate.targets)
    return 0


@dataclass(frozen=True)
class ResourceReport:
    total_qubits: int
    register_widths: dict[str, int]
    gate_counts: dict[str, int]
    depth: int
    estimated_cnots: int
    estimated_fidelity: float

    @property
    def washed_out(self) -> bool:
        return self.estimated_fidelity < WASHED_OUT_THRESHOLD


def resource_report(circuit: qc.Circuit) -> ResourceReport:
    """Count gates, estimate CNOTs and depth, forecast fidelity."""
    layout = circuit.layout
    widths = {
        "b": layout.b_width,
        "e": layout.e_width,
        "a": layout.a_width,
        "ancilla": 1,
    }
    counts: Counter[str] = Counter()
    cnots = 0
    levels = [0] * layout.total
    for gate in circuit.gates:
        counts[gate.kind] += 1
        cost = _two_qubit_cost(gate)
        cnots += cost
        weight = max(1, cost)
        qubits = gate.qubits
        start = max(levels[q] for q in qubits)
        for q in qubits:
            levels[q] = start + weight
    depth = max(levels) if circuit.gates else 0
    return ResourceReport(
        total_qubits=layout.total,
        register_widths=widths,
        gate_counts=dict(counts),
        depth=depth,
        estimated_cnots=cnots,
        estimated_fidelity=fidelity_estimate(cnots),
    )


@dataclass(frozen=True)
class SolveRecord:
    """One solve: the circuit that ran, its solution, and its metrics.

    The solution is signed on the exact backend and holds magnitudes on the
    sample backend, whose RunResult is `sampled`.  run_percent is the run's
    post-selection percentage, exact or the kept-shot fraction.
    """

    circuit: qc.Circuit
    solution: np.ndarray
    exact: np.ndarray
    rel_error: float
    run_percent: float
    expected_percent: float
    analytic_truncated_percent: float
    analytic_exact_percent: float
    sampled: sim.RunResult | None = None


def solve(system: PoissonSystem, fmt: FixedPointFormat, *, mode: str = "auto",
          phase_mode: str = "encoded", backend: str = "exact", shots: int = 1_000_000,
          seed: int = 1234) -> SolveRecord:
    """Build the pipeline, run it on either backend, and collect the metrics.

    backend is one of simulator.BACKENDS; shots and seed drive the sample
    backend only, but shots must be >= 1 either way.
    """
    sim.check_backend(backend, shots)
    built = qc.build_pipeline(system, fmt, mode=mode, phase_mode=phase_mode)
    eigs: EigenData = built.metadata["eigs"]
    table: AngleTable = built.metadata["table"]
    sampled = None
    if backend == "exact":
        solution, success = sim.postselect(sim.run_exact(built), built.layout)
        run_percent = float(100.0 * success)
    else:
        sampled = sim.sample(built, shots, seed)
        solution = sampled.solution
        run_percent = empirical_success_probability(sampled)
    exact = exact_solve(system)
    effective = np.array([effective_lambda(bits, fmt) for bits in table.encoded_lambdas])
    return SolveRecord(
        circuit=built,
        solution=solution,
        exact=exact,
        rel_error=relative_error(exact, solution),
        run_percent=run_percent,
        expected_percent=expected_success_probability(eigs, table),
        analytic_truncated_percent=analytic_success_probability(effective),
        analytic_exact_percent=analytic_success_probability(eigs.lambdas),
        sampled=sampled,
    )


def sweep_record(
    problem: str,
    system: PoissonSystem,
    fmt: FixedPointFormat,
    mode: str = "auto",
    phase_mode: str = "encoded",
) -> dict:
    """One amplification-sweep row: solve exactly, add the resource report."""
    record = solve(system, fmt, mode=mode, phase_mode=phase_mode)
    report = resource_report(record.circuit)
    return {
        "problem": problem,
        "f": fmt.fraction_bits,
        "l": fmt.angle_bits,
        "mode": record.circuit.metadata["mode"],
        "rel_error": record.rel_error,
        "sp_expected": record.run_percent,
        "sp_analytic_truncated": record.analytic_truncated_percent,
        "sp_analytic_exact": record.analytic_exact_percent,
        "qubits": report.total_qubits,
        "depth": report.depth,
        "cnots_est": report.estimated_cnots,
    }
