import numpy as np
import pytest

from qpoisson import circuit as qc
from qpoisson import simulator as sim
from qpoisson.analytics import SWEEP_COLUMNS
from qpoisson import (
    FixedPointFormat,
    PoissonSystem,
    RegisterLayout,
    analytic_success_probability,
    build_angle_table,
    build_pipeline,
    default_format,
    effective_lambda,
    eigenpairs,
    empirical_success_probability,
    exact_solve,
    expected_success_probability,
    relative_error,
    resource_report,
    solve,
    sweep_record,
)


def truncated_lambdas(system: PoissonSystem, fmt: FixedPointFormat) -> np.ndarray:
    table = build_angle_table(eigenpairs(system).lambdas, fmt)
    return np.array([effective_lambda(e, fmt) for e in table.encoded_lambdas])


def test_relative_error_basics():
    v = np.array([3.0, 4.0])
    assert relative_error(v, v) == 0.0
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert relative_error(e1, e2) == pytest.approx(2**0.5)
    with pytest.raises(ValueError):
        relative_error(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        relative_error(np.zeros(2), np.ones(2))


def test_relative_error_against_three_decimal_rounding(sys_3x3):
    rounded = np.array([0.553, 0.673, 0.490])
    err = relative_error(exact_solve(sys_3x3), rounded)
    assert err == pytest.approx(0.0010973367054974783, abs=1e-15)


def test_analytic_success_probability_values(sys_3x3, sys_7x7, sys_15x15):
    cases = {
        "3x3": (sys_3x3, 1.26953125, 1.3665177040466392),
        "7x7": (sys_7x7, 1.1535644531250002, 1.3367254703942137),
        "15x15": (sys_15x15, 1.1219024658203123, 1.3268286793365158),
    }
    for system, exact_sp, truncated_sp in cases.values():
        eigs = eigenpairs(system)
        assert analytic_success_probability(eigs.lambdas) == pytest.approx(exact_sp, abs=1e-12)
        fmt = FixedPointFormat(2 * system.n + 2, 0, 16)
        got = analytic_success_probability(truncated_lambdas(system, fmt))
        assert got == pytest.approx(truncated_sp, abs=1e-12)
        # truncation shrinks every eigenvalue, so 1/lambda^2 can only grow
        assert got >= analytic_success_probability(eigs.lambdas)


def test_analytic_success_probability_rejects_small_eigenvalues():
    with pytest.raises(ValueError):
        analytic_success_probability(np.array([0.5, 2.0]))


def test_expected_success_probability_frozen(sys_3x3):
    eigs = eigenpairs(sys_3x3)
    table = build_angle_table(eigs.lambdas, FixedPointFormat(6, 0, 10))
    got = expected_success_probability(eigs, table)
    assert got == pytest.approx(1.1170428611603302, abs=1e-12)


def test_expected_success_probability_matches_postselection(sys_3x3):
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 0, 10), mode="fused")
    _, success = sim.postselect(sim.run_exact(built), built.layout)
    eigs = eigenpairs(sys_3x3)
    expected = expected_success_probability(eigs, built.metadata["table"])
    assert abs(expected - 100.0 * success) < 1e-9


def test_expected_success_probability_unit_eigenvalue():
    eigs = eigenpairs(PoissonSystem(n=1, b=np.array([1.0])))
    table = build_angle_table(np.array([1.0]), FixedPointFormat(1, 0, 4))
    # encoded omega for lambda=1 is exactly one half, so the sine factor is 1
    assert expected_success_probability(eigs, table) == pytest.approx(100.0)


def test_expected_success_probability_length_mismatch(sys_3x3):
    eigs = eigenpairs(sys_3x3)
    table = build_angle_table(np.array([2.0]), FixedPointFormat(2, 0, 8))
    with pytest.raises(ValueError):
        expected_success_probability(eigs, table)


def test_empirical_success_probability():
    result = sim.RunResult(
        solution=np.array([1.0]),
        success_prob=0.0123,
        counts=np.array([9877, 0, 123, 0]),
        shots=10_000,
    )
    assert empirical_success_probability(result) == pytest.approx(1.23)


def test_resource_report_empty_circuit():
    circuit = qc.Circuit(layout=RegisterLayout(1, 1, 0), gates=(), metadata={})
    report = resource_report(circuit)
    assert report.total_qubits == 3
    assert report.depth == 0
    assert report.estimated_cnots == 0
    assert report.estimated_fidelity == 1.0
    assert not report.washed_out


def test_resource_report_costs_and_depth():
    layout = RegisterLayout(2, 2, 0)
    gates = (
        qc.hadamard(0),                                   # free
        qc.multi_controlled_x((0,), 1),                   # 1
        qc.multi_controlled_x((0, 1), 2),                 # 5
        qc.multi_controlled_ry((0, 1, 2), 3, 0.5),        # 13
        qc.controlled_unitary((), (0, 1), np.eye(4)),     # 16
        qc.swap(3, 4),                                    # 3
    )
    circuit = qc.Circuit(layout=layout, gates=gates, metadata={})
    report = resource_report(circuit)
    assert report.estimated_cnots == 1 + 5 + 13 + 16 + 3
    assert report.gate_counts["MCX"] == 2
    # greedy schedule: q0 runs H(1) MCX(1) MCX(5) MCRY(13) CU(16) back to back
    assert report.depth == 1 + 1 + 5 + 13 + 16
    assert report.register_widths == {"b": 2, "e": 2, "a": 0, "ancilla": 1}
    assert report.total_qubits == 5
    assert report.estimated_fidelity == pytest.approx(0.92 ** report.estimated_cnots)


def _reference_cost(gate: qc.Gate) -> int:
    """The estimator convention of the analytics docstring, one gate at a time."""
    if gate.kind == qc.SWAP:
        return 3
    if gate.kind in (qc.MULTI_CONTROLLED_X, qc.MULTI_CONTROLLED_RY):
        c = len(gate.controls)
        return 2 * c * c - 2 * c + 1 if c else 0
    if gate.kind == qc.CONTROLLED_UNITARY:
        return 4 ** len(gate.targets)
    return 0


def _reference_report(circuit: qc.Circuit) -> tuple[dict, int, int]:
    """(gate_counts, depth, estimated_cnots), literally per gate: a greedy per-qubit schedule."""
    counts: dict[str, int] = {}
    cnots, levels = 0, [0] * circuit.layout.total
    for gate in circuit.gates:
        counts[gate.kind] = counts.get(gate.kind, 0) + 1
        cost = _reference_cost(gate)
        cnots += cost
        start = max(levels[q] for q in gate.qubits)
        for q in gate.qubits:
            levels[q] = start + max(1, cost)
    return counts, max(levels) if circuit.gates else 0, cnots


@pytest.mark.parametrize("seed", range(8))
def test_resource_report_matches_a_per_gate_reference(seed):
    """Random circuits of all six kinds, each with 0 to 3 controls, and the empty circuit."""
    rng = np.random.default_rng(seed)
    layout = RegisterLayout(2, 3, 1)  # 7 qubits
    kinds = (qc.HADAMARD, qc.PAULI_X, qc.SWAP, qc.MULTI_CONTROLLED_X,
             qc.MULTI_CONTROLLED_RY, qc.CONTROLLED_UNITARY)
    gates = []
    for _ in range(int(rng.integers(20, 60))):
        kind = kinds[int(rng.integers(len(kinds)))]
        width = 2 if kind == qc.SWAP else int(rng.integers(1, 3)) if kind == qc.CONTROLLED_UNITARY else 1
        qubits = [int(q) for q in rng.permutation(layout.total)[: width + int(rng.integers(0, 4))]]
        targets, controls = tuple(qubits[:width]), tuple(qubits[width:])
        matrix = np.eye(2 ** width) if kind == qc.CONTROLLED_UNITARY else None
        gates.append(qc.Gate(kind, targets, controls, angle=0.25, matrix=matrix))
    for circuit in (qc.Circuit(layout, tuple(gates)), qc.Circuit(layout, ())):
        report = resource_report(circuit)
        counts, depth, cnots = _reference_report(circuit)
        assert list(report.gate_counts.items()) == list(counts.items())  # key order too
        assert (report.depth, report.estimated_cnots) == (depth, cnots)
    assert len({g.kind for g in gates}) == 6 and {len(g.controls) for g in gates} == {0, 1, 2, 3}


def test_resource_report_qubit_totals_follow_affine_formula(sys_3x3, sys_7x7, sys_15x15):
    for system in (sys_3x3, sys_7x7, sys_15x15):
        fmt = FixedPointFormat(2 * system.n + 2, 8, 16)
        built = build_pipeline(system, fmt, mode="fused")
        report = resource_report(built)
        assert report.total_qubits == 3 * system.n + 8 + 3


def test_sweep_record_shape(sys_3x3):
    record = sweep_record("3x3", sys_3x3, FixedPointFormat(6, 4, 16))
    assert tuple(record) == SWEEP_COLUMNS
    assert record["problem"] == "3x3"
    assert record["f"] == 4
    # auto resolves to explicit at this size; the record reports what ran
    assert record["mode"] == "explicit"
    assert record["rel_error"] < 0.01
    assert record["sp_analytic_exact"] == pytest.approx(1.26953125)
    assert isinstance(record["sp_expected"], float)


@pytest.mark.parametrize("backend", ("exact", "sample"))
def test_solve_matches_the_pipeline_calls(sys_3x3, backend):
    fmt = FixedPointFormat(6, 4, 10)
    record = solve(sys_3x3, fmt, mode="fused", backend=backend, shots=20_000, seed=9)
    built = build_pipeline(sys_3x3, fmt, mode="fused")
    if backend == "exact":
        solution, success = sim.readout(built)
        run_percent = 100.0 * success
        assert record.sampled is None
    else:
        result = sim.sample(built, 20_000, 9)
        solution, run_percent = result.solution, empirical_success_probability(result)
        assert np.array_equal(record.sampled.counts, result.counts)
    exact = exact_solve(sys_3x3)
    eigs = eigenpairs(sys_3x3)
    table = built.metadata["table"]
    effective = np.array([effective_lambda(bits, fmt) for bits in table.encoded_lambdas])
    assert record.circuit.metadata["mode"] == "fused"
    assert np.array_equal(record.solution, solution)
    assert np.array_equal(record.exact, exact)
    assert record.rel_error == relative_error(exact, solution)
    assert record.run_percent == run_percent
    assert record.expected_percent == expected_success_probability(eigs, table)
    assert record.analytic_truncated_percent == analytic_success_probability(effective)
    assert record.analytic_exact_percent == analytic_success_probability(eigs.lambdas)


def test_sampled_relative_error_compares_magnitudes():
    """Sampling estimates |x|, so a sampled solve's error is taken against |exact|."""
    system = PoissonSystem(n=2, b=np.array([1.0, 0.0, -1.0]))
    fmt = default_format(2, 8, 16)
    record = solve(system, fmt, backend="sample", shots=10**6, seed=1234)
    assert np.any(record.exact < 0) and np.all(record.solution >= 0)
    assert record.rel_error == relative_error(np.abs(record.exact), record.solution)
    assert record.rel_error < 0.01
    # the exact backend keeps the sign, and its error is taken against the signed solution
    exact = solve(system, fmt)
    assert exact.rel_error == relative_error(exact.exact, exact.solution) < 1e-3
