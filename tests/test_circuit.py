from collections import Counter

import numpy as np
import pytest

from qpoisson import circuit as qc
from qpoisson import simulator as sim
from qpoisson import (
    FixedPointFormat,
    PoissonSystem,
    RegisterLayout,
    ResourceError,
    build_angle_table,
    build_phase_verification,
    build_pipeline,
    eigenpairs,
)

GOLDEN_1X1_DUMP = """\
CU q[0] (dim=2, label=load_b)
H q[1]
H q[2]
H q[3]
H q[4]
CU c[4] q[0] (dim=2, label=walk^1)
CU c[3] q[0] (dim=2, label=walk^2)
CU c[2] q[0] (dim=2, label=walk^4)
CU c[1] q[0] (dim=2, label=walk^8)
SWAP q[2,3]
SWAP q[1,4]
H q[4]
CU c[4] q[3] (dim=2, label=cphase(1.57079632679)^-1)
H q[3]
CU c[4] q[2] (dim=2, label=cphase(0.785398163397)^-1)
CU c[3] q[2] (dim=2, label=cphase(1.57079632679)^-1)
H q[2]
CU c[4] q[1] (dim=2, label=cphase(0.392699081699)^-1)
CU c[3] q[1] (dim=2, label=cphase(0.785398163397)^-1)
CU c[2] q[1] (dim=2, label=cphase(1.57079632679)^-1)
H q[1]
H q[1]
CU c[2] q[1] (dim=2, label=cphase(1.57079632679)^-1^-1)
CU c[3] q[1] (dim=2, label=cphase(0.785398163397)^-1^-1)
CU c[4] q[1] (dim=2, label=cphase(0.392699081699)^-1^-1)
H q[2]
CU c[3] q[2] (dim=2, label=cphase(1.57079632679)^-1^-1)
CU c[4] q[2] (dim=2, label=cphase(0.785398163397)^-1^-1)
H q[3]
CU c[4] q[3] (dim=2, label=cphase(1.57079632679)^-1^-1)
H q[4]
SWAP q[1,4]
SWAP q[2,3]
CU c[1] q[0] (dim=2, label=walk^8^-1)
CU c[2] q[0] (dim=2, label=walk^4^-1)
CU c[3] q[0] (dim=2, label=walk^2^-1)
CU c[4] q[0] (dim=2, label=walk^1^-1)
H q[4]
H q[3]
H q[2]
H q[1]"""


def dft_matrix(q: int) -> np.ndarray:
    dim = 2**q
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)


def test_qft_fragment_matches_dft():
    gates = qc.qft_fragment((0, 1, 2))
    u = sim.fragment_unitary(gates, 3)
    assert np.max(np.abs(u - dft_matrix(3))) < 1e-12


def test_fragment_inversion_is_exact():
    gates = qc.qft_fragment((0, 1, 2)) + [
        qc.ry(1, 0.7),
        qc.multi_controlled_x((0, 2), 1),
        qc.phase(2, -1.1),
    ]
    u = sim.fragment_unitary(gates, 3)
    u_inv = sim.fragment_unitary(qc.invert_fragment(gates), 3)
    assert np.max(np.abs(u_inv @ u - np.eye(8))) < 1e-12


def test_invert_gate_kinds():
    assert qc.invert_gate(qc.hadamard(0)).kind == qc.HADAMARD
    assert qc.invert_gate(qc.ry(0, 0.5)).angle == -0.5
    cu = qc.controlled_unitary((0,), (1,), np.diag([1.0, 1j]))
    inv = qc.invert_gate(cu)
    assert np.allclose(inv.matrix, np.diag([1.0, -1j]))


def test_state_prep_unitary():
    vec = np.array([3.0, 0.0, 4.0, 0.0])
    u = state = qc.state_prep_unitary(vec)
    assert np.max(np.abs(u.T @ u - np.eye(4))) < 1e-12
    assert np.allclose(u[:, 0], vec / 5.0)
    with pytest.raises(ValueError):
        qc.state_prep_unitary(np.zeros(3))


def test_embedding_accepts_grid_or_full_vector():
    grid = np.array([1.0, 2.0, 3.0])
    full = qc._embed_grid_vector(grid, 2)
    assert np.allclose(full, [0.0, 1.0, 2.0, 3.0])
    assert np.allclose(qc._embed_grid_vector(full, 2), full)
    with pytest.raises(ValueError):
        qc._embed_grid_vector(np.ones(5), 2)
    with pytest.raises(ValueError):
        # a full-length vector must leave the boundary slot empty
        qc._embed_grid_vector(np.ones(4), 2)


def test_gate_factories_validate():
    with pytest.raises(ValueError):
        qc.controlled_unitary((), (0,), np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        qc.multi_controlled_ry((1,), 1, 0.3)
    with pytest.raises(ValueError):
        qc.swap(2, 2)
    with pytest.raises(ValueError):
        qc.multi_controlled_x((0, 0), 1)


def test_circuit_rejects_out_of_range_gates():
    layout = RegisterLayout(1, 1, 0)
    with pytest.raises(ValueError):
        qc.Circuit(layout=layout, gates=(qc.hadamard(7),), metadata={})


def test_qpe_reads_encoded_eigenvalues(sys_3x3):
    fmt = FixedPointFormat(6, 0, 10)
    eigs = eigenpairs(sys_3x3)
    expected = {1: "001001", 2: "100000", 3: "110110"}
    for j, bits in expected.items():
        built = build_phase_verification(sys_3x3, fmt, eigs.vectors[:, j - 1])
        state = sim.run_exact(built)
        probs = sim.register_probabilities(state, built.layout.reg_e)
        assert probs[int(bits, 2)] == pytest.approx(1.0, abs=1e-10)


def test_qpe_mixed_input_weights(sys_3x3):
    fmt = FixedPointFormat(6, 0, 10)
    eigs = eigenpairs(sys_3x3)
    mixed = 0.5 * eigs.vectors[:, 0] + 2**-0.5 * eigs.vectors[:, 1] + 0.5 * eigs.vectors[:, 2]
    built = build_phase_verification(sys_3x3, fmt, mixed)
    probs = sim.register_probabilities(sim.run_exact(built), built.layout.reg_e)
    assert probs[9] == pytest.approx(0.25, abs=1e-10)
    assert probs[32] == pytest.approx(0.5, abs=1e-10)
    assert probs[54] == pytest.approx(0.25, abs=1e-10)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_true_phase_mode_spreads_non_integer_eigenvalues(sys_3x3):
    fmt = FixedPointFormat(6, 0, 10)
    eigs = eigenpairs(sys_3x3)
    # lambda_2 = 32 is exactly representable: both modes read it exactly
    built = build_phase_verification(sys_3x3, fmt, eigs.vectors[:, 1], phase_mode="true_a")
    probs = sim.register_probabilities(sim.run_exact(built), built.layout.reg_e)
    assert probs[32] == pytest.approx(1.0, abs=1e-10)
    # lambda_1 = 9.37... is not: the true phase leaks into neighboring bins
    built = build_phase_verification(sys_3x3, fmt, eigs.vectors[:, 0], phase_mode="true_a")
    probs = sim.register_probabilities(sim.run_exact(built), built.layout.reg_e)
    assert np.argmax(probs) == 9
    assert probs[9] < 1.0 - 1e-6


def test_true_a_phases_beyond_the_float_range():
    eigs = eigenpairs(PoissonSystem(n=1, b=np.ones(1)))  # lambda = 8
    powers = qc._spectral_powers(eigs, FixedPointFormat(6, 1100, 16), 1, "true_a")
    assert len(powers) == 1106
    assert all(np.allclose(u @ u.conj().T, np.eye(2)) for u in powers)
    # U**(2**k) turns by lambda 2**(k - i) = 2**(k - 3): 1/8, 1/4 and 1/2 for k < 3
    assert [u[1, 1] for u in powers[:3]] == pytest.approx([np.exp(0.25j * np.pi), 1j, -1])
    assert powers[-1][1, 1] == 1  # 2**1102 whole turns


def test_mode_resolution(sys_3x3):
    small = FixedPointFormat(6, 0, 10)
    built = build_pipeline(sys_3x3, small, mode="auto")
    assert built.metadata["mode"] == "explicit"
    big = FixedPointFormat(6, 8, 16)
    built = build_pipeline(sys_3x3, big, mode="auto")
    assert built.metadata["mode"] == "fused"
    with pytest.raises(ValueError):
        build_pipeline(sys_3x3, small, mode="sideways")


def test_metadata_holds_only_what_is_read(sys_3x3):
    fmt = FixedPointFormat(6, 0, 10)
    for mode in ("explicit", "fused"):
        assert set(build_pipeline(sys_3x3, fmt, mode=mode).metadata) == {
            "mode", "eigs", "table", "walk_basis"}
    built = build_phase_verification(sys_3x3, fmt, sys_3x3.b)
    assert set(built.metadata) == {"walk_basis"}


@pytest.mark.parametrize(
    "build",
    (
        lambda s, f: build_pipeline(s, f, mode="explicit"),
        lambda s, f: build_pipeline(s, f, mode="fused"),
        lambda s, f: build_pipeline(s, f, mode="auto"),
        lambda s, f: build_phase_verification(s, f, s.b),
    ),
    ids=("pipeline-explicit", "pipeline-fused", "pipeline-auto", "verification"),
)
def test_builders_refuse_over_budget_before_spectral_work(monkeypatch, build):
    def no_spectral_work(*args):
        raise AssertionError("an over-budget layout must be refused before this")

    monkeypatch.setattr(qc, "eigenpairs", no_spectral_work)
    monkeypatch.setattr(qc, "build_angle_table", no_spectral_work)
    n = 9  # 9 + 28 + 1 qubits: over budget, but a matrix under MAX_MODEL_DIM
    system = PoissonSystem(n=n, b=np.ones(2**n - 1))
    with pytest.raises(ResourceError, match="needs"):
        build(system, FixedPointFormat(2 * n + 2, 8, 16))


def test_explicit_layout_matches_kept_columns(sys_3x3):
    fmt = FixedPointFormat(6, 0, 10)
    built = build_pipeline(sys_3x3, fmt, mode="explicit")
    table = built.metadata["table"]
    assert built.layout.a_width == len(table.kept_columns)
    assert built.layout.total == sys_3x3.n + fmt.total_bits + len(table.kept_columns) + 1


def test_pipeline_budget(sys_15x15):
    fmt = FixedPointFormat(10, 8, 16)
    with pytest.raises(ResourceError):
        build_pipeline(sys_15x15, fmt, mode="explicit")
    # refused on the fused layout alone, 4 + 30 + 1 qubits: reg A is not yet counted
    with pytest.raises(ResourceError, match="explicit pipeline needs at least 35 qubits"):
        build_pipeline(sys_15x15, FixedPointFormat(10, 20, 16), mode="explicit")


@pytest.mark.parametrize(
    "build",
    (
        lambda s, f: build_pipeline(s, f, mode="sideways"),
        lambda s, f: build_pipeline(s, f, phase_mode="fake"),
        lambda s, f: build_phase_verification(s, f, s.b, phase_mode="fake"),
    ),
    ids=("pipeline-mode", "pipeline-phase-mode", "verification-phase-mode"),
)
def test_builders_check_choices_on_entry(sys_3x3, monkeypatch, build):
    def no_eigenpairs(system):
        raise AssertionError("a bad choice must be refused before the spectrum is built")

    monkeypatch.setattr(qc, "eigenpairs", no_eigenpairs)
    with pytest.raises(ValueError, match="must be one of"):
        build(sys_3x3, FixedPointFormat(6, 0, 10))


def test_explicit_rotation_structure(sys_3x3):
    fmt = FixedPointFormat(6, 0, 10)
    table = build_angle_table(eigenpairs(sys_3x3).lambdas, fmt)
    layout = RegisterLayout(2, 6, len(table.kept_columns))
    gates = qc.build_rotation_explicit(table, layout)
    kinds = Counter(g.kind for g in gates)
    # per row: X-conjugated loads appear twice, one Ry per kept column
    assert kinds[qc.MULTI_CONTROLLED_RY] == 3 * len(table.kept_columns)
    assert kinds[qc.MULTI_CONTROLLED_X] == 12
    assert kinds[qc.PAULI_X] == 12
    for gate in gates:
        if gate.kind == qc.MULTI_CONTROLLED_RY:
            assert gate.targets == (layout.ancilla,)
            assert len(gate.controls) == 1 and gate.controls[0] in layout.reg_a


def test_fused_rotation_structure(sys_3x3):
    fmt = FixedPointFormat(6, 0, 10)
    table = build_angle_table(eigenpairs(sys_3x3).lambdas, fmt)
    layout = RegisterLayout(2, 6, 0)
    gates = qc.build_rotation_fused(table, layout)
    kinds = Counter(g.kind for g in gates)
    # prefixes 00, 10, 11: four, two, and zero conjugating X gates
    assert kinds[qc.MULTI_CONTROLLED_RY] == 3
    assert kinds[qc.PAULI_X] == 6
    for gate in gates:
        if gate.kind == qc.MULTI_CONTROLLED_RY:
            assert gate.controls == layout.reg_e[: table.prefix_len]


def test_fused_rotation_skips_zero_angles():
    # omega of a huge eigenvalue rounds to zero in a narrow angle register
    fmt = FixedPointFormat(10, 0, 4)
    table = build_angle_table(np.array([2.0, 1000.0]), fmt)
    assert table.encoded_omegas[1] == "0000"
    layout = RegisterLayout(1, 10, 0)
    gates = qc.build_rotation_fused(table, layout)
    assert sum(g.kind == qc.MULTI_CONTROLLED_RY for g in gates) == 1


def test_pipeline_is_unitary(sys_3x3):
    fmt = FixedPointFormat(6, 0, 10)
    built = build_pipeline(sys_3x3, fmt, mode="fused")
    u = sim.circuit_unitary(built)
    dim = 2**built.layout.total
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-9


def test_pipeline_uncomputes_work_registers(sys_3x3):
    fmt = FixedPointFormat(6, 0, 10)
    built = build_pipeline(sys_3x3, fmt, mode="explicit")
    state = sim.run_exact(built)
    for reg in (built.layout.reg_e, built.layout.reg_a):
        probs = sim.register_probabilities(state, reg)
        assert probs[0] == pytest.approx(1.0, abs=1e-9)


def test_dump_golden():
    system = PoissonSystem(n=1, b=np.array([1.0]))
    built = build_pipeline(system, FixedPointFormat(4, 0, 3), mode="fused")
    assert built.dump() == GOLDEN_1X1_DUMP
