import hashlib
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial

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
    default_format,
    eigenpairs,
)
from qpoisson.cli import PRESETS
from reference import dump, fragment_unitary

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
    u = fragment_unitary(gates, 3)
    assert np.max(np.abs(u - dft_matrix(3))) < 1e-12


def test_fragment_inversion_is_exact():
    gates = qc.qft_fragment((0, 1, 2)) + [
        qc.multi_controlled_ry((), 1, 0.7),
        qc.multi_controlled_x((0, 2), 1),
        qc.controlled_unitary((), (2,), np.diag([1.0, np.exp(-1.1j)])),
    ]
    u = fragment_unitary(gates, 3)
    u_inv = fragment_unitary(qc.invert_fragment(gates), 3)
    assert np.max(np.abs(u_inv @ u - np.eye(8))) < 1e-12


def test_every_ir_kind_is_emitted_on_the_table1_grid():
    """A kind no builder emits is an alias of another: the IR must not define one."""
    kinds = {value for name, value in vars(qc).items()
             if name in qc.__all__ and name.isupper() and isinstance(value, str)}
    emitted = set()
    for preset in PRESETS.values():
        system = PoissonSystem(n=preset["n"], b=np.asarray(preset["b"]))
        for f in (0, 4, 8):
            fmt = default_format(system.n, f, 16)
            circuits = [build_phase_verification(system, fmt, system.b)]
            for mode in qc.MODES:
                for phase_mode in qc.PHASE_MODES:
                    try:
                        circuits.append(build_pipeline(system, fmt, mode, phase_mode))
                    except ResourceError:  # explicit layouts over the budget
                        continue
            emitted.update(g.kind for circuit in circuits for g in circuit.gates)
    assert emitted == kinds


def test_invert_gate_kinds():
    assert qc.invert_gate(qc.hadamard(0)).kind == qc.HADAMARD
    assert qc.invert_gate(qc.multi_controlled_ry((), 0, 0.5)).angle == -0.5
    cu = qc.controlled_unitary((0,), (1,), np.diag([1.0, 1j]))
    inv = qc.invert_gate(cu)
    assert np.allclose(inv.matrix, np.diag([1.0, -1j]))


def test_invert_gate_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown gate kind RZ"):
        qc.invert_gate(qc.Gate("RZ", (0,)))


def test_state_prep_unitary():
    vec = np.array([3.0, 0.0, 4.0, 0.0])
    u = state = qc.state_prep_unitary(vec)
    assert np.max(np.abs(u.T @ u - np.eye(4))) < 1e-12
    assert np.allclose(u[:, 0], vec / 5.0)
    with pytest.raises(ValueError):
        qc.state_prep_unitary(np.zeros(3))
    # a vector along e_0 needs no reflection
    assert np.array_equal(qc.state_prep_unitary(np.array([2.0, 0.0, 0.0, 0.0])), np.eye(4))


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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            qc._embed_grid_vector(np.array([1.0, bad, 3.0]), 2)


def test_gate_factories_validate():
    with pytest.raises(ValueError):
        qc.controlled_unitary((), (0,), np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"shape \(4, 4\) does not match 1 targets"):
        qc.controlled_unitary((), (0,), np.eye(4))
    # a non-finite entry makes the drift nan, which must not pass as small
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        for where in ((0, 0), (1, 0)):
            matrix = np.eye(2, dtype=complex)
            matrix[where] = bad
            with pytest.raises(ValueError, match="not unitary"):
                qc.controlled_unitary((), (0,), matrix)
    with pytest.raises(ValueError):
        qc.multi_controlled_ry((1,), 1, 0.3)
    with pytest.raises(ValueError):
        qc.swap(2, 2)
    with pytest.raises(ValueError):
        qc.multi_controlled_x((0, 0), 1)


@pytest.mark.parametrize("widths", [(0, 1, 0), (1, -1, 0), (1, 1, -1)])
def test_register_layout_refuses_negative_widths(widths):
    with pytest.raises(ValueError, match="register widths"):
        RegisterLayout(*widths)


def test_builders_refuse_a_layout_of_the_wrong_width(sys_3x3):
    fmt = FixedPointFormat(6, 0, 10)
    eigs = eigenpairs(sys_3x3)
    with pytest.raises(ValueError, match="e_width 5 != format total_bits 6"):
        qc.build_qpe(eigs, fmt, RegisterLayout(2, 5, 0))
    table = build_angle_table(eigs.lambdas, fmt)
    with pytest.raises(ValueError, match="reg A width"):
        qc.build_rotation_explicit(table, RegisterLayout(2, 6, len(table.kept_columns) + 1))


@pytest.mark.parametrize("phase_mode", qc.PHASE_MODES)
def test_walk_powers_are_checked_unitary_once_per_build(monkeypatch, sys_3x3, phase_mode):
    """A non-unitary walk power is the program's own fault: RuntimeError, never bad input."""
    fmt = FixedPointFormat(6, 0, 10)
    powers = qc._spectral_powers(eigenpairs(sys_3x3), fmt, 2, phase_mode)
    assert powers.shape == (6, 4, 4) and not powers.flags.writeable
    built = build_pipeline(sys_3x3, fmt, "fused", phase_mode)
    walks = [g for g in built.gates if g.label.startswith("walk^") and "^-1" not in g.label]
    assert all(np.array_equal(g.matrix, u) and not g.matrix.flags.writeable
               for g, u in zip(walks, powers, strict=True))
    walk_basis = qc._walk_basis
    monkeypatch.setattr(qc, "_walk_basis", lambda eigs, n: walk_basis(eigs, n) * (1 + 1e-6))
    with pytest.raises(RuntimeError, match="walk powers are not unitary"):
        build_pipeline(sys_3x3, fmt, "fused", phase_mode)
    with pytest.raises(RuntimeError, match="walk powers are not unitary"):
        build_phase_verification(sys_3x3, fmt, sys_3x3.b, phase_mode)


def test_circuit_rejects_out_of_range_gates():
    layout = RegisterLayout(1, 1, 0)
    with pytest.raises(ValueError):
        qc.Circuit(layout=layout, gates=(qc.hadamard(7),), metadata={})


def test_circuit_refuses_negative_qubits():
    layout = RegisterLayout(1, 1, 0)
    # pauli_x(-2) would flip qubit 1 and hadamard(-1) would hold every qubit
    with pytest.raises(ValueError, match=r"qubits \[-2\] are outside"):
        sim.run_exact(qc.Circuit(layout, (qc.pauli_x(-2),)))
    with pytest.raises(ValueError, match=r"qubits \[-1\] are outside"):
        sim.run_exact(qc.Circuit(layout, (qc.hadamard(-1),)))
    # one check covers every kind, directly built gates included
    matrix = np.eye(2, dtype=complex)
    for gate in (qc.Gate(qc.SWAP, (0, -1)), qc.Gate(qc.MULTI_CONTROLLED_X, (0,), (-1,)),
                 qc.Gate(qc.MULTI_CONTROLLED_RY, (-1,), (0,), angle=0.3),
                 qc.Gate(qc.CONTROLLED_UNITARY, (1,), (-3,), matrix=matrix),
                 qc.Gate(qc.CONTROLLED_UNITARY, (3,), (0,), matrix=matrix)):
        with pytest.raises(ValueError, match="outside the 3-qubit layout"):
            qc.Circuit(layout, (qc.hadamard(0), gate))
    assert qc.Circuit(layout, (qc.Gate(qc.SWAP, (0, 2)), qc.pauli_x(1))).gates


def test_controlled_phase_refuses_what_can_fail():
    for bad in (np.nan, np.inf, -np.inf, float("nan")):
        with pytest.raises(ValueError, match="finite real"):
            qc.controlled_phase(0, 1, bad)
    for bad in (0.5 + 0j, 1j, np.complex128(0.5), np.complex64(0.25 + 1j)):
        with pytest.raises(ValueError, match="finite real"):
            qc.controlled_phase(0, 1, bad)
    with pytest.raises(ValueError, match="distinct"):
        qc.controlled_phase(2, 2, 0.3)
    with pytest.raises(ValueError, match="negative"):
        qc.controlled_phase(-1, 2, 0.3)


def test_controlled_phase_is_the_checked_diagonal_cu():
    rng = np.random.default_rng(18)
    angles = [0.0, 1, np.pi, -np.pi, np.float64(0.7), 1e-300, 2.0**40]
    angles += [float(a) for a in rng.uniform(-10, 10, size=50)]
    for angle in angles:
        c, t = (int(x) for x in rng.permutation(6)[:2])
        got = qc.controlled_phase(c, t, angle)
        want = qc.controlled_unitary((c,), (t,), np.diag([1, np.exp(1j * angle)]),
                                     label=f"cphase({angle:.12g})")
        assert (got.kind, got.targets, got.controls, got.label) == \
            (want.kind, want.targets, want.controls, want.label)
        assert got.matrix.dtype == want.matrix.dtype and got.matrix.shape == (2, 2)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert not got.matrix.flags.writeable


def test_invert_gate_of_a_cu_is_its_exact_adjoint():
    rng = np.random.default_rng(7)
    for dim, controls in ((2, (3,)), (4, ()), (8, (0, 4))):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        unitary = np.linalg.qr(z)[0]
        targets = tuple(range(5, 5 + dim.bit_length() - 1))
        cu = qc.controlled_unitary(controls, targets, unitary, label="u")
        inv = qc.invert_gate(cu)
        assert (inv.kind, inv.targets, inv.controls, inv.label) == \
            (cu.kind, targets, controls, "u^-1")
        assert np.array_equal(inv.matrix, cu.matrix.conj().T)
        assert inv.matrix.flags.c_contiguous and not inv.matrix.flags.writeable
        twice = qc.invert_gate(inv)
        assert twice.label == "u^-1^-1"
        assert twice.matrix.tobytes() == cu.matrix.tobytes()


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


def test_pipeline_phases_read_the_angle_table_encodings(monkeypatch, sys_7x7):
    """build_pipeline encodes each eigenvalue once, in its angle table; the phases are the same."""
    fmt = default_format(sys_7x7.n, 4, 16)
    eigs = eigenpairs(sys_7x7)
    calls = []
    encode = qc.amplify_encode
    monkeypatch.setattr(qc, "amplify_encode", lambda lam, f: calls.append(lam) or encode(lam, f))
    built = build_pipeline(sys_7x7, fmt, "fused")
    assert calls == []
    # a phase verification has no table and encodes them itself
    build_phase_verification(sys_7x7, fmt, sys_7x7.b)
    assert len(calls) == len(eigs.lambdas)
    encodings = built.metadata["table"].encoded_lambdas
    assert np.array_equal(qc._spectral_powers(eigs, fmt, sys_7x7.n, "encoded"),
                          qc._spectral_powers(eigs, fmt, sys_7x7.n, "encoded", encodings))


def test_true_a_phases_beyond_the_float_range():
    eigs = eigenpairs(PoissonSystem(n=1, b=np.ones(1)))  # lambda = 8
    powers = qc._spectral_powers(eigs, FixedPointFormat(6, 1100, 16), 1, "true_a")
    assert len(powers) == 1106
    assert all(np.allclose(u @ u.conj().T, np.eye(2)) for u in powers)
    # U**(2**k) turns by lambda 2**(k - i) = 2**(k - 3): 1/8, 1/4 and 1/2 for k < 3
    assert [u[1, 1] for u in powers[:3]] == pytest.approx([np.exp(0.25j * np.pi), 1j, -1])
    assert powers[-1][1, 1] == 1  # 2**1102 whole turns


@pytest.mark.parametrize("n,fmt", [
    (2, FixedPointFormat(6, 0, 10)), (2, FixedPointFormat(6, 8, 16)),
    (3, FixedPointFormat(8, 4, 16)), (4, FixedPointFormat(10, 8, 16)),
])
def test_true_a_phases_match_an_exact_reference(n, fmt):
    eigs = eigenpairs(PoissonSystem(n=n, b=np.ones(2**n - 1)))
    basis = qc._walk_basis(eigs, n)
    powers = qc._spectral_powers(eigs, fmt, n, "true_a")
    for k, power in enumerate(powers):
        # U**(2**k) turns by lambda 2**(k - i), reduced mod 1 before the float
        turns = [float(Fraction(lam) * 2**k / 2**fmt.integer_bits % 1) for lam in eigs.lambdas]
        phases = np.exp(2j * np.pi * np.array([0.0] + turns))
        assert np.max(np.abs(power - basis @ np.diag(phases) @ basis.T)) <= 1e-15


def test_true_a_whole_turns_are_exactly_one():
    # the closed form gives 7.999999999999998 for n = 1; take lambda = 8 exactly
    eigs = replace(eigenpairs(PoissonSystem(n=1, b=np.ones(1))), lambdas=np.array([8.0]))
    powers = qc._spectral_powers(eigs, FixedPointFormat(3, 6, 16), 1, "true_a")
    # U**(2**k) turns by 8 * 2**(k - 3) = 2**k, a whole number for every k
    assert all(np.array_equal(u, np.eye(2)) for u in powers)


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
    # each column's Ry is one gate object, shared by every row
    rotations = {id(g) for g in gates if g.kind == qc.MULTI_CONTROLLED_RY}
    assert len(rotations) == len(table.kept_columns)
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
    u = fragment_unitary(built.gates, built.layout.total)
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
    assert dump(built) == GOLDEN_1X1_DUMP


def _grid_builds():
    """Every pipeline and phase verification on the Table-1 grid, f in {0, 2, 4, 8}."""
    for preset in PRESETS.values():
        system = PoissonSystem(n=preset["n"], b=np.asarray(preset["b"]))
        for f in (0, 2, 4, 8):
            fmt = default_format(system.n, f, 16)
            for phase_mode in qc.PHASE_MODES:
                yield partial(build_phase_verification, system, fmt, system.b, phase_mode)
                for mode in ("explicit", "fused"):
                    yield partial(build_pipeline, system, fmt, mode, phase_mode)


def _ladder_free_gates(built: qc.Circuit) -> list:
    """built's gates, its IQFT and uncompute rebuilt by qft_fragment and invert_fragment."""
    m, gates = built.layout.e_width, list(built.gates)
    qpe = gates[1 : 1 + 2 * m] + qc.invert_fragment(qc.qft_fragment(built.layout.reg_e))
    if "mode" not in built.metadata:  # a phase verification ends with its QPE
        return gates[:1] + qpe
    return gates[:1] + qpe + gates[1 + len(qpe) : -len(qpe)] + qc.invert_fragment(qpe)


def test_builds_on_one_reg_e_share_the_fourier_ladders(sys_3x3):
    fmt = FixedPointFormat(6, 4, 16)
    m, ladder = fmt.total_bits, len(qc.qft_fragment(range(fmt.total_bits)))
    fused = build_pipeline(sys_3x3, fmt, "fused", "true_a")
    explicit = build_pipeline(replace(sys_3x3, b=np.array([0.1, -0.2, 0.3])), fmt, "explicit")
    verification = build_phase_verification(sys_3x3, fmt, sys_3x3.b)
    iqft = fused.gates[1 + 2 * m : 1 + 2 * m + ladder]
    uncompute = fused.gates[-(2 * m + ladder) : -2 * m]
    assert sum(g.kind == qc.CONTROLLED_UNITARY for g in iqft) == m * (m - 1) // 2
    for other in (explicit.gates[1 + 2 * m : 1 + 2 * m + ladder], verification.gates[1 + 2 * m :]):
        assert all(a is b for a, b in zip(iqft, other, strict=True))
    assert all(a is b for a, b in zip(uncompute, explicit.gates[-(2 * m + ladder) : -2 * m],
                                      strict=True))
    # the circuits and their walk powers stay each build's own
    assert fused.gates[1 + m] is not explicit.gates[1 + m]


def test_cached_ladders_match_a_build_from_the_public_fragments():
    """Every IR line, label and matrix byte is what qft_fragment and invert_fragment give."""
    for build in _grid_builds():
        qc._fourier_ladders.cache_clear()
        try:
            fresh = build()
        except ResourceError:  # explicit layouts over the budget
            continue
        for built in (fresh, build()):  # the second build reads the cache
            want = _ladder_free_gates(built)
            assert dump(built) == dump(qc.Circuit(built.layout, tuple(want)))
            for got, ref in zip(built.gates, want, strict=True):
                if ref.matrix is not None:
                    assert got.matrix.dtype == ref.matrix.dtype
                    assert got.matrix.tobytes() == ref.matrix.tobytes()


def test_ladder_cache_stays_bounded_over_every_reachable_reg_e():
    """Every reg E the budget admits (n >= 1, n + m + 1 <= QUBIT_BUDGET), one after another."""
    limit = qc._fourier_ladders.cache_info().maxsize
    assert limit is not None
    qc._fourier_ladders.cache_clear()
    try:
        for n in range(1, qc.QUBIT_BUDGET):
            for m in range(qc.QUBIT_BUDGET - n):
                qc._fourier_ladders(tuple(range(n, n + m)))
                assert qc._fourier_ladders.cache_info().currsize <= limit
    finally:
        qc._fourier_ladders.cache_clear()


# sha256 over reference.dump of the 24 Table-1 builds that _table1_builds
# yields and the budget admits, recorded before refactors that must leave the
# IR unchanged.  A dump holds only kinds, qubits, .12g angles, dims and labels,
# all from Python float arithmetic, so the digest does not depend on BLAS;
# matrices stay out of it for that reason.
TABLE1_IR_SHA256 = "d5ff648b108333a96d4c9552c9190d5cb131a03685a2225147d923c715e5aa0f"


def _table1_builds():
    """Each preset's phase verification and explicit and fused pipelines, f in {0, 4, 8}."""
    for preset in PRESETS.values():
        system = PoissonSystem(n=preset["n"], b=np.asarray(preset["b"]))
        for f in (0, 4, 8):
            fmt = default_format(system.n, f, 16)
            yield partial(build_phase_verification, system, fmt, system.b)
            for mode in ("explicit", "fused"):
                yield partial(build_pipeline, system, fmt, mode)


def _table1_ir_digest() -> tuple[int, str]:
    digest, count = hashlib.sha256(), 0
    for build in _table1_builds():
        try:
            built = build()
        except ResourceError:  # explicit layouts over the budget
            continue
        digest.update(dump(built).encode() + b"\n\n")
        count += 1
    return count, digest.hexdigest()


def test_table1_ir_is_pinned():
    assert _table1_ir_digest() == (24, TABLE1_IR_SHA256)


def test_widest_walk_build_holds_no_gram_stack():
    """18 powers of 256 x 256: the stack and its product temporary, no conjugate or Gram copy."""
    system = PoissonSystem(8, np.ones(255))
    tracemalloc.start()
    try:
        build_pipeline(system, default_format(8, 0), "fused")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
