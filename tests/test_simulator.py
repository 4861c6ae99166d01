"""Kernel checks against a brute-force reference built from gate definitions."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from qpoisson import circuit as qc
from qpoisson import simulator as sim
from qpoisson import (
    FixedPointFormat,
    PoissonSystem,
    PostselectionError,
    RegisterLayout,
    ResourceError,
    build_phase_verification,
    build_pipeline,
    default_format,
    eigenpairs,
    exact_solve,
    solve,
)
from reference import fragment_unitary


def bit(index: int, qubit: int, q: int) -> int:
    return (index >> (q - 1 - qubit)) & 1


def with_bit(index: int, qubit: int, value: int, q: int) -> int:
    mask = 1 << (q - 1 - qubit)
    return (index | mask) if value else (index & ~mask)


def reference_matrix(gate: qc.Gate, q: int) -> np.ndarray:
    """Gate as a dense matrix, from first principles one basis state at a time."""
    dim = 2 ** q
    out = np.zeros((dim, dim), dtype=complex)
    two_by_two = {
        qc.HADAMARD: np.array([[1, 1], [1, -1]]) / math.sqrt(2),
        qc.PAULI_X: np.array([[0, 1], [1, 0]], dtype=complex),
    }
    for src in range(dim):
        kind = gate.kind
        if kind == qc.MULTI_CONTROLLED_RY:
            c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
            u = np.array([[c, -s], [s, c]], dtype=complex)
        elif kind in (qc.PAULI_X, qc.MULTI_CONTROLLED_X):
            u = two_by_two[qc.PAULI_X]
        elif kind == qc.HADAMARD:
            u = two_by_two[qc.HADAMARD]
        else:
            u = None
        # H, X and SWAP ignore a stray controls field, as simulator._controls says
        controlled = kind not in (qc.HADAMARD, qc.PAULI_X, qc.SWAP)
        if controlled and any(bit(src, c, q) == 0 for c in gate.controls):
            out[src, src] = 1.0
        elif kind == qc.SWAP:
            a, b = gate.targets
            dst = with_bit(src, a, bit(src, b, q), q)
            dst = with_bit(dst, b, bit(src, a, q), q)
            out[dst, src] = 1.0
        elif kind == qc.CONTROLLED_UNITARY:
            value = 0
            for t in gate.targets:
                value = (value << 1) | bit(src, t, q)
            for new_value in range(2 ** len(gate.targets)):
                dst = src
                for pos, t in enumerate(reversed(gate.targets)):
                    dst = with_bit(dst, t, (new_value >> pos) & 1, q)
                out[dst, src] += gate.matrix[new_value, value]
        else:
            t = gate.targets[0]
            b = bit(src, t, q)
            out[with_bit(src, t, 0, q), src] += u[0, b]
            out[with_bit(src, t, 1, q), src] += u[1, b]
    return out


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    qmat, r = np.linalg.qr(m)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def random_gate(rng: np.random.Generator, q: int) -> qc.Gate:
    choice = rng.integers(0, 14)
    qubits = [int(x) for x in rng.permutation(q)]
    low, mid, high = sorted(qubits[:3])
    if choice == 0:
        return qc.hadamard(qubits[0])
    if choice == 1:
        return qc.pauli_x(qubits[0])
    if choice == 2:
        return qc.multi_controlled_ry((), qubits[0], float(rng.uniform(-3, 3)))
    if choice == 3:  # an uncontrolled phase
        angle = float(rng.uniform(-3, 3))
        return qc.controlled_unitary((), qubits[:1], np.diag([1.0, np.exp(1j * angle)]))
    if choice == 4:
        return qc.swap(qubits[0], qubits[1])
    if choice == 5:
        return qc.multi_controlled_x(qubits[:2], qubits[2])
    if choice == 6:
        return qc.multi_controlled_ry(qubits[:1], qubits[1], float(rng.uniform(-3, 3)))
    if choice == 7:
        return qc.controlled_unitary(qubits[:1], qubits[1:3], random_unitary(4, rng))
    # controls on both sides of the target, so the axis remap runs both ways
    if choice == 8:
        return qc.multi_controlled_x((high, low), mid)
    if choice == 9:
        return qc.multi_controlled_ry((low, high), mid, float(rng.uniform(-3, 3)))
    if choice == 10:
        return qc.controlled_unitary((high, low), (mid,), random_unitary(2, rng))
    if choice == 11:  # a controlled phase
        angle = float(rng.uniform(-3, 3))
        return qc.controlled_unitary((low, high), (mid,), np.diag([1.0, np.exp(1j * angle)]))
    if choice == 12:  # non-adjacent targets in descending order, a control between them
        return qc.controlled_unitary((mid,), (high, low), random_unitary(4, rng))
    # an uncontrolled kind built with a stray controls field
    kind = (qc.HADAMARD, qc.PAULI_X, qc.SWAP)[rng.integers(0, 3)]
    if kind == qc.SWAP:
        return qc.Gate(kind, (high, low), (mid,))
    return qc.Gate(kind, (mid,), (low, high))


@pytest.mark.parametrize("seed", [7, 19, 104])
def test_kernel_matches_reference_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    for q in (3, 4, 5):
        gates = [random_gate(rng, q) for _ in range(30)]
        expected = np.eye(2 ** q, dtype=complex)
        for gate in gates:
            expected = reference_matrix(gate, q) @ expected
        actual = fragment_unitary(gates, q)
        assert np.max(np.abs(actual - expected)) < 1e-12, q


def zero_state(q: int) -> sim.Statevector:
    return sim.Statevector(np.eye(1, 2**q, dtype=complex)[0], q)


def test_single_gate_trivials():
    state = sim.apply_gate(zero_state(1), qc.hadamard(0))
    assert np.allclose(state.amps, [2 ** -0.5, 2 ** -0.5])
    state = sim.apply_gate(zero_state(1), qc.multi_controlled_ry((), 0, math.pi))
    assert np.allclose(state.amps, [0.0, 1.0])


def test_apply_gate_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown gate kind RZ"):
        sim.apply_gate(zero_state(1), qc.Gate("RZ", (0,)))


def test_postselect_handcrafted():
    layout = RegisterLayout(2, 0, 0)
    amps = np.zeros(8, dtype=complex)
    amps[0b011] = 0.3  # B=01, ancilla=1
    amps[0b101] = 0.4  # B=10, ancilla=1
    amps[0b000] = math.sqrt(1 - 0.25)
    solution, success = sim.postselect(sim.Statevector(amps, 3), layout)
    assert success == pytest.approx(0.25, abs=1e-15)
    assert np.allclose(solution, [0.6, 0.8, 0.0])


def test_postselect_degenerate_cases():
    layout = RegisterLayout(2, 0, 0)
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = 1.0
    with pytest.raises(PostselectionError):
        sim.postselect(sim.Statevector(amps, 3), layout)
    amps = np.zeros(8, dtype=complex)
    amps[0b001] = 1.0  # ancilla=1 but all weight on B=00
    with pytest.raises(PostselectionError):
        sim.postselect(sim.Statevector(amps, 3), layout)


def test_register_probabilities_handcrafted():
    amps = np.zeros(8, dtype=complex)
    for idx in (0b000, 0b011, 0b110):
        amps[idx] = 3 ** -0.5
    state = sim.Statevector(amps, 3)
    assert np.allclose(sim.register_probabilities(state, (0,)), [2 / 3, 1 / 3])
    # reordered pair: qubit 2 becomes the MSB of the readout
    probs = sim.register_probabilities(state, (2, 0))
    assert np.allclose(probs, [1 / 3, 1 / 3, 1 / 3, 0.0])


@pytest.mark.parametrize(
    "qubits", ((), (0,), (16,), (2, 0), (16, 1, 14), (5, 15, 9, 0), tuple(range(16, -1, -1)))
)
def test_register_probabilities_blockwise_is_exact(qubits):
    q = 17  # eight blocks of 2**14 amplitudes
    rng = np.random.default_rng(len(qubits))
    amps = rng.standard_normal(2**q) + 1j * rng.standard_normal(2**q)
    state = sim.Statevector(amps / np.linalg.norm(amps), q)
    probs = np.abs(state.tensor()) ** 2
    others = tuple(ax for ax in range(q) if ax not in qubits)
    rows = np.transpose(probs, qubits + others).reshape(2 ** len(qubits), -1)
    exact = np.array([math.fsum(row) for row in rows])
    assert np.max(np.abs(sim.register_probabilities(state, qubits) - exact)) <= 1e-15


# a bool is an int to Python, and True would read qubit 1
@pytest.mark.parametrize("qubits", [(-1,), (0, 0), (3,), (2, 1, 2), (0.0,), (True,), (0, False)])
def test_register_probabilities_refuses_qubits_that_are_not_distinct_indices(qubits):
    state = zero_state(3)
    with pytest.raises(ValueError, match="distinct indices in 0..2"):
        sim.register_probabilities(state, qubits)
    with pytest.raises(ValueError, match="distinct indices in 0..2"):
        sim.sample_counts(state, qubits, 10, seed=1)
    circuit = qc.Circuit(RegisterLayout(2, 0, 0), (qc.hadamard(0),))
    with pytest.raises(ValueError, match="distinct indices in 0..2"):
        sim.readout(circuit, qubits)


def test_register_probabilities_memory_is_bounded():
    q = 18
    amps = np.full(2**q, 2 ** (-q / 2), dtype=complex)
    state = sim.Statevector(amps, q)
    tracemalloc.start()
    probs = sim.register_probabilities(state, (q - 1, 0))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert np.allclose(probs, 0.25, atol=1e-15)
    # one full-size float temporary alone would take half the state's 4 MiB
    assert peak < amps.nbytes / 4


def test_sample_is_deterministic_and_complete(sys_3x3):
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 0, 10), mode="fused")
    a = sim.sample(built, shots=2000, seed=42)
    b = sim.sample(built, shots=2000, seed=42)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.solution, b.solution)
    assert a.counts.sum() == 2000
    assert a.counts.shape == (2**3,) and a.counts.dtype == np.int64
    assert sim.RNG_NAME == "PCG64"
    c = sim.sample(built, shots=2000, seed=43)
    assert not np.array_equal(c.counts, a.counts)


@pytest.mark.parametrize("name, read, phase_mode, digest", [
    ("3x3", "solve", "encoded", "8fbf1eaa579158d7074c7278036754251d5b59f1cca1f07f881bd670f52a5d60"),
    ("3x3", "solve", "true_a", "6e3a35809739639b50bfabbb12b660a1a43b7c70e04b75814c5e588459173d35"),
    ("7x7", "solve", "encoded", "913950dfb75221166ac5d5e39b59283e456fc822d63e006a38ef9dc46785e422"),
    ("7x7", "solve", "true_a", "daa9db99c1d90bf022cf64fc66fdda5d3419e4ece0b0f1858c217f6ff013c3c0"),
    ("3x3", "eigenvector", "encoded",
     "a745afcb8c7ea8bb4d69220594a923a7aef0ff4bbca9cf5a89f30d5101172fc9"),
    ("7x7", "eigenvector", "encoded",
     "2f440f03b78d0a767127be24b672beb9b41cad7cca3d11689e78cbe43260fa5f"),
    ("7x7", "b", "encoded", "c202b5ecb1b8f74ebda9c5838e9e9529bb6a5d0d61553858a74029b2ce37bfe2"),
], ids=("solve-3x3-encoded", "solve-3x3-true_a", "solve-7x7-encoded", "solve-7x7-true_a",
        "phase-3x3-eigenvector", "phase-7x7-eigenvector", "phase-7x7-b"))
def test_sampled_counts_are_pinned_per_seed(request, name, read, phase_mode, digest):
    """Fixed-seed counts at f = 4, 10**6 shots, seed 11: sampled solves and phase reads.

    A phase read of eigenvector 2 and of the preset's b, which is no
    eigenvector.  The digests were recorded when a phase read still ran
    slab by slab, so they also pin that a change in how the probabilities
    are summed moves no count.
    """
    system = request.getfixturevalue(f"sys_{name}")
    fmt = default_format(system.n, 4, 16)
    if read == "solve":
        record = solve(system, fmt, phase_mode=phase_mode, backend="sample", shots=10**6, seed=11)
        counts = record.sampled.counts
    else:
        vector = eigenpairs(system).vectors[:, 1] if read == "eigenvector" else system.b
        built = build_phase_verification(system, fmt, vector, phase_mode)
        counts = sim.draw_counts(sim.readout(built, built.layout.reg_e), 10**6, seed=11)
    assert hashlib.sha256(counts.tobytes()).hexdigest() == digest


def test_shots_are_bounded_by_what_the_multinomial_draw_takes():
    sim.check_shots(1)
    sim.check_shots(2**63 - 1)
    for shots in (0, 2**63, 10**20):
        with pytest.raises(ValueError, match=f"shots must be in 1..{2**63 - 1}, got {shots}"):
            sim.check_shots(shots)


def test_sample_agrees_with_exact_within_4_sigma(sys_3x3):
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 0, 10), mode="fused")
    state = sim.run_exact(built)
    exact_solution, exact_success = sim.postselect(state, built.layout)
    shots = 100_000
    result = sim.sample(built, shots=shots, seed=7)
    sigma = math.sqrt(exact_success * (1 - exact_success) / shots)
    assert abs(result.success_prob - exact_success) < 4 * sigma
    assert np.max(np.abs(result.solution - exact_solution)) < 0.02


def test_sample_without_ancilla_hits():
    layout = RegisterLayout(1, 0, 0)
    circuit = qc.Circuit(layout=layout, gates=(qc.hadamard(0),), metadata={})
    with pytest.raises(PostselectionError):
        sim.sample(circuit, shots=100, seed=1)


def test_sample_whose_kept_records_all_read_reg_b_zero():
    # only the ancilla flips: every record is kept, and every one reads reg B = 0
    circuit = qc.Circuit(RegisterLayout(2, 0, 0), (qc.pauli_x(2),))
    with pytest.raises(PostselectionError, match="never landed on reg B states 1..N-1"):
        sim.sample(circuit, shots=100, seed=1)


def test_run_exact_enforces_budget():
    over = qc.Circuit(RegisterLayout(qc.QUBIT_BUDGET, 0), ())  # reg B plus the ancilla
    with pytest.raises(ResourceError):
        sim.run_exact(over)
    for qubits in (None, (0,)):
        with pytest.raises(ResourceError):
            sim.readout(over, qubits)


def test_fragment_unitary_refuses_more_than_12_qubits():
    with pytest.raises(ResourceError, match="13 qubits"):
        fragment_unitary([qc.hadamard(0)], 13)
    # qubit 3 of a 3-qubit fragment would be a column qubit of vec(I)
    with pytest.raises(ValueError, match="outside qubits 0..2"):
        fragment_unitary([qc.hadamard(3)], 3)


def test_sample_refuses_a_negative_seed_before_the_run(monkeypatch, sys_3x3):
    def readout(*args):
        raise AssertionError("the circuit ran before the seed was checked")

    monkeypatch.setattr(sim, "readout", readout)
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 0, 10), mode="fused")
    with pytest.raises(ValueError, match="seed must be >= 0"):
        sim.sample(built, shots=100, seed=-1)


# a bool is an int to Python, and True would pass as one shot or seed 1
@pytest.mark.parametrize("value", [10**6 + 0.5, 5.0, np.float64(5), True, "5"])
def test_shots_and_seeds_that_are_not_integers_are_refused(monkeypatch, sys_3x3, value):
    def readout(*args):
        raise AssertionError("the circuit ran before the shots and seed were checked")

    monkeypatch.setattr(sim, "readout", readout)
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 0, 10), mode="fused")
    with pytest.raises(ValueError, match=f"shots must be in 1..{2**63 - 1}, got {value}"):
        sim.sample(built, shots=value, seed=3)
    with pytest.raises(ValueError, match=f"shots must be in 1..{2**63 - 1}"):
        solve(sys_3x3, FixedPointFormat(6, 0, 10), backend="sample", shots=value)
    with pytest.raises(ValueError, match=f"seed must be >= 0 and an integer, got {value}"):
        sim.sample(built, shots=100, seed=value)


def test_numpy_integer_shots_and_seeds_are_accepted(sys_3x3):
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 0, 10), mode="fused")
    result = sim.sample(built, shots=np.int64(1000), seed=np.uint32(3))
    assert result.counts.sum() == 1000
    assert np.array_equal(result.counts, sim.sample(built, shots=1000, seed=3).counts)


def test_smallest_system_end_to_end():
    system = PoissonSystem(n=1, b=np.array([1.0]))
    built = build_pipeline(system, FixedPointFormat(4, 0, 8), mode="fused")
    solution, success = sim.postselect(sim.run_exact(built), built.layout)
    assert np.allclose(solution, [1.0])
    assert np.allclose(exact_solve(system), [1.0])
    omega_hat = int(built.metadata["table"].encoded_omegas[0], 2) / 2 ** 8
    assert success == pytest.approx(math.sin(math.pi * omega_hat) ** 2, abs=1e-12)

