"""Kernel checks against a brute-force reference built from gate definitions."""

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
    build_pipeline,
    exact_solve,
)


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
        if kind in (qc.RY, qc.MULTI_CONTROLLED_RY):
            c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
            u = np.array([[c, -s], [s, c]], dtype=complex)
        elif kind == qc.PHASE:
            u = np.diag([1.0, np.exp(1j * gate.angle)])
        elif kind in (qc.PAULI_X, qc.MULTI_CONTROLLED_X):
            u = two_by_two[qc.PAULI_X]
        elif kind == qc.HADAMARD:
            u = two_by_two[qc.HADAMARD]
        else:
            u = None
        if gate.controls and any(bit(src, c, q) == 0 for c in gate.controls):
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
    choice = rng.integers(0, 8)
    qubits = [int(x) for x in rng.permutation(q)]
    if choice == 0:
        return qc.hadamard(qubits[0])
    if choice == 1:
        return qc.pauli_x(qubits[0])
    if choice == 2:
        return qc.ry(qubits[0], float(rng.uniform(-3, 3)))
    if choice == 3:
        return qc.phase(qubits[0], float(rng.uniform(-3, 3)))
    if choice == 4:
        return qc.swap(qubits[0], qubits[1])
    if choice == 5:
        return qc.multi_controlled_x(qubits[:2], qubits[2])
    if choice == 6:
        return qc.multi_controlled_ry(qubits[:1], qubits[1], float(rng.uniform(-3, 3)))
    return qc.controlled_unitary(qubits[:1], qubits[1:3], random_unitary(4, rng))


@pytest.mark.parametrize("seed", [7, 19, 104])
def test_kernel_matches_reference_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    q = 3
    gates = [random_gate(rng, q) for _ in range(30)]
    expected = np.eye(2 ** q, dtype=complex)
    for gate in gates:
        expected = reference_matrix(gate, q) @ expected
    actual = sim.fragment_unitary(gates, q)
    assert np.max(np.abs(actual - expected)) < 1e-12


def test_single_gate_trivials():
    state = sim.apply_gate(sim.zero_state(1), qc.hadamard(0))
    assert np.allclose(state.amps, [2 ** -0.5, 2 ** -0.5])
    state = sim.apply_gate(sim.zero_state(1), qc.ry(0, math.pi))
    assert np.allclose(state.amps, [0.0, 1.0])


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


def test_run_exact_enforces_budget():
    over = qc.Circuit(RegisterLayout(qc.QUBIT_BUDGET, 0), ())  # reg B plus the ancilla
    with pytest.raises(ResourceError):
        sim.run_exact(over)


def test_smallest_system_end_to_end():
    system = PoissonSystem(n=1, b=np.array([1.0]))
    built = build_pipeline(system, FixedPointFormat(4, 0, 8), mode="fused")
    solution, success = sim.postselect(sim.run_exact(built), built.layout)
    assert np.allclose(solution, [1.0])
    assert np.allclose(exact_solve(system), [1.0])
    omega_hat = int(built.metadata["table"].encoded_omegas[0], 2) / 2 ** 8
    assert success == pytest.approx(math.sin(math.pi * omega_hat) ** 2, abs=1e-12)

