"""Reference helpers that only tests call: dense unitaries and the IR's text dump."""

import numpy as np

from qpoisson import ResourceError
from qpoisson import circuit as qc
from qpoisson import simulator as sim


def fragment_unitary(gates, q: int) -> np.ndarray:
    """Dense matrix of a gate list on q <= 12 qubits, each gate applied once by apply_gate.

    The gates run on vec(I), a state of 2q qubits: the high q (qubit 0 the
    most significant) index the row and the low q, which no gate touches,
    the column.  At q = 12 that state holds 2**24 amplitudes (256 MiB), and
    apply_gate may copy a block and allocate its product, each up to that
    size again.
    """
    if q > 12:
        raise ResourceError(f"refusing dense unitary on {q} qubits (cap 12)")
    if any(g >= q for gate in gates for g in gate.qubits):
        raise ValueError(f"a gate acts outside qubits 0..{q - 1}")
    state = sim.Statevector(np.eye(2**q, dtype=complex).reshape(-1), 2 * q)
    for gate in gates:
        sim.apply_gate(state, gate)
    return state.amps.reshape(2**q, 2**q)


def dump_line(gate: qc.Gate) -> str:
    """KIND [c[..]] q[..] [(params)]."""
    parts = [gate.kind]
    if gate.controls:
        parts.append("c[" + ",".join(str(q) for q in gate.controls) + "]")
    parts.append("q[" + ",".join(str(q) for q in gate.targets) + "]")
    extras = []
    if gate.kind == qc.MULTI_CONTROLLED_RY:
        extras.append(f"angle={gate.angle:.12g}")
    if gate.kind == qc.CONTROLLED_UNITARY:
        extras.append(f"dim={gate.matrix.shape[0]}")
    if gate.label:
        extras.append(f"label={gate.label}")
    if extras:
        parts.append("(" + ", ".join(extras) + ")")
    return " ".join(parts)


def dump(circuit: qc.Circuit) -> str:
    """One gate per line, as dump_line writes it.  Stable format."""
    return "\n".join(dump_line(g) for g in circuit.gates)
