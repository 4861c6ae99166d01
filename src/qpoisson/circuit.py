"""Gate-level intermediate representation and circuit builders.

Machine convention: qubit 0 holds the most significant bit of a basis index,
so the bitstring of a basis state, read left to right, is qubit 0, 1, 2, ...
Registers are contiguous: the solution register (reg B, n qubits) first, the
eigenvalue register (reg E, m qubits) next, the angle register (reg A,
explicit mode only) after that, and a single rotation ancilla as the last
qubit.  Reg E qubit 0 is the most significant bit of the encoded eigenvalue,
so a measured reg E string compares directly against the angle table's
encoded_lambdas.

The phase estimation stage uses a spectrally defined walk operator

    U = |0><0| + sum_j exp(i 2 pi E_j / 2**m) |u_j><u_j|

whose eigenphases are exactly the encoded integers E_j, making readout of the
encoded eigenvalues deterministic.  A diagnostic phase_mode="true_a" instead
uses the continuous phases 2 pi lambda_j 2**f / 2**m for leakage studies.

Circuits and gates are immutable; builders return fresh objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .encoding import (
    AngleTable,
    FixedPointFormat,
    amplify_encode,
    build_angle_table,
    decode_fraction,
)
from .errors import ResourceError, check_choice
from .model import PoissonSystem, EigenData, eigenpairs, square_safe

__all__ = [
    "HADAMARD", "PAULI_X", "RY", "PHASE", "CONTROLLED_UNITARY",
    "MULTI_CONTROLLED_X", "MULTI_CONTROLLED_RY", "SWAP",
    "QUBIT_BUDGET", "AUTO_EXPLICIT_LIMIT", "MODES", "PHASE_MODES",
    "Gate", "RegisterLayout", "Circuit",
    "hadamard", "pauli_x", "ry", "phase", "controlled_unitary",
    "controlled_phase", "multi_controlled_x", "multi_controlled_ry", "swap",
    "qft_fragment", "invert_gate", "invert_fragment", "state_prep_unitary",
    "build_qpe", "build_rotation_explicit", "build_rotation_fused",
    "build_pipeline", "build_phase_verification",
]

HADAMARD = "H"
PAULI_X = "X"
RY = "RY"
PHASE = "PHASE"
CONTROLLED_UNITARY = "CU"
MULTI_CONTROLLED_X = "MCX"
MULTI_CONTROLLED_RY = "MCRY"
SWAP = "SWAP"

# Dense simulation budget: 2**28 amplitudes.  Builders refuse wider layouts.
QUBIT_BUDGET = 28
# Auto mode prefers the explicit angle register only while the total stays
# small enough to simulate comfortably.
AUTO_EXPLICIT_LIMIT = 24
# Rotation realizations build_pipeline accepts, and the walk phase choices.
MODES = ("explicit", "fused", "auto")
PHASE_MODES = ("encoded", "true_a")


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate: kind, target qubits, optional controls, angle, or matrix."""

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float = 0.0
    matrix: np.ndarray | None = None
    label: str = ""

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets

    def dump_line(self) -> str:
        parts = [self.kind]
        if self.controls:
            parts.append("c[" + ",".join(str(q) for q in self.controls) + "]")
        parts.append("q[" + ",".join(str(q) for q in self.targets) + "]")
        extras = []
        if self.kind in (RY, PHASE, MULTI_CONTROLLED_RY):
            extras.append(f"angle={self.angle:.12g}")
        if self.kind == CONTROLLED_UNITARY:
            extras.append(f"dim={self.matrix.shape[0]}")
        if self.label:
            extras.append(f"label={self.label}")
        if extras:
            parts.append("(" + ", ".join(extras) + ")")
        return " ".join(parts)


def _check_distinct(qubits: Sequence[int]):
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"gate qubits must be distinct, got {qubits}")
    if any(q < 0 for q in qubits):
        raise ValueError(f"negative qubit index in {qubits}")


def hadamard(q: int) -> Gate:
    return Gate(HADAMARD, (q,))


def pauli_x(q: int) -> Gate:
    return Gate(PAULI_X, (q,))


def ry(q: int, angle: float) -> Gate:
    return Gate(RY, (q,), angle=float(angle))


def phase(q: int, angle: float) -> Gate:
    return Gate(PHASE, (q,), angle=float(angle))


def controlled_unitary(
    controls: Iterable[int], targets: Iterable[int], matrix: np.ndarray, label: str = ""
) -> Gate:
    controls = tuple(controls)
    targets = tuple(targets)
    _check_distinct(controls + targets)
    matrix = np.asarray(matrix, dtype=complex)
    dim = 2 ** len(targets)
    if matrix.shape != (dim, dim):
        raise ValueError(f"matrix shape {matrix.shape} does not match {len(targets)} targets")
    drift = np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim)))
    if drift > 1e-10:
        raise ValueError(f"matrix is not unitary (max deviation {drift:.3e})")
    matrix = matrix.copy()
    matrix.setflags(write=False)
    return Gate(CONTROLLED_UNITARY, targets, controls, matrix=matrix, label=label)


def controlled_phase(control: int, target: int, angle: float) -> Gate:
    m = np.diag([1.0, np.exp(1j * angle)])
    return controlled_unitary((control,), (target,), m, label=f"cphase({angle:.12g})")


def multi_controlled_x(controls: Iterable[int], target: int) -> Gate:
    controls = tuple(controls)
    _check_distinct(controls + (target,))
    return Gate(MULTI_CONTROLLED_X, (target,), controls)


def multi_controlled_ry(controls: Iterable[int], target: int, angle: float) -> Gate:
    controls = tuple(controls)
    _check_distinct(controls + (target,))
    return Gate(MULTI_CONTROLLED_RY, (target,), controls, angle=float(angle))


def swap(a: int, b: int) -> Gate:
    _check_distinct((a, b))
    return Gate(SWAP, (a, b))


@dataclass(frozen=True)
class RegisterLayout:
    """Contiguous register map: reg B, reg E, reg A, then one ancilla."""

    b_width: int
    e_width: int
    a_width: int = 0

    def __post_init__(self):
        if self.b_width < 1 or self.e_width < 0 or self.a_width < 0:
            raise ValueError("register widths must be non-negative (reg B at least 1)")

    @property
    def reg_b(self) -> tuple[int, ...]:
        return tuple(range(self.b_width))

    @property
    def reg_e(self) -> tuple[int, ...]:
        return tuple(range(self.b_width, self.b_width + self.e_width))

    @property
    def reg_a(self) -> tuple[int, ...]:
        base = self.b_width + self.e_width
        return tuple(range(base, base + self.a_width))

    @property
    def ancilla(self) -> int:
        return self.b_width + self.e_width + self.a_width

    @property
    def total(self) -> int:
        return self.b_width + self.e_width + self.a_width + 1


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate list over a register layout, plus the metadata its readers use."""

    layout: RegisterLayout
    gates: tuple[Gate, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for gate in self.gates:
            if any(q >= self.layout.total for q in gate.qubits):
                raise ValueError(f"gate {gate.kind} addresses qubits outside the layout")

    def dump(self) -> str:
        """One gate per line: KIND [c[..]] q[..] [(params)].  Stable format."""
        return "\n".join(g.dump_line() for g in self.gates)


def invert_gate(gate: Gate) -> Gate:
    """Inverse of a single gate; every IR kind has one in the IR."""
    if gate.kind in (HADAMARD, PAULI_X, MULTI_CONTROLLED_X, SWAP):
        return gate
    if gate.kind in (RY, PHASE, MULTI_CONTROLLED_RY):
        return Gate(gate.kind, gate.targets, gate.controls, angle=-gate.angle, label=gate.label)
    if gate.kind == CONTROLLED_UNITARY:
        return controlled_unitary(
            gate.controls, gate.targets, gate.matrix.conj().T, label=gate.label + "^-1"
        )
    raise ValueError(f"unknown gate kind {gate.kind}")


def invert_fragment(gates: Sequence[Gate]) -> list[Gate]:
    return [invert_gate(g) for g in reversed(gates)]


def qft_fragment(qubits: Sequence[int]) -> list[Gate]:
    """Fourier transform |x> -> 2**(-m/2) sum_y exp(2 pi i x y / 2**m) |y>.

    x and y are read MSB-first over the given qubits; the trailing swaps undo
    the bit reversal of the textbook ladder.
    """
    qubits = tuple(qubits)
    gates: list[Gate] = []
    nq = len(qubits)
    for a in range(nq):
        gates.append(hadamard(qubits[a]))
        for b in range(a + 1, nq):
            gates.append(controlled_phase(qubits[b], qubits[a], math.pi / 2 ** (b - a)))
    for a in range(nq // 2):
        gates.append(swap(qubits[a], qubits[nq - 1 - a]))
    return gates


def state_prep_unitary(vec: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is vec / ||vec||.

    Householder reflection mapping e_0 to the normalized vector; exact on the
    first column, deterministic, and its own inverse.
    """
    v = square_safe(vec)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot prepare the zero vector")
    v = v / norm
    w = v.copy()
    w[0] -= 1.0
    wnorm2 = float(w @ w)
    if wnorm2 < 1e-30:
        return np.eye(v.size)
    return np.eye(v.size) - 2.0 * np.outer(w, w) / wnorm2


def _embed_grid_vector(values: np.ndarray, n: int) -> np.ndarray:
    """Lift grid values v_1..v_{N-1} into the 2**n register (slot 0 empty)."""
    values = np.asarray(values, dtype=float)
    full = np.zeros(2 ** n)
    if values.size == 2 ** n - 1:
        full[1:] = values
    elif values.size == 2 ** n:
        full[:] = values
        if abs(full[0]) > 1e-12 * max(1.0, np.max(np.abs(full))):
            raise ValueError("register vectors must have no |0> component")
    else:
        raise ValueError(f"vector length {values.size} fits neither 2**n - 1 nor 2**n")
    return full


def _walk_basis(eigs: EigenData, n: int) -> np.ndarray:
    """Real orthogonal V with U**k = V diag(phases) V^T for every walk power.

    Column 0 is the empty |0> slot; columns 1.. are the eigenvectors.
    """
    dim = 2 ** n
    basis = np.zeros((dim, dim))
    basis[0, 0] = 1.0
    basis[1:, 1:] = eigs.vectors
    return basis


def _spectral_powers(
    eigs: EigenData, fmt: FixedPointFormat, n: int, phase_mode: str
) -> list[np.ndarray]:
    """Matrices U**(2**k) for k = 0..m-1 from the spectral definition."""
    m = fmt.total_bits
    dim = 2 ** n
    basis = _walk_basis(eigs, n)
    if phase_mode == "encoded":
        encoded = [int(amplify_encode(lam, fmt), 2) for lam in eigs.lambdas]
    else:
        ratios = [float(lam).as_integer_ratio() for lam in eigs.lambdas]
    powers = []
    for k in range(m):
        phases = np.ones(dim, dtype=complex)
        for j in range(len(eigs.lambdas)):
            if phase_mode == "encoded":
                # exact modular arithmetic keeps repeated doubling drift-free
                step = (encoded[j] * 2 ** k) % 2 ** m
                phases[j + 1] = np.exp(2j * np.pi * step / 2 ** m)
            else:
                # lam * 2**(k - i) turns, scaled exactly in integers; whole turns
                # past 2**1020 are dropped, so 2 pi times the rest stays finite
                num, den = ratios[j]
                turns = (num << (fmt.fraction_bits + k)) % (den << (m + 1020)) / (den << m)
                phases[j + 1] = np.exp(2j * np.pi * turns)
        powers.append(basis @ np.diag(phases) @ basis.T)
    return powers


def build_qpe(
    eigs: EigenData,
    fmt: FixedPointFormat,
    layout: RegisterLayout,
    phase_mode: str = "encoded",
) -> list[Gate]:
    """Phase estimation fragment: Hadamards, controlled powers, inverse QFT.

    Reg E qubit holding bit weight 2**k controls U**(2**k); after the inverse
    Fourier transform reg E reads the encoded eigenvalue MSB-first.
    phase_mode is one of PHASE_MODES, checked by the circuit builders.
    """
    m = layout.e_width
    if m != fmt.total_bits:
        raise ValueError(f"layout e_width {m} != format total_bits {fmt.total_bits}")
    gates: list[Gate] = [hadamard(q) for q in layout.reg_e]
    powers = _spectral_powers(eigs, fmt, layout.b_width, phase_mode)
    for k in range(m):
        ctrl = layout.reg_e[m - 1 - k]  # weight 2**k sits at register offset m-1-k
        gates.append(
            controlled_unitary((ctrl,), layout.reg_b, powers[k], label=f"walk^{2 ** k}")
        )
    gates.extend(invert_fragment(qft_fragment(layout.reg_e)))
    return gates


def _wrap_zero_controls(
    prefix_qubits: Sequence[int], prefix_bits: str, inner: list[Gate]
) -> list[Gate]:
    """Conjugate inner gates with X on every 0-valued control position."""
    flips = [pauli_x(q) for q, bit in zip(prefix_qubits, prefix_bits) if bit == "0"]
    return flips + inner + list(reversed(flips))


def build_rotation_explicit(table: AngleTable, layout: RegisterLayout) -> list[Gate]:
    """Rotation via an explicit angle register.

    Per eigenvalue, in ascending order: multi-controlled X gates keyed on the
    distinguishing prefix load that row's kept omega bits into reg A, one
    controlled Ry(pi / 2**(k-1)) per kept column k rotates the ancilla, and
    the mirrored loads uncompute reg A.
    """
    if layout.a_width != len(table.kept_columns):
        raise ValueError("layout reg A width must match the kept column count")
    p = table.prefix_len
    prefix_qubits = layout.reg_e[:p]
    column_qubit = dict(zip(table.kept_columns, layout.reg_a))
    gates: list[Gate] = []
    for lam_bits, om_bits in zip(table.encoded_lambdas, table.encoded_omegas):
        prefix = lam_bits[:p]
        loads = [
            multi_controlled_x(prefix_qubits, column_qubit[col])
            for col in table.kept_columns
            if om_bits[col - 1] == "1"
        ]
        block = _wrap_zero_controls(prefix_qubits, prefix, loads)
        gates.extend(block)
        for col in table.kept_columns:
            gates.append(
                multi_controlled_ry(
                    (column_qubit[col],), layout.ancilla, math.pi / 2 ** (col - 1)
                )
            )
        gates.extend(block)  # loads commute and X wraps are symmetric: self-inverse
    return gates


def build_rotation_fused(table: AngleTable, layout: RegisterLayout) -> list[Gate]:
    """Rotation without an angle register: one prefix-keyed Ry per eigenvalue.

    Each row rotates the ancilla by 2 pi times its decoded omega, controlled
    on the distinguishing prefix of reg E.  Rows whose omega rounds to zero
    rotate by nothing and are skipped.
    """
    p = table.prefix_len
    prefix_qubits = layout.reg_e[:p]
    gates: list[Gate] = []
    for lam_bits, om_bits in zip(table.encoded_lambdas, table.encoded_omegas):
        theta = 2.0 * math.pi * decode_fraction(om_bits)
        if theta == 0.0:
            continue
        inner = [multi_controlled_ry(prefix_qubits, layout.ancilla, theta)]
        gates.extend(_wrap_zero_controls(prefix_qubits, lam_bits[:p], inner))
    return gates


def _check_budget(layout: RegisterLayout, what: str, hint: str = "") -> None:
    """Refuse a layout over QUBIT_BUDGET; what names the circuit and its need."""
    if layout.total > QUBIT_BUDGET:
        raise ResourceError(f"{what} {layout.total} qubits, budget is {QUBIT_BUDGET}{hint}")


def _verification_layout(n: int, fmt: FixedPointFormat) -> RegisterLayout:
    """Reg B and reg E of a phase verification, refused over QUBIT_BUDGET."""
    layout = RegisterLayout(n, fmt.total_bits, 0)
    _check_budget(layout, "phase verification needs")
    return layout


def build_pipeline(
    system: PoissonSystem,
    fmt: FixedPointFormat,
    mode: str = "auto",
    phase_mode: str = "encoded",
) -> Circuit:
    """Full solver circuit: load b, estimate phases, rotate, uncompute.

    The solution stays in reg B conditioned on the ancilla reading 1.  mode is
    one of MODES; "auto" resolves to explicit up to AUTO_EXPLICIT_LIMIT qubits.
    The fused layout, the narrowest any mode resolves to, is checked against
    QUBIT_BUDGET before any spectral work.  metadata holds the resolved "mode",
    "eigs", the angle "table", and the walk eigenbasis V ("walk_basis") that
    the simulator uses to run the walk powers as diagonals.
    """
    check_choice("mode", mode, MODES)
    check_choice("phase_mode", phase_mode, PHASE_MODES)
    layout = RegisterLayout(system.n, fmt.total_bits, 0)
    # auto resolves to fused whenever the fused layout is over budget
    _check_budget(layout, "explicit pipeline needs at least" if mode == "explicit"
                  else "fused pipeline needs")
    eigs = eigenpairs(system)
    table = build_angle_table(eigs.lambdas, fmt)
    explicit = RegisterLayout(system.n, fmt.total_bits, len(table.kept_columns))
    if mode == "auto":
        mode = "explicit" if explicit.total <= AUTO_EXPLICIT_LIMIT else "fused"
    if mode == "explicit":
        layout = explicit
        _check_budget(layout, "explicit pipeline needs", " (fused mode would need fewer)")
    prep = controlled_unitary(
        (), layout.reg_b, state_prep_unitary(_embed_grid_vector(system.b, system.n)),
        label="load_b",
    )
    qpe = build_qpe(eigs, fmt, layout, phase_mode)
    if mode == "explicit":
        rotation = build_rotation_explicit(table, layout)
    else:
        rotation = build_rotation_fused(table, layout)
    gates = [prep] + qpe + rotation + invert_fragment(qpe)
    metadata = {"mode": mode, "eigs": eigs, "table": table,
                "walk_basis": _walk_basis(eigs, system.n)}
    return Circuit(layout=layout, gates=tuple(gates), metadata=metadata)


def build_phase_verification(
    system: PoissonSystem,
    fmt: FixedPointFormat,
    input_vector: np.ndarray,
    phase_mode: str = "encoded",
) -> Circuit:
    """State prep plus the bare QPE fragment, for reading reg E directly.

    input_vector holds grid values (length 2**n - 1, or 2**n with an empty
    |0> slot); it is normalized during preparation.  No rotation or
    uncompute follows, so reg E carries the encoded eigenvalue distribution.
    The budget is checked first; metadata holds only "walk_basis".
    """
    check_choice("phase_mode", phase_mode, PHASE_MODES)
    layout = _verification_layout(system.n, fmt)
    eigs = eigenpairs(system)
    full = _embed_grid_vector(input_vector, system.n)
    prep = controlled_unitary((), layout.reg_b, state_prep_unitary(full), label="load_input")
    gates = [prep] + build_qpe(eigs, fmt, layout, phase_mode)
    return Circuit(layout=layout, gates=tuple(gates),
                   metadata={"walk_basis": _walk_basis(eigs, system.n)})
