"""Dense statevector simulation of the gate IR.

Amplitudes live in one complex128 array of length 2**q.  Bit (q-1-g) of a
basis index belongs to qubit g, so qubit 0 is the most significant bit,
matching the circuit module's convention.

apply_gate is the reference kernel: it applies one gate in place by slicing
away the control axes and updating the target axes through the resulting
views.  fragment_unitary and the tests use it.

run_exact does not replay gates one at a time.  lower() turns the gate list
into a short plan of fused passes, and run_exact executes each pass on one
buffer as the planner emits it; the IR itself is never changed.  Every pass
addresses the qubits' own axes: buffer axis g holds qubit g throughout.  The
lowering rules, each exact:

- A run of diagonal gates (controlled phases, diagonal CUs, PHASE) becomes
  one DIAG pass: a precomputed phase table broadcast over the state.
- A rotation segment becomes one RY pass, a multiplexed rotation with one
  angle per bit pattern of the other qubits it touches.  A segment is a
  run of X, MCX, RY and MCRY gates whose rotations share a target that no
  X or MCX touches; on each pattern its X and MCX gates are classical bit
  flips, and they must return every pattern to itself.  Either rotation
  stage is one segment: the fused stage's X wraps and the explicit stage's
  reg A loads and unloads undo themselves on every pattern.
- An uncontrolled dense CU (state preparation) stays pending until a gate
  needs its qubits or the next uncontrolled CU arrives, and then runs as
  one DENSE pass.  The QPE walk powers U**(2**k) = V D_k V^T share the
  eigenbasis V that the builders record in metadata["walk_basis"]; once
  V^T M V is checked diagonal, a walk power becomes a controlled diagonal
  in that basis.  The planner emits V^T (with the pending state preparation
  folded in) once, and V once after uncompute, since the rotation between
  them never touches reg B.
- A gate run that is exactly circuit.qft_fragment(register), or its
  inverse, becomes one QFT pass (numpy's FFT, orthonormal) when the
  register is consecutive qubits in order; otherwise its gates are lowered
  one by one.
- H runs in place as (a, b) -> (a + b, a - b); the 1/sqrt(2) factors are
  folded into the next pass that rescales the whole state.  Hadamards on
  the untouched |0...0> state and the first state preparation only build a
  product state, which one PREP pass writes directly.
- Any other gate (a SWAP outside a Fourier fragment, a controlled
  non-diagonal CU outside the walk basis, a dense CU on non-consecutive
  qubits, an X, MCX, RY or MCRY outside a rotation segment) runs as a GATE
  pass: one apply_gate call.

The fused kernels (H, RY, DIAG, DENSE, QFT, PREP) work through the state in
cache-sized blocks, so none of them allocates a copy of the state; the
largest temporaries are 4 MiB phase tables and FFT blocks.  A GATE pass may
allocate like apply_gate does; no builder circuit lowers to one.

Sampling draws independent measurement records from the exact final
distribution with numpy's PCG64 generator, as one multinomial draw over the
measured outcomes; a fixed seed reproduces results bit for bit.  Readouts
are count vectors: counts[v] is the number of records that read value v,
MSB first over the measured qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import circuit as cg
from .circuit import Circuit, Gate, RegisterLayout, QUBIT_BUDGET
from .errors import PostselectionError, ResourceError, check_choice

__all__ = [
    "BACKENDS",
    "RNG_NAME",
    "Statevector",
    "RunResult",
    "zero_state",
    "apply_gate",
    "Pass",
    "Plan",
    "lower",
    "run_exact",
    "postselect",
    "register_probabilities",
    "sample_counts",
    "sample",
    "fragment_unitary",
    "circuit_unitary",
    "check_backend",
]

# "exact" reads the final state directly; "sample" draws measurement records.
BACKENDS = ("exact", "sample")
RNG_NAME = "PCG64"
_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass
class Statevector:
    """Mutable amplitude buffer over q qubits."""

    amps: np.ndarray
    q: int

    def tensor(self) -> np.ndarray:
        return self.amps.reshape((2,) * self.q)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class RunResult:
    """Outcome of a sampling run: kept-shot solution estimate and counts.

    counts[v] is the number of records that read value v over the ancilla
    (the most significant bit) and then reg B, MSB first; counts sums to
    shots.  success_prob is the kept fraction, a plain ratio in [0, 1].
    """

    solution: np.ndarray
    success_prob: float
    counts: np.ndarray
    shots: int
    seed: int


def zero_state(q: int) -> Statevector:
    amps = np.zeros(2 ** q, dtype=complex)
    amps[0] = 1.0
    return Statevector(amps=amps, q=q)


def _controlled_view(tensor: np.ndarray, controls: Sequence[int]):
    """View of the all-controls-one block, plus the axis remap offsets."""
    index = [slice(None)] * tensor.ndim
    for c in controls:
        index[c] = 1
    return tensor[tuple(index)]


def _remap_axis(axis: int, controls: Sequence[int]) -> int:
    return axis - sum(1 for c in controls if c < axis)


def _apply_single(view: np.ndarray, axis: int, u00, u01, u10, u11):
    """2x2 matrix on one axis of a (possibly sliced) view, in place."""
    moved = np.moveaxis(view, axis, 0)
    # ellipsis keeps 0-d results as views; bare ints would return scalar copies
    a0, a1 = moved[0, ...], moved[1, ...]
    if u01 == 0 and u10 == 0:  # diagonal: no cross terms, no scratch copy
        if u00 != 1:
            a0 *= u00
        if u11 != 1:
            a1 *= u11
        return
    tmp = a0.copy()
    a0 *= u00
    a0 += u01 * a1
    a1 *= u11
    a1 += u10 * tmp


def _apply_x(view: np.ndarray, axis: int):
    moved = np.moveaxis(view, axis, 0)
    tmp = moved[0].copy()
    moved[0] = moved[1]
    moved[1] = tmp


def _apply_dense(view: np.ndarray, axes: Sequence[int], matrix: np.ndarray):
    """Dense unitary across several target axes of a view, in place."""
    t = len(axes)
    moved = np.moveaxis(view, axes, range(t))
    shape = moved.shape
    flat = moved.reshape(2 ** t, -1)  # copies when the view is not contiguous
    result = matrix @ flat
    moved[...] = result.reshape(shape)


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate in place and return the state."""
    tensor = state.tensor()
    kind = gate.kind
    if kind == cg.HADAMARD:
        q = gate.targets[0]
        _apply_single(tensor, q, _SQRT_HALF, _SQRT_HALF, _SQRT_HALF, -_SQRT_HALF)
    elif kind == cg.PAULI_X:
        _apply_x(tensor, gate.targets[0])
    elif kind == cg.RY:
        c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
        _apply_single(tensor, gate.targets[0], c, -s, s, c)
    elif kind == cg.PHASE:
        _apply_single(tensor, gate.targets[0], 1.0, 0.0, 0.0, np.exp(1j * gate.angle))
    elif kind == cg.SWAP:
        a, b = gate.targets
        moved = np.moveaxis(tensor, (a, b), (0, 1))
        tmp = moved[0, 1].copy()
        moved[0, 1] = moved[1, 0]
        moved[1, 0] = tmp
    elif kind == cg.MULTI_CONTROLLED_X:
        view = _controlled_view(tensor, gate.controls)
        _apply_x(view, _remap_axis(gate.targets[0], gate.controls))
    elif kind == cg.MULTI_CONTROLLED_RY:
        view = _controlled_view(tensor, gate.controls)
        c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
        _apply_single(view, _remap_axis(gate.targets[0], gate.controls), c, -s, s, c)
    elif kind == cg.CONTROLLED_UNITARY:
        view = _controlled_view(tensor, gate.controls)
        axes = [_remap_axis(t, gate.controls) for t in gate.targets]
        m = gate.matrix
        if len(axes) == 1 and m[0, 1] == 0 and m[1, 0] == 0:
            _apply_single(view, axes[0], m[0, 0], 0.0, 0.0, m[1, 1])
        else:
            _apply_dense(view, axes, m)
    else:
        raise ValueError(f"unknown gate kind {kind}")
    return state


# -- execution plan ------------------------------------------------------------

# Amplitudes per cache block in the kernels that make several sweeps over the
# same data (H, multiplexed Ry, dense blocks).
_CHUNK = 1 << 14
# Contiguous runs at least this long are swept as separate 1-D slices.
_LONG_RUN = 1 << 10
# Widest fused diagonal or multiplexor table, in qubits (2**18 complex128 =
# 4 MiB); a longer run is split into several passes.
_TABLE_QUBITS = 18
# A diagonal table also spans the free axes below it when they are fewer than
# this many amplitudes, so its innermost loop is not a handful of elements.
_SHORT_TAIL = 32
# Off-diagonal tolerance of V^T M V before a CU runs in the walk eigenbasis.
_BASIS_TOL = 1e-12
# Hadamards whose 1/sqrt(2) may stay pending before a separate scale pass.
_MAX_PENDING_H = 512
# Amplitudes per np.fft call of a QFT pass (4 MiB of complex128).
_DFT_BLOCK = 1 << 18


@dataclass(frozen=True, eq=False)
class Pass:
    """One sweep over the state; axes and controls name qubits.

    kind is H (axes = (target,)), DIAG (data: phase table over axes), RY
    (target; data[0] and data[1]: cos and sin tables over the controls),
    DENSE (data: matrix over consecutive target qubits), SCALE (data: the
    factor), QFT or IQFT (the Fourier transform of qft_fragment, or its
    inverse, over consecutive qubits), PREP, which writes a product state
    into the |0...0> buffer: data (a vector, MSB first) on axes, the
    unnormalized (1, 1) on each of controls, 0 on the rest; or GATE, a gate
    outside the fusion rules, that apply_gate runs.
    """

    kind: str
    axes: tuple[int, ...] = ()
    controls: tuple[int, ...] = ()
    data: np.ndarray | None = None
    gate: Gate | None = None


@dataclass(frozen=True, eq=False)
class Plan:
    """Fused passes for a circuit, in the order run_exact executes them."""

    q: int
    passes: tuple[Pass, ...]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for p in self.passes:
            out[p.kind] = out.get(p.kind, 0) + 1
        return out


class _Planner:
    """Lowers gates to passes on the qubits' own axes, deferring what it can.

    - pending: an uncontrolled dense unitary on a target tuple, applied
      lazily, before any other gate on its qubits and before the next
      uncontrolled one.  A controlled CU that V^T M V = D diagonalizes (V
      the walk eigenbasis) becomes a controlled diagonal once pending holds
      V, so the walk powers cost one V^T (with load_b folded in), diagonal
      passes, and one V at the end.
    - run: the terms of an open DIAG pass; consecutive diagonal gates fuse
      into it while its table stays within table_qubits.
    - fresh, h_count: the Hadamards of the product-state prologue, and those
      whose 1/sqrt(2) is still to be folded into a pass that rescales the
      whole state.

    A whole Fourier fragment (see _fourier_at) becomes one QFT pass, and a
    rotation segment (see _rotation_at) one multiplexed RY pass.  Hadamards
    on the untouched |0...0> state, and the first uncontrolled dense pass on
    other qubits, only build a product state, so they become one PREP pass
    that writes it.  A gate that no rule covers runs through apply_gate as a
    GATE pass, once the pending matrix on its qubits is applied.
    """

    def __init__(self, q: int, basis: np.ndarray | None, sink):
        self.q = q
        self.sink = sink  # receives each pass as soon as it is final
        # tables stay at a quarter of the state or less
        self.table_qubits = min(_TABLE_QUBITS, q - 2)
        if basis is not None:
            # only a real orthogonal V turns V^T M V into M's spectrum
            basis = np.asarray(basis)
            square = basis.ndim == 2 and basis.shape[0] == basis.shape[1]
            if np.iscomplexobj(basis) or not square or np.max(
                np.abs(basis.T @ basis - np.eye(len(basis)))
            ) > _BASIS_TOL:
                basis = None
        self.basis = basis
        self.fresh: list[int] | None = []  # H axes applied to |0...0> so far
        self.run: list | None = None  # (axes, table) terms of the open DIAG pass
        self.pending: tuple | None = None  # (targets, matrix, holds the basis)
        self.h_count = 0

    # -- emission -------------------------------------------------------------
    def _scale(self) -> float:
        factor, self.h_count = 0.5 ** (self.h_count / 2), 0
        return factor

    def _emit(self, p: Pass) -> None:
        if self.fresh is not None:
            if p.kind == "H" and p.axes[0] not in self.fresh:
                self.fresh.append(p.axes[0])
                return
            p = self._prep(p)
            if p is None:
                return
        self.sink(p)

    def _prep(self, p: Pass) -> Pass | None:
        """End the product-state prologue: emit PREP absorbing p, or the H passes."""
        spread, self.fresh = tuple(self.fresh), None
        if p.kind == "DENSE" and not set(p.axes) & set(spread):
            self.sink(Pass("PREP", p.axes, spread, data=p.data[:, 0].copy()))
            return None
        for axis in spread:
            self.sink(Pass("H", (axis,)))
        return p

    def _close(self) -> None:
        """Emit the open DIAG pass."""
        run, self.run = self.run, None
        if run is not None:
            axes, table = _diag_table(run, self.q, self._scale(), self.table_qubits)
            self._emit(Pass("DIAG", axes, data=table))

    def _apply(self, gate: Gate) -> None:
        """Run a gate through apply_gate, after the open run."""
        self._close()
        self._emit(Pass("GATE", gate=gate))

    def _dense(self, targets, matrix) -> None:
        """Uncontrolled matrix: a DENSE pass on consecutive qubits, else a GATE."""
        self._close()
        if self.h_count:
            matrix = matrix * self._scale()
        if _consecutive(targets) and 1 << len(targets) <= _CHUNK:
            self._emit(Pass("DENSE", targets, data=np.asarray(matrix, dtype=complex)))
        else:
            self._apply(Gate(cg.CONTROLLED_UNITARY, targets, matrix=matrix))

    def _flush(self, qubits=None) -> None:
        """Apply the pending dense unitary (only if it touches `qubits`)."""
        if self.pending is None:
            return
        targets, matrix, _ = self.pending
        if qubits is not None and not set(qubits) & set(targets):
            return
        self.pending = None
        self._dense(targets, matrix)

    # -- fused runs -----------------------------------------------------------
    def _diag(self, qubits, table: np.ndarray) -> None:
        """Diagonal factor table[bits of qubits], qubits in any order."""
        table = np.transpose(table.reshape((2,) * len(qubits)), np.argsort(qubits))
        term = (tuple(sorted(qubits)), table)
        if self.run is not None:
            union = set(term[0]).union(*(a for a, _ in self.run))
            if len(union) <= self.table_qubits:
                self.run.append(term)
                return
        self._close()
        self.run = [term]

    def _controlled_diag(self, controls, targets, diag: np.ndarray) -> None:
        """diag on targets where every control is 1, identity elsewhere."""
        table = np.ones((2,) * len(controls) + (diag.size,), dtype=complex)
        table[(1,) * len(controls)] = diag
        self._diag(controls + targets, table)

    # -- gates ----------------------------------------------------------------
    def _defer_cu(self, gate: Gate) -> bool:
        """Keep an uncontrolled CU pending, or run a walk power as a diagonal."""
        controls, targets, matrix = gate.controls, gate.targets, gate.matrix
        if not controls:
            self._flush()
            self.pending = (targets, matrix, False)
            return True
        pending = self.pending
        basis = self.basis
        if basis is None or matrix.shape != basis.shape:
            return False
        if pending is not None and pending[0] != targets:
            return False
        rotated = basis.T @ matrix @ basis
        diag = np.diagonal(rotated).copy()
        if np.max(np.abs(rotated - np.diag(diag))) > _BASIS_TOL:
            return False
        if pending is None or not pending[2]:
            self.pending = None
            self._dense(targets, basis.T if pending is None else basis.T @ pending[1])
            self.pending = (targets, basis, True)
        self._controlled_diag(controls, targets, diag)
        return True

    def add(self, gate: Gate) -> None:
        kind = gate.kind
        if kind == cg.CONTROLLED_UNITARY and self._defer_cu(gate):
            return
        self._flush(_controls(gate) + gate.targets)
        if kind == cg.HADAMARD:
            self._close()
            self._emit(Pass("H", gate.targets))
            self.h_count += 1
            if self.h_count >= _MAX_PENDING_H:
                self._emit(Pass("SCALE", data=np.asarray(self._scale())))
        elif kind == cg.PHASE:
            self._diag(gate.targets, np.array([1.0, np.exp(1j * gate.angle)]))
        elif kind == cg.CONTROLLED_UNITARY:
            diag = np.diagonal(gate.matrix)
            if np.any(gate.matrix - np.diag(diag)):
                self._apply(gate)
            else:
                self._controlled_diag(gate.controls, gate.targets, diag)
        elif kind in (cg.SWAP, cg.PAULI_X, cg.RY, cg.MULTI_CONTROLLED_X, cg.MULTI_CONTROLLED_RY):
            self._apply(gate)
        else:
            raise ValueError(f"unknown gate kind {kind}")

    def add_qft(self, register, inverse: bool) -> bool:
        """One QFT pass for a whole Fourier fragment on consecutive qubits."""
        if not _consecutive(register):
            return False
        self._flush(register)
        self._close()
        self._emit(Pass("IQFT" if inverse else "QFT", register))
        return True

    def add_rotation(self, target: int, qubits, angles: np.ndarray) -> None:
        """One RY pass on target: angles[bits of qubits (ascending), MSB first]."""
        self._flush(qubits + (target,))
        self._close()
        data = self._scale() * np.stack([np.cos(angles / 2), np.sin(angles / 2)]).astype(complex)
        self._emit(Pass("RY", (target,), qubits, data=data))

    def finish(self) -> None:
        """Emit what is still pending."""
        self._flush()
        self._close()
        if self.h_count:  # this also ends a prologue of Hadamards only
            self._emit(Pass("SCALE", data=np.asarray(self._scale())))


def _consecutive(qubits) -> bool:
    return tuple(qubits) == tuple(range(qubits[0], qubits[0] + len(qubits)))


def _controls(gate: Gate) -> tuple[int, ...]:
    """The controls apply_gate reads: only the controlled kinds have any."""
    if gate.kind in (cg.MULTI_CONTROLLED_X, cg.MULTI_CONTROLLED_RY, cg.CONTROLLED_UNITARY):
        return gate.controls
    return ()


def _diag_table(terms, q: int, scale: float, cap: int) -> tuple[tuple[int, ...], np.ndarray]:
    """scale times the product of diagonal terms, over the union of their axes."""
    axes, table = [], np.full((), scale, dtype=complex)
    for term_axes, values in terms:
        # widen the table only as far as the terms so far reach
        union = sorted(set(axes).union(term_axes))
        if union != axes:
            table = table.reshape([2 if a in axes else 1 for a in union])
        table = table * values.reshape([2 if a in term_axes else 1 for a in union])
        axes = union
    tail = q - 1 - axes[-1]
    if 0 < tail and 2 ** tail < _SHORT_TAIL and len(axes) + tail <= cap:
        table = np.ascontiguousarray(
            np.broadcast_to(table.reshape(table.shape + (1,) * tail), table.shape + (2,) * tail)
        )
        axes += range(axes[-1] + 1, q)
    return tuple(axes), table


def _same_gate(a: Gate, b: Gate) -> bool:
    if (a.kind, a.targets, a.controls) != (b.kind, b.targets, b.controls):
        return False
    if abs(a.angle - b.angle) > 1e-12:
        return False
    return a.matrix is None or float(np.max(np.abs(a.matrix - b.matrix))) <= 1e-12


def _fourier_at(gates: Sequence[Gate], i: int):
    """(register, inverse, length) if gates[i:] is a qft_fragment or its inverse.

    The width w comes from the opening gates: a forward fragment opens with
    H and w - 1 phases, an inverse one with floor(w/2) swaps.  The register
    is read off the fragment's Hadamards, then the whole window of
    w(w+1)/2 + floor(w/2) gates is compared gate by gate (angles and
    matrices to 1e-12) with what the builder emits.
    """
    def kind(j):
        return gates[j].kind if j < len(gates) else None

    opening = kind(i)
    if opening not in (cg.HADAMARD, cg.SWAP):
        return None
    j = i + 1
    while kind(j) == (cg.CONTROLLED_UNITARY if opening == cg.HADAMARD else cg.SWAP):
        j += 1
    inverse = opening == cg.SWAP
    for width in (2 * (j - i), 2 * (j - i) + 1) if inverse else (j - i,):
        length = width * (width + 1) // 2 + width // 2
        window = gates[i : i + length]
        if width < 2 or len(window) < length:
            continue
        # in qft_fragment, the Hadamard on register[a] opens row a of the ladder
        rows = [a * width - a * (a - 1) // 2 for a in range(width)]
        hadamards = [window[length - 1 - r if inverse else r] for r in rows]
        register = tuple(g.targets[0] for g in hadamards)
        if any(g.kind != cg.HADAMARD for g in hadamards) or len(set(register)) < width:
            continue
        fragment = cg.qft_fragment(register)
        if inverse:
            fragment = cg.invert_fragment(fragment)
        if all(map(_same_gate, window, fragment)):
            return register, inverse, length
    return None


def _rotation_at(gates: Sequence[Gate], i: int, cap: int):
    """(target, qubits, angles, length) if gates[i:] opens a rotation segment.

    The candidate is the longest run of X, MCX, RY and MCRY gates from i.
    Its rotations must share one target that no X or MCX touches, and the
    other qubits it touches must number at most cap.  On each bit pattern
    of those qubits the X and MCX gates only permute classical bits, and
    each rotation adds its angle where its controls read 1.  If every
    pattern returns to itself, the run is one multiplexed Ry with
    angles[pattern] (qubits MSB first); otherwise this returns None.
    """
    end = i
    while end < len(gates) and gates[end].kind in (
        cg.PAULI_X, cg.MULTI_CONTROLLED_X, cg.RY, cg.MULTI_CONTROLLED_RY
    ):
        end += 1
    run = [(g, g.kind in (cg.PAULI_X, cg.MULTI_CONTROLLED_X)) for g in gates[i:end]]
    targets = {g.targets[0] for g, flip in run if not flip}
    if len(targets) != 1 or any(flip and targets & {*_controls(g), *g.targets} for g, flip in run):
        return None
    (target,) = targets
    qubits = sorted({q for g, _ in run for q in _controls(g) + g.targets} - targets)
    if len(qubits) > cap:
        return None
    row = {q: r for r, q in enumerate(qubits)}
    start = ((np.arange(1 << len(qubits)) >> np.arange(len(qubits))[::-1, None]) & 1).astype(bool)
    bits, angles = start.copy(), np.zeros(1 << len(qubits))
    for g, flip in run:
        hit = bits[[row[c] for c in _controls(g)]].all(axis=0)
        if flip:
            bits[row[g.targets[0]]] ^= hit
        else:
            angles[hit] += g.angle
    if not np.array_equal(bits, start):
        return None
    return target, tuple(qubits), angles, len(run)


def _plan(circuit: Circuit, sink) -> None:
    planner = _Planner(circuit.layout.total, circuit.metadata.get("walk_basis"), sink)
    gates = circuit.gates
    i = 0
    while i < len(gates):
        fourier = _fourier_at(gates, i)
        rotation = _rotation_at(gates, i, planner.table_qubits)
        if fourier is not None and planner.add_qft(fourier[0], fourier[1]):
            i += fourier[2]
        elif rotation is not None:
            planner.add_rotation(*rotation[:3])
            i += rotation[3]
        else:
            planner.add(gates[i])
            i += 1
    planner.finish()


def lower(circuit: Circuit) -> Plan:
    """The fused passes run_exact executes, collected for inspection.

    The walk eigenbasis is read from circuit.metadata["walk_basis"] when the
    builder recorded one; without it every controlled dense CU runs as a
    GATE pass.  run_exact streams the same passes instead of collecting
    them, so only one pass's table is alive at a time.
    """
    passes: list[Pass] = []
    _plan(circuit, passes.append)
    return Plan(q=circuit.layout.total, passes=tuple(passes))


def _blocks(shape):
    """Index tuples that tile an array of this shape in blocks of <= _CHUNK."""
    size, split = 1, len(shape)
    while split > 0 and size * shape[split - 1] <= _CHUNK:
        split -= 1
        size *= shape[split]
    if split == 0:
        yield (Ellipsis,)
        return
    step = max(1, _CHUNK // size)
    for lead in np.ndindex(*shape[: split - 1]):
        for j in range(0, shape[split - 1], step):
            yield lead + (slice(j, j + step),)


def _scratch(buf: np.ndarray, shape) -> np.ndarray:
    return buf[: math.prod(shape)].reshape(shape)


def _run_h(psi: np.ndarray, q: int, p: Pass, buf: np.ndarray) -> None:
    """Unnormalized H, in place: (a, b) -> (a + b, a - b)."""
    axis = p.axes[0]
    outer, inner = 1 << axis, 1 << (q - axis - 1)
    v = psi.reshape(outer, 2, inner)
    if inner <= 4:
        # tiny inner runs: sweep each column of a row block as one long line
        rows = max(1, _CHUNK // inner)
        pairs = (
            (v[i : i + rows, 0, r], v[i : i + rows, 1, r])
            for i in range(0, outer, rows)
            for r in range(inner)
        )
    elif inner >= _LONG_RUN:
        # 1-D slices: numpy iterates them far faster than 2-D row blocks
        pairs = (
            (v[i, 0, j : j + _CHUNK], v[i, 1, j : j + _CHUNK])
            for i in range(outer)
            for j in range(0, inner, _CHUNK)
        )
    else:
        rows = _CHUNK // inner
        pairs = ((v[i : i + rows, 0], v[i : i + rows, 1]) for i in range(0, outer, rows))
    for a0, a1 in pairs:
        a0 += a1
        a1 *= -2.0
        a1 += a0


def _halves(psi: np.ndarray, q: int, target: int, table_axes):
    """Target-0 and target-1 views of the state, one axis per other qubit.

    Also returns the shape a table over table_axes broadcasts as against
    them: 2 on a table axis, 1 elsewhere.
    """
    v = psi.reshape((2,) * q)
    lead = (slice(None),) * target
    # the Ellipsis keeps 0-d results as views
    a0, a1 = v[lead + (0, Ellipsis)], v[lead + (1, Ellipsis)]
    return a0, a1, [2 if a in table_axes else 1 for a in range(q) if a != target]


def _run_ry(psi: np.ndarray, q: int, p: Pass, buf: np.ndarray) -> None:
    """Multiplexed Ry: one angle per control pattern, as cos/sin tables."""
    a0, a1, shape = _halves(psi, q, p.axes[0], p.controls)
    cos, sin = p.data[0].reshape(shape), p.data[1].reshape(shape)
    half = buf.size // 2
    for idx in _blocks(a0.shape):
        x0, x1 = a0[idx], a1[idx]
        c, s = cos, sin
        if idx[-1] is not Ellipsis:
            tidx = tuple(i if n > 1 else slice(None) if isinstance(i, slice) else 0
                         for i, n in zip(idx, shape))
            c, s = cos[tidx], sin[tidx]
        s0 = np.multiply(x0, s, out=_scratch(buf, x0.shape))
        s1 = np.multiply(x1, s, out=_scratch(buf[half:], x1.shape))
        x0 *= c
        x0 -= s1
        x1 *= c
        x1 += s0


def _run_diag(psi: np.ndarray, q: int, p: Pass, buf: np.ndarray) -> None:
    table = p.data.reshape([2 if a in p.axes else 1 for a in range(q)])
    psi.reshape((2,) * q)[...] *= table


def _run_dense(psi: np.ndarray, q: int, p: Pass, buf: np.ndarray) -> None:
    """Matrix on consecutive axes: blocks of columns through one small matmul each."""
    first, t = p.axes[0], len(p.axes)
    dim, inner = 1 << t, 1 << (q - first - t)
    v = psi.reshape(1 << first, dim, inner)
    cols = max(1, _CHUNK // dim)
    for i in range(1 << first):
        for j in range(0, inner, cols):
            block = v[i, :, j : j + cols]
            block[...] = np.matmul(p.data, block, out=_scratch(buf, block.shape))


def _run_gate(psi: np.ndarray, q: int, p: Pass, buf: np.ndarray) -> None:
    apply_gate(Statevector(psi, q), p.gate)


def _run_scale(psi: np.ndarray, q: int, p: Pass, buf: np.ndarray) -> None:
    psi *= p.data


def _run_qft(psi: np.ndarray, q: int, p: Pass, buf: np.ndarray) -> None:
    """|x> -> 2**(-w/2) sum_y exp(+-2 pi i x y / 2**w) |y> over the axes."""
    width = len(p.axes)
    v = psi.reshape(1 << p.axes[0], 1 << width, -1)
    transform = np.fft.ifft if p.kind == "QFT" else np.fft.fft  # ifft has the + sign
    cols = max(1, _DFT_BLOCK >> width)
    for i in range(v.shape[0]):
        for j in range(0, v.shape[2], cols):
            block = v[i, :, j : j + cols]
            block[...] = transform(block, axis=0, norm="ortho")


def _run_prep(psi: np.ndarray, q: int, p: Pass, buf: np.ndarray) -> None:
    """Write the product state; psi still holds |0...0>."""
    spread = set(p.axes + p.controls)
    block = psi.reshape((2,) * q)[tuple(slice(None) if a in spread else 0 for a in range(q))]
    block[...] = p.data.reshape([2 if a in p.axes else 1 for a in sorted(spread)])


_KERNELS = {
    "H": _run_h,
    "RY": _run_ry,
    "DIAG": _run_diag,
    "DENSE": _run_dense,
    "GATE": _run_gate,
    "SCALE": _run_scale,
    "PREP": _run_prep,
    "QFT": _run_qft,
    "IQFT": _run_qft,
}


def run_exact(circuit: Circuit) -> Statevector:
    """Run all gates from |0...0> and return the final state.

    The gates are lowered to fused passes (see lower), each executed on one
    buffer as soon as the planner emits it; apply_gate is the reference the
    passes are tested against.
    """
    q = circuit.layout.total
    if q > QUBIT_BUDGET:
        raise ResourceError(f"circuit needs {q} qubits, budget is {QUBIT_BUDGET}")
    state = zero_state(q)
    buf = np.empty(2 * _CHUNK, dtype=complex)  # the only scratch: two cache blocks
    _plan(circuit, lambda p: _KERNELS[p.kind](state.amps, q, p, buf))
    drift = abs(state.norm() - 1.0)
    if not drift < 1e-9:
        raise RuntimeError(f"norm drifted by {drift:.3e}")
    return state


def postselect(state: Statevector, layout: RegisterLayout) -> tuple[np.ndarray, float]:
    """Condition on ancilla = 1; return (signed solution, success prob).

    The solution covers reg B basis states 1 .. 2**n - 1.  Reg E and reg A
    are |0> in the kept branch by the uncompute structure, so the amplitudes
    are read from that sub-block and renormalized.  Every pipeline gate is
    real apart from the phase-estimation phases, which uncompute cancels, so
    the block is real and carries the sign of the solution; an imaginary
    part above 1e-9 of the block norm raises PostselectionError.
    """
    tensor = state.tensor()
    anc = state.amps.reshape(2 ** layout.ancilla, 2, -1)[:, 1, :]
    # block by block: squaring the whole half-state would double peak memory
    success = sum(float(np.vdot(anc[idx], anc[idx]).real) for idx in _blocks(anc.shape))
    if success < 1e-15:
        raise PostselectionError(f"ancilla=1 probability {success:.3e} is degenerate")
    index = [slice(None)] * layout.total
    for q in layout.reg_e + layout.reg_a:
        index[q] = 0
    index[layout.ancilla] = 1
    block = tensor[tuple(index)].reshape(-1)[1:]  # remaining axes are reg B, MSB first
    amplitudes = block.real.copy()
    norm = np.linalg.norm(amplitudes)
    if norm < 1e-15:
        raise PostselectionError("kept branch has no weight on reg B states 1..N-1")
    residual = np.linalg.norm(block.imag)
    if residual > 1e-9 * norm:
        raise PostselectionError(
            f"kept branch is not real (imaginary residual {residual / norm:.3e} of its norm)"
        )
    return amplitudes / norm, success


def register_probabilities(state: Statevector, qubits: Sequence[int]) -> np.ndarray:
    """Marginal probabilities over the given qubits, read MSB-first.

    The state is reduced one block of _CHUNK amplitudes at a time, so no
    temporary grows with the state.
    """
    qubits = tuple(qubits)
    low = min(state.q, _CHUNK.bit_length() - 1)
    high = state.q - low  # a block fixes qubits 0..high-1
    kept = [g - high for g in qubits if g >= high]
    axes = kept + [ax for ax in range(low) if ax + high not in qubits]
    out = np.zeros((2,) * len(qubits))
    for row, block in enumerate(state.amps.reshape(1 << high, 1 << low)):
        probs = (np.square(block.real) + np.square(block.imag)).reshape((2,) * low)
        part = probs.transpose(axes).reshape((2,) * len(kept) + (-1,)).sum(axis=-1)
        index = tuple((row >> (high - 1 - g)) & 1 if g < high else slice(None) for g in qubits)
        out[index] += part
    return out.reshape(-1)


def sample_counts(
    state: Statevector, qubits: Sequence[int], shots: int, seed: int
) -> np.ndarray:
    """How many of shots measurements of qubits read each value v, MSB first (int64)."""
    probs = register_probabilities(state, qubits)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)  # O(2**width) memory whatever the shots


def check_backend(backend: str, shots: int) -> None:
    """Refuse a backend outside BACKENDS and a shot count below 1."""
    check_choice("backend", backend, BACKENDS)
    if shots < 1:
        raise ValueError("shots must be >= 1")


def sample(circuit: Circuit, shots: int, seed: int) -> RunResult:
    """Sampling backend: measure ancilla and reg B, keep ancilla = 1 records.

    solution_i = sqrt(v_i / sum v) over kept counts v_i for reg B values
    i = 1 .. 2**n - 1; success_prob is the kept fraction.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    state = run_exact(circuit)
    layout = circuit.layout
    counts = sample_counts(state, (layout.ancilla,) + layout.reg_b, shots, seed)
    kept = counts.reshape(2, -1)[1]  # the ancilla is the most significant bit
    total_kept = int(kept.sum())
    if total_kept == 0:
        raise PostselectionError(f"no ancilla=1 records in {shots} shots")
    weights = kept[1:]
    if weights.sum() == 0:
        raise PostselectionError("kept records never landed on reg B states 1..N-1")
    solution = np.sqrt(weights / weights.sum())
    return RunResult(
        solution=solution,
        success_prob=total_kept / shots,
        counts=counts,
        shots=shots,
        seed=seed,
    )


def fragment_unitary(gates: Sequence[Gate], q: int) -> np.ndarray:
    """Dense matrix of a gate list on q <= 12 qubits (a 256 MiB matrix); for tests."""
    if q > 12:
        raise ResourceError(f"refusing dense unitary on {q} qubits (cap 12)")
    dim = 2 ** q
    out = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        state = Statevector(np.zeros(dim, dtype=complex), q)
        state.amps[col] = 1.0
        for gate in gates:
            apply_gate(state, gate)
        out[:, col] = state.amps
    return out


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    return fragment_unitary(circuit.gates, circuit.layout.total)
