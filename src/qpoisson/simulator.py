"""Dense statevector simulation of the gate IR.

Amplitudes live in one complex128 array of length 2**q.  Bit (q-1-g) of a
basis index belongs to qubit g, so qubit 0 is the most significant bit,
matching the circuit module's convention.

apply_gate is the reference kernel, one path for every gate kind: the
gate's target matrix (_target_matrix says each kind's once) multiplies the
target axes of the block where its controls read 1, in place.  It copies
the block when the block is not contiguous and allocates the product.
The GATE pass and the tests use it.

run_exact does not replay gates one at a time.  lower() turns the gate list
into a short plan of fused passes, planned once; the IR itself is never
changed.  Every pass addresses the qubits' own axes and normalizes itself.
The lowering rules, each exact:

- At the start, Hadamards on untouched qubits and uncontrolled
  non-diagonal CUs on consecutive qubits (state preparation) only build a
  product state, which one PREP pass writes.  Any later run of Hadamards
  on distinct qubits is one H pass, over their axes in gate order.
- A run of diagonal CUs, controlled or not (controlled phases, say),
  becomes one DIAG pass, which keeps each gate's small table and
  multiplies the state by their product when it runs.
- A rotation segment becomes one RY pass, a multiplexed rotation with one
  angle per bit pattern of the other qubits it touches that an earlier
  gate has written.  A segment is a run of X, MCX and MCRY gates whose
  rotations share a target that no X or MCX touches.  Every plan starts
  from |0...0>, so a qubit that no earlier gate targets is |0> when the
  segment opens: it starts each pattern at 0 and is no control.  On each
  pattern the X and MCX gates are classical bit flips, and they must
  return every pattern to itself, an unwritten qubit to 0.  Either
  rotation stage is one segment: the fused stage's X wraps undo
  themselves on every reg E prefix, and the explicit stage's reg A loads
  and unloads return reg A to 0, so its RY pass reads the reg E prefix
  only.
- The QPE walk powers U**(2**k) = V D_k V^T share the eigenbasis V that
  the builders record in metadata["walk_basis"].  Every controlled CU of
  V's shape is checked once, as one stack: V^T M V for all of them in one
  stacked product, before the gates are lowered.  A walk power whose V^T M
  V is diagonal becomes a controlled diagonal in that basis.  V^T
  runs once (folded into the PREP), and V once after uncompute, since the
  rotation between them never touches reg B.  Any other uncontrolled
  non-diagonal CU is one DENSE pass.
- A gate run that is exactly circuit.qft_fragment(register), or its
  inverse, becomes one QFT pass (numpy's FFT, orthonormal) when the
  register is consecutive qubits in order; otherwise its gates are lowered
  one by one.  A run whose head reads as a ladder is compared with the
  ladder that circuit._fourier_ladders caches per register, which a
  builder circuit's build has already made.
- Any other gate (a SWAP outside a Fourier fragment, a controlled
  non-diagonal CU outside the walk basis, a dense CU on non-consecutive
  qubits, an X, MCX or MCRY outside a rotation segment) runs as a GATE
  pass: one apply_gate call.

A plan runs in one loop on one buffer over its live qubits only, from
|0...0>; the norm at the end must be 1 within 1e-9.  H, DENSE, QFT and
IQFT axes, the RY target and the PREP axes and controls are written; DIAG
axes and RY controls are only read, and a GATE pass may write any qubit.  A
qubit no pass writes stays |0> throughout, so it is held outside the buffer:
the tables are read at 0 on it, the other axes are renumbered, and the same
kernels run on 2**live amplitudes.  The explicit rotation stage's reg A is
such a qubit: its loads and unloads happen inside the one RY pass, which
already reads reg A at 0, so no pass reads or writes it.  Buffer axis k then
holds the k-th live qubit.  run_exact is that loop on the whole lowered plan.

readout computes only what a solve or a phase read takes from the final
state: the clean block (reg B where the ancilla reads 1 and reg E and reg A
read 0) with its ancilla = 1 weight, or the marginal over some qubits.

- Overlap.  An exact solve of [load] + C + R + C^-1, the circuit
  build_pipeline emits, runs no pass at all.  The IR must show the mirror:
  the gates after the rotation segment R are C reversed, each with its
  matrix's adjoint (_matches, the comparator that also reads Fourier
  ladders).  R must lower to one RY pass on the ancilla, which C never
  touches, whose controls are reg E or held qubits (no reg B qubit), and C
  must lower to phase estimation: the PREP (load, V^T and the Hadamards on
  reg E) as the one pass that writes reg B, DIAG passes whose terms each
  touch at most one reg E qubit, and one QFT or IQFT pass over reg E.  On
  one value b of reg B in the walk eigenbasis (a slab), reg E is then a
  product state up to the Fourier pass, whose output factorizes: its
  distribution p_b is a product of one real factor per qubit (for
  geometric phases, the Fejer kernel of Cleve, Ekert, Macchiavello and
  Mosca, Proc. R. Soc. A 454, 339, 1998).
  Only p_b's marginal on the RY controls is read, and in every builder
  circuit they are reg E's leading bits.  So the last f factors (f =
  min(last control's axis + 1, floor(m/2))) fold into a Laurent polynomial
  of degree below 2**f, read against the Fourier moments of the product of
  the other m - f: a slab costs one BLAS product of O(2**(m+1)) on 2**(m-f)
  values, with no FFT and no 2**m-entry product.  The entries are accurate
  in absolute terms, about 1e-16, so a zero may read -1e-17 (a sampler must
  clip).  Slab b (PREP amplitude beta_b, RY sin table s) reduces to its
  clean-block entry beta_b (p_b . s) and its weight |beta_b|^2 (p_b . s^2);
  a slab with beta_b = 0 adds nothing.  The walk reads every slab at once:
  each DIAG pass is cut once, at all the slabs' reg B bits, and the RY pass
  once; only p_b is built in slab groups, each step one numpy call over a
  group that a byte budget sizes, with the same IEEE operations per slab as
  alone.  The final V then runs on the 2**n block.  This is the HHL
  amplitude <0_E 0_A 1_anc| C^-1 R C |b> (Harrow, Hassidim and Lloyd, PRL
  103, 150502, 2009).  The norm summed over the
  slabs must stay 1 within 1e-9.  A solve of any other circuit is
  postselect(run_exact(circuit)), which holds the whole live state.

A marginal read (a sampled solve, a phase read) runs the whole plan in
that one loop, less its tail, and holds the whole live state.

- Tail.  The trailing H and DENSE passes on pairwise distinct qubits
  commute, so a trailing pass on traced-out qubits only is dropped.  Any
  other tail pass runs.  (This is light-cone pruning: the closing
  Hadamard layer on reg E when a sampled solve reads the ancilla and reg
  B, the final V on reg B when a phase read reads reg E.)

The fused kernels (RY, DIAG, DENSE, QFT, PREP) work through the state in
cache-sized blocks, and none of them (H included) allocates a copy of the
state; the largest temporaries are 4 MiB phase tables and FFT blocks.  A
GATE pass may allocate like apply_gate does; no builder circuit lowers to
one.

The state readers (postselect, register_probabilities, sample_counts) read
the live amplitudes of a state directly and a held qubit as a point mass on
0; no state is scattered back to full width.  register_probabilities is
readout's marginal reduction.  postselect is what readout returns for a
solve that is no mirror, and with run_exact the reference the closed form
is tested against.

Sampling draws independent measurement records from the exact final
distribution with numpy's PCG64 generator, as one multinomial draw over the
measured outcomes; a fixed seed reproduces results bit for bit.  Readouts
are count vectors: counts[v] is the number of records that read value v,
MSB first over the measured qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import circuit as cg
from .circuit import Circuit, Gate, RegisterLayout, QUBIT_BUDGET
from .errors import PostselectionError, ResourceError, check_choice

__all__ = [
    "BACKENDS",
    "RNG_NAME",
    "Statevector",
    "RunResult",
    "apply_gate",
    "Pass",
    "Plan",
    "lower",
    "run_exact",
    "readout",
    "postselect",
    "register_probabilities",
    "draw_counts",
    "sample_counts",
    "sample",
    "check_shots",
    "check_backend",
]

# "exact" reads the final state directly; "sample" draws measurement records.
BACKENDS = ("exact", "sample")
RNG_NAME = "PCG64"


@dataclass
class Statevector:
    """Mutable amplitude buffer over q qubits.

    The qubits in held are |0> and kept outside amps, which runs over the
    others (live, ascending; the lowest is the most significant bit).
    """

    amps: np.ndarray
    q: int
    held: tuple[int, ...] = ()

    @property
    def axes(self) -> dict[int, int]:
        """Each live qubit's axis in amps, in qubit order."""
        live = (g for g in range(self.q) if g not in self.held)
        return {g: k for k, g in enumerate(live)}

    def tensor(self) -> np.ndarray:
        """amps with one axis per live qubit."""
        return self.amps.reshape((2,) * (self.q - len(self.held)))


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


def _controlled_view(tensor: np.ndarray, controls: Sequence[int]):
    """View of the block where every control reads 1; _remap_axis gives a target's axis in it."""
    index = [slice(None)] * tensor.ndim
    for c in controls:
        index[c] = 1
    return tensor[tuple(index)]


def _remap_axis(axis: int, controls: Sequence[int]) -> int:
    return axis - sum(1 for c in controls if c < axis)


def _apply_dense(view: np.ndarray, axes: Sequence[int], matrix: np.ndarray):
    """Dense unitary across several target axes of a view, in place."""
    t = len(axes)
    moved = np.moveaxis(view, axes, range(t))
    shape = moved.shape
    flat = moved.reshape(2 ** t, -1)  # copies when the view is not contiguous
    result = matrix @ flat
    moved[...] = result.reshape(shape)


def _target_matrix(gate: Gate) -> np.ndarray:
    """The matrix a gate applies to its targets, in target order, where its controls read 1."""
    kind = gate.kind
    if kind == cg.HADAMARD:
        return np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    if kind in (cg.PAULI_X, cg.MULTI_CONTROLLED_X):
        return np.array([[0.0, 1.0], [1.0, 0.0]])
    if kind == cg.SWAP:
        return np.eye(4)[[0, 2, 1, 3]]
    if kind == cg.MULTI_CONTROLLED_RY:
        c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
        return np.array([[c, -s], [s, c]])
    if kind == cg.CONTROLLED_UNITARY:
        return gate.matrix
    raise ValueError(f"unknown gate kind {kind}")


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate in place and return the state; no qubit may be held.

    The gate's target matrix multiplies the target axes of the block where
    its controls read 1.  That takes up to two temporaries the size of the
    block (the whole state for an uncontrolled gate): a copy when the block
    is not contiguous, and the product.
    """
    if state.held:
        raise ValueError(f"apply_gate needs every qubit in amps; qubits {state.held} are held")
    matrix = _target_matrix(gate)
    controls = _controls(gate)
    axes = [_remap_axis(t, controls) for t in gate.targets]
    _apply_dense(_controlled_view(state.tensor(), controls), axes, matrix)
    return state


# -- execution plan ------------------------------------------------------------

# Amplitudes per cache block in the kernels that make several sweeps over the
# same data (multiplexed Ry, dense blocks) and in the readouts' reductions.
_CHUNK = 1 << 14
# Widest fused diagonal or multiplexor table, in qubits (2**18 complex128 =
# 4 MiB); a longer run is split into several passes.
_TABLE_QUBITS = 18
# A diagonal table also spans the free axes below it when they are fewer than
# this many amplitudes, so its innermost loop is not a handful of elements.
_SHORT_TAIL = 32
# Bytes of temporaries per group: a group of slabs in _fourier_marginal (P, q and
# one scratch for h, the fold's shift and the moment product), a chunk of stacked
# matrices in _walk_diagonals and _matches.  The largest power of two that keeps
# the 15x15 f=8 readout (three slabs a group) under 1 MiB traced.  On the Table-1
# readouts 64 KiB took up to 1.9x as long, and 2 MiB saved up to 15% (one BLAS
# thread).
_GROUP_BYTES = 1 << 19
# Off-diagonal tolerance of V^T M V before a CU runs in the walk eigenbasis.
_BASIS_TOL = 1e-12
# Amplitudes per np.fft call of a QFT pass (4 MiB of complex128).
_DFT_BLOCK = 1 << 18
# The gate kinds a rotation segment is made of.
_SEGMENT_KINDS = (cg.PAULI_X, cg.MULTI_CONTROLLED_X, cg.MULTI_CONTROLLED_RY)


@dataclass(frozen=True, eq=False)
class Pass:
    """One sweep over the state; axes and controls name qubits.

    kind is H (a Hadamard on each of axes, distinct qubits in gate order),
    DIAG (data: (qubits, values) terms, one per gate, values[bits of
    qubits] over ascending qubits; their product multiplies the state, and
    axes is the union of their qubits), RY (target; data[0] and data[1]:
    cos and sin tables over the controls), DENSE (data: matrix over
    consecutive target qubits), QFT or IQFT (the Fourier transform of
    qft_fragment, or its inverse, over consecutive qubits), PREP, which
    writes a product state into the |0...0> buffer: data (a vector, MSB
    first, that carries the 2**(-k/2) of the k controls) on axes, (1, 1) on
    each of controls, 0 on the rest; or GATE, a gate outside the fusion
    rules, that apply_gate runs.
    """

    kind: str
    axes: tuple[int, ...] = ()
    controls: tuple[int, ...] = ()
    data: np.ndarray | tuple | None = None
    gate: Gate | None = None


@dataclass(frozen=True, eq=False)
class Plan:
    """Fused passes for a circuit, in the order run_exact executes them."""

    q: int
    passes: tuple[Pass, ...]

    def live(self) -> tuple[int, ...]:
        """The qubits some pass writes, ascending; the others stay |0>."""
        written: set[int] = set()
        for p in self.passes:
            if p.kind == "GATE":
                return tuple(range(self.q))
            if p.kind != "DIAG":  # DIAG axes and RY controls are only read
                written.update(p.axes)
            if p.kind == "PREP":
                written.update(p.controls)
        return tuple(sorted(written))


class _Planner:
    """Lowers gates to passes on the qubits' own axes, deferring what it can.

    - spread, prep_axes, prep_matrix: the product-state prologue, |0...0>
      with Hadamards on spread and prep_matrix on the consecutive qubits
      prep_axes.  An uncontrolled non-diagonal CU on prep_axes folds in as
      matrix @ prep_matrix, and Hadamards on untouched qubits join spread;
      the first other pass ends it with one PREP (spread is then None).
    - frame: the targets whose walk eigenbasis V is owed.  A walk power
      (V^T M V diagonal: walks, checked once for every gate by
      _walk_diagonals) runs as a controlled diagonal once V^T has run
      through _unitary; V runs before the next gate on them, or at finish.
    - run: the terms of an open DIAG pass; consecutive diagonal gates fuse
      into it while its table stays within table_qubits.

    Fourier fragments, rotation segments and Hadamard runs arrive whole (see
    _fourier_at, _rotation_at, _hadamards_at).  A gate that no rule covers
    runs through apply_gate as a GATE pass.
    """

    def __init__(self, q: int, basis: np.ndarray | None, gates: Sequence[Gate]):
        self.passes: list[Pass] = []
        self.table_qubits = _table_qubits(q)
        if basis is not None:
            # only a real orthogonal V turns V^T M V into M's spectrum
            basis = np.asarray(basis)
            square = basis.ndim == 2 and basis.shape[0] == basis.shape[1]
            if np.iscomplexobj(basis) or not square or np.max(
                np.abs(basis.T @ basis - np.eye(len(basis)))
            ) > _BASIS_TOL:
                basis = None
        self.basis = basis
        self.walks = {} if basis is None else _walk_diagonals(gates, basis)
        self.spread: tuple[int, ...] | None = ()
        self.prep_axes: tuple[int, ...] = ()
        self.prep_matrix: np.ndarray | None = None
        self.frame: tuple[int, ...] = ()
        self.run: list | None = None  # (axes, table) terms of the open DIAG pass

    # -- emission -------------------------------------------------------------
    def _end_prologue(self) -> None:
        """Write the product state built so far as one PREP pass."""
        spread, self.spread = self.spread, None
        if spread is not None and spread + self.prep_axes:
            column = np.ones(1) if self.prep_matrix is None else self.prep_matrix[:, 0]
            self.passes.append(
                Pass("PREP", self.prep_axes, spread, data=column * 0.5 ** (len(spread) / 2))
            )

    def _emit(self, p: Pass) -> None:
        self._end_prologue()
        self.passes.append(p)

    def _close(self) -> None:
        """Emit the open DIAG pass."""
        run, self.run = self.run, None
        if run is not None:
            axes = sorted(set().union(*(qubits for qubits, _ in run)))
            self._emit(Pass("DIAG", tuple(axes), data=tuple(run)))

    def _apply(self, gate: Gate) -> None:
        """Run a gate through apply_gate, after the open run."""
        self._close()
        self._emit(Pass("GATE", gate=gate))

    def _unitary(self, targets, matrix) -> None:
        """Uncontrolled matrix: folded into the prologue, else a DENSE or GATE pass."""
        if (self.spread is not None and self.prep_axes in ((), targets)
                and _consecutive(targets) and not set(targets) & set(self.spread)):
            self.prep_axes = targets
            self.prep_matrix = matrix if self.prep_matrix is None else matrix @ self.prep_matrix
            return
        self._close()
        if _consecutive(targets) and 1 << len(targets) <= _CHUNK:
            self._emit(Pass("DENSE", targets, data=np.asarray(matrix, dtype=complex)))
        else:
            self._apply(Gate(cg.CONTROLLED_UNITARY, targets, matrix=matrix))

    def _settle(self, qubits) -> None:
        """Run the owed V if it acts on any of qubits."""
        if set(qubits) & set(self.frame):
            frame, self.frame = self.frame, ()
            self._unitary(frame, self.basis)

    # -- fused runs -----------------------------------------------------------
    def _diag(self, qubits, table: np.ndarray) -> None:
        """Diagonal factor table[bits of qubits], qubits in any order."""
        self._end_prologue()
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
    def _walk(self, gate: Gate) -> bool:
        """Run a controlled CU that the walk eigenbasis diagonalizes as a diagonal."""
        diag, targets = self.walks.get(gate), gate.targets
        if diag is None or self.frame not in ((), targets):
            return False
        if not self.frame:
            self._unitary(targets, self.basis.T)
            self.frame = targets
        self._controlled_diag(gate.controls, targets, diag)
        return True

    def add(self, gate: Gate) -> None:
        kind = gate.kind
        if kind == cg.CONTROLLED_UNITARY and self._walk(gate):
            return
        self._settle(_controls(gate) + gate.targets)
        if kind == cg.CONTROLLED_UNITARY:
            if _diagonal(gate.matrix):  # controlled or not
                self._controlled_diag(gate.controls, gate.targets, np.diagonal(gate.matrix))
            elif not gate.controls:
                self._unitary(gate.targets, gate.matrix)
            else:
                self._apply(gate)
        elif kind in (cg.SWAP, cg.PAULI_X, cg.MULTI_CONTROLLED_X, cg.MULTI_CONTROLLED_RY):
            self._apply(gate)
        else:
            raise ValueError(f"unknown gate kind {kind}")

    def add_hadamards(self, axes) -> None:
        """Hadamards on distinct qubits: spread in the prologue, else one H pass."""
        if self.spread is not None and not set(axes) & set(self.spread + self.prep_axes):
            self.spread += axes
            return
        self._settle(axes)
        self._close()
        self._emit(Pass("H", axes))

    def add_qft(self, register, inverse: bool) -> bool:
        """One QFT pass for a whole Fourier fragment on consecutive qubits."""
        if not _consecutive(register):
            return False
        self._settle(register)
        self._close()
        self._emit(Pass("IQFT" if inverse else "QFT", register))
        return True

    def add_rotation(self, target: int, qubits, angles: np.ndarray) -> None:
        """One RY pass on target: angles[bits of qubits (ascending), MSB first]."""
        self._settle(qubits + (target,))
        self._close()
        data = np.stack([np.cos(angles / 2), np.sin(angles / 2)]).astype(complex)
        self._emit(Pass("RY", (target,), qubits, data=data))

    def finish(self) -> None:
        """Emit what is still owed."""
        self._settle(self.frame)
        self._close()
        self._end_prologue()


def _consecutive(qubits) -> bool:
    return tuple(qubits) == tuple(range(qubits[0], qubits[0] + len(qubits)))


def _diagonal(matrix: np.ndarray) -> bool:
    return not np.any(matrix - np.diag(np.diagonal(matrix)))


def _walk_diagonals(gates: Sequence[Gate], basis: np.ndarray) -> dict[Gate, np.ndarray]:
    """Each controlled CU that V diagonalizes, with the diagonal of V^T M V.

    Every controlled CU with V's shape is checked in one stacked product,
    chunked so that a chunk's stack and products stay within _GROUP_BYTES
    (each matrix's product is still one BLAS call of its own, so a diagonal
    is the one a per-gate product gives); one whose off-diagonal part
    exceeds _BASIS_TOL is left out and runs as a GATE pass.
    """
    walks = [g for g in gates
             if g.kind == cg.CONTROLLED_UNITARY and g.controls and g.matrix.shape == basis.shape]
    # the stack, V^T M and V^T M V (complex), and the magnitudes
    per = max(1, _GROUP_BYTES // (56 * basis.size))
    found = {}
    for j in range(0, len(walks), per):
        chunk = walks[j : j + per]
        rotated = basis.T @ np.array([g.matrix for g in chunk]) @ basis
        diags = np.diagonal(rotated, axis1=1, axis2=2).copy()
        off = np.abs(rotated)
        off[:, range(len(basis)), range(len(basis))] = 0
        found.update((g, d) for g, d, worst in zip(chunk, diags, off.max(axis=(1, 2)))
                     if not worst > _BASIS_TOL)
    return found


def _controls(gate: Gate) -> tuple[int, ...]:
    """The controls apply_gate reads: only the controlled kinds have any."""
    if gate.kind in (cg.MULTI_CONTROLLED_X, cg.MULTI_CONTROLLED_RY, cg.CONTROLLED_UNITARY):
        return gate.controls
    return ()


def _table_qubits(q: int) -> int:
    """Widest phase or multiplexor table on q qubits: a quarter of the state or less."""
    return min(_TABLE_QUBITS, q - 2)


def _diag_table(terms, q: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The product of diagonal terms, over the union of their axes."""
    axes = sorted(set().union(*(term_axes for term_axes, _ in terms)))
    table = np.ones((1,) * len(axes), dtype=complex)  # an axis no term has reached stays 1 wide
    for term_axes, values in terms:
        table = table * values.reshape([2 if a in term_axes else 1 for a in axes])
    tail = q - 1 - axes[-1] if axes else 0  # terms on held qubits alone: a scalar
    if 0 < tail and 2 ** tail < _SHORT_TAIL and len(axes) + tail <= _table_qubits(q):
        table = np.ascontiguousarray(
            np.broadcast_to(table.reshape(table.shape + (1,) * tail), table.shape + (2,) * tail)
        )
        axes += range(axes[-1] + 1, q)
    return tuple(axes), table


def _matches(window: Sequence[Gate], template: Sequence[Gate], adjoint: bool = False) -> bool:
    """Whether window is template gate for gate, or with each matrix its partner's adjoint.

    No gate is built.  The lengths, and each pair's kind, targets and
    controls, must be equal, and the matrices, stacked by shape, compare to
    1e-12 in one comparison per shape, chunked so that a chunk's stacks stay
    within _GROUP_BYTES (one 2**n x 2**n walk power at a time at n = 8); a
    gate that is its own partner (a cached ladder read against itself)
    needs no comparison.  Only H, CU and SWAP gates reach it (the uncompute
    mirror ahead of the first rotation segment, and Fourier ladders), so no
    angle is compared.
    """
    if len(window) != len(template):
        return False
    stacks: dict[tuple[int, ...], tuple[list, list]] = {}
    for a, b in zip(window, template):
        if a.kind != b.kind or a.targets != b.targets or a.controls != b.controls:
            return False
        if a.matrix is not None and (adjoint or a is not b):
            mine, theirs = stacks.setdefault(a.matrix.shape, ([], []))
            mine.append(a.matrix)
            theirs.append(b.matrix)
    for mine, theirs in stacks.values():
        # two stacks, the adjoints, their difference and its magnitudes
        per = max(1, _GROUP_BYTES // (72 * mine[0].size))
        for j in range(0, len(mine), per):
            other = np.array(theirs[j : j + per])
            if adjoint:
                other = other.conj().swapaxes(1, 2)
            if not np.max(np.abs(np.array(mine[j : j + per]) - other)) <= 1e-12:
                return False
    return True


def _fourier_at(gates: Sequence[Gate], i: int):
    """(register, inverse, length) if gates[i:] is a qft_fragment or its inverse.

    The width w comes from the opening gates: a forward fragment opens with
    H and w - 1 phases, an inverse one with floor(w/2) swaps.  Read forward,
    or backward for an inverse, the window's first w gates must be an H on
    r0 and w - 1 one-control CUs on r0 whose distinct controls are r1 ..
    r_(w-1); an inverse's last opening swap must be (r0, r_(w-1)), which
    tells w = 2s from 2s + 1.  Only then is the register's ladder fetched
    from circuit._fourier_ladders (built once per register), and the window
    must match it (_matches).
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
        hadamard, *phases = window[::-1][:width] if inverse else window[:width]
        register = hadamard.targets + tuple(g.controls[0] for g in phases if len(g.controls) == 1)
        if (hadamard.kind == cg.HADAMARD and len(set(register)) == width
                and all(g.kind == cg.CONTROLLED_UNITARY and g.targets == register[:1] for g in phases)
                and (not inverse or window[j - i - 1].targets == register[:: width - 1])
                and _matches(window, cg._fourier_ladders(register)[0 if inverse else 1])):
            return register, inverse, length
    return None


def _hadamards_at(gates: Sequence[Gate], i: int) -> tuple[int, ...]:
    """Targets (gate order) of the Hadamards on distinct qubits from i, short of a QFT."""
    axes: list[int] = []
    while i < len(gates) and gates[i].kind == cg.HADAMARD and gates[i].targets[0] not in axes:
        if axes and _fourier_at(gates, i):
            break
        axes.append(gates[i].targets[0])
        i += 1
    return tuple(axes)


def _segment_end(gates: Sequence[Gate], i: int) -> int:
    """End of the longest run of X, MCX and MCRY gates from i."""
    while i < len(gates) and gates[i].kind in _SEGMENT_KINDS:
        i += 1
    return i


def _rotation_at(gates: Sequence[Gate], i: int, cap: int):
    """(target, qubits, angles, length) if gates[i:] opens a rotation segment.

    The candidate is the longest run of X, MCX and MCRY gates from i.
    Its rotations must share one target that no X or MCX touches.  Every
    plan starts from |0...0>, so a qubit that no gate before i targets is
    |0> when the run opens: of the other qubits the run touches, only the
    written ones (some earlier gate targets them) may read 1, and they must
    number at most cap.  The set is found once per candidate, not per gate.
    On each bit pattern of the written qubits, with the unwritten ones at
    0, the X and MCX gates only permute classical bits, and each rotation
    adds its angle where its controls read 1.  If every such pattern
    returns to itself (the unwritten qubits to 0 too), the run is one
    multiplexed Ry with angles[pattern] over the written qubits (MSB
    first); otherwise this returns None.

    The patterns are walked all at once, as Python integers: one per
    touched qubit, whose bit p says that it reads 1 on pattern p.  A gate's
    hit is the AND of its controls' integers; an X or MCX XORs it into its
    target's, so a flip costs a few integer operations and no numpy call.
    A rotation adds its angle to each pattern it hits, in gate order: one
    at a time when it hits at most eight patterns, else as one
    np.add(..., where=hit) over all of them, the same float64 add either
    way.  The start integers come from _pattern_bits: shifts and ORs of
    whole integers, no Python loop over the 2**k patterns.
    """
    end = _segment_end(gates, i)
    if end == i:
        return None
    # (target, controls, angle) per gate; a flip's angle is None
    run = [(g.targets[0], _controls(g), None if g.kind in (cg.PAULI_X, cg.MULTI_CONTROLLED_X)
            else g.angle) for g in gates[i:end]]
    targets = {t for t, _, angle in run if angle is not None}
    if len(targets) != 1 or any(angle is None and not targets.isdisjoint((*controls, t))
                                for t, controls, angle in run):
        return None
    (target,) = targets
    touched = {q for t, controls, _ in run for q in controls + (t,)} - targets
    written = {q for g in gates[:i] for q in g.targets}
    qubits = sorted(touched & written)
    if len(qubits) > cap:
        return None
    size = 1 << len(qubits)
    start = dict.fromkeys(touched, 0)  # an unwritten qubit reads 0
    start.update(zip(qubits, _pattern_bits(len(qubits))))
    bits, angles, every = dict(start), np.zeros(size), (1 << size) - 1
    for t, controls, angle in run:
        hit = every
        for c in controls:
            hit &= bits[c]
        if angle is None:
            bits[t] ^= hit
        elif hit.bit_count() <= 8:  # about where one pattern at a time stops paying
            while hit:
                low = hit & -hit
                angles[low.bit_length() - 1] += angle
                hit ^= low
        else:
            where = np.frombuffer(hit.to_bytes(-(-size // 8), "little"), np.uint8)
            np.add(angles, angle, out=angles,
                   where=np.unpackbits(where, count=size, bitorder="little").view(bool))
    if bits != start:
        return None
    return target, tuple(qubits), angles, len(run)


def _pattern_bits(k: int) -> list[int]:
    """For each of k qubits, MSB first, the integer whose bit p is the qubit's bit in pattern p.

    Bit j of the patterns reads 2**j zeros, then 2**j ones, with period
    2**(j+1); the period doubles up to 2**k bits in k - j shifts and ORs.
    """
    out = []
    for j in range(k - 1, -1, -1):
        mask, period = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while period < 1 << k:
            mask |= mask << period
            period <<= 1
        out.append(mask)
    return out


def lower(circuit: Circuit) -> Plan:
    """The fused passes run_exact executes.

    The walk eigenbasis is read from circuit.metadata["walk_basis"] when the
    builder recorded one, and every controlled CU of its shape is checked
    against it once, before the gates are lowered (_walk_diagonals); without
    it every controlled dense CU runs as a GATE pass.  DIAG passes keep
    their per-gate terms, so the plan holds no product table.  A rotation
    segment's RY pass is multiplexed over the qubits earlier gates have
    written (_rotation_at); the rule is exact because every plan runs from
    |0...0>, and the plan is only ever run from there.  circuit may also be
    a _Prefix: the leading gates of a circuit, which lower reads the same
    way.
    """
    gates = circuit.gates
    planner = _Planner(circuit.layout.total, circuit.metadata.get("walk_basis"), gates)
    i = 0
    while i < len(gates):
        fourier = _fourier_at(gates, i)
        if fourier is not None and planner.add_qft(fourier[0], fourier[1]):
            i += fourier[2]
        elif (rotation := _rotation_at(gates, i, planner.table_qubits)) is not None:
            planner.add_rotation(*rotation[:3])
            i += rotation[3]
        elif hadamards := _hadamards_at(gates, i):
            planner.add_hadamards(hadamards)
            i += len(hadamards)
        else:
            planner.add(gates[i])
            i += 1
    planner.finish()
    return Plan(q=circuit.layout.total, passes=tuple(planner.passes))


def _on_live(p: Pass, axis: dict[int, int], fixed: dict[int, np.ndarray]) -> Pass:
    """p on the buffer axes (axis[qubit]); its tables read a qubit off the buffer at fixed bits.

    A held qubit (absent from fixed) reads 0.  fixed[qubit] is a slab
    qubit's bits over all the slabs read, as one array: numpy's indexing
    then gives a DIAG term's values a leading slab axis (shape (slabs, 2)
    on one buffer qubit), or none when the term touches no slab qubit.
    Only the closed form passes slab bits, and only for DIAG passes.
    """
    if p.kind == "GATE":  # a GATE pass keeps every qubit live, on its own axis
        return p

    def cut(qubits):
        return tuple(slice(None) if g in axis else fixed.get(g, 0) for g in qubits) + (Ellipsis,)

    def renumber(qubits):
        return tuple(axis[g] for g in qubits if g in axis)

    data = p.data
    if p.kind == "DIAG":
        data = tuple((renumber(qubits), values[cut(qubits)]) for qubits, values in data)
    elif p.kind == "RY":
        tables = data.reshape((2,) * (1 + len(p.controls)))
        data = tables[(slice(None),) + cut(p.controls)].reshape(2, -1)
    return Pass(p.kind, renumber(p.axes), renumber(p.controls), data)


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
    """(a, b) -> (a + b, a - b) on each axis in turn, then a scale by 2**(-k/2)."""
    for axis in p.axes:
        v = psi.reshape(1 << axis, 2, -1)
        a0, a1 = v[:, 0], v[:, 1]
        a0 += a1
        a1 *= -2.0
        a1 += a0
    psi *= 0.5 ** (len(p.axes) / 2)


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
    axes, table = _diag_table(p.data, q)
    psi.reshape((2,) * q)[...] *= table.reshape([2 if a in axes else 1 for a in range(q)])


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
    index = tuple(slice(None) if a in spread else 0 for a in range(q)) + (Ellipsis,)
    block = psi.reshape((2,) * q)[index]
    block[...] = p.data.reshape([2 if a in p.axes else 1 for a in sorted(spread)])


_KERNELS = {
    "H": _run_h,
    "RY": _run_ry,
    "DIAG": _run_diag,
    "DENSE": _run_dense,
    "GATE": _run_gate,
    "PREP": _run_prep,
    "QFT": _run_qft,
    "IQFT": _run_qft,
}


class _Prefix(NamedTuple):
    """The first gates of a checked circuit, on its layout: what lower reads of a Circuit.

    Circuit() would check every gate's qubits against the layout again.
    """

    layout: RegisterLayout
    gates: tuple[Gate, ...]
    metadata: dict


def _lowered(circuit: Circuit | _Prefix) -> Plan:
    """lower(circuit), once the circuit is known to fit QUBIT_BUDGET."""
    q = circuit.layout.total
    if q > QUBIT_BUDGET:
        raise ResourceError(f"circuit needs {q} qubits, budget is {QUBIT_BUDGET}")
    return lower(circuit)


def _run(plan: Plan) -> Statevector:
    """Run plan from |0...0> on one buffer over its live qubits; the others are held at |0>.

    RuntimeError unless the final norm is 1 within 1e-9.
    """
    live = plan.live()
    axis = {g: a for a, g in enumerate(live)}
    amps = np.zeros(2 ** len(live), dtype=complex)
    amps[0] = 1.0
    buf = np.empty(2 * _CHUNK, dtype=complex)  # the only scratch: two cache blocks
    for p in plan.passes:
        _KERNELS[p.kind](amps, len(live), _on_live(p, axis, {}), buf)
    _check_norm(float(np.vdot(amps, amps).real))
    return Statevector(amps, plan.q, tuple(g for g in range(plan.q) if g not in live))


def _check_norm(weight: float) -> None:
    """RuntimeError unless the norm, sqrt(weight), is 1 within 1e-9."""
    drift = abs(math.sqrt(weight) - 1.0)
    if not drift < 1e-9:
        raise RuntimeError(f"norm drifted by {drift:.3e}")


def run_exact(circuit: Circuit) -> Statevector:
    """Run all gates from |0...0> and return the final state.

    The gates are lowered to fused passes (see lower), which run on one
    buffer over the plan's live qubits; the others are held at |0>.  A
    marginal readout runs the same loop on the same plan less its tail.
    This is the reference readout is tested against; apply_gate is the
    reference the passes are tested against.
    """
    return _run(_lowered(circuit))


def _readout_plan(circuit: Circuit, qubits: tuple[int, ...]) -> Plan:
    """The plan readout runs for the marginal over qubits: the lowered plan less its tail.

    The other qubits are traced out.  The tail is the trailing run of H and
    DENSE passes on pairwise distinct qubits, which commute with one
    another; a tail pass on traced-out qubits only is dropped, and any other
    stays in the plan.
    """
    passes = _lowered(circuit).passes
    start, seen = len(passes), set()
    while start and passes[start - 1].kind in ("H", "DENSE"):
        axes = set(passes[start - 1].axes)
        if axes & seen:
            break
        start -= 1
        seen |= axes
    tail = tuple(p for p in passes[start:] if set(p.axes) & set(qubits))
    return Plan(circuit.layout.total, passes[:start] + tail)


def _overlap_plan(circuit: Circuit):
    """(compute, ry, closing) when readout may read the clean block in closed form, else None.

    The circuit must be [load] + C + R + C^-1, recognized in the IR: R is
    the run of X, MCX and MCRY gates after C, and the gates after R must
    be C reversed, each with its matrix's adjoint (_matches, which also
    compares the lengths; no inverse gate is built).  The load is an
    uncontrolled CU on reg B, and C never touches the ancilla and has only
    controlled or diagonal CUs (a diagonal one lowers to a DIAG
    term, never into the PREP), so the PREP holds the load, C's opening
    Hadamards and at most the V^T that closing undoes.  [load] + C + R is
    lowered once, as a prefix of the checked circuit (no second layout
    check), and must be compute, one RY pass on the ancilla whose
    controls are no reg B qubit, and closing (DENSE passes on reg B: the
    owed V).  compute must be phase estimation (see _phase_estimation).
    """
    layout, gates = circuit.layout, circuit.gates
    i = next((i for i, g in enumerate(gates) if g.kind in _SEGMENT_KINDS), 0)
    end = _segment_end(gates, i)
    if i == 0:
        return None
    load, compute, anc = gates[0], gates[1:i], layout.ancilla
    if ((load.kind, load.controls, load.targets) != (cg.CONTROLLED_UNITARY, (), layout.reg_b)
            or any(anc in g.targets or anc in g.controls or g.kind == cg.CONTROLLED_UNITARY
                   and not g.controls and not _diagonal(g.matrix) for g in compute)
            or not _matches(gates[end:], compute[::-1], adjoint=True)):
        return None
    passes = _lowered(_Prefix(layout, gates[:end], circuit.metadata)).passes
    r = next((r for r, p in enumerate(passes) if p.kind == "RY"), 0)
    plan = Plan(layout.total, passes[:r])
    if (not r or passes[r].axes != (layout.ancilla,) or set(passes[r].controls) & set(layout.reg_b)
            or any((p.kind, p.axes) != ("DENSE", layout.reg_b) for p in passes[r + 1:])
            or not _phase_estimation(plan, layout.reg_b)):
        return None
    return plan, passes[r], passes[r + 1:]


def _phase_estimation(plan: Plan, reg_b: tuple[int, ...]) -> bool:
    """Whether plan writes reg B once, leaves the rest a product state, then transforms it.

    plan must be one PREP whose axes are reg B, DIAG passes, and one QFT or
    IQFT pass (or, on one qubit, an H pass: the two-point transform), whose
    register is the PREP's Hadamard-spread qubits and exactly the live
    qubits past reg B.  So no pass after the PREP writes reg B, and its
    values (the slabs) stay fixed.  Each DIAG term may touch at most one
    qubit outside reg B, so on a slab it scales one register qubit's |0>
    and |1>.
    """
    prep, diags, fourier = plan.passes[0], plan.passes[1:-1], plan.passes[-1]
    register = plan.live()[len(reg_b):]
    return ((prep.kind, prep.axes) == ("PREP", reg_b)
            and (fourier.kind in ("QFT", "IQFT") or fourier.kind == "H" and len(register) == 1)
            and fourier.axes == register == tuple(sorted(prep.controls))
            and all(p.kind == "DIAG" for p in diags)
            and all(len(set(qubits) - set(reg_b)) <= 1 for p in diags for qubits, _ in p.data))


def _half_circle(width: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi t / 2**width for t < 2**(width - 1)."""
    angles = np.arange(2 ** (width - 1)) * (2 * math.pi / 2 ** width)
    return np.cos(angles), np.sin(angles)


def _fourier_marginal(w: int, read, inverse: bool):
    """The map (a, b) -> |F psi|^2 summed onto the axes in read (ascending), psi = prod (a_i, b_i).

    a and b stack one product state per row, shape (S, w), and the map
    returns one marginal per row, shape (S, 2**len(read)).  F is the
    orthonormal DFT on w qubits, with np.fft.fft's sign if inverse (an IQFT
    pass) and np.fft.ifft's otherwise (a QFT pass).  The transform of a
    product state factorizes: with qubit i MSB first, p(y) = 2**(-w) prod_i
    (n_i + h_i(y)), n_i = |a_i|^2 + |b_i|^2 and h_i = 2 Re(c_i e^(-+2 pi i y
    / 2**(i+1))), c_i = conj(a_i) b_i.  Factor i depends on y mod 2**(i+1)
    only, and h_i flips sign half a period on, so a product of such factors
    is built by doubling.

    The last f = min(max(read) + 1, w // 2) pairs, whose bits are the
    leading axes, are folded rather than doubled out.  Write y = s +
    2**(w-f) B: B is the top f bits (axes 0 .. f-1), on which only the
    folded factors depend.  P(s), the first w - f factors, is built by
    doubling on 2**(w-f) entries.  On the unit circle z = e^(-+2 pi i s /
    2**w) the folded factors are the Laurent polynomial Q_B(z) =
    prod_(i >= w-f) (n_i + d_i z^k_i + conj(d_i) z^-k_i), k_i = 2**(w-1-i)
    and d_i = c_i e^(-+2 pi i B k_i / 2**f); its coefficients q_B(K), |K|
    < 2**f, are built by doubling over B in O(4**f), and the unread B axes
    sum their rows.  So the marginal is Re sum_K q_B(K) mu(K), the moments
    mu(K) = sum_s P(s) z^K, and only K >= 0 is needed (twice for K > 0), as
    P and Q_B are real.  The moments are one BLAS product: s splits into
    its top bits hi (at least half of them, and every read axis past the
    fold) and the rest lo, and mu = hi_t * (P.reshape(2**hi, 2**lo) @
    lo_t), summed over hi's unread axes.  A row costs O(2**(w+1)) for the
    moments and 2**(len(read) + f) for the last product, which only a read
    past the fold makes the larger; it holds 2**(w-f) values of P, not the
    2**w of p.  With nothing read the marginal is sum_y p(y) = prod_i n_i
    (Parseval), in O(w) with no tables.

    The tables are built here, once; the returned map reads the rows of a
    group together, every step one numpy call over the group, and the
    doubling's steps but the last two take their n + h and n - h from one
    call each over all their entries.  Each row sees the same IEEE
    operations as it would alone, and every BLAS product is one matrix per
    row (np.matmul's stacked loop), so a row's marginal never depends on
    the rows beside it.  The doubling's h, the fold's
    shift and the moment product are live one after another, so they share
    one scratch per group.  Also returned: how many rows a group takes, so
    that its P, q and scratch stay within _GROUP_BYTES (at least one row).
    Entries are accurate in absolute terms (about 1e-16), so one that is 0
    may read -1e-17.
    """
    if not read:
        return (lambda a, b: np.prod(np.square(np.abs(a)) + np.square(np.abs(b)), axis=1)[:, None],
                max(1, _GROUP_BYTES // (24 * w)))
    f = min(max(read) + 1, w // 2)
    u = w - f
    hi = max((u + 1) // 2, max(read) + 1 - f)
    cos, sin = _half_circle(u)
    spin = -1j if inverse else 1j
    # the fold's d_i / c_i over B < 2**t (they flip sign at B + 2**t): the circle, strided;
    # pair u + t's 2**t entries start at 2**t - 1
    spiral = np.concatenate([cos[:: len(cos) >> t] + spin * sin[:: len(cos) >> t]
                             for t in range(f)] + [np.empty(0, dtype=complex)])
    turn = spin * 2 * math.pi / 2 ** w

    def moments(x):  # e^(-+2 pi i K x / 2**w) for K < 2**f, the phase reduced exactly
        return np.exp(turn * (np.outer(x, np.arange(2 ** f)) % 2 ** w))

    lo_t = np.ascontiguousarray(moments(np.arange(2 ** (u - hi)))).view(float)
    hi_t = moments(np.arange(2 ** hi) << (u - hi))
    hi_t[:, 1:] *= 2  # mu(-K) = conj(mu(K)) and q_B(-K) = conj(q_B(K))
    fold_sum = tuple(1 + x for x in range(f) if x not in read)
    hi_sum = tuple(1 + x for x in range(hi) if x + f not in read)
    mid = 2 ** f - 1  # q's column for K = 0
    cosines = [cos[:: len(cos) >> i] for i in range(u)]  # doubling step i's 2**i entries
    sines = [sin[:: len(cos) >> i] for i in range(u)]
    # the first u - 2 steps' entries back to back (step i's 2**i at 2**i - 1): the pair
    # each reads, and its cos and sin
    early = max(u - 2, 0)
    pairs = np.repeat(np.arange(early), 1 << np.arange(early))
    early_cos, early_sin = (np.concatenate(x[:early] + [np.empty(0)]) for x in (cosines, sines))
    # bytes per row: P (2**u doubles), q (2**f rows of 2 * mid + 1 complex) and one
    # scratch that the doubling's h, the fold's shift and the moment product take in turn
    shifts = 2 ** f // 2 * (2 * mid + 1)  # complex entries of the fold's shift
    scratch = max(2 ** u // 2, 2 * shifts, 2 ** (hi + f + 1))  # doubles
    row = 8 * 2 ** u + 16 * 2 ** f * (2 * mid + 1) + 8 * scratch

    def marginal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        rows = len(a)
        c, norm = a.conj() * b, np.square(np.abs(a)) + np.square(np.abs(b))
        re, im = 2 * c.real, (2 if inverse else -2) * c.imag
        p, buf = np.empty((rows, 2 ** u)), np.empty(rows * scratch)
        p[:, 0] = 0.5 ** w
        # p(s + 2**i) = (n_i - h_i(s)) p(s), then p(s) *= n_i + h_i(s).  The early steps
        # read n + h and n - h from one product each over all their entries (n - h parked
        # in P above 2**early, which they do not write); stopping two steps short keeps
        # both within h's scratch.
        plus, part = buf[: 2 * rows * len(pairs)].reshape(2, rows, -1)
        minus = p[:, 2 ** early : 2 ** early + len(pairs)]
        np.take(re, pairs, axis=1, out=plus)
        plus *= early_cos
        np.take(im, pairs, axis=1, out=part)
        plus += np.multiply(part, early_sin, out=part)
        np.take(norm, pairs, axis=1, out=part)
        np.subtract(part, plus, out=minus)
        plus += part
        for i in range(early):
            half = 1 << i
            low = p[:, :half]
            np.multiply(minus[:, half - 1 : 2 * half - 1], low, out=p[:, half : 2 * half])
            low *= plus[:, half - 1 : 2 * half - 1]
        h = buf[: rows * 2 ** u // 2].reshape(rows, -1)
        for i in range(early, u):
            half = 1 << i
            hv, low, high = h[:, :half], p[:, :half], p[:, half : 2 * half]
            np.multiply(cosines[i], re[:, i, None], out=hv)
            hv += np.multiply(im[:, i, None], sines[i], out=high)
            np.subtract(norm[:, i, None], hv, out=high)
            high *= low
            hv += norm[:, i, None]
            low *= hv
        q = np.zeros((rows, 2 ** f, 2 * mid + 1), dtype=complex)
        q[:, 0, mid] = 1
        shift = buf[: rows * 2 * shifts].view(complex).reshape(rows, 2 ** f // 2, 2 * mid + 1)
        ds = np.repeat(c[:, u:], 1 << np.arange(f), axis=1) * spiral
        for t in range(f):  # pair u + t, whose power of z is k = 2**(f-1-t)
            half, k = 1 << t, 1 << (f - 1 - t)
            d, n = ds[:, half - 1 : 2 * half - 1, None], norm[:, u + t, None, None]
            low, high, s = q[:, :half], q[:, half : 2 * half], shift[:, :half]
            s[:, :, :k] = 0
            np.multiply(d, low[:, :, :-k], out=s[:, :, k:])
            s[:, :, :-k] += np.multiply(d.conj(), low[:, :, k:], out=high[:, :, :-k])
            np.multiply(n, low, out=high)
            high -= s
            low *= n
            low += s
        q = q.reshape((rows,) + (2,) * f + (-1,)).sum(axis=fold_sum)
        q = q.reshape(rows, -1, 2 * mid + 1)[:, :, mid:]
        mu = buf[: rows * 2 ** (hi + f + 1)].reshape(rows, 2 ** hi, -1)
        mu = np.matmul(p.reshape(rows, 2 ** hi, -1), lo_t, out=mu).view(complex)
        np.multiply(hi_t, mu, out=mu)
        mu = mu.reshape((rows,) + (2,) * hi + (-1,)).sum(axis=hi_sum).reshape(rows, -1, 2 ** f)
        return (q @ mu.swapaxes(1, 2)).real.reshape(rows, -1)

    return marginal, max(1, _GROUP_BYTES // row)


def _overlap(plan: Plan, ry: Pass, closing, layout: RegisterLayout):
    """(block, weight): the clean block and its ancilla = 1 weight.

    Past the PREP, C is block diagonal over reg B's values b in the walk
    frame (the slabs).  Slab b of the compute half holds beta_b u_b, where
    beta_b is the PREP's reg B amplitude and u_b the unit vector that C
    leaves on the register.  The RY pass puts s u_b on ancilla = 1 (s its
    sin table, over controls in the register or held at 0), and C^-1
    projected onto reg E = reg A = 0 reads that branch against u_b.  So
    block[b] = beta_b (p_b . s), with p_b = |u_b|^2 summed onto the RY
    controls in the register, and the weight is the sum over b of
    |beta_b|^2 (p_b . s^2).

    No pass runs, and each pass is cut once for all slabs.  Each register
    qubit of slab b has the pair (a_i, b_i): (1, 1) from the PREP's
    Hadamards, times its DIAG values, which _on_live reads at every slab's
    reg B bits at once.  Then p_b = 2**(-w) marginal(a, b) in closed form
    (the Fejer kernel for geometric phases: Cleve, Ekert, Macchiavello and
    Mosca, Proc. R. Soc. A 454, 339, 1998).  marginal is
    _fourier_marginal's, whose moment tables are built once here and
    shared by every slab; it reads p_b onto the RY controls from the
    moments of the unread low qubits, with O(2**(w+1)) work and 2**(w-f)
    values per slab (f the folded leading qubits).  It is called once per
    group of slabs, the group sized by _fourier_marginal under _GROUP_BYTES
    (one slab where a slab's fold alone is larger), and writes each group's
    rows into the one (slabs, 2**r) matrix of p_b; a slab's row is the same
    bits in any group.  A slab with beta_b = 0 adds nothing and is skipped.
    The norm summed over the slabs must stay 1 within 1e-9.  The block is
    read in the walk frame, and closing (the owed V) then runs on its 2**n
    entries.
    """
    n, (prep, *diags, fourier), live = layout.b_width, plan.passes, plan.live()
    axis = {g: a for a, g in enumerate(live[n:])}
    w = len(axis)
    read = tuple(axis[g] for g in ry.controls if g in axis)
    marginal, group = _fourier_marginal(w, read, fourier.kind == "IQFT")
    slabs = np.flatnonzero(prep.data)
    fixed = {g: slabs >> (n - 1 - g) & 1 for g in layout.reg_b}  # reg B leads the layout
    pairs = np.ones((len(slabs), 2, w), dtype=complex)
    for p in diags:
        for qubits, values in _on_live(p, axis, fixed).data:
            if qubits:  # a term on slab and held qubits only is a phase that C^-1 undoes
                pairs[:, :, qubits[0]] *= values
    probs = np.empty((len(slabs), 2 ** len(read)))  # row b: p_b
    for j in range(0, len(slabs), group):
        probs[j : j + group] = marginal(pairs[j : j + group, 0], pairs[j : j + group, 1])
    probs *= 0.5 ** w
    sin = _on_live(ry, axis, {}).data[1].real
    beta = prep.data[slabs] * 2 ** (len(prep.controls) / 2)  # the PREP's 2**(-w/2) off
    mass = np.square(np.abs(beta))
    _check_norm(float(mass @ probs.sum(axis=1)))
    block = np.zeros((2,) * n, dtype=complex)  # a reg B value the PREP leaves empty reads 0
    block.reshape(-1)[slabs] = beta * (probs @ sin)
    for p in closing:  # reg B leads the layout: qubit g is block axis g
        _apply_dense(block, p.axes, p.data)
    return block.reshape(-1), float(mass @ (probs @ np.square(sin)))


def _integral(value) -> bool:
    """Whether value is an int or a numpy integer; a bool is neither here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_qubits(qubits: Sequence[int], q: int) -> tuple[int, ...]:
    """qubits as a tuple; ValueError unless they are distinct qubit indices below q."""
    qubits = tuple(qubits)
    if len(set(qubits)) < len(qubits) or not all(_integral(g) and 0 <= g < q for g in qubits):
        raise ValueError(f"qubits must be distinct indices in 0..{q - 1}, got {qubits}")
    return qubits


def _solution(block: np.ndarray, success: float) -> tuple[np.ndarray, float]:
    """The clean block's signed solution on reg B states 1 .. 2**n - 1, renormalized."""
    if success < 1e-15:
        raise PostselectionError(f"ancilla=1 probability {success:.3e} is degenerate")
    block = block[1:]
    amplitudes = block.real
    norm = np.linalg.norm(amplitudes)
    if norm < 1e-15:
        raise PostselectionError("kept branch has no weight on reg B states 1..N-1")
    residual = np.linalg.norm(block.imag)
    if residual > 1e-9 * norm:
        raise PostselectionError(
            f"kept branch is not real (imaginary residual {residual / norm:.3e} of its norm)"
        )
    return amplitudes / norm, success


def postselect(state: Statevector, layout: RegisterLayout) -> tuple[np.ndarray, float]:
    """Condition on ancilla = 1; return (signed solution, success prob).

    The solution covers reg B basis states 1 .. 2**n - 1.  Reg E and reg A
    are |0> in the kept branch by the uncompute structure, so the amplitudes
    are read from that sub-block and renormalized.  Every pipeline gate is
    real apart from the phase-estimation phases, which uncompute cancels, so
    the block is real and carries the sign of the solution; an imaginary
    part above 1e-9 of the block norm raises PostselectionError.  A held
    qubit reads 0: a held ancilla keeps no branch.  The ancilla = 1 weight
    is summed one block of _CHUNK at a time.
    """
    axis, anc, reg_b = state.axes, layout.ancilla, layout.reg_b
    block, weight = np.zeros((2,) * layout.b_width, dtype=complex), 0.0
    if anc in axis:
        half = state.amps.reshape(2 ** axis[anc], 2, -1)[:, 1, :]
        # block by block: squaring the whole half-state would double peak memory
        weight = sum(float(np.vdot(half[i], half[i]).real) for i in _blocks(half.shape))
        at = tuple(slice(None) if g in axis else 0 for g in reg_b)
        block[at] += state.tensor()[tuple(slice(None) if g in reg_b else int(g == anc)
                                          for g in axis)]
    return _solution(block.reshape(-1), weight)


def register_probabilities(state: Statevector, qubits: Sequence[int]) -> np.ndarray:
    """Marginal probabilities over the given qubits, read MSB-first.

    qubits must be distinct qubit indices of the state (a bool is no
    index); a held qubit reads 0 with certainty.  The live amplitudes are
    reduced one block of _CHUNK at a time, so no temporary grows with the
    state.
    """
    qubits, axis = _check_qubits(qubits, state.q), state.axes
    read = [axis[g] for g in qubits if g in axis]
    low = min(len(axis), _CHUNK.bit_length() - 1)
    high = len(axis) - low  # a block fixes axes 0..high-1
    kept = [a - high for a in read if a >= high]
    axes = kept + [ax for ax in range(low) if ax + high not in read]
    full = np.zeros((2,) * len(qubits))
    out = full[tuple(slice(None) if g in axis else 0 for g in qubits) + (Ellipsis,)]
    for row, block in enumerate(state.amps.reshape(1 << high, 1 << low)):
        probs = (np.square(block.real) + np.square(block.imag)).reshape((2,) * low)
        part = probs.transpose(axes).reshape((2,) * len(kept) + (-1,)).sum(axis=-1)
        index = tuple((row >> (high - 1 - a)) & 1 if a < high else slice(None) for a in read)
        out[index] += part
    return full.reshape(-1)


def readout(circuit: Circuit, qubits: Sequence[int] | None = None):
    """What a solve or a phase read takes from the final state.

    With qubits None: (signed solution, success prob).  A solve of a
    phase-estimation mirror circuit reads its clean block in closed form
    (see _overlap_plan and _overlap) and runs the owed V on it; any other
    circuit returns postselect(run_exact(circuit), circuit.layout).
    Otherwise the marginal probabilities over qubits (distinct qubit
    indices, read MSB first), as register_probabilities(run_exact(circuit),
    qubits): the same loop runs the plan less the tail on traced-out
    qubits (see _readout_plan) and holds the whole live state.
    """
    layout = circuit.layout
    if qubits is None:
        overlap = _overlap_plan(circuit)
        if overlap is None:
            return postselect(run_exact(circuit), layout)
        return _solution(*_overlap(*overlap, layout))
    qubits = _check_qubits(qubits, layout.total)
    return register_probabilities(_run(_readout_plan(circuit, qubits)), qubits)


def draw_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """How many of shots draws from probs land on each value v (int64), one multinomial draw."""
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs)  # O(2**width) memory whatever the shots


def sample_counts(
    state: Statevector, qubits: Sequence[int], shots: int, seed: int
) -> np.ndarray:
    """How many of shots measurements of qubits read each value v, MSB first (int64)."""
    return draw_counts(register_probabilities(state, qubits), shots, seed)


def check_shots(shots: int) -> None:
    """Refuse a shot count that is no integer (a bool is none), is below 1, or
    is more than the int64 of numpy's multinomial draw can hold."""
    if not (_integral(shots) and 1 <= shots < 2**63):
        raise ValueError(f"shots must be in 1..{2**63 - 1}, got {shots}")


def check_backend(backend: str, shots: int) -> None:
    """Refuse a backend outside BACKENDS and a shot count check_shots refuses."""
    check_choice("backend", backend, BACKENDS)
    check_shots(shots)


def sample(circuit: Circuit, shots: int, seed: int) -> RunResult:
    """Sampling backend: measure ancilla and reg B, keep ancilla = 1 records.

    solution_i = sqrt(v_i / sum v) over kept counts v_i for reg B values
    i = 1 .. 2**n - 1; success_prob is the kept fraction.  The shot and
    seed checks come before the run.
    """
    check_shots(shots)
    if not (_integral(seed) and seed >= 0):
        raise ValueError(f"seed must be >= 0 and an integer, got {seed}")
    layout = circuit.layout
    counts = draw_counts(readout(circuit, (layout.ancilla,) + layout.reg_b), shots, seed)
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
    )
