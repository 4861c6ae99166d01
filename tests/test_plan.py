"""The fused execution plan against the one-gate-at-a-time reference kernel."""

import functools
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qpoisson import circuit as qc
from qpoisson import simulator as sim
from qpoisson import (
    FixedPointFormat,
    PoissonSystem,
    PostselectionError,
    QPoissonError,
    RegisterLayout,
    ResourceError,
    build_angle_table,
    build_phase_verification,
    build_pipeline,
    default_format,
    eigenpairs,
)
from qpoisson import cli
from qpoisson.cli import PRESETS
from reference import dump

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_state(circuit: qc.Circuit) -> np.ndarray:
    q = circuit.layout.total
    state = sim.Statevector(np.eye(1, 2**q, dtype=complex)[0], q)
    for gate in circuit.gates:
        sim.apply_gate(state, gate)
    return state.amps


def expand(state: sim.Statevector) -> np.ndarray:
    """The amplitudes over all q qubits: a held qubit is |0>."""
    full = np.zeros((2,) * state.q, dtype=complex)
    full[tuple(0 if g in state.held else slice(None) for g in range(state.q))] = state.tensor()
    return full.reshape(-1)


def pass_counts(plan: sim.Plan) -> Counter:
    """How many passes of each kind the plan holds."""
    return Counter(p.kind for p in plan.passes)


def assert_plan_matches(circuit: qc.Circuit) -> sim.Statevector:
    state = sim.run_exact(circuit)
    want = reference_state(circuit)
    assert np.max(np.abs(expand(state) - want)) < 1e-12
    return state


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    qmat, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return qmat * np.sign(np.diag(r))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    qmat, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def phase(q: int, angle: float) -> qc.Gate:
    """The single-qubit phase diag(1, e^(i angle)), an uncontrolled diagonal CU."""
    return qc.controlled_unitary((), (q,), np.diag([1.0, np.exp(1j * angle)]))


def random_circuit(seed: int, with_basis: bool) -> qc.Circuit:
    """Gates chosen to hit every lowering rule, in random order and places.

    Qubits 0 and 1 play reg B: uncontrolled dense CUs on them, and (with a basis)
    controlled powers V diag(phases) V^T, as in phase estimation.
    """
    rng = np.random.default_rng(seed)
    q = int(rng.integers(4, 7))
    block = (0, 1) if rng.random() < 0.5 else (1, 0)  # targets in either bit order
    basis = random_orthogonal(4, rng)
    others = list(range(2, q))
    # Hadamards, then a dense load on the block: with the block still |00>
    # the load joins the opening product state
    gates = [qc.hadamard(t) for t in range(q) if t in others or rng.random() < 0.3]
    gates.append(qc.controlled_unitary((), block, random_orthogonal(4, rng), label="load"))

    def pick(k, pool=None):
        pool = list(range(q)) if pool is None else pool
        return [int(x) for x in rng.permutation(pool)[:k]]

    for _ in range(int(rng.integers(25, 45))):
        choice = int(rng.integers(0, 12))
        if choice == 0:  # X-wrapped multi-controlled Ry run on a shared target
            target, *ctrls = pick(3)
            wraps = [qc.pauli_x(c) for c in ctrls if rng.random() < 0.5]
            inner = [
                qc.multi_controlled_ry(ctrls[: int(rng.integers(0, 3))], target,
                                       float(rng.uniform(-3, 3)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            gates += wraps + inner + wraps[::-1]
        elif choice == 1:  # SWAP chain
            gates += [qc.swap(*pick(2)) for _ in range(int(rng.integers(1, 4)))]
        elif choice == 2:  # diagonal run
            for _ in range(int(rng.integers(1, 4))):
                a, b = pick(2)
                gates.append(qc.controlled_phase(a, b, float(rng.uniform(-3, 3))))
                gates.append(phase(a, float(rng.uniform(-3, 3))))
        elif choice == 3:  # controlled dense CU on two targets
            c, *targets = pick(3)
            gates.append(qc.controlled_unitary((c,), targets, random_unitary(4, rng)))
        elif choice == 4:  # multi-controlled X with X-wrapped controls
            target, *ctrls = pick(3)
            wraps = [qc.pauli_x(ctrls[0])]
            gates += wraps + [qc.multi_controlled_x(ctrls, target)] + wraps
            if rng.random() < 0.5:  # a phase that reads the flipped target
                gates.append(phase(target, float(rng.uniform(-3, 3))))
        elif choice == 5:
            gates.append(qc.pauli_x(pick(1)[0]))
        elif choice == 6:
            gates.append(qc.hadamard(pick(1)[0]))
        elif choice == 7:
            gates.append(qc.multi_controlled_ry((), pick(1)[0], float(rng.uniform(-3, 3))))
        elif choice == 8:  # uncontrolled dense on the block (flushes the pending one)
            gates.append(qc.controlled_unitary((), block, random_unitary(4, rng)))
        elif choice == 9:  # walk-style power in the recorded eigenbasis
            if rng.random() < 0.5:  # an X between powers leaves the eigenbasis
                gates.append(qc.pauli_x(pick(1, list(block))[0]))
            phases = np.exp(1j * rng.uniform(-3, 3, size=4))
            gates.append(qc.controlled_unitary(pick(1, others), block,
                                               basis @ np.diag(phases) @ basis.T))
        elif choice == 10:  # single-target controlled non-diagonal CU
            c, t = pick(2)
            gates.append(qc.controlled_unitary((c,), (t,), random_unitary(2, rng)))
        else:  # Fourier fragment: in register order or not, exact or slightly off
            register = pick(int(rng.integers(2, q + 1)))
            if rng.random() < 0.5:
                register = sorted(register)
            fragment = qc.qft_fragment(register)
            if rng.random() < 0.5:
                fragment = qc.invert_fragment(fragment)
            if rng.random() < 0.2:  # one phase off by 1e-3: no longer a Fourier transform
                k = next(k for k, g in enumerate(fragment) if g.kind == qc.CONTROLLED_UNITARY)
                g = fragment[k]
                fragment[k] = qc.controlled_unitary(g.controls, g.targets,
                                                    g.matrix @ np.diag([1, np.exp(1e-3j)]))
            gates += fragment
    metadata = {"walk_basis": basis} if with_basis else {}
    return qc.Circuit(RegisterLayout(q - 1, 0, 0), tuple(gates), metadata)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), with_basis=st.booleans())
def test_plan_matches_reference_on_random_circuits(seed, with_basis):
    assert_plan_matches(random_circuit(seed, with_basis))


@pytest.mark.parametrize("chunk", [4, 16])
def test_plan_matches_reference_in_small_blocks(monkeypatch, sys_3x3, chunk):
    """Tiny cache blocks drive every blocked kernel branch on small states."""
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    for seed in range(16):
        assert_plan_matches(random_circuit(seed, with_basis=seed % 2 == 0))
    for mode in ("explicit", "fused"):
        assert_plan_matches(build_pipeline(sys_3x3, FixedPointFormat(6, 0, 8), mode))


def _pipelines():
    cases = []
    for name in ("table1-3x3", "table1-7x7"):
        for f in (0, 2):
            for mode in ("explicit", "fused"):
                for phase_mode in ("encoded", "true_a"):
                    cases.append(pytest.param(name, f, mode, phase_mode,
                                              id=f"{name}-f{f}-{mode}-{phase_mode}"))
    return cases


def _system(name: str) -> PoissonSystem:
    preset = PRESETS[name]
    return PoissonSystem(n=preset["n"], b=np.asarray(preset["b"]))


@pytest.mark.parametrize("name,f,mode,phase_mode", _pipelines())
def test_plan_matches_reference_on_pipelines(name, f, mode, phase_mode):
    system = _system(name)
    built = build_pipeline(system, FixedPointFormat(2 * system.n + 2, f, 8), mode, phase_mode)
    assert built.metadata["mode"] == mode and built.layout.total <= 17
    # reg A only controls the rotation, so it is held at |0> outside the buffer
    assert assert_plan_matches(built).held == built.layout.reg_a
    plan = sim.lower(built)
    counts = pass_counts(plan)
    # load_b, V^T and the first Hadamards on reg E write one product state;
    # the walk powers then run as diagonals up to one final V
    prep = plan.passes[0]
    assert prep.kind == "PREP" and prep.axes == built.layout.reg_b
    assert sorted(prep.controls) == list(built.layout.reg_e)
    assert counts["DENSE"] == 1 and counts["PREP"] == 1
    # each Fourier fragment is one pass; the closing Hadamards are one more,
    # over reg E in gate order
    assert counts["IQFT"] == counts["QFT"] == 1
    (closing,) = [p for p in plan.passes if p.kind == "H"]
    assert closing.axes == built.layout.reg_e[::-1]
    # X wraps and the explicit loads and unloads undo themselves on every
    # bit pattern, so nothing falls back to the generic kernel
    assert "GATE" not in counts and counts["RY"] == 1


@pytest.mark.parametrize("name", ["table1-3x3", "table1-7x7"])
@pytest.mark.parametrize("phase_mode", ["encoded", "true_a"])
def test_plan_matches_reference_on_phase_verification(name, phase_mode):
    system = _system(name)
    built = build_phase_verification(
        system, FixedPointFormat(2 * system.n + 2, 2, 8), system.b, phase_mode
    )
    # the ancilla is never written
    assert assert_plan_matches(built).held == (built.layout.ancilla,)
    plan = sim.lower(built)
    assert pass_counts(plan)["IQFT"] == 1
    assert "GATE" not in pass_counts(plan)


@pytest.mark.parametrize("basis", ["random", "missing", "complex", "non-square",
                                   "non-orthogonal"])
def test_walk_powers_fall_back_without_a_diagonalizing_basis(basis, sys_3x3):
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 0, 8), mode="fused")
    v = built.metadata["walk_basis"]
    # only a real orthogonal V that diagonalizes the walk may be used
    bases = {
        "random": random_orthogonal(4, np.random.default_rng(3)),
        "complex": v.astype(complex),
        "non-square": v[:, :3],
        "non-orthogonal": 2.0 * v,
    }
    metadata = {"walk_basis": bases[basis]} if basis in bases else {}
    circuit = qc.Circuit(built.layout, built.gates, metadata)
    walk_powers = sum(1 for g in built.gates if g.label.startswith("walk"))
    # every walk power runs through apply_gate (load_b lands in the PREP pass)
    assert pass_counts(sim.lower(circuit))["GATE"] == walk_powers
    assert_plan_matches(circuit)


def test_a_walk_power_off_the_basis_keeps_the_per_gate_path(sys_3x3):
    """One walk power turned out of V's frame: only it lowers to a GATE pass."""
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 0, 8), mode="fused")
    v = built.metadata["walk_basis"]
    j, walk = next((j, g) for j, g in enumerate(built.gates) if g.label == "walk^4")
    givens = np.eye(4)
    givens[1:3, 1:3] = [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]]
    bent = qc.controlled_unitary(walk.controls, walk.targets, walk.matrix @ givens, walk.label)
    rotated = v.T @ bent.matrix @ v
    assert np.max(np.abs(rotated - np.diag(np.diagonal(rotated)))) > 1e-3
    circuit = qc.Circuit(built.layout, built.gates[:j] + (bent,) + built.gates[j + 1:],
                         built.metadata)
    walks = sim._walk_diagonals(circuit.gates, v)
    powers = [g for g in circuit.gates if g.label.startswith("walk^")]
    assert bent not in walks and all(g in walks for g in powers if g is not bent)
    gates = [p.gate for p in sim.lower(circuit).passes if p.kind == "GATE"]
    assert gates == [bent]
    assert_plan_matches(circuit)


@pytest.mark.parametrize("name", PRESETS)
def test_walk_powers_are_checked_in_one_stacked_product_per_lowering(monkeypatch, name):
    """Each lowering of a Table-1 build checks every walk power in one call, one chunk."""
    system = _system(name)
    calls, check = [], sim._walk_diagonals

    def counted(gates, basis):
        walks = [g for g in gates if g.label.startswith("walk^")]
        # the chunk budget holds every walk power of the build: one stacked product
        assert 56 * basis.size * len(walks) <= sim._GROUP_BYTES
        found = check(gates, basis)
        assert all(g in found for g in walks)
        calls.append(len(walks))
        return found

    monkeypatch.setattr(sim, "_walk_diagonals", counted)
    lowerings = 0
    for f in (0, 4, 8):
        for mode in ("fused", "explicit"):
            try:
                built = build_pipeline(system, default_format(system.n, f, 16), mode)
            except ResourceError:
                continue
            m = built.layout.e_width
            sim.readout(built)  # lowers [load] + C + R: the m powers
            sim.lower(built)  # every power and its inverse
            lowerings += 2
            assert calls[-2:] == [m, 2 * m]
    assert len(calls) == lowerings


@pytest.mark.parametrize("name,f,mode,passes,counts,live", [
    pytest.param("table1-15x15", 8, "fused", 10,
                 {"PREP": 1, "DIAG": 4, "IQFT": 1, "RY": 1, "QFT": 1, "H": 1, "DENSE": 1}, 23,
                 id="15x15-f8-fused"),
    pytest.param("table1-7x7", 0, "auto", 8,
                 {"PREP": 1, "DIAG": 2, "IQFT": 1, "RY": 1, "QFT": 1, "H": 1, "DENSE": 1}, 12,
                 id="7x7-f0-auto"),
])
def test_benchmark_solves_keep_their_plan(name, f, mode, passes, counts, live):
    """The two 23-qubit solves the wide benchmark times, lowered but not run."""
    system = _system(name)
    built = build_pipeline(system, default_format(system.n, f, 16), mode)
    assert built.layout.total == 23
    plan = sim.lower(built)
    assert len(plan.passes) == passes and pass_counts(plan) == counts
    assert len(plan.live()) == live
    (closing,) = [p for p in plan.passes if p.kind == "H"]
    assert closing.axes == built.layout.reg_e[::-1]
    # a read of reg E drops V on the traced-out reg B and runs the rest
    run = sim._readout_plan(built, built.layout.reg_e)
    assert [(p.kind, p.axes) for p in run.passes] == [(p.kind, p.axes) for p in plan.passes[:-1]]
    # sampling reads reg B after V and drops the closing H on the traced-out reg E
    run = sim._readout_plan(built, (built.layout.ancilla,) + built.layout.reg_b)
    assert [p.kind for p in run.passes] == [p.kind for p in plan.passes if p.kind != "H"]


def test_wide_fused_readout_holds_one_slab():
    """15x15 f=8 reads its answer in groups of slabs and never holds the 128 MiB state."""
    system = _system("table1-15x15")
    fmt = default_format(system.n, 8, 16)
    built = build_pipeline(system, fmt, "fused")
    tracemalloc.start()
    try:
        solution, _ = sim.readout(built)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a group of three slabs' 2**13-entry P (reg E less the 5 folded pairs) and 32-column
    # moment tables
    assert peak < 2**20  # about 0.96 MiB, planning included
    assert np.max(np.abs(solution - closed_form(system, fmt))) < 1e-9


def test_wide_fused_readout_reads_three_slabs_a_group(monkeypatch):
    """15x15 f=8's 15 slabs: the doubling, fold and moment scratch is counted once a row."""
    system = _system("table1-15x15")
    built = build_pipeline(system, default_format(system.n, 8, 16), "fused")
    calls, fourier_marginal = [], sim._fourier_marginal

    def counted(*args):
        marginal, group = fourier_marginal(*args)

        def read(a, b):
            calls.append(len(a))
            return marginal(a, b)

        return read, group

    monkeypatch.setattr(sim, "_fourier_marginal", counted)
    sim.readout(built)
    assert sum(calls) == 15 and len(calls) <= 5


@pytest.mark.parametrize("name,f,mode", [("table1-15x15", 8, "fused"),
                                         ("table1-7x7", 0, "explicit")],
                         ids=("15x15-f8-fused", "7x7-f0-explicit"))
def test_overlap_cuts_each_pass_once_for_every_slab(monkeypatch, name, f, mode):
    """One _on_live call per DIAG pass and one for the RY pass, however many slabs there are."""
    system = _system(name)
    built = build_pipeline(system, default_format(system.n, f, 16), mode)
    compute, ry, _ = sim._overlap_plan(built)
    assert np.count_nonzero(compute.passes[0].data) > 2  # several slabs to read
    calls, on_live = [], sim._on_live

    def counted(p, *args):
        calls.append(p.kind)
        return on_live(p, *args)

    monkeypatch.setattr(sim, "_on_live", counted)
    sim.readout(built)
    assert sorted(calls) == ["DIAG"] * pass_counts(compute)["DIAG"] + ["RY"]


@pytest.mark.parametrize("name,f,phase_mode", [
    pytest.param(name, f, phase_mode, id=f"{name}-f{f}-{phase_mode}")
    for name in PRESETS for f in (0, 4, 8) for phase_mode in ("encoded", "true_a")
])
def test_readout_matches_the_full_state_on_the_grid(name, f, phase_mode):
    """Every buildable mode (fused, auto, explicit) and the phase read of one format."""
    system = _system(name)
    fmt = default_format(system.n, f, 16)
    built: dict[str, qc.Circuit] = {}
    for mode in ("fused", "explicit", "auto"):
        try:
            circuit = build_pipeline(system, fmt, mode, phase_mode)
        except ResourceError:
            continue
        resolved = circuit.metadata["mode"]
        if resolved in built:  # auto builds the circuit of the mode it resolves to
            assert dump(circuit) == dump(built[resolved])
            continue
        built[resolved] = circuit
    for circuit in built.values():
        # the exact solve reads phase estimation in closed form: no pass runs
        assert sim._overlap_plan(circuit) is not None
        layout, full = circuit.layout, sim.run_exact(circuit)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_run", _no_run)
            solution, success = sim.readout(circuit)
        want_solution, want_success = sim.postselect(full, layout)
        assert np.max(np.abs(solution - want_solution)) < 1e-12
        assert abs(success - want_success) < 1e-12
        measured = (layout.ancilla,) + layout.reg_b
        probs = sim.readout(circuit, measured)
        assert np.max(np.abs(probs - sim.register_probabilities(full, measured))) < 1e-12
        # sample draws its counts from these probabilities
        assert np.array_equal(sim.draw_counts(probs, 10**6, seed=7),
                              sim.sample_counts(full, measured, 10**6, seed=7))
    verification = build_phase_verification(system, fmt, system.b, phase_mode)
    reg_e, full = verification.layout.reg_e, sim.run_exact(verification)
    probs = sim.readout(verification, reg_e)
    assert np.max(np.abs(probs - sim.register_probabilities(full, reg_e))) <= 1e-15
    assert np.array_equal(sim.draw_counts(probs, 10**6, seed=3),
                          sim.sample_counts(full, reg_e, 10**6, seed=3))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), rhs=st.sampled_from(["signed", "positive", "sparse", "basis"]),
       seed=st.integers(0, 2**32 - 1), f=st.integers(0, 5), angle_bits=st.integers(1, 16),
       mode=st.sampled_from(qc.MODES), phase_mode=st.sampled_from(qc.PHASE_MODES),
       data=st.data())
def test_every_cli_solve_reads_in_closed_form_or_has_no_rotation(n, rhs, seed, f, angle_bits,
                                                                mode, phase_mode, data):
    """No solve the CLI builds reaches readout's whole-state fallback.

    Either the closed form reads it, or its angle table is all zero and
    analytics.solve refuses it before any read.
    """
    rng, dim = np.random.default_rng(seed), 2**n - 1
    if rhs == "signed":
        b = rng.uniform(-1, 1, dim)
    elif rhs == "positive":
        b = rng.uniform(0.1, 1, dim)
    elif rhs == "sparse":
        b = np.zeros(dim)
        b[rng.permutation(dim)[: max(1, dim // 3)]] = rng.choice([-1.0, 0.5, 1.0])
    else:
        b = np.eye(dim)[rng.integers(dim)]
    integer_bits = data.draw(st.one_of(st.none(), st.integers(1, 2 * n + 4)), label="i")
    cfg = {"preset": None, "n": n, "b": tuple(b), "integer_bits": integer_bits,
           "angle_bits": angle_bits}
    system = cli._resolve_system(cfg)
    try:
        built = build_pipeline(system, cli._resolve_format(cfg, n, f), mode, phase_mode)
    except QPoissonError:  # the CLI refuses it: exit 2 or 3
        return
    assert sim._overlap_plan(built) is not None or not built.metadata["table"].kept_columns


def _no_run(*args):
    raise AssertionError("the exact read ran a pass")


def raw_readouts(circuit: qc.Circuit):
    """readout's and postselect(run_exact)'s clean blocks and weights, before _solution."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_solution", lambda block, success: (block, success))
        return sim.readout(circuit), sim.postselect(sim.run_exact(circuit), circuit.layout)


def _near_mirror(case: str) -> qc.Circuit:
    """A 3x3 solve changed so that the closed form must not read it.

    Reading each as an overlap would be wrong, except rotation-on-b: a
    reg B control on R, which the closed form refuses rather than reads.
    """
    built = build_pipeline(_system("table1-3x3"), default_format(2, 0, 16), "fused", "true_a")
    layout, gates, metadata = built.layout, list(built.gates), built.metadata
    mid = next(i for i, g in enumerate(gates) if g.kind == qc.PAULI_X)
    end = len(gates) - mid + 1  # where the uncompute starts
    if case == "phase-off":  # one uncompute phase off by 1e-3
        k = max(k for k, g in enumerate(gates) if g.label.startswith("cphase"))
        g = gates[k]
        gates[k] = qc.controlled_unitary(g.controls, g.targets,
                                         g.matrix @ np.diag([1, np.exp(1e-3j)]))
    elif case == "kind-off":  # the closing Hadamard, mirror of C's first gate, made an X
        gates[-1] = qc.pauli_x(*gates[-1].targets)
    elif case == "short-uncompute":  # the closing Hadamard dropped: C^-1 is one gate short
        gates = gates[:-1]
    elif case == "hadamard-load":  # the load replaced by a Hadamard on the ancilla
        gates[0] = qc.hadamard(layout.ancilla)
    elif case == "diagonal-load":  # a load that lowers to a DIAG pass, not a PREP
        gates[0] = qc.controlled_unitary((), layout.reg_b, np.diag([1, 1j, -1, -1j]))
    elif case == "rotation-on-e":  # R rotates a reg E qubit, not the ancilla
        gates[mid:end] = [qc.multi_controlled_ry(layout.reg_e[:1], layout.reg_e[1], 0.7)]
    elif case == "rotation-on-b":  # R also rotates the ancilla under a reg B control
        # written in the walk frame, with no walk basis, so that no owed V runs ahead of R
        basis, metadata = built.metadata["walk_basis"], {"table": built.metadata["table"]}
        compute = [qc.controlled_unitary(g.controls, g.targets,
                                         np.diag(np.diagonal(basis.T @ g.matrix @ basis)))
                   if g.targets == layout.reg_b else g for g in gates[1:mid]]
        rotation = [qc.multi_controlled_ry(layout.reg_b[:1], layout.ancilla, 0.7)] + gates[mid:end]
        load = qc.controlled_unitary((), layout.reg_b, basis.T @ gates[0].matrix)
        gates = [load] + compute + rotation + qc.invert_fragment(compute)
    elif case == "hadamard-on-b":  # C writes reg B, which is then no slab axis
        gates[end:end] = [qc.hadamard(0)]
        gates[mid:mid] = [qc.hadamard(0)]
    elif case == "ancilla-phase":  # C ends with a phase the ancilla controls
        g = qc.controlled_phase(layout.ancilla, layout.reg_e[-1], 1.0)
        gates[end:end] = [qc.invert_gate(g)]
        gates[mid:mid] = [g]
    elif case == "unspread-e":  # C's Fourier register holds a qubit its Hadamards never spread
        spread = {(g.kind, g.targets) for g in (gates[1], gates[-1])}
        assert spread == {(qc.HADAMARD, layout.reg_e[:1])}
        gates = gates[:1] + gates[2:-1]
    elif case in ("coupled-e", "hadamard-closing"):
        swap = next(i for i, g in enumerate(gates) if g.kind == qc.SWAP)  # C's IQFT opens here
        if case == "coupled-e":  # a phase between two reg E qubits: no longer a product state
            coupling = qc.controlled_phase(*layout.reg_e[:2], 0.7)
            compute = gates[1:swap] + [coupling] + gates[swap:mid]
        else:  # a Hadamard layer in place of the IQFT
            compute = gates[1:swap] + [qc.hadamard(e) for e in layout.reg_e]
        gates = gates[:1] + compute + gates[mid:end] + qc.invert_fragment(compute)
    elif case == "dense-in-c":  # C opens with a dense unitary on reg B, which the PREP folds in
        g = qc.controlled_unitary((), layout.reg_b, random_orthogonal(4, np.random.default_rng(5)))
        gates[1:1] = [g]
        gates.append(qc.invert_gate(g))
    else:  # "no-uncompute"
        gates = gates[:end]
    return qc.Circuit(layout, tuple(gates), metadata)


@pytest.mark.parametrize("case", ["phase-off", "kind-off", "short-uncompute",
                                  "hadamard-load", "diagonal-load",
                                  "rotation-on-e", "rotation-on-b", "hadamard-on-b",
                                  "ancilla-phase", "unspread-e", "coupled-e", "hadamard-closing",
                                  "dense-in-c", "no-uncompute"])
def test_readout_falls_back_when_the_circuit_is_no_solve_mirror(case):
    """readout reads the full state instead: postselect(run_exact), bit for bit."""
    circuit = _near_mirror(case)
    assert sim._overlap_plan(circuit) is None
    (block, success), (want_block, want_success) = raw_readouts(circuit)
    assert np.array_equal(block, want_block) and success == want_success


def test_overlap_reads_no_pass_after_the_rotation_but_the_owed_v(monkeypatch, sys_3x3):
    """Handed the whole solve's plan, whose rotation the uncompute follows, readout falls back."""
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 2, 8), "fused")
    plan = sim.lower(built)
    monkeypatch.setattr(sim, "lower", lambda circuit: plan)
    assert sim._overlap_plan(built) is None
    solution, success = sim.readout(built)
    want_solution, want_success = sim.postselect(sim.run_exact(built), built.layout)
    assert np.max(np.abs(solution - want_solution)) < 1e-12
    assert abs(success - want_success) < 1e-12


def random_mirror_circuit(seed: int, estimation: bool) -> tuple[qc.Circuit, bool]:
    """[load] + C + R + C^-1, as build_pipeline lays out a solve, and whether C is phase estimation.

    Reg B is qubits 0 and 1, reg E the next m, then the ancilla.  The load
    is a complex unitary on reg B; R rotates the ancilla under X-wrapped
    and MCX-loaded reg E controls.  With estimation, C is phase estimation:
    Hadamards on reg E, a walk power, random walk powers and phases on
    single reg E qubits, then a Fourier fragment on reg E.  Otherwise C is
    Hadamards on reg E, then (unless it has none) a walk power, then random
    walk powers, controlled phases, Fourier fragments and Hadamards; it is
    phase estimation only when every one of those but a closing Fourier
    fragment is a walk power.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7) if estimation else rng.integers(2, 5))
    reg_e, anc = list(range(2, 2 + m)), 2 + m
    basis = random_orthogonal(4, rng)
    walks = estimation or rng.random() < 0.8  # without a walk power there is no V to close with

    def pick(k):
        return [int(x) for x in rng.permutation(reg_e)[:k]]

    def walk_power():
        phases = np.exp(1j * rng.uniform(-3, 3, size=4))
        return qc.controlled_unitary(pick(1), (0, 1), basis @ np.diag(phases) @ basis.T)

    def fragment():
        fragment = qc.qft_fragment(reg_e)
        return qc.invert_fragment(fragment) if rng.random() < 0.5 else fragment

    compute = [qc.hadamard(e) for e in reg_e] + ([walk_power()] if walks else [])
    if estimation:
        for _ in range(int(rng.integers(0, 8))):
            if rng.random() < 0.5:
                compute.append(walk_power())
            else:  # an uncontrolled diagonal whose first entry is not 1
                phases = np.exp(1j * rng.uniform(-3, 3, size=2))
                compute.append(qc.controlled_unitary((), pick(1), np.diag(phases)))
        compute += fragment()
    steps = []
    for _ in range(0 if estimation else int(rng.integers(2, 10))):
        choice = int(rng.integers(0, 4))
        if choice == 0 and walks:
            compute.append(walk_power())
            steps.append("walk")
        elif choice == 1:
            compute.append(qc.controlled_phase(*pick(2), float(rng.uniform(-3, 3))))
            steps.append("phase")
        elif choice == 2:
            compute += fragment()
            steps.append("fourier")
        else:
            compute += [qc.hadamard(e) for e in pick(int(rng.integers(1, m + 1)))]
            steps.append("hadamards")
    rotation = []
    for _ in range(int(rng.integers(1, 4))):
        controls = pick(int(rng.integers(0, m + 1)))
        wraps = [qc.pauli_x(c) for c in controls if rng.random() < 0.5]
        inner = [qc.multi_controlled_ry(controls, anc, float(rng.uniform(-3, 3)))]
        if controls and rng.random() < 0.5:  # load a control's value from the others
            load = qc.multi_controlled_x(controls[1:], controls[0])
            inner = [load] + inner + [load]
        rotation += wraps + inner + wraps[::-1]
    load = qc.controlled_unitary((), (0, 1), random_unitary(4, rng), label="load")
    gates = [load] + compute + rotation + qc.invert_fragment(compute)
    shaped = estimation or steps[-1] == "fourier" and set(steps[:-1]) <= {"walk"}
    return qc.Circuit(RegisterLayout(2, m, 0), tuple(gates), {"walk_basis": basis}), shaped


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_overlap_readout_matches_the_full_state_on_random_mirror_circuits(seed):
    """The clean block (complex here) and its weight, before the solution checks.

    Each seed builds a phase-estimation mirror and a general one: the
    closed form reads a mirror exactly when its C is phase estimation, and
    the others are postselect(run_exact), bit for bit.
    """
    for estimation in (True, False):
        circuit, shaped = random_mirror_circuit(seed, estimation)
        assert (sim._overlap_plan(circuit) is not None) == shaped
        (block, success), (want_block, want_success) = raw_readouts(circuit)
        if shaped:
            assert np.max(np.abs(block - want_block)) < 1e-12
            assert abs(success - want_success) < 1e-12
        else:
            assert np.array_equal(block, want_block) and success == want_success


TABLE1_WIDTHS = (6, 8, 10, 12, 14, 16, 18)  # reg E at 3x3, 7x7 and 15x15 with f in {0, 4, 8}


def _geometric_pairs(w: int, phase: float, inverse: bool) -> np.ndarray:
    """Phase estimation's register before its transform: qubit i holds (1, e^(2 pi i phase 2**(w-1-i))).

    The transform's sign is the opposite of the kickback's, so a phase v / 2**w
    reads as a point mass on v, and any other phase as a Fejer kernel.
    """
    turns = phase * 2.0 ** np.arange(w - 1, -1, -1)
    kick = np.exp((2j if inverse else -2j) * math.pi * turns)
    return np.stack([np.ones(w), kick], axis=1) * math.sqrt(0.5)


@pytest.mark.parametrize("inverse", [True, False], ids=["iqft", "qft"])
def test_closed_form_matches_the_fft_of_a_product_state(inverse):
    """Product states read whole, on leading runs, on other subsets and past the fold's cap.

    Random pairs on 1 to 10 qubits, and phase estimation's geometric pairs at
    the Table-1 widths: an encoded phase (a point mass, also checked against
    its exact marginal) and a true one (a Fejer kernel), read on the leading
    r in {2, 3, 5} axes, on a read that is no leading run, and on one past
    floor(w / 2).  Each state is read in a stack of 5 rows (four random
    neighbours), in the map's groups as _overlap reads slabs: 5 is no
    multiple of any group size but 1 and 5.  Every row matches its own FFT, and
    is bit for bit what the map returns for that row alone.
    """
    rng = np.random.default_rng(11)
    transform = np.fft.fft if inverse else np.fft.ifft
    cases = []
    for w in range(1, 11):
        pairs = rng.normal(size=(w, 2)) + 1j * rng.normal(size=(w, 2))
        pairs /= np.linalg.norm(pairs, axis=1, keepdims=True)
        subset = tuple(sorted(int(x) for x in rng.permutation(w)[: int(rng.integers(1, w + 1))]))
        cases.append((pairs, [tuple(range(w)), tuple(range((w + 1) // 2)), subset, ()], None))
    for w in TABLE1_WIDTHS:
        gaps = (0, 2, w - 1)  # no leading run; its last axis is past the cap
        reads = [tuple(range(r)) for r in (2, 3, 5)] + [gaps, tuple(range(w // 2 + 2))]
        v = int(rng.integers(2 ** w))
        exact = np.zeros(2 ** w)
        exact[v] = 1
        cases.append((_geometric_pairs(w, v / 2 ** w, inverse), reads, exact))
        cases.append((_geometric_pairs(w, rng.uniform(), inverse), reads, None))
    groups = set()
    for pairs, reads, exact in cases:
        w = len(pairs)
        neighbours = rng.normal(size=(4, w, 2)) + 1j * rng.normal(size=(4, w, 2))
        stack = np.concatenate([pairs[None], neighbours / np.linalg.norm(neighbours, axis=2,
                                                                         keepdims=True)])
        full = [np.abs(transform(functools.reduce(np.kron, state), norm="ortho")) ** 2
                for state in stack]
        for read in reads:
            others = tuple(x for x in range(w) if x not in read)
            marginal, group = sim._fourier_marginal(w, read, inverse)
            groups.add(group)
            a, b = stack[:, :, 0], stack[:, :, 1]
            got = np.concatenate([marginal(a[j : j + group], b[j : j + group])
                                  for j in range(0, len(stack), group)])
            assert got.shape == (len(stack), 2 ** len(read))
            for row, state, probs in zip(got, stack, full):
                alone = marginal(state[None, :, 0], state[None, :, 1])[0]
                assert row.tobytes() == alone.tobytes()
                want = probs.reshape((2,) * w).sum(axis=others).reshape(-1)
                assert np.max(np.abs(row - want)) <= 1e-14
            if exact is not None:
                want = exact.reshape((2,) * w).sum(axis=others).reshape(-1)
                assert np.max(np.abs(got[0] - want)) <= 1e-14
    assert min(groups) == 1 and len(groups - {1, 5}) > 5  # single rows and real groups both ran


# w: the reads of a w-qubit register.  w = 1 folds nothing (f = 0); () is the
# Parseval path; (0, 2, w - 1) and range(w // 2 + 2) read past the fold; w = 18
# reads 5 axes, as 15x15 f=8 does.
MARGINAL_READS = {
    1: [(0,), ()],
    2: [(0,), (1,), (0, 1)],
    3: [(0,), (2,), (0, 1, 2)],
    6: [(0, 1), (0, 2, 5), tuple(range(5))],
    9: [tuple(range(3)), (0, 2, 8), tuple(range(6))],
    12: [tuple(range(5)), (0, 2, 11), tuple(range(8))],
    16: [tuple(range(5)), (0, 2, 15)],
    18: [tuple(range(5)), (0, 2, 17), tuple(range(11))],
}
# sha256 of every marginal below, read in the map's own groups, as _overlap reads
# slabs.  A change that moves every row alike passes the group-against-one-row
# check above, and fails here.
MARGINALS_SHA256 = "54a873a50e4204b3d3653fc65abd347cede18bc1dc0f4adcad6e5d7dafa5a3b4"


def test_fourier_marginal_is_pinned():
    rng = np.random.default_rng(38)
    digest, count = hashlib.sha256(), 0
    for w, reads in MARGINAL_READS.items():
        for inverse in (False, True):
            noise = rng.normal(size=(4, w, 2)) + 1j * rng.normal(size=(4, w, 2))
            stack = np.concatenate([_geometric_pairs(w, rng.uniform(), inverse)[None],
                                    noise / np.linalg.norm(noise, axis=2, keepdims=True)])
            a, b = stack[:, :, 0], stack[:, :, 1]
            for read in reads:
                marginal, group = sim._fourier_marginal(w, read, inverse)
                for j in range(0, len(stack), group):
                    digest.update(marginal(a[j : j + group], b[j : j + group]).tobytes())
                count += 1
    assert (count, digest.hexdigest()) == (44, MARGINALS_SHA256)


@pytest.mark.parametrize("name", ["table1-3x3", "table1-7x7"])
@pytest.mark.parametrize("f", [0, 4, 8])
def test_uncompute_leaks_only_with_continuous_phases(name, f):
    """Leakage: the ancilla = 1 weight that the uncompute leaves outside reg E = 0.

    It is the weight minus the clean block's norm squared, over all 2**n
    entries.  Encoded walk phases read every eigenvalue exactly, so nothing
    leaks; true_a phases spread reg E, and the uncompute leaves some behind.
    """
    system = _system(name)
    for phase_mode in ("encoded", "true_a"):
        built = build_pipeline(system, default_format(system.n, f, 16), "fused", phase_mode)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_solution", lambda block, success: (block, success))
            block, weight = sim.readout(built)
        leakage = weight - float(np.vdot(block, block).real)
        if phase_mode == "encoded":
            assert abs(leakage) <= 1e-12 * weight
        else:
            assert leakage > 1e-12 * weight


def test_readout_runs_whole_when_a_middle_pass_writes_reg_b(sys_3x3):
    """A Hadamard pair on reg B before the rotation: the pair runs, and the same answer."""
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 2, 8), "fused")
    at = next(i for i, g in enumerate(built.gates) if g.kind == qc.PAULI_X)
    gates = built.gates[:at] + (qc.hadamard(0), qc.hadamard(0)) + built.gates[at:]
    circuit = qc.Circuit(built.layout, gates, built.metadata)
    # a sampled read drops the closing H on the traced-out reg E and keeps the pair
    measured = (circuit.layout.ancilla,) + circuit.layout.reg_b
    plan = sim._readout_plan(circuit, measured)
    assert [p.axes for p in plan.passes if p.kind == "H"] == [(0,), (0,)]
    probs = sim.readout(circuit, measured)
    full = sim.run_exact(circuit)
    assert np.max(np.abs(probs - sim.register_probabilities(full, measured))) < 1e-12
    solution, success = sim.readout(circuit)
    want_solution, want_success = sim.postselect(sim.run_exact(circuit), circuit.layout)
    assert np.max(np.abs(solution - want_solution)) < 1e-12
    assert abs(success - want_success) < 1e-12
    assert np.max(np.abs(solution - sim.readout(built)[0])) < 1e-12


def random_slab_circuit(seed: int) -> qc.Circuit:
    """A pipeline-shaped circuit that writes reg B only in its load and its final V.

    Reg B is qubits 0 and 1, reg E the next m, then the ancilla.  Between
    the Hadamards and load that open it and the Hadamards that close it,
    random walk powers, phases, Fourier fragments and Hadamards on reg E and
    rotations of the ancilla leave reg B alone.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    reg_e, anc = list(range(2, 2 + m)), 2 + m
    basis = random_orthogonal(4, rng)
    gates = [qc.hadamard(e) for e in reg_e]
    gates.append(qc.controlled_unitary((), (0, 1), random_orthogonal(4, rng), label="load"))

    def pick(k):
        return [int(x) for x in rng.permutation(reg_e)[:k]]

    def walk_power():
        phases = np.exp(1j * rng.uniform(-3, 3, size=4))
        return qc.controlled_unitary(pick(1), (0, 1), basis @ np.diag(phases) @ basis.T)

    # the first power comes before any other pass, so V^T folds into the PREP
    gates.append(walk_power())
    for _ in range(int(rng.integers(5, 15))):
        choice = int(rng.integers(0, 5))
        if choice == 0:
            gates.append(walk_power())
        elif choice == 1 and m > 1:
            gates.append(qc.controlled_phase(*pick(2), float(rng.uniform(-3, 3))))
        elif choice == 2:
            gates.append(qc.multi_controlled_ry(pick(int(rng.integers(0, m + 1))), anc,
                                                float(rng.uniform(-3, 3))))
        elif choice == 3:
            fragment = qc.qft_fragment(reg_e)
            gates += qc.invert_fragment(fragment) if rng.random() < 0.5 else fragment
        else:
            gates += [qc.hadamard(e) for e in pick(int(rng.integers(1, m + 1)))]
    gates += [qc.hadamard(e) for e in pick(m)]
    return qc.Circuit(RegisterLayout(2, m, 0), tuple(gates), {"walk_basis": basis})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["slab", "any", "any-basis"]),
       data=st.data())
def test_readout_matches_the_full_state_on_random_circuits(seed, kind, data):
    """Random tails, and pipeline shapes: reg B on the walk block, reg E on the rest."""
    if kind == "slab":
        circuit = random_slab_circuit(seed)
    else:
        random = random_circuit(seed, with_basis=kind == "any-basis")
        circuit = qc.Circuit(RegisterLayout(2, random.layout.total - 3, 0), random.gates,
                             random.metadata)
    q = circuit.layout.total
    full = sim.run_exact(circuit)
    qubits = tuple(data.draw(st.lists(st.integers(0, q - 1), unique=True, max_size=q)))
    probs = sim.readout(circuit, qubits)
    assert np.max(np.abs(probs - sim.register_probabilities(full, qubits))) < 1e-12
    # the clean block itself, before the solution checks: a random one is
    # complex, and no mirror, so readout reads the full state
    assert sim._overlap_plan(circuit) is None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_solution", lambda block, success: (block, success))
        block, success = sim.readout(circuit)
        want_block, want_success = sim.postselect(full, circuit.layout)
    assert np.array_equal(block, want_block) and success == want_success


def test_readout_reads_a_slab_ancilla():
    """Hadamards on every qubit: the PREP is the whole plan, and it writes the ancilla."""
    circuit = qc.Circuit(RegisterLayout(2, 1, 0), tuple(qc.hadamard(g) for g in range(4)), {})
    plan = sim._readout_plan(circuit, (circuit.layout.ancilla,) + circuit.layout.reg_b)
    assert [p.kind for p in plan.passes] == ["PREP"]
    full = sim.run_exact(circuit)
    solution, success = sim.readout(circuit)
    want_solution, want_success = sim.postselect(full, circuit.layout)
    assert np.max(np.abs(solution - want_solution)) < 1e-15
    assert success == pytest.approx(want_success, abs=1e-15) and success == pytest.approx(0.5)
    for qubits in [(3, 0, 1), (2,), (1, 3)]:
        probs = sim.readout(circuit, qubits)
        assert np.max(np.abs(probs - sim.register_probabilities(full, qubits))) < 1e-15


def test_readout_refuses_a_plan_whose_norm_drifts(monkeypatch, sys_3x3):
    """One entry of one phase table off by 1%: the norm drifts, and every reader raises."""
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 2, 8), "fused")
    plan = sim.lower(built)
    i, diag = next((i, p) for i, p in enumerate(plan.passes) if p.kind == "DIAG")
    (qubits, values), *rest = diag.data
    assert qubits[:2] == built.layout.reg_b  # a walk power: reg B and one control
    values = values.copy()
    values[1, 1, 1] *= 1.01  # reg B = 11 only
    mutated = sim.Pass("DIAG", diag.axes, data=((qubits, values), *rest))
    passes = plan.passes[:i] + (mutated,) + plan.passes[i + 1:]
    monkeypatch.setattr(sim, "lower", lambda circuit: sim.Plan(plan.q, passes))
    readers = [lambda: sim.readout(built), lambda: sim.readout(built, built.layout.reg_e),
               lambda: sim.run_exact(built)]
    for read in readers:
        with pytest.raises(RuntimeError, match="norm drifted"):
            read()


def test_overlap_readout_refuses_a_compute_half_whose_norm_drifts(monkeypatch, sys_3x3):
    """The same 1% phase table error, in the compute half the overlap runs."""
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 2, 8), "fused")
    lower = sim.lower

    def drifting(circuit):
        plan = lower(circuit)
        i, diag = next((i, p) for i, p in enumerate(plan.passes) if p.kind == "DIAG")
        (qubits, values), *rest = diag.data
        values = values.copy()
        values[1, 1, 1] *= 1.01  # reg B = 11 and one walk control
        mutated = sim.Pass("DIAG", diag.axes, data=((qubits, values), *rest))
        return sim.Plan(plan.q, plan.passes[:i] + (mutated,) + plan.passes[i + 1:])

    monkeypatch.setattr(sim, "lower", drifting)
    assert sim._overlap_plan(built) is not None
    with pytest.raises(RuntimeError, match="norm drifted"):
        sim.readout(built)


def _circuit(q: int, gates) -> qc.Circuit:
    return qc.Circuit(RegisterLayout(q - 1, 0, 0), tuple(gates), {})


def test_builder_rotation_stages_are_one_multiplexed_ry():
    """Every buildable grid configuration, lowered but not run."""
    cases = [(system, default_format(system.n, f, 16), mode)
             for system in map(_system, PRESETS) for f in (0, 4, 8)
             for mode in ("fused", "auto", "explicit")]
    cases += [(PoissonSystem(n=1, b=np.ones(1)), FixedPointFormat(4, 2, 8), mode)
              for mode in ("fused", "explicit")]
    built = []
    for system, fmt, mode in cases:
        try:
            built.append(build_pipeline(system, fmt, mode))
        except ResourceError:
            continue
    assert len(built) == 26  # 7x7 f=8 and 15x15 f=4, f=8 explicit exceed the budget
    for circuit in built:
        layout, plan = circuit.layout, sim.lower(circuit)
        ry = [p for p in plan.passes if p.kind == "RY"]
        assert "GATE" not in pass_counts(plan) and len(ry) == 1
        assert ry[0].axes == (layout.ancilla,)
        # reg A is never written before the rotation, so it reads 0 and is no control
        assert ry[0].controls == layout.reg_e[: circuit.metadata["table"].prefix_len]
        if layout.b_width == 1:  # no prefix: one eigenvalue
            assert ry[0].controls == ()
        # only reg A is never written
        assert plan.live() == tuple(g for g in range(layout.total) if g not in layout.reg_a)


def test_explicit_rotation_table_spans_the_prefix_only():
    """The 26-qubit 15x15 f=0 explicit build: one angle per reg E prefix pattern."""
    system = _system("table1-15x15")
    built = build_pipeline(system, default_format(system.n, 0, 16), "explicit")
    (ry,) = [p for p in sim.lower(built).passes if p.kind == "RY"]
    prefix_len = built.metadata["table"].prefix_len
    assert built.layout.a_width > 0 and ry.data.shape == (2, 2**prefix_len)


# sha256 of the solution and success bits of every buildable explicit and auto
# Table-1 solve (15 of them), as readout returns them.  They hold floats from
# small BLAS products, so the pin assumes the BLAS it was recorded with (numpy's
# bundled OpenBLAS).
TABLE1_SOLUTIONS_SHA256 = "e0c1d5a79ff25f43d368b50adb9bf91b5f124aa63a6a6cbb20f872c3aa0621cf"


def test_table1_explicit_solutions_are_pinned():
    digest, count = hashlib.sha256(), 0
    for system in map(_system, PRESETS):
        for f in (0, 4, 8):
            for mode in ("explicit", "auto"):
                try:
                    built = build_pipeline(system, default_format(system.n, f, 16), mode)
                except ResourceError:
                    continue
                solution, success = sim.readout(built)
                digest.update(solution.tobytes() + np.float64(success).tobytes())
                count += 1
    assert (count, digest.hexdigest()) == (15, TABLE1_SOLUTIONS_SHA256)


# sha256 of the solution and success bits of every buildable fused Table-1 solve
# (3 presets x f in {0, 4, 8} x both phase modes), as readout returns them: the
# closed-form readouts that the benchmark's solves and sweeps run.  Recorded with
# numpy's bundled OpenBLAS, like the explicit pin.
TABLE1_FUSED_SOLUTIONS_SHA256 = "21f51395a1fc03180d0f6c0e634c786364c6d12c482c7b434f26c780cb926d7f"


def test_table1_fused_solutions_are_pinned():
    digest, count = hashlib.sha256(), 0
    for system in map(_system, PRESETS):
        for f in (0, 4, 8):
            for phase_mode in qc.PHASE_MODES:
                try:
                    built = build_pipeline(system, default_format(system.n, f, 16), "fused",
                                           phase_mode)
                except ResourceError:
                    continue
                solution, success = sim.readout(built)
                digest.update(solution.tobytes() + np.float64(success).tobytes())
                count += 1
    assert (count, digest.hexdigest()) == (18, TABLE1_FUSED_SOLUTIONS_SHA256)


@pytest.mark.parametrize("name,f,live", [("table1-7x7", 0, 12), ("table1-3x3", 4, 13)])
def test_explicit_solves_run_on_their_live_qubits(name, f, live):
    """auto resolves to explicit at 23 qubits, and reg A is held."""
    system = _system(name)
    built = build_pipeline(system, default_format(system.n, f, 16), "auto")
    state = sim.run_exact(built)
    assert (built.layout.total, state.q, state.held) == (23, 23, built.layout.reg_a)
    assert state.amps.size == 2**live
    solution, _ = sim.postselect(state, built.layout)
    assert np.max(np.abs(solution - closed_form(system, default_format(system.n, f, 16)))) < 1e-9


_x, _mcx, _mcry = qc.pauli_x, qc.multi_controlled_x, qc.multi_controlled_ry
# name: (qubits, gates, the GATE and RY passes they lower to)
SEGMENT_CASES = {
    # the first rotation runs alone; the second opens a segment of its own
    "two-targets": (5, [_mcry((1, 2), 0, 0.7), _mcry((), 3, -1.1), _mcry((2,), 3, 0.4)],
                    ["GATE", "RY"]),
    "x-on-target": (4, [_mcry((1,), 0, 0.7), _x(0), _mcry((1,), 0, -0.3)],
                    ["GATE", "GATE", "RY"]),
    "mcx-on-target": (4, [_mcry((1,), 0, 0.7), _mcx((2,), 0), _mcry((1,), 0, -0.3)],
                      ["GATE", "GATE", "RY"]),
    "mcx-reads-target": (4, [_mcry((1,), 0, 0.7), _mcx((0,), 2), _mcry((2,), 0, -0.3)],
                         ["GATE", "GATE", "RY"]),
    # qubit 3 returns to itself only on the patterns where qubits 1 and 2 agree
    "load-without-unload": (5, [_mcx((1,), 3), _mcry((3,), 0, 0.9), _mcx((2,), 3)],
                            ["GATE", "GATE", "GATE"]),
    # 7 qubits besides the target; tables on 8 qubits stop at 6
    "wider-than-a-table": (8, [_x(1), _mcry(tuple(range(1, 8)), 0, 1.3), _x(1)],
                           ["GATE", "GATE", "GATE"]),
}


@pytest.mark.parametrize("case", list(SEGMENT_CASES))
def test_rotation_segment_that_does_not_qualify_runs_gate_by_gate(case):
    q, gates, kinds = SEGMENT_CASES[case]
    circuit = _circuit(q, [qc.hadamard(t) for t in range(q)] + gates)
    plan = sim.lower(circuit)
    assert [p.kind for p in plan.passes if p.kind in ("GATE", "RY")] == kinds
    assert_plan_matches(circuit)


_load_unload = [_mcx((1,), 3), _mcry((3,), 0, 0.9), _mcry((1,), 0, -0.4), _mcx((1,), 3)]
_wide_loads = [_mcx((1,), 3), _mcx((2,), 4), _mcx((1, 2), 5), _mcx((1,), 6), _x(7)]
# name: (qubits, the qubits a Hadamard writes first, gates, the GATE and RY passes
# they lower to, the RY pass's controls)
UNWRITTEN_SEGMENT_CASES = {
    # qubit 3 is |0> when the segment opens, so it is no pattern bit and no control
    "load-on-unwritten": (5, (0, 1), _load_unload, ["RY"], (1,)),
    "load-after-hadamard": (5, (0, 1, 3), _load_unload, ["RY"], (1, 3)),
    # 7 qubits besides the target, 2 of them written: within the 6-qubit table cap
    "written-fit-a-table": (8, (0, 1, 2),
                            _wide_loads + [_mcry((3, 4, 5, 6, 7), 0, 1.3), _mcry((3,), 0, -0.4)]
                            + _wide_loads[::-1], ["RY"], (1, 2)),
    # qubit 3 ends at q1 xor q2, not at the 0 it started from
    "load-without-unload": (5, (0, 1, 2), [_mcx((1,), 3), _mcry((3,), 0, 0.9), _mcx((2,), 3)],
                            ["GATE", "GATE", "GATE"], None),
}


@pytest.mark.parametrize("case", list(UNWRITTEN_SEGMENT_CASES))
def test_rotation_segment_reads_unwritten_qubits_at_zero(case):
    q, written, gates, kinds, controls = UNWRITTEN_SEGMENT_CASES[case]
    circuit = _circuit(q, [qc.hadamard(t) for t in written] + gates)
    plan = sim.lower(circuit)
    assert [p.kind for p in plan.passes if p.kind in ("GATE", "RY")] == kinds
    assert [p.controls for p in plan.passes if p.kind == "RY"] == ([controls] if controls else [])
    assert_plan_matches(circuit)


def _numpy_rotation_at(gates, i, cap):
    """_rotation_at's walk as one boolean row per touched qubit, three numpy calls a gate."""
    end = sim._segment_end(gates, i)
    if end == i:
        return None
    run = [(g, g.kind in (qc.PAULI_X, qc.MULTI_CONTROLLED_X)) for g in gates[i:end]]
    targets = {g.targets[0] for g, flip in run if not flip}
    if len(targets) != 1 or any(flip and targets & {*sim._controls(g), *g.targets}
                                for g, flip in run):
        return None
    (target,) = targets
    touched = {q for g, _ in run for q in sim._controls(g) + g.targets} - targets
    written = {q for g in gates[:i] for q in g.targets}
    qubits = sorted(touched & written)
    if len(qubits) > cap:
        return None
    row = {q: r for r, q in enumerate(qubits + sorted(touched - written))}
    start = np.zeros((len(row), 1 << len(qubits)), bool)
    start[: len(qubits)] = (np.arange(1 << len(qubits)) >> np.arange(len(qubits))[::-1, None]) & 1
    bits, angles, hit = start.copy(), np.zeros(1 << len(qubits)), np.empty(1 << len(qubits), bool)
    for g, flip in run:
        hit[:] = True
        for c in sim._controls(g):
            hit &= bits[row[c]]
        if flip:
            bits[row[g.targets[0]]] ^= hit
        else:
            np.add(angles, g.angle, out=angles, where=hit)
    if not np.array_equal(bits, start):
        return None
    return target, tuple(qubits), angles, len(run)


def _random_segment(rng, others, loads: int, rotations: int, max_controls: int):
    """Loads, rotations on qubit 0 and the loads reversed: a segment that returns every pattern.

    Each load is an X or an MCX among others; each rotation's angle spans
    six decades, so a change in the order of its adds changes the sums' bits.
    """
    def pick(count):
        return [int(x) for x in rng.choice(others, size=count, replace=False)]

    unload = []
    for _ in range(loads):
        target, *controls = pick(1 + int(rng.integers(0, max_controls + 1)))
        unload.append(_mcx(controls, target) if controls else _x(target))
    turns = [_mcry(pick(int(rng.integers(0, max_controls + 1))), 0,
                   rng.normal() * 10.0 ** rng.integers(-3, 3)) for _ in range(rotations)]
    return unload + turns + unload[::-1]


def test_rotation_walk_matches_the_numpy_walk():
    """Random X, MCX and MCRY segments over written and unwritten qubits, dense hits, the cap.

    Each segment is read after Hadamards on its written qubits, as it is
    found, and perturbed: one load dropped from the unload half, for a run
    that leaves some pattern changed, and one gate put in that flips the
    rotation target, reads it, or rotates a second target.  The integer
    walk must return what the boolean one does: the target, qubits, angle
    bits and length, or None.
    """
    rng = np.random.default_rng(2026)
    cases = []  # (written, segment, cap)
    for j in range(60):
        q = int(rng.integers(3, 11))
        others = np.arange(1, q)
        written = [int(x) for x in others if rng.uniform() < 0.6]
        segment = _random_segment(rng, others, int(rng.integers(0, 6)), int(rng.integers(1, 9)),
                                  min(3, q - 2))
        cases.append((written, segment, 6))
        cases.append((written, segment[:-1] if rng.uniform() < 0.5 else segment[1:], 6))
        other = int(rng.choice(others))
        stray = [_x(0), _mcx((other,), 0), _mcx((0,), other), _mcry((), other, 0.5)][j % 4]
        at = int(rng.integers(0, len(segment) + 1))
        cases.append((written, segment[:at] + [stray] + segment[at:], 6))
        touched = {x for g in segment for x in g.controls + g.targets} - {0}
        k = len(touched & set(written))
        cases.append((written, segment[::-1], k))  # reversed, it also returns; k at the cap
        cases.append((written, segment, k - 1))
    # 12 written qubits and one unwritten, one-control rotations: each hits half the
    # 4,096 patterns
    dense = _random_segment(rng, np.arange(1, 14), 6, 40, 1)
    cases += [(list(range(1, 13)), dense, cap) for cap in (11, 12, 18)]
    found = []
    for written, segment, cap in cases:
        gates = [qc.hadamard(t) for t in written] + segment
        want = _numpy_rotation_at(gates, len(written), cap)
        got = sim._rotation_at(gates, len(written), cap)
        found.append(want is not None)
        if want is None:
            assert got is None
            continue
        target, qubits, angles, length = got
        assert (target, qubits, length) == (want[0], want[1], want[3])
        assert angles.dtype == np.float64 and angles.tobytes() == want[2].tobytes()
    assert 60 < sum(found) < len(found) - 60  # many segments qualify, many do not


def test_many_hadamards_rescale_before_the_factor_underflows():
    """1,031 Hadamards on 3 qubits: each H pass applies its own factor."""
    circuit = _circuit(3, [qc.hadamard(k % 3) for k in range(1031)])
    plan = sim.lower(circuit)
    # the first run writes the product state; every later run is one H pass
    assert [p.kind for p in plan.passes] == ["PREP"] + ["H"] * 343
    assert [p.axes for p in plan.passes[1:]] == [(0, 1, 2)] * 342 + [(0, 1)]
    assert_plan_matches(circuit)


def test_hadamards_alone_end_their_prologue_at_finish():
    circuit = _circuit(3, [qc.hadamard(0), qc.hadamard(2)])
    (prep,) = sim.lower(circuit).passes
    assert (prep.kind, prep.axes, prep.controls) == ("PREP", (), (0, 2))
    assert_plan_matches(circuit)


@pytest.mark.parametrize("targets,runs", [
    pytest.param((2, 0, 2, 1), [(2, 0), (2, 1)], id="split-at-a-repeated-qubit"),
    # 2**(-3/2) is not a power of two
    pytest.param((3, 1, 0), [(3, 1, 0)], id="odd-length"),
])
def test_hadamard_runs_are_one_pass_each(targets, runs):
    # the RY pass ends the prologue, so every run is an H pass
    circuit = _circuit(4, [_mcry((), 1, 0.3)] + [qc.hadamard(t) for t in targets])
    plan = sim.lower(circuit)
    assert [p.kind for p in plan.passes] == ["RY"] + ["H"] * len(runs)
    assert [p.axes for p in plan.passes[1:]] == runs
    assert_plan_matches(circuit)


def test_hadamard_run_stops_short_of_a_fourier_fragment():
    circuit = _circuit(3, [qc.hadamard(0)] + qc.qft_fragment((1, 2)))
    assert [p.kind for p in sim.lower(circuit).passes] == ["PREP", "QFT"]
    assert_plan_matches(circuit)


def _ladders(width: int, rng: np.random.Generator):
    """A register of width non-consecutive qubits, and its QFT and inverse QFT."""
    register = tuple(int(q) for q in rng.permutation(2 * width + 1)[:width])
    forward = qc.qft_fragment(register)
    return register, {False: forward, True: qc.invert_fragment(forward)}


@pytest.mark.parametrize("width", range(1, 9))
def test_fourier_match_accepts_every_ladder(width):
    rng = np.random.default_rng(width)
    register, ladders = _ladders(width, rng)
    for inverse, ladder in ladders.items():
        lead, tail = [qc.pauli_x(register[0])], [qc.hadamard(register[-1])]
        gates = lead + ladder + tail
        if width == 1:  # the fragment is one Hadamard, which lowers as an H pass
            assert sim._fourier_at(gates, 1) is None
        else:
            assert sim._fourier_at(gates, 1) == (register, inverse, len(ladder))
            assert sim._fourier_at(gates, 0) is None
            # one qubit everywhere, which only directly built gates can hold
            alone = [qc.Gate(g.kind, register[:1] * len(g.targets),
                             register[:1] * len(g.controls), matrix=g.matrix) for g in ladder]
            assert sim._fourier_at(alone, 0) is None
        # a phase off by less than the 1e-12 tolerance still matches
        k = next((k for k, g in enumerate(ladder) if g.kind == qc.CONTROLLED_UNITARY), None)
        if k is not None:
            g = ladder[k]
            close = qc.controlled_unitary(g.controls, g.targets,
                                          g.matrix @ np.diag([1, np.exp(1e-14j)]))
            assert sim._fourier_at(ladder[:k] + [close] + ladder[k + 1:], 0) is not None


def test_lower_fetches_a_ladder_only_for_a_head_that_reads_as_one(sys_3x3):
    """A build caches its reg E ladders, and a run that opens no ladder fetches none."""
    def misses():
        return qc._fourier_ladders.cache_info().misses

    for fmt in (FixedPointFormat(6, 2, 8), FixedPointFormat(6, 1, 8)):  # reg E of 8 and 7 qubits
        built = build_pipeline(sys_3x3, fmt, "fused")
        before = misses()
        # an odd IQFT's floor(w/2) swaps would also open a ladder of w - 1 qubits
        assert {"QFT", "IQFT"} <= set(pass_counts(sim.lower(built)))
        assert misses() == before
    spread = [qc.hadamard(q) for q in range(3)]
    heads = {
        "other-target": [qc.hadamard(0), qc.controlled_phase(1, 2, math.pi / 2),
                         qc.controlled_phase(0, 2, math.pi / 4)],
        "repeated-control": [qc.hadamard(0), qc.controlled_phase(1, 0, math.pi / 2),
                             qc.controlled_phase(1, 0, math.pi / 4)],
    }
    for case, head in heads.items():
        circuit = _circuit(3, spread + head)
        before = misses()
        assert not {"QFT", "IQFT"} & set(pass_counts(sim.lower(circuit))), case
        assert misses() == before, case
        assert_plan_matches(circuit)
    # a register no build has cached is fetched once, and recognized
    for inverse in (False, True):
        ladder = qc.qft_fragment((1, 2, 3))
        circuit = _circuit(4, [qc.hadamard(q) for q in range(4)]
                           + (qc.invert_fragment(ladder) if inverse else ladder))
        qc._fourier_ladders.cache_clear()
        assert sim.lower(circuit).passes[-1].kind == ("IQFT" if inverse else "QFT")
        assert misses() == 1
        assert_plan_matches(circuit)


def _near_ladders(width: int, inverse: bool, rng: np.random.Generator):
    """Gate runs one step away from a Fourier fragment, keyed by what differs."""
    register, ladders = _ladders(width, rng)
    ladder = ladders[inverse]
    phases = [k for k, g in enumerate(ladder) if g.kind == qc.CONTROLLED_UNITARY]
    k = int(rng.choice(phases))
    g = ladder[k]
    off = qc.controlled_unitary(g.controls, g.targets, g.matrix @ np.diag([1, np.exp(1e-9j)]))
    flipped = qc.controlled_unitary(g.targets, g.controls, g.matrix)
    spare = min(set(range(2 * width + 1)) - set(register))
    moved = qc.controlled_unitary((spare,), g.targets, g.matrix)
    swaps = [k for k, g in enumerate(ladder) if g.kind == qc.SWAP]
    closing = swaps[0] if inverse else swaps[-1]
    # the same ladder, but with its Hadamards in another register order
    shuffled = tuple(int(q) for q in rng.permutation(register))
    while shuffled == register:
        shuffled = tuple(int(q) for q in rng.permutation(register))
    other = qc.qft_fragment(shuffled)
    if inverse:
        other = qc.invert_fragment(other)
    reordered = [h if g.kind == qc.HADAMARD else g for g, h in zip(ladder, other)]
    tail = [qc.hadamard(register[0])]
    return {
        "phase-off": ladder[:k] + [off] + ladder[k + 1:],
        "swapped-control": ladder[:k] + [flipped] + ladder[k + 1:],
        "moved-control": ladder[:k] + [moved] + ladder[k + 1:],
        "missing-swap": ladder[:closing] + ladder[closing + 1:] + tail,
        "hadamard-order": reordered,
    }


@pytest.mark.parametrize("inverse", [False, True], ids=["qft", "iqft"])
@pytest.mark.parametrize("width", range(2, 9))
def test_fourier_match_refuses_near_ladders(width, inverse):
    q = 2 * width + 1
    for case, gates in _near_ladders(width, inverse, np.random.default_rng(width)).items():
        assert all(sim._fourier_at(gates, i) is None for i in range(len(gates))), case
        if width <= 4:  # and they lower gate by gate to the same state
            circuit = _circuit(q, [qc.hadamard(t) for t in range(q)] + gates)
            assert not {"QFT", "IQFT"} & set(pass_counts(sim.lower(circuit))), case
            assert_plan_matches(circuit)


def _load(targets, seed):
    dim = 2 ** len(targets)
    return qc.controlled_unitary((), targets, random_unitary(dim, np.random.default_rng(seed)))


_cphase, _cu, _h = qc.controlled_phase, qc.controlled_unitary, qc.hadamard
# name: (qubits, gates, the qubits run_exact holds at |0>)
HELD_CASES = {
    # qubit 3 is loaded and unloaded inside the rotation segment and qubit 4
    # is never set, so the RY table is read at 0 on both (its four control
    # qubits fit the 6-qubit table cap of four)
    "ry-control": (6, [_h(0), _h(1), _h(5), _mcx((0,), 3), _mcry((3, 1), 2, 0.9),
                       _mcx((0,), 3), _mcry((4,), 2, 0.3), _mcry((), 2, -0.5)], (3, 4)),
    # qubits 2 and 3 only carry phases; the second DIAG pass acts on them alone
    "diag-axis": (4, [_h(0), _h(1), _cphase(0, 2, 0.9), _cu((1,), (3,), np.diag([1j, -1])),
                      phase(1, 0.4), _h(0), phase(2, 0.5), _cphase(2, 3, 0.2)], (2, 3)),
    "untouched": (4, [_h(0), _h(2), _cphase(0, 2, 0.4), _load((1, 2), 3), _h(1)], (3,)),
    # an uncontrolled diagonal CU is a DIAG term, so it only reads its qubits
    "uncontrolled-diagonal": (4, [_h(0), _cu((), (1, 2), np.diag([1, 1j, -1, -1j])),
                                  _cphase(0, 3, 0.6)], (1, 2, 3)),
    # an X outside a rotation segment runs as a GATE pass, which may write anything
    "x-outside-a-segment": (4, [_h(0), _x(3), _cphase(0, 3, 0.7)], ()),
    "gate-pass": (4, [_h(0), _h(1), qc.swap(0, 1), _cphase(1, 2, 0.3)], ()),
}


@pytest.mark.parametrize("case", list(HELD_CASES))
def test_run_exact_holds_the_qubits_no_pass_writes(case):
    q, gates, held = HELD_CASES[case]
    state = assert_plan_matches(_circuit(q, gates))
    assert state.held == held and state.amps.size == 2 ** (q - len(held))


# name: (gates after a Hadamard on qubit 0, the (kind, axes) of the passes they lower to);
# test_back_to_back_dense_unitaries ends a prologue with a non-consecutive CU
PROLOGUE_CASES = {
    "fold": ([_load((1, 2), 1), qc.hadamard(3), _load((1, 2), 2)], [("PREP", (1, 2))]),
    "diag": ([_load((1, 2), 1), phase(1, 0.4), _load((1, 2), 2)],
             [("PREP", (1, 2)), ("DIAG", (1,)), ("DENSE", (1, 2))]),
    # a leading diagonal CU ends the prologue instead of folding into it
    "leading-diag": ([phase(1, 0.4), _load((1, 2), 1)],
                     [("PREP", ()), ("DIAG", (1,)), ("DENSE", (1, 2))]),
    "hadamard-on-prep-axes": ([_load((1, 2), 1), qc.hadamard(2)],
                              [("PREP", (1, 2)), ("H", (2,))]),
}


@pytest.mark.parametrize("case", list(PROLOGUE_CASES))
def test_product_state_prologue(case):
    gates, passes = PROLOGUE_CASES[case]
    circuit = _circuit(4, [qc.hadamard(0)] + gates)
    plan = sim.lower(circuit)
    assert [(p.kind, p.axes) for p in plan.passes] == passes
    if case == "fold":  # both loads, times 1/2 for the two Hadamards
        prep = plan.passes[0]
        assert prep.controls == (0, 3)
        want = (gates[2].matrix @ gates[0].matrix)[:, 0] * 0.5
        assert np.array_equal(prep.data, want)
    assert_plan_matches(circuit)


def test_back_to_back_dense_unitaries(monkeypatch):
    """The first joins the prologue and the scattered one ends it; wider than a block, a GATE."""
    monkeypatch.setattr(sim, "_CHUNK", 4)
    rng = np.random.default_rng(12)
    circuit = _circuit(4, [qc.hadamard(0)] + [
        qc.controlled_unitary((), targets, random_unitary(2 ** len(targets), rng))
        for targets in [(1, 2), (1, 3), (1, 2, 3), (2, 3), (2, 3)]
    ])
    plan = sim.lower(circuit)
    assert [(p.kind, p.axes) for p in plan.passes] == [
        ("PREP", (1, 2)), ("GATE", ()), ("GATE", ()), ("DENSE", (2, 3)), ("DENSE", (2, 3))
    ]
    assert [p.gate.targets for p in plan.passes[1:3]] == [(1, 3), (1, 2, 3)]
    assert_plan_matches(circuit)


@pytest.mark.parametrize("reader", ["RY", "DIAG"])
def test_lone_swap_runs_through_apply_gate(reader):
    """A SWAP outside a Fourier fragment is one GATE pass; the next pass reads the moved qubits."""
    rng = np.random.default_rng(5)
    load = qc.controlled_unitary((), (1, 2), random_orthogonal(4, rng), label="load")
    after = {
        "RY": [qc.multi_controlled_ry((0,), 3, 0.7), qc.multi_controlled_ry((1, 2), 3, -1.2)],
        "DIAG": [qc.controlled_phase(0, 1, 0.9), phase(2, -0.4)],
    }[reader]
    circuit = _circuit(5, [qc.hadamard(0), load, qc.swap(0, 2)] + after)
    plan = sim.lower(circuit)
    assert [p.kind for p in plan.passes] == ["PREP", "GATE", reader]
    assert plan.passes[1].gate == circuit.gates[2]
    assert_plan_matches(circuit)


def closed_form(system: PoissonSystem, fmt: FixedPointFormat) -> np.ndarray:
    eigs = eigenpairs(system)
    table = build_angle_table(eigs.lambdas, fmt)
    sines = np.sin(np.pi * np.array([int(w, 2) / 2.0 ** len(w) for w in table.encoded_omegas]))
    x = eigs.vectors @ (eigs.betas * sines)
    return x / np.linalg.norm(x)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    values=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=7, max_size=7),
    mode=st.sampled_from(["fused", "explicit"]),
)
def test_exact_solution_is_signed(n, values, mode):
    b = np.asarray(values[: 2**n - 1])
    assume(np.linalg.norm(b) > 0.1)
    system = PoissonSystem(n=n, b=b)
    fmt = FixedPointFormat(2 * n + 2, 2, 8)
    built = build_pipeline(system, fmt, mode=mode)
    solution, _ = sim.postselect(sim.run_exact(built), built.layout)
    assert np.max(np.abs(solution - closed_form(system, fmt))) < 1e-9


def test_postselect_rejects_a_complex_block():
    layout = RegisterLayout(2, 0, 0)
    amps = np.zeros(8, dtype=complex)
    amps[0b011] = 0.3j
    amps[0b101] = 0.4
    amps[0b000] = math.sqrt(1 - 0.25)
    with pytest.raises(PostselectionError):
        sim.postselect(sim.Statevector(amps, 3), layout)


def _held_pipeline_state():
    """A 3x3 explicit run (reg A held) and the same state over all qubits."""
    built = build_pipeline(_system("table1-3x3"), FixedPointFormat(6, 2, 8), "explicit")
    state = sim.run_exact(built)
    assert state.held == built.layout.reg_a
    return built.layout, state, sim.Statevector(expand(state), state.q)


def test_postselect_reads_held_qubits_as_zero():
    layout, state, full = _held_pipeline_state()
    solution, success = sim.postselect(state, layout)
    want_solution, want_success = sim.postselect(full, layout)
    assert np.max(np.abs(solution - want_solution)) < 1e-15
    assert success == pytest.approx(want_success, abs=1e-15)
    # a held reg B qubit reads 0, and a held ancilla keeps no branch
    layout = RegisterLayout(2, 1, 0)
    amps = np.array([0.6, 0.0, 0.0, 0.8])  # over reg B's qubit 1 and the ancilla
    solution, success = sim.postselect(sim.Statevector(amps, 4, held=(0, 2)), layout)
    assert np.array_equal(solution, [1.0, 0.0, 0.0]) and success == pytest.approx(0.64)
    with pytest.raises(PostselectionError):
        sim.postselect(sim.Statevector(amps, 4, held=(2, 3)), layout)


@pytest.mark.parametrize("which", ["ancilla-b", "e-a", "a-then-b", "held-only", "all"])
def test_readouts_on_held_qubits_match_the_expanded_state(which):
    layout, state, full = _held_pipeline_state()
    qubits = {
        "ancilla-b": (layout.ancilla,) + layout.reg_b,
        "e-a": layout.reg_e + layout.reg_a,
        "a-then-b": (layout.reg_a[1], layout.reg_b[1], layout.reg_a[0], layout.ancilla),
        "held-only": layout.reg_a[::-1],
        "all": tuple(range(state.q))[::-1],
    }[which]
    probs = sim.register_probabilities(state, qubits)
    assert np.max(np.abs(probs - sim.register_probabilities(full, qubits))) < 1e-15
    counts = sim.sample_counts(state, qubits, 10**5, seed=11)
    assert np.array_equal(counts, sim.sample_counts(full, qubits, 10**5, seed=11))


def test_apply_gate_refuses_held_qubits():
    state = sim.Statevector(np.array([1.0, 0.0], dtype=complex), 2, held=(1,))
    with pytest.raises(ValueError, match="held"):
        sim.apply_gate(state, qc.hadamard(0))


def test_lower_refuses_an_unknown_kind():
    circuit = qc.Circuit(RegisterLayout(1, 0, 0), (qc.hadamard(0), qc.Gate("RZ", (1,))))
    with pytest.raises(ValueError, match="unknown gate kind RZ"):
        sim.lower(circuit)


def test_sample_counts_memory_does_not_grow_with_shots(sys_3x3):
    built = build_pipeline(sys_3x3, FixedPointFormat(6, 0, 10), mode="fused")
    state = sim.run_exact(built)
    qubits = (built.layout.ancilla,) + built.layout.reg_b
    tracemalloc.start()
    counts = sim.sample_counts(state, qubits, 10**6, seed=5)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert counts.sum() == 10**6
    assert peak < 2**20  # one int64 per shot would be 8 MB
    assert np.array_equal(counts, sim.sample_counts(state, qubits, 10**6, seed=5))


OPTIMIZED_CHECKS = """
import numpy as np
assert not __debug__
from qpoisson import circuit as qc, encoding, simulator as sim
from qpoisson import FixedPointFormat

def raises(fn):
    try:
        fn()
    except RuntimeError as exc:
        return str(exc)
    return None

# a non-unitary matrix smuggled past controlled_unitary's check
gate = qc.Gate(qc.CONTROLLED_UNITARY, (0,), matrix=2.0 * np.eye(2))
circuit = qc.Circuit(qc.RegisterLayout(1, 0, 0), (gate,), {})
print("drift:", raises(lambda: sim.run_exact(circuit)))
fmt = FixedPointFormat(4, 0, 8)
real_prune = encoding.prune_zero_columns
encoding.prune_zero_columns = lambda bits: (99,)
print("columns:", raises(lambda: encoding.build_angle_table([2.0, 3.0], fmt)))
encoding.prune_zero_columns = real_prune
encoding.angle_coefficient = lambda lam: 0.0
print("omega:", raises(lambda: encoding.build_angle_table([2.0, 3.0], fmt)))
"""


def test_invariants_hold_under_python_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert set(lines) == {"drift", "columns", "omega"}
    assert all(message != "None" for message in lines.values()), out
