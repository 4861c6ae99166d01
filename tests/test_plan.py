"""The fused execution plan against the one-gate-at-a-time reference kernel."""

import math
import os
import subprocess
import sys
import tracemalloc
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
    RegisterLayout,
    ResourceError,
    build_angle_table,
    build_phase_verification,
    build_pipeline,
    default_format,
    eigenpairs,
)
from qpoisson.cli import PRESETS

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_state(circuit: qc.Circuit) -> np.ndarray:
    state = sim.zero_state(circuit.layout.total)
    for gate in circuit.gates:
        sim.apply_gate(state, gate)
    return state.amps


def assert_plan_matches(circuit: qc.Circuit) -> None:
    got = sim.run_exact(circuit).amps
    want = reference_state(circuit)
    assert np.max(np.abs(got - want)) < 1e-12


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    qmat, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return qmat * np.sign(np.diag(r))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    qmat, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


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
                gates.append(qc.phase(a, float(rng.uniform(-3, 3))))
        elif choice == 3:  # controlled dense CU on two targets
            c, *targets = pick(3)
            gates.append(qc.controlled_unitary((c,), targets, random_unitary(4, rng)))
        elif choice == 4:  # multi-controlled X with X-wrapped controls
            target, *ctrls = pick(3)
            wraps = [qc.pauli_x(ctrls[0])]
            gates += wraps + [qc.multi_controlled_x(ctrls, target)] + wraps
            if rng.random() < 0.5:  # a phase that reads the flipped target
                gates.append(qc.phase(target, float(rng.uniform(-3, 3))))
        elif choice == 5:
            gates.append(qc.pauli_x(pick(1)[0]))
        elif choice == 6:
            gates.append(qc.hadamard(pick(1)[0]))
        elif choice == 7:
            gates.append(qc.ry(pick(1)[0], float(rng.uniform(-3, 3))))
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


@pytest.mark.parametrize("chunk,long_run", [(4, 8), (16, 2)])
def test_plan_matches_reference_in_small_blocks(monkeypatch, sys_3x3, chunk, long_run):
    """Tiny cache blocks drive every blocked kernel branch on small states."""
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    monkeypatch.setattr(sim, "_LONG_RUN", long_run)
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
    assert_plan_matches(built)
    plan = sim.lower(built)
    counts = plan.counts()
    # load_b, V^T and the first Hadamards on reg E write one product state;
    # the walk powers then run as diagonals up to one final V
    prep = plan.passes[0]
    assert prep.kind == "PREP" and prep.axes == built.layout.reg_b
    assert sorted(prep.controls) == list(built.layout.reg_e)
    assert counts["DENSE"] == 1 and counts["PREP"] == 1
    # each Fourier fragment is one pass; only the closing Hadamards remain
    assert counts["IQFT"] == counts["QFT"] == 1
    assert counts["H"] == built.layout.e_width
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
    assert_plan_matches(built)
    plan = sim.lower(built)
    assert plan.counts()["IQFT"] == 1
    assert "GATE" not in plan.counts()


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
    assert sim.lower(circuit).counts()["GATE"] == walk_powers
    assert_plan_matches(circuit)


@pytest.mark.parametrize("name,f,mode,passes,counts", [
    pytest.param("table1-15x15", 8, "fused", 27,
                 {"PREP": 1, "DIAG": 4, "IQFT": 1, "RY": 1, "QFT": 1, "H": 18, "DENSE": 1},
                 id="15x15-f8-fused"),
    pytest.param("table1-7x7", 0, "auto", 15,
                 {"PREP": 1, "DIAG": 2, "IQFT": 1, "RY": 1, "QFT": 1, "H": 8, "DENSE": 1},
                 id="7x7-f0-auto"),
])
def test_benchmark_solves_keep_their_plan(name, f, mode, passes, counts):
    """The two 23-qubit solves the wide benchmark times, lowered but not run."""
    system = _system(name)
    built = build_pipeline(system, default_format(system.n, f, 16), mode)
    assert built.layout.total == 23
    plan = sim.lower(built)
    assert len(plan.passes) == passes and plan.counts() == counts


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
        assert "GATE" not in plan.counts() and len(ry) == 1
        assert ry[0].axes == (layout.ancilla,)
        controls = layout.reg_e[: circuit.metadata["table"].prefix_len] + layout.reg_a
        assert ry[0].controls == controls
        if layout.b_width == 1:  # no prefix: one eigenvalue
            assert ry[0].controls == ((7, 8) if layout.a_width else ())


_x, _mcx, _ry, _mcry = qc.pauli_x, qc.multi_controlled_x, qc.ry, qc.multi_controlled_ry
# name: (qubits, gates, the GATE and RY passes they lower to)
SEGMENT_CASES = {
    # the first rotation runs alone; the second opens a segment of its own
    "two-targets": (5, [_mcry((1, 2), 0, 0.7), _ry(3, -1.1), _mcry((2,), 3, 0.4)],
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


def test_many_hadamards_rescale_before_the_factor_underflows():
    gates = [qc.hadamard(k % 3) for k in range(2 * sim._MAX_PENDING_H + 7)]
    circuit = _circuit(3, gates + [qc.ry(1, 0.4)])
    counts = sim.lower(circuit).counts()
    assert counts["SCALE"] == 2 and counts["H"] == len(gates)
    assert_plan_matches(circuit)


def test_hadamards_alone_end_their_prologue_at_finish():
    circuit = _circuit(3, [qc.hadamard(0), qc.hadamard(2)])
    assert [p.kind for p in sim.lower(circuit).passes] == ["H", "H", "SCALE"]
    assert_plan_matches(circuit)


def test_back_to_back_dense_unitaries(monkeypatch):
    """Each flushes the one before; scattered or wider than a block, it runs as a GATE."""
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
        "DIAG": [qc.controlled_phase(0, 1, 0.9), qc.phase(2, -0.4)],
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
