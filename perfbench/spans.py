"""Span recording around calls into the seven qpoisson modules.

Tracing lives entirely in the benchmark: install() rebinds chosen public
functions to timing wrappers and uninstall() puts the originals back, so an
untraced pass runs unmodified code.  `from x import f` copies a binding into
the importing module, so each function is rebound in every qpoisson module
that holds it (cli.exact_solve, analytics.eigenpairs, circuit.eigenpairs, ...),
not only where it is defined.

Each span records name, start, end, parent span and op id; spans stay in
memory until the run writes them out.  Gates are assigned to pipeline stages
(load_b, qpe, rotation, uncompute) by the fragment lengths the wrapped
build_qpe and build_rotation_* return inside build_pipeline or
build_phase_verification.  The stage spans open and close inside the
apply_gate wrapper, so if run_exact stops routing gates through
simulator.apply_gate the trace reports zero gate calls and zero stage time.
"""

from __future__ import annotations

import functools
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# The IR's RY and PHASE kinds are left out: no builder emits them, so they
# would read zero on every run.
GATE_KINDS = ("H", "X", "SWAP", "MCX", "MCRY", "CU")
STAGES = ("load_b", "qpe", "rotation", "uncompute")
# Computed bytes a gate moves: 32 B per amplitude its control pattern leaves
# in play (16 read + 16 written); cache hits and scratch copies are ignored.
BYTES_PER_AMPLITUDE = 32

TRACED = {
    "model": ("eigenpairs", "exact_solve"),
    "encoding": ("build_angle_table", "amplify_encode", "effective_lambda", "decode_fraction"),
    "circuit": ("build_pipeline", "build_phase_verification", "build_qpe",
                "build_rotation_explicit", "build_rotation_fused"),
    "simulator": ("run_exact", "apply_gate", "postselect", "register_probabilities",
                  "sample_counts", "sample"),
    "noise": ("corrupt", "calibration_matrix", "mitigate", "fidelity_estimate"),
    "analytics": ("resource_report", "sweep_record", "relative_error",
                  "expected_success_probability", "analytic_success_probability",
                  "empirical_success_probability"),
}


class _Run:
    """Gate cursor for one run_exact call."""

    def __init__(self, stages):
        self.stages = stages  # [(stage, start, end)] or []
        self.index = 0
        self.stage_span = None
        self.stage_end = 0


class Recorder:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.fragments: list[dict] = []
        self.stages = weakref.WeakKeyDictionary()
        self.run: _Run | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        now = perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = now
            if top == idx:
                return

    def reset(self) -> None:
        self.spans, self.stack = [], []
        self.counters = defaultdict(float)

    # -- wrappers ----------------------------------------------------------
    def _plain(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def _fragment(self, fn, name, stage):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                gates = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if self.fragments:
                self.fragments[-1][stage] = len(gates)
            return gates
        return traced

    def _builder(self, fn, name, mirrored_qpe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.fragments.append({})
            idx = self.begin(name)
            try:
                circuit = fn(*args, **kwargs)
            finally:
                self.end(idx)
                lengths = self.fragments.pop()
            self._register(circuit, lengths, mirrored_qpe)
            return circuit
        return traced

    def _register(self, circuit, lengths, mirrored_qpe):
        for gate in circuit.gates:
            self.counters[f"gates.{gate.kind}"] += 1
        self.counters["qubits_max"] = max(self.counters["qubits_max"], circuit.layout.total)
        qpe = lengths.get("qpe", 0)
        sizes = [0, qpe, lengths.get("rotation", 0), qpe if mirrored_qpe else 0]
        sizes[0] = len(circuit.gates) - sum(sizes)
        if sizes[0] < 0 or "qpe" not in lengths:
            self.counters["unstaged_circuits"] += 1
            return
        bounds, start = [], 0
        for stage, size in zip(STAGES, sizes):
            if size:
                bounds.append((stage, start, start + size))
            start += size
        self.stages[circuit] = bounds

    def _run_exact(self, fn):
        @functools.wraps(fn)
        def traced(circuit, *args, **kwargs):
            idx = self.begin("simulator.run_exact")
            outer, self.run = self.run, _Run(self.stages.get(circuit, []))
            try:
                state = fn(circuit, *args, **kwargs)
            finally:
                self.end(idx)
                self.run = outer
            mib = state.amps.nbytes / 2**20
            self.counters["state_mb_max"] = max(self.counters["state_mb_max"], mib)
            return state
        return traced

    def _apply_gate(self, fn):
        @functools.wraps(fn)
        def traced(state, gate):
            run = self.run
            if run is not None and run.stage_span is None:
                for stage, start, end in run.stages:
                    if start == run.index:
                        run.stage_span = self.begin("simulator.stage." + stage)
                        run.stage_end = end
                        break
            idx = self.begin("simulator.apply_gate." + gate.kind)
            try:
                return fn(state, gate)
            finally:
                self.end(idx)
                self.counters[f"calls.{gate.kind}"] += 1
                touched = BYTES_PER_AMPLITUDE * 2 ** (state.q - len(gate.controls))
                self.counters[f"touched_bytes.{gate.kind}"] += touched
                if run is not None:
                    run.index += 1
                    if run.stage_span is not None and run.index == run.stage_end:
                        self.end(run.stage_span)
                        run.stage_span = None
        return traced

    def _sample(self, fn):
        plain = self._plain(fn, "simulator.sample")

        @functools.wraps(fn)
        def traced(circuit, shots, *args, **kwargs):
            result = plain(circuit, shots, *args, **kwargs)
            self.counters["shots"] += result.shots
            self.counters["kept_shots"] += round(result.success_prob * result.shots)
            return result
        return traced

    def _wrapper(self, module: str, name: str, fn):
        span = f"{module}.{name}"
        if span == "circuit.build_pipeline":
            return self._builder(fn, span, mirrored_qpe=True)
        if span == "circuit.build_phase_verification":
            return self._builder(fn, span, mirrored_qpe=False)
        if span == "circuit.build_qpe":
            return self._fragment(fn, span, "qpe")
        if span.startswith("circuit.build_rotation_"):
            return self._fragment(fn, span, "rotation")
        if span == "simulator.run_exact":
            return self._run_exact(fn)
        if span == "simulator.apply_gate":
            return self._apply_gate(fn)
        if span == "simulator.sample":
            return self._sample(fn)
        return self._plain(fn, span)

    # -- install -----------------------------------------------------------
    def install(self) -> None:
        """Rebind every traced function in every qpoisson module holding it."""
        holders = [m for key, m in sys.modules.items()
                   if m is not None and (key == "qpoisson" or key.startswith("qpoisson."))]
        for module, names in TRACED.items():
            home = sys.modules[f"qpoisson.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrapper(module, name, original)
                for holder in holders:
                    if holder.__dict__.get(name) is original:
                        self._patched.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched = []


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def pass_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (stream_gbps and trace.* aside)."""
    selfs = self_times(spans)
    by_self: dict[str, float] = defaultdict(float)
    by_total: dict[str, float] = defaultdict(float)
    module_self: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), own in zip(spans, selfs):
        by_self[name] += own
        by_total[name] += end - start
        module_self[name.split(".", 1)[0]] += own
    m: dict[str, float] = {}
    calls = 0.0
    for kind in GATE_KINDS:
        secs = by_total[f"simulator.apply_gate.{kind}"]
        gb = counters.get(f"touched_bytes.{kind}", 0.0) / 1e9
        m[f"simulator.apply_gate_s.{kind}"] = secs
        m[f"simulator.apply_gate_calls.{kind}"] = counters.get(f"calls.{kind}", 0.0)
        m[f"simulator.touched_gb.{kind}"] = gb
        m[f"simulator.effective_gbps.{kind}"] = gb / secs if secs > 0 else 0.0
        m[f"circuit.gates.{kind}"] = counters.get(f"gates.{kind}", 0.0)
        calls += m[f"simulator.apply_gate_calls.{kind}"]
    m["simulator.apply_gate_calls"] = calls
    for stage in STAGES:
        m[f"simulator.stage_s.{stage}"] = by_total[f"simulator.stage.{stage}"]
    m["simulator.run_exact_s"] = by_total["simulator.run_exact"]
    m["simulator.postselect_s"] = by_self["simulator.postselect"]
    m["simulator.sample_counts_s"] = by_self["simulator.sample_counts"]
    m["simulator.register_probabilities_s"] = by_self["simulator.register_probabilities"]
    shots = counters.get("shots", 0.0)
    m["simulator.kept_frac"] = counters.get("kept_shots", 0.0) / shots if shots else 0.0
    m["simulator.state_mb_max"] = counters.get("state_mb_max", 0.0)
    m["noise.corrupt_s"] = by_self["noise.corrupt"]
    m["noise.calibration_s"] = by_self["noise.calibration_matrix"]
    m["noise.mitigate_s"] = by_self["noise.mitigate"]
    m["circuit.qubits_max"] = counters.get("qubits_max", 0.0)
    m["analytics.resource_report_s"] = by_self["analytics.resource_report"]
    m["model.s"] = module_self["model"]
    m["encoding.s"] = module_self["encoding"]
    m["circuit.build_s"] = module_self["circuit"]
    m["simulator.self_s"] = module_self["simulator"]
    m["noise.self_s"] = module_self["noise"]
    m["analytics.self_s"] = module_self["analytics"]
    m["cli.self_s"] = module_self["cli"]
    m["trace.self_sum_s"] = sum(selfs)
    m["trace.spans"] = float(len(spans))
    m["trace.unstaged_circuits"] = counters.get("unstaged_circuits", 0.0)
    return m
