"""The benchmark's span tracer still finds and reads what it wraps.

perfbench/spans.py rebinds public qpoisson functions by name and reads
fields of their results (state.amps, result.shots, result.success_prob).
An API change that drops one of them would only show as a broken benchmark
run; this test shows it in the tier-1 suite.
"""

import importlib
from pathlib import Path

from qpoisson import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_exist_and_the_sampled_paths_report(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for module, names in spans.TRACED.items():
        home = importlib.import_module(f"qpoisson.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"qpoisson.{module}.{name}"

    recorder = spans.Recorder()
    recorder.install()
    try:
        # 9 qubits: reg B (2) + reg E (6) + the ancilla
        assert cli.main(["solve", "--preset", "table1-3x3", "--f", "0", "--l", "10",
                         "--mode", "fused", "--backend", "sample", "--shots", "1000"]) == 0
        assert cli.main(["mitigate-demo", "--shots", "1000"]) == 0
    finally:
        recorder.uninstall()
    capsys.readouterr()

    metrics = spans.pass_metrics(recorder.spans, recorder.counters)
    for name in ("simulator.run_exact_s", "simulator.sample_counts_s",
                 "simulator.state_mb_max", "noise.corrupt_s", "noise.mitigate_s"):
        assert metrics[name] > 0.0, name
    assert 0.0 < metrics["simulator.kept_frac"] <= 1.0
