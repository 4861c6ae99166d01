"""Write expected.json: the resource rows the oracle compares against.

Resource reports (qubits, depth, CNOT estimates, gate counts) are fixed by
the gate IR, so the rows of the `narrow` workload's `resources` ops and the
resource columns of its `sweep` ops are recorded once, at the seed commit,
and every later run must reproduce them exactly.  Rerun only for a change
that alters the IR on purpose:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from qpoisson import cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

SWEEP_KEYS = ("problem", "f", "l", "mode", "qubits", "depth", "cnots_est")


def _rows(op) -> list[dict]:
    out = HERE / "out" / "record.json"
    out.parent.mkdir(exist_ok=True)
    if cli.main([*op.argv, "--output", str(out)]) != 0:
        raise SystemExit(f"op failed: {' '.join(op.argv)}")
    return json.loads(out.read_text(encoding="utf-8"))["rows"]


def main() -> int:
    expected: dict = {"resources": {}, "sweep": {}}
    for op in workloads.narrow(np.random.default_rng(0)):
        if op.command == "resources":
            expected["resources"][op.spec["mode"]] = _rows(op)
        elif op.command == "sweep":
            rows = [{k: row[k] for k in SWEEP_KEYS} for row in _rows(op)]
            expected["sweep"][op.spec["preset"]] = rows
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    oracle.EXPECTED_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {oracle.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
