"""One set-up sample: import qpoisson.cli in a fresh process, run the warm-up op.

Prints "ready" once the process could serve its first timed op; run.py times
the interval from spawning this script to that line.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qpoisson import cli  # noqa: E402

from workloads import WARMUP_ARGV  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(list(WARMUP_ARGV))
if code != 0:
    raise SystemExit(f"warm-up op exited {code}")
print("ready", flush=True)
