"""Benchmark of the qpoisson CLI, driven in process through cli.main(argv).

    python3 perfbench/run.py --workload wide|narrow|sample-mitigate \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Load is a closed loop with one client: the workload's op list
(workloads.py) runs back to back, in order, as one pass, and passes repeat
until S seconds have gone (at least one pass).  Every op writes its JSON
artifact and the oracle (oracle.py) checks it against a closed-form
reference before the next op starts; checking is not timed.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
set-up time (median of fresh processes that import qpoisson.cli and run one
warm-up op), pass time (each op's median over the passes, summed) and peak
RSS.  numpy's BLAS runs on one thread.  Per-command medians with sample
counts and upper percentiles, failures and machine facts are printed above
the result line for reading, not gating.

--trace 1 alternates untraced and traced passes for S seconds and reports
the per-layer metrics: span self times per module, gate time per kind and
per pipeline stage, computed bytes touched, and a streaming-copy bandwidth
measured in the same process.  Spans are written to
perfbench/out/trace-<workload>-seed<N>.json when the run ends.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code is 0 when the run completed, also when ops failed their
checks; it is 2 when the checkout holds no qpoisson sources.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; set-up probes inherit it.  On a
# shared 2-core host a BLAS call split over two threads waits for the slower
# one, so a neighbour's load on either core stretches it: with one core kept
# busy by another process, the n=9 mitigate-demo took 3.2 s on two
# threads and 0.87 s on one (0.87 s without that load).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 120
# Streaming copy for the bandwidth ceiling: 2**25 complex128 = 512 MiB per
# array, at least 4x the 105 MiB L3 of the reference machine.
STREAM_AMPLITUDES = 2**25
STREAM_REPEATS = 5
UPPER_PERCENTILES = (75, 90, 95, 99, 99.9)


@dataclass
class Record:
    """One op execution in one pass."""

    index: int
    command: str
    seconds: float
    status: str  # "ok", "unsigned" or "fail"
    message: str


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("wide", "narrow", "sample-mitigate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read back from the library."""
    maps = Path("/proc/self/maps").read_text(encoding="utf-8", errors="replace")
    for path in sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", maps))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure_setup(samples: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


class Runner:
    """Executes ops through cli.main and checks each artifact."""

    def __init__(self, cli, oracle, expected):
        self.cli = cli
        self.oracle = oracle
        self.expected = expected
        self.recorder = None
        self.artifact = OUT / "artifact.json"
        self.op_id = 0
        self.layer_passes: list[dict] = []
        self.kept_spans: list[list] = []
        self.traced_ops: dict[int, str] = {}

    def call(self, argv) -> tuple[int, str, float]:
        argv = [*argv, "--output", str(self.artifact)]
        sink = io.StringIO()
        rec = self.recorder
        if rec is not None:
            rec.op = self.op_id
            self.traced_ops[self.op_id] = " ".join(argv)
        self.op_id += 1
        start = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            span = rec.begin("cli.main") if rec is not None else None
            try:
                code = self.cli.main(argv)
            except Exception:  # an op that raises is a failed op, not a stopped run
                code, sink = -1, io.StringIO(traceback.format_exc())
            finally:
                if rec is not None:
                    rec.end(span)
        return code, sink.getvalue(), perf_counter() - start

    def execute(self, index: int, op) -> Record:
        self.artifact.unlink(missing_ok=True)
        code, output, seconds = self.call(op.argv)
        if code != 0:
            tail = output.strip().splitlines()[-1:] or [""]
            return Record(index, op.command, seconds, "fail", f"exit {code}: {tail[0]}")
        try:
            art = json.loads(self.artifact.read_text(encoding="utf-8"))
            status, message = self.oracle.check(op, art, self.expected)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            status, message = "fail", f"artifact unreadable: {exc!r}"
        return Record(index, op.command, seconds, status, message)

    def one_pass(self, ops, recorder=None) -> list[Record]:
        """All ops once, in order; with a recorder, traced and measured per layer."""
        if recorder is None:
            return [self.execute(i, op) for i, op in enumerate(ops)]
        recorder.reset()
        recorder.install()
        self.recorder = recorder
        try:
            records = [self.execute(i, op) for i, op in enumerate(ops)]
        finally:
            self.recorder = None
            recorder.uninstall()
        self.layer_passes.append(spans.pass_metrics(recorder.spans, recorder.counters))
        self.kept_spans.append(recorder.spans)
        return records


def pass_seconds(records: list[Record]) -> float:
    return sum(r.seconds for r in records)


def typical_pass_seconds(passes: list[list[Record]]) -> float:
    """Each op's median time over the passes, summed over the ops.

    A burst of load from elsewhere on the host stretches one op in one pass;
    it moves that op's median less than it moves the median of pass sums.
    """
    return sum(statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0])))


def upper_percentile(values: list[float]) -> str:
    """Highest listed percentile with at least 10 samples beyond it."""
    n = len(values)
    usable = [p for p in UPPER_PERCENTILES if n * (1 - p / 100) >= 10]
    if not usable:
        return "p75 n/a (needs >= 40 samples)"
    p = usable[-1]
    cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
    return f"p{p:g} {cut:.6g} s"


def stream_gbps() -> float:
    """Warmed copy of STREAM_AMPLITUDES complex128; bytes read plus written."""
    import numpy as np

    src = np.ones(STREAM_AMPLITUDES, dtype=np.complex128)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(STREAM_REPEATS):
        start = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - start)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def report(label: str, passes: list[list[Record]], commands: list[str]) -> None:
    flat = [r for p in passes for r in p]
    times = [pass_seconds(p) for p in passes]
    print(f"{label}pass_s {typical_pass_seconds(passes):.6g} s (op medians summed over "
          f"n={len(times)} passes); pass sums: " + " ".join(f"{t:.4g}" for t in times))
    for command in commands:
        times = [r.seconds for r in flat if r.command == command]
        name = command.replace("-", "_") + "_s"
        print(f"{label}{name} median {statistics.median(times):.6g} s (n={len(times)}), "
              f"{upper_percentile(times)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qpoisson" / "cli.py").is_file():
        print(f"error: no qpoisson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)

    from qpoisson import cli

    import oracle

    ops = workloads.build(args.workload, args.seed)
    commands = list(dict.fromkeys(op.command for op in ops))
    runner = Runner(cli, oracle, oracle.load_expected())
    code, output, _ = runner.call(workloads.WARMUP_ARGV)
    if code != 0:
        print(f"error: warm-up op failed: {output.strip()}", file=sys.stderr)
        return 1

    # Traced passes alternate with untraced ones, so drift in machine speed
    # during the run reaches both sides of trace.overhead_frac alike.
    recorder = spans.Recorder() if args.trace else None
    deadline = perf_counter() + args.seconds
    untraced, traced = [], []
    while True:
        untraced.append(runner.one_pass(ops))
        if recorder is not None:
            traced.append(runner.one_pass(ops, recorder))
        if perf_counter() >= deadline:
            break

    records = [r for p in untraced + traced for r in p]
    failed = [r for r in records if r.status != "ok"]
    threads = openblas_threads()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {len(ops)} ops per pass")
    print(f"machine: python {platform.python_version()}, numpy {sys.modules['numpy'].__version__}, "
          f"cpus {len(os.sched_getaffinity(0))}, openblas threads {threads}")
    for index, status, message in sorted({(r.index, r.status, r.message) for r in failed}):
        print(f"{status}: op {index} {' '.join(ops[index].argv)[:120]}: {message}")
    print(f"ops attempted {len(records)}, failed {len(failed)}, "
          f"failed_frac {len(failed) / len(records):.6g}")
    report("", untraced, commands)

    if args.trace:
        report("traced ", traced, commands)
        layer = runner.layer_passes
        values = {key: statistics.median(p[key] for p in layer) for key in layer[0]}
        untraced_pass = typical_pass_seconds(untraced)
        values["trace.pass_s"] = typical_pass_seconds(traced)
        values["trace.overhead_frac"] = values["trace.pass_s"] / untraced_pass - 1.0
        values["simulator.stream_gbps"] = stream_gbps()
        if values["trace.unstaged_circuits"]:
            print(f"warning: {values['trace.unstaged_circuits']:g} circuits per pass had no "
                  "stage spans; their gates count in no simulator.stage_s metric")
        print(f"self times sum to {values['trace.self_sum_s']:.6g} s against untraced "
              f"pass_s {untraced_pass:.6g} s (overhead {values['trace.overhead_frac']:+.4f})")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"],
            "passes": runner.kept_spans,
            "ops": runner.traced_ops,
        }), encoding="utf-8")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        values = {
            "pass_s": typical_pass_seconds(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"setup_s samples {' '.join(f'{t:.4f}' for t in setup)}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": all(r.status != "fail" for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
