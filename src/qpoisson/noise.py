"""Readout error model, calibration matrices, and least-squares mitigation.

Counts are vectors: counts[v] is how many records read value v, qubit 0 the
MSB.  Flips act independently per measured bit: p01 is the probability a
true 0 reads as 1, p10 the reverse.  The calibration matrix is the Kronecker
product of the per-qubit column-stochastic confusion matrices, so column s
holds the readout distribution for true state s and a noisy distribution is
M @ ideal.
Mitigation inverts that relation as the constrained least squares problem

    min ||M x - y||_2   subject to   x >= 0,  sum(x) = 1.

That is not the estimator of Smolin, Gambetta and Smith (PRL 108, 070502,
2012), which projects the linear-inversion estimate M^-1 y onto the simplex
in the 2-norm; here the residual is measured in the observed space instead.
It is solved by accelerated projected gradient with the sort-based
projection onto the probability simplex of Duchi et al. (ICML 2008).  M is
never formed: M^T M is the Kronecker product of the per-qubit
M_i^T M_i, so each iteration applies w 2x2 factors to a 2**w vector, the
tensored readout model of Bravyi et al. (PRA 103, 042605, 2021).  That costs
O(w 2**w) time per iteration and O(2**w) memory; calibration_matrix() builds
the dense M as a reference.  Forecast fidelity for a hardware run decays per
entangling gate as GATE_ACCURACY ** cnots.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError

__all__ = [
    "DRAW_BUDGET",
    "GATE_ACCURACY",
    "MAX_CALIBRATION_WIDTH",
    "ReadoutModel",
    "corrupt",
    "calibration_matrix",
    "check_calibration_width",
    "mitigate",
    "fidelity_estimate",
]

# Per-CNOT accuracy of the hardware fidelity forecast.
GATE_ACCURACY = 0.92
# Widest model mitigate() and the dense calibration_matrix() accept.
MAX_CALIBRATION_WIDTH = 10
# Most uniforms corrupt() draws in one call, one per recorded bit: about 20 s
# at 4.7 ns per draw on both cores of a 2-core x86 VM, 25 s on one of them.
DRAW_BUDGET = 2**32
# Projected-gradient iteration cap, and the largest entry change of the
# iterate below which it has converged.
_MAX_ITERATIONS = 10_000
_STEP_TOL = 1e-15
# Uniform draws in flight in one corrupt() call, summed over its workers: each
# of k workers draws blocks of _CORRUPT_BLOCK // k, which bounds the memory
# whatever the shot count and CPU count.  Blocks and spans split one random
# stream, so the result is the same.
_CORRUPT_BLOCK = 1 << 16
# Full blocks per span, the unit of work one worker takes at a time.
_CORRUPT_SPAN = 8
# Most workers one corrupt() call runs, the caller included.  Only the draws
# and the compare release the GIL, about 60% of a block's work on one thread,
# so more workers gain little and only shrink the blocks, each of which holds
# the GIL for a fixed ~15 us whatever its size.
_CORRUPT_WORKERS = 4


@dataclass(frozen=True)
class ReadoutModel:
    """Per-qubit flip probabilities for a register of measured bits."""

    p01: tuple[float, ...]
    p10: tuple[float, ...]

    def __post_init__(self):
        if len(self.p01) != len(self.p10) or not self.p01:
            raise ValueError("p01 and p10 must be equal-length, non-empty")
        # p < 0.5 keeps each confusion matrix diagonally dominant, hence invertible
        for p in self.p01 + self.p10:
            if not 0.0 <= p < 0.5:
                raise ValueError(f"flip probability {p} outside [0, 0.5)")

    @property
    def width(self) -> int:
        return len(self.p01)

    @classmethod
    def uniform(cls, width: int, p01: float, p10: float) -> "ReadoutModel":
        return cls(p01=(p01,) * width, p10=(p10,) * width)

    @classmethod
    def from_json(cls, path: str) -> "ReadoutModel":
        """Load {"0": {"p01": .., "p10": ..}, "1": {...}, ...} keyed by qubit."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"noise model file {path} must hold a JSON object")
        indices = sorted(int(k) for k in raw)
        if indices != list(range(len(indices))):
            raise ValueError(f"noise model qubits must be contiguous from 0, got {indices}")
        try:
            p01 = tuple(_number(raw[str(i)]["p01"]) for i in indices)
            p10 = tuple(_number(raw[str(i)]["p10"]) for i in indices)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"noise model {path}: every qubit needs numeric p01 and p10") from exc
        return cls(p01=p01, p10=p10)


def _number(value) -> float:
    """A JSON number as a float; TypeError for a string, a boolean, null or a container."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a JSON number")
    return float(value)


def corrupt(counts: np.ndarray, model: ReadoutModel, seed: int) -> np.ndarray:
    """Flip every recorded bit independently per the model; new counts.

    A seed fixes the result through one stream of uniforms, the doubles of
    default_rng(seed).random(): records go in ascending outcome order, each
    takes w uniforms, qubit 0 first, and a bit flips where its uniform falls
    below its flip probability.  The records are cut into spans of
    _CORRUPT_SPAN full blocks, drawn on the CPUs the process may use, up to
    _CORRUPT_WORKERS: the caller and one thread per further CPU each take the
    next span and count into their own vector.  A span that starts at record
    r draws from PCG64(seed) jumped ahead by r * w, where the one stream
    stands at that record, and its blocks may cross outcomes.  So the counts
    are the same for any CPU count.  More than DRAW_BUDGET uniforms (records
    times w) raise ResourceError before the first draw.  A worker's exception
    is raised here; an exception in the caller stops the workers at their
    next span, and no worker outlives the call.
    """
    w = model.width
    counts = np.asarray(counts)
    if counts.shape != (2 ** w,) or counts.dtype.kind not in "iu" or np.any(counts < 0):
        raise ValueError(f"counts must be {2 ** w} non-negative integers for a {w}-bit model")
    # a float sum cannot wrap, and it is exact near the budget
    bits = float(counts.sum(dtype=np.float64)) * w
    if bits > DRAW_BUDGET:
        raise ResourceError(f"corrupt needs {bits:.6g} draws, budget is {DRAW_BUDGET}")
    p01 = np.asarray(model.p01)
    p10 = np.asarray(model.p10)
    weights = 2 ** np.arange(w - 1, -1, -1)
    # sums of distinct powers of two are exact in float32 below 2**24
    weights_f = weights.astype(np.float32 if w <= 24 else np.float64)
    values = np.flatnonzero(counts)
    sizes = counts[values].astype(np.int64)
    ends = np.cumsum(sizes)
    begins = ends - sizes
    total = int(sizes.sum())
    span = _CORRUPT_SPAN * max(1, _CORRUPT_BLOCK // w)
    spans = -(-total // span)
    workers = max(1, min(_cpu_count(), spans, _CORRUPT_WORKERS))
    rows = max(1, _CORRUPT_BLOCK // workers // w)
    taken = iter(range(spans))
    lock = threading.Lock()
    halt = threading.Event()

    def draw() -> np.ndarray:
        """Counts of the spans this worker takes, until none is left or halt is set."""
        out = np.zeros(2 ** w, dtype=np.int64)
        draws = np.empty(rows * w)
        flips = np.empty(rows * w, dtype=weights_f.dtype)
        while not halt.is_set():
            with lock:
                k = next(taken, None)
            if k is None:
                break
            lo = k * span
            hi = min(lo + span, total)
            rng = np.random.Generator(np.random.PCG64(seed).advance(lo * w))
            for start in range(lo, hi, rows):
                stop = min(start + rows, hi)
                # the outcomes this block spans, and how many of its records each holds
                i0 = np.searchsorted(ends, start, side="right")
                i1 = np.searchsorted(begins, stop, side="left")
                take = np.minimum(ends[i0:i1], stop) - np.maximum(begins[i0:i1], start)
                spanned = values[i0:i1]
                flip_p = np.where((spanned[:, None] & weights) != 0, p10, p01)
                u = rng.random(out=draws[: (stop - start) * w])
                f = np.less(u, flip_p.repeat(take, axis=0).ravel(), out=flips[: u.size])
                codes = (f.reshape(-1, w) @ weights_f).astype(np.int64) ^ spanned.repeat(take)
                # work in proportion to the block, not to the 2**w outcomes
                np.add.at(out, codes, 1)
        return out

    tallies = []
    errors = []

    def work():
        try:
            tallies.append(draw())
        except BaseException as exc:
            errors.append(exc)
            halt.set()

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    try:
        for thread in threads:
            thread.start()
        out = draw()
    finally:
        halt.set()
        for thread in threads:
            if thread.ident is not None:  # it started before an exception cut the loop
                thread.join()
    if errors:
        raise errors[0]
    for tally in tallies:
        out += tally
    return out


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def check_calibration_width(model: ReadoutModel) -> None:
    """Refuse a model wider than MAX_CALIBRATION_WIDTH with ResourceError."""
    if model.width > MAX_CALIBRATION_WIDTH:
        raise ResourceError(f"calibration width {model.width} exceeds {MAX_CALIBRATION_WIDTH}")


def _confusion_factors(model: ReadoutModel) -> list[np.ndarray]:
    """Each qubit's column-stochastic [[1 - p01, p10], [p01, 1 - p10]], qubit 0 first."""
    check_calibration_width(model)
    return [np.array([[1.0 - p, q], [p, 1.0 - q]]) for p, q in zip(model.p01, model.p10)]


def _apply_factors(factors: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """(factors[0] kron ... kron factors[-1]) @ v, one 2x2 product per qubit."""
    for i, factor in enumerate(factors):
        v = np.matmul(factor, v.reshape(2**i, 2, -1)).reshape(-1)
    return v


def calibration_matrix(model: ReadoutModel) -> np.ndarray:
    """Column-stochastic 2**w x 2**w confusion matrix, qubit 0 outermost.

    The dense reference for mitigate(), which applies the same matrix one
    qubit's factor at a time and never forms it.
    """
    out = np.array([[1.0]])
    for single in _confusion_factors(model):
        out = np.kron(out, single)
    return out


def mitigate(noisy_counts: np.ndarray, model: ReadoutModel) -> np.ndarray:
    """Recover the ideal outcome distribution from noisy counts.

    Returns a probability vector over the model's 2**w outcomes.  Solves the
    constrained least squares problem in the module docstring by accelerated
    projected gradient (FISTA with adaptive restart), started at the observed
    frequencies.  M and M^T M are applied as Kronecker products of 2x2
    factors: O(w 2**w) time per iteration and O(2**w) memory.
    """
    factors = _confusion_factors(model)
    size = 2**model.width
    noisy_counts = np.asarray(noisy_counts)
    if (
        noisy_counts.shape != (size,)
        or not np.isfinite(noisy_counts).all()
        or np.any(noisy_counts < 0)
    ):
        raise ValueError(f"need {size} finite counts >= 0, got {noisy_counts!r}")
    total = noisy_counts.sum()
    if total <= 0:
        raise ValueError("counts sum to zero")
    observed = noisy_counts / total
    grams = [factor.T @ factor for factor in factors]
    target = _apply_factors([factor.T for factor in factors], observed)
    # the largest row sum of M^T M bounds the gradient's Lipschitz constant from
    # above; its entries are >= 0, so that sum is the product of the factors' own
    step = 1.0 / math.prod(gram.sum(axis=1).max() for gram in grams)
    x = y = observed
    t = 1.0
    for _ in range(_MAX_ITERATIONS):
        x_next = _project_simplex(y - step * (_apply_factors(grams, y) - target))
        move = x_next - x
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        if np.dot(y - x_next, move) > 0.0:  # momentum points uphill: restart it
            t, t_next = 1.0, 1.0
        y = x_next + ((t - 1.0) / t_next) * move
        x, t = x_next, t_next
        if np.max(np.abs(move)) < _STEP_TOL:
            break
    return x


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = 1} (Duchi et al., 2008)."""
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > excess)[0][-1]
    return np.maximum(v - excess[rho] / (rho + 1), 0.0)


def fidelity_estimate(cnot_count: int) -> float:
    """Forecast circuit fidelity GATE_ACCURACY**cnots; washes out for deep circuits."""
    if cnot_count < 0:
        raise ValueError("cnot_count must be >= 0")
    return GATE_ACCURACY ** cnot_count
