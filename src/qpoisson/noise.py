"""Readout error model, calibration matrices, and least-squares mitigation.

Counts are vectors: counts[v] is how many records read value v, qubit 0 the
MSB.  Flips act independently per measured bit: p01 is the probability a
true 0 reads as 1, p10 the reverse.  The calibration matrix is the Kronecker
product of the per-qubit column-stochastic confusion matrices, so column s
holds the readout distribution for true state s and a noisy distribution is
M @ ideal.
Mitigation inverts that relation as the constrained least squares problem

    min ||M x - y||_2   subject to   x >= 0,  sum(x) = 1,

the readout-mitigation estimator of Smolin, Gambetta and Smith (PRL 108,
070502, 2012).  It is solved by accelerated projected gradient with the
sort-based projection onto the probability simplex of Duchi et al. (ICML
2008).  Forecast fidelity for a hardware run decays per entangling gate as
accuracy ** cnots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError

__all__ = [
    "MAX_CALIBRATION_WIDTH",
    "ReadoutModel",
    "corrupt",
    "calibration_matrix",
    "mitigate",
    "fidelity_estimate",
]

# 2**w x 2**w dense calibration matrices stay small below this width.
MAX_CALIBRATION_WIDTH = 10
# Projected-gradient iteration cap, and the largest entry change of the
# iterate below which it has converged.
_MAX_ITERATIONS = 10_000
_STEP_TOL = 1e-15
# Uniform draws corrupt() makes per block, which bounds its memory whatever
# the shot count.  Blocks split one random stream, so the result is the same.
_CORRUPT_BLOCK = 1 << 16


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
            p01 = tuple(float(raw[str(i)]["p01"]) for i in indices)
            p10 = tuple(float(raw[str(i)]["p10"]) for i in indices)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"noise model {path}: every qubit needs numeric p01 and p10") from exc
        return cls(p01=p01, p10=p10)


def corrupt(counts: np.ndarray, model: ReadoutModel, seed: int) -> np.ndarray:
    """Flip every recorded bit independently per the model; new counts.

    Outcomes are visited in ascending value order, so a seed fixes the result.
    """
    w = model.width
    counts = np.asarray(counts)
    if counts.shape != (2 ** w,) or counts.dtype.kind not in "iu" or np.any(counts < 0):
        raise ValueError(f"counts must be {2 ** w} non-negative integers for a {w}-bit model")
    p01 = np.asarray(model.p01)
    p10 = np.asarray(model.p10)
    rng = np.random.default_rng(seed)
    weights = 2 ** np.arange(w - 1, -1, -1)
    rows = max(1, _CORRUPT_BLOCK // w)
    out = np.zeros(2 ** w, dtype=np.int64)
    for value in np.flatnonzero(counts):
        count = int(counts[value])
        row = (value & weights) != 0  # the bits of value, MSB first
        flip_p = np.where(row == 0, p01, p10)
        for start in range(0, count, rows):
            flips = rng.random((min(rows, count - start), w)) < flip_p
            # work in proportion to the block, not to the 2**w outcomes
            values, hits = np.unique((row[None, :] ^ flips) @ weights, return_counts=True)
            out[values] += hits
    return out


def calibration_matrix(model: ReadoutModel) -> np.ndarray:
    """Column-stochastic 2**w x 2**w confusion matrix, qubit 0 outermost."""
    if model.width > MAX_CALIBRATION_WIDTH:
        raise ResourceError(f"calibration width {model.width} exceeds {MAX_CALIBRATION_WIDTH}")
    out = np.array([[1.0]])
    for p01, p10 in zip(model.p01, model.p10):
        single = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
        out = np.kron(out, single)
    return out


def mitigate(noisy_counts: np.ndarray, calibration: np.ndarray) -> np.ndarray:
    """Recover the ideal outcome distribution from noisy counts.

    Returns a probability vector over the calibration's outcomes.  Solves the
    constrained least squares problem in the module docstring by accelerated
    projected gradient (FISTA with adaptive restart), started at the observed
    frequencies.
    """
    noisy_counts = np.asarray(noisy_counts)
    if noisy_counts.shape != (len(calibration),) or np.any(noisy_counts < 0):
        raise ValueError(f"need {len(calibration)} non-negative counts, got {noisy_counts!r}")
    total = noisy_counts.sum()
    if total <= 0:
        raise ValueError("counts sum to zero")
    observed = noisy_counts / total
    gram = calibration.T @ calibration
    target = calibration.T @ observed
    # the largest row sum bounds the gradient's Lipschitz constant from above
    step = 1.0 / np.max(np.abs(gram).sum(axis=1))
    x = y = observed
    t = 1.0
    for _ in range(_MAX_ITERATIONS):
        x_next = _project_simplex(y - step * (gram @ y - target))
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


def fidelity_estimate(cnot_count: int, gate_accuracy: float = 0.92) -> float:
    """Forecast circuit fidelity accuracy**cnots; washes out for deep circuits."""
    if cnot_count < 0:
        raise ValueError("cnot_count must be >= 0")
    if not 0.0 < gate_accuracy <= 1.0:
        raise ValueError("gate_accuracy must be in (0, 1]")
    return gate_accuracy ** cnot_count
