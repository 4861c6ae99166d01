"""Discretized 1D Poisson model: matrix, spectrum, and classical reference solver.

Conventions
-----------
The continuous problem is -v''(x) = b(x) on (0, 1) with v(0) = v(1) = 0.
A uniform grid with N = 2**n intervals (mesh width h = 1/N) and second-order
central differences gives the (N-1) x (N-1) linear system A v = b with

    A = (1/h**2) * tridiag(-1, 2, -1).

A is symmetric positive definite with closed-form eigenpairs

    lambda_j = 4 N**2 sin(j pi / (2 N))**2        j = 1 .. N-1
    u_j(k)   = sqrt(2/N) sin(j pi k / N)          k = 1 .. N-1,

so lambda_min ~ pi**2 and lambda_max < 4 N**2.  Grid point k maps to register
basis state |k>; basis state |0> is unused padding that embeds the length
N-1 vectors into a 2**n dimensional register.

Everything here is a pure function of its arguments and safe to call from
concurrent workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError

__all__ = [
    "MAX_MODEL_DIM",
    "PoissonSystem",
    "EigenData",
    "build_matrix",
    "eigenpairs",
    "exact_solve",
    "load_system",
    "square_safe",
]

# Dense storage of the operator needs dim**2 entries; keep dim below this to
# stay well under a gigabyte.
MAX_MODEL_DIM = 4096
# A finite sum of squares at least this large has a normal largest square for
# any vector of up to 2**62 entries.
_SQUARES_MIN = 2.0 ** -960


@dataclass(frozen=True)
class PoissonSystem:
    """One problem instance: grid exponent n and right-hand side b.

    b holds the grid values b_1 .. b_{N-1} and may carry any overall scale;
    consumers normalize where quantum state preparation requires it.
    """

    n: int
    b: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or b.size != self.dim:
            raise ValueError(f"b must have length 2**n - 1 = {self.dim}, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite")
        if not np.any(b):
            raise ValueError("b must have at least one nonzero entry")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "b", b)

    @property
    def N(self) -> int:
        return 2 ** self.n

    @property
    def dim(self) -> int:
        """Matrix size, 2**n - 1."""
        return 2 ** self.n - 1

    @property
    def h(self) -> float:
        return 1.0 / self.N


@dataclass(frozen=True)
class EigenData:
    """Closed-form spectrum of the 1D operator plus input projections.

    lambdas ascend with j; vectors holds u_j in column j-1; betas are the
    components <u_j, b/||b||>; kappa = lambda_max / lambda_min.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    betas: np.ndarray
    kappa: float


def square_safe(v: np.ndarray) -> np.ndarray:
    """v, divided by its largest magnitude only if its squares would leave the float range.

    Normalize through this: it keeps 1e308- and 1e-320-scale vectors finite
    and nonzero, and returns ordinary vectors unchanged, to the last bit.
    """
    v = np.asarray(v, dtype=float)
    if _SQUARES_MIN <= np.vdot(v, v) < np.inf:  # vdot overflows to inf without a warning
        return v
    peak = np.max(np.abs(v), initial=0.0)
    return v / peak if peak else v


def _check_dim(system: PoissonSystem) -> int:
    """The matrix dimension, refused above MAX_MODEL_DIM before anything dense is built."""
    dim = system.dim
    if dim > MAX_MODEL_DIM:
        raise ResourceError(f"matrix dimension {dim} exceeds budget {MAX_MODEL_DIM}")
    return dim


def build_matrix(system: PoissonSystem) -> np.ndarray:
    """Dense system matrix (1/h**2) tridiag(-1, 2, -1)."""
    dim = _check_dim(system)
    return (2.0 * np.eye(dim) - np.eye(dim, k=1) - np.eye(dim, k=-1)) * system.N ** 2


def eigenpairs(system: PoissonSystem) -> EigenData:
    """Closed-form eigenvalues and orthonormal eigenvectors of the matrix.

    The eigenvectors are a dense dim x dim matrix, so dim is held to
    MAX_MODEL_DIM as in build_matrix.
    """
    _check_dim(system)
    N = system.N
    j = np.arange(1, N)
    lambdas = 4.0 * N * N * np.sin(j * np.pi / (2 * N)) ** 2
    k = np.arange(1, N)
    vectors = np.sqrt(2.0 / N) * np.sin(np.outer(k, j) * np.pi / N)
    b = square_safe(system.b)
    bhat = b / np.linalg.norm(b)
    betas = vectors.T @ bhat
    return EigenData(lambdas=lambdas, vectors=vectors, betas=betas, kappa=lambdas[-1] / lambdas[0])


def exact_solve(system: PoissonSystem) -> np.ndarray:
    """Normalized classical solution of A v = b by tridiagonal (Thomas) elimination."""
    dim = system.dim
    scale = float(system.N ** 2)
    lower = -scale
    diag = 2.0 * scale
    upper = -scale
    b = square_safe(system.b)  # the sweep itself overflows on 1e308-scale entries
    cp = np.empty(dim)
    dp = np.empty(dim)
    cp[0] = upper / diag
    dp[0] = b[0] / diag
    for i in range(1, dim):
        den = diag - lower * cp[i - 1]
        if not abs(den) > 0.0:
            raise RuntimeError("zero pivot; the positive definite stencil cannot produce one")
        cp[i] = upper / den
        dp[i] = (b[i] - lower * dp[i - 1]) / den
    x = np.empty(dim)
    x[-1] = dp[-1]
    for i in range(dim - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x / np.linalg.norm(x)


def load_system(path: str) -> PoissonSystem:
    """Read a problem instance from JSON: {"n": int, "b": [..], "d": 1?}."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        n = int(raw["n"])
        b = raw["b"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"problem file {path} needs integer 'n' and list 'b'") from exc
    if raw.get("d", 1) != 1:
        raise ValueError(f"problem file {path}: only d = 1 is supported, got {raw['d']!r}")
    return PoissonSystem(n=n, b=np.asarray(b, dtype=float))
