import json

import numpy as np
import pytest

from qpoisson import (
    PoissonSystem,
    ResourceError,
    build_matrix,
    eigenpairs,
    exact_solve,
    load_system,
)
from qpoisson.model import MAX_MODEL_DIM, square_safe

# Normalized reference solutions, computed by tridiagonal elimination and
# cross-checked against dense numpy solves.
SOLUTION_3X3 = (0.552988, 0.674065, 0.489736)
SOLUTION_7X7 = (0.182849, 0.322674, 0.419476, 0.473255, 0.484011, 0.40872, 0.247383)
SOLUTION_15X15 = (
    0.080422, 0.150122, 0.209098, 0.257351, 0.294882, 0.321689, 0.337774,
    0.343135, 0.337774, 0.321689, 0.294882, 0.257351, 0.209098, 0.139399,
    0.069699,
)


def test_system_properties(sys_3x3):
    assert sys_3x3.N == 4
    assert sys_3x3.dim == 3
    assert sys_3x3.h == 0.25


def test_system_validation():
    with pytest.raises(ValueError):
        PoissonSystem(n=0, b=np.array([1.0]))
    with pytest.raises(ValueError):
        PoissonSystem(n=2, b=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PoissonSystem(n=1, b=np.array([np.inf]))
    with pytest.raises(ValueError):
        PoissonSystem(n=2, b=np.zeros(3))


def test_b_is_frozen(sys_3x3):
    with pytest.raises(ValueError):
        sys_3x3.b[0] = 2.0


def test_matrix_stencil(sys_3x3):
    A = build_matrix(sys_3x3)
    expected = 16.0 * np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
    assert np.array_equal(A, expected)


def test_closed_form_eigenvalues(sys_3x3):
    eigs = eigenpairs(sys_3x3)
    assert eigs.lambdas == pytest.approx((9.372583002030481, 32.0, 54.62741699796952))
    assert eigs.kappa == pytest.approx(3.0 + 2.0 * np.sqrt(2.0))


@pytest.mark.parametrize("n", range(1, 7))
def test_eigenpairs_match_numeric(n):
    system = PoissonSystem(n=n, b=np.ones(2**n - 1))
    eigs = eigenpairs(system)
    w, V = np.linalg.eigh(build_matrix(system))
    assert np.max(np.abs(w - eigs.lambdas)) < 1e-9
    for j in range(system.dim):
        # eigh fixes columns only up to sign
        delta = min(
            np.linalg.norm(V[:, j] - eigs.vectors[:, j]),
            np.linalg.norm(V[:, j] + eigs.vectors[:, j]),
        )
        assert delta < 1e-9


def test_eigenvectors_orthonormal(sys_7x7):
    V = eigenpairs(sys_7x7).vectors
    assert np.max(np.abs(V.T @ V - np.eye(7))) < 1e-12


def test_betas_preserve_norm(sys_7x7):
    betas = eigenpairs(sys_7x7).betas
    assert np.sum(betas**2) == pytest.approx(1.0, abs=1e-12)


def test_exact_solutions_table(sys_3x3, sys_7x7, sys_15x15):
    assert np.allclose(exact_solve(sys_3x3), SOLUTION_3X3, atol=1e-6)
    assert np.allclose(exact_solve(sys_7x7), SOLUTION_7X7, atol=1e-6)
    assert np.allclose(exact_solve(sys_15x15), SOLUTION_15X15, atol=1e-6)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_exact_solve_matches_dense(n):
    rng = np.random.default_rng(n)
    b = rng.normal(size=2**n - 1)
    b[np.abs(b) < 1e-3] += 0.1
    system = PoissonSystem(n=n, b=b)
    ref = np.linalg.solve(build_matrix(system), b)
    ref /= np.linalg.norm(ref)
    got = exact_solve(system)
    sign = np.sign(ref @ got)
    assert np.max(np.abs(ref - sign * got)) < 1e-12


@pytest.mark.parametrize("scale", (1e308, 1e-320))
def test_right_hand_sides_near_the_float_range(scale):
    # 1e308 * (1, 1, 1) squares to inf and 1e-320 * (1, 1, 1) to 0
    ref = PoissonSystem(n=2, b=np.ones(3))
    system = PoissonSystem(n=2, b=np.full(3, scale))
    assert np.max(np.abs(exact_solve(system) - exact_solve(ref))) < 1e-12
    assert np.max(np.abs(eigenpairs(system).betas - eigenpairs(ref).betas)) < 1e-12
    assert np.array_equal(square_safe(system.b), np.ones(3))


def test_square_safe_keeps_ordinary_vectors():
    b = np.random.default_rng(0).normal(size=15) * 1e100
    assert square_safe(b) is b
    assert square_safe([0.0, -2.0**-400]).tolist() == [0.0, -2.0**-400]


def test_matrix_budget():
    n = MAX_MODEL_DIM.bit_length()  # first grid whose 2**n - 1 points exceed the budget
    system = PoissonSystem(n=n, b=np.ones(2**n - 1))
    assert system.dim > MAX_MODEL_DIM
    # both build a dense dim x dim matrix
    for build in (build_matrix, eigenpairs):
        with pytest.raises(ResourceError):
            build(system)


def test_load_system_roundtrip(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": 2, "b": [0.5, 0.25, 0.25]}), encoding="utf-8")
    system = load_system(str(path))
    assert system.n == 2
    assert np.allclose(system.b, [0.5, 0.25, 0.25])


def test_load_system_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"b": [1.0]}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_system(str(path))


def test_load_system_accepts_only_d_1(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": 2, "b": [1.0, 1.0, 1.0], "d": 1}), encoding="utf-8")
    assert load_system(str(path)).n == 2
    path.write_text(json.dumps({"n": 2, "b": [1.0, 1.0, 1.0], "d": 2}), encoding="utf-8")
    with pytest.raises(ValueError, match="only d = 1"):
        load_system(str(path))
