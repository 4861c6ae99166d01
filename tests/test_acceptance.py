"""Acceptance gate: the ten numbered behavior criteria, one test line each.

Criterion 5's trend clause is implemented literally and marked xfail(strict):
floor truncation approaches every eigenvalue from below, so adding
amplification bits can only lower the expected success probability toward its
exact-eigenvalue limit.  A rising trend is mathematically unattainable; the
companion test pins the trend that actually holds.  The decisions ledger
carries the full numeric analysis.
"""

import math
import time

import numpy as np
import pytest

from qpoisson import simulator as sim
from qpoisson import (
    FixedPointFormat,
    PoissonSystem,
    amplify_encode,
    analytic_success_probability,
    build_angle_table,
    build_matrix,
    build_phase_verification,
    build_pipeline,
    distinguishing_prefix,
    prune_zero_columns,
    effective_lambda,
    eigenpairs,
    fidelity_estimate,
    resource_report,
    solve,
)
from qpoisson.cli import PRESETS, mitigation_trial
from qpoisson.noise import ReadoutModel

F_VALUES = (0, 4, 8)
PROBLEMS = {
    "3x3": "table1-3x3",
    "7x7": "table1-7x7",
    "15x15": "table1-15x15",
}


def make_system(label: str) -> PoissonSystem:
    preset = PRESETS[PROBLEMS[label]]
    return PoissonSystem(n=preset["n"], b=np.asarray(preset["b"]))


@pytest.fixture(scope="module")
def runs():
    """Fused l=16 pipeline runs for the three benchmark grids, f in {0,4,8}."""
    out = {}
    for label in PROBLEMS:
        system = make_system(label)
        for f in F_VALUES:
            fmt = FixedPointFormat(2 * system.n + 2, f, 16)
            start = time.perf_counter()
            record = solve(system, fmt, mode="fused")
            elapsed = time.perf_counter() - start
            out[label, f] = {
                "eigs": record.circuit.metadata["eigs"],
                "table": record.circuit.metadata["table"],
                "rel_error": record.rel_error,
                "run_sp": record.run_percent,
                "expected_sp": record.expected_percent,
                "elapsed": elapsed,
            }
    return out


def test_criterion_01_eigen_oracle():
    start = time.perf_counter()
    for n in range(1, 7):
        dim = 2**n - 1
        rng = np.random.default_rng(n)
        system = PoissonSystem(n=n, b=rng.uniform(0.1, 1.0, size=dim))
        eigs = eigenpairs(system)
        reference_values, reference_vectors = np.linalg.eigh(build_matrix(system))
        assert np.max(np.abs(eigs.lambdas - reference_values)) < 1e-9
        for j in range(dim):
            column = reference_vectors[:, j]
            mine = eigs.vectors[:, j]
            # eigenvectors are defined up to a global sign
            err = min(np.max(np.abs(mine - column)), np.max(np.abs(mine + column)))
            assert err < 1e-9
    assert time.perf_counter() - start < 1.0


def test_criterion_02_phase_verification_exact():
    system = make_system("3x3")
    fmt = FixedPointFormat(6, 0, 16)
    eigs = eigenpairs(system)
    for j, bits in {1: "001001", 2: "100000", 3: "110110"}.items():
        built = build_phase_verification(system, fmt, eigs.vectors[:, j - 1])
        probs = sim.register_probabilities(sim.run_exact(built), built.layout.reg_e)
        assert abs(probs[int(bits, 2)] - 1.0) < 1e-10
    mixed = 0.5 * eigs.vectors[:, 0] + 2**-0.5 * eigs.vectors[:, 1] + 0.5 * eigs.vectors[:, 2]
    built = build_phase_verification(system, fmt, mixed)
    probs = sim.register_probabilities(sim.run_exact(built), built.layout.reg_e)
    for value, p in {9: 0.25, 32: 0.5, 54: 0.25}.items():
        assert abs(probs[value] - p) < 1e-10


def test_criterion_02_phase_verification_sampled():
    system = make_system("3x3")
    fmt = FixedPointFormat(6, 0, 16)
    eigs = eigenpairs(system)
    mixed = 0.5 * eigs.vectors[:, 0] + 2**-0.5 * eigs.vectors[:, 1] + 0.5 * eigs.vectors[:, 2]
    built = build_phase_verification(system, fmt, mixed)
    state = sim.run_exact(built)
    shots = 100_000
    counts = sim.sample_counts(state, built.layout.reg_e, shots, seed=1234)
    for value, p in {9: 0.25, 32: 0.5, 54: 0.25}.items():
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(counts[value] / shots - p) < 4 * sigma


def test_criterion_03_table1_reproduction(runs):
    bounds = {"3x3": 0.002, "7x7": 0.005, "15x15": 0.015}
    for label, bound in bounds.items():
        assert runs[label, 8]["rel_error"] <= bound
    assert sum(runs[label, 8]["elapsed"] for label in bounds) < 60.0


def test_criterion_04_amplification_trend(runs):
    for label in ("7x7", "15x15"):
        errors = [runs[label, f]["rel_error"] for f in F_VALUES]
        assert errors[0] >= errors[1] >= errors[2]
    improvement = runs["7x7", 0]["rel_error"] / runs["7x7", 8]["rel_error"]
    assert improvement >= 3.0


def test_criterion_05a_analytic_success_probabilities():
    def truncated(label):
        system = make_system(label)
        fmt = FixedPointFormat(2 * system.n + 2, 0, 16)
        table = build_angle_table(eigenpairs(system).lambdas, fmt)
        eff = np.array([effective_lambda(e, fmt) for e in table.encoded_lambdas])
        return analytic_success_probability(eff)

    def exact(label):
        return analytic_success_probability(eigenpairs(make_system(label)).lambdas)

    assert f"{truncated('3x3'):.4g}" == "1.367"
    assert f"{truncated('7x7'):.4g}" == "1.337"
    assert f"{exact('7x7'):.4g}" == "1.154"
    assert f"{exact('15x15'):.4g}" == "1.122"


def test_criterion_05b_expected_matches_postselection(runs):
    for record in runs.values():
        assert abs(record["expected_sp"] - record["run_sp"]) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason=(
        "floor truncation only ever lowers an effective eigenvalue, so the "
        "ancilla amplitudes 1/effective-lambda shrink toward 1/lambda as f "
        "grows: the beta-weighted expected SP falls monotonically toward its "
        "exact-eigenvalue limit and cannot rise toward the unweighted "
        "analytic value"
    ),
)
def test_criterion_05c_expected_sp_rises_toward_analytic(runs):
    for label in PROBLEMS:
        sps = [runs[label, f]["expected_sp"] for f in F_VALUES]
        analytic = analytic_success_probability(runs[label, 0]["eigs"].lambdas)
        assert sps[0] < sps[1] < sps[2]
        assert abs(sps[2] - analytic) < abs(sps[0] - analytic)


def test_criterion_05c_expected_sp_trend_observed(runs):
    """Expected SP falls with f, from above, toward the beta-weighted limit."""
    for label in PROBLEMS:
        sps = [runs[label, f]["expected_sp"] for f in F_VALUES]
        eigs = runs[label, 0]["eigs"]
        limit = float(100.0 * np.sum(eigs.betas**2 / eigs.lambdas**2))
        assert sps[0] > sps[1] > sps[2] > limit
        assert abs(sps[2] - limit) < abs(sps[0] - limit)
    # the unweighted analytic SP shows the same approach-from-above shape
    for label in PROBLEMS:
        system = make_system(label)
        eigs = eigenpairs(system)
        exact_sp = analytic_success_probability(eigs.lambdas)
        truncated = []
        for f in F_VALUES:
            fmt = FixedPointFormat(2 * system.n + 2, f, 16)
            table = build_angle_table(eigs.lambdas, fmt)
            eff = np.array([effective_lambda(e, fmt) for e in table.encoded_lambdas])
            truncated.append(analytic_success_probability(eff))
        assert truncated[0] >= truncated[1] >= truncated[2] >= exact_sp
        assert truncated[2] - exact_sp < truncated[0] - exact_sp


def test_criterion_05d_3x3_f0_window(runs):
    assert 1.05 <= runs["3x3", 0]["expected_sp"] <= 1.20


def test_criterion_06_mode_equivalence():
    system = make_system("3x3")
    for f in (0, 4):
        fmt = FixedPointFormat(6, f, 10)
        solutions = {}
        for mode in ("explicit", "fused"):
            built = build_pipeline(system, fmt, mode=mode)
            assert built.metadata["mode"] == mode
            solution, success = sim.postselect(sim.run_exact(built), built.layout)
            solutions[mode] = (solution, success)
        assert np.max(np.abs(solutions["explicit"][0] - solutions["fused"][0])) < 1e-9
        assert abs(solutions["explicit"][1] - solutions["fused"][1]) < 1e-9


def test_criterion_07_sampling_fidelity():
    system = make_system("3x3")
    built = build_pipeline(system, FixedPointFormat(6, 0, 10), mode="fused")
    state = sim.run_exact(built)
    _, exact_success = sim.postselect(state, built.layout)
    measured = (built.layout.ancilla,) + built.layout.reg_b
    exact_probs = sim.register_probabilities(state, measured)
    shots = 1_000_000
    result = sim.sample(built, shots=shots, seed=1234)
    sigma = math.sqrt(exact_success * (1 - exact_success) / shots)
    assert abs(result.success_prob - exact_success) < 4 * sigma
    for value, p in enumerate(exact_probs):
        count = result.counts[value]
        if p < 1e-15:
            assert count == 0
            continue
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(count / shots - p) < 4 * sigma


def test_criterion_08_encoding_behaviors():
    fmt5 = {f: FixedPointFormat(5, f, 16) for f in F_VALUES}
    assert amplify_encode(23.85809326171875, fmt5[0]) == "10111"
    assert amplify_encode(23.85809326171875, fmt5[4]) == "101111101"
    assert amplify_encode(23.85809326171875, fmt5[8]) == "1011111011011"
    # worked pruning example: three angle words sharing dead columns
    kept = prune_zero_columns(["0000100110", "0000001010", "0000000101"])
    assert kept == (5, 7, 8, 9, 10)
    assert distinguishing_prefix(["001001", "100000", "110110"]) == 2


def test_criterion_09_mitigation_improvement():
    model = ReadoutModel.uniform(2, 0.02, 0.05)
    b = np.asarray(PRESETS["table1-3x3"]["b"])
    p_ideal = np.concatenate([[0.0], b**2])
    for seed in range(1, 11):
        trial = mitigation_trial(p_ideal, model, shots=100_000, seed=seed)
        assert trial["relative_error_mitigated"] < trial["relative_error_unmitigated"]


def test_criterion_10_resource_scaling():
    reports = {}
    for label in PROBLEMS:
        system = make_system(label)
        fmt = FixedPointFormat(2 * system.n + 2, 8, 16)
        built = build_pipeline(system, fmt, mode="fused")
        reports[label] = resource_report(built)
        assert reports[label].total_qubits == 3 * system.n + 8 + 3
    ordered = [reports[label] for label in ("3x3", "7x7", "15x15")]
    assert ordered[0].depth < ordered[1].depth < ordered[2].depth
    assert ordered[0].estimated_cnots < ordered[1].estimated_cnots < ordered[2].estimated_cnots
    for report in ordered:
        assert report.estimated_fidelity == pytest.approx(0.92**report.estimated_cnots)
        assert report.washed_out
    explicit = build_pipeline(
        make_system("3x3"), FixedPointFormat(6, 8, 16), mode="explicit"
    )
    cnots = resource_report(explicit).estimated_cnots
    assert 550 <= cnots <= 55_000
    assert fidelity_estimate(0) == 1.0
    assert fidelity_estimate(cnots) == pytest.approx(0.92**cnots)
