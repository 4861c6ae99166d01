import json
import math
import tracemalloc

import numpy as np
import pytest

from qpoisson import noise
from qpoisson import (
    ReadoutModel,
    ResourceError,
    calibration_matrix,
    corrupt,
    fidelity_estimate,
    mitigate,
)


def test_model_validation():
    with pytest.raises(ValueError):
        ReadoutModel(p01=(0.1, 0.1), p10=(0.1,))
    with pytest.raises(ValueError):
        ReadoutModel(p01=(), p10=())
    with pytest.raises(ValueError):
        ReadoutModel(p01=(0.5,), p10=(0.1,))
    with pytest.raises(ValueError):
        ReadoutModel(p01=(0.1,), p10=(-0.01,))
    model = ReadoutModel.uniform(3, 0.02, 0.05)
    assert model.width == 3
    assert model.p01 == (0.02, 0.02, 0.02)


def test_model_from_json(tmp_path):
    path = tmp_path / "noise.json"
    entries = {
        "0": {"p01": 0.01, "p10": 0.02},
        "1": {"p01": 0.03, "p10": 0.04},
    }
    path.write_text(json.dumps(entries))
    model = ReadoutModel.from_json(str(path))
    assert model.p01 == (0.01, 0.03)
    assert model.p10 == (0.02, 0.04)
    bad = tmp_path / "gap.json"
    bad.write_text(json.dumps({"0": {"p01": 0.01, "p10": 0.02}, "2": {"p01": 0.01, "p10": 0.02}}))
    with pytest.raises(ValueError):
        ReadoutModel.from_json(str(bad))


def outcome_counts(width, entries):
    """Count vector over 2**width outcomes from {value: count}."""
    counts = np.zeros(2**width, dtype=np.int64)
    for value, count in entries.items():
        counts[value] = count
    return counts


def test_corrupt_zero_noise_is_identity():
    model = ReadoutModel.uniform(3, 0.0, 0.0)
    counts = outcome_counts(3, {0b010: 7, 0b111: 3})
    assert np.array_equal(corrupt(counts, model, seed=5), counts)


def test_corrupt_is_deterministic_and_preserves_counts():
    model = ReadoutModel.uniform(4, 0.1, 0.2)
    counts = outcome_counts(4, {0b0000: 500, 0b1010: 250})
    a = corrupt(counts, model, seed=11)
    assert np.array_equal(a, corrupt(counts, model, seed=11))
    assert not np.array_equal(a, corrupt(counts, model, seed=12))
    assert a.sum() == 750


def test_corrupt_flip_rate_matches_model():
    model = ReadoutModel.uniform(4, 0.3, 0.3)
    shots = 50_000
    noisy = corrupt(outcome_counts(4, {0: shots}), model, seed=3)
    ones = sum(bin(value).count("1") * int(count) for value, count in enumerate(noisy))
    draws = shots * 4
    sigma = math.sqrt(0.3 * 0.7 / draws)
    assert abs(ones / draws - 0.3) < 4 * sigma


def test_corrupt_rejects_bad_records():
    model = ReadoutModel.uniform(2, 0.1, 0.1)
    with pytest.raises(ValueError):
        corrupt(outcome_counts(3, {0b101: 1}), model, seed=0)
    with pytest.raises(ValueError):
        corrupt(np.array([0, 0, -1, 0]), model, seed=0)


@pytest.mark.parametrize(
    "counts",
    (np.array([1, 0, 0]), np.array([1.0, 0.0, 0.0, 0.0]), {"12": 5}),
    ids=("too-short", "float", "bitstring-keys"),
)
def test_corrupt_takes_only_an_integer_count_per_outcome(counts):
    with pytest.raises(ValueError):
        corrupt(counts, ReadoutModel.uniform(2, 0.0, 0.0), seed=1)


def corrupt_in_one_draw(counts, model, seed):
    """corrupt() as one (count, w) draw per outcome: the reference for its blocks."""
    w = model.width
    rng = np.random.default_rng(seed)
    weights = 2 ** np.arange(w - 1, -1, -1)
    out = np.zeros(2**w, dtype=np.int64)
    for value, count in enumerate(counts):
        if count == 0:
            continue
        row = np.array([int(ch) for ch in format(value, f"0{w}b")])
        flips = rng.random((count, w)) < np.where(row == 0, model.p01, model.p10)
        np.add.at(out, (row ^ flips) @ weights, 1)
    return out


@pytest.mark.parametrize("block", [None, 7, 12])
def test_corrupt_blocks_equal_one_draw(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(noise, "_CORRUPT_BLOCK", block)
    rows = noise._CORRUPT_BLOCK // 3
    model = ReadoutModel(p01=(0.1, 0.2, 0.3), p10=(0.25, 0.15, 0.05))
    # counts below, at and across the boundaries of blocks of `rows` draws
    counts = outcome_counts(
        3, {0b000: 1, 0b011: rows - 1, 0b101: rows, 0b110: 2 * rows, 0b111: 3 * rows + 2}
    )
    assert np.array_equal(
        corrupt(counts, model, seed=19), corrupt_in_one_draw(counts, model, seed=19)
    )


def test_corrupt_memory_is_bounded():
    model = ReadoutModel.uniform(4, 0.02, 0.05)
    counts = np.full(16, 625_000)
    tracemalloc.start()
    noisy = corrupt(counts, model, seed=7)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert noisy.sum() == 10_000_000
    # one draw per outcome held 625,000 x 4 doubles (19 MiB) and its products
    assert peak < 4 * 2**20


def test_calibration_matrix_single_qubit():
    model = ReadoutModel(p01=(0.02,), p10=(0.05,))
    m = calibration_matrix(model)
    assert np.allclose(m, [[0.98, 0.05], [0.02, 0.95]])
    assert np.allclose(calibration_matrix(ReadoutModel.uniform(2, 0.0, 0.0)), np.eye(4))


def test_calibration_matrix_matches_flip_enumeration():
    model = ReadoutModel(p01=(0.02, 0.3), p10=(0.05, 0.1))
    m = calibration_matrix(model)
    expected = np.zeros((4, 4))
    for true in range(4):
        true_bits = [(true >> 1) & 1, true & 1]  # qubit 0 is the MSB
        for read in range(4):
            read_bits = [(read >> 1) & 1, read & 1]
            p = 1.0
            for qubit, (t, r) in enumerate(zip(true_bits, read_bits)):
                p01, p10 = model.p01[qubit], model.p10[qubit]
                if t == 0:
                    p *= p01 if r == 1 else 1 - p01
                else:
                    p *= p10 if r == 0 else 1 - p10
            expected[read, true] = p
    assert np.allclose(m, expected)
    assert np.allclose(m.sum(axis=0), 1.0)


def test_calibration_matrix_bounds():
    with pytest.raises(ResourceError):
        calibration_matrix(ReadoutModel.uniform(11, 0.1, 0.1))


def test_mitigate_identity_calibration_returns_frequencies():
    recovered = mitigate(np.array([25, 25, 50, 0]), np.eye(4))
    assert np.allclose(recovered, [0.25, 0.25, 0.5, 0.0], atol=1e-8)


def test_mitigate_recovers_true_distribution():
    model = ReadoutModel.uniform(2, 0.02, 0.05)
    truth = np.array([50_000, 30_000, 15_000, 5_000])
    noisy = corrupt(truth, model, seed=21)
    recovered = mitigate(noisy, calibration_matrix(model))
    assert np.all(recovered >= 0.0)
    assert recovered.sum() == pytest.approx(1.0, abs=1e-9)
    true_freqs = np.array([0.5, 0.3, 0.15, 0.05])
    assert 0.5 * np.sum(np.abs(recovered - true_freqs)) < 0.01


def test_mitigate_recovers_delta():
    model = ReadoutModel.uniform(2, 0.02, 0.02)
    noisy = corrupt(outcome_counts(2, {0b10: 100_000}), model, seed=8)
    recovered = mitigate(noisy, calibration_matrix(model))
    assert recovered[0b10] > 0.99


def test_mitigate_inverts_inside_the_simplex():
    model = ReadoutModel(p01=(0.02, 0.1, 0.05), p10=(0.05, 0.2, 0.01))
    calibration = calibration_matrix(model)
    noisy = corrupt(10_000 + 1_000 * np.arange(8), model, seed=2)
    observed = noisy / noisy.sum()
    inverse = np.linalg.solve(calibration, observed)
    assert np.all(inverse > 0.0)  # column sums of 1 keep sum(inverse) = 1
    assert np.max(np.abs(mitigate(noisy, calibration) - inverse)) < 1e-10


@pytest.mark.parametrize("p", (0.05, 0.3, 0.45))
def test_mitigate_meets_kkt_with_active_bounds(p):
    model = ReadoutModel.uniform(3, p, p)
    calibration = calibration_matrix(model)
    noisy = corrupt(outcome_counts(3, {0b101: 2_000, 0b110: 500}), model, seed=4)
    observed = noisy / noisy.sum()
    assert np.any(np.linalg.solve(calibration, observed) < 0.0)  # a bound must be active
    x = mitigate(noisy, calibration)
    assert np.all(x >= 0.0) and x.sum() == pytest.approx(1.0, abs=1e-12)
    # gradient of 0.5 ||M x - y||^2; the sum constraint's multiplier equalizes it on
    # the support and may only be exceeded where x sits on its bound
    grad = calibration.T @ (calibration @ x - observed)
    support = x > 0.0
    level = grad[support].mean()
    assert np.any(~support)
    assert np.max(np.abs(grad[support] - level)) < 1e-9
    assert np.all(grad[~support] - level > -1e-9)


@pytest.mark.parametrize(
    "raw",
    (
        [{"p01": 0.01, "p10": 0.02}],
        {"0": {"p01": 0.01}},
        {"0": 0.01},
    ),
    ids=("not-an-object", "missing-p10", "entry-not-an-object"),
)
def test_model_from_json_rejects_malformed(tmp_path, raw):
    path = tmp_path / "noise.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError):
        ReadoutModel.from_json(str(path))


def test_mitigate_rejects_empty():
    with pytest.raises(ValueError):
        mitigate(np.zeros(2, dtype=np.int64), np.eye(2))


@pytest.mark.parametrize(
    "counts",
    (np.array([3, 0, 0]), np.ones(8, dtype=np.int64), {"111": 3}, np.array([5, -1, 0, 0])),
    ids=("too-short", "too-long", "bitstring-keys", "negative"),
)
def test_mitigate_rejects_counts_that_do_not_fit_the_calibration(counts):
    with pytest.raises(ValueError):
        mitigate(counts, np.eye(4))


def test_fidelity_estimate():
    assert fidelity_estimate(0) == 1.0
    assert fidelity_estimate(1) == pytest.approx(0.92)
    assert fidelity_estimate(10) < fidelity_estimate(9)
    assert fidelity_estimate(10, gate_accuracy=0.99) > fidelity_estimate(10, gate_accuracy=0.92)
    # depth of a grown problem washes the signal out entirely
    assert fidelity_estimate(5500) < 1e-190
    with pytest.raises(ValueError):
        fidelity_estimate(-1)
    with pytest.raises(ValueError):
        fidelity_estimate(5, gate_accuracy=0.0)
