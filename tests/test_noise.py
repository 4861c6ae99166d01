import json
import math

import numpy as np
import pytest

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


def test_corrupt_zero_noise_is_identity():
    model = ReadoutModel.uniform(3, 0.0, 0.0)
    histogram = {"010": 7, "111": 3}
    assert corrupt(histogram, model, seed=5) == {"010": 7, "111": 3}


def test_corrupt_is_deterministic_and_preserves_counts():
    model = ReadoutModel.uniform(4, 0.1, 0.2)
    histogram = {"0000": 500, "1010": 250}
    a = corrupt(histogram, model, seed=11)
    assert a == corrupt(histogram, model, seed=11)
    assert a != corrupt(histogram, model, seed=12)
    assert sum(a.values()) == 750


def test_corrupt_flip_rate_matches_model():
    model = ReadoutModel.uniform(4, 0.3, 0.3)
    shots = 50_000
    noisy = corrupt({"0000": shots}, model, seed=3)
    ones = sum(key.count("1") * count for key, count in noisy.items())
    draws = shots * 4
    sigma = math.sqrt(0.3 * 0.7 / draws)
    assert abs(ones / draws - 0.3) < 4 * sigma


def test_corrupt_rejects_bad_records():
    model = ReadoutModel.uniform(2, 0.1, 0.1)
    with pytest.raises(ValueError):
        corrupt({"101": 1}, model, seed=0)
    with pytest.raises(ValueError):
        corrupt({"10": -1}, model, seed=0)


def test_calibration_matrix_single_qubit():
    model = ReadoutModel(p01=(0.02,), p10=(0.05,))
    m = calibration_matrix(model, 1)
    assert np.allclose(m, [[0.98, 0.05], [0.02, 0.95]])
    assert np.allclose(calibration_matrix(ReadoutModel.uniform(2, 0.0, 0.0), 2), np.eye(4))


def test_calibration_matrix_matches_flip_enumeration():
    model = ReadoutModel(p01=(0.02, 0.3), p10=(0.05, 0.1))
    m = calibration_matrix(model, 2)
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
    with pytest.raises(ValueError):
        calibration_matrix(ReadoutModel.uniform(2, 0.1, 0.1), 3)
    with pytest.raises(ResourceError):
        calibration_matrix(ReadoutModel.uniform(11, 0.1, 0.1), 11)


def test_mitigate_identity_calibration_returns_frequencies():
    recovered = mitigate({"00": 25, "01": 25, "10": 50}, np.eye(4))
    assert np.allclose(recovered, [0.25, 0.25, 0.5, 0.0], atol=1e-8)


def test_mitigate_recovers_true_distribution():
    model = ReadoutModel.uniform(2, 0.02, 0.05)
    truth = {"00": 50_000, "01": 30_000, "10": 15_000, "11": 5_000}
    noisy = corrupt(truth, model, seed=21)
    recovered = mitigate(noisy, calibration_matrix(model, 2))
    assert np.all(recovered >= 0.0)
    assert recovered.sum() == pytest.approx(1.0, abs=1e-9)
    true_freqs = np.array([0.5, 0.3, 0.15, 0.05])
    assert 0.5 * np.sum(np.abs(recovered - true_freqs)) < 0.01


def test_mitigate_recovers_delta():
    model = ReadoutModel.uniform(2, 0.02, 0.02)
    noisy = corrupt({"10": 100_000}, model, seed=8)
    recovered = mitigate(noisy, calibration_matrix(model, 2))
    assert recovered[0b10] > 0.99


def test_mitigate_inverts_inside_the_simplex():
    model = ReadoutModel(p01=(0.02, 0.1, 0.05), p10=(0.05, 0.2, 0.01))
    calibration = calibration_matrix(model, 3)
    noisy = corrupt({format(k, "03b"): 10_000 + 1_000 * k for k in range(8)}, model, seed=2)
    observed = np.zeros(8)
    for bits, count in noisy.items():
        observed[int(bits, 2)] = count
    observed /= observed.sum()
    inverse = np.linalg.solve(calibration, observed)
    assert np.all(inverse > 0.0)  # column sums of 1 keep sum(inverse) = 1
    assert np.max(np.abs(mitigate(noisy, calibration) - inverse)) < 1e-10


@pytest.mark.parametrize("p", (0.05, 0.3, 0.45))
def test_mitigate_meets_kkt_with_active_bounds(p):
    model = ReadoutModel.uniform(3, p, p)
    calibration = calibration_matrix(model, 3)
    noisy = corrupt({"101": 2_000, "110": 500}, model, seed=4)
    observed = np.zeros(8)
    for bits, count in noisy.items():
        observed[int(bits, 2)] = count
    observed /= observed.sum()
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
        mitigate({"0": 0}, np.eye(2))


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
