import hashlib
import json
import math
import os
import signal
import sys
import threading
import time
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


def boundary_counts(block):
    """Counts below, at and across the boundaries of blocks of `block` draws, w = 3."""
    rows = block // 3
    return outcome_counts(
        3, {0b000: 1, 0b011: rows - 1, 0b101: rows, 0b110: 2 * rows, 0b111: 3 * rows + 2}
    )


BOUNDARY_MODEL = ReadoutModel(p01=(0.1, 0.2, 0.3), p10=(0.25, 0.15, 0.05))


@pytest.mark.parametrize("block", [None, 7, 12])
def test_corrupt_blocks_equal_one_draw(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(noise, "_CORRUPT_BLOCK", block)
    counts = boundary_counts(noise._CORRUPT_BLOCK)
    assert np.array_equal(
        corrupt(counts, BOUNDARY_MODEL, seed=19),
        corrupt_in_one_draw(counts, BOUNDARY_MODEL, seed=19),
    )


MIXED_MODEL = ReadoutModel(
    p01=(0.0, 0.1, 0.0, 0.2, 0.05, 0.0), p10=(0.0, 0.0, 0.3, 0.15, 0.0, 0.25)
)


SHARED_BLOCK_CASES = (
    (ReadoutModel.uniform(1, 0.2, 0.3), np.array([40_000, 30_000]), None),
    (ReadoutModel.uniform(12, 0.02, 0.05), np.ones(2**12, dtype=np.int64), None),
    # blocks of 5 records that start inside one outcome and stop inside another
    (ReadoutModel.uniform(3, 0.2, 0.1), outcome_counts(3, {0b001: 3, 0b010: 4, 0b101: 6}), 15),
    (ReadoutModel.uniform(3, 0.1, 0.2), (5_000 * np.arange(8)).astype(np.uint32), None),
    (ReadoutModel.uniform(3, 0.1, 0.2), (5_000 * np.arange(8)).astype(np.uint64), None),
    (MIXED_MODEL, 100 + 37 * np.arange(64), None),
    (ReadoutModel.uniform(4, 0.1, 0.2), np.zeros(16, dtype=np.int64), None),
)
SHARED_BLOCK_IDS = (
    "w1", "w12-every-outcome-once", "straddling", "uint32", "uint64", "mixed-p0", "all-zero"
)


@pytest.mark.parametrize("model, counts, block", SHARED_BLOCK_CASES, ids=SHARED_BLOCK_IDS)
def test_corrupt_shared_blocks_equal_one_draw(monkeypatch, model, counts, block):
    if block is not None:
        monkeypatch.setattr(noise, "_CORRUPT_BLOCK", block)
    noisy = corrupt(counts, model, seed=23)
    assert noisy.dtype == np.int64
    assert np.array_equal(noisy, corrupt_in_one_draw(counts, model, seed=23))


PINNED_CASES = (
    (
        ReadoutModel.uniform(4, 0.02, 0.05),
        np.random.default_rng(1).multinomial(10**6, np.full(16, 1 / 16)),
        5,
        "b0e9baa7d0ded17ba9fe40667ee501e26843b162a7021e79a2e14f4f1f8ef905",
    ),
    (
        ReadoutModel.uniform(9, 0.02, 0.05),
        np.random.default_rng(2).multinomial(10**5, np.full(512, 1 / 512)),
        6,
        "45f6d72201a452c21196bf18324243e8542f3480768033a4d5f1029d9a3ccfc9",
    ),
    (
        MIXED_MODEL,
        np.random.default_rng(3).multinomial(10**5, np.full(64, 1 / 64)),
        7,
        "2d1818b647300e7bbad70009048d4422d76d73ef8f6740e2afde065658808a79",
    ),
)
PINNED_IDS = ("w4-1e6-shots", "w9-1e5-shots", "mixed")


@pytest.mark.parametrize("model, counts, seed, digest", PINNED_CASES, ids=PINNED_IDS)
def test_corrupt_counts_are_pinned_per_seed(model, counts, seed, digest):
    assert hashlib.sha256(corrupt(counts, model, seed).tobytes()).hexdigest() == digest


def use_cpus(monkeypatch, cpus):
    """Make corrupt() see `cpus` CPUs in this process's affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert noise._cpu_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert noise._cpu_count() == 1


class DrawHook(np.random.Generator):
    """A Generator whose random() calls `on_draw` first; patched into numpy for corrupt()."""

    on_draw = staticmethod(lambda: None)

    def random(self, *args, **kwargs):
        type(self).on_draw()
        return super().random(*args, **kwargs)


def hook_draws(monkeypatch, on_draw):
    monkeypatch.setattr(DrawHook, "on_draw", staticmethod(on_draw))
    monkeypatch.setattr(np.random, "Generator", DrawHook)


def test_corrupt_draws_in_blocks_that_span_outcomes(monkeypatch):
    w = 16
    span = noise._CORRUPT_SPAN * (noise._CORRUPT_BLOCK // w)
    spans = math.ceil(2**w / span)
    for cpus in (1, 2):
        draw_calls = []
        use_cpus(monkeypatch, cpus)
        hook_draws(monkeypatch, lambda: draw_calls.append(1))
        noisy = corrupt(np.ones(2**w, dtype=np.int64), ReadoutModel.uniform(w, 0.02, 0.05), 3)
        assert noisy.sum() == 2**w
        # one call per block, however many outcomes it spans: the records fill
        # whole blocks of a span, and each span may end in one short block
        rows = noise._CORRUPT_BLOCK // min(cpus, spans) // w
        assert 0 < len(draw_calls) <= math.ceil(2**w / rows) + spans
        assert len(draw_calls) * 100 < 2**w


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("span", [None, 1])
@pytest.mark.parametrize("block", [None, 7, 12])
def test_corrupt_counts_do_not_depend_on_the_cpu_count(monkeypatch, cpus, span, block):
    use_cpus(monkeypatch, cpus)
    if span is not None:
        monkeypatch.setattr(noise, "_CORRUPT_SPAN", span)
    if block is not None:
        monkeypatch.setattr(noise, "_CORRUPT_BLOCK", block)
    counts = boundary_counts(noise._CORRUPT_BLOCK)
    assert np.array_equal(
        corrupt(counts, BOUNDARY_MODEL, seed=19),
        corrupt_in_one_draw(counts, BOUNDARY_MODEL, seed=19),
    )


@pytest.mark.parametrize("cpus", [2, 3, 8])
@pytest.mark.parametrize("model, counts, block", SHARED_BLOCK_CASES, ids=SHARED_BLOCK_IDS)
def test_corrupt_shared_blocks_equal_one_draw_on_any_cpu_count(
    monkeypatch, model, counts, block, cpus
):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(noise, "_CORRUPT_SPAN", 1)
    if block is not None:
        monkeypatch.setattr(noise, "_CORRUPT_BLOCK", block)
    assert np.array_equal(corrupt(counts, model, seed=23), corrupt_in_one_draw(counts, model, 23))


@pytest.mark.parametrize("cpus", [2, 3, 8])
@pytest.mark.parametrize("span", [None, 1])
@pytest.mark.parametrize("model, counts, seed, digest", PINNED_CASES, ids=PINNED_IDS)
def test_corrupt_pinned_counts_on_any_cpu_count(monkeypatch, model, counts, seed, digest, cpus,
                                                span):
    use_cpus(monkeypatch, cpus)
    if span is not None:
        monkeypatch.setattr(noise, "_CORRUPT_SPAN", span)
    assert hashlib.sha256(corrupt(counts, model, seed).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_corrupt_span_boundary_inside_an_outcome(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(noise, "_CORRUPT_BLOCK", 15)  # full blocks of 5 records at w = 3
    monkeypatch.setattr(noise, "_CORRUPT_SPAN", 1)
    counts = outcome_counts(3, {0b001: 3, 0b010: 4, 0b101: 6})
    ends = np.cumsum(counts[counts > 0])
    # the spans [0, 5), [5, 10), [10, 13) start inside outcomes 0b010 and 0b101
    assert all(np.any((ends - counts[counts > 0] < lo) & (lo < ends)) for lo in (5, 10))
    model = ReadoutModel(p01=(0.3, 0.2, 0.4), p10=(0.1, 0.45, 0.25))
    for seed in range(20):
        assert np.array_equal(corrupt(counts, model, seed), corrupt_in_one_draw(counts, model, seed))


@pytest.mark.parametrize("cpus", [2, 3, 64])
def test_corrupt_draws_on_each_cpu_up_to_its_worker_cap(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(noise, "_CORRUPT_SPAN", 1)
    workers = min(cpus, noise._CORRUPT_WORKERS)
    drew = set()
    all_drew = threading.Event()

    def on_draw():
        drew.add(threading.get_ident())
        if len(drew) == workers:
            all_drew.set()
        # the caller holds its first span until every worker has taken one
        if threading.current_thread() is threading.main_thread() and not all_drew.wait(10):
            raise AssertionError(f"{len(drew)} of {workers} workers drew")

    hook_draws(monkeypatch, on_draw)
    counts = np.full(16, 100_000)
    model = ReadoutModel.uniform(4, 0.02, 0.05)
    assert np.array_equal(corrupt(counts, model, 2), corrupt_in_one_draw(counts, model, 2))
    assert len(drew) == workers


def test_corrupt_takes_each_span_once_under_fast_thread_switching(monkeypatch):
    # more workers than cores, switching every microsecond: a span taken twice
    # or skipped moves the counts off the one-stream reference
    use_cpus(monkeypatch, 8)
    monkeypatch.setattr(noise, "_CORRUPT_BLOCK", 12)
    monkeypatch.setattr(noise, "_CORRUPT_SPAN", 1)
    counts = np.arange(16) * 25
    model = ReadoutModel.uniform(4, 0.1, 0.2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(5):
            noisy = corrupt(counts, model, seed)
            assert np.array_equal(noisy, corrupt_in_one_draw(counts, model, seed))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("offset", [0, 1, 777, 65536, 99999])
@pytest.mark.parametrize("seed", [0, 23])
def test_pcg64_jump_ahead_continues_the_stream_of_doubles(offset, seed):
    # corrupt() relies on random() taking one 64-bit draw per double, so that
    # advancing the bit generator by k skips exactly k doubles of the stream
    stream = np.random.default_rng(seed).random(offset + 1000)
    jumped = np.random.Generator(np.random.PCG64(seed).advance(offset))
    assert np.array_equal(jumped.random(400), stream[offset: offset + 400])
    assert np.array_equal(jumped.random(600), stream[offset + 400:])


def test_corrupt_raises_a_workers_exception(monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(noise, "_CORRUPT_SPAN", 1)
    raised = threading.Event()

    def on_draw():
        if threading.current_thread() is not threading.main_thread():
            raised.set()
            raise RuntimeError("worker failed")
        if not raised.wait(10):  # the caller draws on only once the worker has failed
            raise AssertionError("no worker drew")

    hook_draws(monkeypatch, on_draw)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker failed"):
        corrupt(np.full(16, 100_000), ReadoutModel.uniform(4, 0.02, 0.05), seed=1)
    assert threading.active_count() == before


class Alarm(Exception):
    pass


def test_corrupt_interrupted_by_a_signal_leaves_no_worker_running(monkeypatch):
    use_cpus(monkeypatch, 4)
    monkeypatch.setattr(noise, "_CORRUPT_SPAN", 1)
    draw_calls = []

    def on_draw():
        draw_calls.append(1)
        if threading.current_thread() is threading.main_thread():
            time.sleep(1)  # the alarm cuts this sleep

    def alarm(signum, frame):
        raise Alarm

    hook_draws(monkeypatch, on_draw)
    before = threading.active_count()
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    try:
        with pytest.raises(Alarm):
            corrupt(np.full(16, 2**24), ReadoutModel.uniform(4, 0.02, 0.05), seed=1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert threading.active_count() == before
    # the workers stopped at their next span, far short of the 2**30 draws
    assert len(draw_calls) < 2**30 // noise._CORRUPT_BLOCK // 2


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


def test_corrupt_refuses_more_draws_than_its_budget_before_drawing(monkeypatch):
    def pcg64(seed):
        raise AssertionError("corrupt drew before it checked the draw budget")

    model = ReadoutModel.uniform(4, 0.02, 0.05)
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "PCG64", pcg64)
        with pytest.raises(ResourceError, match="budget is 4294967296"):
            corrupt(np.array([2**30 + 1] + [0] * 15), model, seed=1)
        with pytest.raises(ResourceError):
            corrupt(np.full(16, 2**62), model, seed=1)  # the int64 sum would wrap
    # records times bits up to the budget are drawn, one more is refused
    monkeypatch.setattr(noise, "DRAW_BUDGET", 12)
    assert corrupt(np.array([3] + [0] * 15), model, seed=1).sum() == 3
    monkeypatch.setattr(noise, "DRAW_BUDGET", 11)
    with pytest.raises(ResourceError, match="corrupt needs 12 draws, budget is 11"):
        corrupt(np.array([3] + [0] * 15), model, seed=1)


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
    recovered = mitigate(np.array([25, 25, 50, 0]), ReadoutModel.uniform(2, 0.0, 0.0))
    assert np.allclose(recovered, [0.25, 0.25, 0.5, 0.0], atol=1e-8)


def test_mitigate_recovers_true_distribution():
    model = ReadoutModel.uniform(2, 0.02, 0.05)
    truth = np.array([50_000, 30_000, 15_000, 5_000])
    noisy = corrupt(truth, model, seed=21)
    recovered = mitigate(noisy, model)
    assert np.all(recovered >= 0.0)
    assert recovered.sum() == pytest.approx(1.0, abs=1e-9)
    true_freqs = np.array([0.5, 0.3, 0.15, 0.05])
    assert 0.5 * np.sum(np.abs(recovered - true_freqs)) < 0.01


def test_mitigate_recovers_delta():
    model = ReadoutModel.uniform(2, 0.02, 0.02)
    noisy = corrupt(outcome_counts(2, {0b10: 100_000}), model, seed=8)
    recovered = mitigate(noisy, model)
    assert recovered[0b10] > 0.99


def test_mitigate_inverts_inside_the_simplex():
    model = ReadoutModel(p01=(0.02, 0.1, 0.05), p10=(0.05, 0.2, 0.01))
    calibration = calibration_matrix(model)
    noisy = corrupt(10_000 + 1_000 * np.arange(8), model, seed=2)
    observed = noisy / noisy.sum()
    inverse = np.linalg.solve(calibration, observed)
    assert np.all(inverse > 0.0)  # column sums of 1 keep sum(inverse) = 1
    assert np.max(np.abs(mitigate(noisy, model) - inverse)) < 1e-10


@pytest.mark.parametrize("p", (0.05, 0.3, 0.45))
def test_mitigate_meets_kkt_with_active_bounds(p):
    model = ReadoutModel.uniform(3, p, p)
    calibration = calibration_matrix(model)
    noisy = corrupt(outcome_counts(3, {0b101: 2_000, 0b110: 500}), model, seed=4)
    observed = noisy / noisy.sum()
    assert np.any(np.linalg.solve(calibration, observed) < 0.0)  # a bound must be active
    x = mitigate(noisy, model)
    assert np.all(x >= 0.0) and x.sum() == pytest.approx(1.0, abs=1e-12)
    # gradient of 0.5 ||M x - y||^2; the sum constraint's multiplier equalizes it on
    # the support and may only be exceeded where x sits on its bound
    grad = calibration.T @ (calibration @ x - observed)
    support = x > 0.0
    level = grad[support].mean()
    assert np.any(~support)
    assert np.max(np.abs(grad[support] - level)) < 1e-9
    assert np.all(grad[~support] - level > -1e-9)


def mitigate_dense(noisy_counts, calibration):
    """mitigate() on the dense calibration matrix: the reference for its factored products."""
    observed = noisy_counts / noisy_counts.sum()
    gram = calibration.T @ calibration
    target = calibration.T @ observed
    step = 1.0 / np.max(np.abs(gram).sum(axis=1))
    x = y = observed
    t = 1.0
    for _ in range(noise._MAX_ITERATIONS):
        x_next = noise._project_simplex(y - step * (gram @ y - target))
        move = x_next - x
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        if np.dot(y - x_next, move) > 0.0:
            t, t_next = 1.0, 1.0
        y = x_next + ((t - 1.0) / t_next) * move
        x, t = x_next, t_next
        if np.max(np.abs(move)) < noise._STEP_TOL:
            break
    return x


@pytest.mark.parametrize("width", range(1, 9))
def test_mitigate_matches_the_dense_calibration_matrix(width):
    rng = np.random.default_rng(100 + width)
    model = ReadoutModel(p01=tuple(rng.uniform(0.0, 0.45, width)),
                         p10=tuple(rng.uniform(0.0, 0.45, width)))
    truth = rng.multinomial(100_000, rng.dirichlet(np.full(2**width, 0.3)))
    noisy = corrupt(truth, model, seed=width)
    reference = mitigate_dense(noisy, calibration_matrix(model))
    assert np.max(np.abs(mitigate(noisy, model) - reference)) < 1e-12


def test_mitigate_memory_is_linear_in_the_outcomes():
    w = noise.MAX_CALIBRATION_WIDTH
    model = ReadoutModel.uniform(w, 0.02, 0.05)
    noisy = corrupt(np.full(2**w, 100), model, seed=3)
    tracemalloc.start()
    x = mitigate(noisy, model)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    # M, M^T M and |M^T M| at 2**10 x 2**10 held 24 MiB; a 2**10 vector is 8 KiB
    assert peak < 2**20


def test_mitigate_refuses_a_model_wider_than_the_calibration_bound():
    with pytest.raises(ResourceError, match="calibration width 11 exceeds 10"):
        mitigate(np.ones(2**11, dtype=np.int64), ReadoutModel.uniform(11, 0.1, 0.1))


@pytest.mark.parametrize(
    "raw",
    (
        [{"p01": 0.01, "p10": 0.02}],
        {"0": {"p01": 0.01}},
        {"0": 0.01},
        {"0": {"p01": "0.02", "p10": 0.05}},
        {"0": {"p01": 0.02, "p10": False}},
        {"0": {"p01": None, "p10": 0.05}},
        {"0": {"p01": [0.02], "p10": 0.05}},
        {"0": {"p01": 10**400, "p10": 0.05}},
    ),
    ids=("not-an-object", "missing-p10", "entry-not-an-object", "string", "bool", "null", "list",
         "int-beyond-float"),
)
def test_model_from_json_rejects_malformed(tmp_path, raw):
    path = tmp_path / "noise.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError):
        ReadoutModel.from_json(str(path))


def test_mitigate_rejects_empty():
    with pytest.raises(ValueError):
        mitigate(np.zeros(2, dtype=np.int64), ReadoutModel.uniform(1, 0.0, 0.0))


@pytest.mark.parametrize(
    "counts",
    (
        np.array([3, 0, 0]),
        np.ones(8, dtype=np.int64),
        {"111": 3},
        np.array([5, -1, 0, 0]),
        np.array([np.nan, 1, 1, 1]),
        np.array([np.inf, 1, 1, 1]),
    ),
    ids=("too-short", "too-long", "bitstring-keys", "negative", "nan", "inf"),
)
def test_mitigate_rejects_counts_that_do_not_fit_the_calibration(counts):
    with pytest.raises(ValueError):
        mitigate(counts, ReadoutModel.uniform(2, 0.0, 0.0))


def test_fidelity_estimate():
    assert fidelity_estimate(0) == 1.0
    assert fidelity_estimate(1) == pytest.approx(0.92)
    assert fidelity_estimate(10) < fidelity_estimate(9)
    # depth of a grown problem washes the signal out entirely
    assert fidelity_estimate(5500) < 1e-190
    with pytest.raises(ValueError):
        fidelity_estimate(-1)
