import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpoisson import (
    CollisionError,
    EncodingError,
    FixedPointFormat,
    amplify_encode,
    angle_coefficient,
    build_angle_table,
    decode_fraction,
    default_format,
    distinguishing_prefix,
    effective_lambda,
    eigenpairs,
    encode_angle,
    prune_zero_columns,
)


def test_default_format_integer_bits():
    for n in (1, 2, 3, 4):
        fmt = default_format(n)
        assert fmt.integer_bits == 2 * n + 2
        assert fmt.total_bits == 2 * n + 2 + fmt.fraction_bits


def test_format_validation():
    with pytest.raises(ValueError):
        FixedPointFormat(0, 0, 8)
    with pytest.raises(ValueError):
        FixedPointFormat(4, -1, 8)
    with pytest.raises(ValueError):
        FixedPointFormat(4, 0, 0)


# Truncations of 23.85809326171875 at growing amplification widths; the
# fixed-point window slides right by f bits and keeps the same leading bits.
@pytest.mark.parametrize(
    "f,expected",
    [
        (0, "10111"),
        (4, "101111101"),
        (8, "1011111011011"),
    ],
)
def test_amplify_encode_reference(f, expected):
    fmt = FixedPointFormat(5, f, 16)
    assert amplify_encode(23.85809326171875, fmt) == expected


def test_amplify_encode_snaps_float_noise():
    # closed-form trig can land a few ulps under an exact integer; a bare
    # floor would then drop a full unit
    fmt = FixedPointFormat(6, 0, 10)
    assert amplify_encode(31.999999999999996, fmt) == "100000"


def test_amplify_encode_bounds():
    fmt = FixedPointFormat(4, 2, 8)
    with pytest.raises(EncodingError):
        amplify_encode(0.75, fmt)
    with pytest.raises(EncodingError):
        amplify_encode(16.0, fmt)


def float_amplify(lam, fmt):
    """floor(lam * 2**f), snapped as amplify_encode does, in float arithmetic."""
    scaled = lam * 2.0**fmt.fraction_bits
    nearest = round(scaled)
    if abs(scaled - nearest) <= 1e-12 * max(1.0, abs(scaled)):
        return int(nearest)
    return math.floor(scaled)


@st.composite
def near_integers(draw):
    """(lam, f) with lam * 2**f within a few snap tolerances of an integer, or halfway."""
    f = draw(st.integers(0, 60))
    k = draw(st.integers(2**f, 2 ** (f + 40)))
    if draw(st.booleans()):
        scaled = k + 0.5  # a tie: round() goes to the even neighbour
    else:
        scaled = k * (1.0 + draw(st.floats(-3e-12, 3e-12)))
    return max(1.0, math.ldexp(scaled, -f)), f


@given(st.one_of(st.tuples(st.floats(1.0, 2.0**40), st.integers(0, 60)), near_integers()))
def test_amplify_encode_matches_the_float_form(case):
    # lam * 2**f is exact in floats for f <= 60, so the integer form must agree
    lam, f = case
    fmt = FixedPointFormat(41, f, 8)
    assert int(amplify_encode(lam, fmt), 2) == float_amplify(lam, fmt)


@given(st.floats(min_value=1.0, max_value=1023.0, allow_nan=False))
def test_effective_lambda_truncates_from_below(lam):
    fmt = FixedPointFormat(10, 4, 8)
    eff = effective_lambda(amplify_encode(lam, fmt), fmt)
    assert eff <= lam + 1e-9 * lam
    assert lam - eff < 2.0**-4 + 1e-9 * lam


def test_effective_lambda_refuses_a_string_of_the_wrong_length():
    with pytest.raises(EncodingError, match="expected 14 bits, got 13"):
        effective_lambda("1" * 13, FixedPointFormat(10, 4, 8))


def test_angle_coefficient_values():
    assert angle_coefficient(1.0) == pytest.approx(0.5)
    assert angle_coefficient(32.0) == pytest.approx(0.009948803662938608, abs=1e-15)
    # larger eigenvalues rotate less
    assert angle_coefficient(54.6) < angle_coefficient(32.0) < angle_coefficient(9.4)
    with pytest.raises(EncodingError, match="below 1"):
        angle_coefficient(0.5)


def test_angle_coefficient_sine_identity():
    for lam in (1.0, 2.5, 9.372583002030481, 32.0, 1000.0):
        assert math.sin(math.pi * angle_coefficient(lam)) == pytest.approx(1.0 / lam, abs=1e-15)


def test_encode_angle_reference():
    bits = encode_angle(angle_coefficient(32.0), 16)
    assert bits == "0000001010001100"
    assert int(bits, 2) == 652


def test_encode_angle_rounds_and_clamps():
    assert encode_angle(0.5, 4) == "1000"
    # round half up at the last retained bit
    assert encode_angle(3.5 / 16.0, 4) == "0100"
    # and not up from just below a half step: omega * 2 = 1/2 - 2**-54, where
    # the float sum omega * 2.0 + 0.5 rounds to 1
    assert encode_angle(0.25 - 2.0**-55, 1) == "0"
    # a single-bit register is where rounding can hit the ceiling
    assert encode_angle(0.5, 1) == "1"
    # angular coefficients live in [0, 1/2]; anything else is rejected
    with pytest.raises(EncodingError):
        encode_angle(0.99999, 4)


@given(st.floats(min_value=1e-6, max_value=0.5, allow_nan=False))
def test_encode_angle_roundtrip(omega):
    bits = encode_angle(omega, 12)
    assert len(bits) == 12 and set(bits) <= {"0", "1"}
    assert abs(decode_fraction(bits) - omega) <= 2.0**-12


def test_decode_fraction():
    assert decode_fraction("0000001010001100") == 652 / 65536
    assert decode_fraction("1") == 0.5
    assert decode_fraction("0000") == 0.0


@given(st.floats(min_value=0.0, max_value=0.5), st.integers(min_value=1, max_value=60))
def test_encode_angle_rounds_exactly(omega, angle_bits):
    # the exact value of floor(omega * 2**l + 1/2), clamped below 2**l
    exact = min(math.floor(Fraction(omega) * 2**angle_bits + Fraction(1, 2)), 2**angle_bits - 1)
    assert int(encode_angle(omega, angle_bits), 2) == exact


def test_angle_widths_beyond_the_float_range():
    omega = angle_coefficient(9.0)
    bits = encode_angle(omega, 1100)
    assert len(bits) == 1100 and bits[:60] == encode_angle(omega, 60)
    # omega is a 53-bit float: every bit past its last one is 0, and decoding is exact
    assert decode_fraction(bits) == omega
    assert decode_fraction("1" + "0" * 1099) == 0.5
    wide = FixedPointFormat(1, 1100, 16)
    assert effective_lambda("11" + "0" * 1099, wide) == 1.5


def test_amplification_beyond_the_float_range():
    fmt = FixedPointFormat(6, 1100, 16)  # 2**f is no float
    table = build_angle_table([9.0], fmt)
    assert table.encoded_lambdas == (format(9 << 1100, "01106b"),)
    assert effective_lambda(table.encoded_lambdas[0], fmt) == 9.0
    with pytest.raises(EncodingError):
        amplify_encode(64.0, fmt)


def test_prune_zero_columns_reference():
    kept = prune_zero_columns(["0000100110", "0000001010", "0000000101"])
    assert kept == (5, 7, 8, 9, 10)


def test_prune_zero_columns_edge_cases():
    assert prune_zero_columns(["0000"]) == ()
    assert prune_zero_columns([]) == ()
    assert prune_zero_columns(["10", "01"]) == (1, 2)
    with pytest.raises(ValueError, match="one width"):
        prune_zero_columns(["10", "011"])


def test_distinguishing_prefix_reference():
    assert distinguishing_prefix(["001001", "100000", "110110"]) == 2


def test_distinguishing_prefix_edge_cases():
    assert distinguishing_prefix([]) == 0
    assert distinguishing_prefix(["101010"]) == 0
    assert distinguishing_prefix(["0001", "0010", "0100"]) == 3
    with pytest.raises(CollisionError):
        distinguishing_prefix(["1010", "1010"])


@pytest.mark.parametrize("bitstrings", [["0", "00"], ["00", "0"], ["0", "01"], ["01", "0"]])
def test_distinguishing_prefix_refuses_unequal_widths_in_either_order(bitstrings):
    with pytest.raises(ValueError, match="one width"):
        distinguishing_prefix(bitstrings)


def test_angle_table_3x3(sys_3x3):
    fmt = FixedPointFormat(6, 0, 10)
    table = build_angle_table(eigenpairs(sys_3x3).lambdas, fmt)
    assert table.encoded_lambdas == ("001001", "100000", "110110")
    assert table.encoded_omegas == ("0000100100", "0000001010", "0000000110")
    assert table.kept_columns == (5, 7, 8, 9)
    assert table.prefix_len == 2


def test_angle_table_rejects_small_eigenvalues():
    fmt = FixedPointFormat(4, 0, 8)
    with pytest.raises(EncodingError):
        build_angle_table(np.array([0.5, 2.0]), fmt)
