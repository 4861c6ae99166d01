"""Fixed-point eigenvalue encoding and rotation-angle tables.

The eigenvalue register stores floor(lambda * 2**f) in m = i + f bits, MSB
first.  Scaling by 2**f before truncation (amplification) trades register
width for accuracy: the value the circuit actually works with is the
effective eigenvalue floor(lambda * 2**f) / 2**f, which approaches lambda
from below as f grows.

Rotation angles are derived from the effective eigenvalues, never from the
exact ones, so the rotation stage is consistent with what the eigenvalue
register holds.  Each effective eigenvalue maps to the angular coefficient

    omega = (1/pi) * arccot(sqrt(lambda**2 - 1)),   so sin(pi * omega) = 1/lambda,

encoded as an l-bit binary fraction (round to nearest, ties up).  A rotation
by 2*pi*omega then writes amplitude 1/lambda onto the ancilla.  A double has
no set bit past position 1074 (2**-1074 is the smallest one), so a table
encodes min(l, 1074) bits: every bit past that is 0 at any wider l.  Bit
columns of the omega table that are zero for every eigenvalue drive no
rotation and are pruned; table rows are addressed by the shortest register
prefix that still tells all encoded eigenvalues apart.

Bit positions are always 1-indexed from the binary point: for eigenvalue
strings that means from the most significant bit of the integer field, for
omega strings from the first fractional bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CollisionError, EncodingError

__all__ = [
    "FixedPointFormat",
    "AngleTable",
    "default_format",
    "amplify_encode",
    "effective_lambda",
    "angle_coefficient",
    "encode_angle",
    "decode_fraction",
    "prune_zero_columns",
    "distinguishing_prefix",
    "build_angle_table",
]

# Closed-form eigenvalues can land a few ulps below an exact integer (e.g.
# 64*sin(pi/4)**2 evaluates to 31.999999999999996).  Scaled values within this
# relative distance of an integer snap to it before truncation.
_SNAP_RTOL = 1e-12


@dataclass(frozen=True)
class FixedPointFormat:
    """Register widths: i integer bits, f fraction bits, l angle bits."""

    integer_bits: int
    fraction_bits: int
    angle_bits: int

    def __post_init__(self):
        if self.integer_bits < 1:
            raise ValueError("integer_bits must be >= 1")
        if self.fraction_bits < 0:
            raise ValueError("fraction_bits must be >= 0")
        if self.angle_bits < 1:
            raise ValueError("angle_bits must be >= 1")

    @property
    def total_bits(self) -> int:
        """Eigenvalue register width m = i + f."""
        return self.integer_bits + self.fraction_bits


def default_format(n: int, fraction_bits: int = 8, angle_bits: int = 16) -> FixedPointFormat:
    """Format with i = 2n + 2, wide enough for lambda_max < 4 N**2 = 2**(2n+2)."""
    return FixedPointFormat(
        integer_bits=2 * n + 2, fraction_bits=fraction_bits, angle_bits=angle_bits
    )


@dataclass(frozen=True)
class AngleTable:
    """Per-eigenvalue rotation data, one row per eigenvalue in ascending order.

    encoded_lambdas are m-bit strings, encoded_omegas min(l, 1074)-bit fraction
    strings (any bit past 1074 is 0), kept_columns the 1-indexed omega bit
    positions that are set somewhere, prefix_len the shortest register prefix
    distinguishing all rows.
    """

    encoded_omegas: tuple[str, ...]
    kept_columns: tuple[int, ...]
    encoded_lambdas: tuple[str, ...]
    prefix_len: int


def amplify_encode(lam: float, fmt: FixedPointFormat) -> str:
    """Encode floor(lam * 2**f) as an m-bit string, MSB first.

    lam must be >= 1 and fit the format: lam * 2**f < 2**m.
    """
    if lam < 1.0:
        raise EncodingError(f"eigenvalue {lam} is below 1; rotation amplitudes would exceed 1")
    # lam * 2**f = scaled / den exactly (den a power of 2): integers fit any f
    num, den = float(lam).as_integer_ratio()
    scaled = num << fmt.fraction_bits
    value, rest = divmod(scaled, den)
    # snap up when the next integer is the nearest one (ties to even) and
    # lies within _SNAP_RTOL of lam * 2**f
    rtol_num, rtol_den = _SNAP_RTOL.as_integer_ratio()
    nearer_up = 2 * rest > den or (2 * rest == den and value % 2 == 1)
    if nearer_up and (den - rest) * rtol_den <= rtol_num * scaled:
        value += 1
    if value >= 2 ** fmt.total_bits:
        raise EncodingError(
            f"amplified eigenvalue {value} needs more than m = {fmt.total_bits} bits"
        )
    return format(value, f"0{fmt.total_bits}b")


def effective_lambda(encoded: str, fmt: FixedPointFormat) -> float:
    """The eigenvalue the register actually stores: int(encoded) / 2**f."""
    if len(encoded) != fmt.total_bits:
        raise EncodingError(f"expected {fmt.total_bits} bits, got {len(encoded)}")
    return int(encoded, 2) / 2 ** fmt.fraction_bits


def angle_coefficient(lam: float) -> float:
    """Angular coefficient omega in (0, 1/2] with sin(pi * omega) = 1/lam."""
    if lam < 1.0:
        raise EncodingError(f"eigenvalue {lam} is below 1")
    return math.atan2(1.0, math.sqrt(lam * lam - 1.0)) / math.pi


def encode_angle(omega: float, angle_bits: int) -> str:
    """Round omega to an l-bit fraction (ties up), clamped to 2**l - 1."""
    if not 0.0 <= omega <= 0.5:
        raise EncodingError(f"omega {omega} outside [0, 1/2]")
    # omega = num / den exactly (den a power of 2): integer rounding fits any l
    num, den = float(omega).as_integer_ratio()
    value = (num * 2 ** (angle_bits + 1) + den) // (2 * den)
    value = min(value, 2 ** angle_bits - 1)
    return format(value, f"0{angle_bits}b")


def decode_fraction(bits: str) -> float:
    """Value of a binary fraction string: sum of bit_k * 2**-k."""
    return int(bits, 2) / 2 ** len(bits) if bits else 0.0


def prune_zero_columns(bitstrings: Sequence[str]) -> tuple[int, ...]:
    """1-indexed positions where at least one string has a 1 bit."""
    if not bitstrings:
        return ()
    width = len(bitstrings[0])
    if any(len(s) != width for s in bitstrings):
        raise ValueError("bitstrings must share one width")
    return tuple(
        pos for pos in range(1, width + 1) if any(s[pos - 1] == "1" for s in bitstrings)
    )


def distinguishing_prefix(bitstrings: Sequence[str]) -> int:
    """Shortest p such that the p-bit prefixes are pairwise distinct.

    Zero or one string needs no prefix at all (p = 0).  Strings of unequal
    width raise ValueError.  Duplicate strings can never be distinguished and
    raise CollisionError; distinct strings of one width differ by their full
    width at the latest.
    """
    if len(bitstrings) <= 1:
        return 0
    if len({len(s) for s in bitstrings}) != 1:
        raise ValueError("bitstrings must share one width")
    if len(set(bitstrings)) != len(bitstrings):
        raise CollisionError("duplicate encoded eigenvalues; increase f or the register width")
    for p in range(1, len(bitstrings[0]) + 1):
        if len({s[:p] for s in bitstrings}) == len(bitstrings):
            return p


def build_angle_table(lambdas: Iterable[float], fmt: FixedPointFormat) -> AngleTable:
    """Full rotation table for a spectrum: encode, derive angles, prune, prefix."""
    lams = [float(x) for x in np.atleast_1d(np.asarray(list(lambdas), dtype=float))]
    encoded_lambdas = tuple(amplify_encode(lam, fmt) for lam in lams)
    prefix_len = distinguishing_prefix(encoded_lambdas)
    omegas = tuple(
        angle_coefficient(effective_lambda(enc, fmt)) for enc in encoded_lambdas
    )
    # omega's bits end by position 1074, so the rest of a wider l is exact zeros
    encoded_omegas = tuple(encode_angle(om, min(fmt.angle_bits, 1074)) for om in omegas)
    kept_columns = prune_zero_columns(encoded_omegas)
    if not all(0.0 < om <= 0.5 for om in omegas):
        raise RuntimeError(f"angular coefficients outside (0, 1/2]: {omegas}")
    if not all(col <= fmt.angle_bits for col in kept_columns):
        raise RuntimeError(f"kept columns {kept_columns} exceed l = {fmt.angle_bits}")
    return AngleTable(
        encoded_omegas=encoded_omegas,
        kept_columns=kept_columns,
        encoded_lambdas=encoded_lambdas,
        prefix_len=prefix_len,
    )
