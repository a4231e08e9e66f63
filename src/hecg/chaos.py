"""Logistic-map iteration and biometric/salted derivation of its parameters.

The keystream generator is the logistic map x[k+1] = r*x[k]*(1-x[k]) with
r in (3.6, 4.0) and x0 in (0.1, 0.9), both derived per segment from the
segment's own mean and standard deviation:

    r  = 3.6 + (sigma mod 0.4)
    x0 = 0.1 + (mu mod 0.8)

All functions here are pure and deterministic; identical inputs give
bit-identical sequences on any platform (binary64 arithmetic throughout).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOrbitError, InvalidStatisticsError, ParameterDomainError

R_MIN, R_MAX = 3.6, 4.0
X0_MIN, X0_MAX = 0.1, 0.9
R_SPAN = 0.4
X0_SPAN = 0.8

# Added to an exact-zero remainder so derived parameters stay strictly
# inside the open intervals (relative nudge of 2^-20 of the modulus).
NUDGE = 2.0 ** -20

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class ChaoticParams:
    """Control parameter and initial condition of the logistic map.

    This pair is the cipher's entire secret for one segment.
    """

    r: float
    x0: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.x0)):
            raise ParameterDomainError(f"non-finite params r={self.r}, x0={self.x0}")
        if not (R_MIN < self.r < R_MAX):
            raise ParameterDomainError(f"r={self.r!r} outside open interval ({R_MIN}, {R_MAX})")
        if not (X0_MIN < self.x0 < X0_MAX):
            raise ParameterDomainError(f"x0={self.x0!r} outside open interval ({X0_MIN}, {X0_MAX})")


@dataclass(frozen=True)
class SegmentStats:
    """Mean and population standard deviation of one raw segment."""

    mean: float
    std_dev: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std_dev)):
            raise InvalidStatisticsError(f"non-finite stats mu={self.mean}, sigma={self.std_dev}")
        if self.std_dev < 0:
            raise InvalidStatisticsError(f"negative std_dev {self.std_dev}")


@dataclass(frozen=True)
class KeySalt:
    """Per-segment salt: acquisition timestamp plus an opaque device id.

    timestamp=0 with an empty device_id means "unsalted".
    """

    timestamp: int
    device_id: bytes = b""

    def __post_init__(self):
        if self.timestamp < 0 or self.timestamp > _U64:
            raise ValueError("timestamp must fit an unsigned 64-bit integer")
        if len(self.device_id) > 255:
            raise ValueError("device_id longer than 255 bytes")

    def digest(self) -> int:
        """64-bit FNV-1a fold of (timestamp, device_id). Not cryptographic."""
        h = _FNV_OFFSET
        for b in self.timestamp.to_bytes(8, "little"):
            h = ((h ^ b) * _FNV_PRIME) & _U64
        for b in self.device_id:
            h = ((h ^ b) * _FNV_PRIME) & _U64
        return h

    def unit_offsets(self) -> tuple[float, float]:
        """Split the digest into two reals in [0, 1): (u_r, u_x)."""
        d = self.digest()
        return (d >> 32) / 2.0**32, (d & 0xFFFFFFFF) / 2.0**32


@dataclass(frozen=True, eq=False)
class ChaoticSequence:
    """n logistic iterates, all strictly inside (0, 1)."""

    values: np.ndarray
    params: ChaoticParams
    burn_in: int

    def __len__(self) -> int:
        return len(self.values)


def _wrap_mod(value: float, modulus: float) -> float:
    """Non-negative remainder in the open interval (0, modulus).

    Exact zeros are nudged up by NUDGE*modulus; a negative remainder that
    rounds back onto the modulus when wrapped is folded to the nudge too.
    """
    rem = math.fmod(value, modulus)
    if rem < 0.0:
        rem += modulus
    if rem >= modulus:
        rem -= modulus
    if rem == 0.0:
        rem = modulus * NUDGE
    return rem


def _offset_into(lo: float, rem: float, modulus: float, hi: float) -> float:
    """lo + rem kept strictly inside (lo, hi) under float rounding.

    A remainder within an ulp of 0 or the modulus can round the sum onto
    either boundary; such values get the same nudge exact zeros do.
    """
    value = lo + rem
    if value <= lo:
        value = lo + modulus * NUDGE
    elif value >= hi:
        value = math.nextafter(hi, lo)
    return value


def derive_params(stats: SegmentStats) -> ChaoticParams:
    """Map segment statistics into the chaotic regime.

    r = 3.6 + (sigma mod 0.4), x0 = 0.1 + (mu mod 0.8), with the modulo
    taken as a non-negative remainder (raw ECG means can be negative).
    """
    r = _offset_into(R_MIN, _wrap_mod(stats.std_dev, R_SPAN), R_SPAN, R_MAX)
    x0 = _offset_into(X0_MIN, _wrap_mod(stats.mean, X0_SPAN), X0_SPAN, X0_MAX)
    return ChaoticParams(r=r, x0=x0)


def apply_salt(params: ChaoticParams, salt: KeySalt) -> ChaoticParams:
    """Rotate params by salt-derived offsets, staying in the chaotic regime.

    r' = 3.6 + ((r - 3.6) + 0.4*u_r mod 0.4) and likewise for x0 with
    modulus 0.8, where (u_r, u_x) come from the salt digest. A zero
    offset leaves the component exactly unchanged.
    """
    u_r, u_x = salt.unit_offsets()
    r, x0 = params.r, params.x0
    if u_r > 0.0:
        r = _offset_into(R_MIN, _wrap_mod((params.r - R_MIN) + R_SPAN * u_r, R_SPAN), R_SPAN, R_MAX)
    if u_x > 0.0:
        x0 = _offset_into(
            X0_MIN, _wrap_mod((params.x0 - X0_MIN) + X0_SPAN * u_x, X0_SPAN), X0_SPAN, X0_MAX
        )
    return ChaoticParams(r=r, x0=x0)


# A plain Python loop on Python floats: filling a list instead of out[i]
# took 50 us against 52 us per 300 steps, and a batch-of-one numpy orbit
# 1447 us. Callers with many segments use iterate_logistic_batch.
def logistic_fill(r: float, x0: float, burn_in: int, out: np.ndarray) -> int:
    """Iterate x <- r*x*(1-x) from x0, discard burn_in values, fill out.

    Returns len(out) on success. On a degenerate iterate (exactly 0.0 or
    1.0) returns its position: negative positions are burn-in iterates
    (position - burn_in), 0..n-1 are emission slots.
    """
    n = out.shape[0]
    x = x0
    for i in range(burn_in):
        x = r * x * (1.0 - x)
        if x <= 0.0 or x >= 1.0:
            return i - burn_in
    for i in range(n):
        x = r * x * (1.0 - x)
        if x <= 0.0 or x >= 1.0:
            return i
        out[i] = x
    return n


def iterate_logistic(params: ChaoticParams, n: int, burn_in: int = 0) -> ChaoticSequence:
    """Generate n logistic iterates after discarding burn_in transients.

    The first emitted value is the image of x0 (x1), not x0 itself.
    Raises DegenerateOrbitError if any iterate lands exactly on 0.0 or
    1.0; silently re-seeding would break encrypt/decrypt key agreement.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    out = np.empty(n, dtype=np.float64)
    stop = logistic_fill(params.r, params.x0, burn_in, out)
    if stop != n:
        raise DegenerateOrbitError(stop)
    return ChaoticSequence(values=out, params=params, burn_in=burn_in)


def iterate_logistic_batch(params_list: list, n: int, burn_in: int = 0) -> np.ndarray:
    """iterate_logistic for many params at once: row i of the (rows, n)
    result is iterate_logistic(params_list[i], n, burn_in).values.

    x = R*x*(1-x) runs over the vector of rows; each ufunc rounds once, as
    the scalar loop does, so every row is bit-identical. Burn-in iterates
    pass through the same n-row buffer, so memory does not grow with
    burn_in. The first row (in order) whose orbit degenerates raises
    DegenerateOrbitError with the index iterate_logistic gives for it; a
    degenerate orbit stays on 0.0, so later steps cannot hide it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    r = np.array([p.r for p in params_list], dtype=np.float64)
    x = np.array([p.x0 for p in params_list], dtype=np.float64)
    tmp = np.empty_like(x)
    orbit = np.empty((n, len(x)))
    total = burn_in + n
    # step of each row's first degenerate iterate, total if none
    first_bad = np.full(len(x), total)
    step = 0
    while step < total:
        block = orbit[: min(n, burn_in - step)] if step < burn_in else orbit
        for row in block:
            np.subtract(1.0, x, out=tmp)
            np.multiply(r, x, out=row)
            np.multiply(row, tmp, out=row)
            x = row
        x = x.copy()
        bad = (block <= 0.0) | (block >= 1.0)
        hit = bad.any(axis=0) & (first_bad == total)
        first_bad[hit] = step + np.argmax(bad[:, hit], axis=0)
        step += len(block)
    degenerate = np.flatnonzero(first_bad < total)
    if degenerate.size:
        raise DegenerateOrbitError(int(first_bad[degenerate[0]]) - burn_in)
    return np.ascontiguousarray(orbit.T)
