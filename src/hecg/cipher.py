"""Segment quantization and the permutation + XOR cipher.

Encryption of one segment:

    1. mu, sigma over the raw samples -> (r, x0), optionally salted
    2. logistic sequence X of the segment length
    3. mask M[i] = floor(X[i] * 2^24) mod 256, permutation P = argsort(X)
    4. bytes = quantize(samples to 0..255)
    5. ciphertext[i] = bytes[P[i]] XOR M[i]

Decryption regenerates X from the stored (r, x0) and the record's
length; the permutation and mask (KeyMaterial) are never persisted or
transmitted, and encrypt returns the record alone. The byte-domain
roundtrip is exact; the real-domain roundtrip is within half a
quantization step.

derive_key_material keeps the most recent keystream in process memory
until the next derivation with other (r, x0, n), so a stream's read-back
decrypt reuses the orbit its encrypt just iterated. Its arrays are
read-only. Readers of many stored records (decrypt_batch,
attacks.attack_sweep) walk them with key_material_runs instead, which
derives the key material of BATCH_ROWS records at a time, bit-identical
to one record at a time, and leaves that memo alone.
"""

import math
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .chaos import (
    ChaoticParams,
    KeySalt,
    SegmentStats,
    derive_params,
    iterate_logistic,
    iterate_logistic_batch,
)
from .errors import (
    CorruptRecordError,
    InvalidSignalError,
    ShapeError,
)

MAGIC = b"HECG"
RECORD_VERSION = 1
# Segments per vectorized chunk: amortizes the per-step ufunc overhead of
# the logistic loop while one chunk's orbits, key material and FFT
# temporaries stay well under a megabyte.
BATCH_ROWS = 64


class Mode(IntEnum):
    DIRECT = 0
    ML_PREDICTED = 1


@dataclass(frozen=True, eq=False)
class SignalSegment:
    """Fixed window of real-valued samples at a known sample rate."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidSignalError(f"segment needs >= 2 samples, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidSignalError("segment contains non-finite samples")
        if not (self.sample_rate > 0):
            raise InvalidSignalError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class QuantizationRange:
    """Min/max of the raw segment, carried so decryption can rescale."""

    min: float
    max: float

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise InvalidSignalError("quantization range must be finite")
        if self.max < self.min:
            raise InvalidSignalError(f"max {self.max} < min {self.min}")
        if not math.isfinite(self.max - self.min):
            raise InvalidSignalError("quantization range span overflows")


@dataclass(frozen=True, eq=False)
class QuantizedSegment:
    bytes: np.ndarray
    range: QuantizationRange


@dataclass(frozen=True, eq=False)
class KeyMaterial:
    """The keystream of one segment: permutation P and mask M.

    A pure function of (r, x0) and the segment length; never serialized.
    """

    permutation: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True)
class EncryptedRecord:
    """Ciphertext plus the public metadata needed to locate its key.

    Binary layout (little-endian, no padding, no checksum):

        magic 'HECG' (4) | version u8 (=1) | mode_tag u8 | segment_len u32
        | min f64 | max f64 | timestamp u64 | device_id_len u8
        | device_id bytes | key_id (16) | ciphertext (segment_len)
    """

    ciphertext: bytes
    range: QuantizationRange
    key_id: bytes
    salt: KeySalt
    mode_tag: Mode

    def __post_init__(self):
        if len(self.key_id) != 16:
            raise CorruptRecordError(f"key_id must be 16 bytes, got {len(self.key_id)}")

    @property
    def segment_len(self) -> int:
        """Samples in the segment: one ciphertext byte each."""
        return len(self.ciphertext)

    def to_bytes(self) -> bytes:
        head = struct.pack(
            "<4sBBIddQB",
            MAGIC,
            RECORD_VERSION,
            int(self.mode_tag),
            self.segment_len,
            self.range.min,
            self.range.max,
            self.salt.timestamp,
            len(self.salt.device_id),
        )
        return head + self.salt.device_id + self.key_id + self.ciphertext

    @classmethod
    def from_bytes(cls, blob: bytes) -> "EncryptedRecord":
        fixed = struct.calcsize("<4sBBIddQB")
        if len(blob) < fixed:
            raise CorruptRecordError(f"record truncated at {len(blob)} bytes")
        magic, version, mode, seg_len, lo, hi, ts, dev_len = struct.unpack_from("<4sBBIddQB", blob)
        if magic != MAGIC:
            raise CorruptRecordError(f"bad magic {magic!r}")
        if version != RECORD_VERSION:
            raise CorruptRecordError(f"unsupported record version {version}")
        try:
            mode_tag = Mode(mode)
        except ValueError:
            raise CorruptRecordError(f"unknown mode tag {mode}") from None
        need = fixed + dev_len + 16 + seg_len
        if len(blob) != need:
            raise CorruptRecordError(f"record is {len(blob)} bytes, layout needs {need}")
        pos = fixed
        device_id = blob[pos : pos + dev_len]
        pos += dev_len
        key_id = blob[pos : pos + 16]
        pos += 16
        ciphertext = blob[pos:]
        return cls(
            ciphertext=ciphertext,
            range=QuantizationRange(min=lo, max=hi),
            key_id=key_id,
            salt=KeySalt(timestamp=ts, device_id=device_id),
            mode_tag=mode_tag,
        )


def make_key_id(salt: KeySalt, counter: int) -> bytes:
    """16-byte store index built from the salt digest and segment counter.

    Carries no key entropy; it only names the key-store row.
    """
    return struct.pack("<QQ", salt.digest(), counter & 0xFFFFFFFFFFFFFFFF)


def compute_stats(segment: SignalSegment) -> SegmentStats:
    """Arithmetic mean and population standard deviation of the raw samples."""
    s = segment.samples
    return SegmentStats(mean=float(np.mean(s)), std_dev=float(np.std(s)))


def quantize(segment: SignalSegment) -> QuantizedSegment:
    """Map samples linearly onto 0..255, rounding half away from zero.

    A constant segment quantizes to all zeros with its value recorded in
    the range.
    """
    s = segment.samples
    lo = float(s.min())
    hi = float(s.max())
    rng = QuantizationRange(min=lo, max=hi)
    if hi == lo:
        return QuantizedSegment(bytes=np.zeros(len(s), dtype=np.uint8), range=rng)
    scaled = (s - lo) / (hi - lo) * 255.0
    # floor(v + 0.5) == round-half-away-from-zero for v >= 0, and is
    # deterministic across platforms.
    b = np.floor(scaled + 0.5).astype(np.uint8)
    return QuantizedSegment(bytes=b, range=rng)


def dequantize(q: QuantizedSegment, sample_rate: float) -> SignalSegment:
    """Inverse of quantize up to half a quantization step per sample."""
    return SignalSegment(samples=_dequantized_samples(q.bytes, q.range), sample_rate=sample_rate)


def _dequantized_samples(q_bytes: np.ndarray, rng: QuantizationRange) -> np.ndarray:
    """The samples of dequantize, before it validates them into a SignalSegment."""
    return _dequantize_in_place(q_bytes.astype(np.float64), rng)


def _dequantize_in_place(x: np.ndarray, rng: QuantizationRange) -> np.ndarray:
    """Quantized bytes held as float64 in x, made into their samples in
    place and returned: lo + x / 255 * (hi - lo), or lo for a flat range."""
    lo, hi = rng.min, rng.max
    if hi == lo:
        x.fill(lo)
    else:
        x /= 255.0
        x *= hi - lo
        x += lo
    return x


def derive_key_material(params: ChaoticParams, n: int) -> KeyMaterial:
    """Generate per-segment mask and permutation from the chaotic sequence.

    mask[i] = floor(X[i] * 2^24) mod 256, the third byte of each
    iterate's binary fraction, applied per element. The leading digits of
    a logistic orbit follow its skewed invariant density, so flooring
    X*255 directly yields mask bytes with biased bits at every r in the
    regime; the deeper byte is uniform to well below monobit resolution
    while staying a pure, deterministic function of the iterate
    (x * 2^24 is an exact exponent shift in binary64).

    The permutation is the stable ascending argsort of X (ties broken by
    lower original index), computed as _mask_and_permutation does: the
    default sort, redone stably only when the orbit repeats a value.

    The arrays are read-only: a call with the (r, x0, n) of the last
    derivation returns its KeyMaterial again without iterating the map.
    """
    global _last_key_material
    if n < 2:
        raise InvalidSignalError(f"segment length must be >= 2, got {n}")
    # Keyed on the floats, not the params object, which can be changed in
    # place. Equal nonzero floats are equal bits; a zero r or x0 degenerates.
    key = (params.r, params.x0, n)
    last_key, km = _last_key_material
    if key != last_key:
        mask, perm = _mask_and_permutation(iterate_logistic(params, n))
        mask.flags.writeable = perm.flags.writeable = False
        km = KeyMaterial(permutation=perm, mask=mask)
        _last_key_material = (key, km)
    return km


# (r, x0, n) and the KeyMaterial of the last derive_key_material call that
# iterated; replaced whole, so a reader never pairs one key with another's
# keystream.
_last_key_material = (None, None)


def _mask_and_permutation(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask bytes and stable ascending argsort of iterates, along the last axis.

    For iterates in [0, 1] the cast to int64 truncates to floor(x * 2^24),
    and the cast to uint8 keeps its low byte: floor(x * 2^24) mod 256.

    The permutation is taken with argsort's default (unstable) kind, which
    is faster. Where a row's iterates are all distinct its ascending order
    is unique, so that is the stable argsort; a row whose sorted iterates
    hold two equal neighbours (a periodic orbit, say) is sorted again with
    kind="stable".
    """
    mask = (x * 16777216.0).astype(np.int64).astype(np.uint8)
    perm = np.argsort(x, axis=-1)
    ordered = np.take_along_axis(x, perm, axis=-1)
    tied = (ordered[..., 1:] == ordered[..., :-1]).any(axis=-1)
    if tied.any():
        perm[tied] = np.argsort(x[tied], axis=-1, kind="stable")
    return mask, perm


def batch_slices(lengths: list) -> list:
    """Cut row indices into consecutive runs of one length, at most
    BATCH_ROWS long, in order."""
    slices = []
    start = 0
    for i in range(1, len(lengths) + 1):
        if i == len(lengths) or lengths[i] != lengths[start] or i - start == BATCH_ROWS:
            slices.append(slice(start, i))
            start = i
    return slices


def key_material_runs(records: list, params_list: list):
    """Yield (s, key material of records[s]) for each batch_slices run s
    of the records, the row for each record equal to derive_key_material.

    A run's orbits are iterated over a vector (chaos.iterate_logistic_batch),
    so its first row whose orbit degenerates raises DegenerateOrbitError as
    iterate_logistic would. Only one run's key material is held at a time.
    """
    if len(records) != len(params_list):
        raise ShapeError(f"{len(records)} records for {len(params_list)} params")
    for s in batch_slices([r.segment_len for r in records]):
        n = records[s.start].segment_len
        if n < 2:  # a crafted record's
            raise InvalidSignalError(f"segment length must be >= 2, got {n}")
        mask, perm = _mask_and_permutation(iterate_logistic_batch(params_list[s], n))
        yield s, [KeyMaterial(permutation=p, mask=m) for p, m in zip(perm, mask)]


def _keystream_operands(data: np.ndarray, perm: np.ndarray, mask: np.ndarray):
    """data, perm and mask as contiguous uint8, intp and uint8 arrays,
    checked to be of one length."""
    d = np.ascontiguousarray(data, dtype=np.uint8)
    p = np.ascontiguousarray(perm, dtype=np.intp)
    m = np.ascontiguousarray(mask, dtype=np.uint8)
    if not (len(d) == len(p) == len(m)):
        raise CorruptRecordError(
            f"keystream length mismatch: data {len(d)}, perm {len(p)}, mask {len(m)}"
        )
    return d, p, m


def apply_keystream(quantized: np.ndarray, perm: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Permute then XOR one quantized segment. Exposed for direct testing."""
    q, p, m = _keystream_operands(quantized, perm, mask)
    return np.bitwise_xor(q[p], m)


def remove_keystream(ciphertext: np.ndarray, perm: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Invert apply_keystream exactly."""
    c, p, m = _keystream_operands(ciphertext, perm, mask)
    out = np.empty_like(c)
    out[p] = np.bitwise_xor(c, m)
    return out


def encrypt(
    segment: SignalSegment,
    params: ChaoticParams,
    salt: KeySalt = KeySalt(0),
    mode_tag: Mode = Mode.DIRECT,
    counter: int = 0,
) -> EncryptedRecord:
    """Encrypt one segment with already-final params (salting is the caller's)."""
    q = quantize(segment)
    km = derive_key_material(params, len(segment))
    ct = apply_keystream(q.bytes, km.permutation, km.mask)
    return EncryptedRecord(
        ciphertext=ct.tobytes(),
        range=q.range,
        key_id=make_key_id(salt, counter),
        salt=salt,
        mode_tag=mode_tag,
    )


def decrypt(
    record: EncryptedRecord, params: ChaoticParams, sample_rate: float = 500.0
) -> SignalSegment:
    """Regenerate the keystream from params and invert the cipher.

    params must be the exact (post-salt) values used at encryption; the
    record itself does not carry the sample rate, so the caller supplies
    it (default 500 Hz).
    """
    km = derive_key_material(params, record.segment_len)
    return decrypt_with_key_material(record, km, sample_rate)


def decrypt_batch(records: list, params_list: list) -> list:
    """decrypt at its default sample rate for many records, sample for
    sample, with the key material of one key_material_runs run at a time."""
    return [
        SignalSegment(samples=row, sample_rate=500.0)
        for s, kms in key_material_runs(records, params_list)
        for row in _decrypted_rows(records[s], kms)
    ]


def _decrypted_rows(records: list, kms: list) -> np.ndarray:
    """The samples of decrypt_with_key_material(record, km) for each record
    of one key_material_runs run and its key material, bit for bit, as the
    rows of one (len, n) float64 array: the keystream is removed and the
    bytes are dequantized for the whole run at once."""
    c = np.frombuffer(b"".join(r.ciphertext for r in records), dtype=np.uint8).reshape(len(records), -1)
    q = np.empty_like(c)
    perm = np.array([km.permutation for km in kms])
    np.put_along_axis(q, perm, c ^ np.array([km.mask for km in kms]), axis=1)
    lo = np.array([[r.range.min] for r in records])
    hi = np.array([[r.range.max] for r in records])
    samples = q.astype(np.float64)
    samples /= 255.0
    samples *= hi - lo
    samples += lo
    flat = hi[:, 0] == lo[:, 0]
    samples[flat] = lo[flat]  # as _dequantized_samples fills a flat range
    return samples


def decrypt_with_key_material(
    record: EncryptedRecord, km: KeyMaterial, sample_rate: float = 500.0
) -> SignalSegment:
    """decrypt with the record's key material already derived."""
    samples = _dequantized_samples(_plain_bytes(record, km), record.range)
    return SignalSegment(samples=samples, sample_rate=sample_rate)


def decrypt_bytes(record: EncryptedRecord, params: ChaoticParams) -> np.ndarray:
    """Byte-domain decryption (dequantization skipped); exact inverse."""
    return _plain_bytes(record, derive_key_material(params, record.segment_len))


def _plain_bytes(record: EncryptedRecord, km: KeyMaterial) -> np.ndarray:
    """The record's ciphertext with km removed: its quantized bytes."""
    return remove_keystream(np.frombuffer(record.ciphertext, dtype=np.uint8), km.permutation, km.mask)


def params_for_segment(segment: SignalSegment) -> ChaoticParams:
    """Direct biometric derivation: stats -> chaotic regime, unsalted."""
    return derive_params(compute_stats(segment))
