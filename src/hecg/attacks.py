"""Noise and occlusion attacks on stored ciphertext records.

Both attacks take (record, km, config, reference): they perturb the
record's ciphertext bytes (the stored/transmitted artifact), decrypt with
km, the record's own KeyMaterial, derive_key_material(params,
record.segment_len), rescale by the record's range, and measure the
damage as fidelity does, by normalized_errors against reference: the
clean_reference of the record's original, which for attack_sweep is the
record decrypted with km.
Occlusion also tracks exactly which plaintext positions were hit; with a
chaotic permutation a contiguous ciphertext hole scatters across the
whole segment.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# clean_reference is imported for callers, who build an attack's reference with it
from .analysis import _clean_references, _errors_in_place, _normalize_in_place, clean_reference  # noqa: F401
from .cipher import (
    EncryptedRecord,
    KeyMaterial,
    QuantizationRange,
    _decrypted_rows,
    _dequantize_in_place,
    _keystream_operands,
    key_material_runs,
)
from .errors import ShapeError


class AttackKind(Enum):
    NOISE_UNIFORM = "noise-uniform"
    NOISE_GAUSSIAN = "noise-gaussian"
    OCCLUSION = "occlusion"


@dataclass(frozen=True)
class AttackConfig:
    """kind plus intensity: byte amplitude for noise, fraction for occlusion."""

    kind: AttackKind
    intensity: float
    seed: int = 0

    def __post_init__(self):
        if self.kind is AttackKind.OCCLUSION:
            if not (0.0 <= self.intensity <= 1.0):
                raise ValueError(f"occlusion fraction must be in [0,1], got {self.intensity}")
        elif not 0 <= self.intensity < math.inf:
            raise ValueError(f"noise amplitude must be finite and >= 0, got {self.intensity}")


@dataclass(frozen=True)
class AttackResult:
    mae: float
    mse: float
    corrupted_sample_indices: tuple
    dispersion: float


def _damage(
    attacked: np.ndarray, hit: np.ndarray, km: KeyMaterial, rng: QuantizationRange, reference: tuple
) -> AttackResult:
    """MAE and MSE of the attacked ciphertext, decrypted with km and
    rescaled by rng, against reference, and the sorted plaintext positions
    that the changed ciphertext positions hit, with their dispersion.
    Key material of another length is rejected (CorruptRecordError) before
    hit indexes its permutation.

    remove_keystream, _dequantized_samples, normalize_unit and
    normalized_errors, bit for bit, in one float64 buffer: the plain bytes
    are written into it and then rescaled, normalized and differenced in
    place. The recovered samples are finite by construction, so they are
    not checked into a SignalSegment.
    """
    lo, hi, clean = reference
    c, perm, mask = _keystream_operands(attacked, km.permutation, km.mask)
    if clean.shape != c.shape:
        raise ShapeError(f"length mismatch {clean.shape} vs {c.shape}")
    got = np.empty(c.size)
    got[perm] = np.bitwise_xor(c, mask)
    _normalize_in_place(_dequantize_in_place(got, rng), lo, hi)
    np.subtract(clean, got, out=got)
    mse, mae = _errors_in_place(got)
    corrupted = perm[hit]
    corrupted.sort()
    return AttackResult(mae, mse, tuple(corrupted.tolist()), _dispersion(corrupted, c.size))


def _dispersion(idx: np.ndarray, n: int) -> float:
    """Spread of corrupted positions, given sorted ascending: smallest
    window covering half of them, as a fraction of n/2. Near 1 for
    uniformly scattered damage, near 0 for a contiguous clump.
    """
    m = idx.size
    if m == 0:
        return 0.0
    k = (m + 1) // 2
    window = int((idx[k - 1 :] - idx[: m - k + 1]).min()) + 1
    return float(min(1.0, window / (n / 2.0)))


def noise_attack(
    record: EncryptedRecord, km: KeyMaterial, config: AttackConfig, reference: tuple
) -> AttackResult:
    """Add seeded noise to the ciphertext bytes, clamp to [0,255], decrypt.

    Uniform noise draws integers in [-a, a]; Gaussian draws round(N(0, a)).
    An amplitude that draws only zeros (uniform with round(a) == 0,
    Gaussian with a == 0) leaves the ciphertext as it is, and no generator
    is built for it.
    """
    if config.kind not in (AttackKind.NOISE_UNIFORM, AttackKind.NOISE_GAUSSIAN):
        raise ValueError(f"noise_attack got config kind {config.kind}")
    ct = np.frombuffer(record.ciphertext, dtype=np.uint8)
    uniform = config.kind is AttackKind.NOISE_UNIFORM
    a = int(round(config.intensity)) if uniform else config.intensity
    if a == 0:
        return _damage(ct, np.empty(0, dtype=np.intp), km, record.range, reference)
    rng = np.random.default_rng(config.seed)
    if uniform:
        delta = rng.integers(-a, a + 1, size=ct.size)
    else:
        delta = np.round(rng.normal(0.0, a, size=ct.size)).astype(np.int64)
    noisy = ct + delta  # int64, so nothing wraps before the clamp
    np.maximum(noisy, 0, out=noisy)
    np.minimum(noisy, 255, out=noisy)
    noisy = noisy.astype(np.uint8)
    return _damage(noisy, (noisy != ct).nonzero()[0], km, record.range, reference)


def occlusion_attack(
    record: EncryptedRecord, km: KeyMaterial, config: AttackConfig, reference: tuple
) -> AttackResult:
    """Zero a contiguous ciphertext range of the configured fraction at a
    seeded placement. Corrupted plaintext positions are exactly the
    permutation images of the occluded range, so their count is
    ceil(fraction * n) while their locations scatter."""
    if config.kind is not AttackKind.OCCLUSION:
        raise ValueError(f"occlusion_attack got config kind {config.kind}")
    n = record.segment_len
    length = int(np.ceil(config.intensity * n))
    start = int(np.random.default_rng(config.seed).integers(0, n - length + 1)) if length else 0
    ct = np.frombuffer(record.ciphertext, dtype=np.uint8).copy()
    ct[start : start + length] = 0
    return _damage(ct, np.arange(start, start + length), km, record.range, reference)


def attack_sweep(
    records: list, params_list: list, kind: AttackKind, intensities: list, seed: int = 0
) -> list:
    """Corpus sweep: one row per intensity with corpus-mean MAE/MSE.

    Rows are dicts {intensity, mae, mse, dispersion} ready for tabular
    output; deterministic for a fixed seed. Key material is derived once
    per record, one key_material_runs run at a time, and serves every
    intensity, as does the record's reference: the clean_reference of the
    record decrypted with that key material, taken for the whole run before
    its attacks as rows of one array (decrypted, then row min, max and
    normalize), so a store is read, derived and decrypted once. Each
    attack is still one call of the module-level attack function per
    record and intensity.
    key_material_runs raises ShapeError unless there is one params per
    record.
    """
    run = occlusion_attack if kind is AttackKind.OCCLUSION else noise_attack
    # per intensity: the (mae, mse, dispersion) of each record, in record order
    damage = [([], [], []) for _ in intensities]
    for s, kms in key_material_runs(records, params_list):
        # the run's references first, so that no decrypt lands between two attacks
        refs = _clean_references(_decrypted_rows(records[s], kms))
        for i, rec, km, ref in zip(range(s.start, s.stop), records[s], kms, refs):
            for level, intensity in enumerate(intensities):
                cfg = AttackConfig(kind=kind, intensity=intensity, seed=seed + 7919 * level + i)
                res = run(rec, km, cfg, ref)
                maes, mses, disps = damage[level]
                maes.append(res.mae)
                mses.append(res.mse)
                disps.append(res.dispersion)
    return [
        {
            "intensity": float(intensity),
            "mae": float(np.mean(maes)),
            "mse": float(np.mean(mses)),
            "dispersion": float(np.mean(disps)),
        }
        for intensity, (maes, mses, disps) in zip(intensities, damage)
    ]


def sweep_table(rows: list) -> str:
    """Plain tabular text for plotting tools: intensity, mae, mse, dispersion."""
    lines = ["intensity\tmae\tmse\tdispersion"]
    for row in rows:
        lines.append(
            f"{row['intensity']:.17g}\t{row['mae']:.17g}\t{row['mse']:.17g}\t{row['dispersion']:.17g}"
        )
    return "\n".join(lines) + "\n"
