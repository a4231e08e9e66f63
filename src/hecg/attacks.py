"""Noise and occlusion attacks on stored ciphertext records.

Attacks perturb the ciphertext bytes (the stored/transmitted artifact),
decrypt with the correct key, and measure the damage against the clean
signal on [0,1]-normalized samples. Occlusion also tracks exactly which
plaintext positions were hit; with a chaotic permutation a contiguous
ciphertext hole scatters across the whole segment.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analysis import normalize_unit
from .chaos import ChaoticParams
from .cipher import (
    EncryptedRecord,
    KeyMaterial,
    _dequantized_samples,
    batch_slices,
    decrypt_with_key_material,
    derive_key_material,
    derive_key_material_batch,
    remove_keystream,
)
from .errors import ShapeError


class AttackKind(Enum):
    NOISE_UNIFORM = "noise-uniform"
    NOISE_GAUSSIAN = "noise-gaussian"
    OCCLUSION = "occlusion"


@dataclass(frozen=True)
class AttackConfig:
    """kind plus intensity: byte amplitude for noise, fraction for occlusion.

    region, when given, is the [start, end) ciphertext range occlusion
    zeroes in place of a seeded placement; it needs 0 <= start <= end
    here, and end <= segment_len in occlusion_attack.
    """

    kind: AttackKind
    intensity: float
    region: tuple[int, int] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.region is not None:
            start, end = self.region
            if start < 0 or end < start:
                raise ValueError(f"region must satisfy 0 <= start <= end, got {self.region}")
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


def clean_reference(original) -> tuple[float, float, np.ndarray]:
    """The original's min, max and samples normalized to [0,1] on them: what
    every attack on its record compares against."""
    lo, hi = float(np.min(original.samples)), float(np.max(original.samples))
    return lo, hi, normalize_unit(original.samples, lo, hi)


def _damage(
    original, attacked: np.ndarray, km: KeyMaterial, reference: tuple | None, corrupted
) -> AttackResult:
    """MAE and MSE of the attacked ciphertext decrypted with the record's own
    key material, against the original on [0,1]-normalized samples, and
    the sorted plaintext positions corrupted with their dispersion.
    reference is clean_reference(original), or None to compute it."""
    lo, hi, clean = reference or clean_reference(original)
    q_bytes = remove_keystream(attacked, km.permutation, km.mask)
    # the recovered bytes are finite samples by construction: no SignalSegment
    got = normalize_unit(_dequantized_samples(q_bytes, km.range), lo, hi)
    diff = clean - got
    # np.mean's own steps: the pairwise sum, then one division
    n = diff.size
    return AttackResult(
        mae=float(np.abs(diff).sum() / n),
        mse=float((diff * diff).sum() / n),
        corrupted_sample_indices=tuple(corrupted.tolist()),
        dispersion=_dispersion(corrupted, n),
    )


def _key_material(record, params, burn_in: int, km: KeyMaterial | None) -> KeyMaterial:
    """The record's key material: km when given and made for this record,
    else derived from params."""
    if km is None:
        return derive_key_material(params, record.segment_len, record.range, burn_in)
    if km.params != params or km.range != record.range or len(km.permutation) != record.segment_len:
        raise ShapeError(
            f"key material for params {km.params}, range {km.range} and "
            f"{len(km.permutation)} samples does not belong to a record of "
            f"{record.segment_len} samples with params {params}, range {record.range}"
        )
    return km


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
    record: EncryptedRecord,
    params: ChaoticParams,
    config: AttackConfig,
    original=None,
    burn_in: int = 0,
    *,
    key_material: KeyMaterial | None = None,
    reference: tuple | None = None,
) -> AttackResult:
    """Add seeded noise to the ciphertext bytes, clamp to [0,255], decrypt.

    original: the clean SignalSegment the record was produced from (the
    comparison target). Uniform noise draws integers in [-a, a]; Gaussian
    draws round(N(0, a)). key_material, when given, must have been derived
    for this record and params (ShapeError otherwise) and saves deriving it;
    reference, when given, must be clean_reference(original) and saves
    recomputing it.
    """
    if config.kind not in (AttackKind.NOISE_UNIFORM, AttackKind.NOISE_GAUSSIAN):
        raise ValueError(f"noise_attack got config kind {config.kind}")
    if original is None:
        raise ShapeError("noise_attack needs the original segment for damage metrics")
    ct = np.frombuffer(record.ciphertext, dtype=np.uint8)
    rng = np.random.default_rng(config.seed)
    a = config.intensity
    if config.kind is AttackKind.NOISE_UNIFORM:
        delta = rng.integers(-int(round(a)), int(round(a)) + 1, size=ct.size)
    else:
        delta = np.round(rng.normal(0.0, a, size=ct.size)).astype(np.int64)
    noisy = ct + delta  # int64, so nothing wraps before the clamp
    np.maximum(noisy, 0, out=noisy)
    np.minimum(noisy, 255, out=noisy)
    noisy = noisy.astype(np.uint8)
    changed = (noisy != ct).nonzero()[0]
    km = _key_material(record, params, burn_in, key_material)
    corrupted = km.permutation[changed]
    corrupted.sort()
    return _damage(original, noisy, km, reference, corrupted)


def occlusion_attack(
    record: EncryptedRecord,
    params: ChaoticParams,
    config: AttackConfig,
    original=None,
    burn_in: int = 0,
    *,
    key_material: KeyMaterial | None = None,
    reference: tuple | None = None,
) -> AttackResult:
    """Zero a contiguous ciphertext range of the configured fraction.

    The region defaults to a seeded random placement. Corrupted plaintext
    positions are exactly the permutation images of the occluded range,
    so their count is ceil(fraction * n) while their locations scatter.
    key_material and reference are taken as in noise_attack.
    """
    if config.kind is not AttackKind.OCCLUSION:
        raise ValueError(f"occlusion_attack got config kind {config.kind}")
    if original is None:
        raise ShapeError("occlusion_attack needs the original segment for damage metrics")
    n = record.segment_len
    length = int(np.ceil(config.intensity * n))
    if config.region is not None:
        start, end = config.region
        if end > n:
            raise ShapeError(f"region {config.region} runs past the record's {n} samples")
    elif length > 0:
        rng = np.random.default_rng(config.seed)
        start = int(rng.integers(0, n - length + 1))
        end = start + length
    else:
        start = end = 0
    ct = np.frombuffer(record.ciphertext, dtype=np.uint8).copy()
    ct[start:end] = 0
    km = _key_material(record, params, burn_in, key_material)
    corrupted = np.sort(km.permutation[start:end])
    return _damage(original, ct, km, reference, corrupted)


def attack_sweep(
    records: list,
    params_list: list,
    originals: list | None,
    kind: AttackKind,
    intensities: list,
    seed: int = 0,
    burn_in: int = 0,
) -> list:
    """Corpus sweep: one row per intensity with corpus-mean MAE/MSE.

    Rows are dicts {intensity, mae, mse, dispersion} ready for tabular
    output; deterministic for a fixed seed. Key material is derived once
    per record, BATCH_ROWS records at a time, and serves every intensity,
    as does each original's clean_reference. originals None stands for
    the records decrypted with their params: each chunk's records are
    decrypted with the key material just derived for them, so a store is
    read, derived and decrypted once, and the rows equal those of the
    decrypt_batch originals bit for bit.
    """
    if len(records) != len(params_list) or (
        originals is not None and len(originals) != len(records)
    ):
        given = "no" if originals is None else len(originals)
        raise ShapeError(f"{len(records)} records, {len(params_list)} params, {given} originals")
    run = occlusion_attack if kind is AttackKind.OCCLUSION else noise_attack
    # per intensity: the (mae, mse, dispersion) of each record, in record order
    damage = [([], [], []) for _ in intensities]
    for s in batch_slices([r.segment_len for r in records]):
        kms = derive_key_material_batch(
            params_list[s], records[s.start].segment_len, [r.range for r in records[s]], burn_in
        )
        if originals is None:
            origs = [decrypt_with_key_material(rec, km) for rec, km in zip(records[s], kms)]
        else:
            origs = originals[s]
        refs = [clean_reference(orig) for orig in origs]
        chunk = zip(range(s.start, s.stop), records[s], params_list[s], origs, kms, refs)
        for i, rec, params, orig, km, ref in chunk:
            for level, intensity in enumerate(intensities):
                cfg = AttackConfig(kind=kind, intensity=intensity, seed=seed + 7919 * level + i)
                res = run(
                    rec, params, cfg, original=orig, burn_in=burn_in, key_material=km, reference=ref
                )
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
