"""Noise and occlusion attacks on stored ciphertext records.

Attacks perturb the ciphertext bytes (the stored/transmitted artifact),
decrypt with the correct key, and measure the damage against the clean
signal on [0,1]-normalized samples. Occlusion also tracks exactly which
plaintext positions were hit; with a chaotic permutation a contiguous
ciphertext hole scatters across the whole segment.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analysis import normalize_unit
from .chaos import ChaoticParams
from .cipher import (
    EncryptedRecord,
    KeyMaterial,
    QuantizedSegment,
    dequantize,
    derive_key_material,
    remove_keystream,
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
    region: tuple[int, int] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind is AttackKind.OCCLUSION:
            if not (0.0 <= self.intensity <= 1.0):
                raise ValueError(f"occlusion fraction must be in [0,1], got {self.intensity}")
        elif self.intensity < 0:
            raise ValueError(f"noise amplitude must be >= 0, got {self.intensity}")


@dataclass(frozen=True)
class AttackResult:
    mae: float
    mse: float
    corrupted_sample_indices: tuple
    dispersion: float


def _damage(original, attacked: np.ndarray, km: KeyMaterial) -> tuple[float, float]:
    """MAE and MSE of the attacked ciphertext decrypted with the record's own
    key material, against the original on [0,1]-normalized samples."""
    lo, hi = float(np.min(original.samples)), float(np.max(original.samples))
    clean = normalize_unit(original.samples, lo, hi)
    q_bytes = remove_keystream(attacked, km.permutation, km.mask)
    recovered = dequantize(QuantizedSegment(bytes=q_bytes, range=km.range), original.sample_rate)
    got = normalize_unit(recovered.samples, lo, hi)
    diff = clean - got
    return float(np.mean(np.abs(diff))), float(np.mean(diff * diff))


def _dispersion(indices: np.ndarray, n: int) -> float:
    """Spread of corrupted positions: smallest window covering half of
    them, as a fraction of n/2. Near 1 for uniformly scattered damage,
    near 0 for a contiguous clump.
    """
    m = indices.size
    if m == 0:
        return 0.0
    k = (m + 1) // 2
    idx = np.sort(indices)
    window = int(np.min(idx[k - 1 :] - idx[: m - k + 1])) + 1
    return float(min(1.0, window / (n / 2.0)))


def noise_attack(
    record: EncryptedRecord,
    params: ChaoticParams,
    config: AttackConfig,
    original=None,
    burn_in: int = 0,
) -> AttackResult:
    """Add seeded noise to the ciphertext bytes, clamp to [0,255], decrypt.

    original: the clean SignalSegment the record was produced from (the
    comparison target). Uniform noise draws integers in [-a, a]; Gaussian
    draws round(N(0, a)).
    """
    if config.kind not in (AttackKind.NOISE_UNIFORM, AttackKind.NOISE_GAUSSIAN):
        raise ValueError(f"noise_attack got config kind {config.kind}")
    if original is None:
        raise ShapeError("noise_attack needs the original segment for damage metrics")
    ct = np.frombuffer(record.ciphertext, dtype=np.uint8).astype(np.int32)
    rng = np.random.default_rng(config.seed)
    a = config.intensity
    if config.kind is AttackKind.NOISE_UNIFORM:
        delta = rng.integers(-int(round(a)), int(round(a)) + 1, size=ct.size)
    else:
        delta = np.round(rng.normal(0.0, a, size=ct.size)).astype(np.int64)
    noisy = np.clip(ct + delta, 0, 255).astype(np.uint8)
    changed = np.nonzero(noisy != ct.astype(np.uint8))[0]
    km = derive_key_material(params, record.segment_len, record.range, burn_in)
    corrupted = np.asarray(km.permutation)[changed]
    mae, mse = _damage(original, noisy, km)
    return AttackResult(
        mae=mae,
        mse=mse,
        corrupted_sample_indices=tuple(int(i) for i in np.sort(corrupted)),
        dispersion=_dispersion(corrupted, record.segment_len),
    )


def occlusion_attack(
    record: EncryptedRecord,
    params: ChaoticParams,
    config: AttackConfig,
    original=None,
    burn_in: int = 0,
) -> AttackResult:
    """Zero a contiguous ciphertext range of the configured fraction.

    The region defaults to a seeded random placement. Corrupted plaintext
    positions are exactly the permutation images of the occluded range,
    so their count is ceil(fraction * n) while their locations scatter.
    """
    if config.kind is not AttackKind.OCCLUSION:
        raise ValueError(f"occlusion_attack got config kind {config.kind}")
    if original is None:
        raise ShapeError("occlusion_attack needs the original segment for damage metrics")
    n = record.segment_len
    length = int(np.ceil(config.intensity * n))
    if config.region is not None:
        start, end = config.region
        length = end - start
    elif length > 0:
        rng = np.random.default_rng(config.seed)
        start = int(rng.integers(0, n - length + 1))
        end = start + length
    else:
        start = end = 0
    ct = np.frombuffer(record.ciphertext, dtype=np.uint8).copy()
    ct[start:end] = 0
    km = derive_key_material(params, n, record.range, burn_in)
    corrupted = np.asarray(km.permutation)[start:end]
    mae, mse = _damage(original, ct, km)
    return AttackResult(
        mae=mae,
        mse=mse,
        corrupted_sample_indices=tuple(int(i) for i in np.sort(corrupted)),
        dispersion=_dispersion(corrupted, n),
    )


def attack_sweep(
    records: list,
    params_list: list,
    originals: list,
    kind: AttackKind,
    intensities: list,
    seed: int = 0,
    burn_in: int = 0,
) -> list:
    """Corpus sweep: one row per intensity with corpus-mean MAE/MSE.

    Rows are dicts {intensity, mae, mse, dispersion} ready for tabular
    output; deterministic for a fixed seed.
    """
    run = occlusion_attack if kind is AttackKind.OCCLUSION else noise_attack
    rows = []
    for level, intensity in enumerate(intensities):
        maes, mses, disps = [], [], []
        for i, (rec, params, orig) in enumerate(zip(records, params_list, originals)):
            cfg = AttackConfig(
                kind=kind, intensity=intensity, seed=seed + 7919 * level + i
            )
            res = run(rec, params, cfg, original=orig, burn_in=burn_in)
            maes.append(res.mae)
            mses.append(res.mse)
            disps.append(res.dispersion)
        rows.append(
            {
                "intensity": float(intensity),
                "mae": float(np.mean(maes)),
                "mse": float(np.mean(mses)),
                "dispersion": float(np.mean(disps)),
            }
        )
    return rows


def sweep_table(rows: list) -> str:
    """Plain tabular text for plotting tools: intensity, mae, mse, dispersion."""
    lines = ["intensity\tmae\tmse\tdispersion"]
    for row in rows:
        lines.append(
            f"{row['intensity']:.17g}\t{row['mae']:.17g}\t{row['mse']:.17g}\t{row['dispersion']:.17g}"
        )
    return "\n".join(lines) + "\n"
