"""Chaotic per-segment encryption and security analysis for sampled signals.

The cipher derives a logistic-map keystream from each segment's own
statistics (optionally stabilized by a small MLP), scrambles positions
with an argsort permutation and values with an XOR mask, and never
transmits key material: decryption regenerates the keystream from the
stored (r, x0) pair.
"""

from .chaos import (
    ChaoticParams,
    KeySalt,
    SegmentStats,
    apply_salt,
    derive_params,
    iterate_logistic,
)
from .cipher import (
    EncryptedRecord,
    KeyMaterial,
    Mode,
    QuantizationRange,
    QuantizedSegment,
    SignalSegment,
    compute_stats,
    decrypt,
    decrypt_bytes,
    dequantize,
    derive_key_material,
    encrypt,
    params_for_segment,
    quantize,
)
from .errors import HecgError
from .mlkey import KeyPredictor, TrainConfig, TrainingReport, build_dataset, predict_params, train
from .pipeline import FileStore, Pacing, SegmentSource, run_pipeline, synthetic_ecg

__version__ = "0.1.0"

# The one cipher core is pure Python and numpy; perfbench records both
# names in its run metadata, so they stay, as constants.
HAVE_COMPILED = False


def backend_name() -> str:
    return "pure-python"


__all__ = [
    "HAVE_COMPILED",
    "backend_name",
    "ChaoticParams",
    "KeySalt",
    "SegmentStats",
    "apply_salt",
    "derive_params",
    "iterate_logistic",
    "EncryptedRecord",
    "KeyMaterial",
    "Mode",
    "QuantizationRange",
    "QuantizedSegment",
    "SignalSegment",
    "compute_stats",
    "decrypt",
    "decrypt_bytes",
    "dequantize",
    "derive_key_material",
    "encrypt",
    "params_for_segment",
    "quantize",
    "HecgError",
    "KeyPredictor",
    "TrainConfig",
    "TrainingReport",
    "build_dataset",
    "predict_params",
    "train",
    "FileStore",
    "Pacing",
    "SegmentSource",
    "run_pipeline",
    "synthetic_ecg",
    "__version__",
]
