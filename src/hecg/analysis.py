"""Statistical security battery: entropy, randomness, correlation, spectra.

Every function here is a pure reduction over byte or sample sequences.
Histogram256 counts bytes, and every byte statistic reads its counts; a
corpus's counts are the sums of its segments' counts.

Granularity matters for several metrics: a 300-byte segment cannot reach
the entropy or decorrelation levels that a concatenated corpus can, so
the corpus-level report computes entropy, min-entropy, monobit and
autocorrelation on concatenated ciphertext while per-segment values get
their own (looser) summaries.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .chaos import ChaoticParams
from .cipher import SignalSegment, batch_slices, decrypt_bytes, encrypt, params_for_segment, quantize
from .errors import (
    EmptyInputError,
    InsufficientDataError,
    ParameterDomainError,
    ShapeError,
    UndefinedStatisticError,
)

# Largest autocorrelation lag the corpus battery reports.
MAX_LAG = 50
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)  # 1 bits per byte


# ---------------------------------------------------------------------------
# histograms and entropy


@dataclass(frozen=True)
class Histogram256:
    """Byte-value histogram with exact integer counts. h1 + h2 counts the
    bytes of both; from_blocks counts a concatenation block by block."""

    counts: np.ndarray
    total: int

    @classmethod
    def from_bytes(cls, data) -> "Histogram256":
        arr = np.asarray(data, dtype=np.uint8)
        return cls(counts=np.bincount(arr, minlength=256), total=int(arr.size))

    @classmethod
    def from_blocks(cls, blocks) -> "Histogram256":
        return sum(map(cls.from_bytes, blocks), cls.from_bytes(()))

    def __add__(self, other: "Histogram256") -> "Histogram256":
        return Histogram256(counts=self.counts + other.counts, total=self.total + other.total)

    def frequencies(self) -> np.ndarray:
        if self.total == 0:
            raise EmptyInputError("histogram of empty input")
        return self.counts / self.total

    def monobit_p(self) -> float:
        """monobit_test of the counted bytes, whose S is 2 * (1 bits) - n."""
        n = 8 * self.total
        if n < 100:
            raise InsufficientDataError(f"monobit needs >= 100 bits, got {n}")
        return float(math.erfc(abs(2 * int(self.counts @ _POPCOUNT) - n) / math.sqrt(2.0 * n)))

    def min_entropy(self) -> float:
        """min_entropy_mcv of the counted bytes."""
        if self.total < 256:
            raise InsufficientDataError(f"MCV estimator needs >= 256 bytes, got {self.total}")
        return _mcv_bits(self.counts, self.total)


def shannon_entropy(data) -> float:
    """Empirical Shannon entropy in bits over the 256-bin byte histogram."""
    return _entropy_of_freqs(Histogram256.from_bytes(data).frequencies())


def _entropy_of_freqs(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in bits; symmetric and bounded by 1."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = 0.5 * (p + q)
    return _entropy_of_freqs(m) - 0.5 * (_entropy_of_freqs(p) + _entropy_of_freqs(q))


def histogram_stats(data, hist: Histogram256) -> dict:
    """Variance, std dev, entropy and uniformity of bytes whose Histogram256 is hist.

    Uniformity is 1 - JSD(empirical || uniform) in bits, so 1.0 means a
    perfectly flat histogram and 0 approaches a point mass.

    The variance is np.var's population variance, bit for bit: the same
    subtract, square and pairwise sum, done in place in one float64 copy
    of the bytes, so the call holds one array of the input's size at a
    time. std_dev is its square root, as np.std takes it.
    """
    p = hist.frequencies()
    uniform = np.full(256, 1.0 / 256.0)
    d = np.asarray(data, dtype=np.uint8).astype(np.float64)
    d -= np.add.reduce(d) / hist.total
    np.square(d, out=d)
    variance = float(np.add.reduce(d) / hist.total)
    return {
        "variance": variance,
        "std_dev": math.sqrt(variance),
        "entropy": _entropy_of_freqs(p),
        "uniformity": 1.0 - js_divergence(p, uniform),
    }


def histogram_distance(h1: Histogram256, h2: Histogram256) -> dict:
    """Chi-squared (on normalized frequencies) and JSD between histograms.

    The symmetric chi-squared form sum((p-q)^2 / (p+q)) keeps corpora of
    different sizes comparable and empty bins harmless.
    """
    if h1.total <= 0 or h2.total <= 0:
        raise EmptyInputError("histogram totals must be positive")
    p = h1.frequencies()
    q = h2.frequencies()
    denom = p + q
    nz = denom > 0
    chi2 = float(np.sum((p[nz] - q[nz]) ** 2 / denom[nz]))
    return {"chi_squared": chi2, "js_divergence": js_divergence(p, q)}


# ---------------------------------------------------------------------------
# randomness tests


def monobit_test(data) -> float:
    """NIST frequency (monobit) p-value, pass iff p > 0.01: with S the sum
    of (2b - 1) over the n bits b of the bytes, p = erfc(|S| / sqrt(2n))."""
    return Histogram256.from_bytes(data).monobit_p()


def min_entropy_mcv(data) -> float:
    """Most-common-value min-entropy lower bound in bits per byte.

    p_hat = max count / n, upper-bounded at 99% confidence, then
    -log2(p_u). Conservative by construction, never above Shannon.
    """
    return Histogram256.from_bytes(data).min_entropy()


def _mcv_bits(counts: np.ndarray, n: int) -> float:
    """-log2 of the 99% upper bound on the most common of n symbols'
    probability, p_hat = max(counts) / n."""
    p_hat = float(np.max(counts)) / n
    p_u = min(1.0, p_hat + 2.576 * math.sqrt(p_hat * (1.0 - p_hat) / (n - 1)))
    return -math.log2(p_u)


def min_entropy_mcv_blocks(data) -> float:
    """Supplementary MCV bound on non-overlapping 2-byte blocks, per byte.

    Treats each block as one symbol, so pairwise dependence lowers the
    bound; reported alongside the plain per-byte estimate. The symbols are
    counted into 65 536 bins over a big-endian uint16 view of the bytes,
    so no symbol array is built beside them.
    """
    arr = np.ascontiguousarray(data, dtype=np.uint8)
    nblocks = arr.size // 2
    if nblocks < 256:
        raise InsufficientDataError(f"block MCV needs >= 256 2-byte blocks, got {nblocks}")
    counts = np.bincount(arr[: 2 * nblocks].view(">u2"), minlength=65536)
    return _mcv_bits(counts, nblocks) / 2


@dataclass(frozen=True)
class MinEntropySummary:
    """Distribution of per-segment MCV lower bounds (bits/byte)."""

    median: float
    iqr: float
    p5: float
    p95: float
    per_segment_bits: list

    @classmethod
    def from_segments(cls, segment_bytes_list) -> "MinEntropySummary":
        bounds = [min_entropy_mcv(b) for b in segment_bytes_list]
        arr = np.asarray(bounds)
        return cls(
            per_segment_bits=[float(b) for b in bounds],
            median=float(np.median(arr)),
            iqr=float(np.percentile(arr, 75) - np.percentile(arr, 25)),
            p5=float(np.percentile(arr, 5)),
            p95=float(np.percentile(arr, 95)),
        )


# ---------------------------------------------------------------------------
# correlation


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two 1-D float64 arrays by numpy's own
    sum-of-products loop (einsum at its default optimize=False never
    reaches BLAS), so its bits do not depend on a BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def pearson_correlation(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.size < 2:
        raise ShapeError(f"need equal lengths >= 2, got {a.shape} and {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    na = math.sqrt(_dot(da, da))
    nb = math.sqrt(_dot(db, db))
    if na == 0.0 or nb == 0.0:
        raise UndefinedStatisticError("correlation undefined for constant input")
    return _dot(da, db) / (na * nb)


def autocorrelation(data, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation of the mean-removed sequence.

    Returns lags 0..max_lag with the lag-0 value fixed at 1.0. Reported
    conventions differ, so the corpus report also gives the raw
    (unnormalized) lag-0 autocovariance, the variance of the values.

    The products do not use numpy.dot: OpenBLAS splits a dot of more than
    10 000 elements over its thread pool, which changes the last bits of
    the result with the thread count and stalls when the pool has more
    threads than the process has CPUs (a CPU quota or affinity mask
    narrower than the machine). _dot sums in one thread, in a fixed order.

    The mean is removed in place in the function's own float64 copy of
    the data, the one array of the input's size it holds; a float64 input
    is left as it was.
    """
    d = np.array(data, dtype=np.float64)
    n = d.size
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if n <= max_lag:
        raise InsufficientDataError(f"need length > max_lag, got {n} <= {max_lag}")
    d -= d.mean()
    denom = _dot(d, d)
    if denom == 0.0:
        raise UndefinedStatisticError("autocorrelation undefined for constant input")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = _dot(d[:-k], d[k:]) / denom
    return out


# ---------------------------------------------------------------------------
# spectra


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


def power_spectrum(samples, nfft: int | None = None) -> np.ndarray:
    """|FFT|^2 along the last axis of the input zero-padded to nfft
    (default: the next power of two), bins 0..nfft/2 (numpy.fft.rfft)."""
    x = np.asarray(samples, dtype=np.float64)
    return np.abs(np.fft.rfft(x, nfft or _next_pow2(x.shape[-1]), axis=-1)) ** 2


def _flatness_rows(x: np.ndarray) -> np.ndarray:
    """spectral_flatness of each row of a 2-D float64 array."""
    if x.shape[1] < 8:
        raise InsufficientDataError(f"flatness needs >= 8 samples, got {x.shape[1]}")
    d = x - x.mean(axis=1, keepdims=True)
    if not np.all(np.any(d, axis=1)):
        raise UndefinedStatisticError("flatness undefined for constant signal")
    half = x.shape[1] // 2
    nfft = _next_pow2(half)
    p = 0.5 * (power_spectrum(d[:, :half], nfft) + power_spectrum(d[:, half : 2 * half], nfft))
    bins = p[:, 1 : nfft // 2 + 1]
    flat = np.zeros(len(x))
    ok = ~np.any(bins <= 0.0, axis=1)
    good = bins[ok]
    flat[ok] = np.exp(np.mean(np.log(good), axis=1)) / np.mean(good, axis=1)
    return flat


def spectral_flatness(samples) -> float:
    """Geometric over arithmetic mean of the averaged power spectrum.

    Protocol: remove the mean, split into two non-overlapping halves,
    zero-pad each to the next power of two, average the two power
    spectra, then take GM/AM over bins 1..nfft/2 (DC excluded). The
    two-segment average keeps the white-noise baseline near 0.77 instead
    of the single-periodogram 0.56, matching reported flatness scales
    for byte-level white spectra. A spectrum with an empty bin gives 0.
    """
    return float(_flatness_rows(np.asarray(samples, dtype=np.float64).reshape(1, -1))[0])


def segment_flatness(all_bytes: np.ndarray, lengths: list) -> list:
    """spectral_flatness of each segment of a concatenation of segments
    of the given lengths, computed BATCH_ROWS segments at a time."""
    out = []
    start = 0
    for s in batch_slices(lengths):
        n = lengths[s.start]
        stop = start + (s.stop - s.start) * n
        rows = all_bytes[start:stop].reshape(s.stop - s.start, n).astype(np.float64)
        out.extend(_flatness_rows(rows).tolist())
        start = stop
    return out


# ---------------------------------------------------------------------------
# key space


def key_space_bits(param_resolution_r: float, param_resolution_x0: float) -> float:
    """Analytic key-space size log2((0.4/res_r) * (0.8/res_x0))."""
    if param_resolution_r <= 0 or param_resolution_x0 <= 0:
        raise ParameterDomainError("resolutions must be positive")
    return math.log2((0.4 / param_resolution_r) * (0.8 / param_resolution_x0))


def empirical_key_space_bits(observed, step: float) -> float:
    """log2 of the number of distinct observed (r, x0) pairs on a grid."""
    if step <= 0:
        raise ParameterDomainError("quantization step must be positive")
    pairs = {(round(p.r / step), round(p.x0 / step)) for p in observed}
    if not pairs:
        raise EmptyInputError("no observed parameter pairs")
    return math.log2(len(pairs))


# ---------------------------------------------------------------------------
# fidelity


def normalize_unit(samples: np.ndarray, lo: float, hi: float):
    """Affine map of samples onto [0, 1] in the reference frame [lo, hi]."""
    x = np.asarray(samples, dtype=np.float64)
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def clean_reference(original) -> tuple[float, float, np.ndarray]:
    """The original's min, max and samples normalized to [0,1] on them: the
    frame every recovered or attacked copy of it is measured in."""
    lo, hi = float(np.min(original.samples)), float(np.max(original.samples))
    return lo, hi, normalize_unit(original.samples, lo, hi)


def normalized_errors(clean: np.ndarray, got: np.ndarray) -> tuple[float, float]:
    """MSE and MAE of got against clean, both [0,1]-normalized samples.

    Raises ShapeError unless both hold the same number of samples.
    """
    if clean.shape != got.shape:
        raise ShapeError(f"length mismatch {clean.shape} vs {got.shape}")
    diff = clean - got
    # np.mean's pairwise sum and one division, without its per-call overhead
    n = diff.size
    return float((diff * diff).sum() / n), float(np.abs(diff).sum() / n)


def fidelity(reference: list, recovered: list) -> dict:
    """Reconstruction fidelity of recovered segments against reference ones.

    Each pair is measured by normalized_errors in its reference segment's
    clean_reference frame, then MSE and MAE are averaged over segments and
    PSNR (dB, peak 1) is taken from the mean MSE; it is inf when every
    pair matches. Raises ShapeError unless both lists hold the same number
    of segments, at least one, and each pair the same number of samples.
    """
    if not reference or len(reference) != len(recovered):
        raise ShapeError(
            f"{len(recovered)} recovered segments for {len(reference)} reference segments"
        )
    mse = mae = 0.0
    for ref, back in zip(reference, recovered):
        lo, hi, clean = clean_reference(ref)
        pair_mse, pair_mae = normalized_errors(clean, normalize_unit(back.samples, lo, hi))
        mse += pair_mse
        mae += pair_mae
    mse /= len(reference)
    return {
        "mse": mse,
        "psnr_db": math.inf if mse == 0 else 10.0 * math.log10(1.0 / mse),
        "mae": mae / len(reference),
    }


# ---------------------------------------------------------------------------
# sensitivity


def _perturb_inward(value: float, delta: float, hi: float) -> float:
    up = value + delta
    if up < hi:
        return up
    return value - delta


def key_sensitivity_test(
    segment: SignalSegment, params: ChaoticParams, delta: float = 1e-10
) -> dict:
    """Decrypt with params perturbed by delta in r and in x0 separately.

    Reports the worst case over both perturbations: the largest absolute
    byte difference and the largest (most incriminating) |correlation|
    against the original quantized bytes.
    """
    if delta <= 0:
        raise ParameterDomainError(f"delta must be positive, got {delta}")
    record = encrypt(segment, params)
    reference = quantize(segment).bytes.astype(np.int16)
    worst_diff = 0
    worst_corr = 0.0
    for wrong in (
        ChaoticParams(_perturb_inward(params.r, delta, 4.0), params.x0),
        ChaoticParams(params.r, _perturb_inward(params.x0, delta, 0.9)),
    ):
        got = decrypt_bytes(record, wrong).astype(np.int16)
        worst_diff = max(worst_diff, int(np.max(np.abs(got - reference))))
        try:
            c = pearson_correlation(reference, got)
        except UndefinedStatisticError:
            c = 0.0
        if abs(c) > abs(worst_corr):
            worst_corr = c
    return {"max_byte_diff": worst_diff, "correlation": worst_corr}


def plaintext_sensitivity_test(
    segment: SignalSegment,
    params: ChaoticParams,
    flip_index: int,
    flip_amount: float,
) -> dict:
    """Re-encrypt after changing one sample; keys refresh per segment.

    The modified segment gets freshly derived biometric params, so a one
    sample change shifts mu/sigma and replaces the entire keystream.
    """
    if not (0 <= flip_index < len(segment)):
        raise ShapeError(f"flip_index {flip_index} outside segment of {len(segment)}")
    record = encrypt(segment, params)
    modified_samples = segment.samples.copy()
    modified_samples[flip_index] += flip_amount
    modified = SignalSegment(samples=modified_samples, sample_rate=segment.sample_rate)
    record2 = encrypt(modified, params_for_segment(modified))
    c1 = np.frombuffer(record.ciphertext, dtype=np.uint8).astype(np.int16)
    c2 = np.frombuffer(record2.ciphertext, dtype=np.uint8).astype(np.int16)
    return {
        "max_byte_diff": int(np.max(np.abs(c1 - c2))),
        "byte_change_rate": float(np.mean(c1 != c2)),
    }


# ---------------------------------------------------------------------------
# corpus report


@dataclass
class AnalysisReport:
    """Full statistics battery for one segment or a corpus; serializable.

    Corpus-level statistics (entropy, monobit, min-entropy,
    autocorrelation) are computed on concatenated ciphertext; the
    per-segment summaries sit alongside them.
    """

    shannon_entropy_bits: float
    monobit_p_value: float
    pearson_correlation: float
    autocorrelation: list
    histogram_stats: dict
    spectral_flatness: float
    min_entropy_bits: float
    quality: dict
    timing: dict
    segment_count: int = 1
    per_segment_entropy_mean: float = 0.0
    monobit_pass_fraction: float = 1.0
    autocorr_raw_lag0: float = 0.0
    min_entropy_block2_bits: float = 0.0

    def validate(self):
        """Invariant checks: finiteness and, when quality was measured
        (its block is empty otherwise), the PSNR/MSE identity."""
        if self.quality:
            mse = self.quality["mse"]
            psnr = self.quality["psnr_db"]
            if mse > 0:
                expect = 10.0 * math.log10(1.0 / mse)
                if abs(psnr - expect) > 1e-9:
                    raise ValueError(f"psnr {psnr} inconsistent with mse {mse}")
            elif not math.isinf(psnr):
                raise ValueError("zero mse must report infinite psnr")
        for name, value in self.flat_items():
            if name.startswith("quality.psnr_db"):
                continue
            if not math.isfinite(value):
                raise ValueError(f"non-finite report field {name}={value}")

    def flat_items(self):
        """(name, value) pairs for the one-metric-per-line text form."""
        items = []
        for name, value in asdict(self).items():
            if isinstance(value, dict):
                for k, v in value.items():
                    items.append((f"{name}.{k}", float(v)))
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    items.append((f"{name}[{i}]", float(v)))
            else:
                items.append((name, float(value)))
        return items

    def to_flat_text(self) -> str:
        return "\n".join(f"{k} {v:.17g}" for k, v in self.flat_items()) + "\n"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls(**json.loads(text))


def analyze_corpus(segments: list, blocks: list, reference: list | None = None) -> tuple:
    """The battery's AnalysisReport on per-segment byte blocks, and their summed Histogram256.

    segments: the SignalSegments the blocks hold, encrypted or not, as a
    reader gets them back; blocks: one uint8 array per segment. quality is
    fidelity(reference, segments) when a reference is given, else empty:
    nothing was measured. timing.decrypt_seconds is zero, for the caller to
    fill in.
    """
    if not segments or len(segments) != len(blocks):
        raise ShapeError("need one block per segment")

    all_bytes = np.concatenate(blocks)
    flatnesses = segment_flatness(all_bytes, [len(b) for b in blocks])
    seg_entropies = []
    correlations = []
    monobit_passes = 0
    corpus = Histogram256.from_bytes(())
    for seg, block in zip(segments, blocks):
        h = Histogram256.from_bytes(block)  # one per segment, held for one pass
        corpus += h
        seg_entropies.append(_entropy_of_freqs(h.frequencies()))
        correlations.append(pearson_correlation(seg.samples, block))
        if h.monobit_p() > 0.01:
            monobit_passes += 1

    n_seg = len(segments)
    hist = histogram_stats(all_bytes, corpus)
    report = AnalysisReport(
        shannon_entropy_bits=hist["entropy"],
        monobit_p_value=corpus.monobit_p(),
        pearson_correlation=float(np.mean(correlations)),
        autocorrelation=[float(v) for v in autocorrelation(all_bytes, MAX_LAG)],
        histogram_stats=hist,
        spectral_flatness=float(np.mean(flatnesses)),
        min_entropy_bits=corpus.min_entropy(),
        quality={} if reference is None else fidelity(reference, segments),
        timing={"decrypt_seconds": 0.0},
        segment_count=n_seg,
        per_segment_entropy_mean=float(np.mean(seg_entropies)),
        monobit_pass_fraction=monobit_passes / n_seg,
        autocorr_raw_lag0=hist["variance"],
        min_entropy_block2_bits=min_entropy_mcv_blocks(all_bytes),
    )
    report.validate()
    return report, corpus
