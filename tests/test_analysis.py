import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecg import analysis, cipher, pipeline
from hecg.analysis import (
    AnalysisReport,
    Histogram256,
    MinEntropySummary,
    autocorrelation,
    empirical_key_space_bits,
    fidelity,
    histogram_distance,
    histogram_stats,
    js_divergence,
    key_space_bits,
    key_sensitivity_test,
    min_entropy_mcv,
    min_entropy_mcv_blocks,
    monobit_test,
    normalized_errors,
    pearson_correlation,
    plaintext_sensitivity_test,
    power_spectrum,
    segment_flatness,
    shannon_entropy,
    spectral_flatness,
)
from hecg.chaos import ChaoticParams
from hecg.cipher import SignalSegment, decrypt, encrypt, params_for_segment
from hecg.errors import (
    EmptyInputError,
    InsufficientDataError,
    ParameterDomainError,
    ShapeError,
    UndefinedStatisticError,
)


class TestShannonEntropy:
    def test_constant_zero(self):
        assert shannon_entropy(np.full(100, 7, dtype=np.uint8)) == 0.0

    def test_each_value_once_is_eight(self):
        assert shannon_entropy(np.arange(256, dtype=np.uint8)) == pytest.approx(8.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            shannon_entropy(np.array([], dtype=np.uint8))

    def test_corpus_levels(self, ciphertexts):
        per_seg = [shannon_entropy(ct) for ct in ciphertexts]
        assert 7.0 <= np.mean(per_seg) <= 8.0
        concat = np.concatenate(ciphertexts)
        assert len(concat) >= 10_000
        assert 7.6 <= shannon_entropy(concat) <= 8.0

    @given(st.binary(min_size=1, max_size=512))
    @settings(max_examples=200)
    def test_bounds(self, data):
        h = shannon_entropy(np.frombuffer(data, dtype=np.uint8))
        assert 0.0 <= h <= 8.0


class TestMonobit:
    def test_alternating_bits(self):
        # 0b01010101 repeated: S = 0, p = 1
        assert monobit_test(np.full(64, 0x55, dtype=np.uint8)) == pytest.approx(1.0)

    def test_all_ones_fails(self):
        p = monobit_test(np.full(16, 0xFF, dtype=np.uint8))  # 128 bits
        assert p == pytest.approx(math.erfc(math.sqrt(64.0)))
        assert p < 1e-10

    def test_too_few_bits(self):
        with pytest.raises(InsufficientDataError):
            monobit_test(np.zeros(12, dtype=np.uint8))

    def test_encrypted_passes_plain_fails(self, encrypted_corpus, ciphertexts):
        segments, _, _, _ = encrypted_corpus
        from hecg.cipher import quantize

        enc_pass = np.mean([monobit_test(ct) > 0.01 for ct in ciphertexts])
        plain_fail = np.mean([monobit_test(quantize(s).bytes) < 0.01 for s in segments])
        assert enc_pass >= 0.95
        assert plain_fail >= 0.95

    def test_calibration_on_random_bits(self):
        # seeded unbiased bytes: pass rate at alpha=0.01 must sit in the
        # binomial band around 0.99
        rng = np.random.default_rng(90022)
        passes = sum(
            monobit_test(rng.integers(0, 256, 300).astype(np.uint8)) > 0.01 for _ in range(1000)
        )
        assert 0.975 <= passes / 1000 <= 0.998


class TestPearson:
    def test_identity(self):
        a = np.array([1.0, 2.0, 4.0, 8.0])
        assert pearson_correlation(a, a) == pytest.approx(1.0)

    def test_negation(self):
        a = np.array([1.0, -2.0, 3.0, -4.0])
        assert pearson_correlation(a, -a) == pytest.approx(-1.0)

    def test_constant_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            pearson_correlation(np.ones(10), np.arange(10.0))

    def test_corpus_decorrelation(self, encrypted_corpus, ciphertexts):
        segments, _, _, _ = encrypted_corpus
        rs = [
            pearson_correlation(seg.samples, ct) for seg, ct in zip(segments, ciphertexts)
        ]
        assert abs(np.mean(rs)) < 0.02
        # per-segment magnitudes sit at the 1/sqrt(n) noise floor
        assert np.mean(np.abs(rs) < 0.05) >= 0.45
        pooled = pearson_correlation(
            np.concatenate([s.samples for s in segments]), np.concatenate(ciphertexts)
        )
        assert abs(pooled) < 0.02


class TestAutocorrelation:
    def test_white_noise_bound(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 256, 4096).astype(np.uint8)
        rho = autocorrelation(x, 100)
        assert rho[0] == 1.0
        inside = np.mean(np.abs(rho[1:]) < 3.0 / math.sqrt(len(x)))
        assert inside > 0.95

    def test_sine_oscillates(self):
        # plaintext is NOT decorrelated: the biased estimator scales peaks
        # by (1 - k/n), so a 50-sample period at n=500 peaks near 0.9
        t = np.arange(500)
        x = np.sin(2 * np.pi * t / 50.0)
        rho = autocorrelation(x, 100)
        assert rho[50] > 0.85
        assert rho[25] < -0.85
        assert rho[100] > 0.75

    def test_encrypted_corpus_decorrelated(self, encrypted_corpus, ciphertexts):
        # corpus-concatenated ciphertext; per-300-byte segments sit on a
        # 1/sqrt(n)=0.058 noise floor and segments keyed inside the
        # period-3 tangency window leak lag-3k structure into their
        # stream, so the 0.05 bound holds at corpus granularity
        rho = autocorrelation(np.concatenate(ciphertexts), 50)
        assert np.max(np.abs(rho[1:])) < 0.05

    def test_constant_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            autocorrelation(np.ones(100), 10)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            autocorrelation(np.arange(10.0), 10)

    def test_matches_blas_dot_reference(self, encrypted_corpus, ciphertexts):
        rng = np.random.default_rng(7)
        t = np.arange(500)
        for x in (
            rng.integers(0, 256, 4096).astype(np.uint8),
            np.sin(2 * np.pi * t / 50.0),
            np.concatenate(ciphertexts),
            np.concatenate([s.samples for s in encrypted_corpus[0]]),
        ):
            np.testing.assert_allclose(
                autocorrelation(x, 100), _np_dot_autocorrelation(x, 100), rtol=0, atol=1e-12
            )

    def test_bits_independent_of_blas_threads(self):
        # OpenBLAS splits a dot of more than 10 000 elements over its pool,
        # whose size it caps at the CPU count: on a 1-CPU runner every
        # setting below gives one thread and this test cannot tell the
        # kernels apart.
        script = (
            "import hashlib, numpy as np\n"
            "from hecg.analysis import autocorrelation, pearson_correlation\n"
            "rng = np.random.default_rng(3)\n"
            "x = rng.integers(0, 256, 45_000).astype(np.uint8)\n"
            "a = rng.standard_normal(45_000)\n"
            "b = rng.standard_normal(45_000) + 0.1 * a\n"
            "sha = hashlib.sha256(autocorrelation(x, 50).tobytes())\n"
            "sha.update(np.float64(pearson_correlation(a, b)).tobytes())\n"
            "print(sha.hexdigest())\n"
        )
        src = str(Path(analysis.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
            )
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1] == outs[2]


def _np_dot_autocorrelation(data, max_lag: int) -> np.ndarray:
    """autocorrelation as it was computed with np.dot, kept as an oracle."""
    x = np.asarray(data, dtype=np.float64)
    d = x - x.mean()
    denom = float(np.dot(d, d))
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = float(np.dot(d[:-k], d[k:])) / denom
    return out


class TestHistogramStats:
    def test_uniform_uniformity_one(self):
        data = np.arange(256, dtype=np.uint8)
        stats = histogram_stats(data, Histogram256.from_bytes(data))
        assert stats["uniformity"] == pytest.approx(1.0)
        assert stats["entropy"] == pytest.approx(8.0)

    def test_point_mass(self):
        # closed form: JSD(delta || uniform) = H((delta+u)/2) - 4 with
        # mixture mass 257/512 at the point and 1/512 elsewhere
        m_point = 257.0 / 512.0
        m_rest = 1.0 / 512.0
        h_mix = -(m_point * math.log2(m_point) + 255 * m_rest * math.log2(m_rest))
        jsd_expected = h_mix - 4.0
        data = np.zeros(512, dtype=np.uint8)
        stats = histogram_stats(data, Histogram256.from_bytes(data))
        assert stats["entropy"] == 0.0
        assert stats["uniformity"] == pytest.approx(1.0 - jsd_expected, abs=1e-12)
        assert jsd_expected == pytest.approx(0.98155, abs=1e-4)
        assert stats["variance"] == 0.0

    def test_encrypted_more_uniform_than_plain(self, encrypted_corpus, ciphertexts):
        segments, _, _, _ = encrypted_corpus
        from hecg.cipher import quantize

        enc = np.concatenate(ciphertexts)
        plain = np.concatenate([quantize(s).bytes for s in segments])
        enc = histogram_stats(enc, Histogram256.from_bytes(enc))
        plain = histogram_stats(plain, Histogram256.from_bytes(plain))
        assert enc["uniformity"] > plain["uniformity"]
        assert enc["entropy"] > plain["entropy"]


class TestHistogramEquality:
    def test_equal_counts_and_totals_are_equal(self):
        data = np.arange(300) % 256
        h = Histogram256.from_bytes(data)
        assert h == Histogram256.from_bytes(data[::-1])
        assert h == Histogram256.from_blocks([data[:100], data[100:]])
        assert not h != Histogram256.from_bytes(data[::-1])
        # one byte moved to another bin, or one more byte counted
        assert h != Histogram256.from_bytes(np.r_[data[:-1], 0])
        assert h != Histogram256.from_bytes(np.r_[data, 0])
        assert h != Histogram256(counts=h.counts, total=h.total + 1)
        assert h != h.counts and h != None  # noqa: E711

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(Histogram256.from_bytes(np.zeros(4, dtype=np.uint8)))


class TestHistogramDistance:
    def test_identical_zero(self):
        h = Histogram256.from_bytes(np.arange(256, dtype=np.uint8))
        d = histogram_distance(h, h)
        assert d["chi_squared"] == 0.0
        assert d["js_divergence"] == 0.0

    def test_disjoint_support_max_jsd(self):
        h1 = Histogram256.from_bytes(np.zeros(100, dtype=np.uint8))
        h2 = Histogram256.from_bytes(np.full(100, 200, dtype=np.uint8))
        assert histogram_distance(h1, h2)["js_divergence"] == pytest.approx(1.0)

    def test_encrypted_streams_indistinguishable(self, encrypted_corpus, ciphertexts):
        # stream-level histograms of different "patients"
        _, slices, _, _ = encrypted_corpus
        hists = [Histogram256.from_bytes(np.concatenate(ciphertexts[sl])) for sl in slices]
        for i in range(len(hists)):
            for j in range(i + 1, len(hists)):
                assert histogram_distance(hists[i], hists[j])["js_divergence"] < 0.32

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200),
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200),
    )
    @settings(max_examples=100)
    def test_jsd_symmetric_bounded(self, a, b):
        h1 = Histogram256.from_bytes(np.asarray(a, dtype=np.uint8))
        h2 = Histogram256.from_bytes(np.asarray(b, dtype=np.uint8))
        d_ab = histogram_distance(h1, h2)["js_divergence"]
        d_ba = histogram_distance(h2, h1)["js_divergence"]
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert -1e-12 <= d_ab <= 1.0 + 1e-12


def _reference_fft_radix2(x: np.ndarray) -> np.ndarray:
    """The hand-written radix-2 FFT (along the last axis) that spectral
    flatness used before numpy.fft, kept as the reference it is compared
    with."""
    a = np.asarray(x, dtype=np.complex128)
    n = a.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"fft_radix2 needs a power-of-two length, got {n}")
    lead = a.shape[:-1]
    levels = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(levels):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    a = a[..., rev]
    half = 1
    while half < n:
        w = np.exp(-1j * np.pi * np.arange(half) / half)
        a = a.reshape(*lead, -1, 2 * half)
        even = a[..., :half]
        odd = a[..., half:] * w
        a = np.concatenate([even + odd, even - odd], axis=-1).reshape(*lead, n)
        half *= 2
    return a


def _reference_flatness(samples) -> float:
    """spectral_flatness as computed with _reference_fft_radix2."""
    d = np.asarray(samples, dtype=np.float64)
    d = d - d.mean()
    half = len(d) // 2
    nfft = analysis._next_pow2(half)
    padded = np.zeros((2, nfft))
    padded[0, :half] = d[:half]
    padded[1, :half] = d[half : 2 * half]
    p = np.abs(_reference_fft_radix2(padded)) ** 2
    bins = (0.5 * (p[0] + p[1]))[1 : nfft // 2 + 1]
    if np.any(bins <= 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(bins))) / np.mean(bins))


class TestFFT:
    def naive_dft(self, x):
        n = len(x)
        k = np.arange(n)
        return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x

    def test_matches_direct_dft(self):
        # 50 samples are zero-padded to 64
        rng = np.random.default_rng(3)
        for n in [64] * 10 + [50] * 5:
            x = rng.normal(0.0, 1.0, n)
            got = power_spectrum(x)
            want = (np.abs(self.naive_dft(np.pad(x, (0, 64 - n)))) ** 2)[:33]
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-9

    def test_rows_match_one_row_calls(self):
        x = np.random.default_rng(4).normal(0.0, 1.0, (9, 256))
        got = power_spectrum(x)
        assert got.shape == (9, 129)
        assert np.array_equal(got, np.stack([power_spectrum(row) for row in x]))


class TestSpectralFlatness:
    def test_sine_low(self):
        t = np.arange(300) / 500.0
        assert spectral_flatness(np.sin(2 * np.pi * 10.0 * t)) < 0.1

    def test_white_noise_high(self):
        # 1st percentile over 1000 seeded draws was 0.66; assert the
        # frozen floor
        rng = np.random.default_rng(42)
        flats = [
            spectral_flatness(rng.integers(0, 256, 300).astype(float)) for _ in range(1000)
        ]
        assert np.percentile(flats, 1) > 0.5
        assert np.mean(flats) == pytest.approx(0.766, abs=0.02)

    def test_encrypted_in_band(self, ciphertexts):
        flats = np.array([spectral_flatness(ct) for ct in ciphertexts])
        assert np.mean((flats >= 0.6) & (flats <= 0.85)) >= 0.9

    def test_plain_low(self, corpus):
        segments, _ = corpus
        from hecg.cipher import quantize

        flats = [spectral_flatness(quantize(s).bytes) for s in segments]
        assert max(flats) < 0.4

    def test_segment_flatness_matches_one_segment_calls(self, ciphertexts):
        # more than two chunks of ciphertext, then runs of other lengths; the
        # alternating 16-byte block has empty bins and a flatness of 0
        blocks = list(ciphertexts) + [np.tile([0, 255], 8).astype(np.uint8)] * 3
        blocks += [np.asarray(c[:100]) for c in ciphertexts[:70]]
        got = analysis.segment_flatness(np.concatenate(blocks), [len(b) for b in blocks])
        assert got == [spectral_flatness(b) for b in blocks]
        assert got[len(ciphertexts)] == 0.0

    def test_matches_radix2_reference(self, ciphertexts):
        rng = np.random.default_rng(8)
        blocks = [np.asarray(c) for c in ciphertexts]
        for n in (16, 100, 301, 1024):
            blocks += [rng.integers(0, 256, n).astype(np.uint8) for _ in range(20)]
        blocks += [rng.normal(0.0, 1.0, n) for n in (64, 300, 777) for _ in range(20)]
        want = np.array([_reference_flatness(b) for b in blocks])
        assert np.all(want > 0)
        one = np.array([spectral_flatness(b) for b in blocks])
        batched = np.array(segment_flatness(np.concatenate(blocks), [len(b) for b in blocks]))
        for got in (one, batched):
            assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_constant_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            spectral_flatness(np.ones(64))
        with pytest.raises(InsufficientDataError):
            spectral_flatness(np.arange(4.0))


class TestMinEntropy:
    def test_constant_zero(self):
        assert min_entropy_mcv(np.zeros(512, dtype=np.uint8)) == 0.0

    def test_uniform_large(self):
        rng = np.random.default_rng(11)
        assert min_entropy_mcv(rng.integers(0, 256, 65536).astype(np.uint8)) >= 7.0

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            min_entropy_mcv(np.zeros(100, dtype=np.uint8))

    def test_never_exceeds_shannon(self, ciphertexts):
        for ct in ciphertexts[:20]:
            assert min_entropy_mcv(ct) <= shannon_entropy(ct)

    @given(st.binary(min_size=256, max_size=2048))
    @settings(max_examples=100)
    def test_bound_property(self, data):
        arr = np.frombuffer(data, dtype=np.uint8)
        me = min_entropy_mcv(arr)
        assert 0.0 <= me <= 8.0
        assert me <= shannon_entropy(arr) + 1e-12

    def test_summary_fields(self, ciphertexts):
        summary = MinEntropySummary.from_segments(ciphertexts)
        assert len(summary.per_segment_bits) == len(ciphertexts)
        assert all(0.0 <= b <= 8.0 for b in summary.per_segment_bits)
        assert summary.p5 <= summary.median <= summary.p95
        assert summary.iqr >= 0.0


class TestKeySpace:
    def test_analytic(self):
        assert key_space_bits(0.01, 0.01) == pytest.approx(math.log2(3200))

    def test_reported_figure_consistency(self):
        # resolution chosen so 0.32/(res_r*res_x0) = 2^12.94
        res = math.sqrt(0.32 / 2**12.94)
        assert key_space_bits(res, res) == pytest.approx(12.94, abs=1e-9)

    def test_empirical(self):
        single = [ChaoticParams(3.8, 0.4)]
        assert empirical_key_space_bits(single, 0.001) == 0.0
        many = [ChaoticParams(3.6 + 0.39 * (i + 1) / 65, 0.5) for i in range(64)]
        assert empirical_key_space_bits(many, 1e-6) == pytest.approx(6.0)

    def test_bad_resolution(self):
        with pytest.raises(ParameterDomainError):
            key_space_bits(0.0, 0.1)
        with pytest.raises(ParameterDomainError):
            empirical_key_space_bits([ChaoticParams(3.8, 0.4)], -1.0)


class TestQualityMetrics:
    def test_identical(self):
        seg = SignalSegment(np.linspace(0, 1, 50), 500.0)
        qm = fidelity([seg], [seg])
        assert qm["mse"] == 0.0
        assert math.isinf(qm["psnr_db"])
        assert qm["mae"] == 0.0

    def test_psnr_identity(self):
        # mse 5e-6 must report ~53.01 dB
        mse, mae = normalized_errors(np.zeros(4), np.full(4, math.sqrt(5e-6)))
        assert mse == pytest.approx(5e-6)
        assert mae == pytest.approx(math.sqrt(5e-6))
        # an mse of 5e-6 through fidelity, in the frame of a reference on [0, 1]
        ref = SignalSegment(np.array([0.0, 0.0, 0.0, 1.0]), 500.0)
        back = SignalSegment(ref.samples + math.sqrt(2e-5) * np.array([1, 0, 0, 0]), 500.0)
        qm = fidelity([ref], [back])
        assert qm["mse"] == pytest.approx(5e-6)
        assert qm["psnr_db"] == pytest.approx(10 * math.log10(2e5), abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            normalized_errors(np.zeros(4), np.zeros(5))
        with pytest.raises(ShapeError):
            fidelity([SignalSegment(np.arange(4.0), 500.0)], [SignalSegment(np.arange(5.0), 500.0)])

    def test_roundtrip_quality(self, encrypted_corpus):
        from hecg.cipher import decrypt

        segments, _, records, params_list = encrypted_corpus
        mses, maes, backs = [], [], []
        for seg, rec, params in zip(segments[:50], records[:50], params_list[:50]):
            back = decrypt(rec, params, seg.sample_rate)
            qm = fidelity([seg], [back])
            mses.append(qm["mse"])
            maes.append(qm["mae"])
            backs.append(back)
        assert np.mean(mses) <= 1e-5
        assert np.mean(maes) <= 0.003
        got = fidelity(segments[:50], backs)
        assert got["mse"] == pytest.approx(np.mean(mses), rel=1e-12)
        assert got["mae"] == pytest.approx(np.mean(maes), rel=1e-12)
        assert got["psnr_db"] == 10 * math.log10(1 / got["mse"])
        with pytest.raises(ShapeError):
            fidelity(segments[:49], backs)


class TestSensitivity:
    def test_key_sensitivity(self, corpus):
        segments, _ = corpus
        seg = segments[0]
        res = key_sensitivity_test(seg, params_for_segment(seg))
        assert res["max_byte_diff"] > 200
        assert abs(res["correlation"]) < 0.2

    def test_zero_delta_rejected(self, corpus):
        segments, _ = corpus
        with pytest.raises(ParameterDomainError):
            key_sensitivity_test(segments[0], params_for_segment(segments[0]), delta=0.0)

    def test_plaintext_sensitivity(self, corpus):
        segments, _ = corpus
        seg = segments[1]
        params = params_for_segment(seg)
        span = float(seg.samples.max() - seg.samples.min())
        res = plaintext_sensitivity_test(seg, params, flip_index=10, flip_amount=span / 255.0)
        assert res["byte_change_rate"] > 0.95
        zero = plaintext_sensitivity_test(seg, params, flip_index=10, flip_amount=0.0)
        assert zero["max_byte_diff"] == 0
        assert zero["byte_change_rate"] == 0.0

    def test_flip_index_bounds(self, corpus):
        segments, _ = corpus
        with pytest.raises(ShapeError):
            plaintext_sensitivity_test(
                segments[0], params_for_segment(segments[0]), flip_index=500, flip_amount=0.1
            )


class TestAnalysisReport:
    def test_corpus_report_roundtrip(self, encrypted_corpus):
        segments, _, records, params_list = encrypted_corpus
        segments, records = segments[:30], records[:30]
        blocks = [np.frombuffer(r.ciphertext, dtype=np.uint8) for r in records]
        recovered = [decrypt(r, p) for r, p in zip(records, params_list)]
        report, _ = analysis.analyze_corpus(recovered, blocks, reference=segments)
        report.validate()
        parsed = AnalysisReport.from_json(report.to_json())
        assert parsed == report
        flat = report.to_flat_text()
        assert "shannon_entropy_bits" in flat
        for line in flat.strip().splitlines():
            name, value = line.rsplit(" ", 1)
            float(value)  # every line parses

    def test_psnr_consistency_enforced(self):
        report = AnalysisReport(
            shannon_entropy_bits=7.9,
            monobit_p_value=0.5,
            pearson_correlation=0.0,
            autocorrelation=[1.0, 0.01],
            histogram_stats={"variance": 1.0, "std_dev": 1.0, "entropy": 7.9, "uniformity": 0.9},
            spectral_flatness=0.7,
            min_entropy_bits=7.0,
            quality={"mse": 1e-6, "psnr_db": 50.0, "mae": 1e-3},  # inconsistent psnr
            timing={"decrypt_seconds": 1e-4},
        )
        with pytest.raises(ValueError):
            report.validate()


def test_js_divergence_self_zero():
    p = np.full(256, 1 / 256)
    assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


# Reference formulas, each of which holds two arrays the size of the
# corpus: np.var/np.std of a float64 copy, x - x.mean() beside x, and
# np.unique over uint64 symbols. histogram_stats, autocorrelation and
# min_entropy_mcv_blocks must give their bits from one such array.


def reference_variance_std(data) -> tuple:
    vals = np.asarray(data, dtype=np.uint8).astype(np.float64)
    return float(np.var(vals)), float(np.std(vals))


def reference_autocorrelation(data, max_lag: int) -> np.ndarray:
    x = np.asarray(data, dtype=np.float64)
    d = x - x.mean()
    denom = analysis._dot(d, d)
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = analysis._dot(d[:-k], d[k:]) / denom
    return out


def reference_min_entropy_blocks(data) -> float:
    arr = np.asarray(data, dtype=np.uint8)
    nblocks = arr.size // 2
    trimmed = arr[: nblocks * 2].reshape(nblocks, 2).astype(np.uint64)
    symbols = trimmed[:, 0] * 256 + trimmed[:, 1]
    _, counts = np.unique(symbols, return_counts=True)
    return analysis._mcv_bits(counts, nblocks) / 2


# 360 000 bytes is the audit workload's corpus: 24 streams of 50 segments.
CORPUS_SIZES = [300, 8191, 8193, 45_000, 360_000]


def _uniform_bytes(n: int) -> np.ndarray:
    return np.random.default_rng(n).integers(0, 256, n).astype(np.uint8)


def _plaintext_like_bytes(n: int) -> np.ndarray:
    # a quantized periodic wave plus noise: a peaked, correlated histogram
    rng = np.random.default_rng(n + 1)
    t = np.arange(n)
    wave = 100.0 + 60.0 * np.sin(2 * np.pi * t / 150.0) ** 9 + rng.normal(0.0, 6.0, n)
    return np.clip(np.rint(wave), 0, 255).astype(np.uint8)


@pytest.mark.parametrize("n", CORPUS_SIZES)
@pytest.mark.parametrize("make", [_uniform_bytes, _plaintext_like_bytes])
class TestCorpusStatisticsBits:
    def test_histogram_moments(self, n, make):
        data = make(n)
        stats = histogram_stats(data, Histogram256.from_bytes(data))
        variance, std_dev = reference_variance_std(data)
        assert stats["variance"].hex() == variance.hex()
        assert stats["std_dev"].hex() == std_dev.hex()

    def test_autocorrelation(self, n, make):
        data = make(n)
        want = reference_autocorrelation(data, analysis.MAX_LAG).tobytes()
        assert autocorrelation(data, analysis.MAX_LAG).tobytes() == want
        floats = data.astype(np.float64)
        before = floats.tobytes()
        assert autocorrelation(floats, analysis.MAX_LAG).tobytes() == want
        assert floats.tobytes() == before

    def test_min_entropy_blocks(self, n, make):
        data = make(n)
        if n < 512:
            with pytest.raises(InsufficientDataError):
                min_entropy_mcv_blocks(data)
            return
        assert min_entropy_mcv_blocks(data).hex() == reference_min_entropy_blocks(data).hex()


@pytest.mark.parametrize(
    "stat",
    [
        lambda d: histogram_stats(d, Histogram256.from_bytes(d)),
        lambda d: autocorrelation(d, analysis.MAX_LAG),
        min_entropy_mcv_blocks,
    ],
    ids=["histogram_stats", "autocorrelation", "min_entropy_mcv_blocks"],
)
def test_corpus_statistic_holds_one_float64_copy(stat):
    # numpy traces its array buffers, so the peak counts every array the
    # call makes; a float64 copy of the input is 8 bytes per byte
    data = _uniform_bytes(360_000)
    tracemalloc.start()
    try:
        stat(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * data.size + 256 * 1024


# Byte-wise references for the statistics that read a Histogram256: the
# np.unpackbits monobit formula the package used before it counted 1 bits
# from the histogram, and np.unique's counts of the byte values present.
# Each raises what the package raised for empty and short input.
_unpackbits = np.unpackbits


def reference_monobit(data) -> float:
    bits = _unpackbits(np.asarray(data, dtype=np.uint8))
    n = bits.size
    if n < 100:
        raise InsufficientDataError(f"monobit needs >= 100 bits, got {n}")
    s = 2 * int(np.sum(bits)) - n
    return float(math.erfc(abs(s) / math.sqrt(2.0 * n)))


def _present_counts(data) -> tuple:
    """(byte values present, their counts, n) by np.unique."""
    arr = np.asarray(data, dtype=np.uint8)
    if arr.size == 0:
        raise EmptyInputError("histogram of empty input")
    values, counts = np.unique(arr, return_counts=True)
    return values, counts, arr.size


def reference_shannon(data) -> float:
    _, counts, n = _present_counts(data)
    p = counts / n
    return float(-np.sum(p * np.log2(p)))


def reference_min_entropy(data) -> float:
    n = np.asarray(data, dtype=np.uint8).size
    if n < 256:
        raise InsufficientDataError(f"MCV estimator needs >= 256 bytes, got {n}")
    return analysis._mcv_bits(_present_counts(data)[1], n)


def reference_histogram_stats(data) -> dict:
    values, counts, n = _present_counts(data)
    p = np.zeros(256)
    p[values] = counts / n
    variance, std_dev = reference_variance_std(data)
    return {
        "variance": variance,
        "std_dev": std_dev,
        "entropy": reference_shannon(data),
        "uniformity": 1.0 - js_divergence(p, np.full(256, 1.0 / 256.0)),
    }


def _bits_or_error(fn, data):
    """fn(data) as float.hex (per key for a dict), or its error's type and
    message."""
    try:
        value = fn(data)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    if isinstance(value, dict):
        return {k: v.hex() for k, v in value.items()}
    return value.hex()


def _refuse_unpackbits(*args, **kwargs):
    raise AssertionError("np.unpackbits called")


COUNTED_STATS = {
    "monobit_test": (monobit_test, reference_monobit),
    "min_entropy_mcv": (min_entropy_mcv, reference_min_entropy),
    "shannon_entropy": (shannon_entropy, reference_shannon),
    "histogram_stats": (lambda d: histogram_stats(d, Histogram256.from_bytes(d)), reference_histogram_stats),
}


def _seeded_ciphertext(n: int) -> np.ndarray:
    """The first n bytes of the ciphertext of seeded synthetic 300-sample
    segments, each under its own biometric key."""
    count = -(-n // 300)
    segments = itertools.islice(pipeline.synthetic_ecg((count + 1) * 0.6, seed=2801), count)
    out = [np.frombuffer(encrypt(s, params_for_segment(s)).ciphertext, dtype=np.uint8) for s in segments]
    return np.concatenate(out + [np.zeros(0, dtype=np.uint8)])[:n]


@pytest.mark.parametrize("stat", sorted(COUNTED_STATS))
@pytest.mark.parametrize("n", [0, 12, 13, 255, 256, 300, 360_000])
@pytest.mark.parametrize("make", [_seeded_ciphertext, _plaintext_like_bytes], ids=["cipher", "plain"])
def test_counted_statistic_matches_bytewise_reference(stat, n, make, monkeypatch):
    fn, reference = COUNTED_STATS[stat]
    data = make(n)
    assert data.size == n
    want = _bits_or_error(reference, data)
    monkeypatch.setattr(np, "unpackbits", _refuse_unpackbits)
    assert _bits_or_error(fn, data) == want


@given(st.binary(max_size=2048))
@settings(max_examples=200, deadline=None)
def test_counted_statistics_match_bytewise_references_on_any_bytes(raw):
    data = np.frombuffer(raw, dtype=np.uint8)
    want = {name: _bits_or_error(ref, data) for name, (_, ref) in COUNTED_STATS.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "unpackbits", _refuse_unpackbits)
        got = {name: _bits_or_error(fn, data) for name, (fn, _) in COUNTED_STATS.items()}
    assert got == want


def test_counted_statistics_keep_their_errors():
    empty, short = np.zeros(0, dtype=np.uint8), np.zeros(12, dtype=np.uint8)
    cases = [
        (monobit_test, empty, InsufficientDataError, "monobit needs >= 100 bits, got 0"),
        (monobit_test, short, InsufficientDataError, "monobit needs >= 100 bits, got 96"),
        (min_entropy_mcv, empty, InsufficientDataError, "MCV estimator needs >= 256 bytes, got 0"),
        (min_entropy_mcv, short, InsufficientDataError, "MCV estimator needs >= 256 bytes, got 12"),
        (shannon_entropy, empty, EmptyInputError, "histogram of empty input"),
        (COUNTED_STATS["histogram_stats"][0], empty, EmptyInputError, "histogram of empty input"),
    ]
    for fn, data, kind, message in cases:
        with pytest.raises(kind) as err:
            fn(data)
        assert str(err.value) == message


def test_corpus_histogram_is_the_sum_of_the_segment_histograms(encrypted_corpus, ciphertexts, monkeypatch):
    segments, _, records, params_list = encrypted_corpus
    recovered = [decrypt(r, p) for r, p in zip(records, params_list)]
    plain = [np.asarray(cipher.quantize(s).bytes) for s in segments]
    for blocks in (ciphertexts, plain):
        concat = np.concatenate(blocks)
        monkeypatch.setattr(np, "unpackbits", _refuse_unpackbits)
        report, corpus = analysis.analyze_corpus(recovered, blocks)
        monkeypatch.undo()
        summed = sum(np.bincount(b, minlength=256) for b in blocks)
        assert corpus.counts.tolist() == summed.tolist() == np.bincount(concat, minlength=256).tolist()
        assert corpus.total == concat.size
        from_blocks = Histogram256.from_blocks(blocks)
        assert from_blocks == corpus
        # each report value read from the counts is the byte-wise reference's bits
        assert report.shannon_entropy_bits.hex() == reference_shannon(concat).hex()
        assert report.monobit_p_value.hex() == reference_monobit(concat).hex()
        assert report.min_entropy_bits.hex() == reference_min_entropy(concat).hex()
        assert {k: v.hex() for k, v in report.histogram_stats.items()} == _bits_or_error(
            reference_histogram_stats, concat
        )
        entropies = [reference_shannon(b) for b in blocks]
        assert report.per_segment_entropy_mean.hex() == float(np.mean(entropies)).hex()
        passes = sum(reference_monobit(b) > 0.01 for b in blocks)
        assert report.monobit_pass_fraction == passes / len(blocks)


# The battery takes its per-segment values a batch_slices run of segments
# at a time. Each must be the one-segment function's bits: _entropy_of_freqs
# of the segment's frequencies, Histogram256.monobit_p and
# pearson_correlation, at every length, flat rows among them.
BATTERY_LENGTHS = [*range(2, 70), 127, 128, 129, 255, 256, 257, 300, 511, 512, 1000, 1024, 4096]
FLAT_ROWS = (1, 6)


def _battery_rows(n: int, corpus: str) -> tuple:
    """(samples, bytes) of 9 segments of n samples as (9, n) arrays: seeded
    random walks, rows FLAT_ROWS constant, and either their ciphertext under
    each one's biometric key or their plain quantized bytes."""
    rng = np.random.default_rng(n)
    samples = np.cumsum(rng.normal(0.0, 1.0, (9, n)), axis=1)
    for i in FLAT_ROWS:
        samples[i] = 0.25
    segments = [SignalSegment(row, 500.0) for row in samples]
    if corpus == "cipher":
        blocks = [np.frombuffer(encrypt(s, params_for_segment(s)).ciphertext, dtype=np.uint8) for s in segments]
    else:
        blocks = [cipher.quantize(s).bytes for s in segments]
    return samples, np.array(blocks)


@pytest.mark.parametrize("corpus", ["cipher", "plain"])
def test_battery_rows_are_the_one_segment_values(corpus):
    for n in BATTERY_LENGTHS:
        samples, rows = _battery_rows(n, corpus)
        counts = analysis._row_counts(rows)
        hists = [Histogram256.from_bytes(row) for row in rows]
        assert counts.tolist() == [h.counts.tolist() for h in hists]

        got = analysis._row_entropies(counts, n)
        assert [e.hex() for e in got] == [analysis._entropy_of_freqs(h.frequencies()).hex() for h in hists]

        if 8 * n >= 100:
            got = [analysis._monobit_p(ones, n) for ones in (counts @ analysis._POPCOUNT).tolist()]
            assert [p.hex() for p in got] == [h.monobit_p().hex() for h in hists]
            assert [p.hex() for p in got] == [reference_monobit(row).hex() for row in rows]

        rho = analysis._row_correlations(samples.copy(), rows.astype(np.float64))
        for i, (a, b) in enumerate(zip(samples, rows)):
            try:
                want = pearson_correlation(a, b).hex()
            except UndefinedStatisticError:
                want = "nan"
            assert (rho[i].hex() if not math.isnan(rho[i]) else "nan") == want, (n, i)
        assert all(math.isnan(rho[i]) for i in FLAT_ROWS)


def reference_segment_values(segments, blocks) -> tuple:
    """analyze_corpus's per-segment loop as it was, one segment at a time:
    (entropy mean, monobit pass fraction, mean correlation of the segments
    that define one)."""
    entropies, passes, correlations = [], 0, []
    for seg, block in zip(segments, blocks):
        h = Histogram256.from_bytes(block)
        entropies.append(analysis._entropy_of_freqs(h.frequencies()))
        passes += h.monobit_p() > 0.01
        try:
            correlations.append(pearson_correlation(seg.samples, block))
        except UndefinedStatisticError:
            pass
    return float(np.mean(entropies)), passes / len(blocks), float(np.mean(correlations))


@pytest.mark.parametrize("corpus", ["cipher", "plain"])
def test_battery_report_is_the_one_segment_loop(corpus):
    # runs of several lengths, one longer than BATCH_ROWS, flat rows in each
    segments, blocks = [], []
    for n, repeat in [(300, 10), (13, 1), (69, 1), (300, 1), (257, 2), (1024, 1)]:
        for _ in range(repeat):
            samples, rows = _battery_rows(n, corpus)
            segments += [SignalSegment(row, 500.0) for row in samples]
            blocks += list(rows)
    assert len(segments) > 2 * cipher.BATCH_ROWS
    report, _ = analysis.analyze_corpus(segments, blocks)
    entropy, passes, correlation = reference_segment_values(segments, blocks)
    assert report.per_segment_entropy_mean.hex() == entropy.hex()
    assert report.monobit_pass_fraction == passes
    assert report.pearson_correlation.hex() == correlation.hex()


def test_battery_of_an_all_flat_corpus_raises():
    samples = np.full((3, 300), 0.25)
    segments = [SignalSegment(row, 500.0) for row in samples]
    # ciphertext bytes are not flat, so only the correlation is undefined
    blocks = [np.frombuffer(encrypt(s, params_for_segment(s)).ciphertext, dtype=np.uint8) for s in segments]
    with pytest.raises(UndefinedStatisticError, match="^correlation undefined for constant input$"):
        analysis.analyze_corpus(segments, blocks)


def test_battery_refuses_a_block_of_another_length():
    segments = [SignalSegment(np.arange(300.0), 500.0)] * 2
    blocks = [np.arange(300) % 256, np.arange(299) % 256]
    with pytest.raises(ShapeError, match=r"need equal lengths >= 2, got \(300,\) and \(299,\)"):
        analysis.analyze_corpus(segments, [b.astype(np.uint8) for b in blocks])


@pytest.mark.parametrize("corpus", ["cipher", "plain"])
def test_min_entropy_summary_is_the_one_segment_bounds(corpus):
    blocks = []
    for n in (256, 300, 257, 1024):
        blocks += list(_battery_rows(n, corpus)[1]) * (8 if n == 300 else 1)
    summary = MinEntropySummary.from_segments(blocks)
    assert [b.hex() for b in summary.per_segment_bits] == [min_entropy_mcv(b).hex() for b in blocks]
    with pytest.raises(InsufficientDataError, match="MCV estimator needs >= 256 bytes, got 255"):
        MinEntropySummary.from_segments(blocks + [blocks[0][:255]])
    with pytest.raises(EmptyInputError):
        MinEntropySummary.from_segments([])
