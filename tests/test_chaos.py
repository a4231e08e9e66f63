import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecg import analysis
from hecg.chaos import (
    ChaoticParams,
    KeySalt,
    SegmentStats,
    apply_salt,
    derive_params,
    iterate_logistic,
    iterate_logistic_batch,
)
from hecg.errors import DegenerateOrbitError, InvalidStatisticsError, ParameterDomainError


def reference_logistic(r, x0, n):
    """Independent oracle: the bare recurrence, no library code."""
    x = x0
    out = []
    for _ in range(n):
        x = r * x * (1.0 - x)
        out.append(x)
    return out


class TestIterateLogistic:
    def test_first_iterates_by_hand(self):
        seq = iterate_logistic(ChaoticParams(3.8, 0.2), 2)
        # sequence starts at the image of x0
        assert seq[0] == 3.8 * 0.2 * (1.0 - 0.2)
        assert seq[0] == pytest.approx(0.608)
        assert seq[1] == pytest.approx(0.9056768)

    def test_matches_reference_loop(self):
        params = ChaoticParams(3.91, 0.456)
        seq = iterate_logistic(params, 500)
        assert np.array_equal(seq, reference_logistic(3.91, 0.456, 500))

    def test_golden_vector(self):
        # frozen from the reference loop: (r=3.99, x0=0.123), iterates 100 to 399
        seq = iterate_logistic(ChaoticParams(3.99, 0.123), 400)[100:]
        ref = reference_logistic(3.99, 0.123, 400)[100:]
        assert np.array_equal(seq, ref)
        # first two iterates frozen from the reference loop
        assert seq[0] == 0.25522287793752263
        assert seq[1] == 0.7584358004540962
        mean = float(np.mean(seq))
        assert mean == pytest.approx(0.5368496016968286)
        assert 0.4 < mean < 0.7
        # leading-digit quantization inherits the skewed invariant density
        # (computed once: 6.9911 bits); the deep-byte form the cipher uses
        # clears 7 bits comfortably
        leading = np.floor(seq * 255.0).astype(np.uint8)
        assert analysis.shannon_entropy(leading) == pytest.approx(6.991116742587012)
        deep = (np.floor(seq * 16777216.0).astype(np.int64) & 0xFF).astype(np.uint8)
        assert analysis.shannon_entropy(deep) > 7.0

    def test_boundary_params_rejected(self):
        with pytest.raises(ParameterDomainError):
            ChaoticParams(4.0, 0.5)
        with pytest.raises(ParameterDomainError):
            ChaoticParams(3.6, 0.5)
        with pytest.raises(ParameterDomainError):
            ChaoticParams(3.8, 0.9)
        with pytest.raises(ParameterDomainError):
            ChaoticParams(float("nan"), 0.5)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            iterate_logistic(ChaoticParams(3.8, 0.2), 0)

    def test_range_containment_large_n(self):
        seq = iterate_logistic(ChaoticParams(3.9999, 0.3), 1_000_000)
        assert np.all(seq > 0.0)
        assert np.all(seq < 1.0)

    def test_determinism(self):
        a = iterate_logistic(ChaoticParams(3.77, 0.42), 1000)
        b = iterate_logistic(ChaoticParams(3.77, 0.42), 1000)
        assert np.array_equal(a, b)

    def test_degenerate_orbit_reports_index(self):
        # r=4 is outside the parameter domain, so it is forced past the
        # check: from x=0.5 the first iterate is exactly 1.0, and a healthy
        # orbit fills every slot.
        params = ChaoticParams(3.99, 0.5)
        object.__setattr__(params, "r", 4.0)
        with pytest.raises(DegenerateOrbitError) as exc:
            iterate_logistic(params, 4)
        assert exc.value.index == 0
        healthy = iterate_logistic(ChaoticParams(3.99, 0.123), 4)
        assert healthy.tolist() == reference_logistic(3.99, 0.123, 4)

    @pytest.mark.parametrize("n", [1, 5, 300, 7])
    def test_batch_rows_match_reference(self, n):
        rng = np.random.default_rng(n)
        draws = rng.uniform(0.01, 0.99, (9, 2))
        params = [ChaoticParams(3.6 + 0.4 * u, 0.1 + 0.8 * v) for u, v in draws]
        got = iterate_logistic_batch(params, n)
        assert got.shape == (9, n) and got.flags.c_contiguous
        for row, p in zip(got, params):
            assert row.tolist() == reference_logistic(p.r, p.x0, n)
        assert iterate_logistic_batch([], n).shape == (0, n)
        with pytest.raises(ValueError):
            iterate_logistic_batch(params, 0)

    # principal periodic windows inside (3.6, 4.0): orbits there converge
    # to the same attracting cycle for both keys, so sensitive dependence
    # does not hold and the draws must avoid them
    PERIODIC_WINDOWS = [(3.6265, 3.6345), (3.7375, 3.7440), (3.8284, 3.8420), (3.9025, 3.9065)]

    def test_chaotic_sensitivity(self):
        # 20 seeded draws from the chaotic set; after 50 iterations a
        # 1e-10 tweak in r moves >90% of positions by >1e-3
        rng = np.random.default_rng(2024)
        drawn = 0
        while drawn < 20:
            r = 3.6 + 0.4 * rng.uniform(0.05, 0.95)
            x0 = 0.1 + 0.8 * rng.uniform(0.05, 0.95)
            if any(lo <= r <= hi for lo, hi in self.PERIODIC_WINDOWS):
                continue
            drawn += 1
            n = 1000
            a = iterate_logistic(ChaoticParams(r, x0), n)
            b = iterate_logistic(ChaoticParams(r + 1e-10, x0), n)
            tail_diff = np.abs(a[50:] - b[50:])
            assert np.mean(tail_diff > 1e-3) >= 0.9, f"divergence too weak at r={r}"


class TestDeriveParams:
    def test_plain_values(self):
        p = derive_params(SegmentStats(mean=0.3, std_dev=0.5))
        assert p.r == pytest.approx(3.7)
        assert p.x0 == pytest.approx(0.4)

    def test_zero_sigma_nudged(self):
        p = derive_params(SegmentStats(mean=1.7, std_dev=0.0))
        assert 3.6 < p.r < 3.6 + 1e-5  # nudged just inside
        assert p.x0 == pytest.approx(0.2)  # 1.7 mod 0.8 = 0.1

    def test_negative_mean_wraps(self):
        p = derive_params(SegmentStats(mean=-0.25, std_dev=0.85))
        assert p.r == pytest.approx(3.65)
        assert p.x0 == pytest.approx(0.65)

    def test_non_finite_stats_rejected(self):
        with pytest.raises(InvalidStatisticsError):
            SegmentStats(mean=float("inf"), std_dev=0.1)
        with pytest.raises(InvalidStatisticsError):
            SegmentStats(mean=0.0, std_dev=float("nan"))

    @given(
        mean=st.floats(allow_nan=False, allow_infinity=False),
        std=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300)
    def test_total_on_finite_inputs(self, mean, std):
        p = derive_params(SegmentStats(mean=mean, std_dev=std))
        assert 3.6 < p.r < 4.0
        assert 0.1 < p.x0 < 0.9

    def test_remainder_near_modulus_stays_inside(self):
        # remainders within an ulp of the modulus must not round onto the
        # interval boundary
        p = derive_params(SegmentStats(mean=math.nextafter(0.8, 0.0), std_dev=math.nextafter(0.4, 0.0)))
        assert 3.6 < p.r < 4.0
        assert 0.1 < p.x0 < 0.9


class TestApplySalt:
    def test_zero_offsets_identity(self):
        params = ChaoticParams(3.8123, 0.5321)

        class _ZeroSalt(KeySalt):
            def unit_offsets(self):
                return 0.0, 0.0

        assert apply_salt(params, _ZeroSalt(1, b"x")) == params

    def test_wraparound_arithmetic(self):
        params = ChaoticParams(3.95, 0.5)

        class _HalfSalt(KeySalt):
            def unit_offsets(self):
                return 0.5, 0.0

        salted = apply_salt(params, _HalfSalt(1, b"x"))
        assert salted.r == pytest.approx(3.75)
        assert salted.x0 == params.x0

    def test_one_timestamp_bit_changes_both(self):
        params = ChaoticParams(3.8, 0.4)
        a = apply_salt(params, KeySalt(timestamp=1_000_000, device_id=b"dev1"))
        b = apply_salt(params, KeySalt(timestamp=1_000_001, device_id=b"dev1"))
        assert a.r != b.r
        assert a.x0 != b.x0

    def test_device_id_matters(self):
        params = ChaoticParams(3.8, 0.4)
        a = apply_salt(params, KeySalt(timestamp=5, device_id=b"alpha"))
        b = apply_salt(params, KeySalt(timestamp=5, device_id=b"beta"))
        assert (a.r, a.x0) != (b.r, b.x0)

    @given(
        r=st.floats(min_value=3.6, max_value=4.0, exclude_min=True, exclude_max=True),
        x0=st.floats(min_value=0.1, max_value=0.9, exclude_min=True, exclude_max=True),
        ts=st.integers(min_value=0, max_value=2**63),
        dev=st.binary(min_size=1, max_size=16),
    )
    @settings(max_examples=200)
    def test_salted_params_stay_valid(self, r, x0, ts, dev):
        salted = apply_salt(ChaoticParams(r, x0), KeySalt(ts, dev))
        assert 3.6 < salted.r < 4.0
        assert 0.1 < salted.x0 < 0.9

    def test_digest_kept_outside_the_fields(self):
        s = KeySalt(timestamp=42, device_id=b"abc")
        fresh = KeySalt(timestamp=42, device_id=b"abc")
        shown, hashed = repr(s), hash(s)
        assert "_digest" not in vars(s)
        assert s.digest() == s.digest() == fresh.digest()
        assert "_digest" in vars(s)
        assert repr(s) == shown and hash(s) == hashed and s == KeySalt(42, b"abc")
        assert KeySalt(42, b"abd") != s and KeySalt(42, b"abd").digest() != s.digest()

    def test_digest_deterministic(self):
        s = KeySalt(timestamp=42, device_id=b"abc")
        assert s.digest() == KeySalt(timestamp=42, device_id=b"abc").digest()
        assert s.unit_offsets() == s.unit_offsets()
        u_r, u_x = s.unit_offsets()
        assert 0.0 <= u_r < 1.0
        assert 0.0 <= u_x < 1.0
