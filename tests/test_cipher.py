import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecg import cipher
from hecg.analysis import key_sensitivity_test
from hecg.chaos import ChaoticParams, KeySalt, iterate_logistic, iterate_logistic_batch
from hecg.cipher import (
    BATCH_ROWS,
    EncryptedRecord,
    Mode,
    QuantizationRange,
    QuantizedSegment,
    SignalSegment,
    _mask_and_permutation,
    apply_keystream,
    compute_stats,
    decrypt,
    decrypt_batch,
    decrypt_bytes,
    dequantize,
    derive_key_material,
    encrypt,
    key_material_runs,
    params_for_segment,
    quantize,
    remove_keystream,
)
from hecg.errors import (
    CorruptRecordError,
    DegenerateOrbitError,
    InvalidSignalError,
    ShapeError,
)


def naive_cipher(quantized, perm, mask):
    """Reference oracle: explicit loops, no vectorization."""
    n = len(quantized)
    out = [0] * n
    for i in range(n):
        out[i] = quantized[perm[i]] ^ mask[i]
    return out


def naive_quantize(samples):
    lo = min(samples)
    hi = max(samples)
    if hi == lo:
        return [0] * len(samples), lo, hi
    out = []
    for s in samples:
        v = (s - lo) / (hi - lo) * 255.0
        out.append(int(math.floor(v + 0.5)))
    return out, lo, hi


def reference_quantize(samples):
    """quantize as it was, with the np.min / np.max wrappers: (bytes, lo, hi)."""
    lo, hi = float(np.min(samples)), float(np.max(samples))
    if hi == lo:
        return np.zeros(len(samples), dtype=np.uint8), lo, hi
    return np.floor((samples - lo) / (hi - lo) * 255.0 + 0.5).astype(np.uint8), lo, hi


def reference_mask(x):
    """Mask bytes as they were computed: floor, then & 0xFF."""
    return (np.floor(x * 16777216.0).astype(np.int64) & 0xFF).astype(np.uint8)


class TestQuantize:
    def test_endpoints_and_midpoint(self):
        q = quantize(SignalSegment(np.array([-1.0, 0.0, 1.0]), 500.0))
        assert q.bytes.tolist() == [0, 128, 255]
        assert (q.range.min, q.range.max) == (-1.0, 1.0)

    def test_constant_segment(self):
        q = quantize(SignalSegment(np.array([5.0, 5.0, 5.0]), 500.0))
        assert q.bytes.tolist() == [0, 0, 0]
        assert (q.range.min, q.range.max) == (5.0, 5.0)
        back = dequantize(q, 500.0)
        assert np.all(back.samples == 5.0)

    def test_sine_roundtrip_error_bound(self):
        t = np.arange(300) / 500.0
        seg = SignalSegment(np.sin(2 * np.pi * 5.0 * t), 500.0)
        q = quantize(seg)
        back = dequantize(q, seg.sample_rate)
        bound = (q.range.max - q.range.min) / 510.0
        assert np.max(np.abs(back.samples - seg.samples)) <= bound * (1 + 1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidSignalError):
            SignalSegment(np.array([0.0, np.nan, 1.0]), 500.0)
        with pytest.raises(InvalidSignalError):
            SignalSegment(np.array([1.0]), 500.0)

    def test_overflow_range_rejected(self):
        with pytest.raises(InvalidSignalError):
            quantize(SignalSegment(np.array([-1e308, 1e308]), 500.0))

    @pytest.mark.parametrize(
        "samples",
        [np.full(300, -2.5), np.full(2, 0.0), np.full(7, 1e300), np.array([3.0, -0.0, 0.0])],
    )
    def test_matches_reference(self, samples):
        q = quantize(SignalSegment(samples, 500.0))
        want, lo, hi = reference_quantize(samples)
        assert q.bytes.dtype == np.uint8 and q.bytes.tobytes() == want.tobytes()
        assert (q.range.min.hex(), q.range.max.hex()) == (lo.hex(), hi.hex())

    @given(
        st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=2, max_size=64),
    )
    @settings(max_examples=200)
    def test_matches_naive_and_bounded(self, samples):
        seg = SignalSegment(np.asarray(samples), 500.0)
        q = quantize(seg)
        ref, lo, hi = naive_quantize(samples)
        assert q.bytes.tolist() == ref
        back = dequantize(q, 500.0)
        bound = (hi - lo) / 510.0
        assert np.max(np.abs(back.samples - seg.samples)) <= bound * (1 + 1e-12) + 1e-15


class TestComputeStats:
    def test_constant(self):
        s = compute_stats(SignalSegment(np.array([1.0, 1.0, 1.0, 1.0]), 500.0))
        assert (s.mean, s.std_dev) == (1.0, 0.0)

    def test_two_point(self):
        s = compute_stats(SignalSegment(np.array([0.0, 2.0]), 500.0))
        assert (s.mean, s.std_dev) == (1.0, 1.0)

    def test_population_sigma(self):
        s = compute_stats(SignalSegment(np.array([0.0, 1.0, 2.0, 3.0]), 500.0))
        assert s.mean == 1.5
        assert s.std_dev == pytest.approx(math.sqrt(1.25))


class TestKeyMaterial:
    def test_by_hand(self):
        # permutation: stable argsort; mask: third byte of the binary
        # fraction, floor(x * 2^24) mod 256, computed by hand
        km_perm = np.argsort([0.9, 0.1, 0.5], kind="stable")
        assert km_perm.tolist() == [1, 2, 0]
        x = np.array([0.9, 0.1, 0.5])
        mask = (np.floor(x * 16777216.0).astype(np.int64) & 0xFF).tolist()
        assert mask == [102, 153, 0]

    def test_mask_matches_reference(self):
        edges = [2.0**-53, 1.0 - 2.0**-53, 2.0**-24, 1.0 - 2.0**-24, 0.5, 0.0, 1.0]
        x = np.concatenate([edges, np.random.default_rng(8).random(4000)])
        mask, _ = _mask_and_permutation(x)
        assert mask.dtype == np.uint8 and mask.tobytes() == reference_mask(x).tobytes()
        rows, _ = _mask_and_permutation(x[:4000].reshape(40, 100))
        assert rows.tobytes() == reference_mask(x[:4000]).tobytes()

    @pytest.mark.parametrize("params", [ChaoticParams(3.99, 0.123), ChaoticParams(3.61, 0.87)])
    def test_derived_mask_matches_reference(self, params):
        km = derive_key_material(params, 300)
        orbit = iterate_logistic(params, 300)
        assert km.mask.tobytes() == reference_mask(orbit).tobytes()

    def test_bijective_permutation(self):
        km = derive_key_material(ChaoticParams(3.97, 0.321), 257)
        assert sorted(km.permutation.tolist()) == list(range(257))
        assert len(km.mask) == 257

    def test_golden_mask_distinct_values(self):
        km = derive_key_material(ChaoticParams(3.99, 0.123), 300)
        assert len(np.unique(km.mask)) >= 100

    def test_too_short_rejected(self):
        with pytest.raises(InvalidSignalError):
            derive_key_material(ChaoticParams(3.9, 0.3), 1)


# r = 3.83 lies in the period-3 window: its orbit settles onto a cycle that
# repeats the same floats, so its sorted iterates hold equal neighbours.
TIED = [ChaoticParams(3.83, 0.2), ChaoticParams(3.83, 0.5)]
CHAOTIC = [ChaoticParams(3.99, 0.123), ChaoticParams(3.61, 0.87), ChaoticParams(3.7, 0.4)]


def _has_tie(row) -> bool:
    ordered = np.sort(row)
    return bool(np.any(ordered[1:] == ordered[:-1]))


class TestPermutationTies:
    """The permutation is the stable argsort, whether or not the orbit ties."""

    @pytest.mark.parametrize("n", [2, 3, 299, 300, 301, 1024])
    def test_rows_equal_stable_argsort(self, n):
        params = [CHAOTIC[0], TIED[0], *CHAOTIC[1:], TIED[1]]
        x = iterate_logistic_batch(params, n)
        if n >= 299:
            # the fixture exercises the stable fallback
            assert [_has_tie(row) for row in x] == [False, True, False, False, True]
        _, perm = _mask_and_permutation(x)
        assert perm.dtype == np.intp
        assert np.array_equal(perm, np.argsort(x, axis=-1, kind="stable"))
        for row, p in zip(x, perm):
            _, one = _mask_and_permutation(row)
            assert np.array_equal(one, np.argsort(row, kind="stable"))
            assert np.array_equal(one, p)

    def test_hand_made_ties(self):
        x = np.array([[0.5, 0.25, 0.5, 0.25, 0.75], [0.1, 0.2, 0.3, 0.4, 0.5]])
        _, perm = _mask_and_permutation(x)
        assert perm.tolist() == [[1, 3, 0, 2, 4], [0, 1, 2, 3, 4]]
        _, perm = _mask_and_permutation(x[0])
        assert perm.tolist() == [1, 3, 0, 2, 4]

    @pytest.mark.parametrize("params", TIED + CHAOTIC[:1])
    def test_derived_permutation_is_stable_argsort(self, params):
        km = derive_key_material(params, 300)
        assert np.array_equal(km.permutation, np.argsort(iterate_logistic(params, 300), kind="stable"))


def _uncached(params, n):
    """(mask, permutation) of a derivation that bypasses the memo."""
    return _mask_and_permutation(iterate_logistic(params, n))


@pytest.fixture()
def orbits(monkeypatch):
    """The (r, x0, n) of every orbit derive_key_material iterates."""
    seen = []

    def counting(params, n):
        seen.append((params.r, params.x0, n))
        return iterate_logistic(params, n)

    monkeypatch.setattr(cipher, "_last_key_material", (None, None))
    monkeypatch.setattr(cipher, "iterate_logistic", counting)
    return seen


class TestKeyMaterialMemo:
    """derive_key_material returns its last keystream again for the same
    (r, x0, n), read-only, and iterates anew for any other."""

    def test_repeat_equals_fresh_and_is_read_only(self, orbits):
        first = derive_key_material(ChaoticParams(3.91, 0.437), 300)
        # an equal params object built anew is the same key
        again = derive_key_material(ChaoticParams(3.91, 0.437), 300)
        assert orbits == [(3.91, 0.437, 300)]
        mask, perm = _uncached(ChaoticParams(3.91, 0.437), 300)
        for km in (first, again):
            assert np.array_equal(km.mask, mask) and km.mask.dtype == mask.dtype
            assert np.array_equal(km.permutation, perm)
            assert km.permutation.dtype == perm.dtype
            with pytest.raises(ValueError):
                km.mask[0] = 0
            with pytest.raises(ValueError):
                km.permutation[0] = 0

    @pytest.mark.parametrize("change", ["r", "x0", "n+1", "n-1"])
    def test_next_key_misses(self, orbits, change):
        params, n = ChaoticParams(3.91, 0.437), 300
        derive_key_material(params, n)
        r = math.nextafter(params.r, 4.0) if change == "r" else params.r
        x0 = math.nextafter(params.x0, 0.0) if change == "x0" else params.x0
        m = {"n+1": n + 1, "n-1": n - 1}.get(change, n)
        other = ChaoticParams(r, x0)
        for key, length in ((other, m), (params, n)):
            km = derive_key_material(key, length)
            mask, perm = _uncached(key, length)
            assert np.array_equal(km.mask, mask)
            assert np.array_equal(km.permutation, perm)
        assert orbits == [(params.r, params.x0, n), (r, x0, m), (params.r, params.x0, n)]

    def test_params_changed_in_place_miss(self, orbits):
        params = ChaoticParams(3.91, 0.437)
        before = derive_key_material(params, 300).mask
        object.__setattr__(params, "x0", math.nextafter(params.x0, 1.0))
        after = derive_key_material(params, 300)
        assert len(orbits) == 2
        assert np.array_equal(after.mask, _uncached(params, 300)[0])
        assert not np.array_equal(after.mask, before)

    def test_errors_raise_on_every_call(self, orbits):
        params = ChaoticParams(3.9, 0.3)
        derive_key_material(params, 300)
        for _ in range(2):
            with pytest.raises(InvalidSignalError):
                derive_key_material(params, 1)
        # r = 4 maps x0 = 0.5 to exactly 1.0 on iterate 0
        object.__setattr__(params, "r", 4.0)
        object.__setattr__(params, "x0", 0.5)
        for _ in range(2):
            with pytest.raises(DegenerateOrbitError):
                derive_key_material(params, 300)
        assert orbits == [(3.9, 0.3, 300), (4.0, 0.5, 300), (4.0, 0.5, 300)]

    def test_threads_get_their_own_keystream(self):
        keys = [(ChaoticParams(3.61 + 0.05 * i, 0.2 + 0.1 * i), 40 + i) for i in range(6)]
        want = {n: _uncached(params, n) for params, n in keys}
        bad = []

        def work(offset):
            for k in range(300):
                params, n = keys[(offset + k) % len(keys)]
                km = derive_key_material(params, n)
                mask, perm = want[n]
                if not (np.array_equal(km.mask, mask) and np.array_equal(km.permutation, perm)):
                    bad.append((offset, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_key_sensitivity_full_range(self):
        seg = SignalSegment(np.random.default_rng(3).uniform(size=3000), 500.0)
        params = params_for_segment(seg)
        # the right key's keystream is the memo's when the wrong keys decrypt
        derive_key_material(params, len(seg))
        res = key_sensitivity_test(seg, params, delta=1e-10)
        assert res["max_byte_diff"] == 255 and abs(res["correlation"]) < 0.05


def _batch_params(count: int, seed: int = 11) -> list:
    rng = np.random.default_rng(seed)
    draws = rng.uniform(1e-3, 1 - 1e-3, (count, 2))
    return [ChaoticParams(3.6 + 0.4 * u, 0.1 + 0.8 * v) for u, v in draws]


def _records_of_length(count: int, n: int) -> list:
    """count records of n ciphertext bytes: only their lengths matter to
    key_material_runs."""
    return [
        EncryptedRecord(bytes(n), QuantizationRange(0.0, 1.0), bytes(16), KeySalt(0), Mode.DIRECT)
        for _ in range(count)
    ]


class TestBatch:
    """The batched read path against the one-segment-at-a-time oracle."""

    def test_key_material_matches_serial(self):
        params_list = _batch_params(2 * BATCH_ROWS + 7)
        records = _records_of_length(len(params_list), 300)
        runs = list(key_material_runs(records, params_list))
        assert [(s.start, s.stop) for s, _ in runs] == [(0, 64), (64, 128), (128, 135)]
        got = [km for _, kms in runs for km in kms]
        assert len(got) == len(params_list)
        for km, params in zip(got, params_list):
            want = derive_key_material(params, 300)
            assert np.array_equal(km.permutation, want.permutation)
            assert km.permutation.dtype == want.permutation.dtype
            assert np.array_equal(km.mask, want.mask)

    def test_decrypt_matches_serial(self, encrypted_corpus):
        segments, _, _, params_list = encrypted_corpus
        # a run of shorter segments in the middle splits the chunks
        lengths = [300] * 70 + [100] * 5 + [300] * 50
        records, keys = [], []
        for i, n in enumerate(lengths):
            seg = SignalSegment(segments[i % len(segments)].samples[:n], 500.0)
            records.append(encrypt(seg, params_list[i % len(params_list)]))
            keys.append(params_list[i % len(params_list)])
        got = decrypt_batch(records, keys)
        assert len(got) == len(records)
        for seg, record, params in zip(got, records, keys):
            want = decrypt(record, params)
            assert np.array_equal(seg.samples, want.samples)
            assert seg.sample_rate == want.sample_rate

    def test_decrypt_of_flat_ranges_matches_serial(self):
        # a constant segment's range decrypts to its value, signed zero included
        params_list = _batch_params(6)
        values = [0.25, -0.0, 0.0, -3.5]
        segments = [SignalSegment(np.full(300, v), 500.0) for v in values]
        segments += [SignalSegment(np.sin(np.arange(300.0) / (7 + i)), 500.0) for i in range(2)]
        records = [encrypt(seg, p) for seg, p in zip(segments, params_list)]
        got = decrypt_batch(records, params_list)
        for seg, record, params in zip(got, records, params_list):
            assert seg.samples.tobytes() == decrypt(record, params).samples.tobytes()
        assert [np.signbit(seg.samples[0]) for seg in got[:4]] == [False, True, False, True]

    def test_first_degenerate_row_raises_like_scalar(self):
        params_list = _batch_params(2 * BATCH_ROWS + 7)
        records = _records_of_length(len(params_list), 300)

        def force(params, x0):
            object.__setattr__(params, "r", 4.0)
            object.__setattr__(params, "x0", x0)
            with pytest.raises(DegenerateOrbitError) as scalar:
                iterate_logistic(params, 300)
            return scalar.value.index

        # r = 4 maps x0 = 0.5 to exactly 1.0 on iterate 0
        assert force(params_list[BATCH_ROWS + 5], 0.5) == 0
        with pytest.raises(DegenerateOrbitError) as batch:
            list(key_material_runs(records, params_list))
        assert batch.value.index == 0
        # an earlier row that degenerates one iterate later wins: it maps
        # to 0.5 on iterate 0 and to 1.0 on iterate 1
        assert force(params_list[BATCH_ROWS + 3], 0.14644660940672624) == 1
        with pytest.raises(DegenerateOrbitError) as batch:
            list(key_material_runs(records, params_list))
        assert batch.value.index == 1

    def test_empty_and_mismatched(self):
        assert list(key_material_runs([], [])) == []
        assert decrypt_batch([], []) == []
        with pytest.raises(InvalidSignalError):
            list(key_material_runs(_records_of_length(2, 1), _batch_params(2)))
        with pytest.raises(ShapeError):
            list(key_material_runs(_records_of_length(1, 300), _batch_params(2)))
        record = encrypt(SignalSegment(np.arange(10.0), 500.0), _batch_params(1)[0])
        with pytest.raises(ShapeError):
            decrypt_batch([record], _batch_params(2))


class TestEncryptDecrypt:
    def test_zero_mask_identity_perm(self):
        # forced keystream: ciphertext equals the quantized plaintext
        rng = np.random.default_rng(0)
        q = rng.integers(0, 256, 40).astype(np.uint8)
        out = apply_keystream(q, np.arange(40), np.zeros(40, dtype=np.uint8))
        assert np.array_equal(out, q)

    def test_byte_domain_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        seg = SignalSegment(rng.normal(0.0, 0.4, 300), 500.0)
        params = params_for_segment(seg)
        record = encrypt(seg, params)
        assert np.array_equal(decrypt_bytes(record, params), quantize(seg).bytes)

    def test_real_domain_roundtrip_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            seg = SignalSegment(rng.normal(0.0, 1.0, 128), 500.0)
            params = params_for_segment(seg)
            record = encrypt(seg, params)
            back = decrypt(record, params, 500.0)
            bound = (record.range.max - record.range.min) / 510.0
            assert np.max(np.abs(back.samples - seg.samples)) <= bound * (1 + 1e-12)

    def test_ciphertext_multiset_property(self):
        rng = np.random.default_rng(3)
        seg = SignalSegment(rng.normal(0.0, 0.4, 300), 500.0)
        params = params_for_segment(seg)
        record = encrypt(seg, params)
        ct = np.frombuffer(record.ciphertext, dtype=np.uint8)
        unmasked = np.bitwise_xor(ct, derive_key_material(params, len(seg)).mask)
        assert sorted(unmasked.tolist()) == sorted(quantize(seg).bytes.tolist())

    def test_determinism_same_salt(self):
        rng = np.random.default_rng(4)
        seg = SignalSegment(rng.normal(0.0, 0.4, 300), 500.0)
        params = params_for_segment(seg)
        salt = KeySalt(123456, b"dev")
        r1 = encrypt(seg, params, salt=salt, counter=9)
        r2 = encrypt(seg, params, salt=salt, counter=9)
        assert r1.to_bytes() == r2.to_bytes()

    def test_wrong_key_garbage(self):
        rng = np.random.default_rng(6)
        seg = SignalSegment(rng.normal(0.0, 0.4, 3000), 500.0)
        params = params_for_segment(seg)
        record = encrypt(seg, params)
        wrong = ChaoticParams(params.r + 1e-10, params.x0)
        got = decrypt_bytes(record, wrong).astype(int)
        orig = quantize(seg).bytes.astype(int)
        corr = np.corrcoef(orig, got)[0, 1]
        assert abs(corr) < 0.1
        assert np.max(np.abs(orig - got)) > 200

    def test_plaintext_avalanche(self):
        # fresh biometric keys per segment: a one-sample change replaces
        # the whole keystream
        rng = np.random.default_rng(7)
        rates = []
        for _ in range(30):
            samples = rng.normal(0.0, 0.4, 300)
            seg = SignalSegment(samples, 500.0)
            r1 = encrypt(seg, params_for_segment(seg))
            bumped = samples.copy()
            bumped[rng.integers(0, 300)] += (samples.max() - samples.min()) / 255.0
            seg2 = SignalSegment(bumped, 500.0)
            r2 = encrypt(seg2, params_for_segment(seg2))
            c1 = np.frombuffer(r1.ciphertext, dtype=np.uint8)
            c2 = np.frombuffer(r2.ciphertext, dtype=np.uint8)
            rates.append(np.mean(c1 != c2))
        assert min(rates) > 0.95
        assert np.mean(rates) > 0.99


class TestOracleEquivalence:
    def test_thousand_tiny_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            q = rng.integers(0, 256, n).astype(np.uint8)
            perm = rng.permutation(n)
            mask = rng.integers(0, 256, n).astype(np.uint8)
            got = apply_keystream(q, perm, mask)
            want = naive_cipher(q.tolist(), perm.tolist(), mask.tolist())
            assert got.tolist() == want
            back = remove_keystream(got, perm, mask)
            assert np.array_equal(back, q)

    def test_quantize_then_cipher_matches_naive(self):
        rng = np.random.default_rng(4321)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            samples = rng.normal(0.0, 1.0, n)
            seg = SignalSegment(samples, 500.0)
            qb = quantize(seg).bytes
            ref, _, _ = naive_quantize(samples.tolist())
            assert qb.tolist() == ref


class TestRecordFormat:
    def _record(self):
        rng = np.random.default_rng(10)
        seg = SignalSegment(rng.normal(0.0, 0.4, 300), 500.0)
        params = params_for_segment(seg)
        salt = KeySalt(timestamp=1_699_999_999_123, device_id=b"device-7")
        record = encrypt(seg, params, salt=salt, mode_tag=Mode.ML_PREDICTED, counter=77)
        return record

    def test_layout_bit_exact(self):
        record = self._record()
        blob = record.to_bytes()
        assert blob[:4] == b"HECG"
        assert blob[4] == 1  # version
        assert blob[5] == 1  # ML mode tag
        assert int.from_bytes(blob[6:10], "little") == 300
        lo = np.frombuffer(blob[10:18], dtype="<f8")[0]
        hi = np.frombuffer(blob[18:26], dtype="<f8")[0]
        assert (lo, hi) == (record.range.min, record.range.max)
        assert int.from_bytes(blob[26:34], "little") == 1_699_999_999_123
        assert blob[34] == len(b"device-7")
        assert blob[35:43] == b"device-7"
        assert blob[43:59] == record.key_id
        assert blob[59:] == record.ciphertext
        assert len(blob) == 59 + 300

    def test_roundtrip(self):
        record = self._record()
        parsed = EncryptedRecord.from_bytes(record.to_bytes())
        assert parsed == record
        assert parsed.to_bytes() == record.to_bytes()

    def test_bad_magic(self):
        blob = bytearray(self._record().to_bytes())
        blob[0] = ord("X")
        with pytest.raises(CorruptRecordError):
            EncryptedRecord.from_bytes(bytes(blob))

    def test_truncated(self):
        blob = self._record().to_bytes()
        with pytest.raises(CorruptRecordError):
            EncryptedRecord.from_bytes(blob[:-3])
        with pytest.raises(CorruptRecordError):
            EncryptedRecord.from_bytes(blob[:10])

    def test_bad_version_and_mode(self):
        blob = bytearray(self._record().to_bytes())
        blob[4] = 9
        with pytest.raises(CorruptRecordError):
            EncryptedRecord.from_bytes(bytes(blob))
        blob[4] = 1
        blob[5] = 7
        with pytest.raises(CorruptRecordError):
            EncryptedRecord.from_bytes(bytes(blob))

    def test_mode_tag_byte_differs(self):
        rng = np.random.default_rng(11)
        seg = SignalSegment(rng.normal(0.0, 0.4, 32), 500.0)
        params = params_for_segment(seg)
        direct = encrypt(seg, params, mode_tag=Mode.DIRECT)
        ml = encrypt(seg, params, mode_tag=Mode.ML_PREDICTED)
        assert direct.to_bytes()[5] == 0
        assert ml.to_bytes()[5] == 1


@given(
    samples=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=40),
    r=st.floats(min_value=3.61, max_value=3.99),
    x0=st.floats(min_value=0.11, max_value=0.89),
)
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(samples, r, x0):
    seg = SignalSegment(np.asarray(samples), 500.0)
    params = ChaoticParams(r, x0)
    record = encrypt(seg, params)
    assert np.array_equal(decrypt_bytes(record, params), quantize(seg).bytes)
