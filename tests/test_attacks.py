import dataclasses
import math

import numpy as np
import pytest

from hecg.analysis import normalize_unit
from hecg.attacks import (
    AttackConfig,
    AttackKind,
    AttackResult,
    attack_sweep,
    clean_reference,
    noise_attack,
    occlusion_attack,
    sweep_table,
)
from hecg.cipher import (
    BATCH_ROWS,
    QuantizedSegment,
    SignalSegment,
    batch_slices,
    decrypt,
    dequantize,
    derive_key_material,
    encrypt,
    params_for_segment,
    remove_keystream,
)
from hecg.errors import CorruptRecordError, ShapeError
from hecg.pipeline import synthetic_ecg


def reference_damage(original, attacked, km, rng):
    """_damage as it was: decrypt through dequantize's SignalSegment."""
    lo, hi = float(np.min(original.samples)), float(np.max(original.samples))
    clean = normalize_unit(original.samples, lo, hi)
    q_bytes = remove_keystream(attacked, km.permutation, km.mask)
    recovered = dequantize(QuantizedSegment(bytes=q_bytes, range=rng), original.sample_rate)
    diff = clean - normalize_unit(recovered.samples, lo, hi)
    return float(np.mean(np.abs(diff))), float(np.mean(diff * diff))


def reference_dispersion(indices, n):
    m = indices.size
    if m == 0:
        return 0.0
    k = (m + 1) // 2
    idx = np.sort(indices)
    window = int(np.min(idx[k - 1 :] - idx[: m - k + 1])) + 1
    return float(min(1.0, window / (n / 2.0)))


def reference_noise_attack(record, params, config, original):
    """noise_attack as it was: int32 ciphertext, np.clip, indices sorted twice."""
    ct = np.frombuffer(record.ciphertext, dtype=np.uint8).astype(np.int32)
    rng = np.random.default_rng(config.seed)
    a = config.intensity
    if config.kind is AttackKind.NOISE_UNIFORM:
        delta = rng.integers(-int(round(a)), int(round(a)) + 1, size=ct.size)
    else:
        delta = np.round(rng.normal(0.0, a, size=ct.size)).astype(np.int64)
    noisy = np.clip(ct + delta, 0, 255).astype(np.uint8)
    changed = np.nonzero(noisy != ct.astype(np.uint8))[0]
    km = derive_key_material(params, record.segment_len)
    corrupted = np.asarray(km.permutation)[changed]
    mae, mse = reference_damage(original, noisy, km, record.range)
    return AttackResult(
        mae, mse, tuple(np.sort(corrupted).tolist()), reference_dispersion(corrupted, len(ct))
    )


def reference_occlusion_attack(record, params, config, original):
    n = record.segment_len
    length = int(np.ceil(config.intensity * n))
    if length > 0:
        start = int(np.random.default_rng(config.seed).integers(0, n - length + 1))
        end = start + length
    else:
        start = end = 0
    ct = np.frombuffer(record.ciphertext, dtype=np.uint8).copy()
    ct[start:end] = 0
    km = derive_key_material(params, n)
    corrupted = np.asarray(km.permutation)[start:end]
    mae, mse = reference_damage(original, ct, km, record.range)
    return AttackResult(mae, mse, tuple(np.sort(corrupted).tolist()), reference_dispersion(corrupted, n))


def result_bits(res):
    """Every field of an AttackResult, floats by their bits."""
    return (res.mae.hex(), res.mse.hex(), res.corrupted_sample_indices, res.dispersion.hex())


@pytest.fixture(scope="module")
def attack_corpus(corpus):
    segments, _ = corpus
    segments = segments[:40]
    records, params_list = [], []
    for i, seg in enumerate(segments):
        p = params_for_segment(seg)
        rec = encrypt(seg, p, counter=i)
        records.append(rec)
        params_list.append(p)
    return segments, records, params_list


@pytest.fixture(scope="module")
def attack_inputs(attack_corpus):
    """Per attack_corpus segment, the (record, key material, clean
    reference) an attack takes."""
    return [
        (rec, derive_key_material(p, rec.segment_len), clean_reference(seg))
        for seg, rec, p in zip(*attack_corpus)
    ]


class TestNoiseAttack:
    def test_zero_amplitude_is_clean_roundtrip(self, attack_inputs):
        rec, km, ref = attack_inputs[0]
        res = noise_attack(rec, km, AttackConfig(AttackKind.NOISE_UNIFORM, 0.0, seed=1), ref)
        assert res.mae <= 0.003
        assert res.corrupted_sample_indices == ()

    def test_unit_noise_mae_band(self, attack_inputs):
        maes = []
        for i, (rec, km, ref) in enumerate(attack_inputs):
            cfg = AttackConfig(AttackKind.NOISE_UNIFORM, 1.0, seed=100 + i)
            maes.append(noise_attack(rec, km, cfg, ref).mae)
        assert 0.001 <= np.mean(maes) <= 0.05

    def test_sweep_monotone(self, attack_corpus):
        _, records, params_list = attack_corpus
        rows = attack_sweep(records, params_list, AttackKind.NOISE_UNIFORM, [0, 1, 4, 16], seed=7)
        maes = [r["mae"] for r in rows]
        assert maes == sorted(maes)

    def test_gaussian_kind(self, attack_inputs):
        rec, km, ref = attack_inputs[2]
        res = noise_attack(rec, km, AttackConfig(AttackKind.NOISE_GAUSSIAN, 2.0, seed=3), ref)
        assert res.mae > 0.0

    def test_seeded_reproducibility(self, attack_inputs):
        rec, km, ref = attack_inputs[1]
        cfg = AttackConfig(AttackKind.NOISE_UNIFORM, 4.0, seed=99)
        assert noise_attack(rec, km, cfg, ref) == noise_attack(rec, km, cfg, ref)

    def test_kind_mismatch_rejected(self, attack_inputs):
        rec, km, ref = attack_inputs[0]
        with pytest.raises(ValueError):
            noise_attack(rec, km, AttackConfig(AttackKind.OCCLUSION, 0.1, seed=1), ref)


class TestOcclusionAttack:
    def test_zero_fraction(self, attack_inputs):
        rec, km, ref = attack_inputs[0]
        res = occlusion_attack(rec, km, AttackConfig(AttackKind.OCCLUSION, 0.0, seed=1), ref)
        assert res.corrupted_sample_indices == ()
        assert res.dispersion == 0.0

    def test_exact_count_and_dispersion(self, attack_inputs):
        # the corrupted count is exact for every segment; dispersion is a
        # corpus property (an orbit can visit the occluded value band in
        # one temporal burst for the odd segment)
        dispersions = []
        for i, (rec, km, ref) in enumerate(attack_inputs):
            res = occlusion_attack(rec, km, AttackConfig(AttackKind.OCCLUSION, 0.1, seed=200 + i), ref)
            assert len(res.corrupted_sample_indices) == math.ceil(0.1 * rec.segment_len)
            dispersions.append(res.dispersion)
        assert np.mean(dispersions) > 0.5
        assert np.mean(np.asarray(dispersions) > 0.5) >= 0.9

    def test_full_occlusion(self, attack_corpus, attack_inputs):
        segments, _, params_list = attack_corpus
        seg, p, (rec, km, ref) = segments[0], params_list[0], attack_inputs[0]
        res = occlusion_attack(rec, km, AttackConfig(AttackKind.OCCLUSION, 1.0, seed=5), ref)
        assert len(res.corrupted_sample_indices) == len(seg)
        # damage equals decrypting an all-zero ciphertext
        from hecg.analysis import normalize_unit
        from hecg.cipher import decrypt

        zeroed = dataclasses.replace(rec, ciphertext=bytes(len(seg)))
        back = decrypt(zeroed, p, seg.sample_rate)
        lo, hi = float(seg.samples.min()), float(seg.samples.max())
        want_mse = float(
            np.mean(
                (normalize_unit(seg.samples, lo, hi) - normalize_unit(back.samples, lo, hi)) ** 2
            )
        )
        assert res.mse == pytest.approx(want_mse)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            AttackConfig(AttackKind.OCCLUSION, 1.5)
        with pytest.raises(ValueError):
            AttackConfig(AttackKind.NOISE_UNIFORM, -1.0)


class TestMatchesReference:
    """Every field of each attack's result equals the version before the
    per-call costs were cut, which derived its own key material."""

    @pytest.mark.parametrize("kind", [AttackKind.NOISE_UNIFORM, AttackKind.NOISE_GAUSSIAN])
    @pytest.mark.parametrize("intensity", [0.0, 16.0])
    def test_noise(self, attack_corpus, attack_inputs, kind, intensity):
        segments, records, params_list = attack_corpus
        for i in range(0, 40, 5):
            cfg = AttackConfig(kind, intensity, seed=31 + i)
            want = reference_noise_attack(records[i], params_list[i], cfg, segments[i])
            rec, km, ref = attack_inputs[i]
            assert result_bits(noise_attack(rec, km, cfg, ref)) == result_bits(want)

    @pytest.mark.parametrize(
        "kind, intensity",
        [
            (AttackKind.NOISE_UNIFORM, 0.0),
            (AttackKind.NOISE_UNIFORM, 0.4),
            (AttackKind.NOISE_UNIFORM, 0.5),
            (AttackKind.NOISE_GAUSSIAN, 0.0),
        ],
    )
    def test_noise_that_draws_only_zeros(self, attack_corpus, attack_inputs, kind, intensity, monkeypatch):
        # round(a) == 0 for uniform, a == 0 for Gaussian: the ciphertext is
        # left as it is, and no generator is built
        segments, records, params_list = attack_corpus
        cases = []
        for i in range(0, 40, 5):
            cfg = AttackConfig(kind, intensity, seed=31 + i)
            cases.append((cfg, attack_inputs[i], reference_noise_attack(records[i], params_list[i], cfg, segments[i])))

        def no_generator(*args, **kwargs):
            raise AssertionError("a generator was built for a zero draw")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for cfg, (rec, km, ref), want in cases:
            got = noise_attack(rec, km, cfg, ref)
            assert result_bits(got) == result_bits(want)
            assert got.corrupted_sample_indices == () and got.dispersion == 0.0

    @pytest.mark.parametrize("intensity", [0.0, 0.1, 0.5, 1.0])
    def test_occlusion(self, attack_corpus, attack_inputs, intensity):
        segments, records, params_list = attack_corpus
        for i in range(0, 40, 5):
            cfg = AttackConfig(AttackKind.OCCLUSION, intensity, seed=17 + i)
            want = reference_occlusion_attack(records[i], params_list[i], cfg, segments[i])
            rec, km, ref = attack_inputs[i]
            assert result_bits(occlusion_attack(rec, km, cfg, ref)) == result_bits(want)


class TestDispersionStatistic:
    def test_contiguous_damage_low(self):
        from hecg.attacks import _dispersion

        assert _dispersion(np.arange(30), 300) < 0.2

    def test_scattered_damage_high(self):
        from hecg.attacks import _dispersion

        assert _dispersion(np.arange(0, 300, 10), 300) > 0.8

    def test_uniform_scatter_gap(self, attack_inputs):
        # mean nearest-neighbor gap of corrupted indices approaches
        # n/ceil(f*n) within a factor of 2 (uniform-scatter behavior)
        gaps = []
        for i, (rec, km, ref) in enumerate(attack_inputs):
            res = occlusion_attack(rec, km, AttackConfig(AttackKind.OCCLUSION, 0.1, seed=300 + i), ref)
            idx = np.sort(np.asarray(res.corrupted_sample_indices))
            gaps.append(float(np.mean(np.diff(idx))))
        expected = 300 / math.ceil(0.1 * 300)
        mean_gap = float(np.mean(gaps))
        assert expected / 2 <= mean_gap <= expected * 2


def test_sweep_table_format(attack_corpus):
    _, records, params_list = attack_corpus
    rows = attack_sweep(records[:5], params_list[:5], AttackKind.OCCLUSION, [0.05, 0.1, 0.25], seed=1)
    text = sweep_table(rows)
    lines = text.strip().splitlines()
    assert lines[0].split("\t") == ["intensity", "mae", "mse", "dispersion"]
    assert len(lines) == 4
    for line in lines[1:]:
        values = [float(v) for v in line.split("\t")]
        assert len(values) == 4


@pytest.mark.parametrize(
    "attack, config",
    [
        (noise_attack, AttackConfig(AttackKind.NOISE_UNIFORM, 4.0, seed=2)),
        (occlusion_attack, AttackConfig(AttackKind.OCCLUSION, 0.25, seed=2)),
    ],
)
def test_given_key_material(attack_corpus, attack, config):
    # key material of another length is refused before its permutation
    # indexes anything
    segments, records, params_list = attack_corpus
    rec, p, ref = records[3], params_list[3], clean_reference(segments[3])
    wrong = derive_key_material(p, rec.segment_len - 1)
    with pytest.raises(CorruptRecordError, match="keystream length mismatch"):
        attack(rec, wrong, config, ref)


def test_reference_of_another_length_rejected(attack_corpus, attack_inputs):
    segments, _, _ = attack_corpus
    rec, km, _ = attack_inputs[3]
    short = clean_reference(SignalSegment(segments[3].samples[:-1], 500.0))
    with pytest.raises(ShapeError, match=r"length mismatch \(299,\) vs \(300,\)"):
        noise_attack(rec, km, AttackConfig(AttackKind.NOISE_UNIFORM, 4.0, seed=2), short)


@pytest.mark.parametrize("flat", [None, 0.25, -0.0, 0.0])
def test_clean_reference_is_normalize_unit(attack_corpus, flat):
    samples = attack_corpus[0][7].samples if flat is None else np.full(300, flat)
    lo, hi, clean = clean_reference(SignalSegment(samples, 500.0))
    assert (lo, hi) == (float(np.min(samples)), float(np.max(samples)))
    assert clean.tobytes() == normalize_unit(samples, lo, hi).tobytes()


def _sweep_bits(rows):
    return [{k: v.hex() for k, v in row.items()} for row in rows]


@pytest.fixture(scope="module")
def chunked_store():
    """2 x BATCH_ROWS + 7 records of 300 samples with a run of five
    200-sample records among them, so that batch_slices cuts a chunk
    short: (records, params_list)."""
    long = list(synthetic_ecg(2 * BATCH_ROWS * 0.6 + 5.0, seed=41))[: 2 * BATCH_ROWS + 7]
    short = list(synthetic_ecg(3.0, seed=42, segment_len=200))[:5]
    segments = long[:70] + short + long[70:]
    params_list = [params_for_segment(seg) for seg in segments]
    records = [
        encrypt(seg, p, counter=i) for i, (seg, p) in enumerate(zip(segments, params_list))
    ]
    return records, params_list


class TestSweepDecryptsItsOwnOriginals:
    """attack_sweep measures each record against its own decryption, with
    the key material it derived for the record's chunk, and gives the rows
    of the same sweep done one record at a time."""

    def test_store_cuts_chunks_short(self, chunked_store):
        records, _ = chunked_store
        assert len(records) == 2 * BATCH_ROWS + 7 + 5
        cuts = [(s.start, s.stop) for s in batch_slices([r.segment_len for r in records])]
        assert cuts == [(0, 64), (64, 70), (70, 75), (75, 139), (139, 140)]

    @pytest.mark.parametrize(
        "kind, intensities",
        [
            (AttackKind.NOISE_UNIFORM, [0.0, 1.0, 4.0, 16.0]),
            (AttackKind.NOISE_GAUSSIAN, [0.5, 4.0]),
            (AttackKind.OCCLUSION, [0.0, 0.1, 0.5]),
        ],
    )
    def test_rows_equal_one_record_at_a_time(self, chunked_store, kind, intensities):
        records, params_list = chunked_store
        attack = occlusion_attack if kind is AttackKind.OCCLUSION else noise_attack
        damage = [[] for _ in intensities]
        for i, (rec, p) in enumerate(zip(records, params_list)):
            km = derive_key_material(p, rec.segment_len)
            ref = clean_reference(decrypt(rec, p))
            for level, intensity in enumerate(intensities):
                cfg = AttackConfig(kind, intensity, seed=5 + 7919 * level + i)
                damage[level].append(attack(rec, km, cfg, ref))
        want = [
            {
                "intensity": float(intensity),
                "mae": float(np.mean([r.mae for r in results])),
                "mse": float(np.mean([r.mse for r in results])),
                "dispersion": float(np.mean([r.dispersion for r in results])),
            }
            for intensity, results in zip(intensities, damage)
        ]
        got = attack_sweep(records, params_list, kind, intensities, 5)
        assert _sweep_bits(got) == _sweep_bits(want)

    def test_length_mismatch_rejected(self, chunked_store):
        records, params_list = chunked_store
        with pytest.raises(ShapeError, match="140 records for 139 params"):
            attack_sweep(records, params_list[:-1], AttackKind.OCCLUSION, [0.1])
