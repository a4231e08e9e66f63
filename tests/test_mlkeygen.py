import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecg import mlkey
from hecg.chaos import NUDGE, R_MAX, R_MIN, R_SPAN, X0_MAX, X0_MIN, X0_SPAN, ChaoticParams
from hecg.cipher import Mode, SignalSegment, decrypt_bytes, params_for_segment, quantize
from hecg.errors import (
    CorruptRecordError,
    DatasetError,
    ParameterDomainError,
    ShapeError,
    TrainingDivergedError,
)
from hecg.mlkey import (
    KeyPredictor,
    Preprocessor,
    TrainConfig,
    build_dataset,
    loss_and_gradients,
    noise_sigma_for_snr,
    predict_params,
    train,
)
from hecg.pipeline import seal_segment


def small_segments(n=30, length=40, seed=0):
    rng = np.random.default_rng(seed)
    return [SignalSegment(rng.normal(0.1, 0.3, length), 500.0) for _ in range(n)]


def reference_transform(prep, raw):
    """Preprocessor.transform as it was before its all-finite fast path,
    less the imputation of non-finite inputs."""
    span = prep.hi - prep.lo
    out = np.zeros_like(raw)
    nz = span > 0
    out[..., nz] = (raw[..., nz] - prep.lo[nz]) / span[nz]
    return out


def reference_clamp(raw_r, raw_x0):
    """predict_params' clamp as it was, with np.clip."""
    r = float(np.clip(raw_r, R_MIN + R_SPAN * NUDGE, R_MAX - R_SPAN * NUDGE))
    x0 = float(np.clip(raw_x0, X0_MIN + X0_SPAN * NUDGE, X0_MAX - X0_SPAN * NUDGE))
    return r, x0


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBuildDataset:
    def test_labels_match_direct_derivation(self):
        segs = small_segments()
        ds = build_dataset(segs)
        for seg, (r, x0) in zip(segs, ds.labels):
            want = params_for_segment(seg)
            assert r == pytest.approx(want.r, abs=1e-12)
            assert x0 == pytest.approx(want.x0, abs=1e-12)

    def test_constant_segment_label(self):
        segs = small_segments(11)
        segs[0] = SignalSegment(np.full(40, 0.25), 500.0)
        ds = build_dataset(segs)
        label_r, label_x0 = ds.labels[0]
        assert 3.6 < label_r < 3.6 + 1e-5  # sigma=0 nudged off the boundary
        assert label_x0 == pytest.approx(0.35)

    def test_domain_containment_200_segments(self):
        ds = build_dataset(small_segments(200, seed=3))
        assert np.all(ds.labels[:, 0] > 3.6) and np.all(ds.labels[:, 0] < 4.0)
        assert np.all(ds.labels[:, 1] > 0.1) and np.all(ds.labels[:, 1] < 0.9)
        assert len(ds) == 200

    def test_too_few_segments(self):
        with pytest.raises(DatasetError):
            build_dataset(small_segments(9))

    def test_inconsistent_lengths(self):
        segs = small_segments(12)
        segs[5] = SignalSegment(np.zeros(41) + np.arange(41), 500.0)
        with pytest.raises(DatasetError):
            build_dataset(segs)

    def test_overflowing_augmentation_noise_refused(self):
        # sigma = A * 10^(5999/20) overflows to inf for a 1e9 amplitude
        rng = np.random.default_rng(2)
        segs = [SignalSegment(rng.normal(0.0, 1e9, 40), 500.0) for _ in range(12)]
        assert noise_sigma_for_snr(segs[0], -5999.0) == np.inf
        with pytest.raises(DatasetError, match="overflows"):
            build_dataset(segs, augment_noise=1, augment_snr_db=-5999.0)

    def test_augmentation_labels_clean(self):
        segs = small_segments(10)
        ds = build_dataset(segs, augment_noise=2, augment_snr_db=20.0, seed=1)
        assert len(ds) == 30
        # augmented rows carry the clean segment's label
        assert np.allclose(ds.labels[0], ds.labels[1])
        assert np.allclose(ds.labels[0], ds.labels[2])


class TestPreprocessor:
    def test_idempotent_on_clean_input(self):
        # a preprocessor fitted on already-clean scaled data is the
        # identity: per-feature extremes are exactly 0 and 1 after one
        # transform, so the refit spans the unit interval
        rng = np.random.default_rng(1)
        raw = rng.uniform(-3.0, 5.0, (50, 20))
        once = Preprocessor.fit(raw).transform(raw)
        refit = Preprocessor.fit(once)
        assert np.max(np.abs(refit.transform(once) - once)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 12), st.integers(1, 6))
    def test_fit_fill_matches_masked_median(self, data, rows, n):
        # the masked median fit took while it imputed non-finite inputs; for
        # an odd row count it adds the middle value to itself, which
        # overflows past 8.99e307 where np.median does not, hence the bound
        values = st.one_of(
            st.floats(-8e307, 8e307),
            st.sampled_from([0.0, -0.0, 5e-324, 8e307, -8e307]),
        )
        raw = np.array([data.draw(st.lists(values, min_size=n, max_size=n)) for _ in range(rows)])
        want = np.ma.median(np.ma.masked_invalid(raw), axis=0).filled(0.0)
        assert_same_bits(Preprocessor.fit(raw).fill, want)

    def test_constant_feature_maps_to_zero(self):
        raw = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        prep = Preprocessor.fit(raw)
        out = prep.transform(raw)
        assert np.all(out[:, 0] == 0.0)
        assert out[:, 1].min() == 0.0 and out[:, 1].max() == 1.0


    @pytest.mark.parametrize("shape", [(4,), (3, 4)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, None])
    def test_transform_matches_reference(self, shape, bad):
        # column 2 has zero span; bad (when given) lands in row 0, column 1
        prep = Preprocessor(
            fill=np.array([0.5, -1.0, 2.0, 0.25]),
            lo=np.array([-1.0, 0.0, 3.0, 1e-3]),
            hi=np.array([2.0, 7.5, 3.0, 1e3]),
        )
        raw = np.random.default_rng(4).uniform(-5.0, 10.0, shape)
        if bad is not None:
            raw[(0,) * (raw.ndim - 1) + (1,)] = bad
        assert_same_bits(prep.transform(raw), reference_transform(prep, raw))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 6), st.sampled_from([None, 1, 3]))
    def test_transform_matches_reference_any_input(self, data, n, rows):
        # rows None: one 1-D feature vector; else a 2-D batch of rows
        values = st.one_of(
            st.floats(-1e6, 1e6),
            st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308]),
        )
        column = st.lists(values, min_size=n, max_size=n).map(np.array)
        lo = data.draw(column)
        hi = data.draw(st.one_of(column, st.just(lo.copy())))
        raw = data.draw(column) if rows is None else np.array([data.draw(column) for _ in range(rows)])
        with np.errstate(all="ignore"):
            prep = Preprocessor(fill=data.draw(column), lo=lo, hi=hi)
            assert_same_bits(prep.transform(raw), reference_transform(prep, raw))


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        dims = [12, 8, 5, 2]
        weights = [rng.normal(0, 0.5, (a, b)) for a, b in zip(dims[:-1], dims[1:])]
        biases = [rng.normal(0, 0.1, b) for b in dims[1:]]
        x = rng.normal(0, 1, (16, 12))
        y = rng.normal(0, 1, (16, 2))
        _, gw, gb = loss_and_gradients(weights, biases, x, y)
        eps = 1e-6
        for _ in range(20):
            li = int(rng.integers(0, len(weights)))
            if rng.random() < 0.7:
                i = int(rng.integers(0, weights[li].shape[0]))
                j = int(rng.integers(0, weights[li].shape[1]))
                analytic = gw[li][i, j]
                weights[li][i, j] += eps
                up, _, _ = loss_and_gradients(weights, biases, x, y)
                weights[li][i, j] -= 2 * eps
                down, _, _ = loss_and_gradients(weights, biases, x, y)
                weights[li][i, j] += eps
            else:
                j = int(rng.integers(0, biases[li].size))
                analytic = gb[li][j]
                biases[li][j] += eps
                up, _, _ = loss_and_gradients(weights, biases, x, y)
                biases[li][j] -= 2 * eps
                down, _, _ = loss_and_gradients(weights, biases, x, y)
                biases[li][j] += eps
            numeric = (up - down) / (2 * eps)
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-10)


class TestTrain:
    def test_constant_labels_converge(self):
        # identical segments, identical labels: the net must collapse to a
        # constant output
        segs = [SignalSegment(np.full(30, 0.4), 500.0) for _ in range(40)]
        ds = build_dataset(segs)
        _, report = train(ds, TrainConfig(epochs=400, seed=2))
        assert report.test_mse < 1e-6

    def test_heldout_mse_threshold(self, trained_model):
        _, report = trained_model
        assert report.test_mse < 1e-3

    def test_deterministic_same_seed(self):
        segs = small_segments(40, seed=11)
        ds = build_dataset(segs)
        cfg = TrainConfig(epochs=50, seed=123)
        m1, r1 = train(ds, cfg)
        m2, r2 = train(ds, cfg)
        assert r1 == r2
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(m1.biases, m2.biases):
            assert np.array_equal(b1, b2)

    def test_divergence_detected(self):
        segs = small_segments(40, seed=13)
        ds = build_dataset(segs)
        with pytest.raises(TrainingDivergedError):
            train(ds, TrainConfig(epochs=400, learning_rate=2e4, lr_decay=1.0, seed=0))


class TestPredictParams:
    def test_training_segment_close_to_label(self, trained_model, training_segments):
        model, _ = trained_model
        hits = 0
        for seg in training_segments[:50]:
            label = params_for_segment(seg)
            got = predict_params(model, seg)
            if abs(got.r - label.r) < 0.05 and abs(got.x0 - label.x0) < 0.05:
                hits += 1
        assert hits >= 48

    def test_clamped_for_adversarial_net(self):
        # raw output far outside the domain must clamp to the interior
        prep = Preprocessor(fill=np.zeros(4), lo=np.zeros(4), hi=np.ones(4))
        model = KeyPredictor(
            weights=[np.zeros((4, 2))],
            biases=[np.array([50.0, -50.0])],  # unit outputs 50 and -50
            prep=prep,
        )
        params = predict_params(model, SignalSegment(np.array([0.1, 0.2, 0.3, 0.4]), 500.0))
        assert 3.6 < params.r < 4.0
        assert 0.1 < params.x0 < 0.9

    @pytest.mark.parametrize(
        "unit_r, unit_x0",
        [
            (np.nan, 0.5),
            (0.5, np.nan),
            (np.inf, -np.inf),
            (-np.inf, np.inf),
            (50.0, -50.0),
            (0.0, 1.0),
            (0.25, 0.75),
            (1e-300, 1.0 - 2.0**-53),
        ],
    )
    def test_clamp_matches_reference(self, unit_r, unit_x0):
        # an adversarial net whose raw outputs are R_MIN + R_SPAN * unit_r
        # and X0_MIN + X0_SPAN * unit_x0 for every input
        model = KeyPredictor(
            weights=[np.zeros((4, 2))],
            biases=[np.array([unit_r, unit_x0])],
            prep=Preprocessor(fill=np.zeros(4), lo=np.zeros(4), hi=np.ones(4)),
        )
        seg = SignalSegment(np.array([0.1, 0.2, 0.3, 0.4]), 500.0)
        raw_r, raw_x0 = model.forward(model.prep.transform(seg.samples[np.newaxis, :]))[0]
        want_r, want_x0 = reference_clamp(raw_r, raw_x0)
        if np.isnan(want_r) or np.isnan(want_x0):
            with pytest.raises(ParameterDomainError, match="non-finite"):
                predict_params(model, seg)
            return
        got = predict_params(model, seg)
        assert (got.r.hex(), got.x0.hex()) == (want_r.hex(), want_x0.hex())

    def test_length_mismatch(self, trained_model):
        model, _ = trained_model
        with pytest.raises(ShapeError):
            predict_params(model, SignalSegment(np.zeros(10) + np.arange(10), 500.0))

    def test_noisy_prediction_closer_than_direct(self, robust_model, training_segments):
        # additive noise at peak-referenced SNR 20 dB; the augmented-trained
        # net maps the noisy observation back toward the clean segment's
        # key more accurately than re-deriving stats from the noisy signal
        model, _ = robust_model
        rng = np.random.default_rng(77)
        wins = 0
        for _ in range(100):
            seg = training_segments[rng.integers(0, len(training_segments))]
            clean = params_for_segment(seg)
            sigma = noise_sigma_for_snr(seg, 20.0)
            noisy = SignalSegment(seg.samples + rng.normal(0.0, sigma, len(seg)), 500.0)
            p_ml = predict_params(model, noisy)
            p_direct = params_for_segment(noisy)
            e_ml = np.hypot(p_ml.r - clean.r, p_ml.x0 - clean.x0)
            e_direct = np.hypot(p_direct.r - clean.r, p_direct.x0 - clean.x0)
            if e_ml < e_direct:
                wins += 1
        assert wins >= 60


def _seal_ml(segment, model, index=0):
    """Encrypt as the ML stream path does: (record, stored params)."""
    record, salted, _ = seal_segment(
        segment, index, Mode.ML_PREDICTED, model, b"desk01", 1_700_000_000_000
    )
    return record, salted


class TestEncryptMl:
    def test_roundtrip_with_stored_params(self, trained_model, training_segments):
        model, _ = trained_model
        seg = training_segments[0]
        record, stored = _seal_ml(seg, model)
        # decryption uses the stored params, never a re-prediction
        assert np.array_equal(decrypt_bytes(record, stored), quantize(seg).bytes)
        assert record.mode_tag is Mode.ML_PREDICTED

    def test_serialized_mode_tag(self, trained_model, training_segments):
        model, _ = trained_model
        record, _ = _seal_ml(training_segments[1], model)
        assert record.to_bytes()[5] == 1

    def test_ciphertext_entropy(self, trained_model, training_segments):
        from hecg import analysis

        model, _ = trained_model
        ents = []
        for i, seg in enumerate(training_segments[:40]):
            record, _ = _seal_ml(seg, model, i)
            ents.append(analysis.shannon_entropy(np.frombuffer(record.ciphertext, np.uint8)))
        assert np.mean(ents) > 7.0


class TestModelContainer:
    def test_save_load_roundtrip(self, trained_model, training_segments, tmp_path):
        model, _ = trained_model
        path = tmp_path / "model.hmlp"
        model.save(path)
        loaded = KeyPredictor.load(path)
        assert loaded.dims == model.dims
        seg = training_segments[2]
        assert predict_params(loaded, seg) == predict_params(model, seg)
        # byte-stable: saving the loaded model reproduces the exact file
        path2 = tmp_path / "model2.hmlp"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hmlp"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(CorruptRecordError):
            KeyPredictor.load(path)

    def test_truncated(self, trained_model, tmp_path):
        model, _ = trained_model
        path = tmp_path / "model.hmlp"
        model.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptRecordError):
            KeyPredictor.load(path)

    def test_trailing_garbage(self, trained_model, tmp_path):
        model, _ = trained_model
        path = tmp_path / "model.hmlp"
        model.save(path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(CorruptRecordError):
            KeyPredictor.load(path)
