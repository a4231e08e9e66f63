import threading

import numpy as np
import pytest

from hecg import cipher, pipeline

# (heart rate, generator noise, seed) per stream: varied enough that every
# segment derives a fresh biometric key, quiet enough that plain segments
# stay structured (low entropy, biased bits, peaked spectrum).
CORPUS_STREAMS = [
    (60.0, 0.010, 101),
    (66.0, 0.012, 202),
    (72.0, 0.015, 303),
    (78.0, 0.010, 404),
    (84.0, 0.012, 505),
    (90.0, 0.014, 606),
]
SEGMENTS_PER_STREAM = 20


def make_corpus(segment_len: int = 300, per_stream: int = SEGMENTS_PER_STREAM):
    """Deterministic mixed-rate corpus; returns (segments, stream_slices)."""
    segments = []
    slices = []
    for hr, noise, seed in CORPUS_STREAMS:
        duration = (per_stream + 2) * segment_len / 500.0
        segs = list(
            pipeline.synthetic_ecg(
                duration,
                heart_rate_bpm=hr,
                noise_amplitude=noise,
                seed=seed,
                segment_len=segment_len,
            )
        )[:per_stream]
        start = len(segments)
        segments.extend(segs)
        slices.append(slice(start, start + len(segs)))
    return segments, slices


@pytest.fixture(scope="session")
def corpus():
    segments, slices = make_corpus()
    return segments, slices


@pytest.fixture(scope="session")
def encrypted_corpus(corpus):
    """Records and key params for the whole corpus, Direct mode, salted."""
    from hecg.chaos import KeySalt, apply_salt

    segments, slices = corpus
    records, params_list = [], []
    for i, seg in enumerate(segments):
        base = cipher.params_for_segment(seg)
        salt = KeySalt(timestamp=1_700_000_000_000 + i, device_id=b"corpus")
        salted = apply_salt(base, salt)
        rec = cipher.encrypt(seg, salted, salt=salt, counter=i)
        records.append(rec)
        params_list.append(salted)
    return segments, slices, records, params_list


@pytest.fixture(scope="session")
def ciphertexts(encrypted_corpus):
    _, _, records, _ = encrypted_corpus
    return [np.frombuffer(r.ciphertext, dtype=np.uint8) for r in records]


def make_training_segments(count: int = 500, segment_len: int = 300):
    """Varied synthetic corpus for the key-generator experiments."""
    per = count // 10
    segments = []
    for k in range(10):
        segs = list(
            pipeline.synthetic_ecg(
                (per + 2) * segment_len / 500.0,
                heart_rate_bpm=55.0 + 5.0 * k,
                noise_amplitude=0.005 + 0.004 * (k % 4),
                seed=k,
                segment_len=segment_len,
            )
        )[:per]
        segments.extend(segs)
    return segments


@pytest.fixture(scope="session")
def training_segments():
    return make_training_segments()


@pytest.fixture(scope="session")
def trained_model(training_segments):
    """Reference training run: 500 clean segments, default config."""
    from hecg import mlkey

    dataset = mlkey.build_dataset(training_segments)
    return mlkey.train(dataset, mlkey.TrainConfig(seed=1))


@pytest.fixture(scope="session")
def robust_model(training_segments):
    """Noise-augmented training for the robustness-under-noise checks."""
    from hecg import mlkey

    dataset = mlkey.build_dataset(
        training_segments, augment_noise=8, augment_snr_db=20.0, seed=5
    )
    return mlkey.train(
        dataset,
        mlkey.TrainConfig(epochs=3000, learning_rate=0.15, lr_decay=0.999, seed=1),
    )


# Seconds a run over a few segments may take before a test calls it hung.
BOUND_S = 10.0


@pytest.fixture()
def bounded():
    """Call fn() on a daemon thread and return its result or re-raise its
    exception; fail the test, rather than hang it, if fn() is still
    running after BOUND_S seconds."""

    def call(fn):
        box = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as exc:  # re-raised on the test's thread
                box["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(BOUND_S)
        if thread.is_alive():
            pytest.fail(f"still running after {BOUND_S} s")
        if "error" in box:
            raise box["error"]
        return box["value"]

    return call


@pytest.fixture()
def bad_csv(tmp_path):
    """Write a 70-segment CSV of 300-sample segments under the header "ecg"
    with line 20002 (sample 20000, in segment 66) replaced by bad; returns
    its path and the original samples.

    At BLOCK_SEGMENTS 1, 2 and 32 the bad row lies in a later block than
    the first. At 32, ingest_csv reads two full blocks of 9600 lines after
    the first data row, then a remainder (lines 19203-21001) that holds
    the bad row and the rows of segments 65 and 64 (except its first)."""

    def write(bad: str):
        wave = pipeline.synthetic_ecg_wave(42.0, seed=34)
        lines = ["ecg"] + [f"{v:.17g}" for v in wave]
        lines[20001] = bad
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        return path, wave

    return write
