import ast
import contextlib
import csv
import hashlib
import itertools
import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecg import analysis, cipher, pipeline
from hecg.chaos import ChaoticParams, iterate_logistic
from hecg.cipher import Mode, SignalSegment, decrypt, quantize
from hecg.errors import CorruptRecordError, IngestionError, StoreError
from hecg.pipeline import (
    FileStore,
    Pacing,
    PipelineMetrics,
    count_peaks,
    default_classifier,
    ingest_csv,
    run_pipeline,
    synthetic_ecg,
    synthetic_ecg_wave,
)


class TestSyntheticEcg:
    def test_one_beat_per_second(self):
        wave = synthetic_ecg_wave(1.0, 500.0, 60.0, 0.0, seed=1)
        seg = SignalSegment(wave, 500.0)
        assert count_peaks(seg) == 1

    def test_three_second_peak_count(self):
        wave = synthetic_ecg_wave(3.0, 500.0, 60.0, 0.0, seed=2)
        assert abs(count_peaks(SignalSegment(wave, 500.0)) - 3) <= 1

    def test_deterministic(self):
        a = synthetic_ecg_wave(2.0, 500.0, 72.0, 0.02, seed=9)
        b = synthetic_ecg_wave(2.0, 500.0, 72.0, 0.02, seed=9)
        assert np.array_equal(a, b)

    def test_amplitude_envelope(self):
        wave = synthetic_ecg_wave(10.0, 500.0, 72.0, 0.02, seed=3)
        assert -0.5 < wave.min() < 0.1
        assert 0.5 < wave.max() < 1.5

    def test_structured_baseline_entropy(self):
        # quantized synthetic ECG stays well below random-byte entropy
        segs = list(synthetic_ecg(30.0, seed=4))
        ents = [analysis.shannon_entropy(quantize(s).bytes) for s in segs]
        assert np.mean(ents) < 6.5

    def test_segment_stream_shape(self):
        segs = list(synthetic_ecg(6.0, segment_len=300))
        assert len(segs) == 10
        assert all(len(s) == 300 for s in segs)

    @pytest.mark.parametrize("rate", [0.0, -60.0, math.inf, math.nan])
    def test_rate_that_never_advances_a_beat_is_refused(self, rate):
        # a period of 60 / inf = 0 would spin the beat loop forever
        with pytest.raises(ValueError, match="heart_rate_bpm"):
            synthetic_ecg_wave(1.0, 500.0, rate)


class TestIngestCsv:
    def _write(self, tmp_path, rows, header=None):
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            if header:
                fh.write(header + "\n")
            for row in rows:
                fh.write(f"{row}\n")
        return path

    def test_exact_multiple(self, tmp_path):
        path = self._write(tmp_path, np.arange(900.0).tolist())
        segs = list(ingest_csv(path, 0, 500.0, 300))
        assert len(segs) == 3

    def test_trailing_partial_dropped(self, tmp_path):
        path = self._write(tmp_path, np.arange(899.0).tolist())
        segs = list(ingest_csv(path, 0, 500.0, 300))
        assert len(segs) == 2

    def test_header_tolerated_with_index_column(self, tmp_path):
        path = self._write(tmp_path, np.arange(600.0).tolist(), header="value")
        segs = list(ingest_csv(path, 0, 500.0, 300))
        assert len(segs) == 2

    def test_named_column(self, tmp_path):
        path = tmp_path / "multi.csv"
        with open(path, "w") as fh:
            fh.write("t,ecg\n")
            for i in range(600):
                fh.write(f"{i},{np.sin(i / 10.0)}\n")
        segs = list(ingest_csv(path, "ecg", 500.0, 300))
        assert len(segs) == 2

    def test_malformed_row_names_line(self, tmp_path):
        rows = [str(float(i)) for i in range(400)]
        rows[250] = "garbage"
        path = self._write(tmp_path, rows)
        with pytest.raises(IngestionError) as err:
            list(ingest_csv(path, 0, 500.0, 300))
        assert err.value.line_number == 251

    def test_missing_named_column(self, tmp_path):
        path = self._write(tmp_path, [1.0, 2.0], header="a,b")
        with pytest.raises(IngestionError):
            list(ingest_csv(path, "missing", 500.0, 2))

    def test_negative_column_past_the_row_names_line(self, tmp_path):
        # the first row is taken as a header, as with a too-large index
        path = self._write(tmp_path, np.arange(600.0).tolist())
        for column in (-5, 3):
            with pytest.raises(IngestionError) as err:
                list(ingest_csv(path, column, 500.0, 300))
            assert str(err.value) == f"line 2: row has 1 fields, need {5 if column < 0 else 4}"

    def test_negative_column_counts_from_the_end(self, tmp_path):
        rows = [f"{i},{math.sin(i / 10.0)!r}" for i in range(700)]
        path = self._write(tmp_path, rows, header="t,ecg")
        for size in BLOCK_SIZES:
            with _block_segments(size):
                for index, name in ((-1, "ecg"), (-2, "t")):
                    got = [s.samples.tobytes() for s in ingest_csv(path, index, 500.0, 300)]
                    assert got == [s.samples.tobytes() for s in ingest_csv(path, name, 500.0, 300)]
                    assert len(got) == 2

    def test_short_row_under_a_negative_column_names_line(self, tmp_path):
        rows = [f"{i},{i}.5" for i in range(700)]
        rows[400] = "7.5"
        path = self._write(tmp_path, rows)
        _, error = _assert_same_as_reference(path, -2, 300)
        assert error == (IngestionError, "line 401: row has 1 fields, need 2", 401)


# BLOCK_SEGMENTS values the block reader is checked at: one segment, two,
# and the shipped value.
SHIPPED_BLOCK_SEGMENTS = pipeline.BLOCK_SEGMENTS
BLOCK_SIZES = (1, 2, SHIPPED_BLOCK_SEGMENTS)


@contextlib.contextmanager
def _block_segments(size):
    """pipeline.BLOCK_SEGMENTS set to size inside the with block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "BLOCK_SEGMENTS", size)
        yield


def _reference_ingest(path, column=0, sample_rate=500.0, segment_len=300):
    """ingest_csv as a csv.reader + float() loop over every row: the
    reader the block parser must agree with."""
    buf = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        col_idx = None
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if col_idx is None:
                if isinstance(column, str):
                    if column not in row:
                        raise IngestionError(f"no column named {column!r} in header", line_no)
                    col_idx = row.index(column)
                    continue
                col_idx = int(column)
                try:
                    float(row[col_idx])
                except (ValueError, IndexError):
                    continue  # header row
            if not -len(row) <= col_idx < len(row):
                raise IngestionError(f"row has {len(row)} fields, need {max(col_idx + 1, -col_idx)}", line_no)
            try:
                value = float(row[col_idx])
            except ValueError:
                raise IngestionError(f"non-numeric value {row[col_idx]!r}", line_no) from None
            if not math.isfinite(value):
                raise IngestionError(f"non-finite value {row[col_idx]!r}", line_no)
            buf.append(value)
            if len(buf) == segment_len:
                yield SignalSegment(np.asarray(buf), sample_rate)
                buf = []


def _outcome(segments):
    """Bytes of every segment yielded before the end or an error, and the
    error's type, message and line number."""
    got = []
    try:
        for seg in segments:
            got.append(seg.samples.tobytes())
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return got, (type(exc), str(exc), getattr(exc, "line_number", None))
    return got, None


def _assert_same_as_reference(path, column, segment_len):
    """ingest_csv gives the row reader's outcome at every size in BLOCK_SIZES."""
    want = _outcome(_reference_ingest(path, column, 500.0, segment_len))
    for size in BLOCK_SIZES:
        with _block_segments(size), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _outcome(ingest_csv(path, column, 500.0, segment_len))
        assert [str(w.message) for w in caught] == []
        assert got == want, f"BLOCK_SEGMENTS = {size}"
    return want


# Value-column cells that one of the two parsers might read differently.
_ODD_CELLS = [
    '"1.5"',
    '" 2.5e1 "',
    "1_000",
    "1__0",
    " 3.25 ",
    "\t-0.0",
    "",
    " ",
    "abc",
    "0x1p3",
    "nan",
    "-inf",
    "1e400",
    "1.5\x1c",
    "\x1f2",
    "1\x00",
    "\u0661\u0662",
    "\u20034.5",
    "4.5\x85",
    "#7",
]


@st.composite
def _csv_files(draw):
    """(text, column, segment_len): mostly valid numeric rows in two columns
    with a few odd rows, cells and line endings mixed in; segment lengths
    below 2 never make a valid segment. Half the files repeat their drawn
    rows until ingest_csv reads two full blocks and a remainder at the
    shipped BLOCK_SEGMENTS."""
    value_col = draw(st.sampled_from([0, 1]))
    segment_len = draw(st.integers(-1, 5))
    numbers = st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False).map(repr),
        st.floats(-1e3, 1e3, allow_nan=False).map(lambda v: f"{v:.6e}"),
        st.integers(-5000, 5000).map(str),
    )
    rows = [
        [draw(numbers), draw(numbers)] for _ in range(draw(st.integers(0, 40)))
    ]
    if rows and draw(st.booleans()):
        block = SHIPPED_BLOCK_SEGMENTS * max(segment_len, 1)
        count = draw(st.integers(2 * block + 2, 3 * block))
        rows = [rows[i % len(rows)] for i in range(count)]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["blank", "space", "short", "cell", "multiline"]))
        row = (rows[i] + ["0", "0"])[:2]  # an earlier change may have cut it
        if kind == "blank":  # a run of them may fill a whole block
            rows[i:i] = [[]] * draw(st.integers(1, 12))
        elif kind == "space":
            rows[i:i] = [[draw(st.sampled_from([" ", "\t", "  \t "]))]] * draw(st.integers(1, 12))
        elif kind == "short":
            rows[i] = row[:1]
        elif kind == "cell":
            row[value_col] = draw(st.sampled_from(_ODD_CELLS))
            rows[i] = row
        else:
            row[1 - value_col] = '"1\n2,3\r\n4"'
            rows[i] = row
    header = draw(st.sampled_from(["none", "name", "index"]))
    column = value_col
    if header != "none":
        rows.insert(0, ["t", "ecg"] if value_col == 1 else ["ecg", "t"])
        if header == "name":
            column = "ecg"
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=40))
    text = "".join(",".join(row) + end for row, end in zip(rows, itertools.cycle(endings)))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline after the last row
    return text, column, segment_len


class TestIngestMatchesRowReader:
    @settings(max_examples=400, deadline=None)
    @given(_csv_files())
    def test_same_segments_or_same_error(self, tmp_path_factory, case):
        text, column, segment_len = case
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        _assert_same_as_reference(path, column, segment_len)

    @pytest.mark.parametrize("at", range(1, 14))
    def test_multiline_field_across_block_boundary(self, tmp_path, at):
        # Blocks after the first data row hold size * 3 lines. For each
        # size, a quoted field that opens `at` - 6 rows from the end of the
        # second block spans the next three lines, each of which would read
        # as a number without the quote.
        for size in BLOCK_SIZES:
            block = size * 3
            rows = [f"{i},{i * 0.5!r}" for i in range(2 * block + 40)]
            rows[2 * block - 6 + at] = f'"{at},1\n2,3\n4,5\n6",{at * 0.5!r}'
            path = tmp_path / f"data{size}.csv"
            path.write_text("t,ecg\n" + "\n".join(rows) + "\n")
            segs, err = _assert_same_as_reference(path, "ecg", 3)
            assert err is None and len(segs) == len(rows) // 3

    def test_error_line_number_after_blocks(self, tmp_path):
        # past two full blocks of the shipped size
        rows = [repr(i * 0.25) for i in range(21000)]
        rows[20000] = "oops"
        path = tmp_path / "data.csv"
        path.write_text("ecg\r\n" + "\r\n".join(rows) + "\r\n")
        segs, err = _assert_same_as_reference(path, 0, 300)
        assert len(segs) == 66
        assert err == (IngestionError, "line 20002: non-numeric value 'oops'", 20002)

    def test_block_reader_in_use(self, tmp_path, monkeypatch):
        calls = []
        real = pipeline._parse_block

        def counting(lines, col_idx):
            calls.append(len(lines))
            return real(lines, col_idx)

        monkeypatch.setattr(pipeline, "_parse_block", counting)
        path = tmp_path / "data.csv"
        # the first data row, then two full blocks of the shipped size and
        # a remainder
        rest = 2 * SHIPPED_BLOCK_SEGMENTS * 300 + 900
        path.write_text("ecg\n" + "".join(f"{i * 0.5!r}\n" for i in range(rest + 1)))
        for size in BLOCK_SIZES:
            calls.clear()
            with _block_segments(size):
                segs = list(ingest_csv(path, "ecg", 500.0, 300))
            assert [s.samples[0] for s in segs] == [150.0 * k for k in range((rest + 1) // 300)]
            # every row after the first data row, in full blocks, then the
            # short block and the empty read at the end of the file
            block = size * 300
            assert calls == [block] * (rest // block) + [rest % block] * (rest % block > 0) + [0]


def _reference_count_peaks(segment):
    s = segment.samples
    lo, hi = float(np.min(s)), float(np.max(s))
    if hi == lo:
        return 0
    thresh = lo + 0.6 * (hi - lo)
    refractory = max(1, int(0.25 * segment.sample_rate))
    peaks = 0
    last = -refractory
    for i in range(1, len(s) - 1):
        if s[i] >= thresh and s[i] >= s[i - 1] and s[i] >= s[i + 1] and i - last >= refractory:
            peaks += 1
            last = i
    return peaks


class TestCountPeaksMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=200),
        st.sampled_from([4.0, 20.0, 100.0, 500.0]),
    )
    def test_random(self, samples, rate):
        seg = SignalSegment(np.asarray(samples), rate)
        assert count_peaks(seg) == _reference_count_peaks(seg)

    @pytest.mark.parametrize("rate", [4.0, 40.0, 500.0])
    def test_flat_and_plateaus(self, rate):
        rng = np.random.default_rng(3)
        signals = [np.full(300, 1.5), np.repeat(rng.integers(0, 3, 60), 5).astype(float)]
        for width in (1, 2, 7):
            bump = np.r_[np.zeros(9), np.ones(width)]
            signals.append(np.tile(bump, 30)[:300])
        for x in signals:
            seg = SignalSegment(x, rate)
            assert count_peaks(seg) == _reference_count_peaks(seg)

    def test_ecg_segments(self):
        for seg in synthetic_ecg(20.0, seed=11):
            assert count_peaks(seg) == _reference_count_peaks(seg)


def _key_id(i: int) -> bytes:
    return i.to_bytes(16, "big")


def _params(i: int) -> ChaoticParams:
    return ChaoticParams(3.9 + i * 1e-4, 0.2 + i * 1e-3)


class TestFileStore:
    def test_record_roundtrip_bytes(self, tmp_path, encrypted_corpus):
        _, _, records, _ = encrypted_corpus
        store = FileStore(tmp_path / "store")
        store.put_record("s0", 0, records[0])
        fetched = store.get_record("s0", 0)
        assert fetched.to_bytes() == records[0].to_bytes()

    def test_key_roundtrip_17_digits(self, tmp_path):
        store = FileStore(tmp_path / "store")
        params = ChaoticParams(3.7123456789012345, 0.81234567890123456)
        store.put_key("s0", b"\xab" * 16, params)
        got = store.get_key("s0", b"\xab" * 16)
        assert got.r == params.r  # 17 significant digits round-trip binary64
        assert got.x0 == params.x0
        line = (store.root / "s0" / "keys.txt").read_text().strip()
        assert line.split()[0] == "ab" * 16

    def test_keys_separate_from_records(self, tmp_path, encrypted_corpus):
        _, _, records, params_list = encrypted_corpus
        store = FileStore(tmp_path / "store")
        store.put_record("s0", 0, records[0])
        store.put_key("s0", records[0].key_id, params_list[0])
        rec_files = list((store.root / "s0").glob("seg_*.rec"))
        assert len(rec_files) == 1
        assert records[0].key_id.hex().encode() not in rec_files[0].read_bytes()
        assert (store.root / "s0" / "keys.txt").exists()

    def test_missing_lookups(self, tmp_path):
        store = FileStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.get_record("nope", 0)
        with pytest.raises(StoreError, match="key store missing"):
            store.get_key("nope", b"\x00" * 16)
        assert store.record_indices("nope") == []
        assert store.streams() == []

    def test_key_index_reads_keys_file_once(self, tmp_path, monkeypatch):
        from hecg import pipeline

        reads = []

        def counting_open(file, mode="r", *args, **kwargs):
            if "r" in mode:
                reads.append(file)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(pipeline, "open", counting_open, raising=False)
        store = FileStore(tmp_path / "store")
        n = 50
        for i in range(n):
            store.put_key("s0", _key_id(i), _params(i))
        for i in range(n):
            assert store.get_key("s0", _key_id(i)) == _params(i)
        assert len(reads) <= 1

    def test_keys_appended_by_another_store_are_found(self, tmp_path):
        first = FileStore(tmp_path / "store")
        second = FileStore(tmp_path / "store")
        first.put_key("s0", _key_id(0), _params(0))
        assert first.get_key("s0", _key_id(0)) == _params(0)
        second.put_key("s0", _key_id(1), _params(1))
        assert first.get_key("s0", _key_id(1)) == _params(1)
        first.put_key("s0", _key_id(2), _params(2))
        assert second.get_key("s0", _key_id(2)) == _params(2)
        with pytest.raises(StoreError, match="already stored"):
            first.put_key("s0", _key_id(1), _params(1))

    def test_duplicate_key_refused(self, tmp_path):
        store = FileStore(tmp_path / "store")
        store.put_key("s0", _key_id(0), _params(0))
        keys = (store.root / "s0" / "keys.txt").read_bytes()
        with pytest.raises(StoreError, match=f"key {_key_id(0).hex()} already stored in stream s0"):
            store.put_key("s0", _key_id(0), _params(1))
        assert (store.root / "s0" / "keys.txt").read_bytes() == keys
        assert store.get_key("s0", _key_id(0)) == _params(0)
        store.put_key("s1", _key_id(0), _params(1))  # key_ids are per stream
        assert store.get_key("s1", _key_id(0)) == _params(1)

    def test_delete_then_put_key(self, tmp_path):
        store = FileStore(tmp_path / "store")
        store.put_key("s0", _key_id(0), _params(0))
        assert store.get_key("s0", _key_id(0)) == _params(0)
        os.remove(store.root / "s0" / "keys.txt")  # behind the index's back
        store.put_key("s0", _key_id(1), _params(1))
        with pytest.raises(StoreError, match="no key"):
            store.get_key("s0", _key_id(0))
        assert store.get_key("s0", _key_id(1)) == _params(1)

    def test_hand_written_rows(self, tmp_path):
        store = FileStore(tmp_path / "store")
        (store.root / "s0").mkdir(parents=True)  # the store makes no root
        (store.root / "s0" / "keys.txt").write_text(
            f"{_key_id(0).hex()} 3.91 0.25\n"
            "not a key row at all\n"
            f"{_key_id(1).hex()} 3.92\n"
            f"{_key_id(0).hex()} 3.93 0.75\n"
        )
        assert store.get_key("s0", _key_id(0)) == ChaoticParams(3.91, 0.25)
        with pytest.raises(StoreError, match="no key"):
            store.get_key("s0", _key_id(1))

    @pytest.mark.parametrize(
        "name",
        ["seg_.rec", "seg_12.rec", "seg_-00001.rec", "seg_0000001.rec", "seg_00000a.rec", "seg_\u0661\u0662\u0663\u0664\u0665\u0666.rec"],
    )
    def test_stray_record_name_is_a_store_error(self, tmp_path, name):
        store = FileStore(tmp_path / "store")
        (store.root / "s0").mkdir(parents=True)
        for index in (0, 1_000_000):  # both as _record_path names them
            (store.root / "s0" / f"seg_{index:06d}.rec").touch()
        assert store.record_indices("s0") == [0, 1_000_000]
        (store.root / "s0" / name).touch()
        with pytest.raises(StoreError, match=name):
            store.record_indices("s0")

    def _torn_store(self, root):
        """A one-row keys.txt cut 6 characters short, as a write that stopped
        mid-x0 leaves it; returns the path and the torn row."""
        FileStore(root).put_key("s0", _key_id(0), ChaoticParams(3.7123456789012345, 0.45678901234567890))
        path = root / "s0" / "keys.txt"
        torn = path.read_text()[:-6]
        path.write_text(torn)
        return path, torn

    def test_torn_row_is_not_a_key(self, tmp_path):
        _, torn = self._torn_store(tmp_path / "store")
        assert torn.split()[2] == "0.456789012345"  # still three fields
        with pytest.raises(StoreError, match="no key"):
            FileStore(tmp_path / "store").get_key("s0", _key_id(0))

    def test_put_key_after_torn_row(self, tmp_path):
        path, _ = self._torn_store(tmp_path / "store")
        store = FileStore(tmp_path / "store")
        store.put_key("s0", _key_id(1), _params(1))
        assert store.get_key("s0", _key_id(1)) == _params(1)
        # the torn row is cut off, so no store reads it as a key later
        assert path.read_text() == f"{_key_id(1).hex()} {_params(1).r:.17g} {_params(1).x0:.17g}\n"
        for reader in (store, FileStore(tmp_path / "store")):
            assert reader.get_key("s0", _key_id(1)) == _params(1)
            with pytest.raises(StoreError, match="no key"):
                reader.get_key("s0", _key_id(0))
        # a rerun that draws the torn row's key_id again stores its own key
        store.put_key("s0", _key_id(0), _params(2))
        assert FileStore(tmp_path / "store").get_key("s0", _key_id(0)) == _params(2)

    def test_write_then_read(self, tmp_path, encrypted_corpus):
        _, _, records, params_list = encrypted_corpus
        store = FileStore(tmp_path / "store")
        for i in range(3):
            store.write("s0", i, records[i], params_list[i])
        for reader in (store, FileStore(tmp_path / "store")):
            for i in range(3):
                record, params = reader.read("s0", i)
                assert record.to_bytes() == records[i].to_bytes()
                assert params == params_list[i]

    @pytest.mark.parametrize("fail_at", [0, 1])
    def test_failed_record_write_cuts_its_key_row(self, tmp_path, encrypted_corpus, monkeypatch, fail_at):
        _, _, records, params_list = encrypted_corpus
        store = FileStore(tmp_path / "store")
        keys = store.root / "s0" / "keys.txt"
        put_record = FileStore.put_record

        def failing(self, stream_id, index, record):
            if index == fail_at:
                raise OSError("injected write fault")
            put_record(self, stream_id, index, record)

        monkeypatch.setattr(FileStore, "put_record", failing)
        for i in range(fail_at):
            store.write("s0", i, records[i], params_list[i])
        before = keys.read_bytes() if keys.exists() else b""
        with pytest.raises(OSError, match="injected write fault"):
            store.write("s0", fail_at, records[fail_at], params_list[fail_at])
        assert keys.read_bytes() == before
        with pytest.raises(StoreError, match="no key"):
            store.get_key("s0", records[fail_at].key_id)
        # the store goes on, and the failed segment can be written again
        store.write("s0", 2, records[2], params_list[2])
        monkeypatch.undo()
        store.write("s0", fail_at, records[fail_at], params_list[fail_at])
        for reader in (store, FileStore(tmp_path / "store")):
            for i in sorted({fail_at, 2, *range(fail_at)}):
                record, params = reader.read("s0", i)
                assert record.to_bytes() == records[i].to_bytes() and params == params_list[i]

    def test_refused_key_writes_no_record(self, tmp_path, encrypted_corpus):
        _, _, records, params_list = encrypted_corpus
        store = FileStore(tmp_path / "store")
        store.put_key("s0", records[0].key_id, params_list[0])
        with pytest.raises(StoreError, match="already stored"):
            store.write("s0", 0, records[0], params_list[1])
        assert list((store.root / "s0").glob("seg_*.rec")) == []
        assert store.get_key("s0", records[0].key_id) == params_list[0]

    def test_record_at_another_index_is_refused(self, tmp_path, encrypted_corpus):
        _, _, records, params_list = encrypted_corpus
        store = FileStore(tmp_path / "store")
        store.write("s0", 0, records[0], params_list[0])
        store.put_record("s0", 5, records[0])
        with pytest.raises(StoreError, match=r"^s0\[5\]: key_id .* at index 5;"):
            store.read("s0", 5)
        with pytest.raises(StoreError, match=r"^s0\[5\]: "):
            store.get_record("s0", 5)
        assert store.read("s0", 0)[0].to_bytes() == records[0].to_bytes()

    def test_damaged_record_names_its_index(self, tmp_path, encrypted_corpus):
        _, _, records, _ = encrypted_corpus
        store = FileStore(tmp_path / "store")
        store.put_record("s0", 2, records[2])
        path = store.root / "s0" / "seg_000002.rec"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CorruptRecordError, match=r"^s0\[2\]: record is \d+ bytes, layout needs"):
            store.get_record("s0", 2)


class TestRunPipeline:
    def test_one_orbit_per_segment(self, tmp_path, monkeypatch):
        """The read-back decrypt reuses the keystream its segment's encrypt
        derived: N segments iterate N orbits, and the store and labels are
        byte for byte those of one orbit per derivation (sha256 pinned)."""
        orbits = []

        def counting(params, n):
            orbits.append((params.r, params.x0, n))
            return iterate_logistic(params, n)

        monkeypatch.setattr(cipher, "_last_key_material", (None, None))
        monkeypatch.setattr(cipher, "iterate_logistic", counting)
        root = tmp_path / "s"
        metrics = run_pipeline(
            itertools.islice(synthetic_ecg(8.0, seed=26), 12), Mode.DIRECT, FileStore(root)
        )
        assert metrics.segments_processed == 12 and not metrics.errors
        assert len(orbits) == 12 and len(set(orbits)) == 12
        sha = hashlib.sha256()
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            sha.update(str(path.relative_to(root)).encode() + b"\0")
            sha.update(path.read_bytes())
        sha.update("\n".join(metrics.labels).encode())
        assert sha.hexdigest() == "da2ad476cdfdb802e57d0575cd00506fe2ee4dd94071c0e48b5a96f9b92a5f96"

    def test_without_a_classifier_nothing_is_read_back(self, tmp_path, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a run without a classifier read a segment back")

        monkeypatch.setattr(FileStore, "read", refused)
        monkeypatch.setattr(pipeline, "decrypt", refused)
        monkeypatch.setattr(cipher, "decrypt", refused)
        store = FileStore(tmp_path / "s")
        segments = itertools.islice(synthetic_ecg(8.0, seed=21), 9)
        metrics = run_pipeline(segments, Mode.DIRECT, store, classifier=None)
        assert not metrics.errors and store.record_indices("stream0") == list(range(9))
        assert [row.index for row in metrics.rows] == list(range(9))
        for row in metrics.rows:
            assert row.encrypt_s > 0 and row.store_s > 0 and row.total_s > 0
            assert row.decrypt_s is None and row.label is None
        assert metrics.labels == [] and metrics.summary()["decrypt_s"] is None
        assert "decrypt_s" not in metrics.table() and "encrypt_s" in metrics.table()

    def test_ten_segments_direct(self, tmp_path):
        source = synthetic_ecg(8.0, seed=21)
        store = FileStore(tmp_path / "store")
        metrics = run_pipeline(itertools.islice(source, 10), Mode.DIRECT, store)
        assert metrics.segments_processed == 10
        assert not metrics.errors
        assert store.record_indices("stream0") == list(range(10))
        # byte-exact roundtrips via the store
        segs = list(synthetic_ecg(8.0, seed=21))[:10]
        for i, seg in enumerate(segs):
            record = store.get_record("stream0", i)
            params = store.get_key("stream0", record.key_id)
            from hecg.cipher import decrypt_bytes

            assert np.array_equal(decrypt_bytes(record, params), quantize(seg).bytes)

    def test_metrics_invariants(self, tmp_path):
        source = synthetic_ecg(8.0, seed=22)
        metrics = run_pipeline(itertools.islice(source, 8), Mode.DIRECT, FileStore(tmp_path / "s"))
        assert len(metrics.rows) == 8
        for row in metrics.rows:
            assert row.total_s >= row.encrypt_s + row.store_s + row.decrypt_s - 1e-9
        assert len(metrics.labels) == 8
        assert all(label for label in metrics.labels)

    def test_key_freshness(self, tmp_path):
        source = synthetic_ecg(40.0, seed=23)
        metrics = run_pipeline(itertools.islice(source, 60), Mode.DIRECT, FileStore(tmp_path / "s"))
        assert metrics.segments_processed == 60
        summary = metrics.summary()
        assert summary["distinct_biometric_params"] >= 0.9 * 60
        assert summary["distinct_stored_params"] >= 0.9 * 60

    def test_key_separation(self, tmp_path):
        source = synthetic_ecg(5.0, seed=24)
        store = FileStore(tmp_path / "s")
        run_pipeline(itertools.islice(source, 5), Mode.DIRECT, store)
        os.remove(store.root / "stream0" / "keys.txt")
        record = store.get_record("stream0", 0)
        with pytest.raises(StoreError):
            store.get_key("stream0", record.key_id)

    def test_ml_mode_roundtrip(self, tmp_path, trained_model):
        model, _ = trained_model
        source = synthetic_ecg(5.0, seed=25)
        store = FileStore(tmp_path / "s")
        metrics = run_pipeline(
            itertools.islice(source, 5), Mode.ML_PREDICTED, store, model=model
        )
        assert metrics.segments_processed == 5
        assert not metrics.errors
        record = store.get_record("stream0", 0)
        assert record.mode_tag is Mode.ML_PREDICTED

    def test_rerun_into_stored_stream_refused(self, tmp_path):
        store = FileStore(tmp_path / "s")
        run_pipeline(itertools.islice(synthetic_ecg(5.0, seed=24), 5), Mode.DIRECT, store)
        stream_dir = tmp_path / "s" / "stream0"
        before = {p.name: p.read_bytes() for p in stream_dir.iterdir()}
        with pytest.raises(StoreError, match="5 records already stored in stream stream0"):
            run_pipeline(
                itertools.islice(synthetic_ecg(5.0, seed=99), 4), Mode.DIRECT, store
            )
        assert {p.name: p.read_bytes() for p in stream_dir.iterdir()} == before
        # another stream of the same store is still open to a run
        other = run_pipeline(
            itertools.islice(synthetic_ecg(5.0, seed=99), 4),
            Mode.DIRECT,
            store,
            stream_id="stream1",
        )
        assert other.segments_processed == 4 and store.record_indices("stream1") == [0, 1, 2, 3]

    def test_rerun_into_orphaned_key_rows_refused(self, tmp_path):
        # A stream whose records are gone still holds their key rows: a run
        # with other salts would add its rows beside the orphans.
        store = FileStore(tmp_path / "s")
        run_pipeline(itertools.islice(synthetic_ecg(5.0, seed=24), 3), Mode.DIRECT, store)
        keys = tmp_path / "s" / "stream0" / "keys.txt"
        for path in keys.parent.glob("seg_*.rec"):
            path.unlink()
        before = keys.read_bytes()
        with pytest.raises(StoreError, match="^3 orphaned key rows, and no records, in stream stream0$"):
            run_pipeline(itertools.islice(synthetic_ecg(5.0, seed=99), 3), Mode.DIRECT, store)
        assert keys.read_bytes() == before and store.record_indices("stream0") == []
        # a torn row is not a complete one: put_key cuts it off
        keys.write_bytes(before[:20])
        metrics = run_pipeline(itertools.islice(synthetic_ecg(5.0, seed=99), 3), Mode.DIRECT, store)
        assert metrics.segments_processed == 3 and len(keys.read_text().splitlines()) == 3

    def test_ml_mode_requires_model(self, tmp_path):
        source = synthetic_ecg(2.0, seed=26)
        with pytest.raises(StoreError):
            run_pipeline(itertools.islice(source, 2), Mode.ML_PREDICTED, FileStore(tmp_path / "s"))

    def test_classifier_hook_optional(self, tmp_path):
        source = synthetic_ecg(3.0, seed=27)
        metrics = run_pipeline(
            itertools.islice(source, 3), Mode.DIRECT, FileStore(tmp_path / "s"), classifier=None
        )
        assert metrics.labels == []
        assert not metrics.errors

    def test_custom_classifier(self, tmp_path):
        source = synthetic_ecg(3.0, seed=28)
        metrics = run_pipeline(
            itertools.islice(source, 3),
            Mode.DIRECT,
            FileStore(tmp_path / "s"),
            classifier=lambda seg: f"len={len(seg)}",
        )
        assert metrics.labels == ["len=300"] * 3

    def test_store_failure_recorded_and_loop_continues(self, tmp_path):
        class FlakyStore(FileStore):
            def put_record(self, stream_id, index, record):
                if index == 1:
                    raise StoreError("injected fault")
                super().put_record(stream_id, index, record)

        source = synthetic_ecg(4.0, seed=29)
        metrics = run_pipeline(itertools.islice(source, 4), Mode.DIRECT, FlakyStore(tmp_path / "s"))
        assert len(metrics.errors) == 1
        assert metrics.errors[0][0] == 1
        assert metrics.segments_processed == 3
        # one row per segment taken, in order
        assert [row.index for row in metrics.rows] == [0, 1, 2, 3]
        failed = metrics.rows[1]
        assert isinstance(failed.error, StoreError) and str(failed.error) == "injected fault"
        assert failed.error.__traceback__ is None
        stages = (failed.encrypt_s, failed.store_s, failed.decrypt_s, failed.total_s)
        assert stages == (None,) * 4 and failed.label is None and failed.params is failed.salted is None
        stored = [row for row in metrics.rows if row.error is None]
        assert [row.index for row in stored] == [0, 2, 3]
        for row in stored:
            assert row.total_s >= row.encrypt_s + row.store_s + row.decrypt_s - 1e-9
            assert row.label and isinstance(row.params, ChaoticParams) and row.salted != row.params
        # segment 1 was salted and its key row written, but it is not stored
        summary = metrics.summary()
        assert summary["segments"] == 3 and summary["errors"] == 1
        assert summary["distinct_biometric_params"] == len({row.params for row in stored}) == 3
        assert summary["distinct_stored_params"] == len({row.salted for row in stored}) == 3
        assert metrics.labels == [row.label for row in stored]
        assert metrics.errors == [(1, "StoreError: injected fault")]

    def test_failed_row_keeps_no_traceback_in_its_chain(self, tmp_path, monkeypatch):
        # read raises the lookup's StoreError again naming the segment, from
        # None: the lookup's error is still its __context__
        def lost(self, stream_id, key_id):
            raise StoreError("injected lookup fault")

        monkeypatch.setattr(FileStore, "get_key", lost)
        metrics = run_pipeline(itertools.islice(synthetic_ecg(3.0, seed=31), 2), Mode.DIRECT, FileStore(tmp_path / "s"))
        error = metrics.rows[0].error
        assert str(error) == "stream0[0]: injected lookup fault"
        chain = [error]
        while chain[-1].__cause__ or chain[-1].__context__:
            chain.append(chain[-1].__cause__ or chain[-1].__context__)
        assert [str(e) for e in chain] == ["stream0[0]: injected lookup fault", "injected lookup fault"]
        assert [e.__traceback__ for e in chain] == [None, None]

    def test_traceback_clearing_ends_on_a_cycle(self):
        errors = []
        for kind in (ValueError, KeyError):
            try:
                raise kind("fault")
            except kind as exc:
                errors.append(exc)
        a, b = errors
        a.__cause__, a.__context__, b.__context__ = b, b, a
        assert pipeline._without_tracebacks(a) is a
        assert a.__traceback__ is None and b.__traceback__ is None

    def test_realtime_pacing_cadence(self, tmp_path):
        # 300 samples at 500 Hz = 600 ms cadence; allow 50 ms of sleep slop.
        # Each segment is due 600 ms after the one before, however long the
        # work on it takes: sleeping a whole cadence after 200 ms of
        # classifier work would give 800 ms gaps.
        arrivals = []

        def slow(segment):
            arrivals.append(time.perf_counter())
            time.sleep(0.2)
            return "slow"

        source = synthetic_ecg(3.0, seed=30)
        metrics = run_pipeline(
            itertools.islice(source, 3),
            Mode.DIRECT,
            FileStore(tmp_path / "s"),
            classifier=slow,
            pacing=Pacing.REAL_TIME,
        )
        gaps = np.diff(arrivals)
        assert len(gaps) == 2
        for gap in gaps:
            assert 0.55 <= gap <= 0.65

    def test_any_iterable_of_segments_is_a_source(self, tmp_path):
        # run_pipeline only iterates its source and reads rate and length
        # from the segments, so a list or a one-shot generator gives the
        # same stored bytes and labels as the generator they came from.
        def run(source, name):
            store = FileStore(tmp_path / name)
            metrics = run_pipeline(source, Mode.DIRECT, store)
            assert metrics.segments_processed == 6 and not metrics.errors
            files = sorted((store.root / "stream0").iterdir())
            return [(f.name, f.read_bytes()) for f in files], metrics.labels

        want = run(itertools.islice(synthetic_ecg(5.0, seed=4), 6), "source")
        assert len(want[0]) == 7  # 6 records and keys.txt
        segments = list(synthetic_ecg(5.0, seed=4))[:6]
        assert run(segments, "list") == want
        assert run(iter(segments), "generator") == want

    def test_failed_writes_count_no_stored_params(self, tmp_path):
        class KeylessStore(FileStore):
            def put_key(self, stream_id, key_id, params):
                raise StoreError("injected fault")

        metrics = run_pipeline(synthetic_ecg(2.0, seed=33), Mode.DIRECT, KeylessStore(tmp_path / "s"))
        assert metrics.errors == [(i, "StoreError: injected fault") for i in range(3)]
        assert metrics.segments_processed == 0
        summary = metrics.summary()
        assert summary["distinct_stored_params"] == 0
        assert summary["distinct_biometric_params"] == 0
        # no stage has an entry: none is 0.0 in summary() or has a table row
        assert [summary[stage] for stage in PipelineMetrics.STAGES] == [None] * 4
        assert metrics.table().splitlines() == [
            "mode=DIRECT segments=0 errors=3",
            "stage      median_ms   p99_ms      mean_ms",
            "distinct params: biometric=0 stored=0",
        ]

    def test_source_exhaustion_clean_stop(self, tmp_path):
        source = synthetic_ecg(2.0, seed=31)  # only 3 segments available
        metrics = run_pipeline(itertools.islice(source, 99), Mode.DIRECT, FileStore(tmp_path / "s"))
        assert metrics.segments_processed == 3
        assert not metrics.errors

    def test_table_rendering(self, tmp_path):
        source = synthetic_ecg(3.0, seed=32)
        metrics = run_pipeline(itertools.islice(source, 3), Mode.DIRECT, FileStore(tmp_path / "s"))
        table = metrics.table()
        assert "encrypt_s" in table and "median_ms" in table
        summary = metrics.summary()
        assert summary["segments"] == 3
        assert summary["mode"] == "DIRECT"


class TestSourceErrors:
    """A source that raises ends the run with its own error, in bounded time,
    at every size in BLOCK_SIZES. The bad row of bad_csv is at line 20002,
    in segment 66."""

    def test_malformed_row_ends_the_run(self, tmp_path, bounded, bad_csv):
        path, wave = bad_csv("oops")
        for size in BLOCK_SIZES:
            store = FileStore(tmp_path / f"s{size}")
            with _block_segments(size), pytest.raises(IngestionError) as err:
                bounded(lambda: run_pipeline(ingest_csv(path, "ecg"), Mode.DIRECT, store))
            assert err.value.line_number == 20002
            # the segments before the bad row stay stored and decrypt
            assert store.record_indices("stream0") == list(range(66))
            for i in range(66):
                record = store.get_record("stream0", i)
                back = decrypt(record, store.get_key("stream0", record.key_id))
                plain = wave[i * 300 : (i + 1) * 300]
                half_step = (plain.max() - plain.min()) / 510
                assert np.max(np.abs(back.samples - plain)) <= half_step * (1 + 1e-9)

    def test_nan_row_ends_the_run(self, tmp_path, bounded, bad_csv):
        path, _ = bad_csv("nan")
        for size in BLOCK_SIZES:
            store = FileStore(tmp_path / f"s{size}")
            with _block_segments(size), pytest.raises(IngestionError) as err:
                bounded(lambda: run_pipeline(ingest_csv(path, "ecg"), Mode.DIRECT, store))
            assert err.value.line_number == 20002
            assert store.record_indices("stream0") == list(range(66))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_row_names_its_line(self, bad_csv, bad):
        # the block reader refuses the block that holds the row, and the
        # row reader rejects the row itself
        path, _ = bad_csv(bad)
        for size in BLOCK_SIZES:
            with _block_segments(size):
                segments = ingest_csv(path, "ecg")
                assert len(list(itertools.islice(segments, 66))) == 66
                with pytest.raises(IngestionError) as err:
                    next(segments)
            assert str(err.value) == f"line 20002: non-finite value {bad!r}"

    def test_source_not_read_past_the_count(self, tmp_path, bounded, bad_csv):
        # At the shipped size the bad row lies in the block that also holds
        # the rows of the last segment taken, so that block is read; the
        # row stays unreported because its segment is never taken.
        block = SHIPPED_BLOCK_SEGMENTS * 300
        assert (20002 - 3) // block == (65 * 300 + 2 - 3) // block
        path, _ = bad_csv("oops")
        for size in BLOCK_SIZES:
            store = FileStore(tmp_path / f"s{size}")
            with _block_segments(size):
                metrics = bounded(
                    lambda: run_pipeline(
                        itertools.islice(ingest_csv(path, "ecg"), 66), Mode.DIRECT, store
                    )
                )
            assert metrics.segments_processed == 66
            assert not metrics.errors
            assert store.record_indices("stream0") == list(range(66))


class TestBlockSizeOracle:
    def test_same_records_keys_and_labels(self, tmp_path, trained_model):
        # one seeded 70-segment CSV through the stream path at every size
        model, _ = trained_model
        wave = synthetic_ecg_wave(42.0, seed=71)
        path = tmp_path / "data.csv"
        path.write_text("ecg\n" + "".join(f"{v:.17g}\n" for v in wave))
        outputs = []
        for size in BLOCK_SIZES:
            store = FileStore(tmp_path / f"s{size}")
            with _block_segments(size):
                metrics = run_pipeline(
                    ingest_csv(path, "ecg"), Mode.ML_PREDICTED, store, model=model
                )
            assert metrics.segments_processed == 70 and not metrics.errors
            files = sorted((store.root / "stream0").iterdir())
            assert len(files) == 71  # 70 records and keys.txt
            outputs.append(([(f.name, f.read_bytes()) for f in files], metrics.labels))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestClassifier:
    def test_default_label_format(self):
        wave = synthetic_ecg_wave(3.0, 500.0, 60.0, 0.0, seed=2)
        label = default_classifier(SignalSegment(wave, 500.0))
        assert label.startswith("unclassified/peaks=")
        peaks = int(label.rsplit("=", 1)[1])
        assert abs(peaks - 3) <= 1

    def test_constant_segment_zero_peaks(self):
        assert count_peaks(SignalSegment(np.full(100, 2.0), 500.0)) == 0


# The one function allowed to call each FileStore method that writes, as
# module.qualname: every writer goes through run_pipeline's loop, and the
# loop's FileStore.write stores a key before its record.
_WRITE_CALLERS = {
    "write": "pipeline.run_pipeline",
    "put_key": "pipeline.FileStore.write",
    "put_record": "pipeline.FileStore.write",
}


def _opened_names(tree) -> set:
    """The names that a module binds to open(): its file objects."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.withitem):
            value, targets = node.context_expr, [node.optional_vars]
        elif isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        else:
            continue
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "open":
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _store_write_calls() -> set:
    """(method, module.qualname of the caller) of each call in src/hecg of a
    _WRITE_CALLERS method on anything but a file object."""
    calls = set()

    def visit(node, qualname, files):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{qualname}.{child.name}", files)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _WRITE_CALLERS
                and getattr(child.func.value, "id", None) not in files
            ):
                calls.add((child.func.attr, qualname))
            visit(child, qualname, files)

    for path in sorted(Path(pipeline.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        visit(tree, path.stem, _opened_names(tree))
    return calls


def test_only_run_pipeline_writes_a_store():
    assert _store_write_calls() == set(_WRITE_CALLERS.items())
