"""End-to-end loop: segment source -> encrypt -> store -> decrypt -> classify.

The serial-port acquisition of the original system is replaced by two
replay sources (synthetic quasi-ECG and CSV) and the cloud by a local
directory store that keeps ciphertext records and key material in
separate files. One loop on the caller's thread takes each segment from
any iterable of SignalSegments as it arrives, so a device reader plugs
in as the classifier hook does, then encrypts, persists, retrieves,
decrypts and hands it to that hook.
"""

import csv
import itertools
import math
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .chaos import ChaoticParams, KeySalt, apply_salt
from .cipher import (
    EncryptedRecord,
    Mode,
    SignalSegment,
    decrypt,
    encrypt,
    make_key_id,
    params_for_segment,
)
from .errors import CorruptRecordError, IngestionError, StoreError
from .mlkey import KeyPredictor, predict_params

DEFAULT_SAMPLE_RATE = 500.0
DEFAULT_SEGMENT_LEN = 300


class Pacing(Enum):
    REAL_TIME = "real-time"
    UNPACED = "unpaced"


# ---------------------------------------------------------------------------
# sources


def synthetic_ecg_wave(
    duration_s: float,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    heart_rate_bpm: float = 60.0,
    noise_amplitude: float = 0.02,
    seed: int = 0,
) -> np.ndarray:
    """Deterministic quasi-ECG: Gaussian bumps per beat plus seeded noise.

    Five bumps approximate the P-QRS-T morphology; beat-to-beat timing
    jitters slightly (seeded) so consecutive segments differ, which keeps
    per-segment keys fresh. Amplitudes sit roughly in [-0.5, 1.5].
    """
    if not 0 < heart_rate_bpm < math.inf:
        # a beat period of 0 or below would never end the beat loop below
        raise ValueError(f"heart_rate_bpm must be finite and > 0, got {heart_rate_bpm}")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    wave = np.zeros(n)
    period = 60.0 / heart_rate_bpm
    # (offset within beat as fraction of period, amplitude, width seconds)
    bumps = [
        (-0.20, 0.12, 0.025),  # P
        (-0.03, -0.12, 0.010),  # Q
        (0.00, 1.10, 0.012),  # R
        (0.035, -0.22, 0.012),  # S
        (0.22, 0.28, 0.045),  # T
    ]
    beat_t = 0.5 * period
    while beat_t < duration_s + period:
        for frac, amp, width in bumps:
            c = beat_t + frac * period
            lo = max(0, int((c - 5 * width) * sample_rate))
            hi = min(n, int((c + 5 * width) * sample_rate) + 1)
            if lo < hi:
                wave[lo:hi] += amp * np.exp(-0.5 * ((t[lo:hi] - c) / width) ** 2)
        beat_t += period * (1.0 + 0.04 * rng.standard_normal())
    if noise_amplitude > 0:
        wave += rng.normal(0.0, noise_amplitude, n)
    return wave


def synthetic_ecg(
    duration_s: float,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    heart_rate_bpm: float = 60.0,
    noise_amplitude: float = 0.02,
    seed: int = 0,
    segment_len: int = DEFAULT_SEGMENT_LEN,
):
    """Yield consecutive non-overlapping segments of a synthetic recording."""
    wave = synthetic_ecg_wave(duration_s, sample_rate, heart_rate_bpm, noise_amplitude, seed)
    for start in range(0, len(wave) - segment_len + 1, segment_len):
        yield SignalSegment(wave[start : start + segment_len], sample_rate)


def ingest_csv(
    path,
    column=0,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    segment_len: int = DEFAULT_SEGMENT_LEN,
):
    """Yield consecutive segments from one numeric CSV column.

    column may be an index (no header assumed; a non-numeric first row is
    tolerated as a header) or a name (header required). The trailing
    partial segment is dropped; a malformed row, or one whose value is
    not finite (nan, inf), raises IngestionError naming its line number.

    The header and the first data row go through the row reader
    (csv.reader plus float() per row). After them the file is read in
    blocks of BLOCK_SEGMENTS segments of lines, each parsed by one
    np.loadtxt call (see _parse_block), and the segments of a block are
    yielded from that one array. The first block that parser refuses,
    and the rest of the file, go through the row reader, so quoted,
    blank and malformed rows give the same values or the same error as
    reading every row with it.

    The file is therefore read up to one block ahead of the segment last
    yielded. The lines read ahead never change what a caller sees: a bad
    row makes its block go to the row reader, which raises only when the
    caller asks for the segment that holds the row.
    """
    with open(path, newline="") as fh:
        first = next(_row_values(enumerate(csv.reader(fh), start=1), column), None)
        if first is None:
            return
        line_no, col_idx, value = first
        values = np.array([value])
        block = []
        # A segment_len below 1 never completes a segment: the row reader
        # then checks every row, as it always did.
        while segment_len > 0:
            whole = len(values) - len(values) % segment_len
            for start in range(0, whole, segment_len):
                yield SignalSegment(values[start : start + segment_len], sample_rate)
            values = values[whole:]
            block = list(itertools.islice(fh, BLOCK_SEGMENTS * segment_len))
            parsed = _parse_block(block, col_idx)
            if parsed is None:
                break
            line_no += len(block)
            values = np.concatenate((values, parsed))
        buf = values.tolist()
        rest = enumerate(csv.reader(itertools.chain(block, fh)), start=line_no + 1)
        for _, _, value in _row_values(rest, column, col_idx):
            buf.append(value)
            if len(buf) == segment_len:
                yield SignalSegment(np.asarray(buf), sample_rate)
                buf = []


# Lines per np.loadtxt call in ingest_csv, in segments. A pipeline that
# takes one segment at a time pays a block's parse in the gap before the
# block's first segment and none of it in the other gaps. At 32 the parse
# lands in 1 gap of 32, under the 10% that p90 reads; at 2 and 4 it landed
# in 50% and 25% of them, and p90 rose. The cost is the tail: p99 holds a
# whole block's parse, a few ms at 32, about 1% of a 600 ms real-time
# cadence. Scans of perfbench's stream workload (2000 segments of 300
# lines, one run per size on one pinned CPU of a 2-vCPU host) at
# 1 / 16 / 32 / 64 segments per block:
#   seed 905: p50 0.51 / 0.34 / 0.36 / 0.33 ms, p90 0.84 / 0.58 / 0.49 /
#     0.55 ms, p99 1.0 / 3.7 / 6.1 / 8.0 ms, peak RSS 62.5 / 62.6 / 63.1 /
#     64.5 MB, 1744 / 1876 / 1872 / 1875 segments/s
#   seed 131: p50 0.93 / 0.52 / 0.53 / 0.53 ms, p90 1.07 / 0.69 / 0.67 /
#     0.65 ms, p99 1.7 / 4.4 / 8.0 / 12.9 ms, peak RSS 62.4 / 62.4 / 62.8 /
#     63.7 MB, 1073 / 1401 / 1353 / 1365 segments/s
# Ten alternating pairs of 16 against 32 (seeds 301-310): p90 was lower at
# 32 in 9 of 10, median 0.712 -> 0.688 ms, a gap under the 0.051 ms
# quartile spread of the runs at 16; p99 was 4.5 -> 8.0 ms, higher in 10 of
# 10. So 32 over 16 is not settled on p90, and 32 doubles the tail.
BLOCK_SEGMENTS = 32
# Characters after which np.loadtxt and the row reader can disagree: a
# quote starts a CSV quoted field; the ASCII separators \x1c-\x1f count
# as whitespace around a number for np.loadtxt but not for float().
_BLOCK_REFUSES = '"\x1c\x1d\x1e\x1f'


def _parse_block(lines: list, col_idx: int) -> np.ndarray | None:
    """Column col_idx of every line as float64, or None when the block
    must go through the row reader: it is empty or blank, holds a quote
    or separator character, np.loadtxt rejects it or skips a line, or a
    value is not finite."""
    text = "".join(lines)
    if not text.strip() or any(c in text for c in _BLOCK_REFUSES):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, usecols=col_idx, ndmin=1)
    except ValueError:
        return None
    return values if len(values) == len(lines) and np.isfinite(values).all() else None


def _row_values(rows, column, col_idx: int | None = None):
    """(line number, column index, value) of each data row of numbered CSV
    rows: the row reader of ingest_csv. col_idx None means the header
    has not been seen yet."""
    for line_no, row in rows:
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
        if not -len(row) <= col_idx < len(row):  # a negative index counts from the end
            raise IngestionError(f"row has {len(row)} fields, need {max(col_idx + 1, -col_idx)}", line_no)
        try:
            value = float(row[col_idx])
        except ValueError:
            raise IngestionError(f"non-numeric value {row[col_idx]!r}", line_no) from None
        if not math.isfinite(value):
            raise IngestionError(f"non-finite value {row[col_idx]!r}", line_no)
        yield line_no, col_idx, value


class SegmentSource:
    """The name under which perfbench's stream workload reads its CSV."""

    @staticmethod
    def from_csv(path, column):
        # ingest_csv is looked up at each call, so a tracer that wraps it sees it
        return ingest_csv(path, column)


# ---------------------------------------------------------------------------
# store


class FileStore:
    """Directory-per-stream record store with a separate key-store file.

    Records land in <root>/<stream>/seg_NNNNNN.rec; key material lives in
    <root>/<stream>/keys.txt as lines "key_id_hex32 r x0" with both reals
    at 17 significant digits (lossless binary64 round-trip). Ciphertext
    and keys are never co-located in one file.

    Key lookups go through an in-memory index of the most recently used
    stream: key_id hex -> (r, x0) text from one read of keys.txt, where
    the first row of a key_id wins and lines without three fields are
    skipped. A row counts only once its newline is written: a final line
    without one is a torn write, so it is skipped, and put_key cuts it off
    before appending, so that no later row completes it into a key. Each
    lookup stats keys.txt and re-reads it only when its (inode, size,
    mtime) signature changed, so keys appended by another FileStore or
    process are found. put_key refuses a key_id the stream already
    holds, so a stale row can never shadow a new one. Reads never create
    directories, not even the root: a store comes into being with its
    first write.
    """

    def __init__(self, root):
        self.root = Path(root)
        # (stream_id, keys.txt signature, {key_id hex: (r text, x0 text)},
        #  bytes of the torn row keys.txt ends in, 0 if none)
        self._index = None

    def _stream_dir(self, stream_id: str) -> Path:
        d = self.root / stream_id
        d.mkdir(parents=True, exist_ok=True)
        return d

    # os.path, not pathlib: every record and key read and write builds a path
    def _record_path(self, stream_id: str, index: int) -> str:
        return os.path.join(self.root, stream_id, f"seg_{index:06d}.rec")

    def _keys_path(self, stream_id: str) -> str:
        return os.path.join(self.root, stream_id, "keys.txt")

    def _key_index(self, stream_id: str) -> dict | None:
        """The key index of stream_id, or None when it has no keys.txt."""
        path = self._keys_path(stream_id)
        try:
            signature = _signature(os.stat(path))
        except FileNotFoundError:
            self._index = None
            return None
        if self._index is not None and self._index[:2] == (stream_id, signature):
            return self._index[2]
        with open(path, "rb") as fh:
            data = fh.read()
        end = data.rfind(b"\n") + 1
        keys = {}
        for row in data[:end].decode().split("\n"):
            parts = row.split()
            if len(parts) == 3:
                keys.setdefault(parts[0], (parts[1], parts[2]))
        self._index = (stream_id, signature, keys, len(data) - end)
        return keys

    def put_record(self, stream_id: str, index: int, record: EncryptedRecord):
        data = record.to_bytes()
        path = self._record_path(stream_id, index)
        try:
            fh = open(path, "wb")
        except FileNotFoundError:
            self._stream_dir(stream_id)
            fh = open(path, "wb")
        with fh:
            fh.write(data)

    def get_record(self, stream_id: str, index: int) -> EncryptedRecord:
        """The record stored at index. One whose key_id is not make_key_id
        of its own salt and index (a swapped, renamed or edited file) raises
        StoreError, bytes that do not parse CorruptRecordError, each naming
        <stream>[<index>]."""
        where = f"{stream_id}[{index}]"
        try:
            with open(self._record_path(stream_id, index), "rb") as fh:
                data = fh.read()
        except (FileNotFoundError, NotADirectoryError):
            raise StoreError(f"no record for {where}") from None
        try:
            record = EncryptedRecord.from_bytes(data)
        except CorruptRecordError as exc:
            raise CorruptRecordError(f"{where}: {exc}") from None
        if record.key_id != make_key_id(record.salt, index):
            raise StoreError(
                f"{where}: key_id {record.key_id.hex()} does not match the record's salt at index"
                f" {index}; the file holds another segment's record or was edited"
            )
        return record

    def write(self, stream_id: str, index: int, record: EncryptedRecord, params: ChaoticParams):
        """Store segment index of stream_id: its key, then its record, so a
        key that put_key refuses leaves the stream's records as they were."""
        self.put_key(stream_id, record.key_id, params)
        self.put_record(stream_id, index, record)

    def read(self, stream_id: str, index: int) -> tuple[EncryptedRecord, ChaoticParams]:
        """Segment index of stream_id as written: its checked record and the
        key stored under the record's key_id. A key lookup's StoreError is
        raised again naming <stream>[<index>], as get_record's are."""
        record = self.get_record(stream_id, index)
        try:
            return record, self.get_key(stream_id, record.key_id)
        except StoreError as exc:
            raise StoreError(f"{stream_id}[{index}]: {exc}") from None

    def record_indices(self, stream_id: str) -> list:
        d = self.root / stream_id
        if not d.exists():
            return []
        indices = []
        for p in d.glob("seg_*.rec"):
            digits = p.name[4:-4]
            # only the names _record_path writes: no sign, space or extra zeros
            if not digits.isdecimal() or p.name != f"seg_{int(digits):06d}.rec":
                raise StoreError(f"{p} is not a record file of stream {stream_id}")
            indices.append(int(digits))
        return sorted(indices)

    def refuse_stored(self, stream_id: str):
        """Raise StoreError if stream_id already holds records or complete
        key rows: writing a second run into it would replace the records,
        or mix its key rows with rows that no record of it names."""
        existing = self.record_indices(stream_id)
        if existing:
            raise StoreError(f"{len(existing)} records already stored in stream {stream_id}")
        keys = self._key_index(stream_id)
        if keys:
            raise StoreError(f"{len(keys)} orphaned key rows, and no records, in stream {stream_id}")

    def put_key(self, stream_id: str, key_id: bytes, params: ChaoticParams):
        want = key_id.hex()
        keys = self._key_index(stream_id)
        if keys is None:
            self._stream_dir(stream_id)
        elif want in keys:
            raise StoreError(f"key {want} already stored in stream {stream_id}")
        r, x0 = f"{params.r:.17g}", f"{params.x0:.17g}"
        line = f"{want} {r} {x0}\n".encode()
        with open(self._keys_path(stream_id), "ab") as fh:
            before = _signature(os.fstat(fh.fileno()))
            unchanged = keys is not None and self._index[1] == before
            size = before[1] - self._index[3] if unchanged else before[1]
            if size < before[1]:
                os.ftruncate(fh.fileno(), size)
            fh.write(line)
            fh.flush()
            after = _signature(os.fstat(fh.fileno()))
        # Extend the index in place only if nobody else wrote to keys.txt
        # since it was read; otherwise the next lookup re-reads the file.
        if unchanged and after[1] == size + len(line):
            keys[want] = (r, x0)
            self._index = (stream_id, after, keys, 0)

    def get_key(self, stream_id: str, key_id: bytes) -> ChaoticParams:
        keys = self._key_index(stream_id)
        if keys is None:
            raise StoreError(f"key store missing for stream {stream_id}")
        want = key_id.hex()
        if want not in keys:
            raise StoreError(f"no key {want} in stream {stream_id}")
        r, x0 = keys[want]
        try:
            return ChaoticParams(r=float(r), x0=float(x0))
        except ValueError:
            raise StoreError(f"key {want} in stream {stream_id} is not numeric: {r} {x0}") from None

    def streams(self) -> list:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())


def _signature(st: os.stat_result) -> tuple[int, int, int]:
    """What changes when keys.txt is appended to, rewritten or replaced."""
    return (st.st_ino, st.st_size, st.st_mtime_ns)


# ---------------------------------------------------------------------------
# classifier hook


def count_peaks(segment: SignalSegment) -> int:
    """R-wave style peak count: local maxima at or above 60% of the range,
    separated by a 250 ms refractory gap."""
    s = segment.samples
    lo, hi = float(s.min()), float(s.max())
    if hi == lo:
        return 0
    thresh = lo + 0.6 * (hi - lo)
    refractory = max(1, int(0.25 * segment.sample_rate))
    mid = s[1:-1]
    candidates = np.flatnonzero((mid >= thresh) & (mid >= s[:-2]) & (mid >= s[2:])) + 1
    peaks = 0
    last = -refractory
    for i in candidates.tolist():
        if i - last >= refractory:
            peaks += 1
            last = i
    return peaks


def default_classifier(segment: SignalSegment) -> str:
    """Placeholder for the diagnosis model: fixed label plus peak count.

    Swap in a real model by passing any callable SignalSegment -> str to
    run_pipeline.
    """
    return f"unclassified/peaks={count_peaks(segment)}"


# ---------------------------------------------------------------------------
# metrics and the loop


@dataclass
class PipelineMetrics:
    """Per-segment latencies in seconds plus run-level counters."""

    mode_tag: Mode
    encrypt_s: list = field(default_factory=list)
    store_s: list = field(default_factory=list)
    decrypt_s: list = field(default_factory=list)
    total_s: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    distinct_biometric_params: int = 0
    distinct_stored_params: int = 0

    @property
    def segments_processed(self) -> int:
        return len(self.total_s)

    def summary(self) -> dict:
        def stats(values):
            if not values:
                return {"median": 0.0, "p99": 0.0, "mean": 0.0}
            arr = np.asarray(values)
            return {
                "median": float(np.median(arr)),
                "p99": float(np.percentile(arr, 99)),
                "mean": float(np.mean(arr)),
            }

        return {
            "mode": self.mode_tag.name,
            "segments": self.segments_processed,
            "errors": len(self.errors),
            "encrypt_s": stats(self.encrypt_s),
            "store_s": stats(self.store_s),
            "decrypt_s": stats(self.decrypt_s),
            "total_s": stats(self.total_s),
            "distinct_biometric_params": self.distinct_biometric_params,
            "distinct_stored_params": self.distinct_stored_params,
        }

    def table(self) -> str:
        s = self.summary()
        lines = [
            f"mode={s['mode']} segments={s['segments']} errors={s['errors']}",
            "stage      median_ms   p99_ms      mean_ms",
        ]
        for stage in ("encrypt_s", "store_s", "decrypt_s", "total_s"):
            st = s[stage]
            lines.append(
                f"{stage:<10s} {st['median'] * 1e3:<11.4f} {st['p99'] * 1e3:<11.4f} {st['mean'] * 1e3:.4f}"
            )
        lines.append(
            f"distinct params: biometric={s['distinct_biometric_params']} stored={s['distinct_stored_params']}"
        )
        return "\n".join(lines)


def seal_segment(
    segment: SignalSegment,
    index: int,
    mode: Mode,
    model: KeyPredictor | None,
    device_id: bytes,
    base_timestamp: int,
) -> tuple[EncryptedRecord, ChaoticParams, ChaoticParams]:
    """Encrypt segment number index of a stream, ready to persist.

    Derives (Direct) or predicts (ML) the segment's params, salts them
    with KeySalt(base_timestamp + index, device_id) and encrypts. Returns
    the record, the salted params the key store must keep, and the
    unsalted biometric params.
    """
    if mode is Mode.ML_PREDICTED:
        params = predict_params(model, segment)
    else:
        params = params_for_segment(segment)
    salt = KeySalt(timestamp=base_timestamp + index, device_id=device_id)
    salted = apply_salt(params, salt)
    record = encrypt(segment, salted, salt=salt, mode_tag=mode, counter=index)
    return record, salted, params


def run_pipeline(
    source: Iterable[SignalSegment],
    mode: Mode,
    store: FileStore,
    model: KeyPredictor | None = None,
    stream_id: str = "stream0",
    device_id: bytes = b"desk01",
    base_timestamp: int = 1_700_000_000_000,
    classifier=default_classifier,
    pacing: Pacing = Pacing.UNPACED,
) -> PipelineMetrics:
    """Process segments end to end until the source ends.

    source is any iterable of SignalSegments (a list, a generator such as
    ingest_csv or synthetic_ecg, a device reader); each read-back decrypts
    at its segment's own sample rate. Bound an endless or long source with
    itertools.islice(source, count).

    Per segment: seal it (see seal_segment; the salt timestamp is
    base_timestamp + index, so runs are reproducible), store it with
    FileStore.write, read it back with FileStore.read, decrypt, classify.
    Encrypt latency excludes I/O; store latency is measured separately.
    Store failures are recorded per segment and the loop continues. A
    stream that already holds records or key rows is refused (StoreError,
    see FileStore.refuse_stored) before anything is read or written.

    The source is read in this loop, one segment at a time: the next
    segment is taken only when the one before it is done, so an islice
    bound takes no segment past its count. The source may read its input
    ahead of the segment taken (ingest_csv reads up to one block of
    BLOCK_SEGMENTS segments of lines), but it raises only for a segment
    taken, so a bad CSV row past an islice count is never reported. An
    exception the source raises (IngestionError for a malformed or
    non-finite CSV row, InvalidSignalError for a segment it cannot build)
    ends the run and propagates unchanged; the segments before it stay
    stored. With pacing REAL_TIME, segment i is taken no earlier than i
    times segment 0's duration (len(segment) / segment.sample_rate) after
    segment 0, however long the work on the segments before it took.
    """
    if mode is Mode.ML_PREDICTED and model is None:
        raise StoreError("ML mode requires a trained KeyPredictor")
    store.refuse_stored(stream_id)
    metrics = PipelineMetrics(mode_tag=mode)
    biometric_seen = set()
    stored_seen = set()
    for index, segment in enumerate(source):
        if index == 0:
            first = time.perf_counter()
            cadence = len(segment) / segment.sample_rate if pacing is Pacing.REAL_TIME else 0.0
        elif cadence:
            time.sleep(max(0.0, first + index * cadence - time.perf_counter()))
        t_seg = time.perf_counter()
        try:
            t0 = time.perf_counter()
            record, salted, params = seal_segment(
                segment, index, mode, model, device_id, base_timestamp
            )
            encrypt_elapsed = time.perf_counter() - t0

            t0 = time.perf_counter()
            store.write(stream_id, index, record, salted)
            store_elapsed = time.perf_counter() - t0
            biometric_seen.add((params.r, params.x0))
            stored_seen.add((salted.r, salted.x0))

            fetched, key = store.read(stream_id, index)
            t0 = time.perf_counter()
            decrypted = decrypt(fetched, key, segment.sample_rate)
            decrypt_elapsed = time.perf_counter() - t0

            if classifier is not None:
                metrics.labels.append(classifier(decrypted))
        except Exception as exc:  # noqa: BLE001 - per-segment fault isolation
            metrics.errors.append((index, f"{type(exc).__name__}: {exc}"))
            continue
        metrics.encrypt_s.append(encrypt_elapsed)
        metrics.store_s.append(store_elapsed)
        metrics.decrypt_s.append(decrypt_elapsed)
        metrics.total_s.append(time.perf_counter() - t_seg)

    metrics.distinct_biometric_params = len(biometric_seen)
    metrics.distinct_stored_params = len(stored_seen)
    return metrics
