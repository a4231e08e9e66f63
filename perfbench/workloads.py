"""The benchmark's seeded workloads: set-up, timed job and output checks.

Each workload writes its own inputs during set-up (a seeded
``synthetic_ecg_wave`` saved as CSV), so hecg only ever sees files. The
timed job goes through the entry points users call: ``hecg.cli.main``
for ``encrypt``, ``analyze`` and ``attack``, and ``run_pipeline`` for the
stream, which needs a classifier hook. All are single-process,
closed-loop and unpaced.

- stream: ``run_pipeline`` with ML key prediction over one long stream.
  Every segment is written, read back through ``get_key`` and decrypted,
  so the key lookups scan a ``keys.txt`` that grows with the stream.
- audit: set-up encrypts many short device streams; the job runs
  ``hecg analyze --store`` then ``hecg attack --store`` (default kind) over
  all of them. Read-only; key lookups scan at most one short stream.
- ingest: ``hecg encrypt --mode ml`` writes one long stream into a fresh
  store. Write-only: no store reads, no analysis. It runs like the others
  but is not in BENCHMARK.json: between repeat runs its throughput spread
  by up to 27%, more than the largest bound allowed.

Outputs are checked through the public API, never as raw file bytes: the
digest covers each record's ciphertext, range and key_id and its stored
(r, x0), plus the classifier labels (stream) or the analyze report
without its ``timing`` fields and the attack table (audit). The roundtrip
check decrypts every stored segment and compares it with the generated
input within half a quantization step.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hecg
from hecg import cli, pipeline

SEGMENT_LEN = 300
SAMPLE_RATE = 500.0


@dataclass(frozen=True)
class Sizes:
    ingest_segments: int = 3000
    stream_segments: int = 2000
    audit_streams: int = 24
    audit_segments: int = 50
    train_segments: int = 200
    train_epochs: int = 40


TINY = Sizes(
    ingest_segments=40,
    stream_segments=40,
    audit_streams=3,
    audit_segments=10,
    train_segments=20,
    train_epochs=5,
)


class JobError(Exception):
    """A command exited non-zero or a job could not complete."""


@dataclass
class JobResult:
    segments: int
    failed: int
    walls: dict
    labels: list | None = None


class Ticker:
    """Timestamps the calls of one function: the per-segment completions."""

    def __init__(self):
        self.times = []

    def make(self, fn):
        @functools.wraps(fn)
        def ticked(*args, **kwargs):
            self.times.append(time.perf_counter_ns())
            return fn(*args, **kwargs)

        return ticked


def run_cli(argv: list) -> str:
    """hecg.cli.main in-process with its output captured; raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    if code != 0:
        raise JobError(f"hecg {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def make_wave(segments: int, seed: int, heart_rate: float = 72.0, noise: float = 0.012):
    wave = pipeline.synthetic_ecg_wave(
        segments * SEGMENT_LEN / SAMPLE_RATE,
        SAMPLE_RATE,
        heart_rate_bpm=heart_rate,
        noise_amplitude=noise,
        seed=seed,
    )
    return wave[: segments * SEGMENT_LEN]


def write_csv(path: Path, wave: np.ndarray):
    """One 'ecg' column; repr() round-trips every binary64 sample exactly.

    Written in chunks so that set-up does not raise the peak RSS the jobs report.
    """
    with open(path, "w") as fh:
        fh.write("ecg\n")
        for start in range(0, len(wave), 10 * SEGMENT_LEN):
            fh.write("".join(f"{v!r}\n" for v in wave[start : start + 10 * SEGMENT_LEN].tolist()))


def train_model(work: Path, seed: int, sizes: Sizes) -> Path:
    """Train a key predictor with ``hecg train`` on seeded synthetic segments."""
    path = work / "model.hmlp"
    run_cli(
        ["train", "--synthetic", sizes.train_segments, "--epochs", sizes.train_epochs,
         "--seed", seed, "--output", path]
    )
    return path


def read_stream(store_dir: Path, stream: str, sha) -> list:
    """(index, record, params) for each record of one stream, fed into sha."""
    store = hecg.FileStore(store_dir)
    entries = []
    for index in store.record_indices(stream):
        record = store.get_record(stream, index)
        params = store.get_key(stream, record.key_id)
        sha.update(stream.encode() + struct.pack("<q", index))
        sha.update(record.ciphertext)
        sha.update(struct.pack("<dd", record.range.min, record.range.max))
        sha.update(record.key_id)
        sha.update(struct.pack("<dd", params.r, params.x0))
        entries.append((index, record, params))
    return entries


def roundtrip(entries: list, wave: np.ndarray, expected: int, each=None) -> int:
    """Decrypt every entry, passing each segment to each(); count the entries
    missing or off by more than half a quantization step from the input."""
    failed = max(0, expected - len(entries))
    for index, record, params in entries:
        got = hecg.decrypt(record, params, SAMPLE_RATE)
        if each is not None:
            each(got)
        ref = wave[index * SEGMENT_LEN : (index + 1) * SEGMENT_LEN]
        if ref.size != SEGMENT_LEN:
            failed += 1
            continue
        half_step = 0.5 * (float(ref.max()) - float(ref.min())) / 255.0
        if float(np.max(np.abs(got.samples - ref))) > half_step * (1 + 1e-9) + 1e-12:
            failed += 1
    return failed


def flush_tree(path: Path):
    """fsync every file and directory under path, so that writing back the
    set-up's data does not overlap the timed jobs."""
    for p in [path, *path.rglob("*")]:
        fd = os.open(p, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def tree_size(path: Path) -> tuple[int, int]:
    """(bytes, files) under path."""
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


class Ingest:
    name = "ingest"
    tick_points = ("pipeline.FileStore.put_key",)

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.n = sizes.ingest_segments
        self.sizes = sizes

    def setup(self, work: Path):
        self.wave = make_wave(self.n, self.seed)
        self.csv = work / "input.csv"
        write_csv(self.csv, self.wave)
        self.model = train_model(work, self.seed, self.sizes)

    def job(self, out: Path, ticker: Ticker) -> JobResult:
        t0 = time.perf_counter()
        run_cli(
            ["encrypt", "--input", self.csv, "--column", "ecg", "--mode", "ml", "--model", self.model,
             "--store", out / "store", "--seed", self.seed]
        )
        return JobResult(self.n, 0, {"job": time.perf_counter() - t0})

    def verify(self, out: Path, result: JobResult) -> tuple[str, int]:
        sha = hashlib.sha256()
        failed = roundtrip(read_stream(out / "store", "stream0", sha), self.wave, self.n)
        return sha.hexdigest(), failed

    def check_setup(self) -> int:
        return 0

    def store_dir(self, out: Path) -> Path:
        return out / "store"


class Stream:
    name = "stream"
    tick_points = ()

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.n = sizes.stream_segments
        self.sizes = sizes

    def setup(self, work: Path):
        self.wave = make_wave(self.n, self.seed)
        self.csv = work / "input.csv"
        write_csv(self.csv, self.wave)
        self.model = train_model(work, self.seed, self.sizes)

    def job(self, out: Path, ticker: Ticker) -> JobResult:
        def classify(segment):
            return pipeline.default_classifier(segment)

        t0 = time.perf_counter()
        metrics = pipeline.run_pipeline(
            hecg.SegmentSource.from_csv(self.csv, "ecg"),
            hecg.Mode.ML_PREDICTED,
            hecg.FileStore(out / "store"),
            model=hecg.KeyPredictor.load(self.model),
            classifier=ticker.make(classify),
        )
        wall = time.perf_counter() - t0
        failed = self.n - metrics.segments_processed
        return JobResult(self.n, failed, {"job": wall}, labels=list(metrics.labels))

    def verify(self, out: Path, result: JobResult) -> tuple[str, int]:
        sha = hashlib.sha256()
        expected = []

        def classify(segment):
            expected.append(pipeline.default_classifier(segment))

        failed = roundtrip(read_stream(out / "store", "stream0", sha), self.wave, self.n, classify)
        labels = result.labels or []
        sha.update(json.dumps(labels).encode())
        failed += sum(a != b for a, b in zip(labels, expected)) + abs(len(labels) - len(expected))
        return sha.hexdigest(), failed

    def check_setup(self) -> int:
        return 0

    def store_dir(self, out: Path) -> Path:
        return out / "store"


class Audit:
    name = "audit"
    tick_points = ("attacks.noise_attack",)

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.streams = sizes.audit_streams
        self.per_stream = sizes.audit_segments
        self.n = self.streams * self.per_stream

    def setup(self, work: Path):
        rng = np.random.default_rng(self.seed)
        self.store = work / "store"
        self.waves = {}
        for k in range(self.streams):
            device = f"dev{k:02d}"
            wave = make_wave(
                self.per_stream,
                int(rng.integers(2**31)),
                heart_rate=float(rng.uniform(55.0, 95.0)),
                noise=float(rng.uniform(0.008, 0.02)),
            )
            csv_path = work / f"{device}.csv"
            write_csv(csv_path, wave)
            run_cli(
                ["encrypt", "--input", csv_path, "--column", "ecg", "--store", self.store,
                 "--stream", device, "--salt-device-id", device, "--seed", self.seed]
            )
            self.waves[device] = wave

    def job(self, out: Path, ticker: Ticker) -> JobResult:
        t0 = time.perf_counter()
        run_cli(["analyze", "--store", self.store, "--output", out / "report"])
        t1 = time.perf_counter()
        run_cli(["attack", "--store", self.store, "--seed", self.seed, "--output", out / "attack.tsv"])
        t2 = time.perf_counter()
        return JobResult(2 * self.n, 0, {"analyze": t1 - t0, "attack": t2 - t1, "job": t2 - t0})

    def verify(self, out: Path, result: JobResult) -> tuple[str, int]:
        sha = hashlib.sha256()
        report = json.loads((out / "report_report.json").read_text())
        report.pop("timing", None)
        sha.update(json.dumps(report, sort_keys=True).encode())
        table = (out / "attack.tsv").read_text()
        sha.update(table.encode())
        sha.update(self.store_digest.encode())
        bad_report = report.get("segment_count") != self.n
        # A header and one row per intensity of the default sweep, 0,1,4,16.
        bad_table = len(table.splitlines()) != 5
        return sha.hexdigest(), (self.n if bad_report else 0) + (self.n if bad_table else 0)

    def check_setup(self) -> int:
        """Digest the set-up store and count its roundtrip failures."""
        sha = hashlib.sha256()
        failed = 0
        for device, wave in self.waves.items():
            failed += roundtrip(read_stream(self.store, device, sha), wave, self.per_stream)
        self.store_digest = sha.hexdigest()
        return failed

    def store_dir(self, out: Path) -> Path:
        return self.store


WORKLOADS = {cls.name: cls for cls in (Stream, Audit, Ingest)}
