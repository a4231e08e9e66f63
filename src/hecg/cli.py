"""Command-line front door: encrypt, decrypt, analyze, attack, train, stream.

Every subcommand is deterministic under a fixed --seed (wall-clock timing
lines aside). Global flags may also come from the environment with the
HECG_ prefix (HECG_SEED, HECG_SEGMENT_LEN, HECG_SAMPLE_RATE, HECG_BURN_IN,
HECG_STORE, HECG_MODEL); explicit flags win.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import analysis, attacks, mlkey, pipeline
from .chaos import logistic_fill
from .cipher import (
    Mode,
    SignalSegment,
    decrypt_batch,
    derive_key_material,
    derive_key_material_batch,
    encrypt,
    params_for_segment,
    quantize,
)
from .errors import HecgError
from .mlkey import KeyPredictor, TrainConfig, build_dataset, train
from .pipeline import FileStore, Pacing, SegmentSource, ingest_csv, synthetic_ecg


def _env(name: str, default):
    raw = os.environ.get(f"HECG_{name}")
    if raw is None:
        return default
    return type(default)(raw) if default is not None else raw


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=_env("SEED", 0))
    p.add_argument("--segment-len", type=int, default=_env("SEGMENT_LEN", 300))
    p.add_argument("--sample-rate", type=float, default=_env("SAMPLE_RATE", 500.0))
    p.add_argument("--burn-in", type=int, default=_env("BURN_IN", 0))


def _load_segments(args) -> list:
    if args.input:
        return list(ingest_csv(args.input, args.column, args.sample_rate, args.segment_len))
    count = args.synthetic
    duration = (count + 1) * args.segment_len / args.sample_rate
    segs = list(
        synthetic_ecg(
            duration,
            args.sample_rate,
            heart_rate_bpm=args.heart_rate,
            noise_amplitude=args.noise_amplitude,
            seed=args.seed,
            segment_len=args.segment_len,
        )
    )
    return segs[:count]


def _input_flags(p, synthetic_default=0):
    p.add_argument("--input", help="CSV file with one sample per row")
    p.add_argument("--column", default=0, help="CSV column index or header name")
    p.add_argument("--synthetic", type=int, default=synthetic_default, help="synthetic segment count")
    p.add_argument("--heart-rate", type=float, default=72.0)
    p.add_argument("--noise-amplitude", type=float, default=0.012)


def _parse_column(args):
    try:
        args.column = int(args.column)
    except (TypeError, ValueError):
        pass


def _base_timestamp(args) -> int:
    """Salt timestamp of segment 0; segment i is salted with this plus i."""
    return 1_700_000_000_000 + args.seed * 1_000_000


# ---------------------------------------------------------------------------
# subcommands


def cmd_encrypt(args) -> int:
    _parse_column(args)
    segments = _load_segments(args)
    if not segments:
        print("no segments to encrypt", file=sys.stderr)
        return 1
    if args.mode == "ml" and not args.model:
        print("--mode ml requires --model", file=sys.stderr)
        return 1
    model = KeyPredictor.load(args.model) if args.mode == "ml" else None
    store = FileStore(args.store)
    store.refuse_stored(args.stream)
    device = args.salt_device_id.encode()
    mode = Mode.ML_PREDICTED if args.mode == "ml" else Mode.DIRECT
    base_timestamp = _base_timestamp(args)
    times = []
    for i, seg in enumerate(segments):
        t0 = time.perf_counter()
        record, salted, _ = pipeline.seal_segment(
            seg, i, mode, model, device, base_timestamp, args.burn_in
        )
        times.append(time.perf_counter() - t0)
        store.put_key(args.stream, record.key_id, salted)
        store.put_record(args.stream, i, record)
    arr = np.asarray(times)
    print(f"encrypted {len(segments)} segments -> {args.store}/{args.stream}")
    print(f"per-segment core encrypt: median {np.median(arr) * 1e3:.4f} ms, p99 {np.percentile(arr, 99) * 1e3:.4f} ms")
    return 0


def cmd_decrypt(args) -> int:
    _, _, segments, _ = _load_store(args)
    if not segments:
        print(f"no records in {args.store}/{args.stream}", file=sys.stderr)
        return 1
    out = np.concatenate([s.samples for s in segments])
    with open(args.output, "w") as fh:
        fh.write("value\n")
        for v in out:
            fh.write(f"{v:.17g}\n")
    print(f"decrypted {len(segments)} segments -> {args.output}")
    if args.report:
        if not args.input:
            print("--report needs --input with the reference CSV", file=sys.stderr)
            return 1
        _parse_column(args)
        ref = list(ingest_csv(args.input, args.column, args.sample_rate, args.segment_len))
        ref_cat = np.concatenate([s.samples for s in ref])[: len(out)]
        lo, hi = float(ref_cat.min()), float(ref_cat.max())
        qm = analysis.quality_metrics(
            SignalSegment(analysis.normalize_unit(ref_cat, lo, hi), args.sample_rate),
            SignalSegment(analysis.normalize_unit(out[: len(ref_cat)], lo, hi), args.sample_rate),
        )
        print(f"mse {qm['mse']:.17g}")
        print(f"psnr_db {qm['psnr_db']:.17g}")
        print(f"mae {qm['mae']:.17g}")
    return 0


def _load_store(args):
    """Records, stored params and decrypted segments of --stream (default:
    every stream) of --store, in stream then record order, plus the batch
    decrypt time per record."""
    store = FileStore(args.store)
    records, params_list = [], []
    for stream in [args.stream] if args.stream else store.streams():
        for i in store.record_indices(stream):
            record = store.get_record(stream, i)
            records.append(record)
            params_list.append(store.get_key(stream, record.key_id))
    t0 = time.perf_counter()
    segments = decrypt_batch(records, params_list, burn_in=args.burn_in)
    decrypt_s = (time.perf_counter() - t0) / max(1, len(records))
    return records, params_list, segments, decrypt_s


def _emit_series(prefix: Path, name: str, header: str, rows):
    path = prefix.parent / f"{prefix.name}_{name}.tsv"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write("\t".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    return path


def cmd_analyze(args) -> int:
    _parse_column(args)
    if args.store:
        records, params_list, segments, decrypt_s = _load_store(args)
        if not records:
            print("store holds no records", file=sys.stderr)
            return 1
        reference = None
        if args.input:
            reference = list(
                ingest_csv(args.input, args.column, args.sample_rate, args.segment_len)
            )[: len(segments)]
            if len(reference) != len(segments):
                print("reference shorter than corpus; ignoring --input", file=sys.stderr)
                reference = None
        report = analysis.analyze_corpus(
            segments, params_list, burn_in=args.burn_in, reference=reference, records=records
        )
        report.timing["decrypt_seconds"] = decrypt_s
        blocks = [np.frombuffer(r.ciphertext, dtype=np.uint8) for r in records]
    else:
        if not args.input and not args.synthetic:
            print("analyze needs --store or --input/--synthetic", file=sys.stderr)
            return 1
        segments = _load_segments(args)
        blocks = [quantize(s).bytes for s in segments]
        # The un-encrypted baseline: the blocks are the plain quantized
        # segments, and a reader gets the segments themselves back.
        report = analysis.corpus_report(segments, blocks, segments)
    all_bytes = np.concatenate(blocks)
    summary = analysis.MinEntropySummary.from_segments(blocks)

    prefix = Path(args.output or "analysis")
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}_report.txt").write_text(report.to_flat_text())
    Path(f"{prefix}_report.json").write_text(report.to_json())
    Path(f"{prefix}_min_entropy.json").write_text(
        json.dumps(
            {
                "median": summary.median,
                "iqr": summary.iqr,
                "p5": summary.p5,
                "p95": summary.p95,
                "per_segment_bits": summary.per_segment_bits,
            },
            indent=2,
        )
    )
    hist = analysis.Histogram256.from_bytes(all_bytes)
    _emit_series(prefix, "histogram", "bin\tcount", [(i, int(c)) for i, c in enumerate(hist.counts)])
    _emit_series(
        prefix,
        "autocorr",
        "lag\trho",
        [(k, float(v)) for k, v in enumerate(report.autocorrelation)],
    )
    spec = analysis.power_spectrum(all_bytes[:4096] - all_bytes[:4096].mean())
    _emit_series(
        prefix, "spectrum", "bin\tpower", [(i, float(v)) for i, v in enumerate(spec[: len(spec) // 2])]
    )
    print(report.to_flat_text(), end="")
    print(f"min_entropy.median {summary.median:.17g}")
    print(f"wrote {prefix}_report.txt, _report.json, _min_entropy.json and series files")

    if args.compare:
        other = FileStore(args.compare)
        other_bytes = []
        for s in other.streams():
            for i in other.record_indices(s):
                other_bytes.append(
                    np.frombuffer(other.get_record(s, i).ciphertext, dtype=np.uint8)
                )
        if other_bytes:
            dist = analysis.histogram_distance(
                hist, analysis.Histogram256.from_bytes(np.concatenate(other_bytes))
            )
            print(f"compare.chi_squared {dist['chi_squared']:.17g}")
            print(f"compare.js_divergence {dist['js_divergence']:.17g}")
    return 0


def cmd_attack(args) -> int:
    records, params_list, originals, _ = _load_store(args)
    if not records:
        print("store holds no records", file=sys.stderr)
        return 1
    kind = attacks.AttackKind(args.kind)
    intensities = [float(v) for v in args.sweep.split(",")]
    rows = attacks.attack_sweep(
        records, params_list, originals, kind, intensities, seed=args.seed, burn_in=args.burn_in
    )
    table = attacks.sweep_table(rows)
    if args.output:
        Path(args.output).write_text(table)
    print(table, end="")
    return 0


def cmd_train(args) -> int:
    _parse_column(args)
    segments = _load_segments(args)
    if len(segments) < 10:
        print(f"training needs >= 10 segments, got {len(segments)}", file=sys.stderr)
        return 1
    dataset = build_dataset(
        segments,
        augment_noise=args.augment_noise,
        augment_snr_db=args.augment_snr_db,
        seed=args.seed,
    )
    config = TrainConfig(
        hidden=tuple(int(h) for h in args.hidden.split(",")),
        learning_rate=args.learning_rate,
        lr_decay=args.lr_decay,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    model, report = train(dataset, config)
    model.save(args.output)
    print(f"model -> {args.output}")
    print(f"train_mse {report.train_mse:.17g}")
    print(f"test_mse {report.test_mse:.17g}")
    print(f"epochs {report.epochs}")
    print(f"split_fraction {report.split_fraction}")
    return 0


def _run_stream(args, mode: Mode, model, store: FileStore) -> pipeline.PipelineMetrics:
    if args.input:
        source = SegmentSource.from_csv(
            args.input, args.column, args.sample_rate, args.segment_len, pacing=Pacing(args.pacing)
        )
    else:
        count = args.segments
        duration = (count + 1) * args.segment_len / args.sample_rate
        source = SegmentSource.synthetic(
            duration,
            args.sample_rate,
            args.segment_len,
            heart_rate_bpm=args.heart_rate,
            noise_amplitude=args.noise_amplitude,
            seed=args.seed,
            pacing=Pacing(args.pacing),
        )
    return pipeline.run_pipeline(
        source,
        mode,
        store,
        segment_count=args.segments,
        model=model,
        stream_id=args.stream,
        device_id=args.salt_device_id.encode(),
        base_timestamp=_base_timestamp(args),
        burn_in=args.burn_in,
    )


def cmd_stream(args) -> int:
    _parse_column(args)
    model = KeyPredictor.load(args.model) if args.model else None
    if args.mode == "ml" and model is None:
        print("--mode ml requires --model", file=sys.stderr)
        return 1
    if args.compare_modes:
        if model is None:
            print("--compare-modes requires --model", file=sys.stderr)
            return 1
        direct, ml = (FileStore(Path(args.store) / sub) for sub in ("direct", "ml"))
        # both before either run writes, so a refusal leaves neither half-done
        for store in (direct, ml):
            store.refuse_stored(args.stream)
        m_direct = _run_stream(args, Mode.DIRECT, None, direct)
        m_ml = _run_stream(args, Mode.ML_PREDICTED, model, ml)
        for label, metrics, store in (("direct", m_direct, direct), ("ml", m_ml, ml)):
            print(f"--- mode {label} ---")
            print(metrics.table())
            ent = _store_cipher_entropy(store, args.stream)
            print(f"mean ciphertext entropy {ent:.17g}")
        return 0
    mode = Mode.ML_PREDICTED if args.mode == "ml" else Mode.DIRECT
    metrics = _run_stream(args, mode, model, FileStore(args.store))
    print(metrics.table())
    if args.json:
        print(json.dumps(metrics.summary(), indent=2))
    return 0 if not metrics.errors else 1


def _store_cipher_entropy(store: FileStore, stream: str) -> float:
    ents = []
    for i in store.record_indices(stream):
        ct = np.frombuffer(store.get_record(stream, i).ciphertext, dtype=np.uint8)
        ents.append(analysis.shannon_entropy(ct))
    return float(np.mean(ents)) if ents else 0.0


def cmd_benchmark(args) -> int:
    print("kernel           n        ms")
    for n in (300, 3000, 100_000):
        out = np.empty(n)
        reps = max(3, 30000 // n)
        ms = _best_of(reps, lambda: logistic_fill(3.99, 0.123, 100, out)) * 1e3
        print(f"logistic_fill    {n:<8d} {ms:.4f}")
    # end-to-end encrypt on the default segment size
    seg = next(synthetic_ecg(2.0, seed=args.seed))
    params = params_for_segment(seg)
    reps = 200
    best = _best_of(reps, lambda: encrypt(seg, params))
    print(f"encrypt (300-sample segment): {best * 1e3:.4f} ms best-of-{reps}")
    # key lookup: per-lookup cost should not grow with the keys a stream holds
    reps = 5
    for n in (1000, 10_000):
        with tempfile.TemporaryDirectory() as tmp:
            store = FileStore(tmp)
            key_ids = [i.to_bytes(16, "big") for i in range(n)]
            for key_id in key_ids:
                store.put_key("s0", key_id, params)
            best = _best_of(reps, lambda: [store.get_key("s0", key_id) for key_id in key_ids]) / n
        print(f"get_key ({n} keys in one stream): {best * 1e3:.4f} ms per lookup, best-of-{reps}")
    # per-segment cost of the batched read path against one segment at a time
    n_seg = 1000
    segments = list(synthetic_ecg((n_seg + 1) * 300 / 500.0, seed=args.seed))[:n_seg]
    params_list = [params_for_segment(s) for s in segments]
    ranges = [quantize(s).range for s in segments]
    sealed = [encrypt(s, p) for s, p in zip(segments, params_list)]
    blocks = [np.frombuffer(record.ciphertext, dtype=np.uint8) for record, _ in sealed]
    all_bytes = np.concatenate(blocks)
    lengths = [len(b) for b in blocks]
    for layer, serial, batched in (
        (
            "key material",
            lambda: [derive_key_material(p, 300, r) for p, r in zip(params_list, ranges)],
            lambda: derive_key_material_batch(params_list, 300, ranges),
        ),
        (
            "spectral flatness",
            lambda: [analysis.spectral_flatness(b) for b in blocks],
            lambda: analysis.segment_flatness(all_bytes, lengths),
        ),
    ):
        serial_us, batched_us = (_best_of(3, fn) / n_seg * 1e6 for fn in (serial, batched))
        print(
            f"{layer} ({n_seg} seeded 300-sample segments): serial {serial_us:.2f} us, "
            f"batched {batched_us:.2f} us per segment, best-of-3"
        )
    # the stream's per-segment CSV parse and classifier peak count
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ecg.csv"
        samples = np.concatenate([s.samples for s in segments]).tolist()
        path.write_text("ecg\n" + "".join(f"{v!r}\n" for v in samples))
        ingest_us = _best_of(3, lambda: list(ingest_csv(path, "ecg"))) / n_seg * 1e6
    print(f"ingest_csv ({n_seg}-segment seeded CSV): {ingest_us:.2f} us per 300-sample segment, best-of-3")
    peaks_us = _best_of(3, lambda: [pipeline.count_peaks(s) for s in segments]) / n_seg * 1e6
    print(f"count_peaks ({n_seg} seeded 300-sample segments): {peaks_us:.2f} us per segment, best-of-3")
    # the fixed per-call costs of the stream's key prediction and quantize,
    # and of the attack sweep's per-record noise_attack
    model, _ = train(build_dataset(segments), TrainConfig(epochs=1, seed=args.seed))
    noise = attacks.AttackConfig(attacks.AttackKind.NOISE_UNIFORM, 4.0, seed=args.seed)
    references = [attacks.clean_reference(s) for s in segments]
    attacked = list(zip(segments, params_list, sealed, references))
    for layer, note, fn in (
        (
            "predict_params",
            ", one-epoch model",
            lambda: [mlkey.predict_params(model, s) for s in segments],
        ),
        ("quantize", "", lambda: [quantize(s) for s in segments]),
        (
            "noise_attack",
            ", amplitude 4, given key material",
            lambda: [
                attacks.noise_attack(rec, p, noise, s, key_material=km, reference=ref)
                for s, p, (rec, km), ref in attacked
            ],
        ),
    ):
        us = _best_of(3, fn) / n_seg * 1e6
        print(f"{layer} ({n_seg} seeded 300-sample segments{note}): {us:.2f} us per segment, best-of-3")
    return 0


def _best_of(reps: int, fn) -> float:
    """Shortest wall time of reps calls of fn, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecg",
        description="Per-segment chaotic encryption and security analysis for sampled signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encrypt", help="encrypt a signal into a record store")
    _add_common(p)
    _input_flags(p)
    p.add_argument("--store", required=True)
    p.add_argument("--stream", default="stream0")
    p.add_argument("--mode", choices=["direct", "ml"], default="direct")
    p.add_argument("--model", default=_env("MODEL", None))
    p.add_argument("--salt-device-id", default="desk01")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a record store back to CSV")
    _add_common(p)
    p.add_argument("--store", required=True)
    p.add_argument("--stream", default="stream0")
    p.add_argument("--output", required=True)
    p.add_argument("--report", action="store_true", help="print quality metrics vs --input")
    p.add_argument("--input", help="reference CSV for --report")
    p.add_argument("--column", default=0)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("analyze", help="run the statistics battery on a store or plain corpus")
    _add_common(p)
    _input_flags(p)
    p.add_argument("--store", default=_env("STORE", None))
    p.add_argument("--stream", default=None)
    p.add_argument("--output", default=None, help="output path prefix")
    p.add_argument("--compare", help="second store for histogram indistinguishability")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("attack", help="noise/occlusion sweeps against a store")
    _add_common(p)
    p.add_argument("--store", required=True)
    p.add_argument("--stream", default=None)
    p.add_argument(
        "--kind",
        choices=[k.value for k in attacks.AttackKind],
        default=attacks.AttackKind.NOISE_UNIFORM.value,
    )
    p.add_argument("--sweep", default="0,1,4,16", help="comma-separated intensities")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("train", help="train the MLP key generator")
    _add_common(p)
    _input_flags(p, synthetic_default=500)
    p.add_argument("--output", required=True, help="model file path")
    p.add_argument("--hidden", default="32,16")
    p.add_argument("--learning-rate", type=float, default=0.2)
    p.add_argument("--lr-decay", type=float, default=0.999)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--augment-noise", type=int, default=0)
    p.add_argument("--augment-snr-db", type=float, default=20.0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("stream", help="run the end-to-end pipeline")
    _add_common(p)
    _input_flags(p)
    p.add_argument("--store", required=True)
    p.add_argument("--stream", default="stream0")
    p.add_argument("--mode", choices=["direct", "ml"], default="direct")
    p.add_argument("--model", default=_env("MODEL", None))
    p.add_argument("--segments", type=int, default=10)
    p.add_argument("--pacing", choices=[v.value for v in Pacing], default=Pacing.UNPACED.value)
    p.add_argument("--salt-device-id", default="desk01")
    p.add_argument("--compare-modes", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("benchmark", help="per-layer timings on seeded segments")
    _add_common(p)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HecgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
