"""Command-line front door: encrypt, decrypt, analyze, attack, train, stream.

Every subcommand is deterministic under a fixed --seed (wall-clock timing
lines aside). Every value comes from a flag: no environment variable is
read, and a set HECG_* variable is refused.
"""

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, attacks, pipeline
from .cipher import Mode, decrypt_batch, quantize
from .errors import HecgError
from .mlkey import SPLIT_FRACTION, KeyPredictor, TrainConfig, build_dataset, train
from .pipeline import FileStore, Pacing


def _int_at_least(low: int, high: int | None = None):
    """The argparse type of an integer flag that must be >= low and, if
    high is given, <= high."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


def _float_in(low: float, high: float = math.inf, low_closed: bool = False):
    """The argparse type of a float flag that must be finite, > low (>= low
    if low_closed) and <= high."""
    bounds = f"{'>=' if low_closed else '>'} {low:g}" + (f" and <= {high:g}" if high < math.inf else "")

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and (low <= value if low_closed else low < value) and value <= high):
            raise argparse.ArgumentTypeError(f"must be finite, {bounds}, got {text}")
        return value

    parse.__name__ = "float"  # argparse names the type when float() fails
    return parse


def _add_common(p: argparse.ArgumentParser, segmenting: bool = True):
    """--seed and, unless segmenting is False, --segment-len and --sample-rate."""
    p.add_argument("--seed", type=_int_at_least(0, _MAX_SEED), default=0)
    if segmenting:
        # a SignalSegment holds at least 2 samples
        p.add_argument("--segment-len", type=_int_at_least(2), default=300)
        p.add_argument("--sample-rate", type=_float_in(0), default=500.0)


def _source(args, count: int = 0):
    """A generator of the segments of the CSV named by --input or, without
    one, of a seeded synthetic recording long enough for count segments."""
    if args.input:
        return pipeline.ingest_csv(args.input, _column(args), args.sample_rate, args.segment_len)
    return pipeline.synthetic_ecg(
        (count + 1) * args.segment_len / args.sample_rate,
        args.sample_rate,
        heart_rate_bpm=args.heart_rate,
        noise_amplitude=args.noise_amplitude,
        seed=args.seed,
        segment_len=args.segment_len,
    )


def _load_segments(args) -> list:
    """Every segment of the CSV named by --input, else the first
    --synthetic segments of the synthetic recording."""
    if args.input:
        return list(_source(args))
    return list(itertools.islice(_source(args, args.synthetic), args.synthetic))


def _input_flags(p, synthetic_default: int | None = 0):
    """The input flags; synthetic_default None leaves out --synthetic, for
    stream, whose segment count is --segments."""
    p.add_argument("--input", help="CSV file with one sample per row")
    p.add_argument("--column", default=0, help="CSV column index or header name")
    if synthetic_default is not None:
        p.add_argument(
            "--synthetic", type=_int_at_least(0), default=synthetic_default, help="synthetic segment count"
        )
    p.add_argument("--heart-rate", type=_float_in(0, 600), default=72.0, help="bpm")
    p.add_argument("--noise-amplitude", type=_float_in(0, low_closed=True), default=0.012)


def _column(args):
    """--column as an index if it is a number, else as a header name."""
    try:
        return int(args.column)
    except (TypeError, ValueError):
        return args.column


def _layer_widths(text: str) -> tuple:
    """--hidden's positive layer widths; argparse reports a ValueError."""
    widths = tuple(int(h) for h in text.split(","))
    if min(widths) < 1:
        raise ValueError(text)
    return widths


def _device_id(text: str) -> bytes:
    """--salt-device-id as the bytes of a KeySalt, at most 255."""
    if len(text.encode()) > 255:
        raise argparse.ArgumentTypeError("longer than the 255 bytes a salt holds")
    return text.encode()


def _mode_and_model(args) -> tuple:
    """--mode as a Mode, with the KeyPredictor that ML mode reads from
    --model, refused unless it takes segments of --segment-len; direct
    mode reads no model file, even one that is named."""
    if args.mode == "direct":
        return Mode.DIRECT, None
    if not args.model:
        raise HecgError("--mode ml requires --model")
    model = KeyPredictor.load(args.model)
    if model.dims[0] != args.segment_len:
        raise HecgError(f"--model takes segments of {model.dims[0]} samples, got --segment-len {args.segment_len}")
    return Mode.ML_PREDICTED, model


def _check_output(path: str) -> None:
    """Refuse an --output that is a directory, or whose directory is
    missing or not writable, before the work whose result it would hold."""
    out = Path(path)
    if out.is_dir():
        raise HecgError(f"--output {path} is a directory")
    if not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
        raise HecgError(f"--output {path}: directory {out.parent} is missing or not writable")


def _check_output_prefix(prefix: Path) -> None:
    """Refuse an --output prefix whose files could not be written: the
    nearest existing ancestor of its directory, below which the missing
    directories are made, must be a writable directory."""
    ancestor = prefix.parent
    while not os.path.lexists(ancestor) and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK)):
        raise HecgError(f"--output {prefix}: {ancestor} is not a writable directory")


def _base_timestamp(args) -> int:
    """Salt timestamp of segment 0; segment i is salted with this plus i."""
    return 1_700_000_000_000 + args.seed * 1_000_000


# The largest --seed whose salt timestamps fit the 64 bits of a KeySalt
# for segments 0 to 999_999 of a stream.
_MAX_SEED = (2**64 - 1_700_000_000_000) // 1_000_000 - 1


def _run_pipeline(args, mode, model, segments, **options) -> pipeline.PipelineMetrics:
    """run_pipeline of segments into --stream of --store, salted from
    --seed and --salt-device-id; options are its classifier and pacing."""
    return pipeline.run_pipeline(segments, mode, FileStore(args.store), model, args.stream,
                                 args.salt_device_id, _base_timestamp(args), **options)


def _segment_errors(args, metrics) -> int:
    """Print the error: line of each failed segment; exit code 1 if any failed."""
    for index, message in metrics.errors:
        print(f"error: {args.stream}[{index}]: {message}", file=sys.stderr)
    return 1 if metrics.errors else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_encrypt(args) -> int:
    mode, model = _mode_and_model(args)
    segments = _load_segments(args)
    if not segments:
        print("no segments to encrypt", file=sys.stderr)
        return 1
    metrics = _run_pipeline(args, mode, model, segments, classifier=None)
    print(f"encrypted {metrics.segments_processed} segments -> {args.store}/{args.stream}")
    if timing := metrics.summary()["encrypt_s"]:
        print(f"per-segment core encrypt: median {timing['median'] * 1e3:.4f} ms, p99 {timing['p99'] * 1e3:.4f} ms")
    return _segment_errors(args, metrics)


def cmd_decrypt(args) -> int:
    _check_output(args.output)
    # the output is one series, so a missing record would cut time out of it
    gaps, expected = [], 0
    for i in FileStore(args.store).record_indices(args.stream):
        if i > expected:
            gaps.append(f"{args.stream}[{expected}]" if i == expected + 1 else f"{args.stream}[{expected}-{i - 1}]")
        expected = i + 1
    if gaps:
        raise HecgError(f"no record for {', '.join(gaps)}: decrypt writes only an unbroken series")
    _, segments, _ = _load_store(args)
    if not segments:
        print(f"no records in {args.store}/{args.stream}", file=sys.stderr)
        return 1
    out = np.concatenate([s.samples for s in segments])
    with open(args.output, "w") as fh:
        fh.write("value\n")
        for v in out:
            fh.write(f"{v:.17g}\n")
    print(f"decrypted {len(segments)} segments -> {args.output}")
    return 0


def _read_store(args):
    """Records and stored params of --stream (default: every stream) of
    --store, in stream then record order. Nothing is decrypted here:
    attack decrypts inside its sweep, with the key material it derives."""
    store = FileStore(args.store)
    records, params_list = [], []
    for stream in [args.stream] if args.stream else store.streams():
        for i in store.record_indices(stream):
            record, params = store.read(stream, i)
            records.append(record)
            params_list.append(params)
    return records, params_list


def _load_store(args):
    """_read_store's records, their segments decrypted by decrypt_batch
    and the batch decrypt time per record."""
    records, params_list = _read_store(args)
    t0 = time.perf_counter()
    segments = decrypt_batch(records, params_list)
    decrypt_s = (time.perf_counter() - t0) / max(1, len(records))
    return records, segments, decrypt_s


def _emit_series(prefix: Path, name: str, header: str, rows):
    path = prefix.parent / f"{prefix.name}_{name}.tsv"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write("\t".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    return path


def cmd_analyze(args) -> int:
    prefix = Path(args.output or "analysis")
    _check_output_prefix(prefix)
    if args.compare:
        other = FileStore(args.compare)
        other_bytes = [
            np.frombuffer(other.get_record(s, i).ciphertext, dtype=np.uint8)
            for s in other.streams()
            for i in other.record_indices(s)
        ]
        if not other_bytes:
            raise HecgError(f"--compare store {args.compare} holds no records")
    reference = None
    if args.store:
        records, segments, decrypt_s = _load_store(args)
        if not records:
            print("store holds no records", file=sys.stderr)
            return 1
        if args.input:
            reference = list(itertools.islice(_source(args), len(segments)))
            if len(reference) < len(segments):
                raise HecgError(f"{len(segments)} recovered segments for {len(reference)} reference segments")
            for ref, seg in zip(reference, segments):
                if len(ref) != len(seg):
                    raise HecgError(
                        f"--input segments of --segment-len {len(ref)} against stored"
                        f" segments of {len(seg)} samples"
                    )
        blocks = [np.frombuffer(r.ciphertext, dtype=np.uint8) for r in records]
    else:
        segments = _load_segments(args)
        if not segments:
            print("analyze needs --store, or a segment from --input or --synthetic", file=sys.stderr)
            return 1
        # the un-encrypted baseline: the blocks are the plain quantized segments
        blocks = [quantize(s).bytes for s in segments]
    # per-segment bounds first: a segment under 256 bytes is refused before the battery
    summary = analysis.MinEntropySummary.from_segments(blocks)
    report, corpus = analysis.analyze_corpus(segments, blocks, reference)
    if args.store:
        report.timing["decrypt_seconds"] = decrypt_s

    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}_report.txt").write_text(report.to_flat_text())
    Path(f"{prefix}_report.json").write_text(report.to_json())
    Path(f"{prefix}_min_entropy.json").write_text(json.dumps(asdict(summary), indent=2))
    _emit_series(prefix, "histogram", "bin\tcount", [(i, int(c)) for i, c in enumerate(corpus.counts)])
    _emit_series(
        prefix,
        "autocorr",
        "lag\trho",
        [(k, float(v)) for k, v in enumerate(report.autocorrelation)],
    )
    # the first 4096 bytes of the corpus, from only the blocks that hold them
    leading = int(np.searchsorted(np.cumsum([len(b) for b in blocks]), 4096)) + 1
    head = np.concatenate(blocks[:leading])[:4096]
    spec = analysis.power_spectrum(head - head.mean())
    _emit_series(
        prefix, "spectrum", "bin\tpower", [(i, float(v)) for i, v in enumerate(spec[:-1])]
    )
    print(report.to_flat_text(), end="")
    print(f"min_entropy.median {summary.median:.17g}")
    print(f"wrote {prefix}_report.txt, _report.json, _min_entropy.json and series files")

    if args.compare:
        dist = analysis.histogram_distance(corpus, analysis.Histogram256.from_blocks(other_bytes))
        print(f"compare.chi_squared {dist['chi_squared']:.17g}")
        print(f"compare.js_divergence {dist['js_divergence']:.17g}")
    return 0


def cmd_attack(args) -> int:
    if args.output:
        _check_output(args.output)
    kind = attacks.AttackKind(args.kind)
    try:  # every intensity in its kind's domain before the store is read
        intensities = [float(v) for v in args.sweep.split(",")]
        for intensity in intensities:
            attacks.AttackConfig(kind, intensity)
    except ValueError as exc:
        print(f"error: --sweep {args.sweep}: {exc}", file=sys.stderr)
        return 1
    records, params_list = _read_store(args)
    if not records:
        print("store holds no records", file=sys.stderr)
        return 1
    rows = attacks.attack_sweep(records, params_list, kind, intensities, seed=args.seed)
    table = attacks.sweep_table(rows)
    if args.output:
        Path(args.output).write_text(table)
    print(table, end="")
    return 0


def cmd_train(args) -> int:
    _check_output(args.output)
    dataset = build_dataset(
        _load_segments(args),
        augment_noise=args.augment_noise,
        augment_snr_db=args.augment_snr_db,
        seed=args.seed,
    )
    config = TrainConfig(
        hidden=args.hidden,
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
    print(f"epochs {config.epochs}")
    print(f"split_fraction {SPLIT_FRACTION}")
    return 0


def cmd_stream(args) -> int:
    mode, model = _mode_and_model(args)
    segments = itertools.islice(_source(args, args.segments), args.segments)
    metrics = _run_pipeline(args, mode, model, segments, pacing=Pacing(args.pacing))
    print(metrics.table())
    if args.json:
        print(json.dumps(metrics.summary(), indent=2))
    return _segment_errors(args, metrics)


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
    p.add_argument("--model")
    p.add_argument("--salt-device-id", type=_device_id, default="desk01")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a record store back to CSV")
    p.add_argument("--store", required=True)
    p.add_argument("--stream", default="stream0")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("analyze", help="run the statistics battery on a store or plain corpus")
    _add_common(p)
    _input_flags(p)
    p.add_argument("--store")
    p.add_argument("--stream", default=None)
    p.add_argument("--output", default=None, help="output path prefix")
    p.add_argument("--compare", help="second store for histogram indistinguishability")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("attack", help="noise/occlusion sweeps against a store")
    _add_common(p, segmenting=False)
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
    # argparse applies type only to a string default, so --hidden takes the tuple
    p.add_argument("--hidden", type=_layer_widths, default=TrainConfig.hidden)
    p.add_argument("--learning-rate", type=_float_in(0), default=TrainConfig.learning_rate)
    p.add_argument("--lr-decay", type=_float_in(0, 1), default=TrainConfig.lr_decay)
    p.add_argument("--epochs", type=_int_at_least(1), default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=_int_at_least(1), default=TrainConfig.batch_size)
    p.add_argument("--augment-noise", type=_int_at_least(0), default=0)
    # below -6000 dB the noise scale 10 ** (-snr / 20) overflows a float
    p.add_argument("--augment-snr-db", type=_float_in(-6000), default=20.0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("stream", help="run the end-to-end pipeline")
    _add_common(p)
    _input_flags(p, synthetic_default=None)
    p.add_argument("--store", required=True)
    p.add_argument("--stream", default="stream0")
    p.add_argument("--mode", choices=["direct", "ml"], default="direct")
    p.add_argument("--model")
    p.add_argument("--segments", type=_int_at_least(1), default=10)
    p.add_argument("--pacing", choices=[v.value for v in Pacing], default=Pacing.UNPACED.value)
    p.add_argument("--salt-device-id", type=_device_id, default="desk01")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stream)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A leftover HECG_SEED or HECG_MODEL would look as if it still set its
    # flag, and records made under an old HECG_BURN_IN do not decrypt.
    leftover = sorted(name for name in os.environ if name.startswith("HECG_"))
    if leftover:
        parser.error(
            f"{', '.join(leftover)} set: hecg reads no environment variables and takes"
            " every value from its flags; unset them"
        )
    try:
        return args.func(args)
    except (HecgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
