import argparse
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hecg import HAVE_COMPILED, analysis, attacks, backend_name, cipher, cli, pipeline
from hecg.analysis import AnalysisReport
from hecg.cipher import decrypt
from hecg.errors import StoreError, TrainingDivergedError, UndefinedStatisticError
from hecg.cli import main
from hecg.pipeline import FileStore, synthetic_ecg_wave


@pytest.fixture()
def csv_file(tmp_path):
    wave = synthetic_ecg_wave(8.0, 500.0, 72.0, 0.012, seed=55)
    path = tmp_path / "ecg.csv"
    with open(path, "w") as fh:
        fh.write("value\n")
        for v in wave:
            fh.write(f"{v:.17g}\n")
    return path


def test_encrypt_decrypt_roundtrip_csv(tmp_path, csv_file, capsys):
    store = tmp_path / "store"
    assert main(["encrypt", "--input", str(csv_file), "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "encrypted 13 segments" in out

    out_csv = tmp_path / "back.csv"
    assert main(["decrypt", "--store", str(store), "--output", str(out_csv)]) == 0
    prefix = tmp_path / "ref"
    assert main(["analyze", "--store", str(store), "--input", str(csv_file), "--output", str(prefix)]) == 0
    capsys.readouterr()
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    assert report["quality"]["mse"] <= 1e-5

    original = np.loadtxt(csv_file, skiprows=1)
    recovered = np.loadtxt(out_csv, skiprows=1)
    n = len(recovered)
    span = original[:n].max() - original[:n].min()
    assert np.max(np.abs(recovered - original[:n])) <= span / 510 * (1 + 1e-9)


def test_decrypt_missing_key_fails(tmp_path, csv_file, capsys):
    store = tmp_path / "store"
    main(["encrypt", "--input", str(csv_file), "--store", str(store)])
    (store / "stream0" / "keys.txt").unlink()
    rc = main(["decrypt", "--store", str(store), "--output", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_without_reference_writes_no_quality(tmp_path, csv_file, capsys):
    store = tmp_path / "store"
    main(["encrypt", "--input", str(csv_file), "--store", str(store)])
    for name, argv in (("store", ["--store", str(store)]), ("plain", ["--input", str(csv_file)])):
        prefix = tmp_path / name
        assert main(["analyze", *argv, "--output", str(prefix)]) == 0
        assert "quality." not in capsys.readouterr().out
        assert "quality." not in Path(f"{prefix}_report.txt").read_text()
        text = Path(f"{prefix}_report.json").read_text()
        assert json.loads(text)["quality"] == {}
        report = AnalysisReport.from_json(text)
        report.validate()
        assert report.to_json() == text


def test_analyze_short_reference_fails(tmp_path, csv_file, capsys, monkeypatch):
    store = tmp_path / "store"
    main(["encrypt", "--input", str(csv_file), "--store", str(store)])
    short = tmp_path / "short.csv"
    short.write_text("".join(csv_file.read_text().splitlines(True)[: 1 + 5 * 300]))
    capsys.readouterr()

    def battery(*args, **kwargs):
        raise AssertionError("the battery ran before the reference count was checked")

    # the count is refused before any per-segment bound or statistic is taken
    monkeypatch.setattr(analysis, "analyze_corpus", battery)
    monkeypatch.setattr(analysis.MinEntropySummary, "from_segments", battery)
    prefix = tmp_path / "out" / "ref"
    rc = main(["analyze", "--store", str(store), "--input", str(short), "--output", str(prefix)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: 13 recovered segments for 5 reference segments" in captured.err
    assert captured.out == ""
    assert not prefix.parent.exists()


def test_analyze_reads_no_reference_row_past_the_store(tmp_path, csv_file, capsys):
    # as stream does, analyze never reports a bad row past the count it takes
    lines = csv_file.read_text().splitlines(True)
    five = tmp_path / "five.csv"
    five.write_text("".join(lines[: 1 + 5 * 300]))
    store = tmp_path / "store"
    assert main(["encrypt", "--input", str(five), "--store", str(store)]) == 0
    reference = tmp_path / "reference.csv"
    reference.write_text("".join(lines[: 1 + 5 * 300]) + "oops\n" + "".join(lines[1 + 5 * 300 :]))
    prefix = tmp_path / "ref"
    assert main(["analyze", "--store", str(store), "--input", str(reference), "--output", str(prefix)]) == 0
    assert "quality.mse " in capsys.readouterr().out
    assert json.loads(Path(f"{prefix}_report.json").read_text())["quality"]["mse"] <= 1e-5


@pytest.mark.parametrize("column", ["-5", "3"])
def test_encrypt_column_past_the_row_is_an_error_line(tmp_path, csv_file, column, capsys):
    store = tmp_path / "s"
    assert main(["encrypt", "--input", str(csv_file), "--column", column, "--store", str(store)]) == 1
    need = 5 if column == "-5" else 4
    assert capsys.readouterr().err == f"error: line 2: row has 1 fields, need {need}\n"
    assert not list(store.glob("*/seg_*.rec"))


def test_encrypt_column_minus_one_reads_the_last_column(tmp_path, csv_file, capsys):
    for column in ("-1", "0"):
        assert main(["encrypt", "--input", str(csv_file), "--column", column, "--store", str(tmp_path / column)]) == 0
    stores = [
        {p.relative_to(tmp_path / c): p.read_bytes() for p in (tmp_path / c).rglob("*") if p.is_file()}
        for c in ("-1", "0")
    ]
    assert stores[0] == stores[1] and stores[0]


def test_encrypt_ml_mode_without_model_errors(tmp_path, csv_file, capsys):
    rc = main(
        ["encrypt", "--input", str(csv_file), "--store", str(tmp_path / "s"), "--mode", "ml"]
    )
    assert rc == 1
    assert "requires --model" in capsys.readouterr().err


def test_analyze_store_and_outputs(tmp_path, capsys):
    store = tmp_path / "store"
    main(["encrypt", "--synthetic", "40", "--store", str(store), "--seed", "5"])
    capsys.readouterr()
    prefix = tmp_path / "out" / "enc"
    assert main(["analyze", "--store", str(store), "--output", str(prefix)]) == 0
    out = capsys.readouterr().out
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    assert 7.6 <= report["shannon_entropy_bits"] <= 8.0
    assert report["segment_count"] == 40
    # flat text parses one metric per line
    flat = Path(f"{prefix}_report.txt").read_text()
    for line in flat.strip().splitlines():
        float(line.rsplit(" ", 1)[1])
    for series in ("histogram", "autocorr", "spectrum"):
        assert Path(f"{prefix}_{series}.tsv").exists()
    assert "monobit_pass_fraction" in out


def test_analyze_plain_corpus_monobit_fails(tmp_path, csv_file, capsys):
    prefix = tmp_path / "plain"
    assert main(["analyze", "--input", str(csv_file), "--output", str(prefix)]) == 0
    capsys.readouterr()
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    assert report["monobit_pass_fraction"] < 0.5
    assert report["shannon_entropy_bits"] < 7.0


def test_analyze_compare_stores(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["encrypt", "--synthetic", "30", "--store", str(a), "--seed", "1"])
    main(["encrypt", "--synthetic", "30", "--store", str(b), "--seed", "2", "--heart-rate", "88"])
    capsys.readouterr()
    rc = main(
        [
            "analyze",
            "--store",
            str(a),
            "--compare",
            str(b),
            "--output",
            str(tmp_path / "cmp"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    jsd = float(
        [line for line in out.splitlines() if line.startswith("compare.js_divergence")][0].split()[1]
    )
    assert jsd < 0.32


@pytest.mark.parametrize("empty", ["missing", "no_records"])
def test_analyze_compare_without_records_fails_before_writing(tmp_path, empty, capsys):
    main(["encrypt", "--synthetic", "3", "--store", str(tmp_path / "a")])
    (tmp_path / "no_records" / "stream0").mkdir(parents=True)
    capsys.readouterr()
    other = tmp_path / empty
    prefix = tmp_path / "out" / "cmp"
    argv = ["analyze", "--store", str(tmp_path / "a"), "--compare", str(other), "--output", str(prefix)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert f"error: --compare store {other} holds no records" in err
    assert "compare." not in out
    assert not prefix.parent.exists()


def test_attack_sweep_deterministic(tmp_path, capsys):
    store = tmp_path / "store"
    main(["encrypt", "--synthetic", "20", "--store", str(store), "--seed", "9"])
    capsys.readouterr()
    args = [
        "attack",
        "--store",
        str(store),
        "--kind",
        "occlusion",
        "--sweep",
        "0.05,0.1,0.25",
        "--seed",
        "4",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert len(lines) == 4  # header + three rows


def test_attack_noise_monotone(tmp_path, capsys):
    store = tmp_path / "store"
    main(["encrypt", "--synthetic", "20", "--store", str(store), "--seed", "11"])
    capsys.readouterr()
    assert (
        main(
            ["attack", "--store", str(store), "--kind", "noise-uniform", "--sweep", "0,1,4,16"]
        )
        == 0
    )
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    maes = [float(r.split("\t")[1]) for r in rows]
    assert maes == sorted(maes)


def test_attack_derives_each_record_once_and_never_batch_decrypts(tmp_path, monkeypatch, capsys):
    # 70 records: one full chunk of 64 and a short one
    store = tmp_path / "store"
    main(["encrypt", "--synthetic", "70", "--store", str(store), "--seed", "6"])
    capsys.readouterr()
    rows, decrypts, attacked = [], [], []
    iterate, decrypt_all = cipher.iterate_logistic_batch, cipher.decrypt_batch
    noise = attacks.noise_attack

    def counting(params_list, *args, **kwargs):
        rows.append(len(params_list))
        return iterate(params_list, *args, **kwargs)

    def recorded(records, *args, **kwargs):
        decrypts.append(len(records))
        return decrypt_all(records, *args, **kwargs)

    def ticked(*args):
        attacked.append(args[0])
        return noise(*args)

    # every record's key material is derived in the orbits of a key_material_runs run
    monkeypatch.setattr(cipher, "iterate_logistic_batch", counting)
    for module in (cipher, cli):
        monkeypatch.setattr(module, "decrypt_batch", recorded)
    # the benchmark's audit ticks at each call of the module-level noise_attack
    monkeypatch.setattr(attacks, "noise_attack", ticked)
    assert main(["attack", "--store", str(store), "--sweep", "0,4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert sum(rows) == 70
    assert decrypts == []
    assert len(attacked) == 70 * 2


def test_stream_refuses_synthetic(tmp_path, capsys):
    # stream takes its segment count from --segments only
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exc:
        main(["stream", "--synthetic", "3", "--store", str(store)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --synthetic 3" in capsys.readouterr().err
    assert not store.exists()


READ_COMMANDS = [("decrypt", ["--output", "back.csv"]), ("analyze", []), ("attack", [])]


@pytest.mark.parametrize("command, args", READ_COMMANDS)
def test_read_commands_leave_a_missing_store_missing(tmp_path, monkeypatch, command, args, capsys):
    monkeypatch.chdir(tmp_path)
    store = tmp_path / "typo" / "store"
    assert main([command, "--store", str(store), *args]) == 1
    assert "no records" in capsys.readouterr().err
    assert not (tmp_path / "typo").exists()
    assert not (tmp_path / "back.csv").exists()


def _stray_record_file(stream: Path) -> str:
    (stream / "seg_.rec").touch()
    return "error: store/stream0/seg_.rec is not a record file of stream stream0"


def _non_numeric_key(stream: Path) -> str:
    keys = stream / "keys.txt"
    rows = keys.read_text().split("\n")
    key_id, _, x0 = rows[1].split()
    keys.write_text("\n".join([rows[0], f"{key_id} notnum {x0}", *rows[2:]]))
    return f"error: stream0[1]: key {key_id} in stream stream0 is not numeric: notnum {x0}"


def _one_sample_record(stream: Path) -> str:
    # a crafted record of one sample, keyed like the record it replaces
    record = FileStore(stream.parent).get_record(stream.name, 1)
    short = dataclasses.replace(record, ciphertext=record.ciphertext[:1])
    (stream / "seg_000001.rec").write_bytes(short.to_bytes())
    return "error: segment length must be >= 2, got 1"


@pytest.mark.parametrize("fault", [_stray_record_file, _non_numeric_key, _one_sample_record])
@pytest.mark.parametrize("command, args", READ_COMMANDS)
def test_read_commands_report_a_store_fault(tmp_path, monkeypatch, command, args, fault, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["encrypt", "--synthetic", "3", "--store", "store"]) == 0
    expected = fault(tmp_path / "store" / "stream0")
    capsys.readouterr()
    assert main([command, "--store", "store", *args]) == 1
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "back.csv").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["attack", "--sweep", "x"], 1),
        (["attack", "--sweep=-1"], 1),
        (["attack", "--sweep", "1,inf"], 1),
        (["attack", "--kind", "occlusion", "--sweep", "2"], 1),
        (["train", "--hidden", "a"], 2),
        (["train", "--hidden", "32,0"], 2),
        (["encrypt", "--synthetic", "2", "--salt-device-id", "d" * 256], 2),
        (["stream", "--segments", "2", "--salt-device-id", "\u00e9" * 128], 2),
        (["train", "--batch-size", "0"], 2),
        (["train", "--epochs", "-1"], 2),
        (["encrypt", "--seed", "-2000000"], 2),
        (["encrypt", "--burn-in", "3"], 2),
        (["encrypt", "--synthetic", "-3"], 2),
        (["encrypt", "--sample-rate", "0"], 2),
        (["encrypt", "--synthetic", "2", "--heart-rate", "inf"], 2),
        (["encrypt", "--synthetic", "2", "--heart-rate", "1e9"], 2),
        (["encrypt", "--synthetic", "2", "--heart-rate", "0"], 2),
        (["encrypt", "--synthetic", "2", "--noise-amplitude", "nan"], 2),
        (["train", "--synthetic", "20", "--epochs", "1", "--augment-noise", "1", "--augment-snr-db", "-10000"], 2),
        (["train", "--synthetic", "20", "--epochs", "1", "--augment-noise", "1", "--augment-snr-db", "nan"], 2),
        (["train", "--augment-noise", "-1"], 2),
        (["stream", "--segments", "-1"], 2),
        (["encrypt", "--synthetic", "2", "--seed", "18446742373709"], 2),
        (["stream", "--segments", "2", "--seed", "99999999999999"], 2),
        (["HECG_BURN_IN=3", "encrypt", "--synthetic", "2"], 2),
        (["HECG_BURN_IN=3", "attack", "--stream", "s"], 2),
        (["HECG_BURN_IN=0", "encrypt", "--synthetic", "2"], 2),
        (["HECG_SEED=1", "attack", "--stream", "s"], 2),
        (["encrypt", "--input", "/missing.csv"], 1),
        (["analyze", "--input", "/missing.csv"], 1),
        (["encrypt", "--synthetic", "2", "--mode", "ml", "--model", "/missing"], 1),
        (["decrypt", "--stream", "s", "--output", "/missing/dir/x.csv"], 1),
        (["train", "--synthetic", "20", "--epochs", "1", "--output", "/missing/dir/m.hmlp"], 1),
        (["train", "--learning-rate", "-1"], 2),
        (["train", "--lr-decay", "1.5"], 2),
        (["encrypt", "--synthetic", "3", "--segment-len", "1"], 2),
    ],
)
def test_bad_arguments_end_in_an_error_line(tmp_path, monkeypatch, argv, code, capsys):
    store = tmp_path / "store"
    main(["encrypt", "--synthetic", "3", "--store", str(store), "--stream", "s"])
    capsys.readouterr()
    # leading NAME=value words set the environment, as in a shell
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("="))
        argv = argv[1:]
    out = tmp_path / "out"
    if argv[0] != "train":
        extra = ["--store", str(store)]
    else:
        extra = [] if "--output" in argv else ["--output", str(out)]
    try:
        got = main([*argv, *extra])
    except SystemExit as exc:  # argparse rejects its arguments this way
        got = exc.code
    assert got == code
    assert "error: " in capsys.readouterr().err
    assert not out.exists()
    assert FileStore(store).streams() == ["s"]


def test_train_determinism_and_model_file(tmp_path, capsys):
    model_a = tmp_path / "a.hmlp"
    model_b = tmp_path / "b.hmlp"
    args = ["--synthetic", "60", "--epochs", "30", "--seed", "3"]
    assert main(["train", "--output", str(model_a)] + args) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["epochs 30", "split_fraction 0.2"]
    assert main(["train", "--output", str(model_b)] + args) == 0
    capsys.readouterr()
    assert model_a.read_bytes() == model_b.read_bytes()


@pytest.mark.parametrize("directory", ["missing", ".", "is_a_directory"])
def test_train_checks_output_before_training_and_writes_no_failed_model(
    tmp_path, monkeypatch, directory, capsys
):
    def failing(*args, **kwargs):
        raise TrainingDivergedError("training reached")

    monkeypatch.setattr(cli, "train", failing)
    model = tmp_path / directory / "m.hmlp"
    if directory == "is_a_directory":
        model.mkdir(parents=True)
    assert main(["train", "--synthetic", "20", "--output", str(model)]) == 1
    err = capsys.readouterr().err
    if directory == "missing":
        assert f"error: --output {model}: directory {model.parent} is missing or not writable" in err
    elif directory == "is_a_directory":
        assert f"error: --output {model} is a directory" in err
    else:
        assert "error: training reached" in err
    if directory == "is_a_directory":
        assert list(model.iterdir()) == []
    else:
        assert not model.exists()


@pytest.mark.parametrize("output", ["missing/out", "."])
@pytest.mark.parametrize("command", ["decrypt", "attack"])
def test_decrypt_and_attack_check_output_before_the_work(
    tmp_path, monkeypatch, command, output, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["encrypt", "--synthetic", "3", "--store", "store"]) == 0
    capsys.readouterr()

    def reached(*args, **kwargs):
        raise AssertionError(f"{command} read the store before checking --output")

    monkeypatch.setattr(cli, "decrypt_batch", reached)
    monkeypatch.setattr(cli.attacks, "attack_sweep", reached)
    assert main([command, "--store", "store", "--output", output]) == 1
    err = capsys.readouterr().err
    if output == ".":
        assert "error: --output . is a directory" in err
    else:
        assert "error: --output missing/out: directory missing is missing or not writable" in err
    assert [p.name for p in tmp_path.iterdir()] == ["store"]


@pytest.mark.parametrize(
    "output, ancestor",
    [("file/rep", "file"), ("file/missing/rep", "file"), ("ro/missing/rep", "ro")],
)
def test_analyze_checks_output_before_the_work(tmp_path, monkeypatch, output, ancestor, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["encrypt", "--synthetic", "3", "--store", "store"]) == 0
    Path("file").write_text("not a directory\n")
    Path("ro").mkdir()
    capsys.readouterr()

    def reached(*args, **kwargs):
        raise AssertionError("analyze read the store before checking --output")

    monkeypatch.setattr(cli, "decrypt_batch", reached)
    monkeypatch.setattr(cli.analysis, "analyze_corpus", reached)
    # a root user may write to any directory, so ro is refused at the check itself
    access = cli.os.access
    monkeypatch.setattr(
        cli.os, "access", lambda path, mode: Path(path) != Path("ro") and access(path, mode)
    )
    before = sorted(tmp_path.rglob("*"))
    assert main(["analyze", "--store", "store", "--output", output]) == 1
    assert f"error: --output {output}: {ancestor} is not a writable directory" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_train_undersized_dataset(tmp_path, capsys):
    rc = main(["train", "--output", str(tmp_path / "m.hmlp"), "--synthetic", "5"])
    assert rc == 1
    assert "need >= 10" in capsys.readouterr().err


def test_stream_direct_metrics(tmp_path, capsys):
    rc = main(
        [
            "stream",
            "--store",
            str(tmp_path / "store"),
            "--segments",
            "10",
            "--seed",
            "6",
            "--json",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode=DIRECT segments=10 errors=0" in out
    summary = json.loads(out[out.index("{") :])
    assert summary["segments"] == 10
    assert summary["encrypt_s"]["median"] < 0.01


def test_encrypt_mode_tag_bytes_differ(tmp_path, capsys):
    model = tmp_path / "m.hmlp"
    main(["train", "--output", str(model), "--synthetic", "60", "--epochs", "40", "--seed", "2"])
    d_store = tmp_path / "d"
    m_store = tmp_path / "m"
    main(["encrypt", "--synthetic", "5", "--store", str(d_store), "--mode", "direct"])
    main(
        [
            "encrypt",
            "--synthetic",
            "5",
            "--store",
            str(m_store),
            "--mode",
            "ml",
            "--model",
            str(model),
        ]
    )
    capsys.readouterr()
    d_blob = (d_store / "stream0" / "seg_000000.rec").read_bytes()
    m_blob = (m_store / "stream0" / "seg_000000.rec").read_bytes()
    assert d_blob[5] == 0
    assert m_blob[5] == 1


def test_backend_is_pure_python():
    # perfbench records both in its run metadata
    assert backend_name() == "pure-python"
    assert HAVE_COMPILED is False


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "hecg.cli", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    for command in ("encrypt", "decrypt", "analyze", "attack", "train", "stream"):
        assert command in out.stdout
    # perfbench/run.py --trace 1 times the layers; the package ships no timer
    out = subprocess.run([sys.executable, "-m", "hecg.cli", "benchmark"], capture_output=True, text=True)
    assert out.returncode == 2
    assert "invalid choice: 'benchmark'" in out.stderr


_SEGMENTING = ["--seed", "--segment-len", "--sample-rate"]
_INPUT = ["--input", "--column", "--heart-rate", "--noise-amplitude"]
FLAGS = {
    "encrypt": [*_SEGMENTING, *_INPUT, "--synthetic", "--store", "--stream", "--mode", "--model",
                "--salt-device-id"],
    "decrypt": ["--store", "--stream", "--output"],
    "analyze": [*_SEGMENTING, *_INPUT, "--synthetic", "--store", "--stream", "--output", "--compare"],
    "attack": ["--seed", "--store", "--stream", "--kind", "--sweep", "--output"],
    "train": [*_SEGMENTING, *_INPUT, "--synthetic", "--output", "--hidden", "--learning-rate",
              "--lr-decay", "--epochs", "--batch-size", "--augment-noise", "--augment-snr-db"],
    "stream": [*_SEGMENTING, *_INPUT, "--store", "--stream", "--mode", "--model", "--segments",
               "--pacing", "--salt-device-id", "--json"],
}


def test_flag_surface(tmp_path, monkeypatch, capsys):
    # each value has one way in: a flag that its command reads
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert surface == {name: sorted(flags) for name, flags in FLAGS.items()}
    store = tmp_path / "store"
    assert main(["encrypt", "--synthetic", "2", "--store", str(store)]) == 0
    capsys.readouterr()
    for argv, named in (
        (["decrypt", "--output", "x.csv", "--report"], "unrecognized arguments: --report"),
        (["decrypt", "--output", "x.csv", "--input", "x"], "unrecognized arguments: --input x"),
        (["decrypt", "--output", "x.csv", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["attack", "--sample-rate", "1"], "unrecognized arguments: --sample-rate 1"),
        (["attack", "--segment-len", "7"], "unrecognized arguments: --segment-len 7"),
        (["stream", "--compare-modes"], "unrecognized arguments: --compare-modes"),
        (["HECG_SEED=1", "encrypt", "--synthetic", "2"], "error: HECG_SEED set"),
    ):
        with monkeypatch.context() as env:
            if "=" in argv[0]:
                env.setenv(*argv.pop(0).split("="))
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--store", str(store)])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
    assert FileStore(store).streams() == ["stream0"]


def test_direct_mode_reads_no_model(tmp_path, capsys):
    missing = tmp_path / "missing.hmlp"
    for command in (["encrypt", "--synthetic", "2"], ["stream", "--segments", "2"]):
        store = tmp_path / command[0]
        assert main([*command, "--store", str(store), "--model", str(missing)]) == 0


def test_largest_seed_salts_a_million_segments_in_64_bits(tmp_path):
    # segment 0 is salted at 1_700_000_000_000 + seed * 10^6; the next seed
    # leaves less than 10^6 indices below 2^64
    seed = 18446742373708
    assert 1_700_000_000_000 + seed * 1_000_000 + 999_999 < 2**64 <= (
        1_700_000_000_000 + (seed + 1) * 1_000_000 + 999_999
    )
    for command in (["encrypt", "--synthetic", "2"], ["stream", "--segments", "2"]):
        store = tmp_path / command[0]
        assert main([*command, "--store", str(store), "--seed", str(seed)]) == 0


def test_encrypt_and_stream_write_the_same_store(tmp_path, capsys):
    # Both commands seal segment i with the same salt timestamp and device.
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["encrypt", "--synthetic", "6", "--store", str(a), "--seed", "4"]) == 0
    assert main(["stream", "--segments", "6", "--store", str(b), "--seed", "4"]) == 0
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert len(files) == 7
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)


def test_encrypt_rerun_with_other_seed_is_refused(tmp_path, capsys):
    # A different seed gives new key_ids, so only the stream's records can
    # tell that a second run would replace the first run's segments.
    store = tmp_path / "store"
    assert main(["encrypt", "--synthetic", "5", "--store", str(store), "--seed", "1"]) == 0
    stream = store / "stream0"
    before = {p.name: p.read_bytes() for p in stream.iterdir()}
    rc = main(["encrypt", "--synthetic", "6", "--store", str(store), "--seed", "2"])
    assert rc == 1
    assert "5 records already stored in stream stream0" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in stream.iterdir()} == before
    assert main(["encrypt", "--synthetic", "6", "--store", str(store), "--seed", "2",
                 "--stream", "stream1"]) == 0


def test_stream_rerun_with_other_seed_is_refused(tmp_path, capsys):
    # Like encrypt: a second run would replace the first run's records and
    # leave its key rows in keys.txt.
    store = tmp_path / "store"
    assert main(["stream", "--segments", "4", "--store", str(store), "--seed", "1"]) == 0
    stream = store / "stream0"
    before = {p.name: p.read_bytes() for p in stream.iterdir()}
    capsys.readouterr()
    rc = main(["stream", "--segments", "5", "--store", str(store), "--seed", "2"])
    assert rc == 1
    assert "4 records already stored in stream stream0" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in stream.iterdir()} == before
    assert main(["stream", "--segments", "5", "--store", str(store), "--seed", "2",
                 "--stream", "stream1"]) == 0


def test_stream_names_the_segments_that_failed(tmp_path, monkeypatch, capsys):
    def refused(self, stream_id, key_id, params):
        raise StoreError("injected fault")

    monkeypatch.setattr(FileStore, "put_key", refused)
    argv = ["stream", "--segments", "3", "--store", str(tmp_path / "store"), "--seed", "7", "--json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: stream0[{i}]: StoreError: injected fault" for i in range(3)]
    assert "mode=DIRECT segments=0 errors=3" in captured.out
    assert "distinct params: biometric=0 stored=0" in captured.out
    summary = json.loads(captured.out[captured.out.index("{") :])
    assert summary["errors"] == 3 and summary["distinct_stored_params"] == 0


def test_a_run_that_stored_nothing_prints_no_stage_timing(tmp_path, monkeypatch, capsys):
    def refused(self, stream_id, key_id, params):
        raise StoreError("injected fault")

    monkeypatch.setattr(FileStore, "put_key", refused)
    monkeypatch.chdir(tmp_path)
    assert main(["encrypt", "--synthetic", "3", "--store", "a"]) == 1
    assert capsys.readouterr().out.splitlines() == ["encrypted 0 segments -> a/stream0"]
    assert main(["stream", "--segments", "3", "--store", "b", "--json"]) == 1
    out = capsys.readouterr().out
    table, summary = out[: out.index("{")], json.loads(out[out.index("{") :])
    assert table.splitlines() == [
        "mode=DIRECT segments=0 errors=3",
        "stage      median_ms   p99_ms      mean_ms",
        "distinct params: biometric=0 stored=0",
    ]
    for stage in ("encrypt_s", "store_s", "decrypt_s", "total_s"):
        assert summary[stage] is None and f'"{stage}": null' in out


@pytest.mark.parametrize("seed", ["7", "8"])
def test_stream_into_orphaned_key_rows_is_refused_once(tmp_path, capsys, seed):
    # With the records deleted, the same seed would fail each put_key and
    # another seed would add its rows beside the orphans; both get one error.
    store = tmp_path / "store"
    assert main(["stream", "--segments", "3", "--store", str(store), "--seed", "7"]) == 0
    for path in (store / "stream0").glob("seg_*.rec"):
        path.unlink()
    keys = (store / "stream0" / "keys.txt").read_bytes()
    capsys.readouterr()
    assert main(["stream", "--segments", "3", "--store", str(store), "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: 3 orphaned key rows, and no records, in stream stream0"]
    assert captured.out == ""
    assert (store / "stream0" / "keys.txt").read_bytes() == keys
    assert sorted(p.name for p in (store / "stream0").iterdir()) == ["keys.txt"]


@pytest.mark.parametrize(
    "encrypt_args, analyze_args, message",
    [
        # MinEntropySummary's per-segment bound needs 256 bytes a segment
        (["--segment-len", "100"], ["--store", "store"], "error: MCV estimator needs >= 256 bytes, got 100"),
        ([], ["--input", "ecg.csv", "--segment-len", "100"], "error: MCV estimator needs >= 256 bytes, got 100"),
        (
            [],
            ["--store", "store", "--input", "ecg.csv", "--segment-len", "200"],
            "error: --input segments of --segment-len 200 against stored segments of 300 samples",
        ),
        # the 8 s CSV holds 4000 samples, not one 5000-sample segment
        ([], ["--input", "ecg.csv", "--segment-len", "5000"], "analyze needs --store, or a segment from --input or --synthetic"),
    ],
    ids=["store-short-segments", "plain-short-segments", "reference-length", "plain-no-segments"],
)
def test_analyze_refuses_bad_input_before_the_battery(
    tmp_path, monkeypatch, csv_file, encrypt_args, analyze_args, message, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["encrypt", "--input", "ecg.csv", "--store", "store", *encrypt_args]) == 0
    capsys.readouterr()

    def reached(*args, **kwargs):
        raise AssertionError("analyze ran the battery on input it refuses")

    monkeypatch.setattr(cli.analysis, "analyze_corpus", reached)
    assert main(["analyze", "--output", "out/rep", *analyze_args]) == 1
    assert message in capsys.readouterr().err
    assert not Path("out").exists()


def test_encrypt_rerun_with_same_seed_is_refused(tmp_path, csv_file, capsys):
    # Same seed and stream means the same key_ids; a second run must not
    # replace the records while the first run's keys stay in keys.txt.
    store = tmp_path / "store"
    assert main(["encrypt", "--input", str(csv_file), "--store", str(store), "--seed", "3"]) == 0
    keys = (store / "stream0" / "keys.txt").read_bytes()
    records = {p.name: p.read_bytes() for p in (store / "stream0").glob("seg_*.rec")}
    rc = main(["encrypt", "--synthetic", "15", "--store", str(store), "--seed", "3"])
    assert rc == 1
    assert "already stored in stream stream0" in capsys.readouterr().err
    assert (store / "stream0" / "keys.txt").read_bytes() == keys
    assert {p.name: p.read_bytes() for p in (store / "stream0").glob("seg_*.rec")} == records

    original = np.loadtxt(csv_file, skiprows=1)
    fs = FileStore(store)
    for i in fs.record_indices("stream0"):
        record = fs.get_record("stream0", i)
        got = decrypt(record, fs.get_key("stream0", record.key_id)).samples
        ref = original[i * 300 : (i + 1) * 300]
        half_step = (ref.max() - ref.min()) / 510
        assert np.max(np.abs(got - ref)) <= half_step * (1 + 1e-9)


def test_stream_malformed_csv_exits_1_with_its_line(tmp_path, bounded, bad_csv, capsys):
    path, _ = bad_csv("oops")
    store = tmp_path / "store"
    argv = ["stream", "--input", str(path), "--column", "ecg", "--store", str(store), "--segments", "70"]
    assert bounded(lambda: main(argv)) == 1
    assert "error: line 20002: non-numeric value 'oops'" in capsys.readouterr().err
    # the 66 segments before the bad row stay in the store
    assert FileStore(store).record_indices("stream0") == list(range(66))


def test_encrypt_prints_its_count_and_core_encrypt_timing(tmp_path, csv_file, capsys):
    store = tmp_path / "store"
    assert main(["encrypt", "--input", str(csv_file), "--store", str(store)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == f"encrypted 13 segments -> {store}/stream0"
    assert re.fullmatch(r"per-segment core encrypt: median \d+\.\d{4} ms, p99 \d+\.\d{4} ms", lines[1])
    assert len(lines) == 2 and captured.err == ""


# A timing number as encrypt, stream's table and stream --json print it,
# with the padding of its table cell: a masked cell keeps its width.
_TIMING = re.compile(r"(?:\d+(?:\.\d+)?e-\d+|\d+\.\d+)(?: {2,})?")
CLEAN_RUN = """\
encrypted 5 segments -> store/stream0
per-segment core encrypt: median T ms, p99 T ms
mode=DIRECT segments=4 errors=0
stage      median_ms   p99_ms      mean_ms
encrypt_s  T           T           T
store_s    T           T           T
decrypt_s  T           T           T
total_s    T           T           T
distinct params: biometric=4 stored=4
mode=DIRECT segments=4 errors=0
stage      median_ms   p99_ms      mean_ms
encrypt_s  T           T           T
store_s    T           T           T
decrypt_s  T           T           T
total_s    T           T           T
distinct params: biometric=4 stored=4
{
  "mode": "DIRECT",
  "segments": 4,
  "errors": 0,
  "encrypt_s": {
    "median": T,
    "p99": T,
    "mean": T
  },
  "store_s": {
    "median": T,
    "p99": T,
    "mean": T
  },
  "decrypt_s": {
    "median": T,
    "p99": T,
    "mean": T
  },
  "total_s": {
    "median": T,
    "p99": T,
    "mean": T
  },
  "distinct_biometric_params": 4,
  "distinct_stored_params": 4
}
"""


def test_clean_run_output_layout(tmp_path, monkeypatch, capsys):
    """The stdout of clean encrypt, stream and stream --json runs for a
    fixed seed, every timing number masked as T."""
    monkeypatch.chdir(tmp_path)
    assert main(["encrypt", "--synthetic", "5", "--seed", "3", "--store", "store"]) == 0
    assert main(["stream", "--segments", "4", "--seed", "3", "--store", "store", "--stream", "s1"]) == 0
    assert main(["stream", "--segments", "4", "--seed", "3", "--store", "store", "--stream", "s2", "--json"]) == 0
    captured = capsys.readouterr()
    masked = _TIMING.sub(lambda m: "T".ljust(len(m[0])) if m[0].endswith("  ") else "T", captured.out)
    assert masked == CLEAN_RUN and captured.err == ""


def test_encrypt_keeps_writing_past_a_failed_segment_as_stream_does(tmp_path, csv_file, monkeypatch, capsys):
    put_record = FileStore.put_record

    def failing(self, stream_id, index, record):
        if index == 2:
            raise StoreError("injected fault")
        put_record(self, stream_id, index, record)

    monkeypatch.setattr(FileStore, "put_record", failing)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["encrypt", "--input", str(csv_file), "--store", str(a)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == f"encrypted 12 segments -> {a}/stream0"
    assert captured.err.splitlines() == ["error: stream0[2]: StoreError: injected fault"]
    assert FileStore(a).record_indices("stream0") == [0, 1, *range(3, 13)]

    assert main(["stream", "--input", str(csv_file), "--segments", "13", "--store", str(b)]) == 1
    assert capsys.readouterr().err == captured.err
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)


def test_encrypt_leaves_no_key_row_for_a_record_it_failed_to_write(tmp_path, monkeypatch, capsys):
    put_record = FileStore.put_record

    def failing(self, stream_id, index, record):
        if index == 2:
            raise OSError("injected write fault")
        put_record(self, stream_id, index, record)

    monkeypatch.setattr(FileStore, "put_record", failing)
    assert main(["encrypt", "--synthetic", "5", "--store", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: stream0[2]: OSError: injected write fault"]
    store = FileStore(tmp_path / "a")
    indices = store.record_indices("stream0")
    assert indices == [0, 1, 3, 4]
    rows = [line.split()[0] for line in (tmp_path / "a" / "stream0" / "keys.txt").read_text().splitlines()]
    assert rows == [store.get_record("stream0", i).key_id.hex() for i in indices]


@pytest.mark.parametrize("command", [["encrypt"], ["stream", "--segments", "4"]])
def test_a_model_of_another_segment_length_is_refused_before_any_work(
    tmp_path, trained_model, command, capsys
):
    model, _ = trained_model
    path = tmp_path / "m.hmlp"
    model.save(path)
    store = tmp_path / "store"
    # --input names no file: the model is refused before the input is read
    argv = [*command, "--mode", "ml", "--model", str(path), "--segment-len", "200",
            "--input", str(tmp_path / "missing.csv"), "--store", str(store)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: --model takes segments of 300 samples, got --segment-len 200"]
    assert captured.out == "" and not store.exists()


def _flat_csv(path, flat):
    """Six 300-sample segments of the CSV at path; those numbered in flat
    hold the constant 0.25, as a lead-off stretch of ECG would."""
    wave = synthetic_ecg_wave(3.6, 500.0, 72.0, 0.012, seed=55)[:1800]
    for i in flat:
        wave[i * 300 : (i + 1) * 300] = 0.25
    path.write_text("value\n" + "".join(f"{v!r}\n" for v in wave.tolist()))
    return path


@pytest.mark.parametrize("store_mode", [True, False], ids=["store", "plain"])
def test_analyze_leaves_a_flat_segment_out_of_correlation_and_flatness(tmp_path, store_mode, capsys):
    csv_path = _flat_csv(tmp_path / "flat.csv", [2])
    segments = list(pipeline.ingest_csv(csv_path))
    if store_mode:
        store = FileStore(tmp_path / "store")
        assert main(["encrypt", "--input", str(csv_path), "--store", str(store.root)]) == 0
        records = [store.read("stream0", i)[0] for i in range(6)]
        segments = cipher.decrypt_batch(records, [store.read("stream0", i)[1] for i in range(6)])
        blocks = [np.frombuffer(r.ciphertext, dtype=np.uint8) for r in records]
        source = ["--store", str(store.root)]
    else:
        blocks = [cipher.quantize(s).bytes for s in segments]
        source = ["--input", str(csv_path)]
    prefix = tmp_path / "rep"
    assert main(["analyze", *source, "--output", str(prefix)]) == 0
    report = json.loads(Path(f"{prefix}_report.json").read_text())

    def defined_mean(statistic, *columns):
        values = []
        for args in zip(*columns):
            try:
                values.append(statistic(*args))
            except UndefinedStatisticError:
                pass
        return float(np.mean(values)), len(values)

    correlation, n = defined_mean(analysis.pearson_correlation, [s.samples for s in segments], blocks)
    assert n == 5 and report["pearson_correlation"].hex() == correlation.hex()
    flatness, n = defined_mean(analysis.spectral_flatness, blocks)
    assert n == (6 if store_mode else 5) and report["spectral_flatness"].hex() == flatness.hex()


@pytest.mark.parametrize(
    "store_mode, message",
    [(True, "error: correlation undefined for constant input"), (False, "error: flatness undefined for constant signal")],
    ids=["store", "plain"],
)
def test_analyze_of_an_all_flat_corpus_fails(tmp_path, store_mode, message, capsys):
    csv_path = _flat_csv(tmp_path / "flat.csv", range(6))
    source = ["--input", str(csv_path)]
    if store_mode:
        assert main(["encrypt", *source, "--store", str(tmp_path / "store")]) == 0
        source = ["--store", str(tmp_path / "store")]
    capsys.readouterr()
    assert main(["analyze", *source, "--output", str(tmp_path / "rep")]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
