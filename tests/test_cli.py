import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hecg import HAVE_COMPILED, attacks, backend_name, cipher, cli
from hecg.analysis import AnalysisReport
from hecg.cipher import decrypt
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
    assert (
        main(
            [
                "decrypt",
                "--store",
                str(store),
                "--output",
                str(out_csv),
                "--report",
                "--input",
                str(csv_file),
            ]
        )
        == 0
    )
    report = capsys.readouterr().out
    mse = float([line for line in report.splitlines() if line.startswith("mse ")][0].split()[1])
    assert mse <= 1e-5

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


def _report_lines(text: str, names) -> dict:
    return {k: v for k, v in (l.split(" ", 1) for l in text.splitlines() if " " in l) if k in names}


def test_decrypt_report_matches_analyze_quality(tmp_path, csv_file, capsys):
    store = tmp_path / "store"
    main(["encrypt", "--input", str(csv_file), "--store", str(store)])
    assert main(["decrypt", "--store", str(store), "--output", str(tmp_path / "back.csv"),
                 "--report", "--input", str(csv_file)]) == 0
    decrypt_report = _report_lines(capsys.readouterr().out, ("mse", "psnr_db", "mae"))
    prefix = tmp_path / "ref"
    assert main(["analyze", "--store", str(store), "--stream", "stream0",
                 "--input", str(csv_file), "--output", str(prefix)]) == 0
    capsys.readouterr()
    quality = _report_lines(
        Path(f"{prefix}_report.txt").read_text(), ("quality.mse", "quality.psnr_db", "quality.mae")
    )
    assert len(decrypt_report) == 3
    assert decrypt_report == {k.removeprefix("quality."): v for k, v in quality.items()}


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


def test_decrypt_report_short_reference_fails(tmp_path, csv_file, capsys):
    store = tmp_path / "store"
    main(["encrypt", "--input", str(csv_file), "--store", str(store)])
    short = tmp_path / "short.csv"
    short.write_text("".join(csv_file.read_text().splitlines(True)[: 1 + 5 * 300]))
    rc = main(["decrypt", "--store", str(store), "--output", str(tmp_path / "back.csv"),
               "--report", "--input", str(short)])
    assert rc == 1
    assert "error: 13 recovered segments for 5 reference segments" in capsys.readouterr().err
    assert not (tmp_path / "back.csv").exists()


def test_decrypt_report_without_input_fails(tmp_path, csv_file, capsys):
    store = tmp_path / "store"
    main(["encrypt", "--input", str(csv_file), "--store", str(store)])
    rc = main(["decrypt", "--store", str(store), "--output", str(tmp_path / "back.csv"),
               "--report"])
    assert rc == 1
    assert "--report needs --input" in capsys.readouterr().err
    assert not (tmp_path / "back.csv").exists()


def test_analyze_short_reference_fails(tmp_path, csv_file, capsys):
    store = tmp_path / "store"
    main(["encrypt", "--input", str(csv_file), "--store", str(store)])
    short = tmp_path / "short.csv"
    short.write_text("".join(csv_file.read_text().splitlines(True)[: 1 + 5 * 300]))
    capsys.readouterr()
    prefix = tmp_path / "out" / "ref"
    rc = main(["analyze", "--store", str(store), "--input", str(short), "--output", str(prefix)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: 13 recovered segments for 5 reference segments" in captured.err
    assert captured.out == ""
    assert not prefix.parent.exists()


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
    rows, decrypts = [], []
    derive, decrypt_all = cipher.derive_key_material_batch, cipher.decrypt_batch

    def counting(params_list, *args, **kwargs):
        rows.append(len(params_list))
        return derive(params_list, *args, **kwargs)

    def recorded(records, *args, **kwargs):
        decrypts.append(len(records))
        return decrypt_all(records, *args, **kwargs)

    for module in (cipher, attacks, cli):
        monkeypatch.setattr(module, "derive_key_material_batch", counting)
    for module in (cipher, cli):
        monkeypatch.setattr(module, "decrypt_batch", recorded)
    assert main(["attack", "--store", str(store), "--sweep", "0,4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert sum(rows) == 70
    assert decrypts == []


def test_stream_refuses_synthetic(tmp_path, capsys):
    # stream takes its segment count from --segments only
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exc:
        main(["stream", "--synthetic", "3", "--store", str(store)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --synthetic 3" in capsys.readouterr().err
    assert not store.exists()


def test_train_determinism_and_model_file(tmp_path, capsys):
    model_a = tmp_path / "a.hmlp"
    model_b = tmp_path / "b.hmlp"
    args = ["--synthetic", "60", "--epochs", "30", "--seed", "3"]
    assert main(["train", "--output", str(model_a)] + args) == 0
    assert main(["train", "--output", str(model_b)] + args) == 0
    capsys.readouterr()
    assert model_a.read_bytes() == model_b.read_bytes()


def test_train_undersized_dataset(tmp_path, capsys):
    rc = main(["train", "--output", str(tmp_path / "m.hmlp"), "--synthetic", "5"])
    assert rc == 1
    assert "needs >= 10" in capsys.readouterr().err


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


def test_stream_compare_modes(tmp_path, capsys):
    model = tmp_path / "m.hmlp"
    main(["train", "--output", str(model), "--synthetic", "60", "--epochs", "40", "--seed", "2"])
    capsys.readouterr()
    rc = main(
        [
            "stream",
            "--store",
            str(tmp_path / "store"),
            "--segments",
            "6",
            "--model",
            str(model),
            "--compare-modes",
            "--noise-amplitude",
            "0.03",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "--- mode direct ---" in out
    assert "--- mode ml ---" in out
    assert out.count("mean ciphertext entropy") == 2


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


def test_benchmark_runs(capsys):
    assert main(["benchmark"]) == 0
    out = capsys.readouterr().out
    assert "logistic_fill" in out
    assert "encrypt (300-sample segment" in out
    assert "get_key" in out
    assert "key material (1000 seeded" in out
    assert "spectral flatness (1000 seeded" in out
    assert "autocorrelation (1200 x 300 seeded bytes, lag 50)" in out
    assert "ingest_csv (1000-segment seeded CSV)" in out
    assert "count_peaks (1000 seeded" in out
    assert "predict_params (1000 seeded" in out
    assert "quantize (1000 seeded" in out
    assert "noise_attack (1000 seeded" in out


def test_backend_is_pure_python():
    # perfbench records both in its run metadata
    assert backend_name() == "pure-python"
    assert HAVE_COMPILED is False


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "hecg.cli", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert "encrypt" in out.stdout and "benchmark" in out.stdout


def test_env_var_default_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HECG_SEED", "17")
    store_a = tmp_path / "a"
    assert main(["encrypt", "--synthetic", "3", "--store", str(store_a)]) == 0
    monkeypatch.delenv("HECG_SEED")
    store_b = tmp_path / "b"
    assert main(["encrypt", "--synthetic", "3", "--store", str(store_b), "--seed", "17"]) == 0
    capsys.readouterr()
    a = (store_a / "stream0" / "seg_000000.rec").read_bytes()
    b = (store_b / "stream0" / "seg_000000.rec").read_bytes()
    assert a == b


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


def test_stream_compare_modes_refuses_before_writing(tmp_path, capsys):
    # The ml store already holds the stream: the direct run must not start.
    model = tmp_path / "m.hmlp"
    main(["train", "--output", str(model), "--synthetic", "20", "--epochs", "2", "--seed", "2"])
    store = tmp_path / "store"
    assert main(["stream", "--segments", "3", "--store", str(store / "ml")]) == 0
    capsys.readouterr()
    rc = main(["stream", "--segments", "3", "--store", str(store), "--model", str(model),
               "--compare-modes"])
    assert rc == 1
    assert "3 records already stored in stream stream0" in capsys.readouterr().err
    assert not list((store / "direct").rglob("*"))


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
