"""Byte-identity of CLI outputs for a fixed seed.

Pins sha256 digests of what `encrypt`, `stream`, `analyze`, `attack` and
`decrypt` write for a small seeded corpus: every store file (records and
keys.txt), every analyze output except the wall-clock `timing` fields,
the attack tables and the decrypted CSV with its quality report. A refactor that keeps these digests keeps ciphertext, key
files and report values bit-identical.

The ML-mode store depends on a model trained here, whose weights go
through BLAS matrix products; its digest holds on one machine and numpy
build, while the direct-mode digests involve no BLAS.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from hecg.cli import main
from hecg.pipeline import synthetic_ecg_wave

DIGESTS = {
    "encrypt-direct": "bdc4a8634240378d4901ed83141b7887282796486ad069236459d84ed63b9344",
    "encrypt-ml": "43b80655eaf0b653382083c52a4031e306e4e47860a7fb0dbb2c17ee6fc58506",
    "stream-direct": "56a0a412c075b29bb36e51d58e220e08b6dce7f7fd8dcdeb22f8d67198eca5c2",
    "analyze-store": "3936bcf52ba45f9e1e1afca7b829722ed27b06d286fd0efa432ba8cae229cd87",
    "analyze-store-burn-in": "ae222f2d4a7c32a32b09d835c10c4196641626ffa4606b8be2d9085def276307",
    "analyze-store-reference": "fc93996054144b16d09229130569f754c303593c6df8cd3fb711b3d009c4bb83",
    "analyze-plain": "fddd2b067dc8201c093ccaf07c382f96c68f63bd976bf991f19b260323bf6fd1",
    "attack-noise-uniform": "c9dd462537bccfc3c5dbf5da0452d735af5700573b14cd7044b36196d8895e76",
    "attack-occlusion": "07e25e4dfa9316599ab5aa4073d19d88dbde2d33bfcbaa32389c0d2c23e3c0fb",
}

# analyze and attack over stores of 3 streams x 50 segments, more rows than
# two chunks of a batched decrypt or key derivation.
LARGE_DIGESTS = {
    "analyze-large": "20cd134ff49d9e8bd71a6c5e83b2609cef65b4944fa7ea990e065bb8e2adbfae",
    "analyze-large-burn-in": "f4120640b7894a46ad877b93d5e4c0c2f8058420941e603fd0201b71583a70ec",
    "attack-large-noise-uniform": "3797909817b1b64764ada1bb0cf2bf0674196b756fdbc7d9ca5ebcb48a91659f",
    "attack-large-occlusion-burn-in": "03294344876473d34e7bfa560b78d372b364820c4400e9c73a2863ec9729e51d",
}


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def _tree_digest(root: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        sha.update(str(path.relative_to(root)).encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _analysis_digest(prefix: Path) -> str:
    """Every analyze output file, with the timing fields left out."""
    sha = hashlib.sha256()
    text = Path(f"{prefix}_report.txt").read_text()
    sha.update("".join(l for l in text.splitlines(True) if not l.startswith("timing.")).encode())
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    del report["timing"]
    sha.update(json.dumps(report, sort_keys=True).encode())
    for suffix in ("_min_entropy.json", "_histogram.tsv", "_autocorr.tsv", "_spectrum.tsv"):
        sha.update(Path(f"{prefix}{suffix}").read_bytes())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    wave = synthetic_ecg_wave(12 * 300 / 500.0, 500.0, 70.0, 0.012, seed=41)
    csv = tmp / "ecg.csv"
    csv.write_text("ecg\n" + "".join(f"{v!r}\n" for v in wave.tolist()))

    store = tmp / "store"
    _run("encrypt", "--input", csv, "--column", "ecg", "--store", store, "--seed", 3)
    _run("encrypt", "--synthetic", 10, "--store", store, "--stream", "dev2",
         "--salt-device-id", "dev2", "--seed", 4)
    model = tmp / "model.hmlp"
    _run("train", "--synthetic", 20, "--epochs", 5, "--hidden", "8", "--seed", 1, "--output", model)
    ml_store = tmp / "ml"
    _run("encrypt", "--synthetic", 10, "--store", ml_store, "--mode", "ml", "--model", model,
         "--seed", 2)
    stream_store = tmp / "stream"
    _run("stream", "--store", stream_store, "--segments", 10, "--seed", 5, "--burn-in", 3)

    out = {
        "encrypt-direct": _tree_digest(store),
        "encrypt-ml": _tree_digest(ml_store),
        "stream-direct": _tree_digest(stream_store),
    }
    for name, argv in (
        ("analyze-store", ["--store", store]),
        ("analyze-store-burn-in", ["--store", stream_store, "--burn-in", 3]),
        ("analyze-store-reference",
         ["--store", store, "--stream", "stream0", "--input", csv, "--column", "ecg"]),
        ("analyze-plain", ["--input", csv, "--column", "ecg"]),
    ):
        prefix = tmp / name / "out"
        _run("analyze", *argv, "--output", prefix)
        out[name] = _analysis_digest(prefix)
    for kind, sweep in (("noise-uniform", "0,1,4,16"), ("occlusion", "0.05,0.25")):
        table = tmp / f"{kind}.tsv"
        _run("attack", "--store", store, "--kind", kind, "--sweep", sweep, "--seed", 9,
             "--output", table)
        out[f"attack-{kind}"] = hashlib.sha256(table.read_bytes()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_is_byte_identical(digests, name):
    assert digests[name] == DIGESTS[name]


@pytest.fixture(scope="module")
def large_digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden-large")
    stores = {0: tmp / "large", 3: tmp / "large-burn-in"}
    for burn_in, store in stores.items():
        for k in range(3):
            _run("encrypt", "--synthetic", 50, "--store", store, "--stream", f"dev{k}",
                 "--salt-device-id", f"dev{k}", "--seed", 20 + k, "--burn-in", burn_in)
    out = {}
    for name, burn_in in (("analyze-large", 0), ("analyze-large-burn-in", 3)):
        prefix = tmp / name / "out"
        _run("analyze", "--store", stores[burn_in], "--burn-in", burn_in, "--output", prefix)
        out[name] = _analysis_digest(prefix)
    for name, kind, sweep, burn_in in (
        ("attack-large-noise-uniform", "noise-uniform", "0,1,4,16", 0),
        ("attack-large-occlusion-burn-in", "occlusion", "0.05,0.25", 3),
    ):
        table = tmp / f"{name}.tsv"
        _run("attack", "--store", stores[burn_in], "--kind", kind, "--sweep", sweep,
             "--seed", 9, "--burn-in", burn_in, "--output", table)
        out[name] = hashlib.sha256(table.read_bytes()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(LARGE_DIGESTS))
def test_large_store_output_is_byte_identical(large_digests, name):
    assert large_digests[name] == LARGE_DIGESTS[name]


# decrypt of one 70-record stream, more records than two chunks of a
# batched decrypt, with its --report lines (the line naming the output path
# left out). A store decrypted at its own burn-in gives the same plaintext
# at 0 and 3; at the wrong burn-in it gives pinned garbage.
DECRYPT_DIGESTS = {
    "decrypt-70": "cbb66a22482165411f8c1854642ccd3076cc8667cd6da06fcd0bfb8bedd2f811",
    "decrypt-70-burn-in": "cbb66a22482165411f8c1854642ccd3076cc8667cd6da06fcd0bfb8bedd2f811",
    "decrypt-70-wrong-burn-in": "3e6af1df58f58d4bbe2af74601730a363ba0f90142bfb23f960de84c2fe07e0b",
}


@pytest.fixture(scope="module")
def decrypt_digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden-decrypt")
    wave = synthetic_ecg_wave(70 * 300 / 500.0, 500.0, 66.0, 0.015, seed=43)
    csv = tmp / "ecg.csv"
    csv.write_text("ecg\n" + "".join(f"{v!r}\n" for v in wave.tolist()))
    stores = {burn_in: tmp / f"store-{burn_in}" for burn_in in (0, 3)}
    for burn_in, store in stores.items():
        _run("encrypt", "--input", csv, "--column", "ecg", "--store", store, "--seed", 6,
             "--burn-in", burn_in)
    out = {}
    for name, store_burn_in, burn_in in (
        ("decrypt-70", 0, 0),
        ("decrypt-70-burn-in", 3, 3),
        ("decrypt-70-wrong-burn-in", 3, 0),
    ):
        plain = tmp / f"{name}.csv"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            _run("decrypt", "--store", stores[store_burn_in], "--output", plain,
                 "--burn-in", burn_in, "--report", "--input", csv, "--column", "ecg")
        report = [l for l in stdout.getvalue().splitlines(True) if not l.startswith("decrypted ")]
        assert [l.split()[0] for l in report] == ["mse", "psnr_db", "mae"]
        sha = hashlib.sha256(plain.read_bytes())
        sha.update("".join(report).encode())
        out[name] = sha.hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(DECRYPT_DIGESTS))
def test_decrypt_output_is_byte_identical(decrypt_digests, name):
    assert decrypt_digests[name] == DECRYPT_DIGESTS[name]
