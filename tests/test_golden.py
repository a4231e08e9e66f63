"""Byte-identity of CLI outputs for a fixed seed.

Pins sha256 digests of what `train`, `encrypt`, `stream`, `analyze`,
`attack` and `decrypt` write for a small seeded corpus: the `.hmlp`
model, every store file (records and keys.txt), every analyze output
except the wall-clock `timing` fields, the two `compare.*` lines of
`analyze --compare`, the attack tables and the decrypted CSV, whose
quality lines against its reference are pinned as text. A refactor that
keeps these digests keeps model files, ciphertext, key files and report
values bit-identical.

The model trained here and the ML-mode store it keys go through BLAS
matrix products; their digests hold on one machine and numpy build. The
other encrypt, stream, attack and decrypt digests involve no BLAS, and
analyze takes its inner products with numpy's own loop (analysis._dot),
so the analyze digests hold for any BLAS thread count.
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
    "train-model": "c2d6b4a9e2e7e85c2675c25bf0b7aba1d43f4fa5bf1c88b0931129437561fe5b",
    "stream-direct": "eab7e317b4344bbac03ad885314927d5c5165f6cba469d342c37c0d482bdf49b",
    "analyze-store": "c497cdb278a9a651e85efe070ffc7b85f5fa9cb8a9457141b4eee916fdc0482c",
    "analyze-stream-store": "d4b1183b73ffd1e71751d7a20a3b323c488813fdc1d499e0f81e4b088342eec1",
    "analyze-store-reference": "1f80450ceceb52fdc5ce4eb37826b5864ac5783009f32e3435bf2b5d08f0a969",
    "analyze-plain": "118b73a041cedcf35e5d977cc3bb55e309e78543277466fbbc27be988fb7a8b6",
    "analyze-compare": "2e969d67a2f423120d0d604d5fa84e37446bebdc3f7b580ad83745e8e22fef31",
    "attack-noise-uniform": "c9dd462537bccfc3c5dbf5da0452d735af5700573b14cd7044b36196d8895e76",
    "attack-occlusion": "07e25e4dfa9316599ab5aa4073d19d88dbde2d33bfcbaa32389c0d2c23e3c0fb",
}

# analyze and attack over stores of 3 streams x 50 segments, more rows than
# two chunks of a batched decrypt or key derivation.
LARGE_DIGESTS = {
    "analyze-large": "fdb6336a08d090e0ae2555948875a52aa519f0bf3fe411620358dd183691f923",
    "attack-large-noise-uniform": "3797909817b1b64764ada1bb0cf2bf0674196b756fdbc7d9ca5ebcb48a91659f",
    "attack-large-occlusion": "e85250db8139b420eaedd920f6c659e486c7dfdaf129945129657fd40f0ba55e",
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
    _run("stream", "--store", stream_store, "--segments", 10, "--seed", 5)

    out = {
        "encrypt-direct": _tree_digest(store),
        "encrypt-ml": _tree_digest(ml_store),
        "train-model": hashlib.sha256(model.read_bytes()).hexdigest(),
        "stream-direct": _tree_digest(stream_store),
    }
    for name, argv in (
        ("analyze-store", ["--store", store]),
        ("analyze-stream-store", ["--store", stream_store]),
        ("analyze-store-reference",
         ["--store", store, "--stream", "stream0", "--input", csv, "--column", "ecg"]),
        ("analyze-plain", ["--input", csv, "--column", "ecg"]),
    ):
        prefix = tmp / name / "out"
        _run("analyze", *argv, "--output", prefix)
        out[name] = _analysis_digest(prefix)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        _run("analyze", "--store", store, "--compare", stream_store, "--output", tmp / "compare" / "out")
    compare = [l for l in printed.getvalue().splitlines(True) if l.startswith("compare.")]
    assert [l.split()[0] for l in compare] == ["compare.chi_squared", "compare.js_divergence"]
    out["analyze-compare"] = hashlib.sha256("".join(compare).encode()).hexdigest()
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
    store = tmp / "large"
    for k in range(3):
        _run("encrypt", "--synthetic", 50, "--store", store, "--stream", f"dev{k}",
             "--salt-device-id", f"dev{k}", "--seed", 20 + k)
    prefix = tmp / "analyze-large" / "out"
    _run("analyze", "--store", store, "--output", prefix)
    out = {"analyze-large": _analysis_digest(prefix)}
    for name, kind, sweep in (
        ("attack-large-noise-uniform", "noise-uniform", "0,1,4,16"),
        ("attack-large-occlusion", "occlusion", "0.05,0.25"),
    ):
        table = tmp / f"{name}.tsv"
        _run("attack", "--store", store, "--kind", kind, "--sweep", sweep,
             "--seed", 9, "--output", table)
        out[name] = hashlib.sha256(table.read_bytes()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(LARGE_DIGESTS))
def test_large_store_output_is_byte_identical(large_digests, name):
    assert large_digests[name] == LARGE_DIGESTS[name]


# decrypt of one 70-record stream, more records than two chunks of a
# batched decrypt: the sha256 of the CSV it writes.
DECRYPT_DIGESTS = {
    "decrypt-70": "bb2fe87d4f50c045f5d6581c30cbb41185020c68ec82237b089635a775380538",
}

# analyze's fidelity lines for the same store against its CSV
DECRYPT_QUALITY = [
    "quality.mse 1.2845569674171745e-06",
    "quality.psnr_db 58.912466309178207",
    "quality.mae 0.00098049745842390332",
]


@pytest.fixture(scope="module")
def decrypt_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden-decrypt")
    wave = synthetic_ecg_wave(70 * 300 / 500.0, 500.0, 66.0, 0.015, seed=43)
    csv = tmp / "ecg.csv"
    csv.write_text("ecg\n" + "".join(f"{v!r}\n" for v in wave.tolist()))
    store = tmp / "store"
    _run("encrypt", "--input", csv, "--column", "ecg", "--store", store, "--seed", 6)
    plain = tmp / "decrypt-70.csv"
    _run("decrypt", "--store", store, "--output", plain)
    prefix = tmp / "analyze" / "out"
    _run("analyze", "--store", store, "--input", csv, "--column", "ecg", "--output", prefix)
    quality = [l for l in Path(f"{prefix}_report.txt").read_text().splitlines() if l.startswith("quality.")]
    return {"decrypt-70": hashlib.sha256(plain.read_bytes()).hexdigest()}, quality


@pytest.mark.parametrize("name", sorted(DECRYPT_DIGESTS))
def test_decrypt_output_is_byte_identical(decrypt_outputs, name):
    assert decrypt_outputs[0][name] == DECRYPT_DIGESTS[name]


def test_decrypt_quality_is_identical(decrypt_outputs):
    assert decrypt_outputs[1] == DECRYPT_QUALITY
