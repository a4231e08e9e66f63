"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs each workload once untraced and once traced, and checks the metric
names and units against BENCHMARK.json and the output digests. It also
pins the digest of a tiny set-up store, and checks that a hung job or a
wrong stored key is reported as a failure.
"""

import json
import math
import os
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hecg  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
# Ciphertext, ranges, key ids and stored keys of the tiny audit set-up store
# for SEED. Direct-mode keys involve no BLAS, so this is portable; it changes
# only if the cipher's output or the workload's inputs change.
AUDIT_STORE_DIGEST = "8a62fd84d8d265b09ff0590ab077c3abfa1b5a9fce3c6295c46b962047b335d2"


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_harness():
    assert units("end_to_end") == run.END_TO_END
    assert units("per_layer") == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_metric_with_equal_digests(name):
    plain, plain_detail = run.run(name, SEED, 0.0, False, sizes=workloads.TINY)
    traced, traced_detail = run.run(name, SEED, 0.0, True, sizes=workloads.TINY)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units(section)
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert traced_detail["names_not_found"] == []
    assert [j["traced"] for j in traced_detail["jobs"]] == [False, True]
    digests = {j["digest"] for d in (plain_detail, traced_detail) for j in d["jobs"]}
    assert len(digests) == 1 and None not in digests


def test_audit_store_is_byte_identical():
    where = run.WORK_ROOT / f"pinned-{os.getpid()}"
    where.mkdir(parents=True)
    try:
        audit = workloads.Audit(SEED, workloads.TINY)
        audit.setup(where)
        assert audit.check_setup() == 0
        assert audit.store_digest == AUDIT_STORE_DIGEST
    finally:
        shutil.rmtree(where)


# The producer thread's exception is the point of this test.
@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_hung_pipeline_is_a_failed_job(monkeypatch):
    # A malformed row kills the pipeline's producer thread before it sends
    # its stop sentinel, and run_pipeline then waits forever.
    write_csv = workloads.write_csv

    def malformed(path, wave):
        write_csv(path, wave)
        with open(path, "a") as fh:
            fh.write("not-a-number\n")

    monkeypatch.setattr(workloads, "write_csv", malformed)
    monkeypatch.setattr(run, "JOB_LIMIT_S", 2.0)
    result, detail = run.run("stream", SEED, 0.0, False, sizes=workloads.TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == workloads.TINY.stream_segments
    assert any("timed out" in e for e in detail["errors"])


def test_wrong_stored_key_fails_the_roundtrip(monkeypatch):
    put_key = hecg.FileStore.put_key

    def skewed(self, stream_id, key_id, params):
        put_key(self, stream_id, key_id, hecg.ChaoticParams(params.r, params.x0 * 0.999))

    monkeypatch.setattr(hecg.FileStore, "put_key", skewed)
    result, _ = run.run("ingest", SEED, 0.0, False, sizes=workloads.TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == workloads.TINY.ingest_segments
