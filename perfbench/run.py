#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of hecg.

    python3 perfbench/run.py --workload {stream,audit,ingest} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; hecg is imported from its ``src``
directory and nothing is installed. The workloads are described in
``workloads.py``. A run:

1. sets up five times (a fresh interpreter importing hecg, plus the
   workload's seeded inputs) and reports the median as ``setup_s``;
2. repeats the timed job, each time on fresh output directories, until
   the jobs have taken ``--seconds`` in total. Every job is bounded by a
   wall-clock limit, and one that exceeds it counts as failed;
3. checks the outputs of the first and the last job (and of the first
   traced one) through the public API: a semantic digest that must be
   the same for every job checked, and a decrypt roundtrip within half a
   quantization step.

With ``--trace 0`` it reports the end-to-end metrics, medians over the
jobs. ``seg_interval_p90_ms`` is the 90th percentile of the gap between
successive per-segment completions: calls of the classifier hook
(stream), of ``FileStore.put_key`` (ingest) and of ``noise_attack``
(audit: one call per segment and attack level). The boundary is one
homogeneous per-segment step, because percentiles of gaps mixed from
several loops jump between their modes. In repeat runs the p99 of the
stream's gaps (it follows thread scheduling) and the p50 on ingest and
audit swung by close to or more than the largest allowed bound, so p90
is the one reported; the detail line has p50, p90 and p99 per job. For
audit, ``seg_per_s`` counts store segments over the analyze plus attack
wall.

With ``--trace 1`` untraced and traced jobs alternate. The traced jobs
record spans (see ``tracer.py``) and give the per-layer metrics, medians
over the traced jobs; the untraced ones give ``trace.overhead_pct`` and
must produce the same digests. The spans of the first traced job are
written to ``perfbench/out/trace-<workload>-seed<seed>.tsv.gz``.

The whole run is pinned to one CPU (see ``pin_to_one_cpu``), and every
set-up, job and check runs on one worker thread (see ``Worker``).

Stores and other outputs live under ``perfbench/.work`` inside the
checkout, each set-up and job in a directory of its own that ext4 is
asked to place in its own block group (see ``spread_subdirs``). They are
removed at the end of the run. The last line of standard output is the
result as one JSON object; the line before it holds the run metadata
and per-job detail. The exit code is 0 only if every check passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import queue
import resource
import secrets
import shutil
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / "perfbench" / ".work"
TRACE_DIR = ROOT / "perfbench" / "out"

SETUP_REPS = 5
# CPUs this process may use before the command pins it to one.
NPROC = len(os.sched_getaffinity(0))
JOB_LIMIT_S = 60.0
# Every run must end within 180 s.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "seg_per_s": "seg/s",
    "seg_interval_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

TRACED = (
    "pipeline.ingest_csv",
    "mlkey.predict_params",
    "chaos.apply_salt",
    "chaos.iterate_logistic",
    "cipher.derive_key_material",
    "cipher.quantize",
    "cipher.apply_keystream",
    "cipher.remove_keystream",
    "cipher.encrypt",
    "cipher.decrypt",
    "cipher.EncryptedRecord.to_bytes",
    "cipher.EncryptedRecord.from_bytes",
    "pipeline.FileStore.put_record",
    "pipeline.FileStore.put_key",
    "pipeline.FileStore.get_record",
    "pipeline.FileStore.get_key",
    "pipeline.default_classifier",
    "pipeline.run_pipeline",
    "analysis.analyze_corpus",
    "analysis.spectral_flatness",
    "analysis.MinEntropySummary.from_segments",
    "attacks.attack_sweep",
    "attacks.noise_attack",
    "cli.main",
)
# Spans whose self time is reported under another name: the CLI's own work
# (argument handling, loops, report and series writing), and the consumer
# thread's time outside its traced calls, which is mostly waiting for the
# producer.
RENAMED = {"cli.main": "cli.self_ms", "pipeline.run_pipeline": "pipeline.consumer_wait_ms"}
COUNTED = ("cipher.derive_key_material", "pipeline.FileStore.get_key")

PER_LAYER = {
    **{RENAMED.get(n, f"{n}.self_ms"): "ms" for n in TRACED},
    **{f"{n}.calls": "count" for n in COUNTED},
    "pipeline.FileStore.get_key.growth": "ratio",
    "cli.analyze.seg_per_s": "seg/s",
    "cli.attack.seg_per_s": "seg/s",
    "store.bytes": "bytes",
    "store.files": "count",
    "trace.overhead_pct": "%",
}


class JobTimeout(Exception):
    pass


class Worker(threading.Thread):
    """A daemon thread that runs the bounded calls of a run one after another.

    One thread for all of them, not one per call: glibc gives a new thread
    a fresh malloc arena when the arena of the thread before it has not
    been released yet, and that race moved the audit's peak RSS between
    58 and 68 MB from run to run.
    """

    def __init__(self):
        super().__init__(name="perfbench-job", daemon=True)
        self.calls = queue.SimpleQueue()
        self.start()

    def run(self):
        while True:
            fn, box, done = self.calls.get()
            try:
                box["value"] = fn()
            except BaseException as exc:  # handed to the caller's thread
                box["error"] = exc
            done.set()
            del fn, box, done  # free the finished job before waiting for the next


_worker = None


def bounded(fn, limit_s: float):
    """fn() on the worker thread; raises JobTimeout if it runs past limit_s.

    A call that overruns is abandoned, not stopped, and its worker with it:
    the run reports it as failed and ends, and a later call starts a new
    worker.
    """
    global _worker
    if _worker is None:
        _worker = Worker()
    box, done = {}, threading.Event()
    _worker.calls.put((fn, box, done))
    if not done.wait(max(limit_s, 0.0)):
        _worker = None
        raise JobTimeout(f"still running after {limit_s:.1f} s")
    if "error" in box:
        raise box["error"]
    return box.get("value")


def median(values):
    s = sorted(values)
    if not s:
        return 0.0
    mid = len(s) // 2
    return float(s[mid]) if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports hecg from the checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import hecg"], cwd=ROOT, env=env, check=True, timeout=60, capture_output=True
    )
    return time.perf_counter() - t0


def spread_subdirs(path: Path) -> bool:
    """Ask ext4 to place each new subdirectory of path in its own block group.

    This sets the Orlov "top of hierarchy" flag (chattr +T). On ext4 without
    a journal, allocating an inode skips every inode of the group freed in
    the last minute or more, so creating files where many were just deleted
    costs up to ten times more: 270-500 us against 30-45 us per file on a
    2-vCPU VM with such a root filesystem. Each job deletes its store, so the
    record-file create cost would otherwise depend on the benchmark's own
    history. Returns False where the flag is not supported.
    """
    fs_ioc_getflags, fs_ioc_setflags, fs_topdir_fl = 0x80086601, 0x40086602, 0x00020000
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            flags = struct.unpack("i", fcntl.ioctl(fd, fs_ioc_getflags, struct.pack("i", 0)))[0]
            fcntl.ioctl(fd, fs_ioc_setflags, struct.pack("i", flags | fs_topdir_fl))
        finally:
            os.close(fd)
    except OSError:
        return False
    return True


def pin_to_one_cpu() -> int:
    """Move every thread of this process onto one CPU; returns that CPU.

    hecg runs Python code under the GIL, so its threads never run at once.
    Spread over two vCPUs, though, the stream's producer and consumer hand
    the GIL across CPUs for every segment, and each handoff waits for the
    other vCPU to wake. On a 2-vCPU VM of a shared host, up to a quarter
    of the stream's per-segment gaps took 5-20 ms, that share followed
    the host's load, and the stream's throughput swung by 30% between
    runs. Pinned to one CPU, under 1% of the gaps exceeded 5 ms and the
    stream ran 1.6-1.8 times as fast. The CPU is the highest one allowed,
    because that VM routed its device interrupts to CPU 0. Threads
    started later (the worker, the pipeline's producer, the subprocesses)
    inherit the mask.
    """
    cpu = max(os.sched_getaffinity(0))
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:  # the thread has ended
            pass
    return cpu


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding path, from /proc/self/mountinfo."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, right.split()[0]
    except OSError:
        pass
    return kind


def metadata(hecg, work: Path) -> dict:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hecg").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            sha.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    return {
        "commit": commit,
        "source_sha256": sha.hexdigest(),
        "backend": hecg.backend_name(),
        "backend_note": None
        if hecg.HAVE_COMPILED
        else "compiled extension absent: compiled-backend numbers are unverified in this run",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "store_dir": work.relative_to(ROOT).as_posix(),
        "store_fs": fs_type(work),
    }


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """One benchmark run. Returns (result, detail): result is the final JSON line."""
    import hecg
    import workloads
    from tracer import Patches, Tracer

    start = time.monotonic()
    deadline = start + DEADLINE_S
    sizes = sizes or workloads.Sizes()
    # Directory names feed ext4's choice of block group, so each is new.
    token = secrets.token_hex(4)
    work = WORK_ROOT / f"{name}-{token}"
    work.mkdir(parents=True)
    spread = spread_subdirs(work)
    meta = {**metadata(hecg, work), "store_subdirs_spread": spread}
    detail = {"workload": name, "seed": seed, "trace": int(trace), "meta": meta}
    errors = detail["errors"] = []

    def remaining():
        return min(JOB_LIMIT_S, deadline - time.monotonic())

    try:
        # --- set-up, several times; the last one is used. The earlier ones
        # stay on disk until the run ends, so that no set-up creates its
        # files right after the run deleted some (see spread_subdirs).
        setup_s = []
        for k in range(SETUP_REPS):
            candidate = workloads.WORKLOADS[name](seed, sizes)
            where = work / f"setup{k}-{token}"
            where.mkdir()
            t0 = time.perf_counter()
            detail.setdefault("import_s", []).append(fresh_import_seconds())
            bounded(lambda: candidate.setup(where), remaining())
            setup_s.append(time.perf_counter() - t0)
            workloads.flush_tree(where)
            wl = candidate
        failed = bounded(wl.check_setup, remaining())
    except Exception as exc:  # noqa: BLE001 - any set-up failure ends the run
        shutil.rmtree(work, ignore_errors=True)
        errors.append(f"set-up: {type(exc).__name__}: {exc}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, detail
    detail["setup_s"] = setup_s

    # --- timed jobs
    ticker = workloads.Ticker()
    ticks = Patches()
    for point in wl.tick_points:
        ticks.wrap(point, ticker.make)
    tracer = Tracer(TRACED) if trace else None
    jobs, measured, digests = [], 0.0, {}

    def verify(job, out):
        nonlocal failed
        try:
            digest, bad = bounded(lambda: wl.verify(out, job["result"]), remaining())
            job["store"] = workloads.tree_size(wl.store_dir(out))
        except Exception as exc:  # noqa: BLE001 - a failed check fails the job
            errors.append(f"check of job {job['index']}: {type(exc).__name__}: {exc}")
            digest, bad = None, job["segments"]
        digests[job["index"]] = digest
        if digest != digests[min(digests)]:
            errors.append(f"job {job['index']} digest differs from job {min(digests)}")
            bad = job["segments"]
        failed += bad

    try:
        while True:
            index = len(jobs)
            traced = trace and index % 2 == 1
            out = work / f"job{index}-{token}"
            out.mkdir()
            ticker.times = []
            patches = Patches()
            if traced:
                tracer.reset()
                detail["names_not_found"] = tracer.install(patches)
            job = {"index": index, "traced": traced, "segments": wl.n}
            t0 = time.perf_counter()
            try:
                result = bounded(lambda: wl.job(out, ticker), remaining())
                job.update(result=result, segments=result.segments, walls=result.walls)
                failed += result.failed
            except JobTimeout as exc:
                errors.append(f"job {index}: timed out: {exc}")
                failed += wl.n
                job["walls"] = {"job": time.perf_counter() - t0}
                jobs.append(job)
                break
            except Exception as exc:  # noqa: BLE001 - a failed job is counted, the run goes on
                errors.append(f"job {index}: {type(exc).__name__}: {exc}")
                failed += wl.n
                job["walls"] = {"job": time.perf_counter() - t0}
            finally:
                patches.undo()
            measured += job["walls"]["job"]
            job["intervals_ns"] = np.diff(np.asarray(ticker.times, dtype=np.int64))
            if traced:
                job["spans"] = tracer.summary()
                if index == 1:
                    TRACE_DIR.mkdir(parents=True, exist_ok=True)
                    tracer.write(TRACE_DIR / f"trace-{name}-seed{seed}.tsv.gz")
                tracer.reset()
            jobs.append(job)
            enough = measured >= seconds and (not trace or len(jobs) % 2 == 0)
            # Leave time for one more job, with a margin, and the last check.
            last = enough or time.monotonic() + 2.5 * job["walls"]["job"] > deadline
            if "result" in job and (index == 0 or last or traced and index == 1):
                verify(job, out)
            shutil.rmtree(out, ignore_errors=True)
            if last:
                break
    finally:
        ticks.undo()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(j["segments"] for j in jobs)
    detail["jobs"] = [
        {
            "traced": j["traced"],
            "walls": j["walls"],
            "interval_ms": {f"p{q}": percentile_ms(j, q) for q in (50, 90, 99)},
            "digest": digests.get(j["index"]),
        }
        for j in jobs
    ]
    detail["failed_ratio"] = failed / attempted if attempted else 1.0
    plain = [j for j in jobs if not j["traced"] and "result" in j]
    if trace:
        metrics = per_layer(wl, jobs, plain)
    else:
        metrics = end_to_end(wl, plain, setup_s)
    detail["commands"] = commands_per_s(wl, plain)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, detail


def percentile_ms(job, q):
    """q-th percentile of a job's per-segment completion gaps, or None."""
    gaps = job.get("intervals_ns", ())
    return float(np.percentile(gaps, q)) / 1e6 if len(gaps) else None


def end_to_end(wl, plain, setup_s) -> dict:
    def interval(q):
        return median(v for v in (percentile_ms(j, q) for j in plain) if v is not None)

    return {
        "setup_s": median(setup_s),
        "seg_per_s": median(wl.n / j["walls"]["job"] for j in plain),
        "seg_interval_p90_ms": interval(90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def commands_per_s(wl, plain) -> dict:
    """Store segments per wall second of each CLI command a job ran, if timed apart."""
    names = {k for j in plain for k in j["walls"] if k != "job"}
    return {k: median(wl.n / j["walls"][k] for j in plain) for k in sorted(names)}


def per_layer(wl, jobs, plain) -> dict:
    traced = [j for j in jobs if j["traced"] and "spans" in j]

    def over(fn):
        return median(fn(j["spans"]) for j in traced)

    def growth(spans):
        d = spans["pipeline.FileStore.get_key"]["durations_ns"].tolist()
        k = len(d) // 10
        return median(d[-k:]) / median(d[:k]) if k else 0.0

    out = {}
    for n in TRACED:
        out[RENAMED.get(n, f"{n}.self_ms")] = over(lambda s, n=n: s[n]["self_ms"])
    for n in COUNTED:
        out[f"{n}.calls"] = over(lambda s, n=n: s[n]["calls"])
    out["pipeline.FileStore.get_key.growth"] = over(growth)
    commands = commands_per_s(wl, plain)
    out["cli.analyze.seg_per_s"] = commands.get("analyze", 0.0)
    out["cli.attack.seg_per_s"] = commands.get("attack", 0.0)
    sizes = [j["store"] for j in jobs if "store" in j]
    out["store.bytes"], out["store.files"] = sizes[0] if sizes else (0, 0)
    # Untraced job 2k and traced job 2k+1 ran back to back; compare within pairs.
    walls = {j["index"]: j["walls"]["job"] for j in jobs if "result" in j}
    ratios = [walls[i] / walls[i - 1] for i in walls if i % 2 and i - 1 in walls]
    out["trace.overhead_pct"] = 100.0 * (median(ratios) - 1.0) if ratios else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["stream", "audit", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hecg
    except ImportError as exc:
        print(f"perfbench: cannot import hecg from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(hecg.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: hecg was imported from {hecg.__file__}, not this checkout", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    # A job abandoned inside a command keeps its captured output streams.
    stdout, stderr = sys.stdout, sys.stderr
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail["meta"]["pinned_cpu"] = cpu
    for message in detail["errors"]:
        print(f"perfbench: {message}", file=stderr)
    print(json.dumps({"detail": detail}), file=stdout)
    print(json.dumps(result), file=stdout, flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
