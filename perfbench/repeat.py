#!/usr/bin/env python3
"""Repeat the benchmark over several seeds; report medians and quartile spreads.

    python3 perfbench/repeat.py --runs 10 [--workloads ingest stream audit]
        [--first-seed 1] [--trace 0] [--output perfbench/baseline.json]

Runs ``perfbench/run.py`` once per seed, one run at a time, for
``run_seconds`` from BENCHMARK.json. For each workload and metric it
prints the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (q3 - q1) / median, which is what repeat
runs are judged by against each end-to-end metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 200


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--output", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    status = 0
    for name in args.workloads:
        values, seeds, failed_runs = {}, [], 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                failed_runs += 1
                status = 1
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr.strip()}", file=sys.stderr)
            if len(lines) >= 2 and "meta" not in report:
                report["meta"] = json.loads(lines[-2])["detail"]["meta"]
            seeds.append(seed)
            for metric, entry in result.get("metrics", {}).items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: {time.monotonic() - t0:.1f} s, correct={result.get('correct')}", file=sys.stderr)
        summary = {m: {**summarize(v), "bound": bounds.get(m)} for m, v in values.items()}
        report["workloads"][name] = {"seeds": seeds, "failed_runs": failed_runs, "metrics": summary}
        for metric, s in summary.items():
            bound = f"{s['bound']:.2f}" if s["bound"] is not None else "-"
            print(f"{name:8s} {metric:45s} median {s['median']:<12.6g} spread {s['spread']:.4f} bound {bound}")
    if args.output:
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
