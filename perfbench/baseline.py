"""Measure a baseline: N untraced runs per workload on N seeds, plus one traced run.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For every end-to-end metric it records the median of the runs and the
spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, the
figure each metric's `bound` in BENCHMARK.json is compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong verdicts\n{out.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    workloads = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run(w, seed, spec["run_seconds"], 0) for seed in seeds]
        summary = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "values": values}
        workloads[w] = {"seeds": seeds, "end_to_end": summary,
                        "per_layer": run(w, seeds[0], spec["run_seconds"], 1)}
        print(w, {k: round(v["spread"], 4) for k, v in summary.items()}, flush=True)
    baseline = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
