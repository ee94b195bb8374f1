"""opgroth benchmark: time to a verdict on four workloads, checked against known answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 15 --trace 0

Every pass of a workload runs in a fresh interpreter (perfbench/worker.py)
that imports opgroth from ``src/``.  With ``--trace 0`` the script first
times set-up in several processes that stop once their inputs are built,
then starts passes until the next one would end after ``--seconds``; it
reports the end-to-end metrics of BENCHMARK.json as medians, in seconds
at the reference host speed of perfbench/hostclock.py.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics, with the traced pass's extra wall time as
``trace.overhead_s``.  The last line of standard output is the JSON
result; the exit code is 0 only if every verdict matched its known answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_SAMPLES = 6
# a hang guard for one worker process, far above any pass at this commit
WORKER_TIMEOUT_S = 600


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str) -> dict:
    """Run one worker process to its end and return its JSON line."""
    env = dict(os.environ)
    env.pop("OPGROTH_MAX_ARITY", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(RUN_DIR / "pycache")
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--run-dir", str(RUN_DIR),
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if out.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {out.returncode}")
    return json.loads(out.stdout.splitlines()[-1])


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def untraced(workload: str, seed: int, seconds: int):
    setups = [run_worker(workload, seed, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        result = run_worker(workload, seed, "pass")
        setups.append(result["setup_s"])
        passes.append(result)
        now = time.monotonic()
        if now - start + (now - pass_start) > seconds:
            break
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "verdict_max_s": statistics.median(p["verdict_max_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }
    raw_wall = statistics.median(p["raw_wall_s"] for p in passes)
    print(f"{workload} seed {seed}: {len(passes)} pass(es), {len(setups)} set-up samples; "
          f"unscaled wall_s {raw_wall:.3f} s, host clock factor {values['wall_s'] / raw_wall:.3f}, "
          f"probe {1000 * statistics.median(p['probe_s'] for p in passes):.3f} ms")
    return passes, values, "end_to_end"


def traced(workload: str, seed: int, seconds: int):
    plain = run_worker(workload, seed, "pass")
    with_trace = run_worker(workload, seed, "trace")
    values = dict(with_trace.pop("layers"))
    values["trace.overhead_s"] = with_trace["wall_s"] - plain["wall_s"]
    print(f"{workload} seed {seed}: untraced wall {plain['wall_s']:.3f} s, traced {with_trace['wall_s']:.3f} s")
    reusing, composing = with_trace.pop("operad_reuse")
    print(f"verdicts composing on an operad an earlier verdict used: {reusing} of {composing}")
    return [plain, with_trace], values, "per_layer"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("operad-laws", "structured-roundtrip", "cli-mix", "cli-light"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "opgroth" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"{ROOT} holds no opgroth checkout (src/opgroth, fixtures/)", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    measure = traced if args.trace else untraced
    try:
        passes, values, kind = measure(args.workload, args.seed, args.seconds)
        units = declared_metrics(kind)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for name, message in p["failures"].items():
            print(f"WRONG {name}: {message}", file=sys.stderr)
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        print("passes on one seed disagree on verdicts or counters", file=sys.stderr)
    slowest = max(passes[0]["verdict_s"].items(), key=lambda kv: kv[1])
    print(f"wrong_verdict_share {failed}/{attempted} = {failed / attempted:.4f}; "
          f"slowest verdict {slowest[0]!r} {slowest[1]:.3f} s")
    missing = set(units) - set(values)
    if missing:
        print(f"metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    correct = failed == 0 and len(digests) == 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
