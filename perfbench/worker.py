"""One fresh-process pass of one workload; started by run.py, not by hand.

It prints one JSON line: the set-up time, from the parent's
``--spawned-at`` reading of ``time.monotonic`` (a system-wide clock) to
the moment the workload's inputs are built, and, unless the mode is
``setup``, the pass's result.  Outside a traced pass every time is
rescaled to the reference host speed by `hostclock`; the raw times are
printed beside them as ``raw_*``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import opgroth

import workloads
from hostclock import HostClock
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5


def run_pass(verdicts: list[workloads.Verdict], tracer: Tracer | None = None, host: HostClock | None = None) -> dict:
    """Time every verdict in order, then judge each against its known answer.

    With a `host` clock the times are rescaled to the reference host speed.
    """
    clock = time.perf_counter
    outcomes, spans, failures = {}, {}, {}
    if host is not None:
        host.start()
    first = clock()
    for v in verdicts:
        if tracer is not None:
            tracer.begin_verdict()
        start = clock()
        try:
            outcomes[v.name] = v.call()
        except Exception:  # a verdict that raises is a wrong verdict, not a crash
            failures[v.name] = "raised\n" + traceback.format_exc()
        spans[v.name] = (start, clock())
    last = clock()
    if host is not None:
        host.stop()
        times = {name: host.scaled(*span) for name, span in spans.items()}
        wall = host.scaled(first, last)
        probe_s = statistics.median(d for _, d in host.probes)
    else:
        times = {name: end - start for name, (start, end) in spans.items()}
        wall = last - first
        probe_s = None
    for v in verdicts:
        if v.name in outcomes:
            mismatch = v.judge(outcomes[v.name], outcomes)
            if mismatch is not None:
                failures[v.name] = mismatch
    digest = hashlib.sha256(
        json.dumps(
            [[name, workloads.summary(outcomes[name])] for name in sorted(outcomes)]
        ).encode("utf-8")
    ).hexdigest()
    return {
        "wall_s": wall,
        "verdict_max_s": max(times.values()),
        "raw_wall_s": last - first,
        "probe_s": probe_s,
        "attempted": len(verdicts),
        "failed": len(failures),
        "failures": failures,
        "verdict_s": times,
        "digest": digest,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "trace"))
    parser.add_argument("--run-dir", required=True, type=Path)
    parser.add_argument("--spawned-at", required=True, type=float)
    args = parser.parse_args()

    if not Path(opgroth.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"opgroth imported from {opgroth.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(dir=args.run_dir, prefix=f"{args.workload}-"))
    try:
        verdicts = workloads.build(args.workload, args.seed, tmp)
        if len({v.name for v in verdicts}) != len(verdicts):
            raise ValueError("verdict names are not unique")
        unscaled_setup_s = time.monotonic() - args.spawned_at
        # probes of the host speed right after set-up, to rescale it
        host = HostClock()
        for _ in range(SETUP_PROBES):
            host.probe()
        setup = {"setup_s": unscaled_setup_s * host.factor()}
        if args.mode == "setup":
            print(json.dumps(setup))
            return 0
        tracer = None
        if args.mode == "trace":
            tracer = Tracer(f"{args.workload}:seed={args.seed}")
            tracer.install()
            host = None
        result = run_pass(verdicts, tracer, host)
        result.update(setup)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.stop()
            result["layers"] = tracer.layer_metrics()
            result["operad_reuse"] = tracer.operad_reuse()
            tracer.write(args.run_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    sys.exit(main())
