"""Tests of the benchmark itself: declared metrics, known answers, smoke passes.

Run from the root of a checkout with ``python -m pytest perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostclock
import known_answers as ka
import tracer
import worker
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names), names
    assert len(names) == len(set(names))


def test_tracer_yields_exactly_the_declared_layer_metrics():
    t = tracer.Tracer("empty")
    t.stop()
    produced = set(t.layer_metrics()) | {"trace.overhead_s"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_naive_counts_match_the_published_assoc3_count():
    counts = ka.naive_axiom_counts(ka.carrier_sizes("assoc", 3))
    assert counts["operad.assoc_instances"] == 34542
    assert counts["operad.unit_identity_instances"] == 1 + 1 + 2 + 6


def test_covered_time_is_the_union_of_child_intervals():
    assert tracer._covered([(1, 3), (2, 5), (7, 8), (9, 12)], 0, 10) == 6


def test_host_clock_scales_by_the_probes_and_drops_their_time(monkeypatch):
    monkeypatch.setattr(hostclock, "REF_PROBE_S", 1.0)
    clock = hostclock.HostClock()
    clock.probes = [(0.0, 2.0), (10.0, 0.5), (11.0, 0.25), (20.0, 4.0)]
    # two probes inside: 10 s less 0.75 s of probes, at 2 and 4 times the reference speed
    assert clock.scaled(5.0, 15.0) == pytest.approx(9.25 * 3.0)
    # a probe within one period of the stretch counts, one further away does not
    assert clock.scaled(10.5, 10.9) == pytest.approx(0.4 * 4.0)
    # none that near: the last one before and the first one after
    assert clock.scaled(12.0, 13.0) == pytest.approx(1.0 * (4.0 + 0.25) / 2)
    assert clock.factor() == pytest.approx((0.5 + 2 + 4 + 0.25) / 4)


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_tiny_smoke_pass(name, tmp_path):
    verdicts = workloads.build(name, 7, tmp_path, tiny=True)
    result = worker.run_pass(verdicts, host=hostclock.HostClock())
    assert result["failures"] == {}
    assert result["attempted"] == len(verdicts) >= 1
    assert 0 < result["verdict_max_s"] <= result["wall_s"]
    assert result["raw_wall_s"] > 0


def _plant_exit_code(monkeypatch):
    monkeypatch.setitem(ka.CHECK_EXIT, "walk.cat", 1)
    return "cli-mix", "check walk.cat"


def _plant_witness(monkeypatch):
    monkeypatch.setitem(ka.MUTATION_WITNESSES, "L2", ("tensor[p=*", "phi[nowhere]", "phi[f=[1,2],p=*,q=(*,*),A=(0,0)]"))
    return "cli-mix", "check_omon_category L2 mutation 1"


def _plant_naive_count(monkeypatch):
    real = ka.naive_axiom_counts

    def off_by_one(sizes):
        counts = real(sizes)
        counts["operad.assoc_instances"] += 1
        return counts

    monkeypatch.setattr(ka, "naive_axiom_counts", off_by_one)
    return "operad-laws", "check_operad_axioms comm(2)"


@pytest.mark.parametrize("plant", [_plant_exit_code, _plant_witness, _plant_naive_count])
def test_planted_wrong_expectation_is_counted(plant, monkeypatch, tmp_path):
    name, verdict = plant(monkeypatch)
    result = worker.run_pass(workloads.build(name, 7, tmp_path, tiny=True))
    assert verdict in result["failures"]
    assert result["failed"] >= 1


def test_traced_tiny_pass_keeps_counters(tmp_path):
    """Tracing changes no verdict or counter, and yields every layer metric."""
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]\n"
        "import tracer, worker, workloads\n"
        "from pathlib import Path\n"
        f"tmp = Path({str(tmp_path)!r})\n"
        "plain = worker.run_pass(workloads.build('cli-mix', 3, tmp, tiny=True))\n"
        "t = tracer.Tracer('smoke')\n"
        "t.install()\n"
        "traced = worker.run_pass(workloads.build('cli-mix', 3, tmp, tiny=True), t)\n"
        "t.stop()\n"
        "print(json.dumps([plain['digest'], traced['digest'], traced['failures'], t.layer_metrics(), t.operad_reuse()]))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=600, check=True)
    plain, traced, failures, metrics, (reusing, composing) = json.loads(out.stdout.splitlines()[-1])
    assert failures == {}
    assert plain == traced
    # every omon verdict of cli-mix has an operad of its own
    assert reusing == 0 and composing >= 4
    assert metrics["cli.commands"] > 0 and metrics["omon.check_calls"] > 0
    assert metrics["fincore.fiber_calls"] > 0 and metrics["dsl.bytes_written"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
