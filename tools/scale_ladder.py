"""Scale ladder: time the structured checkers at growing arity, the
classical round trip, the ``check`` and ``oroundtrip`` commands on the
structured corpus, and the parser on the two corpus files.

Each rung builds one input and checks it, in a fresh interpreter with a
wall-clock cap, and records the build time and the check time apart, the
instance counters of the report and the instances checked per second.  A
rung that reaches its cap is recorded as ``over_cap``, never dropped.

    python3 tools/scale_ladder.py --out BENCH_10.json --label change

writes the run under ``runs[label]`` of the output file, keeping the runs
already there under other labels.  ``--rung NAME`` runs one rung in this
process and prints its JSON line, which is what the ladder runs in each
child.  ``peak_rss_mb`` is the peak resident set of that child, build
included.  Before the first rung, one warm-up child compiles this tool,
the package and the stdlib modules they load into a temporary bytecode
tree that every child reads (``PYTHONPYCACHEPREFIX``), so that no rung
compiles the package from source inside its ``peak_rss_mb``, even where
bytecode writing is off (``PYTHONDONTWRITEBYTECODE``).

    python3 tools/scale_ladder.py --rung "check_laxtoset l2(5)" --repeat 3

runs one rung in 3 fresh children and prints the median, min and max of
its ``check_s`` and ``peak_rss_mb``; it exits 1 when the counters differ
between the runs or a run does not finish.  The ladder is not part of
the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
CAP_S = 300.0  # seconds a rung may take


def _operad(label: str, arity: int):
    from opgroth import operads

    if label == "qconv(Bool)":
        return operads.build_qconv(operads.boolean_semiring(), arity), operads.check_operad_axioms
    return getattr(operads, f"build_{label}")(arity), operads.check_operad_axioms


def _omon(make: str, arity: int, mutation: int | None = None):
    from opgroth import ogroth, omon

    c = getattr(omon if hasattr(omon, make) else ogroth, make)(arity)
    if mutation is not None:
        c = omon.omon_single_entry_mutations(c)[mutation][1]
    return c, omon.check_omon_category


def _twisted_assoc():
    from opgroth import omon

    return omon.extend_unbiased_to_assoc(omon.twisted_bz2_unbiased(3)), omon.check_omon_category


def _identity_lax(make: str, arity: int):
    from opgroth import omon
    from opgroth.fincore import identity_functor

    c = getattr(omon, make)(arity)
    return omon.LaxOMonFunctor(dom=c, cod=c, functor=identity_functor(c.base)), omon._check_table_lax


def _laxtoset(make: str, arity: int):
    from opgroth import ogroth

    return getattr(ogroth, make)(arity), ogroth.check_laxtoset


def _roundtrip(arity: int):
    from opgroth import ogroth

    return ogroth.make_o_corpus(arity), ogroth.omon_roundtrip_check


def _classical_spec():
    from opgroth import groth
    from opgroth.dsl import parse_spec_file

    seed = 1
    doc = parse_spec_file((ROOT / "fixtures" / "corpus_small.spec").read_text(encoding="utf-8"))
    isets = [s.value for s in doc.by_kind("iset")]
    fibrations = [s.value for s in doc.by_kind("fibration")]
    corpus = groth.corpus_with_cells(isets, fibrations, seed, {"seed": seed, "source": "fixtures/corpus_small.spec"})
    return corpus, groth.roundtrip_report


def _classical_corpus():
    from opgroth import groth

    return groth.make_corpus(), groth.roundtrip_report


def _check_command(name: str):
    from opgroth import cli
    from opgroth.dsl import parse_spec_file

    doc = parse_spec_file((ROOT / "fixtures" / name).read_text(encoding="utf-8"))
    return doc, lambda doc: cli._check_sections(doc, None)


def _oroundtrip_command(name: str):
    from opgroth import cli
    from opgroth.dsl import parse_spec_file

    doc = parse_spec_file((ROOT / "fixtures" / name).read_text(encoding="utf-8"))
    return doc, lambda doc: cli._oroundtrip(doc, {"source": f"fixtures/{name}", "max_arity": 3})


def _parse_file(name: str, times: int):
    from opgroth.dsl import parse_spec_file
    from opgroth.report import CheckReport

    def parse(text: str):
        report = CheckReport()
        for _ in range(times):
            doc = parse_spec_file(text)
            report.count("parse.section_instances", len(doc.sections))
            report.count("parse.diagnostics", len(doc.diagnostics))
            if not doc.ok:
                report.structural("parse.diagnostic", doc.diagnostics[0].render())
        return report

    return (ROOT / "fixtures" / name).read_text(encoding="utf-8"), parse


# rung name -> () -> (input, checker); the input build is timed apart
RUNGS = {
    **{
        f"check_operad_axioms {label}({k})": (lambda label=label, k=k: _operad(label, k))
        # assoc(5) has 3.58e10 instances, hours at the rate of assoc(4)
        for label, arities in (("assoc", (3, 4)), ("comm", (3, 4, 5)), ("qconv(Bool)", (3, 4, 5)))
        for k in arities
    },
    **{
        f"check_omon_category {label}({k})": (lambda b=make, k=k: _omon(b, k))
        for label, make, arities in (
            ("grade", "grade_assoc_omon", (3, 4)),
            ("dz2", "dz2_assoc_omon", (3, 4)),
            ("l2", "l2_comm_omon", (3, 4, 5)),
            ("qconv_or", "qconv_or_omon", (5,)),
        )
        for k in arities
    },
    # the shipped mutations that set one structure isomorphism explicitly
    **{
        f"check_omon_category {label}(4) mutation {i}": (lambda b=make, i=i: _omon(b, 4, i))
        for label, make in (("grade", "grade_assoc_omon"), ("dz2", "dz2_assoc_omon"))
        for i in (1, 2)
    },
    "check_omon_category twisted assoc(3)": _twisted_assoc,
    **{f"check_table_lax identity grade({k})": (lambda k=k: _identity_lax("grade_assoc_omon", k)) for k in (3, 4)},
    **{
        f"check_laxtoset {label}({k})": (lambda b=make, k=k: _laxtoset(b, k))
        for label, make, arities in (
            ("grade", "grade_laxtoset", (3, 4)),
            ("l2", "l2_laxtoset", (3, 4, 5)),
            ("qconv_proj", "qconv_proj_laxtoset", (5,)),
        )
        for k in arities
    },
    **{f"omon_roundtrip_check make_o_corpus({k})": (lambda k=k: _roundtrip(k)) for k in (3, 4)},
    # the classical round trip: the build is the parse and generate_cells
    "roundtrip corpus_small.spec seed 1": _classical_spec,
    "roundtrip_report make_corpus()": _classical_corpus,
    # every section of the file on the command's one memo: the build is the parse
    "check corpus_omon.spec": lambda: _check_command("corpus_omon.spec"),
    # the cell search and the structured round trip of the oroundtrip
    # command, on one memo: the build is the parse
    "oroundtrip corpus_omon.spec": lambda: _oroundtrip_command("corpus_omon.spec"),
    # the parser alone, the same text parsed again and again so that the
    # time stands above timer noise: the build reads the file
    **{
        f"parse {name} {times} times": (lambda name=name, times=times: _parse_file(name, times))
        for name, times in (("corpus_small.spec", 100), ("corpus_omon.spec", 100))
    },
}


def run_rung(name: str) -> dict:
    start = time.perf_counter()
    value, check = RUNGS[name]()
    built = time.perf_counter()
    report = check(value)
    done = time.perf_counter()
    stats = dict(sorted(report.stats.items()))
    instances = sum(v for k, v in stats.items() if k.endswith("_instances"))
    check_s = done - built
    return {
        "status": "ok" if report.ok else "failed",
        "build_s": round(built - start, 3),
        "check_s": round(check_s, 3),
        "instances": instances,
        "instances_per_s": round(instances / check_s) if check_s > 0 else None,
        "stats": stats,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def compile_for_children(prefix: str) -> None:
    """Point every later child at a bytecode tree under ``prefix``, and
    fill it in one warm-up child that imports this tool and the package
    with bytecode writing on, which compiles them and the stdlib modules
    they load.  The compile runs in a child of its own because a child's
    ``ru_maxrss`` starts from the resident set of the process that
    started it."""
    os.environ["PYTHONPYCACHEPREFIX"] = prefix
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import scale_ladder, opgroth.cli"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def run_child(name: str) -> dict:
    """One rung in a fresh interpreter, under the cap."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(Path(__file__).resolve()), "--rung", name]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CAP_S)
    except subprocess.TimeoutExpired:
        out = {"status": "over_cap", "cap_s": CAP_S}
    else:
        if proc.returncode == 0:
            out = json.loads(proc.stdout.splitlines()[-1])
        else:
            out = {"status": "error", "stderr": proc.stderr.strip().splitlines()[-1:]}
    out["wall_s"] = round(time.perf_counter() - start, 3)
    return out


def run_repeated(name: str, repeat: int) -> dict:
    """The rung in ``repeat`` fresh children: the median, min and max of
    its check time and peak resident set, and its counters, which must be
    the same in every run (``stats_agree``)."""
    import statistics  # here, so that a rung's own process does not load it

    runs = [run_child(name) for _ in range(repeat)]
    out = {"rung": name, "repeat": repeat, "status": sorted({r["status"] for r in runs})}
    for key in ("check_s", "peak_rss_mb"):
        values = [r[key] for r in runs if key in r]
        if values:
            out[key] = {"median": statistics.median(values), "min": min(values), "max": max(values)}
    stats = [r.get("stats") for r in runs]
    out["stats_agree"] = all(s == stats[0] for s in stats)
    out["stats"] = stats[0]
    return out


def run_ladder() -> dict:
    out = {}
    for name in RUNGS:
        out[name] = run_child(name)
        print(f"{name}: {out[name]['status']} in {out[name]['wall_s']} s", file=sys.stderr, flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rung", help="run one rung in this process and print its JSON")
    parser.add_argument("--repeat", type=int, help="with --rung: run it in this many fresh children and print the spread")
    parser.add_argument("--out", type=Path, help="JSON file to add this run to")
    parser.add_argument("--label", default="run", help="name of this run in the output file")
    args = parser.parse_args(argv)
    if args.rung and not args.repeat:
        print(json.dumps(run_rung(args.rung)))
        return 0
    with tempfile.TemporaryDirectory(prefix="ladder-bytecode-") as prefix:
        compile_for_children(prefix)
        if args.rung:
            summary = run_repeated(args.rung, args.repeat)
            print(json.dumps(summary))
            return 0 if summary["stats_agree"] and set(summary["status"]) <= {"ok", "failed"} else 1
        rungs = run_ladder()
    run = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "cap_s": CAP_S,
        "rungs": rungs,
    }
    if args.out is None:
        print(json.dumps(run, indent=2))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    doc["runs"][args.label] = run
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
