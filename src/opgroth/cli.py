"""Command-line surface.

Exit codes: 0 when every requested check is clean, 1 when a law fails,
2 on parse or structural errors.  Reports stream as human-readable text
or as JSON lines (one record per line, schema carried in the ``v``
field).  Sections are checked one after another in one thread, on one
memo per command, so that each structure and operad a file names is
proved once; ``--jobs`` is accepted for compatibility and changes
nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .fincore import (
    FinMap,
    factorize_monotone_perm,
    validate_category,
    validate_functor,
    validate_natural_transformation,
)
from .fib2cat import check_discrete_fibration, validate_indexed_set
from .groth import corpus_with_cells, groth_apply, roundtrip_report, transpose_apply
from .ogroth import (
    OCorpus,
    _checked_omon,
    check_laxtoset,
    check_ofib_object,
    enumerate_ocells,
    enumerate_o2cells,
    identity_ocell,
    identity_ofib_cell,
    omon_groth,
    omon_roundtrip_check,
    omon_transpose,
)
from .omon import check_lax_omon_functor, check_omon_transformation
from .operads import check_operad_axioms, check_semiring
from .dsl import (
    DocBuilder,
    parse_spec_file,
    ser_fibration,
    ser_iset,
    ser_laxtoset,
    ser_ofib,
)
from .report import STRUCTURAL, CheckRecord, CheckReport, REPORT_SCHEMA_VERSION

_CHECKERS = {
    "category": validate_category,
    "functor": validate_functor,
    "nattrans": validate_natural_transformation,
    "fibration": check_discrete_fibration,
    "iset": validate_indexed_set,
    "semiring": check_semiring,
    "operad": check_operad_axioms,
    "omon": lambda c, *, memo: _checked_omon(memo, c),
    "laxfun": check_lax_omon_functor,
    "omontrans": check_omon_transformation,
    "ofib": check_ofib_object,
    "laxtoset": check_laxtoset,
}
# the kinds whose checker reads the command's memo (see _check_sections)
_READS_MEMO = frozenset({"operad", "omon", "laxfun", "ofib", "laxtoset"})


def _emit(report: CheckReport, mode: str, out) -> None:
    if mode == "json":
        for record in report.records:
            out.write(json.dumps(record.as_json(), sort_keys=True) + "\n")
        summary = {
            "v": REPORT_SCHEMA_VERSION,
            "summary": True,
            "status": "ok" if report.ok else "failed",
            "stats": dict(sorted(report.stats.items())),
            "info": dict(sorted(report.info.items())),
        }
        out.write(json.dumps(summary, sort_keys=True) + "\n")
    else:
        out.write(report.render() + "\n")


def _exit_code(report: CheckReport) -> int:
    if report.ok:
        return 0
    return 2 if report.has_structural else 1


def _diagnostics_report(doc) -> CheckReport:
    report = CheckReport()
    for d in doc.diagnostics:
        report.records.append(
            CheckRecord(STRUCTURAL, "parse", f"{d.line}:{d.col}: {d.message}", d.section)
        )
    return report


def _load(args, out):
    """The parsed file of ``args``, or None once its diagnostics are emitted."""
    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    doc = parse_spec_file(text, default_max_arity=args.max_arity)
    if doc.diagnostics:
        _emit(_diagnostics_report(doc), args.report, out)
        return None
    return doc


def _check_sections(doc, only: str | None) -> CheckReport:
    report = CheckReport()
    if not doc.sections:
        report.structural("cli.section", "no sections in the file")
        return report
    sections = [s for s in doc.sections if only is None or s.name == only]
    if only is not None and not sections:
        report.structural("cli.section", f"no section named {only!r}")
        return report
    memo: dict = {}  # one per command: a structure or operad named again is not proved again
    for section in sections:
        check = _CHECKERS[section.kind]
        got = check(section.value, memo=memo) if section.kind in _READS_MEMO else check(section.value)
        report.merge(got, where=section.name)
        report.count(f"checked.{section.kind}")
    return report


def _write_output(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_check(args, out) -> int:
    doc = _load(args, out)
    if doc is None:
        return 2
    report = _check_sections(doc, args.section)
    _emit(report, args.report, out)
    return _exit_code(report)


def _resolve_named(doc, name: str, kind: str, report: CheckReport):
    try:
        section = doc.get(name)
    except KeyError:
        report.structural("cli.section", f"no section named {name!r}")
        return None
    if section.kind != kind:
        report.structural("cli.section", f"{name!r} has kind {section.kind}, expected {kind}")
        return None
    return section.value


def _construct(args, out) -> int:
    """groth, transpose, ogroth and otranspose: check the named section,
    apply the construction and write the result to ``--output``."""
    option, kind, construct, serialize, prefix = {
        "groth": ("iset", "iset", groth_apply, ser_fibration, "int_"),
        "transpose": ("fib", "fibration", transpose_apply, ser_iset, "T_"),
        "ogroth": ("laxtoset", "laxtoset", omon_groth, ser_ofib, "int_"),
        "otranspose": ("ofib", "ofib", omon_transpose, ser_laxtoset, "T_"),
    }[args.command]
    doc = _load(args, out)
    if doc is None:
        return 2
    name = getattr(args, option)
    report = CheckReport()
    value = _resolve_named(doc, name, kind, report)
    if value is not None:
        report.merge(_CHECKERS[kind](value), where=name)
    if report.ok and value is not None:
        b = DocBuilder()
        serialize(b, construct(value), suggested=f"{prefix}{name}")
        _write_output(args.output, b.text())
        report.count("written.sections")
    _emit(report, args.report, out)
    return _exit_code(report)


def cmd_roundtrip(args, out) -> int:
    doc = _load(args, out)
    if doc is None:
        return 2
    isets = [s.value for s in doc.by_kind("iset")]
    fibrations = [s.value for s in doc.by_kind("fibration")]
    report = CheckReport()
    if not isets and not fibrations:
        report.structural("cli.corpus", "no iset or fibration sections in the file")
        _emit(report, args.report, out)
        return 2
    corpus = corpus_with_cells(isets, fibrations, args.seed, {"seed": args.seed, "source": args.file})
    report.merge(roundtrip_report(corpus))
    _emit(report, args.report, out)
    return _exit_code(report)


def cmd_oroundtrip(args, out) -> int:
    doc = _load(args, out)
    if doc is None:
        return 2
    report = _oroundtrip(doc, {"source": args.file, "max_arity": args.max_arity})
    _emit(report, args.report, out)
    return _exit_code(report)


def _oroundtrip(doc, params: dict) -> CheckReport:
    """The structured round trip on the laxtoset and ofib sections of a
    parsed file, with the cells the search finds between its laxtosets."""
    laxtosets = [s.value for s in doc.by_kind("laxtoset")]
    ofibs = [s.value for s in doc.by_kind("ofib")]
    report = CheckReport()
    if not laxtosets and not ofibs:
        report.structural("cli.corpus", "no laxtoset or ofib sections in the file")
        return report
    # one memo for the search and the round trip, which checks the same structures
    memo: dict = {}
    ocells = [identity_ocell(x) for x in laxtosets]
    for x in laxtosets:
        for y in laxtosets:
            if x is y:
                continue
            ocells.extend(enumerate_ocells(x, y, cap=2, memo=memo))
    o2cells = []
    for c1 in ocells:
        for c2 in ocells:
            if c1 is not c2 and c1.dom is c2.dom and c1.cod is c2.cod:
                o2cells.extend(enumerate_o2cells(c1, c2, cap=1))
    corpus = OCorpus(
        laxtosets=laxtosets,
        ofibs=ofibs,
        ocells=ocells,
        ofib_cells=[identity_ofib_cell(y) for y in ofibs],
        o2cells=o2cells,
        ofib_2cells=[],
        operad_morphisms=[],
        params=params,
    )
    report.merge(omon_roundtrip_check(corpus, memo=memo))
    return report


def cmd_factorize(args, out) -> int:
    try:
        values = tuple(int(v) for v in args.values.split(","))
        f = FinMap(args.m, args.n, values)
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return 2
    g, h = factorize_monotone_perm(f)
    out.write(f"g = {g.label()}\n")
    out.write(f"h = {h.label()}\n")
    return 0


def cmd_operad_table(args, out) -> int:
    doc = _load(args, out)
    if doc is None:
        return 2
    report = CheckReport()
    value = _resolve_named(doc, args.operad, "operad", report)
    if value is None:
        _emit(report, args.report, out)
        return 2
    from .operads import CompositionUndefined, composition_keys

    for f, p, qs in composition_keys(value):
        try:
            r = value.compose(f, p, qs)
        except CompositionUndefined as exc:
            report.structural("operad.composition", str(exc), args.operad)
            continue
        out.write(f"mu {f.label()} {p} {' '.join(qs)} = {r}\n")
    if not report.ok:
        _emit(report, args.report, out)
    return _exit_code(report)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; an absent --max-arity parses to None."""
    parser = argparse.ArgumentParser(
        prog="opgroth",
        description="Verify operad-indexed monoidal coherence and Grothendieck "
        "round trips on finite instances.",
    )
    parser.add_argument("--max-arity", type=int, default=None,
                        help="truncation for builtin operads (default 3, env OPGROTH_MAX_ARITY)")
    parser.add_argument("--report", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=20240,
                        help="seed for corpus cell generation")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; checks run in one thread")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate every section of a file")
    p.add_argument("file")
    p.add_argument("--section", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("groth", help="apply the Grothendieck construction to an iset")
    p.add_argument("file")
    p.add_argument("--iset", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_construct)

    p = sub.add_parser("transpose", help="take fibers of a discrete fibration")
    p.add_argument("file")
    p.add_argument("--fib", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_construct)

    p = sub.add_parser("roundtrip", help="verify the classical 2-equivalence on a corpus")
    p.add_argument("file")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("ogroth", help="apply the structured construction to a laxtoset")
    p.add_argument("file")
    p.add_argument("--laxtoset", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_construct)

    p = sub.add_parser("otranspose", help="transpose a structured fibration")
    p.add_argument("file")
    p.add_argument("--ofib", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_construct)

    p = sub.add_parser("oroundtrip", help="verify the structured 2-equivalence on a corpus")
    p.add_argument("file")
    p.set_defaults(func=cmd_oroundtrip)

    p = sub.add_parser("factorize", help="monotone-times-permutation factorization")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("values")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("operad-table", help="print the composition table of an operad")
    p.add_argument("file")
    p.add_argument("--operad", required=True)
    p.set_defaults(func=cmd_operad_table)
    return parser


def run_command(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    env_arity = os.environ.get("OPGROTH_MAX_ARITY", "3")
    try:
        default_arity = int(env_arity)
    except ValueError:
        out.write(f"error: OPGROTH_MAX_ARITY is not an integer: {env_arity!r}\n")
        return 2
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.max_arity is None:
        args.max_arity = default_arity
    try:
        return args.func(args, out)
    except (OSError, UnicodeDecodeError) as exc:
        out.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
