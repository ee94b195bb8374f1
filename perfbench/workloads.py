"""The benchmark's workloads: inputs built from the seed, and the verdicts timed on them.

A verdict is one checker call or one CLI command, run in-process through
the public API.  Verdicts call through the ``opgroth`` package namespace
at call time, so a traced run sees them through its wrappers.  Each
verdict carries a judge that compares its outcome with the answer in
`known_answers` and returns a description of any mismatch.
"""

from __future__ import annotations

import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import opgroth
from opgroth.omon import (
    dz2_assoc_omon,
    grade_assoc_omon,
    l2_comm_omon,
    omon_single_entry_mutations,
)

import known_answers as ka

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@dataclass(frozen=True)
class CliOutcome:
    code: int
    text: str


@dataclass
class Verdict:
    name: str
    call: Callable[[], object]
    # (outcome, outcomes of the whole pass by verdict name) -> mismatch or None
    judge: Callable[[object, dict], str | None]


def summary(outcome) -> list:
    """What two runs of one verdict on the same seed must agree on."""
    if isinstance(outcome, CliOutcome):
        return [outcome.code, hashlib.sha256(outcome.text.encode("utf-8")).hexdigest()]
    return [outcome.ok, sorted(outcome.stats.items()), len(outcome.records)]


def _cli(argv: list[str]) -> Callable[[], CliOutcome]:
    def call() -> CliOutcome:
        out = io.StringIO()
        code = opgroth.run_command(argv, out=out)
        return CliOutcome(code, out.getvalue())

    return call


def _exit_is(expected: int):
    def judge(outcome: CliOutcome, _all) -> str | None:
        if outcome.code != expected:
            return f"exit code {outcome.code}, expected {expected}"
        return None

    return judge


def _parse_fixture(name: str):
    doc = opgroth.parse_spec_file((FIXTURES / name).read_text(encoding="utf-8"))
    if doc.diagnostics:
        raise ValueError(f"fixture {name} does not parse cleanly")
    return doc


# ---------------------------------------------------------------- operad-laws


def _operad_judge(operad, family: str, max_arity: int):
    expected_sizes = ka.carrier_sizes(family, max_arity)

    def judge(report, _all) -> str | None:
        sizes = [len(c) for c in operad.carriers]
        if sizes != expected_sizes:
            return f"carrier sizes {sizes}, expected {expected_sizes}"
        if not report.ok:
            return f"expected a clean report, got {len(report.records)} records"
        expected = ka.naive_axiom_counts(expected_sizes)
        got = {key: report.stats.get(key) for key in expected}
        if got != expected:
            return f"instance counts {got}, naive count {expected}"
        return None

    return judge


def operad_laws(seed: int, tmp: Path, tiny: bool = False) -> list[Verdict]:
    top = 2 if tiny else 4
    cases = [
        (f"assoc({top - 1})", opgroth.build_assoc(top - 1), "assoc", top - 1),
        (f"comm({top})", opgroth.build_comm(top), "comm", top),
        (f"qconv(Bool,{top})", opgroth.build_qconv(opgroth.boolean_semiring(), top), "qconv", top),
    ]
    files = ["l2.laxtoset"] if tiny else sorted({f for f, _ in ka.FIXTURE_OPERADS})
    for name in files:
        for section in _parse_fixture(name).by_kind("operad"):
            family, arity = ka.FIXTURE_OPERADS[(name, section.name)]
            cases.append((f"{name}:{section.name}", section.value, family, arity))
    verdicts = [
        Verdict(
            f"check_operad_axioms {label}",
            lambda o=operad: opgroth.check_operad_axioms(o),
            _operad_judge(operad, family, arity),
        )
        for label, operad, family, arity in cases
    ]
    random.Random(seed).shuffle(verdicts)
    return verdicts


# ------------------------------------------------------- structured-roundtrip


def _roundtrip_judge(outcome: CliOutcome, _all) -> str | None:
    if outcome.code != ka.COMMAND_EXIT["oroundtrip"]:
        return f"exit code {outcome.code}, expected {ka.COMMAND_EXIT['oroundtrip']}"
    if not outcome.text.startswith("status: ok\n"):
        return "report is not clean"
    return None


def structured_roundtrip(seed: int, tmp: Path, tiny: bool = False) -> list[Verdict]:
    # cells are enumerated deterministically from the file, so the seed
    # does not change this workload's input
    name = "l2.laxtoset" if tiny else "corpus_omon.spec"
    _parse_fixture(name)
    return [Verdict(f"oroundtrip {name}", _cli(["oroundtrip", str(FIXTURES / name)]), _roundtrip_judge)]


# ---------------------------------------------------------------- cli-mix

OMON_FIXTURES = {"DZ2": dz2_assoc_omon, "L2": l2_comm_omon, "grade": grade_assoc_omon}
JOBS_FIXTURE = "l2.laxtoset"


def _same_text_as(other: str):
    def judge(outcome: CliOutcome, outcomes: dict) -> str | None:
        if outcome.code != 0:
            return f"exit code {outcome.code}, expected 0"
        if other not in outcomes or outcome.text != outcomes[other].text:
            return f"report bytes differ from {other!r}"
        return None

    return judge


def _table_judge(sizes: list[int]):
    def judge(outcome: CliOutcome, _all) -> str | None:
        if outcome.code != ka.COMMAND_EXIT["operad-table"]:
            return f"exit code {outcome.code}"
        rows = sum(1 for line in outcome.text.splitlines() if line.startswith("mu "))
        if rows != ka.composition_key_count(sizes):
            return f"{rows} composition rows, expected {ka.composition_key_count(sizes)}"
        return None

    return judge


def _clean_report(report, _all) -> str | None:
    return None if report.ok else f"expected a clean report, got {len(report.records)} records"


def _names_witness(fragment: str):
    def judge(report, _all) -> str | None:
        if report.ok:
            return "mutation not caught"
        if not any(fragment in r.witness for r in report.records):
            return f"no witness names {fragment!r}"
        return None

    return judge


def _not_shipped(fragment: str):
    def call():
        raise LookupError(f"no shipped mutation names {fragment!r}")

    return call


def _construction(command: str, file: str, flag: str, section: str, tmp: Path) -> list[Verdict]:
    """A construction command writing into `tmp`, then a clean re-check of what it wrote."""
    target = tmp / f"{command}-{section}.spec"
    argv = [command, str(FIXTURES / file), flag, section, "-o", str(target)]
    return [
        Verdict(f"{command} {file} {section}", _cli(argv), _exit_is(ka.COMMAND_EXIT[command])),
        Verdict(f"recheck {command} {section}", _cli(["check", str(target)]), _exit_is(ka.COMMAND_EXIT["recheck"])),
    ]


def cli_mix(seed: int, tmp: Path, tiny: bool = False) -> list[Verdict]:
    rng = random.Random(seed)
    corpus = _parse_fixture("corpus_small.spec")
    heavy = {"corpus_omon.spec", "grade.laxtoset"}
    units = [
        [Verdict(f"check {name}", _cli(["check", str(FIXTURES / name)]), _exit_is(code))]
        for name, code in ka.CHECK_EXIT.items()
        if not (tiny and name in heavy)
    ]
    jobs1 = f"check --jobs 1 {JOBS_FIXTURE}"
    units.append([Verdict(jobs1, _cli(["--jobs", "1", "check", str(FIXTURES / JOBS_FIXTURE)]), _exit_is(0))])
    units.append(
        [
            Verdict(
                f"check --jobs 2 {JOBS_FIXTURE}",
                _cli(["--jobs", "2", "check", str(FIXTURES / JOBS_FIXTURE)]),
                _same_text_as(jobs1),
            )
        ]
    )
    iset = rng.choice([s.name for s in corpus.by_kind("iset")])
    fib = rng.choice([s.name for s in corpus.by_kind("fibration")])
    units.append(_construction("groth", "corpus_small.spec", "--iset", iset, tmp))
    units.append(_construction("transpose", "corpus_small.spec", "--fib", fib, tmp))
    units.append(_construction("ogroth", "l2.laxtoset", "--laxtoset", "L2FAM", tmp))
    units.append(_construction("otranspose", "corpus_omon.spec", "--ofib", "IDL2", tmp))
    roundtrip_seed = rng.randrange(1 << 16)
    units.append(
        [
            Verdict(
                f"roundtrip --seed {roundtrip_seed}",
                _cli(["--seed", str(roundtrip_seed), "roundtrip", str(FIXTURES / "corpus_small.spec")]),
                _exit_is(ka.COMMAND_EXIT["roundtrip"]),
            )
        ]
    )
    units.append(
        [
            Verdict(
                "operad-table grade.laxtoset Assoc_3",
                _cli(["operad-table", str(FIXTURES / "grade.laxtoset"), "--operad", "Assoc_3"]),
                _table_judge(ka.carrier_sizes("assoc", 3)),
            )
        ]
    )
    for label, build in OMON_FIXTURES.items():
        if tiny and label != "L2":
            continue
        # every structure below is built anew, so no two verdicts share an
        # operad and its composition cache
        structure = build(3)
        units.append(
            [Verdict(f"check_omon_category {label}", lambda c=structure: opgroth.check_omon_category(c), _clean_report)]
        )
        for i, fragment in enumerate(ka.MUTATION_WITNESSES[label]):
            # picked by the fragment it ships with, so the input stays the
            # same if the generator yields more mutations
            shipped = {frag: mutated for _, mutated, frag in omon_single_entry_mutations(build(3))}
            mutated = shipped.get(fragment)
            call = _not_shipped(fragment) if mutated is None else (lambda c=mutated: opgroth.check_omon_category(c))
            units.append([Verdict(f"check_omon_category {label} mutation {i}", call, _names_witness(fragment))])
    rng.shuffle(units)
    return [v for unit in units for v in unit]


# ---------------------------------------------------------------- cli-light

LIGHT_FIXTURES = ("walk.cat", "broken_unit.cat", "broken_syntax.cat", "incomplete.cat", "corpus_small.spec")
# fixed, so that every workload seed times the same work: `roundtrip`
# takes 0.2 to 0.7 s depending on its --seed
LIGHT_ROUNDTRIP_SEEDS = (1, 2)


def cli_light(seed: int, tmp: Path, tiny: bool = False) -> list[Verdict]:
    """The short classical commands of cli-mix, on every iset and fibration of the corpus.

    No omon check runs here, so parsing, the CLI and the classical
    construction are a visible share of the wall time.  The seed draws the
    order of the commands.
    """
    rng = random.Random(seed)
    corpus = _parse_fixture("corpus_small.spec")
    isets = [s.name for s in corpus.by_kind("iset")]
    fibs = [s.name for s in corpus.by_kind("fibration")]
    if tiny:
        isets, fibs = isets[:1], fibs[:1]
    units = [
        [Verdict(f"check {name}", _cli(["check", str(FIXTURES / name)]), _exit_is(ka.CHECK_EXIT[name]))]
        for name in LIGHT_FIXTURES
    ]
    units += [_construction("groth", "corpus_small.spec", "--iset", name, tmp) for name in isets]
    units += [_construction("transpose", "corpus_small.spec", "--fib", name, tmp) for name in fibs]
    for roundtrip_seed in LIGHT_ROUNDTRIP_SEEDS[: 1 if tiny else None]:
        argv = ["--seed", str(roundtrip_seed), "roundtrip", str(FIXTURES / "corpus_small.spec")]
        units.append([Verdict(f"roundtrip --seed {roundtrip_seed}", _cli(argv), _exit_is(ka.COMMAND_EXIT["roundtrip"]))])
    units.append(
        [
            Verdict(
                "operad-table grade.laxtoset Assoc_3",
                _cli(["operad-table", str(FIXTURES / "grade.laxtoset"), "--operad", "Assoc_3"]),
                _table_judge(ka.carrier_sizes("assoc", 3)),
            )
        ]
    )
    rng.shuffle(units)
    return [v for unit in units for v in unit]


BUILDERS = {
    "operad-laws": operad_laws,
    "structured-roundtrip": structured_roundtrip,
    "cli-mix": cli_mix,
    "cli-light": cli_light,
}


def build(workload: str, seed: int, tmp: Path, tiny: bool = False) -> list[Verdict]:
    """The workload's verdicts, in the order the seed draws."""
    return BUILDERS[workload](seed, tmp, tiny)
