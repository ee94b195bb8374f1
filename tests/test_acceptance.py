"""Acceptance suite: one test per shipped criterion.

Each test prints a single pass/fail line; run with ``pytest -v -s`` to
see them.  Budgets are wall-clock upper bounds asserted per criterion.
"""

import io
import itertools
import pathlib
import time

import pytest

from opgroth.cli import run_command
from opgroth.fincore import FinMap, all_maps, factorize_monotone_perm, fiber, fm_compose, functor_from_labels
from opgroth.groth import make_corpus, roundtrip_report
from opgroth.ogroth import (
    check_ofib_object,
    grade_laxtoset,
    make_o_corpus,
    omon_groth,
    omon_roundtrip_check,
    omons_equal,
    restriction_report,
)
from opgroth.omon import (
    SetAlgebra,
    check_omon_category,
    check_strict_omon_iso,
    dz2_assoc_omon,
    extend_unbiased_to_assoc,
    forget_assoc_to_unbiased,
    grade_assoc_omon,
    l2_comm_omon,
    l2_unbiased,
    omon_single_entry_mutations,
    restrict_along_operad_morphism,
    z2_unbiased,
)
from opgroth.operads import (
    boolean_semiring,
    build_assoc,
    build_comm,
    build_qconv,
    check_operad_axioms,
    identity_operad_morphism,
    terminal_morphism,
)
from testkit import all_permutations

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def report_line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------


def _naive_maps(m, n):
    if m == 0:
        return [()]
    if n == 0:
        return []
    return list(itertools.product(range(1, n + 1), repeat=m))


def _naive_fibers(values, n):
    return [
        [j for j in range(1, len(values) + 1) if values[j - 1] == i]
        for i in range(1, n + 1)
    ]


def _naive_counts(sizes, top):
    unit = sum(sizes[n] for n in range(top + 1))
    assoc = 0
    for n in range(top + 1):
        for m in range(top + 1):
            for fv in _naive_maps(m, n):
                wf = sizes[n]
                for fb in _naive_fibers(fv, n):
                    wf *= sizes[len(fb)]
                for ell in range(top + 1):
                    for gv in _naive_maps(ell, m):
                        wg = 1
                        for gb in _naive_fibers(gv, m):
                            wg *= sizes[len(gb)]
                        assoc += wf * wg
    return {"assoc": assoc, "unit": unit}


def test_criterion_1_operad_axiom_suite():
    start = time.monotonic()
    ok = True
    details = []
    for operad in (build_assoc(3), build_comm(4), build_qconv(boolean_semiring(), 3)):
        report = check_operad_axioms(operad)
        expected = _naive_counts([len(c) for c in operad.carriers], operad.max_arity)
        counts_ok = (
            report.stats["operad.assoc_instances"] == expected["assoc"]
            and report.stats["operad.unit_identity_instances"] == expected["unit"]
            and report.stats["operad.unit_terminal_instances"] == expected["unit"]
        )
        ok = ok and report.ok and counts_ok
        details.append(f"{operad.name}: {report.stats['operad.assoc_instances']} instances")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report_line(1, ok, f"{'; '.join(details)}; {elapsed:.1f}s < 60s")


def test_criterion_2_factorization_uniqueness():
    checked = 0
    ok = True
    for m in range(5):
        for n in range(5):
            for f in all_maps(m, n):
                found = []
                for h in all_permutations(m):
                    g_values = [0] * m
                    for j in range(1, m + 1):
                        g_values[h(j) - 1] = f(j)
                    g = FinMap(m, n, tuple(g_values))
                    if not g.is_monotone:
                        continue
                    order_ok = True
                    for i in range(1, n + 1):
                        images = [h(j) for j in fiber(f, i)]
                        if images != sorted(images):
                            order_ok = False
                            break
                    if order_ok:
                        found.append((g, h))
                checked += 1
                if len(found) != 1 or found[0] != factorize_monotone_perm(f):
                    ok = False
                if fm_compose(*found[0]) != f:
                    ok = False
    report_line(2, ok, f"{checked} maps with m,n <= 4, exactly one factorization each (exact)")


def test_criterion_3_classical_roundtrip():
    start = time.monotonic()
    corpus = make_corpus()
    sizes_ok = (
        corpus.n_objects >= 40
        and corpus.n_1cells >= 60
        and corpus.n_2cells >= 20
        and all(F.index.n_objects <= 3 and F.index.n_morphisms <= 6 for F in corpus.isets)
        and all(v.size <= 3 for F in corpus.isets for v in F.values)
    )
    report = roundtrip_report(corpus)
    elapsed = time.monotonic() - start
    ok = sizes_ok and report.ok and elapsed < 120
    report_line(
        3,
        ok,
        f"{corpus.n_objects} objects, {corpus.n_1cells} 1-cells, {corpus.n_2cells} 2-cells, "
        f"{report.stats.get('roundtrip.naturality_squares', 0)} naturality squares; {elapsed:.1f}s < 120s",
    )


def _z2_comm_omon(max_arity=3):
    from opgroth import fixtures
    from opgroth.omon import omon_from_set_algebra

    comm = build_comm(max_arity)
    ops = {}
    for n in range(max_arity + 1):
        table = {}
        for xs in itertools.product(fixtures.Z2_ELEMENTS, repeat=n):
            acc = "0"
            for x in xs:
                acc = fixtures.Z2_ADD[(acc, x)]
            table[xs] = acc
        ops[(n, "*")] = table
    alg = SetAlgebra(operad=comm, carrier=fixtures.Z2_ELEMENTS, ops=ops, name="Z2C")
    return omon_from_set_algebra(comm, alg, name="Z2C")


def test_criterion_4_coherence_checkers_and_mutations():
    fixtures_list = [
        ("DZ2/Assoc", dz2_assoc_omon(3)),
        ("L2/Comm", l2_comm_omon(3)),
        (
            "DZ2/Assoc restricted along id",
            restrict_along_operad_morphism(
                identity_operad_morphism(build_assoc(3)), dz2_assoc_omon(3), recheck=False
            ),
        ),
        (
            "L2 restricted along Assoc->Comm",
            restrict_along_operad_morphism(
                terminal_morphism(build_assoc(3)), l2_comm_omon(3), recheck=False
            ),
        ),
        (
            "L2 restricted along QConv->Comm",
            restrict_along_operad_morphism(
                terminal_morphism(build_qconv(boolean_semiring(), 3)),
                l2_comm_omon(3),
                recheck=False,
            ),
        ),
        (
            "Z2 restricted along Assoc->Comm",
            restrict_along_operad_morphism(
                terminal_morphism(build_assoc(3)), _z2_comm_omon(3), recheck=False
            ),
        ),
    ]
    ok = True
    mutations_checked = 0
    for label, structure in fixtures_list:
        if not check_omon_category(structure).ok:
            ok = False
            break
        for description, mutated, fragment in omon_single_entry_mutations(structure):
            report = check_omon_category(mutated)
            mutations_checked += 1
            named = any(fragment in r.witness for r in report.records)
            if report.ok or not named:
                ok = False
    report_line(
        4, ok, f"{len(fixtures_list)} fixtures clean, {mutations_checked} mutations all caught with named witnesses"
    )


def test_criterion_5_unbiased_translation():
    ok = True
    for u in (z2_unbiased(3), l2_unbiased(3)):
        ext = extend_unbiased_to_assoc(u)
        if not check_omon_category(ext).ok:
            ok = False
        back = forget_assoc_to_unbiased(ext)
        if back.tensors != u.tensors or back.alpha != u.alpha:
            ok = False
    report_line(5, ok, "forget after extend is the identity on tables; extensions pass the checker")


@pytest.fixture(scope="module")
def o_corpus():
    """The arity-3 structured corpus shared by criteria 6 and 7, with the
    seconds it took to build; criterion 6 counts them against its budget."""
    start = time.monotonic()
    corpus = make_o_corpus(3)
    return corpus, time.monotonic() - start


def test_criterion_6_main_theorem(o_corpus):
    corpus, build_s = o_corpus
    start = time.monotonic()
    grade = grade_laxtoset(3)
    constructed = omon_groth(grade)
    ofib_ok = check_ofib_object(constructed).ok
    base_ok = constructed.base_omon is grade.dom and omons_equal(
        constructed.base_omon, dz2_assoc_omon(3)
    )
    relabel = functor_from_labels(
        constructed.fib.total,
        grade_assoc_omon(3).base,
        {"0.p": "p", "0.q": "q", "1.r": "r"},
        {},
    )
    total_ok = check_strict_omon_iso(
        constructed.total_omon, grade_assoc_omon(3), relabel
    ).ok
    report = omon_roundtrip_check(corpus)
    elapsed = build_s + time.monotonic() - start
    ok = ofib_ok and base_ok and total_ok and report.ok and elapsed < 300
    report_line(
        6,
        ok,
        f"construction of the graded monoid checks; corpus of {len(corpus.laxtosets)} lax objects, "
        f"{len(corpus.ocells)} cells round-trips; {elapsed:.1f}s < 300s",
    )


def test_criterion_7_restriction_functoriality(o_corpus):
    corpus, _ = o_corpus
    report = restriction_report(corpus)
    ok = report.ok and report.stats.get("restriction.pairs", 0) > 0
    report_line(
        7, ok, f"{report.stats.get('restriction.pairs', 0)} (cell, operad morphism) pairs re-validate"
    )


def test_criterion_8_cli_contract():
    def run(argv):
        out = io.StringIO()
        return run_command(argv, out=out), out.getvalue()

    matrix = [
        (["check", str(FIXTURES / "walk.cat")], 0),
        (["check", str(FIXTURES / "grade.laxtoset"), "--section", "GRADE_iset"], 0),
        (["check", str(FIXTURES / "broken_unit.cat")], 1),
        (["check", str(FIXTURES / "broken_syntax.cat")], 2),
        (["check", str(FIXTURES / "incomplete.cat")], 2),
        (["roundtrip", str(FIXTURES / "corpus_small.spec")], 0),
    ]
    ok = all(run(argv)[0] == expected for argv, expected in matrix)

    # jobs invariance of report bytes
    for argv in (
        ["check", str(FIXTURES / "l2.laxtoset")],
        ["roundtrip", str(FIXTURES / "corpus_small.spec")],
    ):
        _, text1 = run(["--jobs", "1"] + argv)
        _, text4 = run(["--jobs", "4"] + argv)
        if text1 != text4:
            ok = False
    report_line(8, ok, f"exit-code matrix of {len(matrix)} runs and --jobs byte-invariance hold")
