from types import SimpleNamespace

import pytest

import opgroth.ogroth
import opgroth.omon
from opgroth import fixtures
from opgroth.fincore import functor_from_labels, identity_functor
from opgroth.fib2cat import fn_compose
from opgroth.groth import groth_apply
from opgroth.omon import check_omon_category, check_strict_omon_iso, grade_assoc_omon
from opgroth.ogroth import (
    OCell,
    check_laxtoset,
    check_ocell,
    check_ofib_cell,
    check_ofib_object,
    enumerate_ocells,
    grade_laxtoset,
    identity_ocell,
    identity_ofib,
    identity_ofib_cell,
    l2_laxtoset,
    make_o_corpus,
    ocell_compose,
    ocell_equal,
    ofib_cell_equal,
    omon_groth,
    omon_roundtrip_check,
    omon_transpose,
    phi_ocell,
    phi_ocell_inverse,
    product_laxtoset,
    product_ofib,
    qconv_proj_laxtoset,
    restriction_report,
    trivial_laxtoset,
)
from opgroth.operads import build_comm
from opgroth.report import CheckReport

MAX_ARITY = 2  # module-level tests run at truncation 2; acceptance runs 3


def test_grade_laxtoset_validates():
    report = check_laxtoset(grade_laxtoset(MAX_ARITY))
    assert report.ok
    assert report.info["classification"] == "lax"


def test_grade_nu_corruption_breaks_coherence():
    # redirecting (r, r) from q to p is exactly where graded associativity fails
    x = grade_laxtoset(3)
    key = (2, "[1,2]", (1, 1))
    fn = x.nu[key]
    assert fn("(r,r)") == "q"
    broken_nu = dict(x.nu)
    broken_nu[key] = type(fn)(fn.dom, fn.cod, (fn.cod.index("p"),))
    bad = type(x)(dom=x.dom, iset=x.iset, nu=broken_nu, name="bad")
    report = check_laxtoset(bad)
    assert not report.ok
    assert any(r.check == "laxtoset.coherence" for r in report.records)


def test_identity_ofib_validates():
    from opgroth.omon import dz2_assoc_omon

    x = identity_ofib(dz2_assoc_omon(MAX_ARITY))
    assert check_ofib_object(x).ok


def test_groth_of_grade_is_the_graded_monoid():
    x = grade_laxtoset(MAX_ARITY)
    y = omon_groth(x)
    assert check_ofib_object(y).ok
    # base structure is untouched
    assert y.base_omon is x.dom
    # total is the three-element monoid as a strict discrete structure
    expected = grade_assoc_omon(MAX_ARITY)
    relabel = functor_from_labels(
        y.fib.total,
        expected.base,
        {"0.p": "p", "0.q": "q", "1.r": "r"},
        {},
    )
    assert check_strict_omon_iso(y.total_omon, expected, relabel).ok


def test_groth_underlying_fibration_is_the_classical_one():
    for make in (grade_laxtoset, l2_laxtoset):
        x = make(MAX_ARITY)
        y = omon_groth(x)
        assert y.fib == groth_apply(x.iset)


def test_perturbed_total_tensor_fails_strictness():
    x = grade_laxtoset(MAX_ARITY)
    y = omon_groth(x)
    p2 = y.total_omon.operad.elements(2)[0]
    table = y.total_omon.tensors[(2, p2)]
    table.obj[(0, 0)] = (table.obj[(0, 0)] + 1) % y.fib.total.n_objects
    report = check_ofib_object(y)
    assert not report.ok


def test_transpose_recovers_grade_tables():
    x = grade_laxtoset(MAX_ARITY)
    y = omon_groth(x)
    back = omon_transpose(y)
    assert check_laxtoset(back).ok
    phi = phi_ocell(x, back)
    assert check_ocell(phi).ok
    # comparison tables agree after relabeling through phi
    for (n, p, objs), fn in x.nu.items():
        fn_back = back.nu_at(n, p, objs)
        src_relabel = [phi.mu[a] for a in objs]
        # elementwise: transport x-inputs to back-inputs and compare outputs
        for idx in range(fn.dom.size):
            out_x = fn.cod.labels[fn.mapping[idx]]
            out_back = fn_back.cod.labels[fn_back.mapping[idx]]
            assert phi.mu[x.dom.tensor_obj(n, p, objs)](out_back) == out_x


def test_constant_singleton_gives_iso_projection():
    from opgroth.omon import dz2_assoc_omon

    x = trivial_laxtoset(dz2_assoc_omon(MAX_ARITY))
    y = omon_groth(x)
    assert check_ofib_object(y).ok
    assert y.fib.total.n_objects == y.fib.base.n_objects


def test_l2_family_roundtrip():
    x = l2_laxtoset(MAX_ARITY)
    y = omon_groth(x)
    assert check_ofib_object(y).ok
    back = omon_transpose(y)
    phi = phi_ocell(x, back)
    inv = phi_ocell_inverse(x, back)
    assert check_ocell(phi).ok
    assert check_ocell(inv).ok
    assert ocell_equal(ocell_compose(phi, inv), identity_ocell(x))


def test_product_of_grade_ofibs_has_coordinatewise_nu():
    x = grade_laxtoset(MAX_ARITY)
    y = omon_groth(x)
    prod = product_ofib(y, y)
    assert check_ofib_object(prod).ok
    back = omon_transpose(prod)
    assert check_laxtoset(back).ok
    # arity-2 comparison at ((0,0),(0,0)): coordinatewise graded product
    p2 = back.dom.operad.elements(2)[0]
    i00 = back.dom.base.obj_index("(0,0)")
    fn = back.nu_at(2, p2, (i00, i00))
    qq = fn.dom.index("((0.p,0.p),(0.q,0.q))")
    assert fn.cod.labels[fn.mapping[qq]] == "(0.q,0.q)"


def test_product_laxtoset_matches_product_ofib_transpose():
    x = grade_laxtoset(MAX_ARITY)
    prod_lax = product_laxtoset(x, x)
    assert check_laxtoset(prod_lax).ok
    y = omon_groth(prod_lax)
    assert check_ofib_object(y).ok


def test_qconv_family_validates():
    x = qconv_proj_laxtoset(MAX_ARITY)
    assert check_laxtoset(x).ok
    y = omon_groth(x)
    assert check_ofib_object(y).ok
    # no nullary operations: the quasi-convexity operad has an empty
    # arity-0 carrier, so no unit objects are required anywhere
    assert len(x.dom.operad.elements(0)) == 0


def test_enumerated_cells_include_nontrivial_ones():
    x = l2_laxtoset(MAX_ARITY)
    t = trivial_laxtoset(x.dom)
    cells = enumerate_ocells(t, x, cap=3)
    assert cells
    for c in cells:
        assert check_ocell(c).ok


def test_ocell_composition_functorial_under_groth():
    x = grade_laxtoset(MAX_ARITY)
    idc = identity_ocell(x)
    assert ocell_equal(ocell_compose(idc, idc), idc)
    image = omon_groth(idc)
    assert ofib_cell_equal(image, identity_ofib_cell(omon_groth(x)))


def test_full_o_corpus_roundtrip_small():
    corpus = make_o_corpus(MAX_ARITY)
    report = omon_roundtrip_check(corpus)
    assert report.ok, report.render()


def test_restriction_report_small():
    corpus = make_o_corpus(MAX_ARITY)
    report = restriction_report(corpus)
    assert report.ok, report.render()
    assert report.stats["restriction.pairs"] > 0


def test_restriction_report_never_reuses_a_report_for_another_structure(monkeypatch):
    # Each restricted structure is built, checked and dropped in turn, so
    # CPython hands a later structure the address of an earlier one; a
    # cache keyed on bare id() would then merge the earlier report.
    operad = build_comm(1)

    def restrict(h, x, recheck=True):
        return SimpleNamespace(dom=SimpleNamespace(tag=x.name))

    def check(structure):
        report = CheckReport()
        report.violation("probe.checked", structure.tag)
        return report

    monkeypatch.setattr(opgroth.omon, "restrict_along_operad_morphism", restrict)
    monkeypatch.setattr(opgroth.ogroth, "check_omon_category", check)
    monkeypatch.setattr(opgroth.ogroth, "_check_set_lax", lambda restricted: CheckReport())
    names = [f"x{k}" for k in range(8)]
    corpus = SimpleNamespace(
        operad_morphisms=[SimpleNamespace(cod=operad, name="h")],
        laxtosets=[SimpleNamespace(name=x, dom=SimpleNamespace(operad=operad)) for x in names],
        ocells=[],
    )
    report = restriction_report(corpus)
    assert [(r.where, r.witness) for r in report.records] == [(f"{x}|h:index", x) for x in names]


def test_corrupted_corpus_object_fails_before_roundtrip():
    from opgroth.ogroth import OCorpus

    x = grade_laxtoset(MAX_ARITY)
    key = (2, "[1,2]", (1, 1))
    fn = x.nu[key]
    broken_nu = dict(x.nu)
    broken_nu[key] = type(fn)(fn.dom, fn.cod, (fn.cod.index("p"),))
    bad = type(x)(dom=x.dom, iset=x.iset, nu=broken_nu, name="bad")
    corpus = OCorpus(laxtosets=[bad], params={})
    report = omon_roundtrip_check(corpus)
    assert not report.ok
    # validation fails before any round trip runs
    assert report.stats.get("oroundtrip.groth_objects", 0) == 0
