import hashlib
import io
from collections import Counter
import pathlib
from types import SimpleNamespace

import pytest

import opgroth.groth
import opgroth.ogroth
from opgroth import fixtures
from opgroth.cli import run_command
from opgroth.fincore import CatFunctor, NatTransform, functor_from_labels, identity_functor, identity_nat, terminal_map
from opgroth.fib2cat import (
    DFib2Cell,
    DFibCell,
    DiscreteFibration,
    FinFunction,
    FinSet,
    IndexedSet,
    ISet2Cell,
    ISetCell,
    fn_compose,
    identity_fibration,
    iset_from_tables,
)
from opgroth.groth import groth_apply, make_corpus, roundtrip_report
from opgroth.omon import (
    LaxOMonFunctor,
    LaxSetFunctor,
    OMonCategory,
    check_lax_omon_functor,
    check_omon_category,
    check_strict_omon_iso,
    dz2_assoc_omon,
    extend_unbiased_to_assoc,
    grade_assoc_omon,
    l2_comm_omon,
    omon_copy,
    omon_single_entry_mutations,
    twisted_bz2_unbiased,
)
from opgroth.ogroth import (
    O2Cell,
    OCell,
    OFib2Cell,
    OFibObject,
    check_laxtoset,
    check_o2cell,
    check_ofib_2cell,
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
    ofib_cell_compose,
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
    # every failure is a coherence square, named at the square it breaks
    assert {(r.check, r.where) for r in report.records} == {("laxtoset.coherence", "bad:bad")}
    assert len(report.records) == 164
    assert [r.witness for r in report.records[:3]] == [
        "coherence square fails at phi[f=[2,1],p=[1,2],q=([1],[1]),A=(1,1)]",
        "coherence square fails at phi[f=[2,1],p=[2,1],q=([1],[1]),A=(1,1)]",
        "coherence square fails at phi[f=[1,1,2],p=[1,2],q=([1,2],[1]),A=(0,1,1)]",
    ]
    assert report.info["classification"] == "lax"


# ------------------------------------------------- witnesses of the lax laws


@pytest.fixture(scope="module")
def corpus3():
    return make_o_corpus(3)


def _records(report):
    return [(r.check, r.where, r.witness) for r in report.records]


def _identity_lax(corpus, name):
    """The index lax functor of the identity cell on the named corpus object."""
    cell = next(c for c in corpus.ocells if c.dom.name == name and c.cod is c.dom
                and c.functor == identity_functor(c.dom.dom.base))
    return cell.index_lax()


def test_clean_lax_functors_report_classification_and_counts(corpus3):
    report = check_lax_omon_functor(_identity_lax(corpus3, "L2FAM"))
    assert report.ok
    assert report.stats == {
        "functor.composition_instances": 4,
        "laxfun.xi_instances": 15,
        "laxfun.xi_naturality_instances": 40,
        "laxfun.coherence_instances": 360,
    }
    assert report.info == {"classification": "strict"}

    x = next(y for y in corpus3.laxtosets if y.name == "L2FAM")
    report = check_lax_omon_functor(x)
    assert report.ok
    assert report.stats == {
        "iset.composition_instances": 4,
        "laxtoset.nu_instances": 15,
        "laxtoset.nu_naturality_instances": 40,
        "laxtoset.coherence_instances": 360,
    }
    assert report.info == {"classification": "lax"}


def test_table_lax_witnesses(corpus3):
    # typing: a component with the wrong endpoints; the squares through it
    # cannot compose and are reported as missing
    lax = _identity_lax(corpus3, "QPROJ")
    bad = LaxOMonFunctor(lax.dom, lax.cod, lax.functor, {(3, "(1,1,1)", (0, 0, 0)): 1}, name="bad")
    assert _records(check_lax_omon_functor(bad)) == [
        ("laxfun.xi_typing", "bad", "xi[p=(1,1,1),A=(0,0,0)] has wrong endpoints")
    ] + [("laxfun.coherence_missing", "bad", "'no composition entry for (id_0, id_1)'")] * 13

    lax = _identity_lax(corpus3, "L2FAM")
    base = lax.dom.base
    le = base.mor_index("le_0_1")
    # naturality: the source tensor sends (id_0, id_0) to a non-identity,
    # which only the naturality pass reads
    dom = omon_copy(lax.dom)
    dom.tensors[(2, "*")].mor[(base.id_of(0), base.id_of(0))] = le
    bad = LaxOMonFunctor(dom, lax.cod, lax.functor, {}, name="bad")
    assert _records(check_lax_omon_functor(bad)) == [
        ("laxfun.xi_naturality", "bad", "xi[p=*,A=(id_0,id_0)] breaks naturality")
    ]
    # coherence: a non-identity structure isomorphism in the source
    dom = omon_copy(lax.dom)
    dom.phi[(terminal_map(2), "*", ("*",), (0, 0))] = le
    bad = LaxOMonFunctor(dom, lax.cod, lax.functor, {}, name="bad")
    assert _records(check_lax_omon_functor(bad)) == [
        ("laxfun.coherence", "bad", "coherence square fails at phi[f=[1,1],p=*,q=(*),A=(0,0)]")
    ]


def test_set_lax_witnesses(corpus3):
    x = next(y for y in corpus3.laxtosets if y.name == "L2FAM")
    base = x.dom.base
    le = base.mor_index("le_0_1")
    # typing: a comparison function into the wrong fiber
    src, _ = x.nu_sets(3, "*", (0, 0, 0))
    nu = dict(x.nu)
    nu[(3, "*", (0, 0, 0))] = FinFunction(src, x.iset.values[1], (0,))
    bad = LaxSetFunctor(x.dom, x.iset, nu, name="bad")
    assert _records(check_lax_omon_functor(bad)) == [
        ("laxtoset.nu_typing", "bad", "nu[p=*,i=(0,0,0)] has wrong dom/cod")
    ] + [("laxtoset.coherence_missing", "bad", "functions not composable")] * 36
    # naturality and coherence, through the same source corruptions as above
    dom = omon_copy(x.dom)
    dom.tensors[(2, "*")].mor[(base.id_of(0), base.id_of(0))] = le
    bad = LaxSetFunctor(dom, x.iset, x.nu, name="bad")
    assert _records(check_lax_omon_functor(bad)) == [
        ("laxtoset.nu_naturality", "bad", "nu[p=*,i=(id_0,id_0)] breaks naturality")
    ]
    dom = omon_copy(x.dom)
    dom.phi[(terminal_map(2), "*", ("*",), (0, 0))] = le
    bad = LaxSetFunctor(dom, x.iset, x.nu, name="bad")
    assert _records(check_lax_omon_functor(bad)) == [
        ("laxtoset.coherence", "bad", "coherence square fails at phi[f=[1,1],p=*,q=(*),A=(0,0)]")
    ]


def test_set_lax_singleton_lemma_needs_each_condition():
    # The set target proves a coherence square without evaluating it when
    # every leg is present and typed, phi runs from T_rho A to T_p B, and
    # F(T_p B) has one element.  Each case breaks one condition at an
    # instance that meets the others, and keeps the records of the plain
    # per-instance loop.
    x = l2_laxtoset(2)
    le = x.dom.base.mor_index("le_0_1")

    def with_nu(key, fn):
        nu = dict(x.nu)
        if fn is None:
            del nu[key]
        else:
            nu[key] = fn
        return LaxSetFunctor(x.dom, x.iset, nu, name="bad")

    # phi at A=(0,0) runs to 1, not to T_p B = 0, whose set {s} is a point
    dom = omon_copy(x.dom)
    dom.phi[(terminal_map(2), "*", ("*",), (0, 0))] = le
    assert _records(check_lax_omon_functor(LaxSetFunctor(dom, x.iset, x.nu, name="bad"))) == [
        ("laxtoset.coherence", "bad", "coherence square fails at phi[f=[1,1],p=*,q=(*),A=(0,0)]")
    ]
    # the nullary leg, a block of the square at f=[1], A=(0), into the point
    # F(T(0, 1)), is missing, then typed into the wrong fiber
    src, _ = x.nu_sets(0, "*", ())
    assert _records(check_lax_omon_functor(with_nu((0, "*", ()), None))) == [
        ("laxtoset.nu_missing", "bad", "nu[p=*,i=()] has no entry")
    ] + [("laxtoset.coherence_missing", "bad", "nu[p=*,i=()]")] * 15
    assert _records(check_lax_omon_functor(with_nu((0, "*", ()), FinFunction(src, x.iset.values[0], (0,))))) == [
        ("laxtoset.nu_typing", "bad", "nu[p=*,i=()] has wrong dom/cod")
    ] + [("laxtoset.coherence_missing", "bad", "functions not composable")] * 15
    # every leg typed and natural, but the top set {a, b} has two elements
    src, tgt = x.nu_sets(2, "*", (1, 1))
    assert _records(check_lax_omon_functor(with_nu((2, "*", (1, 1)), FinFunction(src, tgt, (1, 1, 1, 1))))) == [
        ("laxtoset.coherence", "bad", f"coherence square fails at phi[f={f},p=*,q=(*,*),A={a}]")
        for f, a in (("[]", "()"), ("[1]", "(1)"), ("[2]", "(1)"))
    ]
    # F(id_0) runs from the point F(0) into {a, b}, so F(phi) at A=(0,0)
    # does not run into F(T_p B): the misaligned action stops the check
    # before any coherence square
    actions = list(x.iset.actions)
    actions[x.dom.base.mor_index("id_0")] = FinFunction(x.iset.values[0], FinSet(("a", "b")), (0,))
    iset = IndexedSet(x.iset.index, x.iset.values, tuple(actions), name=x.iset.name)
    assert _records(check_lax_omon_functor(LaxSetFunctor(x.dom, iset, x.nu, name="bad"))) == [
        ("iset.alignment", "bad", "action of id_0 has wrong dom/cod")
    ]


def test_set_lax_names_an_object_tuple_whose_product_labels_clash():
    # (x, "x,x") and ("x,x", x) are both labelled (x,x,x) in F(0) x F(0):
    # a structural record, not a traceback from building that product
    x = l2_laxtoset(2)
    iset = iset_from_tables(x.dom.base, {"0": ["x", "x,x"], "1": ["y"]}, {"le_0_1": {"x": "y", "x,x": "y"}}, name="CLASH")
    report = check_lax_omon_functor(LaxSetFunctor(x.dom, iset, {}, name="clash"))
    assert _records(report) == [
        ("laxtoset.product", "clash", "the product of the sets at (0,0) has duplicate element labels")
    ]


def _twisted():
    """The twisted one-object group structure with its flip morphism: a
    base where a component can change without leaving naturality."""
    tw = extend_unbiased_to_assoc(twisted_bz2_unbiased(3))
    return tw, tw.base.mor_index("1")


_FLIP_SQUARES = [
    "transformation square fails at xi[p=[],A=()]",
    "transformation square fails at xi[p=[1,2],A=(pt,pt)]",
    "transformation square fails at xi[p=[2,1],A=(pt,pt)]",
]


def test_o2cell_square_witness():
    tw, flip = _twisted()
    cell = identity_ocell(trivial_laxtoset(tw, name="TRIVTW"))
    report = check_o2cell(O2Cell(cell, cell, identity_nat(cell.functor)))
    assert report.ok
    assert report.stats == {
        "iset2.compat_instances": 1,
        "nattrans.naturality_instances": 2,
        "o2cell.square_instances": 10,
    }
    bad = O2Cell(cell, cell, NatTransform(cell.functor, cell.functor, (flip,)), name="bad")
    assert _records(check_o2cell(bad)) == [("o2cell.square", "bad", w) for w in _FLIP_SQUARES]


def test_ofib_2cell_square_witnesses():
    tw, flip = _twisted()
    cell = identity_ofib_cell(identity_ofib(tw, name="idTW"))
    report = check_ofib_2cell(
        OFib2Cell(cell, cell, identity_nat(cell.top), identity_nat(cell.bottom))
    )
    assert report.ok
    assert report.stats == {
        "dfib2.whisker_instances": 1,
        "nattrans.naturality_instances": 4,
        "ofib2cell.square_instances": 20,
    }
    t = NatTransform(cell.top, cell.top, (flip,))
    assert _records(check_ofib_2cell(OFib2Cell(cell, cell, t, t, name="bad"))) == [
        ("ofib2cell.square", "bad", f"{tag} {w}") for tag in ("top", "bottom") for w in _FLIP_SQUARES
    ]


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


# sha256 of the rendered report, and the records by check name
STRICTNESS_PINS = {
    "tensors not preserved": (
        "7c61774af900928b2fb04ece4aa844b20dfde9c5262d05b835e230d09834ac7b",
        {"ofib.strict_tensor": 18, "ofib.strict_phi": 60},
    ),
    "explicit total phi": ("b5ff6748e4cd882d95c0dc853574ee40a9169a8cbeace59116551e2a4b5a0e8a", {"ofib.strict_phi": 290}),
    "explicit base phi": ("75b527295b85670a01ca015808e0b142d596ef6a5dacb5cf74e4d4f7ac0a7ba5", {"ofib.strict_phi": 290}),
}


def test_strict_preservation_records_are_pinned():
    # Projections between clean structures that break strictness at keys
    # with no explicit structure-iso entry: the swap of DZ2, which moves
    # every tensor of an odd number of objects and so every structure
    # isomorphism there; and the identity between the twisted one-object
    # group and the strict structure on its tensors, either way round,
    # which differ exactly at the explicit entries.
    dz2 = dz2_assoc_omon(MAX_ARITY)
    swap = CatFunctor(dz2.base, dz2.base, (1, 0), (dz2.base.id_of(1), dz2.base.id_of(0)))
    tw, _ = _twisted()
    strict = OMonCategory(operad=tw.operad, base=tw.base, tensors=tw.tensors, name="STRICT")
    assert check_omon_category(strict).ok and check_omon_category(tw).ok and tw.phi
    cases = {
        "tensors not preserved": OFibObject(DiscreteFibration(swap), dz2, dz2, name="SWAP"),
        "explicit total phi": OFibObject(identity_fibration(tw.base), tw, strict, name="TW>S"),
        "explicit base phi": OFibObject(identity_fibration(tw.base), strict, tw, name="S>TW"),
    }
    got = {}
    for what, y in cases.items():
        report = check_ofib_object(y)
        got[what] = (hashlib.sha256(report.render().encode()).hexdigest(), dict(Counter(r.check for r in report.records)))
    assert got == STRICTNESS_PINS


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


def test_cell_square_names_a_product_with_duplicate_labels():
    # the sets at 0 and 1 multiply to two elements labelled (a,b,c), so no
    # comparison at (0, 1) can be built; every other default is missing
    index = l2_comm_omon(MAX_ARITY)
    iset = iset_from_tables(index.base, {"0": ["a", "a,b"], "1": ["b,c", "c"]}, {"le_0_1": {"a": "c", "a,b": "b,c"}})
    report = check_ocell(identity_ocell(LaxSetFunctor(dom=index, iset=iset, name="DUP")))
    assert report.stats["ocell.square_instances"] == 7
    assert [(r.check, r.witness) for r in report.records] == [
        ("ocell.missing", "nu[p=*,i=()]"),
        ("ocell.missing", "nu[p=*,i=(0,0)]"),
        ("ocell.missing", "duplicate element labels"),
        ("ocell.missing", "nu[p=*,i=(1,0)]"),
        ("ocell.missing", "nu[p=*,i=(1,1)]"),
    ]


def test_cells_compose_only_over_equal_comparisons():
    # a copy of GRADE that lacks one comparison entry has GRADE's structure
    # and indexed set, but it is another lax functor
    grade = make_o_corpus(MAX_ARITY).laxtosets[0]
    key = next(iter(grade.nu))
    cut = LaxSetFunctor(dom=grade.dom, iset=grade.iset, nu={k: v for k, v in grade.nu.items() if k != key}, name="Y")
    with pytest.raises(ValueError, match="cells not composable"):
        ocell_compose(identity_ocell(cut), identity_ocell(grade))
    copy = LaxSetFunctor(dom=grade.dom, iset=grade.iset, nu=dict(grade.nu), name="COPY")
    composite = ocell_compose(identity_ocell(copy), identity_ocell(grade))
    assert (composite.dom, composite.cod) == (grade, copy)


def test_structured_fibration_cells_compose_only_over_equal_objects():
    # idDZ2's fibration under each shipped single-entry mutation of its
    # structure, on both sides: not the object idDZ2, so no composite
    y = make_o_corpus(MAX_ARITY).ofibs[3]
    assert y.name == "idDZ2"
    for what, mutated, _ in omon_single_entry_mutations(y.total_omon):
        z = OFibObject(fib=y.fib, total_omon=mutated, base_omon=mutated, name="MUT")
        with pytest.raises(ValueError, match="cells not composable"):
            ofib_cell_compose(identity_ofib_cell(z), identity_ofib_cell(y))
    copy = OFibObject(fib=y.fib, total_omon=omon_copy(y.total_omon), base_omon=omon_copy(y.base_omon), name="COPY")
    composite = ofib_cell_compose(identity_ofib_cell(copy), identity_ofib_cell(y))
    assert (composite.dom, composite.cod) == (y, copy)


def test_full_o_corpus_roundtrip_small():
    corpus = make_o_corpus(MAX_ARITY)
    report = omon_roundtrip_check(corpus)
    assert report.ok, report.render()


# sha256 of the bytes of the structured round trip: the rendered report of
# omon_roundtrip_check(make_o_corpus(2)), and the stdout of
# `oroundtrip fixtures/corpus_omon.spec` in text and JSON (run from the
# repository root, as the source path is a note of the report)
ROUNDTRIP_PINS = {
    "corpus(2)": "7d6e69970eb623ef572a93c755b9c0faa1c9fb2791a7a7a3376f749768744a7b",
    "text": "7c7b2d02bd74fc0b7f9aa041a2552ef1134adb9327d9342335c6f5278d751074",
    "json": "a4d59a1d8ba45d92b61a649afbe1ac78ed56f16772a050516ed9c9c063b59886",
}


def test_roundtrip_report_bytes_are_pinned(monkeypatch):
    monkeypatch.delenv("OPGROTH_MAX_ARITY", raising=False)
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    got = {"corpus(2)": hashlib.sha256(omon_roundtrip_check(make_o_corpus(2)).render().encode()).hexdigest()}
    for mode in ("text", "json"):
        out = io.StringIO()
        assert run_command(["--report", mode, "oroundtrip", "fixtures/corpus_omon.spec"], out=out) == 0
        got[mode] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == ROUNDTRIP_PINS


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

    monkeypatch.setattr(opgroth.ogroth, "restrict_along_operad_morphism", restrict)
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


def test_omon_memo_never_reuses_a_report_for_another_structure(monkeypatch):
    # the round trip's memo sees temporary structures that are dropped in
    # turn; a memo keyed on bare id() would hand a later one an earlier report
    def check(structure, *, memo=None):
        report = CheckReport()
        report.violation("probe.checked", structure.tag)
        return report

    monkeypatch.setattr(opgroth.ogroth, "check_omon_category", check)
    memo = {}
    seen = [
        opgroth.ogroth._checked_omon(memo, SimpleNamespace(tag=f"c{k}")).records[0].witness
        for k in range(8)
    ]
    assert seen == [f"c{k}" for k in range(8)]


def test_lax_memo_gives_each_lax_functor_its_own_report(monkeypatch):
    # lax functors over one structure that differ only in one comparison
    # entry, in on_mor or in the name each get their own check inside one
    # memo; an equal one built anew, functor included, reuses the report
    calls = []

    def check(L, *, memo=None):
        calls.append(L)
        report = CheckReport()
        report.violation("probe.checked", repr((sorted(L.xi.items()), L.functor.on_mor, L.name)))
        return report

    monkeypatch.setattr(opgroth.ogroth, "_check_table_lax", check)
    c = extend_unbiased_to_assoc(twisted_bz2_unbiased(3))
    ident = identity_functor(c.base)
    unit, flip = c.base.id_of(0), c.base.mor_index("1")
    flat = CatFunctor(c.base, c.base, ident.on_obj, (unit,) * c.base.n_morphisms)
    given = dict(dom=c, cod=c, functor=ident, xi={(0, "[]", ()): unit}, name="L")
    variants = [given, {**given, "xi": {(0, "[]", ()): flip}}, {**given, "functor": flat}, {**given, "name": "M"}]
    memo = {}
    seen = [opgroth.ogroth._checked_lax(memo, LaxOMonFunctor(**v)).records[0].witness for v in variants]
    assert len(set(seen)) == len(calls) == 4
    again = LaxOMonFunctor(**{**given, "functor": identity_functor(c.base), "xi": dict(given["xi"])})
    assert opgroth.ogroth._checked_lax(memo, again).records[0].witness == seen[0]
    assert len(calls) == 4


def test_construction_memo_never_hands_a_lax_object_another_ones_construction(monkeypatch):
    # lax objects built and dropped in turn, as the backward round trip
    # does with its transposes: each gets its own construction, and its
    # total structure its own report
    def check(structure, *, memo=None):
        report = CheckReport()
        report.violation("probe.checked", structure.name)
        return report

    x = l2_laxtoset(1)
    point, top = x.nu[0, "*", ()].dom, x.iset.values[1]
    monkeypatch.setattr(opgroth.ogroth, "check_omon_category", check)
    memo = {}
    for k in range(8):
        nu = {(0, "*", ()): FinFunction(point, top, (k % 2,))}
        y = omon_groth(LaxSetFunctor(dom=x.dom, iset=x.iset, nu=nu, name=f"x{k}"), memo=memo)
        fresh = omon_groth(LaxSetFunctor(dom=x.dom, iset=x.iset, nu=nu, name=f"x{k}"))
        assert y.name == f"int[x{k}]" and y.total_omon.tensors == fresh.total_omon.tensors
        report = check_ofib_object(y, memo=memo)
        assert [(r.where, r.witness) for r in report.records] == [
            (f"int[x{k}]:total", f"int[x{k}]"),
            (f"int[x{k}]:base", x.dom.name),
        ]
        del y, fresh


def test_structured_cells_keep_no_classical_wrapper_on_the_memo():
    # the classical cell a structured cell or 2-cell wraps is built for one
    # call: its square reads the end objects through the memo and takes no
    # entry of its own
    corpus = make_o_corpus(2)
    memo = {}
    for cell in corpus.ocells + corpus.o2cells:
        omon_transpose(omon_groth(cell, memo=memo), memo=memo)
    kept = [entry[0] for entry in memo.values()]
    assert kept and not any(isinstance(k, (ISetCell, ISet2Cell, DFibCell, DFib2Cell)) for k in kept)


def test_round_trips_reach_every_step_by_its_public_name(monkeypatch):
    # a wrapper rebound on a module attribute, as a tracer installs it,
    # sees every memoised step of both round trips, and the reports stay
    # those of an unwrapped run
    ocorpus = make_o_corpus(MAX_ARITY)
    corpus = make_corpus(seed=11, n_isets=9, n_iset_cells=5, n_2cells=3)
    expected = [omon_roundtrip_check(ocorpus), roundtrip_report(corpus)]
    steps = {
        opgroth.ogroth: ("check_ocell", "check_ofib_cell", "check_ofib_object", "omon_groth", "omon_transpose"),
        opgroth.groth: (
            "groth_apply", "transpose_apply", "phi_component", "phi_inverse", "psi_component", "psi_inverse",
        ),
    }
    calls = {name: 0 for names in steps.values() for name in names}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, names in steps.items():
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    got = [omon_roundtrip_check(ocorpus), roundtrip_report(corpus)]
    assert all(calls.values()), calls
    assert [(r.records, r.stats) for r in got] == [(r.records, r.stats) for r in expected]


def test_round_trip_reports_a_broken_cell_at_its_own_place():
    # the broken cell shares its lax objects and index functor with the
    # identity cell before it, so its records come through the memo
    corpus = make_o_corpus(MAX_ARITY)
    grade = corpus.laxtosets[0]
    ident = identity_ocell(grade)
    squash = FinFunction(grade.iset.values[0], grade.iset.values[0], (0, 0))
    broken = OCell(dom=grade, cod=grade, functor=ident.functor, mu=(squash,) + ident.mu[1:], name="broken")
    corpus.ocells.append(broken)
    report = omon_roundtrip_check(corpus)
    expected = CheckReport()
    expected.merge(check_ocell(broken), where="broken")
    expected.merge(check_ofib_cell(omon_groth(broken)), where="int[broken]")
    assert report.records == expected.records
    assert [(r.check, r.witness) for r in report.records if r.where == "broken:broken"] == [
        ("ocell.square", "comparison square fails at nu[p=[1,2],i=(1,1)]"),
        ("ocell.square", "comparison square fails at nu[p=[2,1],i=(1,1)]"),
    ]


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
