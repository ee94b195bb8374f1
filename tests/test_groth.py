import hashlib
import io
import json
import pathlib
import weakref
from dataclasses import replace

from opgroth import fixtures
from opgroth.cli import run_command
from opgroth.dsl import parse_spec_file
from opgroth.fincore import validate_category
from opgroth.fib2cat import (
    DiscreteFibration,
    FinFunction,
    check_discrete_fibration,
    constant_singleton,
    dfib_cell_compose,
    identity_dfib_cell,
    identity_fibration,
    identity_iset_cell,
    iset_cell_compose,
    iset_from_tables,
    lift,
    product_dfib,
    validate_dfib_cell,
    validate_indexed_set,
    validate_iset_cell,
)
from opgroth.groth import (
    generate_cells,
    groth_apply,
    groth_product_comparison,
    make_corpus,
    phi_component,
    phi_inverse,
    psi_component,
    psi_inverse,
    roundtrip_report,
    transpose_apply,
    transpose_product_comparison,
)
from testkit import bgrade


def grade_over_dz2():
    return iset_from_tables(
        fixtures.dz2(), {"0": ["p", "q"], "1": ["r"]}, {}, name="gradeF"
    )


def discrete_family():
    # Y = {1, 2} with X_1 = {a}, X_2 = {b, c}
    from opgroth.fincore import discrete_category

    idx = discrete_category("Y", ["1", "2"])
    return iset_from_tables(idx, {"1": ["a"], "2": ["b", "c"]}, {}, name="family")


# ------------------------------------------------------------- construction


def test_groth_of_discrete_family():
    fib = groth_apply(discrete_family())
    assert fib.total.n_objects == 3
    assert check_discrete_fibration(fib).ok
    sizes = {}
    for c in range(fib.total.n_objects):
        sizes.setdefault(fib.proj.on_obj[c], 0)
        sizes[fib.proj.on_obj[c]] += 1
    assert sorted(sizes.values()) == [1, 2]


def test_groth_of_constant_singleton_is_iso_projection():
    w = fixtures.walk()
    fib = groth_apply(constant_singleton(w))
    assert fib.total.n_objects == w.n_objects
    assert fib.total.n_morphisms == w.n_morphisms
    assert validate_category(fib.total).ok
    assert check_discrete_fibration(fib).ok


def test_groth_of_grade_indexed_set():
    fib = groth_apply(grade_over_dz2())
    assert fib.total.objects == ("0.p", "0.q", "1.r")
    assert check_discrete_fibration(fib).ok
    # discrete base, discrete total
    assert fib.total.n_morphisms == 3


def test_lift_along_graded_action():
    # the degree-graded two-element set over the graded monoid: lifting the
    # base morphism r from (pt, 0) is the multiplication arrow to (pt, 1)
    bg = bgrade()
    action = {
        m: {x: fixtures.Z2_ADD[(x, fixtures.GRADE_DEGREE[m])] for x in ("0", "1")}
        for m in ("q", "r")
    }
    F = iset_from_tables(bg, {"pt": ["0", "1"]}, action, name="degree")
    assert validate_indexed_set(F).ok
    fib = groth_apply(F)
    assert check_discrete_fibration(fib).ok
    c = fib.total.obj_index("pt.0")
    lifted = lift(fib, c, bg.mor_index("r"))
    assert fib.total.mor_labels[lifted] == "r@pt.0"
    assert fib.total.objects[fib.total.mor_tgt[lifted]] == "pt.1"


# ------------------------------------------------------------- transpose


def test_transpose_of_identity_fibration_is_constant_singleton():
    w = fixtures.walk()
    F = transpose_apply(identity_fibration(w))
    assert validate_indexed_set(F).ok
    assert all(v.size == 1 for v in F.values)


def test_transpose_recovers_value_sizes():
    fib = groth_apply(discrete_family())
    F = transpose_apply(fib)
    assert sorted(v.size for v in F.values) == [1, 2]


def test_transpose_of_product_projection_is_constant():
    # WALK x X -> WALK: the first projection functor is a discrete fibration
    w = fixtures.walk()
    from opgroth.fincore import discrete_category, product_category

    x_cat = discrete_category("X", ["x1", "x2", "x3"])
    prod = product_category([w, x_cat])
    p = DiscreteFibration(prod.projections[0])
    assert check_discrete_fibration(p).ok
    F = transpose_apply(p)
    assert validate_indexed_set(F).ok
    assert all(v.size == 3 for v in F.values)
    # every action is a bijection since lifts pair with identities
    for m in range(F.index.n_morphisms):
        assert sorted(F.actions[m].mapping) == [0, 1, 2]


# ------------------------------------------------------------- phi and psi


def test_phi_on_constant_singleton():
    F = constant_singleton(fixtures.walk())
    phi = phi_component(F)
    assert validate_iset_cell(phi).ok
    assert all(fn.dom.size == 1 and fn.cod.size == 1 for fn in phi.mu)


def test_phi_on_grade_indexed_set():
    F = grade_over_dz2()
    phi = phi_component(F)
    assert validate_iset_cell(phi).ok
    assert phi.dom.values[0].labels == ("0.p", "0.q")
    assert phi.mu[0]("0.p") == "p"
    assert phi.mu[1]("1.r") == "r"
    inv = phi_inverse(F)
    assert iset_cell_compose(phi, inv) == identity_iset_cell(F)


def test_psi_on_identity_fibration():
    p = identity_fibration(fixtures.l2())
    psi = psi_component(p)
    assert validate_dfib_cell(psi).ok
    assert dfib_cell_compose(psi, psi_inverse(p)) == identity_dfib_cell(p)
    assert dfib_cell_compose(psi_inverse(p), psi) == identity_dfib_cell(psi.dom)


def test_corrupted_phi_loses_invertibility():
    F = grade_over_dz2()
    phi = phi_component(F)
    # dropping a pair: redirect one component
    from opgroth.fib2cat import FinFunction, ISetCell

    bad_mu = (FinFunction(phi.mu[0].dom, phi.mu[0].cod, (0, 0)),) + phi.mu[1:]
    bad = ISetCell(phi.dom, phi.cod, phi.functor, bad_mu)
    inv = phi_inverse(F)
    assert iset_cell_compose(bad, inv) != identity_iset_cell(F)


# ------------------------------------------------------------- products


def test_groth_preserves_products_up_to_comparison():
    F1 = grade_over_dz2()
    F2 = discrete_family()
    cmp_cell = groth_product_comparison(F1, F2)
    report = validate_dfib_cell(cmp_cell)
    assert report.ok
    # invertible: the top functor is a bijection on objects and morphisms
    assert sorted(cmp_cell.top.on_obj) == list(range(cmp_cell.cod.total.n_objects))
    assert sorted(cmp_cell.top.on_mor) == list(range(cmp_cell.cod.total.n_morphisms))


def test_transpose_preserves_products_up_to_comparison():
    p1 = groth_apply(grade_over_dz2())
    p2 = identity_fibration(fixtures.l2())
    cell = transpose_product_comparison(p1, p2)
    assert validate_iset_cell(cell).ok
    assert all(sorted(fn.mapping) == list(range(fn.cod.size)) for fn in cell.mu)


# ------------------------------------------------------------- round trips


def test_corpus_meets_size_contract():
    corpus = make_corpus()
    assert corpus.n_objects >= 40
    assert corpus.n_1cells >= 60
    assert corpus.n_2cells >= 20
    for F in corpus.isets:
        assert F.index.n_objects <= 3
        assert F.index.n_morphisms <= 6
        assert all(v.size <= 3 for v in F.values)


def test_corpus_is_deterministic():
    a = make_corpus(seed=7, n_isets=9, n_iset_cells=4, n_2cells=2)
    b = make_corpus(seed=7, n_isets=9, n_iset_cells=4, n_2cells=2)
    assert a.isets == b.isets
    assert a.iset_cells == b.iset_cells
    assert a.dfib_cells == b.dfib_cells
    assert a.iset_2cells == b.iset_2cells


def test_roundtrip_on_small_seeded_corpus():
    corpus = make_corpus(seed=11, n_isets=9, n_iset_cells=5, n_2cells=3)
    report = roundtrip_report(corpus)
    assert report.ok, report.render()


def test_memo_never_hands_one_iset_another_isets_construction():
    # Each indexed set is built and dropped in turn, so CPython hands a
    # later one the address of an earlier one; a memo keyed on bare id()
    # would then return the earlier construction.
    base = fixtures.dz2()
    memo = {}
    seen = []
    for k in range(200):
        F = iset_from_tables(base, {"0": [f"x{k}"], "1": []}, {}, name=f"F{k}")
        seen.append(groth_apply(F, memo=memo).total.objects)
        del F
    assert seen == [(f"0.x{k}",) for k in range(200)]
    # the entry holds its object, so the object lives as long as the memo
    F = grade_over_dz2()
    held = weakref.ref(F)
    fib = groth_apply(F, memo=memo)
    del F
    assert held() is not None and groth_apply(held(), memo=memo) is fib
    memo.clear()
    assert held() is None


def test_roundtrip_on_discrete_corpus():
    from opgroth.groth import Corpus

    sets = [discrete_family(), grade_over_dz2()]
    corpus = Corpus(
        isets=sets,
        fibrations=[groth_apply(F) for F in sets],
        iset_cells=[identity_iset_cell(F) for F in sets],
        dfib_cells=[identity_dfib_cell(groth_apply(F)) for F in sets],
        iset_2cells=[],
        dfib_2cells=[],
        params={"seed": 0},
    )
    assert roundtrip_report(corpus).ok


# sha256 of the bytes of the classical round trip: the stdout of
# `--seed 1/2 roundtrip fixtures/corpus_small.spec` in text and JSON (run
# from the repository root, as the source path is a note of the report),
# the repr of generate_cells over that file's objects at seeds 0-29, and
# the repr of the cells of make_corpus()
ROUNDTRIP_PINS = {
    "seed 1 text": "783ebdfe751aab902f69c429da4b90e854614e7ae319cfe34c16c0adf83026a7",
    "seed 1 json": "4902fb8656ff4154e71ac5b0aee40e5105c73280b28d8a9d0e0657182f01fa7a",
    "seed 2 text": "fa2004fce7bd3e203dc217fd432a511790d15712684d1b893c75ee1f0de3cd2c",
    "seed 2 json": "4dadad82052a5ed754245aa318d9c7a5db62a683c8717f0dd4ab2ba9cb7477b0",
    "cells 0-29": "fbefae8eb8a7d48bfc62c6a73347c95b3f6702642df3ad267f6fb3b39e150068",
    "make_corpus": "3a9b37c64aa164704b6150d90f92a10124c8f1b87e3a5a1691bb44683a06221c",
}


def test_roundtrip_bytes_and_generated_cells_are_pinned(monkeypatch):
    monkeypatch.delenv("OPGROTH_MAX_ARITY", raising=False)
    root = pathlib.Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    got = {}
    for seed in (1, 2):
        for mode in ("text", "json"):
            out = io.StringIO()
            argv = ["--report", mode, "--seed", str(seed), "roundtrip", "fixtures/corpus_small.spec"]
            assert run_command(argv, out=out) == 0
            got[f"seed {seed} {mode}"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    doc = parse_spec_file((root / "fixtures" / "corpus_small.spec").read_text(encoding="utf-8"))
    isets = [s.value for s in doc.by_kind("iset")]
    fibrations = [s.value for s in doc.by_kind("fibration")]
    cells = hashlib.sha256()
    for seed in range(30):
        cells.update(repr(generate_cells(isets, fibrations, seed)).encode())
    got["cells 0-29"] = cells.hexdigest()
    c = make_corpus()
    got["make_corpus"] = hashlib.sha256(
        repr((c.iset_cells, c.dfib_cells, c.iset_2cells, c.dfib_2cells)).encode()
    ).hexdigest()
    assert got == ROUNDTRIP_PINS


# Corpora with one broken cell each, built from the small seeded corpus:
# every entry is moved to the next value of its codomain.


def _moved(values: tuple, k: int, n: int) -> tuple:
    return values[:k] + ((values[k] + 1) % n,) + values[k + 1:]


def _small_corpus():
    return make_corpus(seed=11, n_isets=9, n_iset_cells=5, n_2cells=3)


def broken_iset_cell_corpus():
    # the first component entry of the first non-identity iset cell
    corpus = _small_corpus()
    k = next(k for k, c in enumerate(corpus.iset_cells) if c != identity_iset_cell(c.dom))
    cell = corpus.iset_cells[k]
    fn = cell.mu[0]
    mu0 = FinFunction(fn.dom, fn.cod, _moved(fn.mapping, 0, fn.cod.size))
    corpus.iset_cells[k] = replace(cell, mu=(mu0,) + cell.mu[1:])
    return corpus


def broken_dfib_cell_corpus():
    # the first object of the top functor of the last dfib cell
    corpus = _small_corpus()
    cell = corpus.dfib_cells[-1]
    top = replace(cell.top, on_obj=_moved(cell.top.on_obj, 0, cell.top.cod.n_objects))
    corpus.dfib_cells[-1] = replace(cell, top=top)
    return corpus


def broken_iset_2cell_corpus():
    # the first component of the last iset 2-cell
    corpus = _small_corpus()
    e = corpus.iset_2cells[-1]
    eta = replace(e.eta, components=_moved(e.eta.components, 0, e.eta.dom.cod.n_morphisms))
    corpus.iset_2cells[-1] = replace(e, eta=eta)
    return corpus


# sha256 of render() and of the JSON lines of the records of
# roundtrip_report on each broken corpus; the broken cell stays out of the
# functoriality pass, so it counts fewer pairs than the clean corpus
BROKEN_ROUNDTRIP_PINS = {
    "iset cell text": "7fb259b7471c35e4aaae81a4d9faecc6a5e4bf377095da3667884e4e09b60194",
    "iset cell json": "5d609000209e5a56e89c923001e811ee69826a5dd0122a2c75080bb0ca121bd1",
    "dfib cell text": "f18b06d2222fff642e91ae88dddd88f91b3c01975f07c86e83e0611b977dce78",
    "dfib cell json": "2db86233df6ef625523b04e1c0a4e5bc4cca664ec832b8faad3650d67980ecfa",
    "iset 2-cell text": "13733488eb6cce20dfdcdc284ab597be56ea22bb80588eecf7bbdfafcf0e0821",
    "iset 2-cell json": "5a61001c47fa93f750e04ff4149058aeb08ac73c15ee495d9f27890206c3cf05",
}


def test_broken_corpus_reports_are_pinned():
    got = {}
    for name, build in (
        ("iset cell", broken_iset_cell_corpus),
        ("dfib cell", broken_dfib_cell_corpus),
        ("iset 2-cell", broken_iset_2cell_corpus),
    ):
        report = roundtrip_report(build())
        assert not report.ok
        lines = "\n".join(json.dumps(r.as_json(), sort_keys=True) for r in report.records)
        got[f"{name} text"] = hashlib.sha256(report.render().encode()).hexdigest()
        got[f"{name} json"] = hashlib.sha256(lines.encode()).hexdigest()
    assert got == BROKEN_ROUNDTRIP_PINS


def test_broken_dfib_2cell_is_reported_not_raised():
    # the first top component of the last dfib 2-cell moved to the next
    # morphism: its vertical composites have no composition entry, so the
    # 2-cell must stay out of the functoriality pass
    corpus = _small_corpus()
    e = corpus.dfib_2cells[-1]
    top = replace(e.top, components=_moved(e.top.components, 0, e.top.dom.cod.n_morphisms))
    corpus.dfib_2cells[-1] = replace(e, top=top)
    report = roundtrip_report(corpus)
    assert [(r.check, r.where) for r in report.records] == [
        ("nattrans.endpoints", "dfib-2cell:top"),
        ("roundtrip.psi_naturality_2", ""),
    ]
    assert report.stats["roundtrip.functoriality_pairs"] < roundtrip_report(_small_corpus()).stats[
        "roundtrip.functoriality_pairs"
    ]
