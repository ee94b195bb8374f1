import itertools

import pytest

from opgroth import fixtures
from opgroth.fincore import (
    FinMap,
    _square_codes,
    all_functors,
    all_maps,
    block_permutation,
    factorize_monotone_perm,
    fiber,
    flatten_by_fibers,
    fm_compose,
    functor_from_labels,
    identity_functor,
    identity_map,
    induced_fiber_map,
    invert_permutation,
    make_category,
    product_category,
    reindex_by_fibers,
    terminal_map,
    validate_category,
    validate_functor,
    validate_natural_transformation,
    NatTransform,
)
from testkit import all_permutations, bgrade, constant_functor


# ---------------------------------------------------------------- FinMap


def test_finmap_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        FinMap(2, 1, (1, 2))
    with pytest.raises(ValueError):
        FinMap(2, 2, (1,))


def test_arity_zero_has_one_map_to_every_target():
    for n in range(4):
        maps = list(all_maps(0, n))
        assert maps == [FinMap(0, n, ())]
    assert list(all_maps(2, 0)) == []


def test_fiber_readoff():
    f = FinMap(3, 2, (2, 1, 1))
    assert fiber(f, 1) == (2, 3)
    assert fiber(f, 2) == (1,)
    assert fiber(identity_map(3), 2) == (2,)
    with pytest.raises(IndexError):
        fiber(f, 3)
    with pytest.raises(IndexError):
        fiber(f, 0)


def test_induced_fiber_map_cases():
    # g = id leaves every fiber map an identity
    f = FinMap(3, 2, (2, 1, 1))
    for i in (1, 2):
        assert induced_fiber_map(f, identity_map(3), i).is_identity
    # g = [1,1]: 2 -> 1, f = id_1
    g = FinMap(2, 1, (1, 1))
    assert induced_fiber_map(identity_map(1), g, 1) == FinMap(2, 1, (1, 1))
    # g = [2,1], f = [1,1]
    assert induced_fiber_map(
        FinMap(2, 1, (1, 1)), FinMap(2, 2, (2, 1)), 1
    ) == FinMap(2, 2, (2, 1))


def _fiber_reference(f, i):
    """The fiber read straight off the value tuple, with no cached state."""
    return tuple(j for j, v in enumerate(f.values, start=1) if v == i)


def test_cached_fibers_and_square_match_the_reference_exhaustively():
    # the fibers of every map of arity at most 4, and the codes of f.g and
    # of each induced g_i at every pair g: ell -> m, f: m -> n of arity at
    # most 3, against fm_compose and induced_fiber_map
    maps = {(m, n): list(all_maps(m, n)) for m in range(5) for n in range(5)}
    pairs = 0
    for (m, n), fs in maps.items():
        for f in fs:
            expected = tuple(_fiber_reference(f, i) for i in range(1, n + 1))
            assert f.fibers == expected
            assert tuple(fiber(f, i) for i in range(1, n + 1)) == expected
            if m > 3 or n > 3:
                continue
            for ell in range(4):
                gs = maps[ell, m]
                for g, (fg_code, sources, codes) in zip(gs, _square_codes(f, gs), strict=True):
                    fg = fm_compose(f, g)
                    assert maps[ell, n][fg_code] == fg
                    induced = tuple(induced_fiber_map(f, g, i) for i in range(1, n + 1))
                    assert sources == [g_i.source for g_i in induced]
                    assert [maps[g_i.source, g_i.target][c] for g_i, c in zip(induced, codes)] == list(induced)
                    pairs += 1
    assert pairs == sum(
        len(maps[m, n]) * len(maps[ell, m])
        for n in range(4) for m in range(4) for ell in range(4)
    )


def test_a_map_code_is_its_place_among_all_maps():
    for m in range(5):
        for n in range(5):
            assert [f.code for f in all_maps(m, n)] == list(range(n**m))
    assert FinMap(3, 2, (2, 1, 1)).code == 0b100
    f, g = FinMap(3, 2, (2, 1, 1)), FinMap(2, 3, (3, 1))
    # f.g = [1,2]; g_1: {1} -> {2,3} is [2] and g_2: {2} -> {1} is [1]
    assert list(_square_codes(f, [g])) == [(1, [1, 1], [1, 0])]


def test_block_permutation_examples():
    f = FinMap(3, 2, (1, 1, 2))
    swap = FinMap(2, 2, (2, 1))
    assert block_permutation(f, [swap, identity_map(1)]) == FinMap(3, 3, (2, 1, 3))
    assert block_permutation(f, [identity_map(2), identity_map(1)]).is_identity
    with pytest.raises(ValueError):
        block_permutation(f, [identity_map(1), identity_map(1)])


def test_block_permutation_is_a_homomorphism():
    # T({a.b}) = T({a}).T({b}) over every base map with source <= 4
    for m in range(5):
        for n in range(1, 4):
            for f in all_maps(m, n):
                sizes = [len(fiber(f, i)) for i in range(1, n + 1)]
                per_fiber = [list(all_permutations(s)) for s in sizes]
                for alphas in itertools.product(*per_fiber):
                    for betas in itertools.product(*per_fiber):
                        composed = [fm_compose(a, b) for a, b in zip(alphas, betas)]
                        assert block_permutation(f, composed) == fm_compose(
                            block_permutation(f, alphas), block_permutation(f, betas)
                        )


def test_factorize_monotone_perm_examples():
    mono = FinMap(3, 2, (1, 1, 2))
    assert factorize_monotone_perm(mono) == (mono, identity_map(3))
    swap = FinMap(2, 2, (2, 1))
    assert factorize_monotone_perm(swap) == (identity_map(2), swap)
    g, h = factorize_monotone_perm(FinMap(3, 2, (2, 1, 1)))
    assert g == FinMap(3, 2, (1, 1, 2))
    assert h == FinMap(3, 3, (3, 1, 2))


def fiber_order_preserving(f, h):
    # h keeps the relative order of positions inside every fiber of f
    for i in range(1, f.target + 1):
        fib = fiber(f, i)
        images = [h(j) for j in fib]
        if images != sorted(images):
            return False
    return True


def test_factorization_unique_by_enumeration():
    # exactly one fiber-order-preserving monotone x permutation pair exists
    for m in range(5):
        for n in range(5):
            for f in all_maps(m, n):
                found = []
                for h in all_permutations(m):
                    g_values = [0] * m
                    for j in range(1, m + 1):
                        g_values[h(j) - 1] = f(j)
                    g = FinMap(m, n, tuple(g_values))
                    if g.is_monotone and fiber_order_preserving(f, h):
                        found.append((g, h))
                assert len(found) == 1
                assert found[0] == factorize_monotone_perm(f)
                g, h = found[0]
                assert fm_compose(g, h) == f


def test_reindex_by_fibers():
    f = FinMap(3, 2, (2, 1, 1))
    assert reindex_by_fibers(f, ("A", "B", "C")) == (("B", "C"), ("A",))
    assert reindex_by_fibers(identity_map(3), ("A", "B", "C")) == (("A",), ("B",), ("C",))
    assert reindex_by_fibers(terminal_map(3), ("A", "B", "C")) == (("A", "B", "C"),)


def test_reindex_roundtrip_exhaustive():
    for m in range(6):
        t = tuple(f"x{j}" for j in range(m))
        for n in range(4):
            for f in all_maps(m, n):
                grouped = reindex_by_fibers(f, t)
                assert flatten_by_fibers(f, grouped) == t


def test_invert_permutation():
    for p in all_permutations(4):
        assert fm_compose(p, invert_permutation(p)).is_identity
        assert fm_compose(invert_permutation(p), p).is_identity


# ---------------------------------------------------------------- FinCat


def test_walk_is_a_category():
    assert validate_category(fixtures.walk()).ok


def test_broken_unit_is_reported():
    broken = make_category(
        "WALKBRK",
        ["a", "b"],
        [("u", "a", "b")],
        compose={("u", "id_a"): "id_b"},
    )
    report = validate_category(broken)
    assert not report.ok
    witnesses = [r.witness for r in report.records]
    assert any("(u, id_a)" in w for w in witnesses)
    # redirecting to id_b also breaks composite endpoints
    assert all(r.severity in ("structural", "violation") for r in report.records)


def test_poset_chain_category_exhaustive():
    c = fixtures.chain3()
    report = validate_category(c)
    assert report.ok
    # brute-force recheck of all unit and associativity instances
    for f in range(c.n_morphisms):
        assert c.compose(c.id_of(c.tgt(f)), f) == f
        assert c.compose(f, c.id_of(c.src(f))) == f
    count = 0
    for h in range(c.n_morphisms):
        for g in range(c.n_morphisms):
            for f in range(c.n_morphisms):
                if c.src(h) == c.tgt(g) and c.src(g) == c.tgt(f):
                    count += 1
                    assert c.compose(h, c.compose(g, f)) == c.compose(c.compose(h, g), f)
    assert report.stats["category.assoc_instances"] == count


def test_missing_composition_is_structural():
    c = make_category("PAR2", ["a", "b", "c"], [("u", "a", "b"), ("v", "b", "c")])
    report = validate_category(c)
    assert not report.ok
    assert any(r.severity == "structural" for r in report.records)
    assert any("(v, u)" in r.witness for r in report.records)


def test_validator_agrees_with_naive_oracle_on_corpus():
    corpus = [
        fixtures.walk(),
        fixtures.dz2(),
        fixtures.l2(),
        fixtures.chain3(),
        fixtures.span(),
        fixtures.cospan(),
        fixtures.parallel_pair(),
        fixtures.bz2(),
        bgrade(),
    ]
    corpus.append(
        make_category("BAD", ["a"], [("s", "a", "a")], compose={("s", "s"): "s", ("s", "id_a"): "id_a"})
    )
    for c in corpus:
        ok = True
        for f in range(c.n_morphisms):
            if c.composition.get((c.id_of(c.tgt(f)), f)) != f:
                ok = False
            if c.composition.get((f, c.id_of(c.src(f)))) != f:
                ok = False
        for h in range(c.n_morphisms):
            for g in range(c.n_morphisms):
                for f in range(c.n_morphisms):
                    if c.src(h) == c.tgt(g) and c.src(g) == c.tgt(f):
                        left = c.composition.get((g, f))
                        right = c.composition.get((h, g))
                        if (
                            left is None
                            or right is None
                            or c.composition.get((h, left)) != c.composition.get((right, f))
                        ):
                            ok = False
        assert validate_category(c).ok == ok


# ---------------------------------------------------------------- products


def test_empty_product_is_terminal():
    prod = product_category([])
    assert prod.cat.n_objects == 1
    assert prod.cat.n_morphisms == 1
    assert validate_category(prod.cat).ok


def test_walk_squared_counts():
    w = fixtures.walk()
    prod = product_category([w, w])
    assert prod.cat.n_objects == 4
    assert prod.cat.n_morphisms == 9
    assert validate_category(prod.cat).ok
    for pr in prod.projections:
        assert validate_functor(pr).ok


def test_unary_product_is_isomorphic_copy():
    w = fixtures.walk()
    prod = product_category([w])
    assert prod.cat.n_objects == w.n_objects
    assert prod.cat.n_morphisms == w.n_morphisms
    (pr,) = prod.projections
    assert validate_functor(pr).ok
    assert pr.on_obj == tuple(range(w.n_objects))


def test_projections_jointly_reflect_equality():
    factors = [fixtures.walk(), fixtures.l2()]
    prod = product_category(factors)
    for m1 in range(prod.cat.n_morphisms):
        for m2 in range(prod.cat.n_morphisms):
            agree = all(
                pr.on_mor[m1] == pr.on_mor[m2] for pr in prod.projections
            )
            assert agree == (m1 == m2)


# ---------------------------------------------------------------- functors


def test_identity_and_constant_functors_validate():
    w = fixtures.walk()
    assert validate_functor(identity_functor(w)).ok
    term = product_category([]).cat
    assert validate_functor(constant_functor(w, term, 0)).ok


def test_broken_on_mor_reports_endpoints():
    w = fixtures.walk()
    F = functor_from_labels(w, w, {"a": "a", "b": "b"}, {"u": "id_a"})
    report = validate_functor(F)
    assert not report.ok
    assert any("u" in r.witness and "source/target" in r.witness for r in report.records)


def test_nat_transform_validation():
    w = fixtures.walk()
    idw = identity_functor(w)
    t = NatTransform(idw, idw, tuple(w.id_of(a) for a in range(w.n_objects)))
    assert validate_natural_transformation(t).ok
    # component with wrong endpoints
    bad = NatTransform(idw, idw, (w.mor_index("u"), w.id_of(1)))
    report = validate_natural_transformation(bad)
    assert not report.ok


def test_nontrivial_naturality_failure():
    # two parallel arrows; components that fail the square
    par = fixtures.parallel_pair()
    idp = identity_functor(par)
    # swap-like transformation cannot exist unless components commute with u, v
    comps = (par.id_of(0), par.id_of(1))
    t = NatTransform(idp, idp, comps)
    assert validate_natural_transformation(t).ok


def test_all_functors_enumeration_matches_manual_count():
    w = fixtures.walk()
    term = product_category([]).cat
    # functors WALK -> terminal: exactly one
    assert len(list(all_functors(w, term))) == 1
    # functors terminal -> WALK: one per object
    assert len(list(all_functors(term, w))) == 2
    # endofunctors of WALK: (a,a), (b,b), (a,b with u -> u): 3 total
    assert len(list(all_functors(w, w))) == 3
