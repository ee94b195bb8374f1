import hashlib
import itertools

import pytest

import opgroth.operads
from opgroth import fixtures
from opgroth.fincore import FinMap, all_maps, fm_compose, identity_map, terminal_map
from opgroth.ogroth import check_laxtoset, grade_laxtoset, l2_laxtoset
from opgroth.operads import (
    Operad,
    build_assoc,
    build_comm,
    composition_keys,
    operads_equal,
    terminal_morphism,
)
from testkit import with_overrides
from opgroth.omon import (
    LaxOMonFunctor,
    LaxSetFunctor,
    OMonCategory,
    OMonTransformation,
    SetAlgebra,
    assoc_algebra_from_monoid,
    check_omon_category,
    check_lax_omon_functor,
    check_omon_transformation,
    check_set_algebra,
    check_strict_omon_iso,
    dz2_assoc_omon,
    extend_unbiased_to_assoc,
    forget_assoc_to_unbiased,
    grade_assoc_omon,
    l2_comm_omon,
    l2_unbiased,
    monotone_maps,
    omon_copy,
    omon_from_set_algebra,
    omon_single_entry_mutations,
    product_omon,
    restrict_along_operad_morphism,
    twisted_bz2_unbiased,
    validate_unbiased,
    z2_unbiased,
    _structure_laws,
)
from opgroth.fincore import NatTransform, identity_functor, identity_nat


# --------------------------------------------------------------- checkers


def test_dz2_assoc_structure_validates():
    report = check_omon_category(dz2_assoc_omon(3))
    assert report.ok


def test_l2_comm_structure_validates():
    assert check_omon_category(l2_comm_omon(3)).ok


def test_grade_structure_validates():
    assert check_omon_category(grade_assoc_omon(3)).ok


def test_phi_set_to_non_identity_fails():
    c = omon_copy(dz2_assoc_omon(2))
    p2 = c.operad.elements(2)[0]
    wrong = (c.tensor_obj(2, p2, (0, 0)) + 1) % 2
    c.phi[(terminal_map(2), c.operad.unit, (p2,), (0, 0))] = c.base.id_of(wrong)
    report = check_omon_category(c)
    assert not report.ok
    assert any("phi[f=[1,1]" in r.witness for r in report.records)


def test_all_shipped_mutations_fail_with_named_witness():
    for make in (lambda: dz2_assoc_omon(2), lambda: l2_comm_omon(2)):
        baseline = make()
        assert check_omon_category(baseline).ok
        for description, mutated, fragment in omon_single_entry_mutations(baseline):
            report = check_omon_category(mutated)
            assert not report.ok, description
            assert any(fragment in r.witness for r in report.records), description


def test_strict_checker_matches_algebra_oracle():
    # on a strict discrete structure the checker verdict must coincide
    # with a direct check of the algebra equations
    from opgroth.fincore import fiber

    assoc = build_assoc(2)
    good = assoc_algebra_from_monoid(fixtures.Z2_ELEMENTS, fixtures.Z2_ADD, "0", 2)
    bad_mult = dict(fixtures.Z2_ADD)
    bad_mult[("1", "1")] = "1"  # breaks associativity-with-units
    bad = assoc_algebra_from_monoid(fixtures.Z2_ELEMENTS, bad_mult, "0", 2)
    for alg in (good, bad):
        equations_hold = True
        for f, p, qs in composition_keys(assoc):
            rho = assoc.compose(f, p, qs)
            for xs in itertools.product(alg.carrier, repeat=f.source):
                blocks = tuple(
                    alg.apply(len(fiber(f, i)), qs[i - 1], tuple(xs[j - 1] for j in fiber(f, i)))
                    for i in range(1, f.target + 1)
                )
                if alg.apply(f.source, rho, xs) != alg.apply(f.target, p, blocks):
                    equations_hold = False
        for x in alg.carrier:
            if alg.apply(1, assoc.unit, (x,)) != x:
                equations_hold = False
        assert check_set_algebra(alg).ok == equations_hold
        if equations_hold:
            omon = omon_from_set_algebra(assoc, alg)
            assert check_omon_category(omon).ok == equations_hold
        else:
            with pytest.raises(ValueError):
                omon_from_set_algebra(assoc, alg)


# --------------------------------------------------------------- lax functors


def test_identity_lax_functor_is_strict():
    c = dz2_assoc_omon(2)
    L = LaxOMonFunctor(dom=c, cod=c, functor=identity_functor(c.base), xi={})
    report = check_lax_omon_functor(L)
    assert report.ok
    assert report.info["classification"] == "strict"


def test_omon_transformation_identity():
    c = dz2_assoc_omon(2)
    L = LaxOMonFunctor(dom=c, cod=c, functor=identity_functor(c.base), xi={})
    tr = OMonTransformation(dom=L, cod=L, t=identity_nat(L.functor))
    assert check_omon_transformation(tr).ok


def test_omon_transformation_square_witness():
    # in the twisted one-object group every component is natural, so a flip
    # passes the frame checks and fails the monoidal square in even arity
    tw = extend_unbiased_to_assoc(twisted_bz2_unbiased(3))
    flip = tw.base.mor_index("1")
    F = identity_functor(tw.base)
    L = LaxOMonFunctor(dom=tw, cod=tw, functor=F, xi={})
    report = check_omon_transformation(OMonTransformation(dom=L, cod=L, t=identity_nat(F)))
    assert report.ok
    assert report.stats == {"nattrans.naturality_instances": 2, "omontrans.square_instances": 10}
    bad = OMonTransformation(dom=L, cod=L, t=NatTransform(F, F, (flip,)), name="bad")
    assert [(r.check, r.where, r.witness) for r in check_omon_transformation(bad).records] == [
        ("omontrans.square", "bad", "transformation square fails at xi[p=[],A=()]"),
        ("omontrans.square", "bad", "transformation square fails at xi[p=[1,2],A=(pt,pt)]"),
        ("omontrans.square", "bad", "transformation square fails at xi[p=[2,1],A=(pt,pt)]"),
    ]


def test_lax_functor_operad_mismatch_is_structural():
    c = dz2_assoc_omon(2)
    d = l2_comm_omon(2)
    L = LaxOMonFunctor(dom=c, cod=d, functor=identity_functor(c.base), xi={})
    report = check_lax_omon_functor(L)
    assert not report.ok
    assert report.has_structural


# --------------------------------------------------------------- restriction


def test_restrict_l2_along_terminal_assoc_morphism():
    l2 = l2_comm_omon(3)
    t = terminal_morphism(build_assoc(3))
    restricted = restrict_along_operad_morphism(t, l2)
    assert restricted.operad.name.startswith("Assoc")
    assert check_omon_category(restricted).ok


def test_restrict_along_identity_is_identity():
    from opgroth.operads import identity_operad_morphism

    c = dz2_assoc_omon(2)
    h = identity_operad_morphism(c.operad)
    restricted = restrict_along_operad_morphism(h, c)
    assert {k: (t.obj, t.mor) for k, t in restricted.tensors.items()} == {
        k: (t.obj, t.mor) for k, t in c.tensors.items()
    }
    assert restricted.phi == c.phi


def test_restricted_twisted_structure_revalidates():
    ext = extend_unbiased_to_assoc(twisted_bz2_unbiased(3))
    from opgroth.operads import identity_operad_morphism

    h = identity_operad_morphism(ext.operad)
    restricted = restrict_along_operad_morphism(h, ext)
    assert check_omon_category(restricted).ok


def test_restriction_preserves_validity_on_lax_cells():
    # pull the meet structure and a lax endofunctor back along the
    # terminal morphism from the permutation operad
    l2 = l2_comm_omon(3)
    base = l2.base
    from opgroth.fincore import functor_from_labels

    const1 = functor_from_labels(base, base, {"0": "1", "1": "1"}, {"le_0_1": "id_1"})
    xi = {}
    for n in range(4):
        for objs in itertools.product(range(2), repeat=n):
            src = l2.tensor_obj(n, "*", tuple(1 for _ in objs))
            tgt = 1
            if src != tgt:
                xi[(n, "*", objs)] = base.mor_index("le_0_1")
    L = LaxOMonFunctor(dom=l2, cod=l2, functor=const1, xi=xi)
    assert check_lax_omon_functor(L).ok
    t = terminal_morphism(build_assoc(3))
    restricted = restrict_along_operad_morphism(t, L)
    assert check_lax_omon_functor(restricted).ok


# --------------------------------------------------------------- unbiased


def test_unbiased_fixtures_validate():
    assert validate_unbiased(z2_unbiased(3)).ok
    assert validate_unbiased(l2_unbiased(3)).ok
    assert validate_unbiased(twisted_bz2_unbiased(3)).ok


def test_twisted_fixture_has_nontrivial_structure():
    tw = twisted_bz2_unbiased(3)
    assert tw.alpha  # genuinely non-identity isomorphisms


def test_extend_outputs_pass_checker():
    for u in (z2_unbiased(3), l2_unbiased(3), twisted_bz2_unbiased(3)):
        ext = extend_unbiased_to_assoc(u)
        assert check_omon_category(ext).ok


def test_forget_extend_is_identity_on_tables():
    for u in (z2_unbiased(3), l2_unbiased(3), twisted_bz2_unbiased(3)):
        ext = extend_unbiased_to_assoc(u)
        back = forget_assoc_to_unbiased(ext)
        assert back.tensors == u.tensors
        assert back.alpha == u.alpha


def test_forget_on_dz2_recovers_xor():
    u = forget_assoc_to_unbiased(dz2_assoc_omon(3))
    z2 = z2_unbiased(3)
    assert u.tensors == z2.tensors
    assert u.alpha == z2.alpha


def test_extend_requires_unit_tensor():
    u = z2_unbiased(2)
    broken = dict(u.tensors)
    from opgroth.omon import TensorTable

    broken[1] = TensorTable(obj={(0,): 1, (1,): 0}, mor={(0,): 1, (1,): 0})
    bad = type(u)(base=u.base, max_arity=2, tensors=broken, alpha={}, name="bad")
    with pytest.raises(ValueError):
        extend_unbiased_to_assoc(bad)


def test_phi_value_independent_of_factorization():
    # phi over any factorization f = g.h with g monotone must agree with
    # the shipped closed form
    tw = twisted_bz2_unbiased(3)
    ext = extend_unbiased_to_assoc(tw)
    from opgroth.fincore import all_maps
    from testkit import all_permutations

    for m in range(4):
        for n in range(4):
            for f in all_maps(m, n):
                for h in all_permutations(m):
                    g_values = [0] * m
                    for j in range(1, m + 1):
                        g_values[h(j) - 1] = f(j)
                    g = FinMap(m, n, tuple(g_values))
                    if not g.is_monotone:
                        continue
                    # phi_f = phi_g at the h-permuted tuple, for any h
                    for p, qs in [(ext.operad.elements(n)[0], tuple(ext.operad.elements(len([j for j in range(1, m+1) if f(j) == i]))[0] for i in range(1, n+1)))]:
                        objs = (0,) * m
                        try:
                            lhs = ext.phi_at(f, p, qs, objs)
                            rhs = ext.phi_at(g, p, qs, objs)
                        except Exception:
                            continue
                        assert lhs == rhs


def test_unbiased_alpha_corruption_detected():
    tw = twisted_bz2_unbiased(3)
    key = next(iter(tw.alpha))
    broken_alpha = dict(tw.alpha)
    del broken_alpha[key]
    bad = type(tw)(
        base=tw.base, max_arity=3, tensors=tw.tensors, alpha=broken_alpha, name="bad"
    )
    assert not validate_unbiased(bad).ok


def _unbiased_records(u):
    return [(r.severity, r.check) for r in validate_unbiased(u).records]


def test_unbiased_missing_tensor_entry_is_structural():
    u = z2_unbiased(2)
    del u.tensors[2].obj[(1, 1)]
    assert _unbiased_records(u) == [("structural", "unbiased.tensor_table")]


def test_unbiased_tensor_entry_with_wrong_endpoints_is_reported():
    u = l2_unbiased(2)
    le = u.base.mor_index("le_0_1")
    u.tensors[2].mor[(u.base.id_of(0), le)] = le  # both ends meet to 0, so id_0 is right
    assert ("violation", "unbiased.tensor_endpoints") in _unbiased_records(u)


def test_unbiased_alpha_off_the_monotone_maps_is_structural():
    u = z2_unbiased(2)
    u.alpha[(FinMap(2, 2, (2, 1)), (0, 1))] = 0
    report = validate_unbiased(u)
    assert [(r.check, r.witness) for r in report.records] == [
        ("unbiased.alpha_key", "phi[f=[2,1],p=*,q=(*,*),A=(0,1)] indexes no structure isomorphism"),
    ]


def test_set_lax_unit_default_needs_equal_sets():
    # the unit tensor sends 0 to 1, whose fiber has two elements, not one
    from opgroth.ogroth import l2_laxtoset

    x = l2_laxtoset(2)
    x.dom.tensors[(1, "*")].obj[(0,)] = 1
    report = check_lax_omon_functor(x)
    assert ("laxtoset.nu_missing", "nu[p=*,i=(0)] has no entry") in [(r.check, r.witness) for r in report.records]


# --------------------------------------------------------------- broken operads


def _broken_operads(o):
    """``(mu key, hole, operad)`` for each composition entry of ``o``: the
    table without that entry (``hole``), and ``o`` with it set to a label
    outside its carrier."""
    table = {(f.target, f.values, p, qs): o.compose(f, p, qs) for f, p, qs in composition_keys(o)}
    for f, p, qs in composition_keys(o):
        key = f"mu {f.label()} {p} {' '.join(qs)}"
        rest = {k: v for k, v in table.items() if k != (f.target, f.values, p, qs)}
        yield key, True, Operad(name="hole", max_arity=o.max_arity, carriers=o.carriers, unit=o.unit, table=rest)
        yield key, False, with_overrides(o, {(f, p, qs): "<outside>"})


@pytest.mark.parametrize("lax", [l2_laxtoset, grade_laxtoset], ids=["L2", "DZ2"])
def test_structure_over_a_broken_operad_names_the_entry(lax):
    x = lax(2)
    c = x.dom
    ident = identity_functor(c.base)
    swept = 0
    for key, hole, broken in _broken_operads(c.operad):
        swept += 1
        d = OMonCategory(operad=broken, base=c.base, tensors=c.tensors, phi=c.phi, name=c.name)
        witness = f"{key} is undefined or outside its carrier"
        report = check_omon_category(d)
        assert [(r.severity, r.check, r.witness, r.where) for r in report.records] == [
            ("structural", "omon.operad_composition", witness, c.name)
        ]
        y = LaxSetFunctor(dom=d, iset=x.iset, nu=x.nu, name=x.name)
        assert [(r.check, r.witness) for r in check_laxtoset(y).records] == [("omon.operad_composition", witness)]
        assert [(r.check, r.witness, r.where) for r in check_lax_omon_functor(y).records] == [
            ("laxtoset.operad_composition", witness, f"{x.name}:dom")
        ]
        # an operad equals itself, hole or not, so both checks reach the gate
        laxfun = check_lax_omon_functor(LaxOMonFunctor(dom=d, cod=d, functor=ident, xi={}))
        iso = check_strict_omon_iso(d, d, ident)
        assert [(r.check, r.witness) for r in laxfun.records + iso.records] == [
            ("laxfun.operad_composition", witness),
            ("omoniso.operad_composition", witness),
        ]
        if hole:
            # two tables with the same hole are equal, and differ from the whole one
            twin = Operad(
                name="twin", max_arity=broken.max_arity, carriers=broken.carriers, unit=broken.unit,
                table=dict(broken.table),
            )
            assert operads_equal(broken, twin) and not operads_equal(broken, c.operad)
    assert swept == {"L2": 22, "DZ2": 46}[x.dom.name]


# --------------------------------------------------------------- products, isos


def test_product_omon_validates():
    c = dz2_assoc_omon(2)
    prod = product_omon(c, c)
    assert check_omon_category(prod).ok
    assert prod.base.n_objects == 4


def test_strict_iso_between_equal_structures():
    c1 = dz2_assoc_omon(2)
    c2 = dz2_assoc_omon(2)
    assert check_strict_omon_iso(c1, c2, identity_functor(c1.base)).ok


def test_strict_iso_detects_structure_mismatch():
    c1 = dz2_assoc_omon(2)
    c2 = omon_copy(c1)
    p2 = c2.operad.elements(2)[0]
    c2.tensors[(2, p2)].obj[(1, 1)] = 1
    c2.tensors[(2, p2)].mor[(1, 1)] = 1
    report = check_strict_omon_iso(c1, c2, identity_functor(c1.base))
    assert not report.ok


def test_strict_iso_over_a_tensor_table_hole_is_structural():
    c = l2_comm_omon(2)
    d = omon_copy(c)
    del d.tensors[(2, "*")].mor[(0, 2)]
    report = check_strict_omon_iso(c, d, identity_functor(c.base))
    assert [(r.severity, r.check, r.witness, r.where) for r in report.records] == [
        ("structural", "omoniso.tensor_table", "tensor[p=*] morphism entry missing or out of range", "cod")
    ]
    del c.tensors[(1, "*")]
    report = check_strict_omon_iso(c, c, identity_functor(c.base))
    assert [(r.check, r.where) for r in report.records] == [("omoniso.tensor_missing", "dom")]


def test_structural_set_restricts_to_itself():
    from opgroth.omon import STRUCTURAL_SET

    t = terminal_morphism(build_assoc(3))
    assert restrict_along_operad_morphism(t, STRUCTURAL_SET) is STRUCTURAL_SET


def test_extend_after_forget_recovers_permutation_entries():
    # on a structure already satisfying the permutation law, the
    # translation round trip is a full table identity
    for make in (dz2_assoc_omon, grade_assoc_omon):
        c = make(3)
        back = extend_unbiased_to_assoc(forget_assoc_to_unbiased(c))
        assert {k: (t.obj, t.mor) for k, t in back.tensors.items()} == {
            k: (t.obj, t.mor) for k, t in c.tensors.items()
        }
        assert back.phi == c.phi
    tw = extend_unbiased_to_assoc(twisted_bz2_unbiased(3))
    back = extend_unbiased_to_assoc(forget_assoc_to_unbiased(tw))
    assert back.phi == tw.phi


# --------------------------------------------------------------- associativity pin


def _assoc_pin_structures():
    """The shipped single-entry mutations of DZ2, L2 and grade at arity 3,
    the twisted structure extended to assoc, and that structure with each
    explicit entry at a map of source at most 1 flipped."""
    for make in (dz2_assoc_omon, l2_comm_omon, grade_assoc_omon):
        for _, mutated, _ in omon_single_entry_mutations(make(3)):
            yield mutated
    twisted = extend_unbiased_to_assoc(twisted_bz2_unbiased(3))
    yield twisted
    for key, value in twisted.phi.items():
        if key[0].source <= 1:
            flipped = omon_copy(twisted)
            flipped.phi[key] = (value + 1) % twisted.base.n_morphisms
            yield flipped


# sha256 over the (severity, check, witness, where) records and the sorted
# stats of every report of the sweep below
ASSOC_SWEEP_PIN = "8be45af937907ca997ce6e9f212a596656754a1a9087d707c7cdecc5bdb54eb1"


def test_assoc_sweep_records_and_counts_are_pinned():
    from test_oracles import oracle_omon

    digest, structures = hashlib.sha256(), 0
    for c in _assoc_pin_structures():
        report = check_omon_category(c)
        structures += 1
        for r in report.records:
            digest.update(repr((r.severity, r.check, r.witness, r.where)).encode())
        digest.update(repr(sorted(report.stats.items())).encode())
    assert structures == 16
    assert digest.hexdigest() == ASSOC_SWEEP_PIN
    assert oracle_omon(extend_unbiased_to_assoc(twisted_bz2_unbiased(3))) == set()


def _mutation_sweep_structures():
    """Every single-entry mutation of the oracle sweep of DZ2, L2 and grade
    at arity 2 (561), and each explicit entry of the twisted structure
    extended to assoc at a map of source at most 2 flipped to the other
    morphism (50)."""
    from test_oracles import omon_mutations

    for make in (dz2_assoc_omon, l2_comm_omon, grade_assoc_omon):
        for _, mutated in omon_mutations(make(2)):
            yield mutated
    twisted = extend_unbiased_to_assoc(twisted_bz2_unbiased(3))
    for key, value in twisted.phi.items():
        if key[0].source <= 2:
            flipped = omon_copy(twisted)
            flipped.phi[key] = (value + 1) % twisted.base.n_morphisms
            yield flipped


# sha256 over the (severity, check, witness, where) records, in order, and
# the sorted stats of every report of the sweep below
MUTATION_SWEEP_PIN = "29f77e8b0ee037884aa31e5748ecf8381be62c5061b79cc63b1a67fcb34202bf"


def test_mutation_sweep_records_and_counts_are_pinned():
    # the oracle sweep compares check names only; this pins every witness,
    # the object tuple of each failing structure-iso square included
    digest, structures = hashlib.sha256(), 0
    for c in _mutation_sweep_structures():
        report = check_omon_category(c)
        structures += 1
        for r in report.records:
            digest.update(repr((r.severity, r.check, r.witness, r.where)).encode())
        digest.update(repr(sorted(report.stats.items())).encode())
    assert structures == 611
    assert digest.hexdigest() == MUTATION_SWEEP_PIN


def _as_tuple(report):
    return report.records, report.stats, report.info


@pytest.mark.parametrize("make", [dz2_assoc_omon, l2_comm_omon, grade_assoc_omon], ids=["DZ2", "L2", "grade"])
def test_shared_operad_rows_change_no_report(make):
    # a round trip's memo shares one operad's rows, and the outcome of each
    # square they prove, between structures over that operad: a clean one
    # and its shipped mutations, in either order
    clean = make(3)
    alone = {id(clean): _as_tuple(check_omon_category(clean))}
    mutations = [mutated for _, mutated, _ in omon_single_entry_mutations(clean)]
    for mutated in mutations:
        alone[id(mutated)] = _as_tuple(check_omon_category(mutated))
    for mutated in mutations:
        for order in ((clean, mutated), (mutated, clean)):
            memo = {}
            for c in order:
                assert _as_tuple(check_omon_category(c, memo=memo)) == alone[id(c)]


def test_shared_operad_rows_keep_failing_squares():
    # over an operad with one composite redirected inside its carrier, the
    # second check on a round trip's memo reads each failing square, and the
    # count of each square that holds, off the shared rows
    c = grade_laxtoset(2).dom
    o = c.operad
    swept = 0
    for f, p, qs in composition_keys(o):
        others = [q for q in o.carriers[f.source] if q != o.compose(f, p, qs)]
        if not others:
            continue
        broken = with_overrides(o, {(f, p, qs): others[0]})
        d = OMonCategory(operad=broken, base=c.base, tensors=c.tensors, phi=c.phi, name=c.name)
        alone = _as_tuple(check_omon_category(d))
        assert "omon.assoc" in {r.check for r in alone[0]}
        memo = {}
        assert [_as_tuple(check_omon_category(d, memo=memo)) for _ in range(2)] == [alone, alone]
        swept += 1
    assert swept == 14


def test_shared_operad_rows_hold_their_operad():
    c = l2_comm_omon(2)
    memo = {}
    check_omon_category(c, memo=memo)
    (key, (kept, rows)), = memo.items()
    assert key == ("rows", id(c.operad), all_maps) and kept is c.operad and rows.o is c.operad


def test_shared_operad_rows_serve_one_family_of_maps():
    # the rows keep the verdict of each group of squares they prove, and a
    # group over the monotone maps has fewer squares than over all maps
    c = grade_assoc_omon(2)
    alone = [_as_tuple(_structure_laws(c, "omon", "phi", family)) for family in (monotone_maps, all_maps)]
    memo = {}
    shared = [_as_tuple(_structure_laws(c, "omon", "phi", family, memo)) for family in (monotone_maps, all_maps)]
    assert shared == alone
    assert alone[0][1]["omon.assoc_instances"] < alone[1][1]["omon.assoc_instances"]
    assert sorted(key[2].__name__ for key in memo) == ["all_maps", "monotone_maps"]


@pytest.fixture
def built_squares(monkeypatch):
    # the sweep takes the codes of f.g and of each g_i of a group it proves
    # or walks from one generator over the group's g; a pair is counted as
    # its codes are yielded, so a square left after a failing one is not
    built = []

    def counting(f, gs):
        for g, codes in zip(gs, square_codes(f, gs)):
            built.append((f, g))
            yield codes

    square_codes = opgroth.operads._square_codes
    monkeypatch.setattr(opgroth.operads, "_square_codes", counting)
    return built


def test_a_proven_operad_builds_no_squares_for_a_later_structure(built_squares):
    c, memo = grade_assoc_omon(3), {}
    first = _as_tuple(check_omon_category(c, memo=memo))
    assert len(built_squares) == 1476
    built_squares.clear()
    assert _as_tuple(check_omon_category(c, memo=memo)) == first
    assert built_squares == []


def test_only_touched_groups_build_their_squares(built_squares):
    # one explicit entry at the terminal map 2 -> 1: the groups of that map
    # and every group whose g has a source of at least 2 walk their pairs
    c, memo = grade_assoc_omon(3), {}
    check_omon_category(c, memo=memo)
    _, mutated, _ = omon_single_entry_mutations(c)[1]
    (key,) = mutated.phi
    assert key[0] == terminal_map(2)
    alone = _as_tuple(check_omon_category(mutated))
    built_squares.clear()
    assert _as_tuple(check_omon_category(mutated, memo=memo)) == alone
    touched = {
        (f, g)
        for m, n in itertools.product(range(4), repeat=2)
        for f in all_maps(m, n)
        for ell in range(4)
        for g in all_maps(ell, m)
        if f == terminal_map(2) or ell >= 2
    }
    assert len(built_squares) == len(touched) == 1479
    assert set(built_squares) == touched


@pytest.mark.parametrize(
    "mutation, witness",
    [
        (1, "phi[f=[1,1],p=[1],q=([1,2]),A=(0,0)] has wrong endpoints"),
        (2, "phi[f=[1,2],p=[1,2],q=([1],[1]),A=(0,0)] has wrong endpoints"),
    ],
)
def test_a_standalone_check_builds_each_square_once(built_squares, mutation, witness):
    # a group that the square pass walks because an explicit entry touches
    # it is proved as it is walked, not square by square beforehand as well
    _, mutated, _ = omon_single_entry_mutations(dz2_assoc_omon(3))[mutation]
    report = check_omon_category(mutated)
    assert [(r.check, r.witness) for r in report.records] == [("omon.phi_typing", witness)]
    assert report.stats["omon.assoc_instances"] == 241863
    assert len(built_squares) == len(set(built_squares)) == 1479


def _set_algebra_pin_cases():
    # every single-entry override of the DZ2(2) and grade(2) algebras, to
    # each other carrier element and to one label outside the carrier,
    # every single-table deletion, and the clean DZ2(3) and grade(3)
    monoids = (
        ("DZ2", fixtures.Z2_ELEMENTS, fixtures.Z2_ADD, "0"),
        ("GRADECAT", fixtures.GRADE_ELEMENTS, fixtures.GRADE_MULT, fixtures.GRADE_UNIT),
    )
    for name, elements, mult, unit in monoids:
        alg = assoc_algebra_from_monoid(elements, mult, unit, 2, name=name)
        for key, table in alg.ops.items():
            for xs, value in table.items():
                for other in (*(x for x in alg.carrier if x != value), "?"):
                    ops = dict(alg.ops)
                    ops[key] = {**table, xs: other}
                    yield SetAlgebra(alg.operad, alg.carrier, ops, name)
            ops = dict(alg.ops)
            del ops[key]
            yield SetAlgebra(alg.operad, alg.carrier, ops, name)
    for name, elements, mult, unit in monoids:
        yield assoc_algebra_from_monoid(elements, mult, unit, 3, name=name)


# sha256 over the (severity, check, witness, where) records and the sorted
# stats of every report of the sweep above
SET_ALGEBRA_PIN = "259eeaa24477996b75de0b7a1f514164ab31234757319fa7b53bce15eceeea60"


def test_set_algebra_records_and_counts_are_pinned():
    digest, cases, failing = hashlib.sha256(), 0, 0
    for alg in _set_algebra_pin_cases():
        report = check_set_algebra(alg)
        cases += 1
        failing += any(r.check == "algebra.equation" for r in report.records)
        for r in report.records:
            digest.update(repr((r.severity, r.check, r.witness, r.where)).encode())
        digest.update(repr(sorted(report.stats.items())).encode())
    assert (cases, failing) == (98, 55)
    assert digest.hexdigest() == SET_ALGEBRA_PIN
