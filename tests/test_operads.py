import dataclasses
import hashlib
import itertools
import random

import pytest

from opgroth.fincore import FinMap, identity_map, terminal_map
from opgroth.operads import (
    CompositionUndefined,
    Operad,
    boolean_semiring,
    build_assoc,
    build_comm,
    build_qconv,
    check_operad_axioms,
    check_operad_morphism,
    check_semiring,
    composition_keys,
    identity_operad_morphism,
    terminal_morphism,
)
from testkit import with_overrides

# ---------------------------------------------------------------------------
# independent oracle: its own loop nest, no helpers shared with the package


def _maps(m, n):
    if m == 0:
        return [()]
    if n == 0:
        return []
    return list(itertools.product(range(1, n + 1), repeat=m))


def _fibers(values, n):
    return [
        [j for j in range(1, len(values) + 1) if values[j - 1] == i]
        for i in range(1, n + 1)
    ]


def oracle_operad(o: Operad):
    """Naive re-check of all unit and associativity instances.

    Returns (verdict, counts) where counts mirror the checker's stats keys.
    """
    N = o.max_arity
    ok = True
    counts = {"unit_id": 0, "unit_t": 0, "assoc": 0}
    for n in range(N + 1):
        for p in o.carriers[n]:
            counts["unit_id"] += 1
            if o.compose(FinMap(n, n, tuple(range(1, n + 1))), p, (o.unit,) * n) != p:
                ok = False
            counts["unit_t"] += 1
            if o.compose(FinMap(n, 1, (1,) * n), o.unit, (p,)) != p:
                ok = False
    for n in range(N + 1):
        for m in range(N + 1):
            for fv in _maps(m, n):
                f_fibs = _fibers(fv, n)
                for ell in range(N + 1):
                    for gv in _maps(ell, m):
                        g_fibs = _fibers(gv, m)
                        fgv = tuple(fv[gv[k] - 1] for k in range(ell))
                        fg_fibs = _fibers(fgv, n)
                        for p in o.carriers[n]:
                            inner_f = [o.carriers[len(fb)] for fb in f_fibs]
                            inner_g = [o.carriers[len(gb)] for gb in g_fibs]
                            for qs in itertools.product(*inner_f):
                                for rs in itertools.product(*inner_g):
                                    counts["assoc"] += 1
                                    f = FinMap(m, n, tuple(fv))
                                    g = FinMap(ell, m, tuple(gv))
                                    lhs = o.compose(g, o.compose(f, p, qs), rs)
                                    nested = []
                                    for i in range(1, n + 1):
                                        src_fib = fg_fibs[i - 1]
                                        tgt_fib = f_fibs[i - 1]
                                        gi = FinMap(
                                            len(src_fib),
                                            len(tgt_fib),
                                            tuple(
                                                tgt_fib.index(gv[j - 1]) + 1
                                                for j in src_fib
                                            ),
                                        )
                                        nested.append(
                                            o.compose(
                                                gi,
                                                qs[i - 1],
                                                tuple(rs[j - 1] for j in tgt_fib),
                                            )
                                        )
                                    rhs = o.compose(
                                        FinMap(ell, n, fgv), p, tuple(nested)
                                    )
                                    if lhs != rhs:
                                        ok = False
    return ok, counts


def expected_instance_counts(o: Operad):
    """Combinatorial instance counts from carrier sizes alone."""
    N = o.max_arity
    sizes = [len(c) for c in o.carriers]
    unit = sum(sizes[n] for n in range(N + 1))
    assoc = 0
    for n in range(N + 1):
        for m in range(N + 1):
            for fv in _maps(m, n):
                wf = sizes[n]
                for fb in _fibers(fv, n):
                    wf *= sizes[len(fb)]
                for ell in range(N + 1):
                    for gv in _maps(ell, m):
                        wg = 1
                        for gb in _fibers(gv, m):
                            wg *= sizes[len(gb)]
                        assoc += wf * wg
    return {"unit_id": unit, "unit_t": unit, "assoc": assoc}


ETA = "[1]"
SWAP = "[2,1]"
ID2 = "[1,2]"


# ---------------------------------------------------------------------------
# builtins


def test_comm_carriers_and_axioms():
    comm = build_comm(2)
    assert [len(c) for c in comm.carriers] == [1, 1, 1]
    assert comm.compose(FinMap(2, 2, (2, 1)), "*", ("*", "*")) == "*"
    assert build_comm(3).compose(FinMap(3, 2, (2, 1, 1)), "*", ("*", "*")) == "*"
    assert check_operad_axioms(build_comm(4)).ok


def test_assoc_carrier_sizes():
    assoc = build_assoc(3)
    assert [len(c) for c in assoc.carriers] == [1, 1, 2, 6]


def test_assoc_unit_compositions():
    assoc = build_assoc(3)
    assert assoc.compose(identity_map(2), SWAP, (ETA, ETA)) == SWAP
    assert assoc.compose(terminal_map(2), ETA, (SWAP,)) == SWAP


def test_assoc_axioms_exhaustive():
    report = check_operad_axioms(build_assoc(3))
    assert report.ok


def test_broken_unit_detected():
    assoc = build_assoc(3)
    broken = with_overrides(assoc, {(terminal_map(2), ETA, (SWAP,)): ID2})
    report = check_operad_axioms(broken)
    assert not report.ok
    assert any(r.check == "operad.unit_terminal" for r in report.records)


def test_truncation_zero_reports_the_unit():
    o = Operad(name="Z", max_arity=0, carriers=(("e",),), unit="e", table={})
    report = check_operad_axioms(o)
    assert [(r.severity, r.check) for r in report.records] == [("structural", "operad.unit")]


def test_qconv_boolean_carriers():
    q = build_qconv(boolean_semiring(), 3)
    assert len(q.carriers[0]) == 0
    assert sorted(q.carriers[2]) == ["(0,1)", "(1,0)", "(1,1)"]
    assert q.compose(identity_map(2), "(1,1)", ("(1)", "(1)")) == "(1,1)"
    assert check_operad_axioms(q).ok


def test_qconv_rejects_missing_inner_elements():
    q = build_qconv(boolean_semiring(), 2)
    # the map [1,1]: 2 -> 2 has an empty second fiber; no inner vector exists
    with pytest.raises(CompositionUndefined):
        q.compose(FinMap(2, 2, (1, 1)), "(1,1)", ("(1,1)", "()"))


def test_boolean_semiring_validates():
    assert check_semiring(boolean_semiring()).ok


def test_broken_semiring_detected():
    r = boolean_semiring()
    r.mul[("1", "1")] = "0"
    report = check_semiring(r)
    assert not report.ok


# ---------------------------------------------------------------------------
# checker vs oracle


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_comm(3),
        lambda: build_assoc(3),
        lambda: build_qconv(boolean_semiring(), 3),
    ],
    ids=["comm", "assoc", "qconv"],
)
def test_checker_agrees_with_oracle_on_builtins(make):
    o = make()
    report = check_operad_axioms(o)
    ok, counts = oracle_operad(o)
    assert report.ok == ok
    assert report.stats["operad.assoc_instances"] == counts["assoc"]
    assert report.stats["operad.unit_identity_instances"] == counts["unit_id"]
    assert report.stats["operad.unit_terminal_instances"] == counts["unit_t"]
    assert counts == expected_instance_counts(o)


@pytest.mark.parametrize(
    "make",
    [lambda: build_comm(4), lambda: build_qconv(boolean_semiring(), 4)],
    ids=["comm", "qconv"],
)
def test_arity4_instance_counts_match_the_closed_form(make):
    o = make()
    report = check_operad_axioms(o)
    assert report.ok
    expected = expected_instance_counts(o)
    assert report.stats == {
        "operad.unit_identity_instances": expected["unit_id"],
        "operad.unit_terminal_instances": expected["unit_t"],
        "operad.assoc_instances": expected["assoc"],
    }


def test_compose_still_rejects_ill_typed_arguments_once_its_cache_is_warm():
    q = build_qconv(boolean_semiring(), 2)
    assert check_operad_axioms(q).ok
    assert q._cache
    ill_typed = [
        (FinMap(3, 1, (1, 1, 1)), "(1)", ("(1,1,1)",)),  # beyond the truncation
        (identity_map(2), "(1)", ("(1)", "(1)")),  # outer element of the wrong arity
        (identity_map(2), "(1,1)", ("(1)",)),  # too few inner elements
        (FinMap(2, 2, (1, 1)), "(1,1)", ("(1,1)", "()")),  # empty inner carrier
        (identity_map(2), "(1,1)", ("(1)", ["(1)"])),  # unhashable inner element
    ]
    for f, p, qs in ill_typed:
        with pytest.raises(CompositionUndefined):
            q.compose(f, p, qs)
    table = Operad(
        name="T", max_arity=1, carriers=(("e",), ("e",)), unit="e",
        table={(1, (1,), "e", ("e",)): "e"},
    )
    assert table.compose(identity_map(1), "e", ("e",)) == "e"
    with pytest.raises(CompositionUndefined):
        table.compose(FinMap(0, 1, ()), "e", ("e",))
    with pytest.raises(CompositionUndefined):
        table.compose(FinMap(0, 1, ()), "e", ("e",))


def test_equal_table_operads_stay_equal_after_one_composes():
    def make():
        return Operad(
            name="T", max_arity=1, carriers=(("e",), ("e",)), unit="e",
            table={(1, (1,), "e", ("e",)): "e"},
        )

    a, b = make(), make()
    assert a == b
    assert a.compose(identity_map(1), "e", ("e",)) == "e"
    assert a == b


def test_a_table_operad_edited_after_a_check_is_checked_on_its_new_table():
    assoc = build_assoc(2)
    table = {(f.target, f.values, p, qs): assoc.compose(f, p, qs) for f, p, qs in composition_keys(assoc)}
    o = Operad(name="T", max_arity=2, carriers=assoc.carriers, unit=assoc.unit, table=table)
    assert check_operad_axioms(o).ok
    key = next(k for k in table if k[:2] == (1, (1, 1)))
    table[key] = next(r for r in assoc.carriers[2] if r != table[key])
    fresh = Operad(name="T", max_arity=2, carriers=assoc.carriers, unit=assoc.unit, table=dict(table))
    assert len(check_operad_axioms(fresh).records) == 15
    assert check_operad_axioms(o).records == check_operad_axioms(fresh).records
    assert check_operad_axioms(dataclasses.replace(o)).records == check_operad_axioms(fresh).records


def test_checker_agrees_with_oracle_on_corrupted_variants():
    assoc = build_assoc(3)
    corruptions = [
        {(terminal_map(2), ETA, (SWAP,)): ID2},
        {(identity_map(2), SWAP, (ETA, ETA)): ID2},
        {(FinMap(2, 2, (2, 1)), ID2, (ETA, ETA)): ID2},
        {(FinMap(3, 2, (1, 1, 2)), SWAP, (SWAP, ETA)): "[1,2,3]"},
    ]
    for overrides in corruptions:
        broken = with_overrides(assoc, overrides)
        report = check_operad_axioms(broken)
        ok, _ = oracle_operad(broken)
        assert report.ok == ok
        assert not report.ok


OUTSIDE = "<outside>"


def single_entry_overrides(o: Operad):
    """Every operad that differs from ``o`` at one composition entry: the
    entry set to each other element of its carrier, and to a label outside
    it."""
    for f, p, qs in composition_keys(o):
        value = o.compose(f, p, qs)
        for other in o.carriers[f.source] + (OUTSIDE,):
            if other != value:
                yield with_overrides(o, {(f, p, qs): other})


def oracle_verdict(o: Operad) -> bool:
    """The oracle's verdict, a result outside its carrier being a failure."""
    try:
        ok, _ = oracle_operad(o)
    except CompositionUndefined:
        return False  # such a result was fed back into a composition
    return ok and all(o.compose(f, p, qs) in o.carriers[f.source] for f, p, qs in composition_keys(o))


# sha256 over the (severity, check, witness, where) records and the sorted
# stats of every report of the sweep below
OVERRIDE_SWEEP_PIN = "654daf619cbd4a9fc4788e5c6d46c012c8f33f92aec45c4c0b09149ca3e72107"


def test_checker_agrees_with_oracle_on_every_single_entry_override():
    digest, variants = hashlib.sha256(), 0
    for o in (build_assoc(2), build_comm(3), build_qconv(boolean_semiring(), 2)):
        for broken in single_entry_overrides(o):
            report = check_operad_axioms(broken)
            assert report.ok == oracle_verdict(broken)
            variants += 1
            for r in report.records:
                digest.update(repr((r.severity, r.check, r.witness, r.where)).encode())
            digest.update(repr(sorted(report.stats.items())).encode())
    assert variants == 125
    assert digest.hexdigest() == OVERRIDE_SWEEP_PIN


# the same digest over every single-entry override of qconv(Bool, 3)
QCONV3_OVERRIDE_PIN = "f6eff77005fa7b85f36abc489d47dc71b2751c6b48ea84690eb8026cada00b56"


def test_every_single_entry_override_of_qconv3_is_pinned():
    # the oracle takes about 20 ms a variant, so it runs on every 8th
    digest, variants = hashlib.sha256(), 0
    for k, broken in enumerate(single_entry_overrides(build_qconv(boolean_semiring(), 3))):
        report = check_operad_axioms(broken)
        if k % 8 == 0:
            assert report.ok == oracle_verdict(broken)
        variants += 1
        for r in report.records:
            digest.update(repr((r.severity, r.check, r.witness, r.where)).encode())
        digest.update(repr(sorted(report.stats.items())).encode())
    assert variants == 749
    assert digest.hexdigest() == QCONV3_OVERRIDE_PIN


def single_entry_deletions(o: Operad):
    """Every table operad that is ``o`` with one composition entry missing."""
    table = {(f.target, f.values, p, qs): o.compose(f, p, qs) for f, p, qs in composition_keys(o)}
    for key in table:
        rest = {k: v for k, v in table.items() if k != key}
        yield Operad(name=f"{o.name}-hole", max_arity=o.max_arity, carriers=o.carriers, unit=o.unit, table=rest)


# the same digest over the sweep below
DELETION_SWEEP_PIN = "4925f1d07a9dacc23b2e7c49b4d47f73bd7353327f9cd0d4621b360ee584efd9"


def test_checker_names_every_missing_table_entry():
    digest, variants = hashlib.sha256(), 0
    for o in (build_assoc(2), build_qconv(boolean_semiring(), 2)):
        for broken in single_entry_deletions(o):
            report = check_operad_axioms(broken)
            assert report.has_structural
            variants += 1
            for r in report.records:
                digest.update(repr((r.severity, r.check, r.witness, r.where)).encode())
            digest.update(repr(sorted(report.stats.items())).encode())
    assert variants == 33
    assert digest.hexdigest() == DELETION_SWEEP_PIN


def test_assoc4_sampled_associativity():
    # exhaustive at 4 is factorially large; fixed-seed sample instead
    assoc = build_assoc(4)
    rng = random.Random(74114)
    for _ in range(10_000):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        ell = rng.randint(1, 4)
        f = FinMap(m, n, tuple(rng.randint(1, n) for _ in range(m)))
        g = FinMap(ell, m, tuple(rng.randint(1, m) for _ in range(ell)))
        p = rng.choice(assoc.carriers[n])
        qs = tuple(
            rng.choice(assoc.carriers[len([j for j in range(1, m + 1) if f(j) == i])])
            for i in range(1, n + 1)
        )
        rs = tuple(
            rng.choice(assoc.carriers[len([k for k in range(1, ell + 1) if g(k) == j])])
            for j in range(1, m + 1)
        )
        lhs = assoc.compose(g, assoc.compose(f, p, qs), rs)
        from opgroth.fincore import fiber, fm_compose, induced_fiber_map

        nested = tuple(
            assoc.compose(
                induced_fiber_map(f, g, i),
                qs[i - 1],
                tuple(rs[j - 1] for j in fiber(f, i)),
            )
            for i in range(1, n + 1)
        )
        assert lhs == assoc.compose(fm_compose(f, g), p, nested)


# ---------------------------------------------------------------------------
# morphisms


def test_terminal_morphism_validates():
    for o in (build_assoc(3), build_qconv(boolean_semiring(), 3), build_comm(3)):
        assert check_operad_morphism(terminal_morphism(o)).ok


def test_identity_morphism_validates():
    q = build_qconv(boolean_semiring(), 3)
    assert check_operad_morphism(identity_operad_morphism(q)).ok


def test_collapsing_swap_breaks_preservation():
    assoc = build_assoc(3)
    h = identity_operad_morphism(assoc)
    maps = list(h.maps)
    maps[2] = {ID2: ID2, SWAP: ID2}
    h = type(h)(dom=assoc, cod=assoc, maps=tuple(maps))
    report = check_operad_morphism(h)
    assert not report.ok
    assert any(r.check == "opmorphism.composition" for r in report.records)


# ---------------------------------------------------------------------------
# the square kernel against a per-instance loop


def _square_by_instances(o: Operad, f: FinMap, g: FinMap, fg: FinMap, g_is):
    """The number of instances of the square at g and f, or None when a
    composite is undefined or outside its carrier or the two sides differ."""

    def op(h, p, qs):
        try:
            got = o.compose(h, p, qs)
        except CompositionUndefined:
            return None
        return got if got in o.carriers[h.source] else None

    instances = 0
    f_inner = [o.carriers[len(fib)] for fib in f.fibers]
    g_inner = [o.carriers[len(fib)] for fib in g.fibers]
    for p in o.carriers[f.target]:
        for qs in itertools.product(*f_inner):
            for rs in itertools.product(*g_inner):
                instances += 1
                mid = op(f, p, qs)
                lhs = None if mid is None else op(g, mid, rs)
                s = [op(g_i, q, tuple(rs[j - 1] for j in fib)) for g_i, q, fib in zip(g_is, qs, f.fibers)]
                rhs = None if None in s else op(fg, p, tuple(s))
                if lhs is None or lhs != rhs:
                    return None
    return instances


def _table_copies(o: Operad):
    """Table operads equal to o but at one composition entry: removed, or
    set to each other operation of its carrier."""
    table = {(f.target, f.values, p, qs): o.compose(f, p, qs) for f, p, qs in composition_keys(o)}
    for (n, values, p, qs), value in table.items():
        for other in (None, *o.carriers[len(values)]):
            if other == value:
                continue
            copy = dict(table)
            if other is None:
                del copy[n, values, p, qs]
            else:
                copy[n, values, p, qs] = other
            yield Operad(name=f"{o.name}-copy", max_arity=o.max_arity, carriers=o.carriers, unit=o.unit, table=copy)


def test_square_kernel_matches_a_per_instance_loop():
    from opgroth.fincore import all_maps, fm_compose, induced_fiber_map
    from opgroth.operads import OperadRows

    # once as a standalone check sweeps, the held of a proven group read
    # from its verdict, and once with every group walked, each square
    # proved by the kernel as its pair is yielded
    operads = [build_assoc(3), build_comm(3), build_qconv(boolean_semiring(), 3), *_table_copies(build_assoc(2))]
    assert len(operads) == 3 + 37
    for walks in (None, lambda *_: True):
        squares = failing = 0
        for o in operads:
            maps = {(a, b): tuple(all_maps(a, b)) for a in range(o.max_arity + 1) for b in range(o.max_arity + 1)}
            rows = OperadRows(o)
            for f, _, _, _, _, pairs in rows.sweep(maps, walks):
                for g, fg, g_is, _, held in pairs:
                    assert fg == fm_compose(f, g)
                    assert g_is == tuple(induced_fiber_map(f, g, i) for i in range(1, f.target + 1))
                    expected = _square_by_instances(o, f, g, fg, g_is)
                    assert held == expected, (o.name, f, g)
                    squares += 1
                    failing += expected is None
        assert (squares, failing) == (5200, 353)
