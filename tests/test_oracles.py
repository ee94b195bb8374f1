"""Slow reference checkers for structured categories and lax functors,
and a sweep of every single-entry mutation of small structures; a slow
reference search for the natural families of the classical corpus; the
regroupings and products of finite sets and the order of tuple codes
against ``itertools.product``; and the composition of the permutation
operad by its factorization and of the quasi-convexity operad by its
coordinates; and the cell laws of the structured round trip, record by
record, over every single-entry change of a few small cells.

Each oracle is a direct transcription of the laws in its own loop nest:
it reads the label tables of its input and shares no helper with the
package beyond ``Operad.compose``.  The sweep asserts that the fast
checkers and the oracles agree on the verdict, on the set of check names
and, for lax functors, on the classification.
"""

import itertools
import pathlib

import pytest

from opgroth.dsl import parse_spec_file
from opgroth.fincore import (
    FinMap,
    _digits,
    _sub_codes,
    all_functors,
    block_permutation,
    discrete_category,
    factorize_monotone_perm,
    fm_compose,
    identity_functor,
)
from opgroth.groth import _valid_mus
from opgroth.omon import (
    LaxOMonFunctor,
    LaxSetFunctor,
    PhiMissing,
    TensorTable,
    UnbiasedData,
    _check_set_lax,
    _check_table_lax,
    _comm_view,
    _compose_lax,
    build_omon,
    check_omon_category,
    dz2_assoc_omon,
    extend_unbiased_to_assoc,
    grade_assoc_omon,
    l2_comm_omon,
    o_fn_product,
    set_regroup,
    twisted_bz2_unbiased,
    validate_unbiased,
)
from opgroth.fib2cat import FinFunction, FinSet, fn_identity, iset_from_tables, validate_dfib_cell, validate_iset_cell
from opgroth.ogroth import (
    OCell,
    OFibCell,
    _checked_lax,
    _checked_omon,
    _laxtoset_from_rule,
    check_ocell,
    check_ofib_cell,
    enumerate_ocells,
    grade_laxtoset,
    identity_ocell,
    identity_ofib,
    l2_laxtoset,
    omon_groth,
    qconv_proj_laxtoset,
    trivial_laxtoset,
)
from opgroth.operads import boolean_semiring, build_assoc, build_qconv, composition_keys
from opgroth.report import CheckReport
from testkit import constant_functor

# ---------------------------------------------------------------------------
# plain finite combinatorics, written out here


def _maps(m, n):
    if m == 0:
        return [()]
    if n == 0:
        return []
    return list(itertools.product(range(1, n + 1), repeat=m))


def _fibers(values, n):
    return [[j for j in range(1, len(values) + 1) if values[j - 1] == i] for i in range(1, n + 1)]


def _monotone(values):
    return all(a <= b for a, b in zip(values, values[1:]))


def _compose(base, g, f):
    """g after f in ``base``, or None where the pair is not composable."""
    if base.mor_src[g] != base.mor_tgt[f]:
        return None
    return base.composition.get((g, f))


def _invertible(base, v):
    for w in range(len(base.mor_labels)):
        if base.mor_src[w] == base.mor_tgt[v] and base.mor_tgt[w] == base.mor_src[v]:
            if (
                _compose(base, w, v) == base.identity[base.mor_src[v]]
                and _compose(base, v, w) == base.identity[base.mor_tgt[v]]
            ):
                return True
    return False


def _is_identity(base, v):
    return base.mor_src[v] == base.mor_tgt[v] and base.identity[base.mor_src[v]] == v


# ---------------------------------------------------------------------------
# oracle 1: the laws of a structured category


def oracle_structure(operad, base, tensors, phi, prefix, iso, monotone_only):
    """The check names a structured category over ``operad`` violates.

    ``tensors[(n, p)]`` is an (obj, mor) pair of dicts keyed by index
    tuples; ``phi[(f_values, n, p, qs, objs)]`` holds the explicit
    structure isomorphisms.  Only monotone maps index structure
    isomorphisms when ``monotone_only`` holds.  The stages follow the
    checker's: malformed tables stop the check, and so does any failure
    of the tensors themselves.
    """
    names = set()
    N = operad.max_arity
    carriers = operad.carriers
    n_obj, n_mor = len(base.objects), len(base.mor_labels)
    src_of, tgt_of, ident = base.mor_src, base.mor_tgt, base.identity

    for n in range(N + 1):
        for p in carriers[n]:
            if (n, p) not in tensors:
                names.add(f"{prefix}.tensor_missing")
                continue
            obj, mor = tensors[(n, p)]
            for objs in itertools.product(range(n_obj), repeat=n):
                if obj.get(objs) not in range(n_obj):
                    names.add(f"{prefix}.tensor_table")
            for mors in itertools.product(range(n_mor), repeat=n):
                if mor.get(mors) not in range(n_mor):
                    names.add(f"{prefix}.tensor_table")
    if names:
        return names
    if N < 1 or operad.unit not in carriers[1]:
        return {f"{prefix}.operad_unit"}

    unit_obj, unit_mor = tensors[(1, operad.unit)]
    for a in range(n_obj):
        if unit_obj[(a,)] != a:
            names.add(f"{prefix}.unit_tensor")
    for u in range(n_mor):
        if unit_mor[(u,)] != u:
            names.add(f"{prefix}.unit_tensor")
    for n in range(N + 1):
        for p in carriers[n]:
            obj, mor = tensors[(n, p)]
            for objs in itertools.product(range(n_obj), repeat=n):
                if mor[tuple(ident[a] for a in objs)] != ident[obj[objs]]:
                    names.add(f"{prefix}.tensor_identity")
            for mors in itertools.product(range(n_mor), repeat=n):
                value = mor[mors]
                if src_of[value] != obj[tuple(src_of[u] for u in mors)]:
                    names.add(f"{prefix}.tensor_endpoints")
                if tgt_of[value] != obj[tuple(tgt_of[u] for u in mors)]:
                    names.add(f"{prefix}.tensor_endpoints")
            for gs in itertools.product(range(n_mor), repeat=n):
                for fs in itertools.product(range(n_mor), repeat=n):
                    if any(src_of[g] != tgt_of[f] for g, f in zip(gs, fs)):
                        continue
                    both = _compose(base, mor[gs], mor[fs])
                    if both is not None and mor[tuple(_compose(base, g, f) for g, f in zip(gs, fs))] != both:
                        names.add(f"{prefix}.tensor_functoriality")
    if names:
        return names

    def in_family(values):
        return not monotone_only or _monotone(values)

    for f_values, n, p, qs, objs in phi:
        m = len(f_values)
        fibs = _fibers(f_values, n) if all(1 <= v <= n for v in f_values) else None
        if not (
            fibs is not None
            and m <= N
            and n <= N
            and in_family(f_values)
            and p in carriers[n]
            and len(qs) == n
            and all(q in carriers[len(fb)] for q, fb in zip(qs, fibs))
            and len(objs) == m
            and all(a in range(n_obj) for a in objs)
        ):
            names.add(f"{prefix}.{iso}_key")

    def T_obj(k, op, objs):
        return tensors[(k, op)][0][tuple(objs)]

    def T_mor(k, op, mors):
        return tensors[(k, op)][1][tuple(mors)]

    def endpoints(f_values, n, p, qs, objs):
        fibs = _fibers(f_values, n)
        rho = operad.compose(FinMap(len(f_values), n, f_values), p, qs)
        src = T_obj(len(f_values), rho, objs)
        tgt = T_obj(n, p, [T_obj(len(fb), q, [objs[j - 1] for j in fb]) for fb, q in zip(fibs, qs)])
        return src, tgt

    resolved = {}

    def phi_value(f_values, n, p, qs, objs):
        """The explicit entry, or the identity on equal endpoints, or None."""
        key = (f_values, n, p, tuple(qs), tuple(objs))
        if key in phi:
            return phi[key]
        if key not in resolved:
            src, tgt = endpoints(f_values, n, p, qs, objs)
            resolved[key] = ident[src] if src == tgt else None
        return resolved[key]

    for n in range(N + 1):
        for m in range(N + 1):
            for f_values in _maps(m, n):
                if not in_family(f_values):
                    continue
                fibs = _fibers(f_values, n)
                f = FinMap(m, n, f_values)
                for p in carriers[n]:
                    for qs in itertools.product(*[carriers[len(fb)] for fb in fibs]):
                        rho = operad.compose(f, p, qs)
                        forced = (f_values == tuple(range(1, n + 1)) and all(q == operad.unit for q in qs)) or (
                            n == 1 and p == operad.unit
                        )
                        for objs in itertools.product(range(n_obj), repeat=m):
                            src, tgt = endpoints(f_values, n, p, qs, objs)
                            key = (f_values, n, p, qs, objs)
                            if key not in phi:
                                if src != tgt:
                                    names.add(f"{prefix}.{iso}_missing")
                                continue
                            value = phi[key]
                            if src_of[value] != src or tgt_of[value] != tgt:
                                names.add(f"{prefix}.{iso}_typing")
                                continue
                            if not _invertible(base, value):
                                names.add(f"{prefix}.{iso}_invertible")
                            if forced and value != ident[src]:
                                names.add(f"{prefix}.identity_axiom")
                        for mors in itertools.product(range(n_mor), repeat=m):
                            at_src = phi_value(f_values, n, p, qs, [src_of[u] for u in mors])
                            at_tgt = phi_value(f_values, n, p, qs, [tgt_of[u] for u in mors])
                            if at_src is None or at_tgt is None:
                                continue
                            blocks = [T_mor(len(fb), q, [mors[j - 1] for j in fb]) for fb, q in zip(fibs, qs)]
                            lhs = _compose(base, at_tgt, T_mor(m, rho, mors))
                            rhs = _compose(base, T_mor(n, p, blocks), at_src)
                            if lhs is not None and rhs is not None and lhs != rhs:
                                names.add(f"{prefix}.{iso}_naturality")

    # the associativity square at every composable pair g: l -> m, f: m -> n
    for n in range(N + 1):
        for m in range(N + 1):
            for f_values in _maps(m, n):
                if not in_family(f_values):
                    continue
                f_fibs = _fibers(f_values, n)
                f = FinMap(m, n, f_values)
                for ell in range(N + 1):
                    for g_values in _maps(ell, m):
                        if not in_family(g_values):
                            continue
                        g_fibs = _fibers(g_values, m)
                        fg_values = tuple(f_values[v - 1] for v in g_values)
                        fg_fibs = _fibers(fg_values, n)
                        g = FinMap(ell, m, g_values)
                        # g restricted to the fibers over each i
                        g_is = [
                            tuple(f_fibs[i].index(g_values[j - 1]) + 1 for j in fg_fibs[i]) for i in range(n)
                        ]
                        for p in carriers[n]:
                            for qs in itertools.product(*[carriers[len(fb)] for fb in f_fibs]):
                                rho = operad.compose(f, p, qs)
                                for rs in itertools.product(*[carriers[len(gb)] for gb in g_fibs]):
                                    rs_blocks = [tuple(rs[j - 1] for j in f_fibs[i]) for i in range(n)]
                                    s_ops = tuple(
                                        operad.compose(FinMap(len(g_is[i]), len(f_fibs[i]), g_is[i]), qs[i], rs_blocks[i])
                                        for i in range(n)
                                    )
                                    if operad.compose(g, rho, rs) != operad.compose(
                                        FinMap(ell, n, fg_values), p, s_ops
                                    ):
                                        names.add(f"{prefix}.assoc")
                                        continue
                                    for objs in itertools.product(range(n_obj), repeat=ell):
                                        g_blocks = [
                                            T_obj(len(gb), r, [objs[k - 1] for k in gb]) for gb, r in zip(g_fibs, rs)
                                        ]
                                        legs = [
                                            phi_value(g_values, m, rho, rs, objs),
                                            phi_value(f_values, n, p, qs, g_blocks),
                                            phi_value(fg_values, n, p, s_ops, objs),
                                        ] + [
                                            phi_value(
                                                g_is[i], len(f_fibs[i]), qs[i], rs_blocks[i],
                                                [objs[k - 1] for k in fg_fibs[i]],
                                            )
                                            for i in range(n)
                                        ]
                                        if None in legs:
                                            continue
                                        phi_g, phi_f, phi_fg = legs[:3]
                                        lhs = _compose(base, T_mor(n, p, legs[3:]), phi_fg)
                                        rhs = _compose(base, phi_f, phi_g)
                                        if lhs is not None and rhs is not None and lhs != rhs:
                                            names.add(f"{prefix}.assoc")
    return names


def oracle_omon(c):
    return oracle_structure(
        c.operad,
        c.base,
        {key: (t.obj, t.mor) for key, t in c.tensors.items()},
        {(f.values, f.target, p, tuple(qs), tuple(objs)): v for (f, p, qs, objs), v in c.phi.items()},
        "omon",
        "phi",
        monotone_only=False,
    )


def oracle_unbiased(u):
    missing = {"unbiased.tensor_missing" for n in range(u.max_arity + 1) if n not in u.tensors}
    if missing:
        return missing
    from opgroth.operads import build_comm

    return oracle_structure(
        build_comm(u.max_arity),
        u.base,
        {(n, "*"): (t.obj, t.mor) for n, t in u.tensors.items()},
        {(f.values, f.target, "*", ("*",) * f.target, tuple(objs)): v for (f, objs), v in u.alpha.items()},
        "unbiased",
        "alpha",
        monotone_only=True,
    )


# ---------------------------------------------------------------------------
# oracle 2: lax functors between structured categories


def _omon_phi(c, f_values, n, p, qs, objs):
    """c's structure isomorphism at the key, or None where it is missing."""
    key_map = FinMap(len(f_values), n, f_values)
    for (f, p2, qs2, objs2), v in c.phi.items():
        if f == key_map and p2 == p and tuple(qs2) == tuple(qs) and tuple(objs2) == tuple(objs):
            return v
    fibs = _fibers(f_values, n)
    rho = c.operad.compose(key_map, p, qs)
    src = c.tensors[(len(f_values), rho)].obj[tuple(objs)]
    tgt = c.tensors[(n, p)].obj[
        tuple(c.tensors[(len(fb), q)].obj[tuple(objs[j - 1] for j in fb)] for fb, q in zip(fibs, qs))
    ]
    return c.base.identity[src] if src == tgt else None


def _classify(values, is_identity, is_invertible):
    if all(is_identity(v) for v in values):
        return "strict"
    if all(is_invertible(v) for v in values):
        return "weak"
    return "lax"


def oracle_table_lax(L):
    """(check names, classification) of a lax functor into a structured
    category whose frame is already valid."""
    names = set()
    dom, cod, F = L.dom, L.cod, L.functor
    operad, dbase, cbase = dom.operad, dom.base, cod.base
    N = operad.max_arity
    on_obj, on_mor = F.on_obj, F.on_mor
    resolved = []

    def xi_value(n, p, objs):
        key = (n, p, tuple(objs))
        if key in L.xi:
            return L.xi[key]
        src = cod.tensors[(n, p)].obj[tuple(on_obj[a] for a in objs)]
        tgt = on_obj[dom.tensors[(n, p)].obj[tuple(objs)]]
        return cbase.identity[src] if src == tgt else None

    for n in range(N + 1):
        for p in operad.carriers[n]:
            for objs in itertools.product(range(len(dbase.objects)), repeat=n):
                src = cod.tensors[(n, p)].obj[tuple(on_obj[a] for a in objs)]
                tgt = on_obj[dom.tensors[(n, p)].obj[objs]]
                key = (n, p, objs)
                if key in L.xi:
                    value = L.xi[key]
                    if cbase.mor_src[value] != src or cbase.mor_tgt[value] != tgt:
                        names.add("laxfun.xi_typing")
                        continue
                elif src != tgt:
                    names.add("laxfun.xi_missing")
                    continue
                else:
                    value = cbase.identity[src]
                resolved.append(value)
                if n == 1 and p == operad.unit and not _is_identity(cbase, value):
                    names.add("laxfun.xi_unit")
            for mors in itertools.product(range(len(dbase.mor_labels)), repeat=n):
                at_src = xi_value(n, p, [dbase.mor_src[u] for u in mors])
                at_tgt = xi_value(n, p, [dbase.mor_tgt[u] for u in mors])
                if at_src is None or at_tgt is None:
                    continue
                lhs = _compose(cbase, at_tgt, cod.tensors[(n, p)].mor[tuple(on_mor[u] for u in mors)])
                rhs = _compose(cbase, on_mor[dom.tensors[(n, p)].mor[mors]], at_src)
                if lhs is not None and rhs is not None and lhs != rhs:
                    names.add("laxfun.xi_naturality")

    for n in range(N + 1):
        for m in range(N + 1):
            for f_values in _maps(m, n):
                fibs = _fibers(f_values, n)
                f = FinMap(m, n, f_values)
                for p in operad.carriers[n]:
                    for qs in itertools.product(*[operad.carriers[len(fb)] for fb in fibs]):
                        rho = operad.compose(f, p, qs)
                        for objs in itertools.product(range(len(dbase.objects)), repeat=m):
                            B = tuple(
                                dom.tensors[(len(fb), q)].obj[tuple(objs[j - 1] for j in fb)]
                                for fb, q in zip(fibs, qs)
                            )
                            dom_phi = _omon_phi(dom, f_values, n, p, qs, objs)
                            cod_phi = _omon_phi(cod, f_values, n, p, qs, [on_obj[a] for a in objs])
                            top = xi_value(m, rho, objs)
                            bottom = xi_value(n, p, B)
                            blocks = [xi_value(len(fb), q, [objs[j - 1] for j in fb]) for fb, q in zip(fibs, qs)]
                            if None in [dom_phi, cod_phi, top, bottom] + blocks:
                                names.add("laxfun.coherence_missing")
                                continue
                            lhs = _compose(cbase, on_mor[dom_phi], top)
                            inner = _compose(cbase, cod.tensors[(n, p)].mor[tuple(blocks)], cod_phi)
                            rhs = None if inner is None else _compose(cbase, bottom, inner)
                            if lhs is None or rhs is None:
                                names.add("laxfun.coherence_missing")
                            elif lhs != rhs:
                                names.add("laxfun.coherence")
    return names, _classify(resolved, lambda v: _is_identity(cbase, v), lambda v: _invertible(cbase, v))


# ---------------------------------------------------------------------------
# oracle 3: lax functors into finite sets with the Cartesian product
#
# A set is its tuple of labels; a function is (dom, cod, mapping).


def _product(sets):
    if len(sets) == 1:
        return sets[0]
    return tuple("(" + ",".join(combo) + ")" for combo in itertools.product(*sets))


def _code(digits, sizes):
    out = 0
    for d, s in zip(digits, sizes):
        out = out * s + d
    return out


def _fn_product(fns):
    if len(fns) == 1:
        return fns[0]
    dom = _product([fn[0] for fn in fns])
    cod = _product([fn[1] for fn in fns])
    mapping = tuple(
        _code([fn[2][x] for fn, x in zip(fns, xs)], [len(fn[1]) for fn in fns])
        for xs in itertools.product(*[range(len(fn[0])) for fn in fns])
    )
    return dom, cod, mapping


def _fn_compose(g, f):
    if f[1] != g[0]:
        return None
    return f[0], g[1], tuple(g[2][x] for x in f[2])


def _regroup(f_values, n, sets):
    fibs = _fibers(f_values, n)
    flat = _product(sets)
    blocks = [_product([sets[j - 1] for j in fb]) for fb in fibs]
    cod = _product(blocks)
    mapping = []
    for xs in itertools.product(*[range(len(s)) for s in sets]):
        grouped = [_code([xs[j - 1] for j in fb], [len(sets[j - 1]) for j in fb]) for fb in fibs]
        mapping.append(_code(grouped, [len(b) for b in blocks]))
    return flat, cod, tuple(mapping)


def _as_fn(fn: FinFunction):
    return fn.dom.labels, fn.cod.labels, fn.mapping


def oracle_set_lax(L):
    """(check names, classification) of a lax functor into finite sets
    whose indexed set is already valid."""
    names = set()
    dom, iset = L.dom, L.iset
    operad, base = dom.operad, dom.base
    N = operad.max_arity
    sets = [v.labels for v in iset.values]
    actions = [_as_fn(a) for a in iset.actions]
    resolved = []

    def nu_value(n, p, objs):
        key = (n, p, tuple(objs))
        if key in L.nu:
            return _as_fn(L.nu[key])
        src = _product([sets[a] for a in objs])
        tgt = sets[dom.tensors[(n, p)].obj[tuple(objs)]]
        if n == 1 and p == operad.unit:
            return (src, tgt, tuple(range(len(tgt)))) if src == tgt else None
        if len(tgt) == 1 or len(src) == 0:
            return src, tgt, (0,) * len(src)
        return None

    def is_identity(fn):
        return fn[0] == fn[1] and fn[2] == tuple(range(len(fn[0])))

    def is_invertible(fn):
        return len(fn[0]) == len(fn[1]) and len(set(fn[2])) == len(fn[0])

    for n in range(N + 1):
        for p in operad.carriers[n]:
            for objs in itertools.product(range(len(base.objects)), repeat=n):
                value = nu_value(n, p, objs)
                if value is None:
                    names.add("laxtoset.nu_missing")
                    continue
                if (n, p, objs) in L.nu and (
                    value[0] != _product([sets[a] for a in objs]) or value[1] != sets[dom.tensors[(n, p)].obj[objs]]
                ):
                    names.add("laxtoset.nu_typing")
                    continue
                resolved.append(value)
                if n == 1 and p == operad.unit and not is_identity(value):
                    names.add("laxtoset.nu_unit")
            for mors in itertools.product(range(len(base.mor_labels)), repeat=n):
                at_src = nu_value(n, p, [base.mor_src[u] for u in mors])
                at_tgt = nu_value(n, p, [base.mor_tgt[u] for u in mors])
                if at_src is None or at_tgt is None:
                    continue
                across = _fn_product([actions[u] for u in mors])
                lhs = _fn_compose(at_tgt, across)
                rhs = _fn_compose(actions[dom.tensors[(n, p)].mor[mors]], at_src)
                if lhs is not None and rhs is not None and lhs != rhs:
                    names.add("laxtoset.nu_naturality")

    for n in range(N + 1):
        for m in range(N + 1):
            for f_values in _maps(m, n):
                fibs = _fibers(f_values, n)
                f = FinMap(m, n, f_values)
                for p in operad.carriers[n]:
                    for qs in itertools.product(*[operad.carriers[len(fb)] for fb in fibs]):
                        rho = operad.compose(f, p, qs)
                        for objs in itertools.product(range(len(base.objects)), repeat=m):
                            B = tuple(
                                dom.tensors[(len(fb), q)].obj[tuple(objs[j - 1] for j in fb)]
                                for fb, q in zip(fibs, qs)
                            )
                            dom_phi = _omon_phi(dom, f_values, n, p, qs, objs)
                            top = nu_value(m, rho, objs)
                            bottom = nu_value(n, p, B)
                            blocks = [nu_value(len(fb), q, [objs[j - 1] for j in fb]) for fb, q in zip(fibs, qs)]
                            if dom_phi is None or top is None or bottom is None or None in blocks:
                                names.add("laxtoset.coherence_missing")
                                continue
                            lhs = _fn_compose(actions[dom_phi], top)
                            regroup = _regroup(f_values, n, [sets[a] for a in objs])
                            inner = _fn_compose(_fn_product(blocks), regroup)
                            rhs = None if inner is None else _fn_compose(bottom, inner)
                            if lhs is None or rhs is None:
                                names.add("laxtoset.coherence_missing")
                            elif lhs != rhs:
                                names.add("laxtoset.coherence")
    return names, _classify(resolved, is_identity, is_invertible)


# ---------------------------------------------------------------------------
# every single-entry mutation


def _copy_tensors(tensors):
    return {key: TensorTable(obj=dict(t.obj), mor=dict(t.mor)) for key, t in tensors.items()}


def _tensor_mutations(tensors, n_obj, n_mor):
    """(key, table copy) for every tensor entry set to every other value."""
    for key in tensors:
        for side, size in (("obj", n_obj), ("mor", n_mor)):
            for combo, old in getattr(tensors[key], side).items():
                for value in range(size):
                    if value != old:
                        out = _copy_tensors(tensors)
                        getattr(out[key], side)[combo] = value
                        yield f"tensor {key} {side} {combo} -> {value}", out


def omon_mutations(c):
    """c with one tensor entry or one structure isomorphism changed:
    explicit entries set to every other morphism, absent ones forced to
    every morphism but the identity default."""
    def rebuilt(tensors=None, phi=None):
        return type(c)(
            operad=c.operad,
            base=c.base,
            tensors=_copy_tensors(c.tensors) if tensors is None else tensors,
            phi=dict(c.phi) if phi is None else phi,
            name=c.name,
        )

    for what, tensors in _tensor_mutations(c.tensors, c.base.n_objects, c.base.n_morphisms):
        yield what, rebuilt(tensors=tensors)
    arities = range(c.operad.max_arity + 1)
    for n, m in itertools.product(arities, arities):
        for f_values in _maps(m, n):
            f = FinMap(m, n, f_values)
            fibs = _fibers(f_values, n)
            for p in c.operad.carriers[n]:
                for qs in itertools.product(*[c.operad.carriers[len(fb)] for fb in fibs]):
                    for objs in itertools.product(range(c.base.n_objects), repeat=m):
                        key = (f, p, qs, objs)
                        old = c.phi.get(key, _omon_phi(c, f_values, n, p, qs, objs))
                        for value in range(c.base.n_morphisms):
                            if value != old:
                                phi = dict(c.phi)
                                phi[key] = value
                                yield f"phi {f.label()} {p} {qs} {objs} -> {value}", rebuilt(phi=phi)


def unbiased_mutations(u):
    def rebuilt(tensors=None, alpha=None):
        return UnbiasedData(
            base=u.base,
            max_arity=u.max_arity,
            tensors=_copy_tensors(u.tensors) if tensors is None else tensors,
            alpha=dict(u.alpha) if alpha is None else alpha,
            name=u.name,
        )

    for what, tensors in _tensor_mutations(u.tensors, u.base.n_objects, u.base.n_morphisms):
        yield what, rebuilt(tensors=tensors)
    for n in range(u.max_arity + 1):
        for m in range(u.max_arity + 1):
            for f_values in _maps(m, n):
                if not _monotone(f_values):
                    continue
                f = FinMap(m, n, f_values)
                for objs in itertools.product(range(u.base.n_objects), repeat=m):
                    key = (f, objs)
                    old = u.alpha.get(key)
                    if old is not None:
                        alpha = dict(u.alpha)
                        del alpha[key]
                        yield f"alpha {f.label()} {objs} removed", rebuilt(alpha=alpha)
                    for value in range(u.base.n_morphisms):
                        if value != old and (old is not None or not _is_identity(u.base, value)):
                            alpha = dict(u.alpha)
                            alpha[key] = value
                            yield f"alpha {f.label()} {objs} -> {value}", rebuilt(alpha=alpha)


def _names(report):
    return {r.check for r in report.records}


# ---------------------------------------------------------------------------
# the sweeps


@pytest.mark.parametrize("make", [dz2_assoc_omon, l2_comm_omon], ids=["DZ2", "L2"])
def test_omon_oracle_agrees_on_every_single_entry_mutation(make):
    c = make(2)
    assert check_omon_category(c).ok and oracle_omon(c) == set()
    swept = 0
    for what, mutated in omon_mutations(c):
        swept += 1
        report = check_omon_category(mutated)
        expected = oracle_omon(mutated)
        assert (report.ok, _names(report)) == (not expected, expected), what
    assert swept > 50


def test_unbiased_oracle_agrees_on_every_single_entry_mutation():
    u = twisted_bz2_unbiased(3)
    assert validate_unbiased(u).ok and oracle_unbiased(u) == set()
    failing = 0
    for what, mutated in unbiased_mutations(u):
        report = validate_unbiased(mutated)
        expected = oracle_unbiased(mutated)
        assert (report.ok, _names(report)) == (not expected, expected), what
        failing += not report.ok
    assert failing > 30


def _checked_through_a_memo(L, memo):
    """L's report through the round trip's memo step, with both structure
    reports already on the memo, as in a round trip."""
    _checked_omon(memo, L.dom)
    _checked_omon(memo, L.cod)
    return _checked_lax(memo, L)


def _assert_table_lax_agrees(L, what, memo):
    """The check of L standalone and through ``memo`` gives the same
    records in the same order, the same counters and the same notes, and
    agrees with the oracle; gives the standalone report."""
    report = _check_table_lax(L)
    via = _checked_through_a_memo(L, memo)
    assert (via.records, list(via.stats.items()), via.info) == (report.records, list(report.stats.items()), report.info), what
    names, classification = oracle_table_lax(L)
    assert (report.ok, _names(report), report.info["classification"]) == (not names, names, classification), what
    return report


def _bz2_view(alpha):
    """The one-object group as a structure over the terminal operad, with
    the twisted structure isomorphisms or with none; the twisted view is
    not clean over all maps, the strict one is."""
    u = twisted_bz2_unbiased(3)
    if alpha == "strict":
        u = UnbiasedData(base=u.base, max_arity=u.max_arity, tensors=u.tensors, alpha={}, name="STRICT")
    return _comm_view(u)


def test_table_lax_oracle_agrees_on_every_comparison_flip():
    # the only non-identity comparisons available: the flip of the
    # one-object group, at every operation and object tuple, over the
    # twisted and the strict structure
    cases = []
    for alpha in ("twisted", "strict"):
        view = _bz2_view(alpha)
        flip = view.base.mor_index("1")
        clean = LaxOMonFunctor(dom=view, cod=view, functor=identity_functor(view.base), xi={})
        cases.append((f"{alpha} identity", clean))
        for n in range(view.operad.max_arity + 1):
            for objs in itertools.product(range(view.base.n_objects), repeat=n):
                xi = {(n, "*", objs): flip}
                cases.append((f"{alpha} xi {n} {objs} flipped", LaxOMonFunctor(dom=view, cod=view, functor=clean.functor, xi=xi)))
    verdicts, memo = set(), {}
    for what, L in cases:
        verdicts.add(_assert_table_lax_agrees(L, what, memo).ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("make", [dz2_assoc_omon, l2_comm_omon, grade_assoc_omon], ids=["DZ2", "L2", "grade"])
def test_table_lax_oracle_agrees_with_a_mutated_structure_on_either_side(make):
    # the identity functor between a structure and each of its single-entry
    # structure-iso mutations, in both directions and to itself, and into
    # each of its tensor mutations: every leg of a coherence square is a
    # default identity where the tensors agree, so the two sides' structure
    # isomorphisms and the cod's tensor of identities decide it
    c = make(2)
    functor = identity_functor(c.base)
    cases = [("clean", LaxOMonFunctor(dom=c, cod=c, functor=functor))]
    for what, m in omon_mutations(c):
        sides = (("c->m", c, m), ("m->c", m, c), ("m->m", m, m)) if what.startswith("phi ") else (("c->m", c, m),)
        for side, dom, cod in sides:
            cases.append((f"{what} {side}", LaxOMonFunctor(dom=dom, cod=cod, functor=functor)))
    verdicts, memo = set(), {}
    for what, L in cases:
        verdicts.add(_assert_table_lax_agrees(L, what, memo).ok)
    assert verdicts == {True, False} and len(cases) > 150


def _with_tensor_entry(c, n, p, side, combo, value):
    out = type(c)(operad=c.operad, base=c.base, tensors=_copy_tensors(c.tensors), phi=dict(c.phi), name=c.name)
    getattr(out.tensors[(n, p)], side)[combo] = value
    return out


def _untouched_key_cases():
    """Lax functors between clean or nearly clean structures, each of
    which breaks one condition under which a round trip may prove a
    coherence key without evaluating it, at keys that meet all the others
    and whose squares fail; with the number of records of each."""
    dz2 = dz2_assoc_omon(2)
    binary = dz2.operad.elements(2)[0]
    point = discrete_category("PT", ["pt"])
    terminal = build_omon(dz2.operad, point, lambda n, p, combo: 0, lambda n, p, combo: 0, name="PT")
    # T(0, 1) redirected to 0: phi of dz2 has no default at the keys through
    # it, but every object of the point is its own tensor
    no_default = _with_tensor_entry(dz2, 2, binary, "obj", (0, 1), 0)
    # the tensor of two identities of 0 is the identity of 1
    no_identity = _with_tensor_entry(dz2, 2, binary, "mor", (0, 0), dz2.base.id_of(1))
    twisted = extend_unbiased_to_assoc(twisted_bz2_unbiased(3))
    strict = type(twisted)(operad=twisted.operad, base=twisted.base, tensors=twisted.tensors, name="STRICT")
    view = _bz2_view("strict")
    flip = view.base.mor_index("1")
    same = identity_functor(dz2.base)
    return [
        ("unclean dom", LaxOMonFunctor(dom=no_default, cod=terminal, functor=constant_functor(dz2.base, point, 0)), 6),
        ("unclean cod", LaxOMonFunctor(dom=dz2, cod=no_identity, functor=same), 13),
        ("explicit dom phi", LaxOMonFunctor(dom=twisted, cod=strict, functor=identity_functor(twisted.base)), 290),
        ("explicit cod phi", LaxOMonFunctor(dom=strict, cod=twisted, functor=identity_functor(twisted.base)), 290),
        # f: 3 -> 2 reads the flip at rho alone, f: 2 -> 3 at p alone
        ("leg at rho or p", LaxOMonFunctor(dom=view, cod=view, functor=identity_functor(view.base), xi={(3, "*", (0, 0, 0)): flip}), 22),
        # f: 1 -> 2 reads the flip at its empty fiber alone
        ("leg at a q_i", LaxOMonFunctor(dom=view, cod=view, functor=identity_functor(view.base), xi={(0, "*", ()): flip}), 31),
        ("typing record", LaxOMonFunctor(dom=dz2, cod=dz2, functor=same, xi={(2, binary, (0, 0)): dz2.base.id_of(1)}), 18),
    ]


def test_table_lax_untouched_key_cases_agree_with_the_oracle():
    # the oracle gives check names, so the number of records is pinned too
    memo = {}
    for what, L, n_records in _untouched_key_cases():
        report = _assert_table_lax_agrees(L, what, memo)
        assert _names(report) & {"laxfun.coherence", "laxfun.coherence_missing"}, what
        assert len(report.records) == n_records, what


def _all_functions(src, tgt):
    for mapping in itertools.product(range(tgt.size), repeat=src.size):
        yield FinFunction(src, tgt, mapping)


def _rule_laxtoset(index, sets, maps, rule, name):
    """A lax functor into finite sets out of ``index``, its indexed set
    given by label tables and its comparisons by a rule on element labels."""
    iset = iset_from_tables(index.base, sets, maps, name=f"{name}F")
    return _laxtoset_from_rule(index, iset, rule, name)


def _any_b(n, p, xs):
    return "b" if any("b" in x for x in xs) else "a"


def _set_lax_families():
    """The shipped families at arity 2, and two more over L2(2) with the
    comparisons of the or-monoid {a, b}: one whose two objects carry the
    same set {a, b}, and one whose bottom set is labelled as the product
    of {a, b} with the empty product, so that its labels contain commas
    and equal those of the codomain of a regrouping."""
    nullary = {"a": "(a,())", "b": "(b,())"}
    return [
        l2_laxtoset(2),
        grade_laxtoset(2),
        qconv_proj_laxtoset(2),
        _rule_laxtoset(l2_comm_omon(2), {"0": ["a", "b"], "1": ["a", "b"]}, {"le_0_1": {"a": "a", "b": "b"}}, _any_b, "EQUALSETS"),
        _rule_laxtoset(
            l2_comm_omon(2),
            {"0": list(nullary.values()), "1": ["a", "b"]},
            {"le_0_1": {v: k for k, v in nullary.items()}},
            lambda n, p, xs: nullary[_any_b(n, p, xs)] if any(x in nullary.values() for x in xs) else _any_b(n, p, xs),
            "COMMAS",
        ),
    ]


def _assert_set_lax_agrees(L, what):
    report = _check_set_lax(L)
    names, classification = oracle_set_lax(L)
    assert (report.ok, _names(report), report.info["classification"]) == (not names, names, classification), what
    return report.ok


def test_set_lax_oracle_agrees_on_every_comparison_function():
    # every single-entry change of a comparison, at every operation: each
    # well-typed function, one function into each other fiber, and deletion
    swept, verdicts = 0, set()
    for x in _set_lax_families():
        assert _assert_set_lax_agrees(x, x.name) and oracle_set_lax(x) == (set(), "lax"), x.name
        dom, iset = x.dom, x.iset
        fibers = dict.fromkeys(iset.values)
        for n in range(dom.operad.max_arity + 1):
            for p in dom.operad.elements(n):
                for objs in itertools.product(range(dom.base.n_objects), repeat=n):
                    key = (n, p, objs)
                    src, tgt = x.nu_sets(n, p, objs)
                    old = x.nu.get(key)
                    variants = [fn for fn in _all_functions(src, tgt) if fn != old]
                    variants += [
                        FinFunction(src, wrong, (0,) * src.size)
                        for wrong in fibers
                        if wrong != tgt and (wrong.size or not src.size)
                    ]
                    if old is not None:
                        variants.append(None)
                    for fn in variants:
                        nu = dict(x.nu)
                        if fn is None:
                            del nu[key]
                        else:
                            nu[key] = fn
                        verdicts.add(_assert_set_lax_agrees(LaxSetFunctor(dom=dom, iset=iset, nu=nu, name=x.name), (x.name, key, fn)))
                        swept += 1
    assert verdicts == {True, False} and swept > 250


def test_set_lax_oracle_agrees_on_every_structure_iso_change():
    # every single-entry change of the domain's structure isomorphism, to
    # every morphism of its base, under each family's comparisons
    swept, verdicts = 0, set()
    for x in _set_lax_families():
        c = x.dom
        for what, mutated in omon_mutations(c):
            if what.startswith("phi "):
                verdicts.add(_assert_set_lax_agrees(LaxSetFunctor(dom=mutated, iset=x.iset, nu=x.nu, name=x.name), (x.name, what)))
                swept += 1
    assert verdicts == {True, False} and swept > 250


def _sets(sizes):
    return [FinSet(tuple(f"x{k}" for k in range(size))) for size in sizes]


def test_regroupings_and_products_match_their_references():
    # every map f: m -> n with n <= 4, over sets of size 0-3 for m <= 3 and
    # of size 0-2 for m = 4; products of one function per set, each into a
    # set one larger, over the same tuples of sets
    regroupings = products = 0
    for m in range(5):
        tuples = list(itertools.product(range(4 if m < 4 else 3), repeat=m))
        for n in range(5):
            for values in _maps(m, n):
                f = FinMap(m, n, values)
                for sizes in tuples:
                    sets = _sets(sizes)
                    got = _as_fn(set_regroup(f, sets))
                    assert got == _regroup(values, n, [s.labels for s in sets]), (values, sizes)
                    regroupings += 1
        for sizes in tuples:
            fns = [
                FinFunction(s, t, tuple(s.size - x for x in range(s.size)))
                for s, t in zip(_sets(sizes), _sets(size + 1 for size in sizes))
            ]
            assert _as_fn(o_fn_product(fns)) == _fn_product([_as_fn(fn) for fn in fns]), sizes
            products += 1
    assert (regroupings, products) == (35599, 166)


@pytest.mark.parametrize("sizes", [(), (3,), (2, 0, 3), (1, 3, 2, 2)], ids=["empty", "3", "2x0x3", "1x3x2x2"])
def test_tuple_codes_follow_product_order(sizes):
    tuples = list(itertools.product(*map(range, sizes)))
    digits = _digits(sizes)
    assert len(digits) == len(sizes) and all(len(d) == len(tuples) for d in digits)
    assert [tuple(d[x] for d in digits) for x in range(len(tuples))] == tuples
    for r in range(len(sizes) + 1):
        for positions in itertools.combinations(range(1, len(sizes) + 1), r):
            sub = list(itertools.product(*(range(sizes[j - 1]) for j in positions)))
            assert list(_sub_codes(sizes, positions)) == [sub.index(tuple(t[j - 1] for j in positions)) for t in tuples]


# ---------------------------------------------------------------------------
# natural families of indexed sets


def oracle_valid_mus(F, G, M, cap):
    """The mapping tuples of every natural family mu_a : F(a) -> G(M a),
    in the order of the product of the per-object functions, up to
    ``cap`` families: each candidate is built whole and then tested at
    every morphism."""
    n = F.index.n_objects
    per_object = [
        list(itertools.product(range(len(G.values[M.on_obj[a]].labels)), repeat=len(F.values[a].labels)))
        for a in range(n)
    ]
    found = []
    for combo in itertools.product(*per_object):
        natural = True
        for m in range(F.index.n_morphisms):
            a, b = F.index.mor_src[m], F.index.mor_tgt[m]
            g_act, f_act = G.actions[M.on_mor[m]].mapping, F.actions[m].mapping
            if [g_act[v] for v in combo[a]] != [combo[b][v] for v in f_act]:
                natural = False
                break
        if natural:
            found.append(combo)
            if len(found) >= cap:
                break
    return found


# a subset of the corpus_small.spec isets: every index shape, an empty
# value set, an involution, and sizes up to 3
ORACLE_ISETS = (
    "term_i18", "disc2_i19", "disc2_i1", "disc3_i20", "l2_i3", "l2_i21",
    "chain3_i4", "span_i23", "cospan_i24", "par_i25", "bz2_i8", "bz2_i17",
)


def test_valid_mus_matches_the_product_loop_at_every_cap():
    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "corpus_small.spec"
    doc = parse_spec_file(path.read_text(encoding="utf-8"))
    isets = {s.value.name: s.value for s in doc.by_kind("iset")}
    triples = cut = 0
    for F in (isets[name] for name in ORACLE_ISETS):
        for G in (isets[name] for name in ORACLE_ISETS):
            for M in all_functors(F.index, G.index):
                triples += 1
                for cap in (4000, 1, 2, 7):
                    cells = _valid_mus(F, G, M, cap)
                    expected = oracle_valid_mus(F, G, M, cap)
                    assert [tuple(fn.mapping for fn in cell.mu) for cell in cells] == expected, (F.name, G.name, M.on_mor, cap)
                    for cell in cells:
                        assert cell.dom is F and cell.cod is G and cell.functor is M
                        assert all(
                            fn.dom == F.values[a] and fn.cod == G.values[M.on_obj[a]] for a, fn in enumerate(cell.mu)
                        )
                    cut += cap < 4000 and len(cells) == cap
    assert triples > 600 and cut > 300


# ---------------------------------------------------------------------------
# the permutation operad and the quasi-convexity operad


def oracle_assoc_compose(f, p, qs):
    """``mu(f; sigma; taus)`` of the permutation operad: the permutation of
    the monotone-times-permutation factorization of ``sigma . f`` after
    the block permutation of the taus over f."""

    def perm(label):
        values = tuple(int(t) for t in label[1:-1].split(",")) if label != "[]" else ()
        return FinMap(len(values), len(values), values)

    sigma, taus = perm(p), [perm(q) for q in qs]
    _, sigma_f = factorize_monotone_perm(fm_compose(sigma, f))
    return fm_compose(sigma_f, block_permutation(f, taus)).label()


def oracle_qconv_compose(f, p, qs):
    """``mu(f; alpha; betas)`` of the quasi-convexity operad over the
    Boolean semiring: coordinate j of the result is ``alpha_f(j)`` times
    the coordinate of ``beta_f(j)`` at j's place in its fiber."""

    def coords(label):
        return label[1:-1].split(",") if label != "()" else []

    alpha, betas = coords(p), [coords(q) for q in qs]
    out = ["0"] * f.source
    for i, fib in enumerate(_fibers(f.values, f.target)):
        for k, j in enumerate(fib):
            out[j - 1] = "1" if alpha[i] == betas[i][k] == "1" else "0"
    return "(" + ",".join(out) + ")"


@pytest.mark.parametrize(
    "build, oracle, arities, n_keys",
    [
        (build_assoc, oracle_assoc_compose, range(1, 5), 3 + 23 + 533 + 26597),
        (lambda k: build_qconv(boolean_semiring(), k), oracle_qconv_compose, range(1, 6), 28143),
    ],
    ids=["assoc", "qconv"],
)
def test_operad_composition_matches_its_reference(build, oracle, arities, n_keys):
    keys = 0
    for k in arities:
        o = build(k)
        for f, p, qs in composition_keys(o):
            assert o.compose(f, p, qs) == oracle(f, p, qs), (f, p, qs)
            keys += 1
    assert keys == n_keys


# ---------------------------------------------------------------------------
# the cell laws of the structured round trip: the comparison square of a
# cell into finite sets, the composite of two lax functors and the strict
# commuting of comparisons with projections
#
# Each oracle reads the label tables one operation and object tuple at a
# time, and names the first missing value or uncomposable pair of an
# instance in the order the checker evaluates them.  The checks that come
# before the loops are the package's own.


def _xi_label(L, n, p, objs):
    """L's comparison at (n, p, objs), or None where it is missing."""
    key = (n, p, tuple(objs))
    if key in L.xi:
        return L.xi[key]
    on_obj = L.functor.on_obj
    src = L.cod.tensors[(n, p)].obj[tuple(on_obj[a] for a in objs)]
    tgt = on_obj[L.dom.tensors[(n, p)].obj[tuple(objs)]]
    return L.cod.base.identity[src] if src == tgt else None


def _nu_label(x, n, p, objs):
    """x's comparison function at (n, p, objs), or None where it is missing."""
    key = (n, p, tuple(objs))
    if key in x.nu:
        return _as_fn(x.nu[key])
    sets = [v.labels for v in x.iset.values]
    src = _product([sets[a] for a in objs])
    tgt = sets[x.dom.tensors[(n, p)].obj[tuple(objs)]]
    if n == 1 and p == x.dom.operad.unit:
        return (src, tgt, tuple(range(len(tgt)))) if src == tgt else None
    if len(tgt) == 1 or len(src) == 0:
        return src, tgt, (0,) * len(src)
    return None


def _render(kind, letter, p, labels):
    return f"{kind}[p={p},{letter}=({','.join(labels)})]"


def oracle_ocell(c):
    """check_ocell's report: the checks of the index lax functor and of the
    indexed-set cell, then the comparison square at every operation and
    object tuple, ``mu . nu_x == G(xi) . nu_y . (mu x ... x mu)``."""
    report = CheckReport()
    where = c.name or "ocell"
    report.merge(_check_table_lax(c.index_lax()), where=f"{where}:index")
    report.merge(validate_iset_cell(c.iset_cell()), where=f"{where}:iset")
    if not report.ok:
        return report
    x, y, on_obj = c.dom, c.cod, c.functor.on_obj
    lax, objects, cod_objects = c.index_lax(), x.dom.base.objects, y.dom.base.objects
    mu = [_as_fn(m) for m in c.mu]
    actions = [_as_fn(a) for a in y.iset.actions]

    def square(n, p, objs):
        """(lhs, rhs), or the witness of the first failure."""
        top = _nu_label(x, n, p, objs)
        if top is None:
            return _render("nu", "i", p, [objects[a] for a in objs])
        lhs = _fn_compose(mu[x.dom.tensors[(n, p)].obj[objs]], top)
        if lhs is None:
            return "functions not composable"
        xi = _xi_label(lax, n, p, objs)
        if xi is None:
            return _render("xi", "A", p, [objects[a] for a in objs])
        image = tuple(on_obj[a] for a in objs)
        bottom = _nu_label(y, n, p, image)
        if bottom is None:
            return _render("nu", "i", p, [cod_objects[a] for a in image])
        inner = _fn_compose(bottom, _fn_product([mu[a] for a in objs]))
        rhs = None if inner is None else _fn_compose(actions[xi], inner)
        return "functions not composable" if rhs is None else (lhs, rhs)

    for n in range(x.dom.operad.max_arity + 1):
        for p in x.dom.operad.carriers[n]:
            for objs in itertools.product(range(len(objects)), repeat=n):
                report.count("ocell.square_instances")
                got = square(n, p, objs)
                if isinstance(got, str):
                    report.violation("ocell.missing", got, where)
                elif got[0] != got[1]:
                    report.violation(
                        "ocell.square", "comparison square fails at " + _render("nu", "i", p, [objects[a] for a in objs]), where
                    )
    return report


def oracle_compose_lax(L2, L1):
    """("ok", xi) of L2 after L1, where xi holds the components that are
    not the identity an absent entry stands for; or the exception name
    and text of the first missing component or undefined composite."""
    dom, cod, F1, F2 = L1.dom, L2.cod, L1.functor, L2.functor
    base = cod.base
    xi = {}
    for n in range(dom.operad.max_arity + 1):
        for p in dom.operad.carriers[n]:
            for objs in itertools.product(range(len(dom.base.objects)), repeat=n):
                first = _xi_label(L1, n, p, objs)
                if first is None:
                    return "PhiMissing", _render("xi", "A", p, [dom.base.objects[a] for a in objs])
                image = tuple(F1.on_obj[a] for a in objs)
                second = _xi_label(L2, n, p, image)
                if second is None:
                    return "PhiMissing", _render("xi", "A", p, [L2.dom.base.objects[a] for a in image])
                g = F2.on_mor[first]
                value = base.composition.get((g, second))
                if value is None:
                    pair = f"({base.mor_labels[g]}, {base.mor_labels[second]})"
                    return "KeyError", str(KeyError(f"no composition entry for {pair}"))
                src = cod.tensors[(n, p)].obj[tuple(F2.on_obj[a] for a in image)]
                tgt = F2.on_obj[F1.on_obj[dom.tensors[(n, p)].obj[objs]]]
                if src != tgt or value != base.identity[src]:
                    xi[(n, p, objs)] = value
    return "ok", xi


def _composed(L2, L1):
    try:
        return "ok", _compose_lax(L2, L1).xi
    except (PhiMissing, KeyError) as exc:
        return type(exc).__name__, str(exc)


def oracle_ofib_cell(c):
    """check_ofib_cell's report: the checks of the underlying square and of
    the two lax functors, then whether the top comparison at every
    operation and tuple of total objects projects to the bottom one."""
    report = CheckReport()
    where = c.name or "ofibcell"
    report.merge(validate_dfib_cell(c.dfib_cell()), where=f"{where}:square")
    report.merge(_check_table_lax(c.top_lax()), where=f"{where}:top")
    report.merge(_check_table_lax(c.bottom_lax()), where=f"{where}:bottom")
    if not report.ok:
        return report
    top, bottom = c.top_lax(), c.bottom_lax()
    objects, base_objects = c.dom.fib.total.objects, c.dom.fib.base.objects
    down_obj, proj = c.dom.fib.proj.on_obj, c.cod.fib.proj.on_mor
    for n in range(top.dom.operad.max_arity + 1):
        for p in top.dom.operad.carriers[n]:
            for combo in itertools.product(range(len(objects)), repeat=n):
                report.count("ofibcell.strict_instances")
                up = _xi_label(top, n, p, combo)
                if up is None:
                    report.violation("ofibcell.missing", _render("xi", "A", p, [objects[a] for a in combo]), where)
                    continue
                image = tuple(down_obj[a] for a in combo)
                down = _xi_label(bottom, n, p, image)
                if down is None:
                    report.violation("ofibcell.missing", _render("xi", "A", p, [base_objects[a] for a in image]), where)
                elif proj[up] != down:
                    witness = _render("xi", "A", p, [objects[a] for a in combo]) + " does not commute with the projections"
                    report.violation("ofibcell.strict_xi", witness, where)
    return report


def _twisted_cells():
    """Cells over the twisted one-object group, on the set {a, b} with the
    flip acting as the swap.  The flip at every even arity is a valid
    comparison of the identity functor, by the cocycle of the twist; XOR
    compares by the parity of the b's, and SWAPPED by XOR followed by the
    swap at even arities.  The first two cells hold, the third fails its
    square at every even arity."""
    tw = extend_unbiased_to_assoc(twisted_bz2_unbiased(3))
    flip = tw.base.mor_index("1")
    iset = iset_from_tables(tw.base, {"pt": ["a", "b"]}, {"1": {"a": "b", "b": "a"}}, name="swapF")

    def parity(n, p, xs, shift=0):
        return "ab"[(sum(x == "b" for x in xs) + shift) % 2]

    xor = _laxtoset_from_rule(tw, iset, parity, "XOR")
    swapped = _laxtoset_from_rule(tw, iset, lambda n, p, xs: parity(n, p, xs, n % 2 == 0), "SWAPPED")
    even = {(n, p, (0,) * n): flip for n in (0, 2) for p in tw.operad.elements(n)}
    same, swap = (fn_identity(iset.values[0]),), (iset.actions[flip],)
    functor = identity_functor(tw.base)
    return [
        OCell(dom=swapped, cod=xor, functor=functor, xi=even, mu=same, name="TW1"),
        OCell(dom=xor, cod=xor, functor=functor, xi=even, mu=swap, name="TW2"),
        OCell(dom=xor, cod=xor, functor=functor, xi=even, mu=same, name="TW3"),
    ]


def _cells():
    """The identity cells of the shipped families at arity 2, two cells the
    search finds between L2FAM and its trivial family, and the twisted
    cells."""
    l2fam = l2_laxtoset(2)
    triv = trivial_laxtoset(l2fam.dom, name="TRIVL2")
    cells = [identity_ocell(x) for x in (grade_laxtoset(2), l2fam, qconv_proj_laxtoset(2))]
    cells += enumerate_ocells(l2fam, triv, cap=1) + enumerate_ocells(l2fam, l2fam, cap=2)[1:]
    return cells + _twisted_cells()


def _xi_flips(xi, dom, cod, functor):
    """(what, xi) for each comparison set to every other morphism of the
    cod base, and each explicit one deleted."""
    L = LaxOMonFunctor(dom=dom, cod=cod, functor=functor, xi=xi)
    for n in range(dom.operad.max_arity + 1):
        for p in dom.operad.elements(n):
            for objs in itertools.product(range(dom.base.n_objects), repeat=n):
                key = (n, p, objs)
                old = _xi_label(L, n, p, objs)
                for value in range(cod.base.n_morphisms):
                    if value != old:
                        yield f"xi {key} -> {value}", {**xi, key: value}
                if key in xi:
                    yield f"xi {key} deleted", {k: v for k, v in xi.items() if k != key}


def _cell_variants(c):
    """The cell, and each cell one mu entry, one xi entry or one explicit nu
    entry of either side away from it."""
    yield "clean", c
    for a, fn in enumerate(c.mu):
        for i, old in enumerate(fn.mapping):
            for value in range(fn.cod.size):
                if value != old:
                    mapping = fn.mapping[:i] + (value,) + fn.mapping[i + 1 :]
                    mu = c.mu[:a] + (FinFunction(fn.dom, fn.cod, mapping),) + c.mu[a + 1 :]
                    yield f"mu {a} {i} -> {value}", OCell(c.dom, c.cod, c.functor, c.xi, mu, c.name)
    for what, xi in _xi_flips(c.xi, c.dom.dom, c.cod.dom, c.functor):
        yield what, OCell(c.dom, c.cod, c.functor, xi, c.mu, c.name)
    for side in ("dom", "cod"):
        x = getattr(c, side)
        for key in x.nu:
            cut = LaxSetFunctor(dom=x.dom, iset=x.iset, nu={k: v for k, v in x.nu.items() if k != key}, name=x.name)
            ends = {"dom": c.dom, "cod": c.cod, side: cut}
            yield f"{side} nu {key} deleted", OCell(ends["dom"], ends["cod"], c.functor, c.xi, c.mu, c.name)


def _same_report(got, expected):
    return (got.records, got.stats) == (expected.records, expected.stats)


def test_cell_square_and_composite_agree_with_their_oracles():
    # every single-entry mu change and xi flip of each cell, and each
    # explicit nu entry of either side deleted: the check gives the
    # oracle's records in its order and its counters, and the index lax
    # functor composes with the cell's own, either way round and with
    # itself, to the oracle's comparisons or its exception
    seen, swept = set(), 0
    for cell in _cells():
        original = cell.index_lax()
        for what, c in _cell_variants(cell):
            report = check_ocell(c)
            assert _same_report(report, oracle_ocell(c)), (cell.name, what)
            seen |= _names(report)
            L = c.index_lax()
            for L2, L1 in ((L, original), (original, L), (L, L)):
                got = _composed(L2, L1)
                assert got == oracle_compose_lax(L2, L1), (cell.name, what)
                seen.add(got[0] if got[0] != "ok" or not got[1] else "nontrivial")
            swept += 1
    assert {"ocell.square", "ocell.missing", "laxfun.coherence", "iset.naturality"} <= seen, seen
    assert {"KeyError", "nontrivial", "ok"} <= seen and swept > 150, (seen, swept)


def test_composite_reports_a_missing_default_as_the_label_tables_do():
    # the constant functor at 1 of DZ2 has no default comparison at the
    # nullary operation, where the unit object 0 meets F(0) = 1
    dz2 = dz2_assoc_omon(2)
    const = LaxOMonFunctor(dom=dz2, cod=dz2, functor=constant_functor(dz2.base, dz2.base, 1))
    same = LaxOMonFunctor(dom=dz2, cod=dz2, functor=identity_functor(dz2.base))
    for L2, L1 in ((same, const), (const, same)):
        assert _composed(L2, L1) == oracle_compose_lax(L2, L1) == ("PhiMissing", "xi[p=[],A=()]")


def _ofib_cells():
    """The identity structure on the twisted group with the even flips above
    and below, which commute with the projections, and with them on one
    side only, which do not; the construction of the cell with the even
    flips on the trivial family over the twisted group; and the
    constructions of the arity-2 identity cells of GRADE and QPROJ."""
    tw = extend_unbiased_to_assoc(twisted_bz2_unbiased(3))
    flip = tw.base.mor_index("1")
    even = {(n, p, (0,) * n): flip for n in (0, 2) for p in tw.operad.elements(n)}
    y = identity_ofib(tw, name="idTW")
    top, bottom = identity_functor(y.fib.total), identity_functor(y.fib.base)
    triv = trivial_laxtoset(tw, name="TRIVTW")
    cells = [identity_ocell(triv), identity_ocell(grade_laxtoset(2)), identity_ocell(qconv_proj_laxtoset(2))]
    cells[0].xi = even
    return [
        OFibCell(y, y, top, bottom, xi_top=even, xi_bottom=even, name="EVEN"),
        OFibCell(y, y, top, bottom, xi_top=even, xi_bottom={}, name="ABOVE"),
        OFibCell(y, y, top, bottom, xi_top={}, xi_bottom=even, name="BELOW"),
    ] + [omon_groth(c) for c in cells]


def test_strict_xi_pass_agrees_with_its_oracle_on_every_comparison_flip():
    seen, swept = set(), 0
    for cell in _ofib_cells():
        variants = [cell]
        for what, xi in _xi_flips(cell.xi_top, cell.dom.total_omon, cell.cod.total_omon, cell.top):
            variants.append(OFibCell(cell.dom, cell.cod, cell.top, cell.bottom, xi, cell.xi_bottom, cell.name))
        for what, xi in _xi_flips(cell.xi_bottom, cell.dom.base_omon, cell.cod.base_omon, cell.bottom):
            variants.append(OFibCell(cell.dom, cell.cod, cell.top, cell.bottom, cell.xi_top, xi, cell.name))
        for c in variants:
            report = check_ofib_cell(c)
            assert _same_report(report, oracle_ofib_cell(c)), (cell.name, c.xi_top, c.xi_bottom)
            seen |= _names(report)
            swept += 1
    assert "ofibcell.strict_xi" in seen and "laxfun.coherence" in seen and swept > 100, (seen, swept)
