"""Operad-indexed monoidal structure on finite categories, in the
unpacked presentation: one tensor functor per operation, one structure
isomorphism per map of finite ordinals, with every coherence law checked
by enumeration.

Structure isomorphisms are stored sparsely: an absent entry means the
identity, which is only well-typed when the two endpoint objects agree.
Missing entries whose endpoints differ are reported, never guessed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .fincore import (
    CatFunctor,
    FinCat,
    FinMap,
    NatTransform,
    all_maps,
    discrete_category,
    factorize_monotone_perm,
    fiber,
    fm_compose,
    functor_compose,
    identity_map,
    invert_permutation,
    product_category,
    terminal_map,
    validate_functor,
    validate_natural_transformation,
)
from .fib2cat import (
    FinFunction,
    FinSet,
    IndexedSet,
    fn_compose,
    set_product,
    validate_indexed_set,
)
from .operads import (
    Operad,
    _keys,
    _squares,
    build_assoc,
    build_comm,
    composition_keys,
    operads_equal,
    perm_label,
)
from .report import CheckReport, require_ok


class PhiMissing(Exception):
    """An absent structure-iso entry whose endpoints differ."""


def phi_key_render(f: FinMap, p: str, qs, objs) -> str:
    return f"phi[f={f.label()},p={p},q=({','.join(qs)}),A=({','.join(objs)})]"


def tensor_key_render(p: str, objs) -> str:
    return f"tensor[p={p},A=({','.join(objs)})]"


def xi_key_render(p: str, objs) -> str:
    return f"xi[p={p},A=({','.join(objs)})]"


def nu_key_render(p: str, objs) -> str:
    return f"nu[p={p},i=({','.join(objs)})]"


@dataclass
class TensorTable:
    obj: dict
    mor: dict


@dataclass
class OMonCategory:
    operad: Operad
    base: FinCat
    tensors: dict
    phi: dict = field(default_factory=dict)
    name: str = ""

    def tensor_obj(self, n: int, p: str, objs) -> int:
        return self.tensors[(n, p)].obj[tuple(objs)]

    def tensor_mor(self, n: int, p: str, mors) -> int:
        return self.tensors[(n, p)].mor[tuple(mors)]

    def op(self, f: FinMap, p: str, qs) -> str:
        return self.operad.compose(f, p, tuple(qs))

    def blocks_obj(self, f: FinMap, qs, objs):
        return tuple(
            self.tensor_obj(len(fib), q, tuple(objs[j - 1] for j in fib))
            for fib, q in zip(f.fibers, qs)
        )

    def blocks_mor(self, f: FinMap, qs, mors):
        return tuple(
            self.tensor_mor(len(fib), q, tuple(mors[j - 1] for j in fib))
            for fib, q in zip(f.fibers, qs)
        )

    def phi_endpoints(self, f: FinMap, p: str, qs, objs) -> tuple[int, int]:
        src = self.tensor_obj(f.source, self.op(f, p, qs), objs)
        tgt = self.tensor_obj(f.target, p, self.blocks_obj(f, qs, objs))
        return src, tgt

    def phi_at(self, f: FinMap, p: str, qs, objs) -> int:
        """The structure isomorphism component, defaulting to identity."""
        key = (f, p, tuple(qs), tuple(objs))
        if key in self.phi:
            return self.phi[key]
        src, tgt = self.phi_endpoints(f, p, qs, objs)
        if src != tgt:
            raise PhiMissing(phi_key_render(f, p, qs, [self.base.objects[a] for a in objs]))
        return self.base.id_of(src)


def build_omon(
    operad: Operad,
    base: FinCat,
    tensor_obj_rule,
    tensor_mor_rule,
    phi: dict | None = None,
    name: str = "",
) -> OMonCategory:
    """Materialize tensor tables from rules (operation label, tuple) -> value."""
    tensors = {}
    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            obj = {
                combo: tensor_obj_rule(n, p, combo)
                for combo in itertools.product(range(base.n_objects), repeat=n)
            }
            mor = {
                combo: tensor_mor_rule(n, p, combo)
                for combo in itertools.product(range(base.n_morphisms), repeat=n)
            }
            tensors[(n, p)] = TensorTable(obj=obj, mor=mor)
    return OMonCategory(
        operad=operad, base=base, tensors=tensors, phi=dict(phi or {}), name=name
    )


# --------------------------------------------------------------------------
# the coherence checker


def _is_invertible(base: FinCat, m: int) -> bool:
    a, b = base.mor_src[m], base.mor_tgt[m]
    for w in base.hom(b, a):
        if base.compose(w, m) == base.id_of(a) and base.compose(m, w) == base.id_of(b):
            return True
    return False


def check_omon_category(c: OMonCategory) -> CheckReport:
    return _structure_laws(c, "omon", "phi", all_maps)


def _structure_laws(c: OMonCategory, prefix: str, iso: str, family) -> CheckReport:
    """The laws of a structured category whose structure isomorphisms
    (named ``iso`` in the check names) are indexed by the maps that
    ``family(m, n)`` yields: total, unital, functorial tensor tables;
    typed, invertible, natural structure isomorphisms that are
    identities where the unit laws force it; and the associativity
    square at every composable pair of maps.  An explicit entry whose
    key indexes no structure isomorphism is a structural error.
    """
    report = CheckReport()
    operad, base = c.operad, c.base
    n_arities = operad.max_arity + 1
    where = c.name or prefix
    elements, op = operad.elements, operad.compose
    count, violation, structural = report.count, report.violation, report.structural
    objects, mor_labels, mor_src, mor_tgt = base.objects, base.mor_labels, base.mor_src, base.mor_tgt
    n_obj, n_mor, id_of, compose = base.n_objects, base.n_morphisms, base.id_of, base.compose
    tensors, phi = c.tensors, c.phi
    phi_at, phi_endpoints, tensor_mor = c.phi_at, c.phi_endpoints, c.tensor_mor
    blocks_obj, blocks_mor = c.blocks_obj, c.blocks_mor

    # tensor tables: totality, unit tensor, identities, endpoints, functoriality
    for n in range(n_arities):
        for p in elements(n):
            table = tensors.get((n, p))
            if table is None:
                structural(f"{prefix}.tensor_missing", f"no tensor for arity-{n} operation {p}", where)
                continue
            for combo in itertools.product(range(n_obj), repeat=n):
                if combo not in table.obj or not 0 <= table.obj[combo] < n_obj:
                    structural(
                        f"{prefix}.tensor_table",
                        tensor_key_render(p, [objects[a] for a in combo]) + " missing or out of range",
                        where,
                    )
            for combo in itertools.product(range(n_mor), repeat=n):
                if combo not in table.mor or not 0 <= table.mor[combo] < n_mor:
                    structural(
                        f"{prefix}.tensor_table",
                        f"tensor[p={p}] morphism entry missing or out of range",
                        where,
                    )
    if report.records:
        return report

    if n_arities < 2 or operad.unit not in elements(1):
        structural(f"{prefix}.operad_unit", f"operad unit {operad.unit!r} is not an arity-1 operation", where)
        return report
    unit_table = tensors[(1, operad.unit)]
    for a in range(n_obj):
        if unit_table.obj[(a,)] != a:
            violation(f"{prefix}.unit_tensor", f"unit tensor moves object {objects[a]}", where)
    for m in range(n_mor):
        if unit_table.mor[(m,)] != m:
            violation(f"{prefix}.unit_tensor", f"unit tensor moves morphism {mor_labels[m]}", where)

    functoriality_instances = f"{prefix}.tensor_functoriality_instances"
    comp_pairs = list(base.composable_pairs())
    for n in range(n_arities):
        for p in elements(n):
            obj, mor = tensors[(n, p)].obj, tensors[(n, p)].mor
            for combo in itertools.product(range(n_obj), repeat=n):
                if mor[tuple(id_of(a) for a in combo)] != id_of(obj[combo]):
                    violation(
                        f"{prefix}.tensor_identity",
                        tensor_key_render(p, [objects[a] for a in combo]) + " breaks identities",
                        where,
                    )
            for combo in itertools.product(range(n_mor), repeat=n):
                value = mor[combo]
                if (
                    mor_src[value] != obj[tuple(mor_src[u] for u in combo)]
                    or mor_tgt[value] != obj[tuple(mor_tgt[u] for u in combo)]
                ):
                    violation(
                        f"{prefix}.tensor_endpoints",
                        f"tensor[p={p}] morphism entry has wrong endpoints",
                        where,
                    )
            for pair_combo in itertools.product(comp_pairs, repeat=n):
                count(functoriality_instances)
                gs = tuple(g for g, _ in pair_combo)
                fs = tuple(f for _, f in pair_combo)
                try:
                    broken = mor[tuple(compose(g, f) for g, f in pair_combo)] != compose(mor[gs], mor[fs])
                except KeyError:
                    continue  # entries with wrong endpoints are reported above
                if broken:
                    violation(
                        f"{prefix}.tensor_functoriality",
                        f"tensor[p={p}] breaks a composite of morphisms",
                        where,
                    )
    if report.records:
        return report

    # structure isomorphisms: keys, typing, invertibility, identity axioms, naturality
    maps = {(a, b): tuple(family(a, b)) for a in range(n_arities) for b in range(n_arities)}
    for f, p, qs, objs in phi:
        if not (
            f in maps.get((f.source, f.target), ())
            and p in elements(f.target)
            and len(qs) == f.target
            and all(q in elements(len(fib)) for q, fib in zip(qs, f.fibers))
            and len(objs) == f.source
            and all(a in range(n_obj) for a in objs)
        ):
            labels = [objects[a] if a in range(n_obj) else str(a) for a in objs]
            structural(
                f"{prefix}.{iso}_key",
                phi_key_render(f, p, qs, labels) + " indexes no structure isomorphism",
                where,
            )

    id_axiom_keys = set()
    for n in range(n_arities):
        for p in elements(n):
            id_axiom_keys.add((identity_map(n), p, (operad.unit,) * n))
            id_axiom_keys.add((terminal_map(n), operad.unit, (p,)))

    iso_instances, naturality_instances = f"{prefix}.{iso}_instances", f"{prefix}.{iso}_naturality_instances"
    for f, p, qs in _keys(operad, family):
        m, n = f.source, f.target
        rho = op(f, p, qs)
        identity_forced = (f, p, qs) in id_axiom_keys
        for objs in itertools.product(range(n_obj), repeat=m):
            count(iso_instances)
            src, tgt = phi_endpoints(f, p, qs, objs)
            value = phi.get((f, p, qs, objs))
            if value is None:
                if src != tgt:
                    violation(
                        f"{prefix}.{iso}_missing",
                        phi_key_render(f, p, qs, [objects[a] for a in objs])
                        + " has no entry and unequal endpoints",
                        where,
                    )
                    continue
                value = id_of(src)
            elif mor_src[value] != src or mor_tgt[value] != tgt:
                violation(
                    f"{prefix}.{iso}_typing",
                    phi_key_render(f, p, qs, [objects[a] for a in objs]) + " has wrong endpoints",
                    where,
                )
                continue
            elif not _is_invertible(base, value):
                violation(
                    f"{prefix}.{iso}_invertible",
                    phi_key_render(f, p, qs, [objects[a] for a in objs]) + " is not invertible",
                    where,
                )
            if identity_forced and value != id_of(src):
                violation(
                    f"{prefix}.identity_axiom",
                    phi_key_render(f, p, qs, [objects[a] for a in objs]) + " must be the identity",
                    where,
                )
        # naturality in the object tuple, over every tuple of morphisms
        for mors in itertools.product(range(n_mor), repeat=m):
            count(naturality_instances)
            try:
                phi_src = phi_at(f, p, qs, tuple(mor_src[u] for u in mors))
                phi_tgt = phi_at(f, p, qs, tuple(mor_tgt[u] for u in mors))
                lhs = compose(phi_tgt, tensor_mor(m, rho, mors))
                rhs = compose(tensor_mor(n, p, blocks_mor(f, qs, mors)), phi_src)
            except (PhiMissing, KeyError):
                continue  # ill-typed entries are reported by the typing pass
            if lhs != rhs:
                violation(
                    f"{prefix}.{iso}_naturality",
                    phi_key_render(f, p, qs, [mor_labels[u] for u in mors]) + " breaks naturality",
                    where,
                )

    # associativity square over all composable pairs, operation tuples, object
    # tuples.  When no explicit structure-iso entry is involved, every leg of
    # the square is an identity on endpoints the typing pass has already
    # verified, so only the operad-level composite equality remains to check;
    # that collapses the object-tuple quantifier.
    explicit_triples = {(f, p, qs) for (f, p, qs, _) in phi}
    assoc_instances = f"{prefix}.assoc_instances"
    for f, g, fg, g_is, ps, f_inner, g_inner in _squares(operad, maps):
        n, ell = f.target, g.source
        f_fibers, fg_fibers = f.fibers, fg.fibers
        for p in ps:
            for qs in itertools.product(*f_inner):
                rho = op(f, p, qs)
                f_explicit = (f, p, qs) in explicit_triples
                for rs in itertools.product(*g_inner):
                    rs_blocks = tuple(tuple(rs[j - 1] for j in f_fibers[i]) for i in range(n))
                    s_ops = tuple(op(g_is[i], qs[i], rs_blocks[i]) for i in range(n))
                    involved = (
                        f_explicit
                        or (g, rho, rs) in explicit_triples
                        or (fg, p, s_ops) in explicit_triples
                        or any((g_is[i], qs[i], rs_blocks[i]) in explicit_triples for i in range(n))
                    )
                    if not involved:
                        count(assoc_instances, n_obj**ell)
                        if op(g, rho, rs) != op(fg, p, s_ops):
                            violation(
                                f"{prefix}.assoc",
                                f"square fails at g={g.label()} f={f.label()} p={p} "
                                f"q=({','.join(qs)}) r=({','.join(rs)})",
                                where,
                            )
                        continue
                    for objs in itertools.product(range(n_obj), repeat=ell):
                        count(assoc_instances)
                        try:
                            phi_g = phi_at(g, rho, rs, objs)
                            phi_f = phi_at(f, p, qs, blocks_obj(g, rs, objs))
                            phi_fg = phi_at(fg, p, s_ops, objs)
                            block_morphs = tuple(
                                phi_at(g_is[i], qs[i], rs_blocks[i], tuple(objs[k - 1] for k in fg_fibers[i]))
                                for i in range(n)
                            )
                            lhs = compose(tensor_mor(n, p, block_morphs), phi_fg)
                            rhs = compose(phi_f, phi_g)
                        except (PhiMissing, KeyError):
                            continue  # reported in the typing pass
                        if lhs != rhs:
                            violation(
                                f"{prefix}.assoc",
                                f"square fails at g={g.label()} f={f.label()} p={p} "
                                f"q=({','.join(qs)}) r=({','.join(rs)}) "
                                f"A=({','.join(objects[a] for a in objs)})",
                                where,
                            )
    return report


# --------------------------------------------------------------------------
# lax functors between table-backed structures


@dataclass
class LaxOMonFunctor:
    dom: OMonCategory
    cod: OMonCategory
    functor: CatFunctor
    xi: dict = field(default_factory=dict)
    name: str = ""

    def xi_endpoints(self, n: int, p: str, objs) -> tuple[int, int]:
        F = self.functor
        src = self.cod.tensor_obj(n, p, tuple(F.on_obj[a] for a in objs))
        tgt = F.on_obj[self.dom.tensor_obj(n, p, objs)]
        return src, tgt

    def xi_at(self, n: int, p: str, objs) -> int:
        key = (n, p, tuple(objs))
        if key in self.xi:
            return self.xi[key]
        src, tgt = self.xi_endpoints(n, p, objs)
        if src != tgt:
            raise PhiMissing(xi_key_render(p, [self.dom.base.objects[a] for a in objs]))
        return self.cod.base.id_of(src)


def _classify(values, is_identity, is_invertible) -> str:
    if all(is_identity(v) for v in values):
        return "strict"
    if all(is_invertible(v) for v in values):
        return "weak"
    return "lax"


def _normalize_xi(L: LaxOMonFunctor) -> dict:
    """L's comparison entries less those equal to the identity default."""
    base = L.cod.base
    out = {}
    for key, value in L.xi.items():
        src, tgt = L.xi_endpoints(*key)
        if src != tgt or value != base.id_of(src):
            out[key] = value
    return out


def _compose_lax(L2: LaxOMonFunctor, L1: LaxOMonFunctor) -> LaxOMonFunctor:
    """L2 after L1: each component is L2's image of L1's, followed by L2's
    at the image tuple."""
    out = LaxOMonFunctor(dom=L1.dom, cod=L2.cod, functor=functor_compose(L2.functor, L1.functor))
    compose = out.cod.base.compose
    operad = out.dom.operad
    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            for objs in itertools.product(range(out.dom.base.n_objects), repeat=n):
                out.xi[(n, p, objs)] = compose(
                    L2.functor.on_mor[L1.xi_at(n, p, objs)],
                    L2.xi_at(n, p, tuple(L1.functor.on_obj[a] for a in objs)),
                )
    out.xi = _normalize_xi(out)
    return out


def _lax_coherence(
    report: CheckReport,
    where: str,
    dom: OMonCategory,
    *,
    prefix: str,
    comp: str,
    render,
    missing: str,
    mistyped: str,
    entries: dict,
    endpoints,
    default,
    at,
    on_obj,
    on_mor,
    compose,
    tensor_mor,
    target_phi,
    typed,
    is_identity,
    is_invertible,
    errors: tuple,
) -> CheckReport:
    """The laws of a lax functor out of ``dom``, for either target: the
    components ``comp`` are typed (with the identity rule at the unit),
    natural in the object tuple, and coherent with every structure
    isomorphism; then the components classify it as strict, weak or lax.

    The target enters through its operations: ``compose``, ``tensor_mor``
    of a tuple of its morphisms, ``target_phi(f, p, qs, images)`` at the
    image of an object tuple under ``on_obj``, and the ``typed``,
    ``is_identity`` and ``is_invertible`` tests.  ``default(src, tgt, n,
    p, objs)`` resolves an absent entry or raises PhiMissing; ``errors``
    are the exceptions that mark an ill-typed composite.
    """
    operad = dom.operad
    base = dom.base
    objects, mor_labels, mor_src, mor_tgt = base.objects, base.mor_labels, base.mor_src, base.mor_tgt
    dom_tensor_mor, blocks_obj, phi_at, op = dom.tensor_mor, dom.blocks_obj, dom.phi_at, dom.op
    count, violation = report.count, report.violation
    check = f"{prefix}.{comp}"
    # counted once per instance, so formatted once per call
    instances, nat_instances = f"{check}_instances", f"{check}_naturality_instances"
    coh_instances = f"{prefix}.coherence_instances"
    resolved = []

    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            for objs in itertools.product(range(base.n_objects), repeat=n):
                key_txt = render(p, [objects[a] for a in objs])
                count(instances)
                src, tgt = endpoints(n, p, objs)
                value = entries.get((n, p, objs))
                if value is None:
                    try:
                        value = default(src, tgt, n, p, objs)
                    except PhiMissing:
                        violation(f"{check}_missing", key_txt + missing, where)
                        continue
                elif not typed(value, src, tgt):
                    violation(f"{check}_typing", key_txt + mistyped, where)
                    continue
                resolved.append(value)
                if n == 1 and p == operad.unit and not is_identity(value):
                    violation(f"{check}_unit", key_txt + " must be the identity", where)
            # naturality in the object tuple
            for mors in itertools.product(range(base.n_morphisms), repeat=n):
                count(nat_instances)
                try:
                    at_src = at(n, p, tuple(mor_src[u] for u in mors))
                    at_tgt = at(n, p, tuple(mor_tgt[u] for u in mors))
                    lhs = compose(at_tgt, tensor_mor(n, p, tuple(on_mor[u] for u in mors)))
                    rhs = compose(on_mor[dom_tensor_mor(n, p, mors)], at_src)
                except errors:
                    continue  # ill-typed entries are reported by the typing pass
                if lhs != rhs:
                    violation(
                        f"{check}_naturality",
                        render(p, [mor_labels[u] for u in mors]) + " breaks naturality",
                        where,
                    )

    # coherence against every structure isomorphism
    for f, p, qs in composition_keys(operad):
        m, n = f.source, f.target
        fibers = f.fibers
        rho = op(f, p, qs)
        for objs in itertools.product(range(base.n_objects), repeat=m):
            count(coh_instances)
            try:
                B = blocks_obj(f, qs, objs)
                lhs = compose(on_mor[phi_at(f, p, qs, objs)], at(m, rho, objs))
                blocks = tuple(
                    at(len(fib), q, tuple(objs[j - 1] for j in fib))
                    for fib, q in zip(fibers, qs)
                )
                rhs = compose(
                    at(n, p, B),
                    compose(
                        tensor_mor(n, p, blocks),
                        target_phi(f, p, qs, tuple(on_obj[a] for a in objs)),
                    ),
                )
            except errors as exc:
                violation(f"{prefix}.coherence_missing", str(exc), where)
                continue
            if lhs != rhs:
                violation(
                    f"{prefix}.coherence",
                    "coherence square fails at "
                    + phi_key_render(f, p, qs, [objects[a] for a in objs]),
                    where,
                )
    report.info["classification"] = _classify(resolved, is_identity, is_invertible)
    return report


def _check_table_lax(L: LaxOMonFunctor) -> CheckReport:
    report = CheckReport()
    where = L.name or "laxfun"
    dom, cod = L.dom, L.cod
    if not operads_equal(dom.operad, cod.operad):
        report.structural("laxfun.operad", "dom and cod live over different operads", where)
        return report
    if L.functor.dom != dom.base or L.functor.cod != cod.base:
        report.structural("laxfun.frame", "functor frame mismatch", where)
        return report
    report.merge(validate_functor(L.functor), where=where)
    if not report.ok:
        return report
    base = cod.base
    id_of, mor_src, mor_tgt = base.id_of, base.mor_src, base.mor_tgt

    def default(src, tgt, n, p, objs):
        if src != tgt:
            raise PhiMissing
        return id_of(src)

    return _lax_coherence(
        report, where, dom,
        prefix="laxfun", comp="xi", render=xi_key_render,
        missing=" has no entry and unequal endpoints", mistyped=" has wrong endpoints",
        entries=L.xi, endpoints=L.xi_endpoints, default=default, at=L.xi_at,
        on_obj=L.functor.on_obj, on_mor=L.functor.on_mor,
        compose=base.compose, tensor_mor=cod.tensor_mor, target_phi=cod.phi_at,
        typed=lambda v, src, tgt: mor_src[v] == src and mor_tgt[v] == tgt,
        is_identity=base.is_identity_mor,
        is_invertible=lambda v: _is_invertible(base, v),
        errors=(PhiMissing, KeyError),
    )


# --------------------------------------------------------------------------
# lax functors into the Cartesian structure on finite sets


class StructuralSet:
    """Marker for (Set, x) with the operad structure pulled back from the
    terminal operad: every tensor is the Cartesian product, every
    structure isomorphism the canonical regrouping."""

    def __repr__(self):
        return "StructuralSet"


STRUCTURAL_SET = StructuralSet()


def _mixed_decode(idx: int, sizes) -> tuple[int, ...]:
    out = []
    for s in reversed(sizes):
        out.append(idx % s)
        idx //= s
    return tuple(reversed(out))


def _mixed_encode(tup, sizes) -> int:
    idx = 0
    for v, s in zip(tup, sizes):
        idx = idx * s + v
    return idx


def o_set_product(sets) -> FinSet:
    """Cartesian product, except that the unary product is the set
    itself: the unit tensor on the Set side is the identity."""
    sets = tuple(sets)
    if len(sets) == 1:
        return sets[0]
    return set_product(sets)


def o_fn_product(fns) -> FinFunction:
    fns = tuple(fns)
    if len(fns) == 1:
        return fns[0]
    return _fn_product_aligned(fns)


def set_regroup(f: FinMap, sets) -> FinFunction:
    """Canonical bijection from a flat product to its fiber regrouping."""
    sets = tuple(sets)
    flat = o_set_product(sets)
    blocks = [
        o_set_product(tuple(sets[j - 1] for j in fiber(f, i)))
        for i in range(1, f.target + 1)
    ]
    cod = o_set_product(blocks)
    sizes = [s.size for s in sets]
    block_sizes = [b.size for b in blocks]
    mapping = []
    for idx in range(flat.size):
        xs = _mixed_decode(idx, sizes) if sizes else ()
        grouped = []
        for i in range(1, f.target + 1):
            fib = fiber(f, i)
            grouped.append(
                _mixed_encode(
                    tuple(xs[j - 1] for j in fib), [sizes[j - 1] for j in fib]
                )
            )
        mapping.append(_mixed_encode(tuple(grouped), block_sizes))
    return FinFunction(flat, cod, tuple(mapping))


@dataclass
class LaxSetFunctor:
    """A lax functor from an indexed structure into (Set, x): the input
    side of the operadic Grothendieck construction."""

    dom: OMonCategory
    iset: IndexedSet
    nu: dict = field(default_factory=dict)
    name: str = ""

    @property
    def cod(self):
        return STRUCTURAL_SET

    def nu_sets(self, n: int, p: str, objs) -> tuple[FinSet, FinSet]:
        src = o_set_product(self.iset.values[a] for a in objs)
        tgt = self.iset.values[self.dom.tensor_obj(n, p, objs)]
        return src, tgt

    def nu_at(self, n: int, p: str, objs) -> FinFunction:
        key = (n, p, tuple(objs))
        if key in self.nu:
            return self.nu[key]
        src, tgt = self.nu_sets(n, p, objs)
        if n == 1 and p == self.dom.operad.unit:
            if src == tgt:
                return FinFunction(src, tgt, tuple(range(tgt.size)))
        elif tgt.size == 1 or src.size == 0:
            return FinFunction(src, tgt, (0,) * src.size)
        raise PhiMissing(nu_key_render(p, [self.dom.base.objects[a] for a in objs]))


def _check_set_lax(L: LaxSetFunctor) -> CheckReport:
    report = CheckReport()
    where = L.name or "laxtoset"
    dom = L.dom
    if L.iset.index != dom.base:
        report.structural("laxtoset.frame", "indexed set does not live on the structured base", where)
        return report
    report.merge(validate_indexed_set(L.iset), where=where)
    if not report.ok:
        return report
    return _lax_coherence(
        report, where, dom,
        prefix="laxtoset", comp="nu", render=nu_key_render,
        missing=" has no entry", mistyped=" has wrong dom/cod",
        entries=L.nu, endpoints=L.nu_sets,
        default=lambda src, tgt, n, p, objs: L.nu_at(n, p, objs), at=L.nu_at,
        on_obj=L.iset.values, on_mor=L.iset.actions,
        compose=fn_compose, tensor_mor=lambda n, p, fns: o_fn_product(fns),
        target_phi=lambda f, p, qs, sets: set_regroup(f, sets),
        typed=lambda v, src, tgt: v.dom == src and v.cod == tgt,
        is_identity=lambda v: v.dom == v.cod and v.mapping == tuple(range(v.dom.size)),
        is_invertible=lambda v: v.dom.size == v.cod.size and len(set(v.mapping)) == v.dom.size,
        errors=(PhiMissing, ValueError),
    )


def _fn_product_aligned(fns) -> FinFunction:
    """Product of functions between products built with set_product."""
    fns = tuple(fns)
    dom = set_product(f.dom for f in fns)
    cod = set_product(f.cod for f in fns)
    dom_sizes = [f.dom.size for f in fns]
    cod_sizes = [f.cod.size for f in fns]
    mapping = []
    for idx in range(dom.size):
        xs = _mixed_decode(idx, dom_sizes) if fns else ()
        mapping.append(
            _mixed_encode(tuple(f.mapping[x] for f, x in zip(fns, xs)), cod_sizes)
        )
    return FinFunction(dom, cod, tuple(mapping))


def check_lax_omon_functor(L) -> CheckReport:
    """Dispatch on the codomain: table-backed target or (Set, x)."""
    if isinstance(L, LaxSetFunctor):
        return _check_set_lax(L)
    if isinstance(L, LaxOMonFunctor):
        return _check_table_lax(L)
    report = CheckReport()
    report.structural("laxfun.kind", f"not a lax functor: {type(L).__name__}")
    return report


# --------------------------------------------------------------------------
# monoidal transformations (table-backed targets)


@dataclass
class OMonTransformation:
    dom: LaxOMonFunctor
    cod: LaxOMonFunctor
    t: NatTransform
    name: str = ""


def check_omon_transformation(tr: OMonTransformation) -> CheckReport:
    report = CheckReport()
    where = tr.name or "omontrans"
    F, G = tr.dom, tr.cod
    if F.dom is not G.dom and F.dom != G.dom:
        report.structural("omontrans.frame", "parallel functors expected", where)
        return report
    if F.cod is not G.cod and F.cod != G.cod:
        report.structural("omontrans.frame", "parallel functors expected", where)
        return report
    if tr.t.dom != F.functor or tr.t.cod != G.functor:
        report.structural("omontrans.frame", "transformation frame mismatch", where)
        return report
    report.merge(validate_natural_transformation(tr.t), where=where)
    if not report.ok:
        return report
    return _montrans_square(report, where, "omontrans", "", F, G, tr.t)


def _montrans_square(report: CheckReport, where: str, prefix: str, tag: str, F, G, t) -> CheckReport:
    """The monoidal square of a transformation ``t: F => G`` between lax
    functors into a table-backed target, at every operation and object
    tuple; ``tag`` leads the failure witness."""
    dom, cod = F.dom, F.cod
    base = cod.base
    components = t.components
    for n in range(dom.operad.max_arity + 1):
        for p in dom.operad.elements(n):
            for objs in itertools.product(range(dom.base.n_objects), repeat=n):
                report.count(f"{prefix}.square_instances")
                try:
                    lhs = base.compose(components[dom.tensor_obj(n, p, objs)], F.xi_at(n, p, objs))
                    rhs = base.compose(
                        G.xi_at(n, p, objs),
                        cod.tensor_mor(n, p, tuple(components[a] for a in objs)),
                    )
                except (PhiMissing, KeyError) as exc:
                    report.violation(f"{prefix}.missing", str(exc), where)
                    continue
                if lhs != rhs:
                    report.violation(
                        f"{prefix}.square",
                        f"{tag}transformation square fails at "
                        + xi_key_render(p, [dom.base.objects[a] for a in objs]),
                        where,
                    )
    return report


# --------------------------------------------------------------------------
# restriction along operad morphisms


def _preimage_tables(h) -> list[dict]:
    inv = []
    for n in range(h.dom.max_arity + 1):
        table: dict[str, list[str]] = {}
        for x in h.dom.elements(n):
            table.setdefault(h.maps[n][x], []).append(x)
        inv.append(table)
    return inv


def restrict_along_operad_morphism(h, cell, recheck: bool = True):
    """Pull a structure over the codomain operad back along h.

    Handles structured categories, lax functors (both targets), and
    monoidal transformations.  The output is re-checked, never assumed.
    """
    from .operads import OperadMorphism

    if not isinstance(h, OperadMorphism):
        raise TypeError("first argument must be an operad morphism")
    if isinstance(cell, StructuralSet):
        # the Cartesian structure is pulled back from the terminal operad,
        # so every restriction of it is itself
        return cell
    if isinstance(cell, OMonCategory):
        out = _restrict_omon(h, cell)
        if recheck:
            require_ok(check_omon_category(out), f"restriction of {cell.name or 'omon'}")
        return out
    if isinstance(cell, LaxOMonFunctor):
        out = LaxOMonFunctor(
            dom=_restrict_omon(h, cell.dom),
            cod=_restrict_omon(h, cell.cod),
            functor=cell.functor,
            xi=_pullback_indexed(h, cell.xi),
            name=f"{cell.name}|{h.name}" if cell.name else "",
        )
        if recheck:
            require_ok(_check_table_lax(out), "restricted lax functor")
        return out
    if isinstance(cell, LaxSetFunctor):
        out = LaxSetFunctor(
            dom=_restrict_omon(h, cell.dom),
            iset=cell.iset,
            nu=_pullback_indexed(h, cell.nu),
            name=f"{cell.name}|{h.name}" if cell.name else "",
        )
        if recheck:
            require_ok(_check_set_lax(out), "restricted lax functor")
        return out
    if isinstance(cell, OMonTransformation):
        out = OMonTransformation(
            dom=restrict_along_operad_morphism(h, cell.dom, recheck=False),
            cod=restrict_along_operad_morphism(h, cell.cod, recheck=False),
            t=cell.t,
            name=cell.name,
        )
        if recheck:
            require_ok(check_omon_transformation(out), "restricted transformation")
        return out
    raise TypeError(f"cannot restrict {type(cell).__name__}")


def _restrict_omon(h, c: OMonCategory) -> OMonCategory:
    tensors = {}
    for n in range(h.dom.max_arity + 1):
        for o in h.dom.elements(n):
            tensors[(n, o)] = c.tensors[(n, h.maps[n][o])]
    phi = {}
    inv = _preimage_tables(h)
    for (f, p, qs, objs), value in c.phi.items():
        outer_pre = inv[f.target].get(p, [])
        inner_pre = [inv[len(fiber(f, i))].get(q, []) for i, q in enumerate(qs, start=1)]
        for o in outer_pre:
            for combo in itertools.product(*inner_pre):
                phi[(f, o, combo, objs)] = value
    return OMonCategory(
        operad=h.dom,
        base=c.base,
        tensors=tensors,
        phi=phi,
        name=f"{c.name}|{h.name}" if c.name else "",
    )


def _pullback_indexed(h, entries: dict) -> dict:
    inv = _preimage_tables(h)
    out = {}
    for (n, p, objs), value in entries.items():
        for o in inv[n].get(p, []):
            out[(n, o, objs)] = value
    return out


# --------------------------------------------------------------------------
# unbiased structures and the translation to the permutation operad


@dataclass
class UnbiasedData:
    """An unbiased monoidal structure: one tensor per arity, structure
    isomorphisms indexed by weakly monotone maps, sparse with identity
    default."""

    base: FinCat
    max_arity: int
    tensors: dict
    alpha: dict = field(default_factory=dict)
    name: str = ""

    def tensor_obj(self, n: int, objs) -> int:
        return self.tensors[n].obj[tuple(objs)]

    def tensor_mor(self, n: int, mors) -> int:
        return self.tensors[n].mor[tuple(mors)]


def monotone_maps(m: int, n: int):
    for f in all_maps(m, n):
        if f.is_monotone:
            yield f


def _comm_view(u: UnbiasedData) -> OMonCategory:
    """``u`` as a structure over the terminal operad: the one operation of
    arity n tensors by ``u.tensors[n]``, and ``alpha[(f, A)]`` is its
    structure isomorphism at f and A.  Its laws over the monotone maps
    are the laws of ``u``."""
    N = u.max_arity
    return OMonCategory(
        operad=build_comm(N),
        base=u.base,
        tensors={(n, "*"): u.tensors[n] for n in range(N + 1)},
        phi={(f, "*", ("*",) * f.target, objs): value for (f, objs), value in u.alpha.items()},
        name=u.name,
    )


def validate_unbiased(u: UnbiasedData) -> CheckReport:
    report = CheckReport()
    for n in range(u.max_arity + 1):
        if n not in u.tensors:
            report.structural("unbiased.tensor_missing", f"no arity-{n} tensor", u.name or "unbiased")
    if report.records:
        return report
    return _structure_laws(_comm_view(u), "unbiased", "alpha", monotone_maps)


def permute_tuple(t, sigma: FinMap):
    """Position i of the result holds t[sigma^-1(i)]."""
    inv = invert_permutation(sigma)
    return tuple(t[inv(i) - 1] for i in range(1, sigma.source + 1))


def extend_unbiased_to_assoc(u: UnbiasedData) -> OMonCategory:
    """Induce the permutation-operad structure: the sigma-indexed tensor
    permutes its inputs, structure isomorphisms for permutations are
    identities, everything else is forced by the unique monotone-times-
    permutation factorization."""
    report = validate_unbiased(u)
    require_ok(report, u.name or "unbiased data")
    assoc = build_assoc(u.max_arity)
    perms = {
        n: {perm_label(s): s for s in (FinMap(n, n, v) for v in itertools.permutations(range(1, n + 1)))}
        for n in range(u.max_arity + 1)
    }
    tensors = {}
    for n in range(u.max_arity + 1):
        for p_label, sigma in perms[n].items():
            obj = {
                combo: u.tensor_obj(n, permute_tuple(combo, sigma))
                for combo in itertools.product(range(u.base.n_objects), repeat=n)
            }
            mor = {
                combo: u.tensor_mor(n, permute_tuple(combo, sigma))
                for combo in itertools.product(range(u.base.n_morphisms), repeat=n)
            }
            tensors[(n, p_label)] = TensorTable(obj=obj, mor=mor)
    out = OMonCategory(
        operad=assoc,
        base=u.base,
        tensors=tensors,
        phi={},
        name=f"assoc[{u.name}]" if u.name else "assoc[unbiased]",
    )
    if u.alpha:
        view = _comm_view(u)
        for f, p, qs in composition_keys(assoc):
            sigma = perms[f.target][p]
            rho_label = assoc.compose(f, p, qs)
            rho = perms[f.source][rho_label]
            monotone_part, _ = factorize_monotone_perm(fm_compose(sigma, f))
            for objs in itertools.product(range(u.base.n_objects), repeat=f.source):
                value = view.phi_at(
                    monotone_part, "*", ("*",) * monotone_part.target, permute_tuple(objs, rho)
                )
                src, _ = out.phi_endpoints(f, p, qs, objs)
                if value != u.base.id_of(src):
                    out.phi[(f, p, tuple(qs), objs)] = value
    return out


def forget_assoc_to_unbiased(c: OMonCategory) -> UnbiasedData:
    """Keep the identity-permutation tensors and the structure
    isomorphisms of monotone maps with identity inner operations."""
    N = c.operad.max_arity
    tensors = {n: c.tensors[(n, perm_label(identity_map(n)))] for n in range(N + 1)}
    alpha = {}
    for (f, p, qs, objs), value in c.phi.items():
        if not f.is_monotone:
            continue
        if p != perm_label(identity_map(f.target)):
            continue
        if any(
            q != perm_label(identity_map(len(fiber(f, i))))
            for i, q in enumerate(qs, start=1)
        ):
            continue
        src = tensors[f.source].obj[objs]
        if value != c.base.id_of(src):
            alpha[(f, objs)] = value
    return UnbiasedData(
        base=c.base,
        max_arity=N,
        tensors=tensors,
        alpha=alpha,
        name=f"unbiased[{c.name}]" if c.name else "",
    )


# --------------------------------------------------------------------------
# strict algebras in Set and the structures they induce


@dataclass
class SetAlgebra:
    operad: Operad
    carrier: tuple[str, ...]
    ops: dict
    name: str = ""

    def apply(self, n: int, p: str, xs) -> str:
        return self.ops[(n, p)][tuple(xs)]


def check_set_algebra(alg: SetAlgebra) -> CheckReport:
    report = CheckReport()
    operad = alg.operad
    where = alg.name or "algebra"
    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            table = alg.ops.get((n, p))
            if table is None:
                report.structural("algebra.missing", f"no table for arity-{n} operation {p}", where)
                continue
            for xs in itertools.product(alg.carrier, repeat=n):
                if table.get(xs) not in alg.carrier:
                    report.structural("algebra.table", f"entry {xs} missing or out of carrier", where)
    if report.records:
        return report
    for x in alg.carrier:
        if alg.apply(1, operad.unit, (x,)) != x:
            report.violation("algebra.unit", f"unit action moves {x}", where)
    for f, p, qs in composition_keys(operad):
        rho = operad.compose(f, p, qs)
        for xs in itertools.product(alg.carrier, repeat=f.source):
            report.count("algebra.instances")
            lhs = alg.apply(f.source, rho, xs)
            blocks = tuple(
                alg.apply(
                    len(fiber(f, i)),
                    qs[i - 1],
                    tuple(xs[j - 1] for j in fiber(f, i)),
                )
                for i in range(1, f.target + 1)
            )
            rhs = alg.apply(f.target, p, blocks)
            if lhs != rhs:
                report.violation(
                    "algebra.equation",
                    f"mu {f.label()} {p} ({','.join(qs)}) at ({','.join(xs)})",
                    where,
                )
    return report


def omon_from_set_algebra(operad: Operad, alg: SetAlgebra, name: str = "") -> OMonCategory:
    """The discrete structured category of a strict algebra; every
    structure isomorphism is an identity."""
    require_ok(check_set_algebra(alg), alg.name or "algebra")
    if not operads_equal(operad, alg.operad):
        raise ValueError("algebra lives over a different operad")
    base = discrete_category(name or alg.name or "algebra", alg.carrier)
    index = {x: k for k, x in enumerate(alg.carrier)}

    def obj_rule(n, p, combo):
        return index[alg.apply(n, p, tuple(alg.carrier[a] for a in combo))]

    def mor_rule(n, p, combo):
        # discrete base: morphism k is the identity of object k
        return obj_rule(n, p, combo)

    return build_omon(operad, base, obj_rule, mor_rule, name=name or alg.name)


def assoc_algebra_from_monoid(elements, mult, unit, max_arity: int, name: str = "") -> SetAlgebra:
    """The permutation-operad algebra of a monoid: the sigma-indexed
    operation multiplies in sigma-permuted order."""
    assoc = build_assoc(max_arity)
    elements = tuple(elements)

    def product_of(xs) -> str:
        acc = unit
        for x in xs:
            acc = mult[(acc, x)]
        return acc

    ops = {}
    for n in range(max_arity + 1):
        for p in assoc.elements(n):
            sigma = FinMap(n, n, tuple(int(t) for t in p[1:-1].split(",")) if n else ())
            ops[(n, p)] = {
                xs: product_of(permute_tuple(xs, sigma))
                for xs in itertools.product(elements, repeat=n)
            }
    return SetAlgebra(operad=assoc, carrier=elements, ops=ops, name=name)


# --------------------------------------------------------------------------
# products of structured categories


def product_omon(c1: OMonCategory, c2: OMonCategory, name: str = "") -> OMonCategory:
    if not operads_equal(c1.operad, c2.operad):
        raise ValueError("factors live over different operads")
    prod = product_category([c1.base, c2.base])
    operad = c1.operad
    tensors = {}
    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            obj = {}
            for combo in itertools.product(range(prod.cat.n_objects), repeat=n):
                parts = [prod.obj_tuples[a] for a in combo]
                obj[combo] = prod.obj_index[
                    (
                        c1.tensor_obj(n, p, tuple(t[0] for t in parts)),
                        c2.tensor_obj(n, p, tuple(t[1] for t in parts)),
                    )
                ]
            mor = {}
            for combo in itertools.product(range(prod.cat.n_morphisms), repeat=n):
                parts = [prod.mor_tuples[m] for m in combo]
                mor[combo] = prod.mor_index[
                    (
                        c1.tensor_mor(n, p, tuple(t[0] for t in parts)),
                        c2.tensor_mor(n, p, tuple(t[1] for t in parts)),
                    )
                ]
            tensors[(n, p)] = TensorTable(obj=obj, mor=mor)
    out = OMonCategory(
        operad=operad,
        base=prod.cat,
        tensors=tensors,
        phi={},
        name=name or f"({c1.name}x{c2.name})",
    )
    if c1.phi or c2.phi:
        for f, p, qs in composition_keys(operad):
            for combo in itertools.product(range(prod.cat.n_objects), repeat=f.source):
                parts = [prod.obj_tuples[a] for a in combo]
                v1 = c1.phi_at(f, p, qs, tuple(t[0] for t in parts))
                v2 = c2.phi_at(f, p, qs, tuple(t[1] for t in parts))
                value = prod.mor_index[(v1, v2)]
                src, _ = out.phi_endpoints(f, p, qs, combo)
                if value != prod.cat.id_of(src):
                    out.phi[(f, p, tuple(qs), combo)] = value
    return out


# --------------------------------------------------------------------------
# structural isomorphism of structured categories


def check_strict_omon_iso(c1: OMonCategory, c2: OMonCategory, functor: CatFunctor) -> CheckReport:
    """An explicit invertible strict comparison between two structures."""
    report = CheckReport()
    if not operads_equal(c1.operad, c2.operad):
        report.structural("omoniso.operad", "different operads")
        return report
    if functor.dom != c1.base or functor.cod != c2.base:
        report.structural("omoniso.frame", "functor frame mismatch")
        return report
    report.merge(validate_functor(functor), where="comparison")
    if sorted(functor.on_obj) != list(range(c2.base.n_objects)) or sorted(
        functor.on_mor
    ) != list(range(c2.base.n_morphisms)):
        report.violation("omoniso.bijective", "comparison functor is not invertible")
    if not report.ok:
        return report
    return _strict_preservation(
        report, "", ("omoniso.instances", "omoniso.tensor", "omoniso.phi", "omoniso.phi"), c1, c2, functor
    )


def _strict_preservation(report: CheckReport, where: str, checks, c1, c2, functor) -> CheckReport:
    """That ``functor`` carries every tensor entry and structure
    isomorphism of ``c1`` to the one of ``c2`` at the image tuple.
    ``checks`` names the instance counter and the records of a tensor
    that is not preserved, of a missing structure isomorphism and of one
    that is not preserved."""
    counter, tensor_check, missing_check, phi_check = checks
    operad, base = c1.operad, c1.base
    objects, on_obj, on_mor = base.objects, functor.on_obj, functor.on_mor
    count, violation = report.count, report.violation
    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            for combo in itertools.product(range(base.n_objects), repeat=n):
                count(counter)
                if on_obj[c1.tensor_obj(n, p, combo)] != c2.tensor_obj(n, p, tuple(on_obj[a] for a in combo)):
                    violation(
                        tensor_check,
                        f"tensor[p={p}] not strictly preserved at ({','.join(objects[a] for a in combo)})",
                        where,
                    )
            for combo in itertools.product(range(base.n_morphisms), repeat=n):
                count(counter)
                if on_mor[c1.tensor_mor(n, p, combo)] != c2.tensor_mor(n, p, tuple(on_mor[m] for m in combo)):
                    violation(tensor_check, f"tensor[p={p}] morphism entry not strictly preserved", where)
    for f, p, qs in composition_keys(operad):
        for combo in itertools.product(range(base.n_objects), repeat=f.source):
            count(counter)
            try:
                top = c1.phi_at(f, p, qs, combo)
                bottom = c2.phi_at(f, p, qs, tuple(on_obj[a] for a in combo))
            except (PhiMissing, KeyError) as exc:
                violation(missing_check, str(exc), where)
                continue
            if on_mor[top] != bottom:
                violation(
                    phi_check,
                    f"phi[f={f.label()},p={p}] not strictly preserved at "
                    f"({','.join(objects[a] for a in combo)})",
                    where,
                )
    return report


# --------------------------------------------------------------------------
# shipped structured fixtures


def dz2_assoc_omon(max_arity: int = 3) -> OMonCategory:
    """Addition mod 2 on the discrete two-object category, as a strict
    structure over the permutation operad."""
    from . import fixtures

    alg = assoc_algebra_from_monoid(
        fixtures.Z2_ELEMENTS, fixtures.Z2_ADD, "0", max_arity, name="DZ2"
    )
    return omon_from_set_algebra(build_assoc(max_arity), alg, name="DZ2")


def grade_assoc_omon(max_arity: int = 3) -> OMonCategory:
    """The graded three-element monoid as a strict discrete structure."""
    from . import fixtures

    alg = assoc_algebra_from_monoid(
        fixtures.GRADE_ELEMENTS, fixtures.GRADE_MULT, fixtures.GRADE_UNIT, max_arity, name="GRADECAT"
    )
    return omon_from_set_algebra(build_assoc(max_arity), alg, name="GRADECAT")


def l2_comm_omon(max_arity: int = 3) -> OMonCategory:
    """Meets in the two-element semilattice over the terminal operad."""
    from . import fixtures

    base = fixtures.l2()
    le = base.mor_index("le_0_1")

    def obj_rule(n, p, combo):
        return 0 if 0 in combo else 1

    def mor_rule(n, p, combo):
        src = obj_rule(n, p, tuple(base.mor_src[m] for m in combo))
        tgt = obj_rule(n, p, tuple(base.mor_tgt[m] for m in combo))
        if src == tgt:
            return base.id_of(src)
        return le

    return build_omon(build_comm(max_arity), base, obj_rule, mor_rule, name="L2")


def z2_unbiased(max_arity: int = 3) -> UnbiasedData:
    from . import fixtures

    base = fixtures.dz2()

    def xor_all(combo):
        acc = 0
        for a in combo:
            acc ^= a
        return acc

    tensors = {
        n: TensorTable(
            obj={
                combo: xor_all(combo)
                for combo in itertools.product(range(2), repeat=n)
            },
            mor={
                combo: xor_all(combo)
                for combo in itertools.product(range(2), repeat=n)
            },
        )
        for n in range(max_arity + 1)
    }
    return UnbiasedData(base=base, max_arity=max_arity, tensors=tensors, name="Z2")


def l2_unbiased(max_arity: int = 3) -> UnbiasedData:
    from . import fixtures

    base = fixtures.l2()
    le = base.mor_index("le_0_1")

    def meet_obj(combo):
        return 0 if 0 in combo else 1

    def meet_mor(combo):
        src = meet_obj(tuple(base.mor_src[m] for m in combo))
        tgt = meet_obj(tuple(base.mor_tgt[m] for m in combo))
        return base.id_of(src) if src == tgt else le

    tensors = {
        n: TensorTable(
            obj={c: meet_obj(c) for c in itertools.product(range(2), repeat=n)},
            mor={c: meet_mor(c) for c in itertools.product(range(3), repeat=n)},
        )
        for n in range(max_arity + 1)
    }
    return UnbiasedData(base=base, max_arity=max_arity, tensors=tensors, name="L2")


# a coherent nonzero GF(2) twisting of the one-object group category:
# alpha_f is the flip exactly on these monotone maps (source, target, values).
# Found by solving the coherence equations exactly at truncation 3.
TWIST_SUPPORT = frozenset(
    {
        (0, 2, ()),
        (1, 2, (1,)),
        (1, 2, (2,)),
        (2, 2, (1, 1)),
        (2, 2, (2, 2)),
        (3, 2, (1, 1, 1)),
        (3, 2, (2, 2, 2)),
        (2, 3, (1, 2)),
        (2, 3, (1, 3)),
        (2, 3, (2, 3)),
        (3, 3, (1, 1, 2)),
        (3, 3, (1, 1, 3)),
        (3, 3, (1, 2, 2)),
        (3, 3, (1, 3, 3)),
        (3, 3, (2, 2, 3)),
        (3, 3, (2, 3, 3)),
    }
)


def twisted_bz2_unbiased(max_arity: int = 3) -> UnbiasedData:
    """The one-object group category with genuinely non-identity
    structure isomorphisms; only available at truncation 3."""
    if max_arity != 3:
        raise ValueError("the twisting table is solved at truncation 3")
    from . import fixtures

    base = fixtures.bz2()
    flip = base.mor_index("1")

    def xor_mor(combo):
        acc = 0
        for m in combo:
            acc ^= m
        return acc

    tensors = {
        n: TensorTable(
            obj={c: 0 for c in itertools.product(range(1), repeat=n)},
            mor={
                c: xor_mor(c) for c in itertools.product(range(2), repeat=n)
            },
        )
        for n in range(max_arity + 1)
    }
    alpha = {}
    for n in range(max_arity + 1):
        for m in range(max_arity + 1):
            for f in monotone_maps(m, n):
                if (f.source, f.target, f.values) in TWIST_SUPPORT:
                    alpha[(f, (0,) * m)] = flip
    return UnbiasedData(
        base=base, max_arity=max_arity, tensors=tensors, alpha=alpha, name="TWIST"
    )


def omon_copy(c: OMonCategory) -> OMonCategory:
    return OMonCategory(
        operad=c.operad,
        base=c.base,
        tensors={
            key: TensorTable(obj=dict(t.obj), mor=dict(t.mor))
            for key, t in c.tensors.items()
        },
        phi=dict(c.phi),
        name=c.name,
    )


def omon_single_entry_mutations(c: OMonCategory):
    """Shipped single-entry corruptions; each yields (description,
    mutated structure, witness substring the checker must name)."""
    out = []
    operad, base = c.operad, c.base
    p2 = operad.elements(2)[0]
    objs = (0,) * 2 if base.n_objects >= 1 else ()

    mutated = omon_copy(c)
    table = mutated.tensors[(2, p2)]
    old = table.obj[objs]
    table.obj[objs] = (old + 1) % base.n_objects
    out.append(
        (
            f"tensor entry {tensor_key_render(p2, [base.objects[a] for a in objs])} redirected",
            mutated,
            f"tensor[p={p2}",
        )
    )

    mutated = omon_copy(c)
    tmap = terminal_map(2)
    wrong_obj = (c.tensor_obj(2, p2, objs) + 1) % base.n_objects
    mutated.phi[(tmap, operad.unit, (p2,), objs)] = base.id_of(wrong_obj)
    key_txt = phi_key_render(tmap, operad.unit, (p2,), [base.objects[a] for a in objs])
    out.append((f"{key_txt} set to a non-identity", mutated, key_txt))

    mutated = omon_copy(c)
    idm = identity_map(2)
    mutated.phi[(idm, p2, (operad.unit, operad.unit), objs)] = base.id_of(wrong_obj)
    key_txt = phi_key_render(idm, p2, (operad.unit, operad.unit), [base.objects[a] for a in objs])
    out.append((f"{key_txt} set to a non-identity", mutated, key_txt))
    return out
