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
import math
from dataclasses import dataclass, field, replace
from functools import cache
from operator import add, mul, ne

from .fincore import (
    CatFunctor,
    FinCat,
    FinMap,
    NatTransform,
    _digits,
    _mixed_decode,
    _mixed_encode,
    _sub_codes,
    all_maps,
    discrete_category,
    factorize_monotone_perm,
    fiber,
    fm_compose,
    fm_from_label,
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
    fn_product,
    product_mapping,
    set_product,
    validate_indexed_set,
)
from .operads import (
    UNDEFINED,
    Operad,
    OperadRows,
    _rows_on,
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
    name: str = "",
    phi_rule=None,
) -> OMonCategory:
    """Materialize tensor tables from rules (arity, operation label,
    tuple) -> value, and the structure isomorphisms from
    ``phi_rule(f, p, qs, objs)``, stored only where the value is not the
    identity an absent entry stands for.  Without ``phi_rule`` every
    structure isomorphism is that identity."""
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
    out = OMonCategory(operad=operad, base=base, tensors=tensors, phi={}, name=name)
    if phi_rule is not None:
        for f, p, qs in composition_keys(operad):
            rho = operad.compose(f, p, qs)
            for objs in itertools.product(range(base.n_objects), repeat=f.source):
                value = phi_rule(f, p, qs, objs)
                if value != base.id_of(tensors[(f.source, rho)].obj[objs]):
                    out.phi[(f, p, qs, objs)] = value
    return out


# --------------------------------------------------------------------------
# the compiled form: every table of a structured category as rows of ints

MISSING = -1  # a structure isomorphism or comparison with no value, or an undefined composite


class _Rows(dict):
    """Rows by key, each built by ``build(key)`` on first lookup."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        got = self[key] = self.build(key)
        return got


class _Compiled:
    """The tables of a structured category as tuples of ints, for one
    check call.

    A tuple of objects (of morphisms) is numbered by its mixed-radix code
    in base ``n_obj`` (``n_mor``), the order ``itertools.product`` yields
    it in, and a row is indexed by such codes.  ``obj[n, p]`` and
    ``mor[n, p]`` are the tensor tables and ``comp[g * n_mor + f]`` is the
    composite or MISSING.  :meth:`key` gives a composition key
    ``(f, p, qs)``, whose operation ``rho`` the caller passes, the row of
    codes of its target tuples (the block tensors) and the row of its
    resolved structure isomorphism: the explicit entry, else the identity
    where the two endpoints agree, else MISSING.  Callers read rho by
    position from ``rows`` (:meth:`OperadRows.keys`), the operad rows the
    check's composition gate filled, or those of an equal operad; a caller
    that reads no key passes None.

    Rows are built on first use.  No caller keeps the form past the call
    that builds it, because the label tables it reads are edited in place
    by :func:`omon_copy` and the mutation helpers.  Tensor tables must be
    total, and so must the operad's composition.
    """

    def __init__(self, c: OMonCategory, rows: OperadRows | None):
        base = c.base
        self.c, self.rows = c, rows
        self.n_obj = n_obj = base.n_objects
        self.n_mor = n_mor = base.n_morphisms
        self.ident, self.mor_src, self.mor_tgt = base.identity, base.mor_src, base.mor_tgt
        comp = [MISSING] * (n_mor * n_mor)
        for (g, f), h in base.composition.items():
            comp[g * n_mor + f] = h
        self.comp = tuple(comp)
        tensors = c.tensors
        self.obj = _Rows(lambda k: tuple(map(tensors[k].obj.__getitem__, itertools.product(range(n_obj), repeat=k[0]))))
        self.mor = _Rows(lambda k: tuple(map(tensors[k].mor.__getitem__, itertools.product(range(n_mor), repeat=k[0]))))
        # explicit entries by composition key, then by the code of their object
        # tuple; a key whose tuples index nothing keeps an empty dict
        self.explicit = {}
        for (f, p, qs, objs), value in c.phi.items():
            at = self.explicit.setdefault((f.target, f.values, p, qs), {})
            if len(objs) == f.source and all(a in range(n_obj) for a in objs):
                at[_mixed_encode(objs, (n_obj,) * len(objs))] = value
        self._blocks, self._ends, self._keys, self._by_map, self._over = {}, {}, {}, {}, {}
        self._digits, self._sub_codes = cache(_digits), cache(_sub_codes)

    def restrict(self, f: FinMap, r: int):
        """One row per fiber of f over base-r codes of f.source-tuples:
        the code of the tuple restricted to the fiber."""
        return [self._sub_codes((r,) * f.source, fib) for fib in f.fibers]

    def image(self, n: int, on, r: int, mor: bool = False):
        """Row over n-tuples of objects (morphisms when ``mor``) of the
        code, in base r, of the tuple's image under the table ``on``."""
        size = self.n_mor if mor else self.n_obj
        row = [0] * size**n
        for digit in self._digits((size,) * n):
            row = [a * r + on[d] for a, d in zip(row, digit)]
        return tuple(row)

    def blocks(self, f: FinMap, qs, mor: bool = False):
        """Row over tuples of objects (morphisms when ``mor``) of the code
        of their block tensors ``(T_q1(A|f^-1(1)), ..., T_qn(A|f^-1(n)))``."""
        k = (f.target, f.values, qs, mor)
        got = self._blocks.get(k)
        if got is None:
            r, tables = (self.n_mor, self.mor) if mor else (self.n_obj, self.obj)
            row = [0] * r**f.source
            for fib, q, sub in zip(f.fibers, qs, self.restrict(f, r)):
                block = tables[len(fib), q]
                row = [a * r + block[s] for a, s in zip(row, sub)]
            got = self._blocks[k] = tuple(row)
        return got

    def over(self, f: FinMap, i: int):
        """Over the codes of the tuples of objects on fiber i of f (from 0):
        the codes of the f.source-tuples that restrict to each (see
        :meth:`restrict`).  Kept by source and fiber, which many maps share
        (kept by map, they raised the peak resident set of ``grade(4)``
        mutation 1 by 1.4 MB)."""
        fib = f.fibers[i]
        tuples = self._over.get((f.source, fib))
        if tuples is None:
            tuples = self._over[f.source, fib] = [[] for _ in range(self.n_obj ** len(fib))]
            for x, c in enumerate(self._sub_codes((self.n_obj,) * f.source, fib)):
                tuples[c].append(x)
        return tuples

    def mor_ends(self, m: int):
        """Rows over m-tuples of morphisms of the codes of their tuples of
        sources and of targets."""
        got = self._ends.get(m)
        if got is None:
            got = self._ends[m] = (self.image(m, self.mor_src, self.n_obj, True), self.image(m, self.mor_tgt, self.n_obj, True))
        return got

    def key(self, f: FinMap, p: str, qs, rho: str):
        """``(targets, phi)`` of a composition key whose operation is rho;
        see the class doc."""
        k = (f.target, f.values, p, qs)
        got = self._keys.get(k)
        if got is None:
            targets = self.blocks(f, qs)
            tgt, ident = self.obj[f.target, p], self.ident
            phi = [ident[s] if s == tgt[t] else MISSING for s, t in zip(self.obj[f.source, rho], targets)]
            for x, value in self.explicit.get(k, {}).items():
                phi[x] = value
            got = self._keys[k] = (targets, tuple(phi))
        return got

    def by_map(self, f: FinMap):
        """``(targets, phi)`` of :meth:`key` over every key of f, joined in
        the order of the codes of ``(p, qs)`` in the operad rows: entry
        ``code * n_obj**f.source + x`` is the one of the key with that code
        at the object tuple with code x."""
        k = (f.target, f.values)
        got = self._by_map.get(k)
        if got is None:
            targets, phi = [], []
            rows, results = self.rows, self.rows.o.carriers[f.source]
            for (p, qs), at in zip(rows.labels(f), rows.row(f)):
                t, row = self.key(f, p, qs, results[at])
                targets += t
                phi += row
            got = self._by_map[k] = (targets, phi)
        return got


def _labels(names, x: int, n: int) -> list:
    """The labels of the n-tuple with code x over ``names``."""
    return [names[a] for a in _mixed_decode(x, (len(names),) * n)]


def _positions(row, values):
    """The indices of the entries of ``row`` that lie in ``values``."""
    return itertools.compress(itertools.count(), map(values.__contains__, row))


# --------------------------------------------------------------------------
# the coherence checker


def _is_invertible(base: FinCat, m: int) -> bool:
    a, b = base.mor_src[m], base.mor_tgt[m]
    for w in base.hom(b, a):
        if base.compose(w, m) == base.id_of(a) and base.compose(m, w) == base.id_of(b):
            return True
    return False


def check_omon_category(c: OMonCategory, *, memo: dict | None = None) -> CheckReport:
    return _structure_laws(c, "omon", "phi", all_maps, memo)


def _omon_key(c: OMonCategory) -> tuple:
    """The key of c's report on a memo (``ogroth._checked_omon``)."""
    return ("omon", id(c))


def _clean_on(memo: dict | None, c: OMonCategory) -> bool:
    """Whether ``memo`` holds c's structure report, and it is clean."""
    entry = None if memo is None else memo.get(_omon_key(c))
    return entry is not None and entry[1].ok


def _identity_forced(f: FinMap, p: str, qs, unit: str) -> bool:
    """Whether the unit laws force the structure isomorphism at the key to
    be the identity: f an identity with unit inner operations, or f
    terminal with the unit outside."""
    return (f.is_identity and all(q == unit for q in qs)) or (f.target == 1 and p == unit)


def _tensor_totality(report: CheckReport, c: OMonCategory, prefix: str, where: str) -> None:
    """Record as structural each tensor table of c that is absent and each
    entry that is missing or out of range; :class:`_Compiled` reads them
    all."""
    operad, base = c.operad, c.base
    n_obj, n_mor = base.n_objects, base.n_morphisms
    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            table = c.tensors.get((n, p))
            if table is None:
                report.structural(f"{prefix}.tensor_missing", f"no tensor for arity-{n} operation {p}", where)
                continue
            for combo in itertools.product(range(n_obj), repeat=n):
                if combo not in table.obj or not 0 <= table.obj[combo] < n_obj:
                    report.structural(
                        f"{prefix}.tensor_table",
                        tensor_key_render(p, [base.objects[a] for a in combo]) + " missing or out of range",
                        where,
                    )
            for combo in itertools.product(range(n_mor), repeat=n):
                if combo not in table.mor or not 0 <= table.mor[combo] < n_mor:
                    report.structural(
                        f"{prefix}.tensor_table",
                        f"tensor[p={p}] morphism entry missing or out of range",
                        where,
                    )


def _composition_totality(report: CheckReport, rows: OperadRows, prefix: str, where: str) -> bool:
    """Record as structural each composite over the maps of the operad
    ``rows`` that is undefined or lies outside its carrier (an UNDEFINED
    entry); :class:`_Compiled` reads them all.  Whether none is."""
    total = True
    n_arities = rows.o.max_arity + 1
    for n in range(n_arities):
        for m in range(n_arities):
            for f in rows.maps[m, n]:
                row = rows.row(f)
                if UNDEFINED not in row:
                    continue
                total = False
                for (p, qs), at in zip(rows.labels(f), row):
                    if at == UNDEFINED:
                        report.structural(
                            f"{prefix}.operad_composition",
                            f"mu {f.label()} {p} {' '.join(qs)} is undefined or outside its carrier",
                            where,
                        )
    return total


def _compile_gate(report: CheckReport, prefix: str, at: str, dom: OMonCategory, cod=None, memo=None):
    """Tensor totality of dom, then of another ``cod``, then the composition
    gate: the operad rows, one form per operad on a ``memo``, or None."""
    _tensor_totality(report, dom, prefix, at + "dom")
    if cod is not None and cod is not dom:
        _tensor_totality(report, cod, prefix, at + "cod")
    if report.ok:
        rows = _rows_on(memo, dom.operad)
        if _composition_totality(report, rows, prefix, at + "dom"):
            return rows


def _structure_laws(c: OMonCategory, prefix: str, iso: str, family, memo=None) -> CheckReport:
    """The laws of a structured category whose structure isomorphisms
    (named ``iso`` in the check names) are indexed by the maps that
    ``family(m, n)`` yields: total, unital, functorial tensor tables;
    typed, invertible, natural structure isomorphisms that are
    identities where the unit laws force it; and the associativity
    square at every composable pair of maps.  An explicit entry whose
    key indexes no structure isomorphism is a structural error.

    The associativity square at an instance (g, f, p, qs, rs) and an
    object tuple A has four kinds of legs: the structure isomorphisms of
    g and f.g at A, of f at the block tensors of A under g, and of each
    induced g_i at the restriction of A to the i-th fiber of f.g.  The
    tuple lemma: where the operad level holds at the instance (both
    sides are one operation rho), and no leg reads an explicit entry at
    A, every leg is a default identity on endpoints the typing pass has
    checked (a default with unequal endpoints is MISSING, which that
    pass reports), so both sides are the identity of T_rho(A) and the
    square holds.  The identity lemma: where identities compose as in a
    category and the operad level holds, the square holds at every A if
    g and f.g read no explicit entry and the other legs only identities,
    as g and f.g are then the identity of T_rho(A) or MISSING, and T_p
    keeps identities.  Any other touched pair evaluates the instances
    that read an entry (found by arithmetic on its key's code) at the
    tuples some leg reads one at, and every tuple of an instance whose
    operad level fails.
    """
    report = CheckReport()
    operad, base = c.operad, c.base
    n_arities = operad.max_arity + 1
    where = c.name or prefix
    elements = operad.elements
    count, violation, structural = report.count, report.violation, report.structural
    objects, mor_labels, mor_src, mor_tgt = base.objects, base.mor_labels, base.mor_src, base.mor_tgt
    n_obj, n_mor, id_of, compose = base.n_objects, base.n_morphisms, base.id_of, base.compose
    tensors, phi = c.tensors, c.phi

    # tensor tables: totality, unit tensor, identities, endpoints, functoriality
    _tensor_totality(report, c, prefix, where)
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
    rows = _rows_on(memo, operad, family)
    composable = []  # the explicit keys that name a composition key
    for f, p, qs, objs in phi:
        if (
            f in rows.maps.get((f.source, f.target), ())
            and p in elements(f.target)
            and len(qs) == f.target
            and all(q in elements(len(fib)) for q, fib in zip(qs, f.fibers))
        ):
            composable.append((f, p, qs))
            if len(objs) == f.source and all(a in range(n_obj) for a in objs):
                continue
        labels = [objects[a] if a in range(n_obj) else str(a) for a in objs]
        structural(
            f"{prefix}.{iso}_key",
            phi_key_render(f, p, qs, labels) + " indexes no structure isomorphism",
            where,
        )

    if not _composition_totality(report, rows, prefix, where):
        return report
    cc = _Compiled(c, rows)
    comp, tensor_obj, tensor_mor, explicit = cc.comp, cc.obj, cc.mor, cc.explicit
    iso_instances, naturality_instances = f"{prefix}.{iso}_instances", f"{prefix}.{iso}_naturality_instances"
    for f, p, qs, rho in rows.keys():
        m, n = f.source, f.target
        targets, row = cc.key(f, p, qs, rho)
        if row:
            count(iso_instances, len(row))
        entries = explicit.get((n, f.values, p, qs), {})
        if entries or MISSING in row:
            src_row, tgt_row = tensor_obj[m, rho], tensor_obj[n, p]
            identity_forced = _identity_forced(f, p, qs, operad.unit)
            for x, value in enumerate(row):
                src, tgt = src_row[x], tgt_row[targets[x]]
                if x not in entries:
                    if value == MISSING:
                        violation(
                            f"{prefix}.{iso}_missing",
                            phi_key_render(f, p, qs, _labels(objects, x, m)) + " has no entry and unequal endpoints",
                            where,
                        )
                    continue  # otherwise the identity, which every law below accepts
                if mor_src[value] != src or mor_tgt[value] != tgt:
                    violation(
                        f"{prefix}.{iso}_typing",
                        phi_key_render(f, p, qs, _labels(objects, x, m)) + " has wrong endpoints",
                        where,
                    )
                    continue
                if not _is_invertible(base, value):
                    violation(
                        f"{prefix}.{iso}_invertible",
                        phi_key_render(f, p, qs, _labels(objects, x, m)) + " is not invertible",
                        where,
                    )
                if identity_forced and value != id_of(src):
                    violation(
                        f"{prefix}.identity_axiom",
                        phi_key_render(f, p, qs, _labels(objects, x, m)) + " must be the identity",
                        where,
                    )
        # naturality in the object tuple, over every tuple of morphisms, as
        # one row compare; the loop names each failure
        ends_src, ends_tgt = cc.mor_ends(m)
        if ends_src:
            count(naturality_instances, len(ends_src))
        mor_p, tops, blocks = tensor_mor[n, p], tensor_mor[m, rho], cc.blocks(f, qs, True)
        if MISSING not in row:
            lhs = [comp[row[t] * n_mor + top] for t, top in zip(ends_tgt, tops)]
            if lhs == [comp[mor_p[b] * n_mor + row[s]] for s, b in zip(ends_src, blocks)]:
                continue
        for y, (s, t, top, b) in enumerate(zip(ends_src, ends_tgt, tops, blocks)):
            at_src, at_tgt = row[s], row[t]
            if at_src == MISSING or at_tgt == MISSING:
                continue  # reported by the typing pass
            lhs = comp[at_tgt * n_mor + top]
            rhs = comp[mor_p[b] * n_mor + at_src]
            if lhs != rhs and lhs != MISSING and rhs != MISSING:
                violation(
                    f"{prefix}.{iso}_naturality",
                    phi_key_render(f, p, qs, _labels(mor_labels, y, m)) + " breaks naturality",
                    where,
                )

    # associativity square over all composable pairs, operation tuples and
    # object tuples, by the lemmas of the docstring.  The touched maps are
    # those of the explicit keys, with the row codes of their keys' (p, qs)
    # and the codes of their entries' object tuples; a pair (f, g) is
    # touched when f, g, f.g or an induced g_i is.  The operad rows keep a
    # verdict per group (f, ell) of pairs; as g, f.g and every g_i have a
    # source of at most ell, a proven group with f untouched and no touched
    # map of source at most ell is counted whole.  Any other group walks
    # its pairs, and the rows leave the proof of its verdict to the walk.
    touched = {(f.target, f.values): {} for f, _, _, _ in phi}  # each one's key codes by their entries' tuples
    impure = set()  # the touched maps with an entry other than an identity
    for f, p, qs in composable:
        entries = explicit[f.target, f.values, p, qs]
        touched[f.target, f.values].setdefault(tuple(sorted(entries)), set()).add(rows.key_code(f, p, qs))
        impure.update((f.target, f.values) for v in entries.values() if v not in base.identity)
    # the touched maps of the identity lemma, if identities compose as in a category
    ident = base.identity
    lawful = bool(touched) and all(
        comp[ident[b] * n_mor + ident[a]] == (ident[a] if a == b else MISSING)
        for a, b in itertools.product(range(n_obj), repeat=2)
    )
    plain = set(touched).difference(impure) if lawful else set()
    lowest = min((len(values) for _, values in touched), default=n_arities)
    assoc_instances = f"{prefix}.assoc_instances"
    swept, assoc_count = False, 0

    def walked(n, values, ell):
        return ell >= lowest or (n, values) in touched

    for f, ps, f_inner, ell, proven, pairs in rows.sweep(walked):
        n, m = f.target, f.source
        n_x, n_p = n_obj**ell, len(ps)
        if proven is not None and not walked(n, f.values, ell):
            if proven:
                swept, assoc_count = True, assoc_count + n_x * proven
            continue
        row_f, n_q = rows.row(f), rows.shape(f)[2]
        for g, fg, g_is, g_inner, total in pairs:
            maps = (f, g, fg, *g_is)
            legs = [touched.get((h.target, h.values)) for h in maps]
            if total is not None and (  # untouched, or by the identity lemma
                not any(legs)
                or n_x
                and not (legs[1] or legs[2])
                and all((h.target, h.values) in plain for h, c in zip(maps, legs) if c)
            ):
                swept, assoc_count = True, assoc_count + n_x * total
                continue
            (_, g_slots, n_r), n_s = rows.shape(g), rows.shape(fg)[2]
            # over the codes j of (qs, rs): at[i][j], the code of (qs[i], rs|f^-1(i)) in the
            # row of g_i (gather), and s[j], that of the qs op(g_i, qs[i], rs|f^-1(i)) of f.g
            n_qr, at = n_q * n_r, rows.gather(f, g_slots)
            s = [0] * n_qr
            for g_i, at_i in zip(g_is, at):
                row, radix = rows.row(g_i), rows.sizes[g_i.source]
                if radix > 1:  # else every entry of the row is 0
                    s = [c * radix + row[x] for c, x in zip(s, at_i)]
            # units[xs]: the instances k = (p, j) that read an explicit key, found from the
            # codes of each leg's keys, by the tuples xs they read one at
            units, targets_g = {}, cc.by_map(g)[0]
            for h, codes in enumerate(legs):
                for entries, read in codes.items() if codes else ():
                    if h == 0 and len(entries) < n_obj**m:  # k reads f at k // n_r, at the block tensors of A under g
                        for a, r in itertools.product(read, range(n_r)):
                            start = (row_f[a] * n_r + r) * n_x
                            xs = tuple(x for x, t in enumerate(targets_g[start : start + n_x]) if t in entries)
                            units.setdefault(xs, set()).add(a * n_r + r)
                        continue
                    if h == 0:  # at every tuple
                        ks, entries = [a * n_r + r for a in read for r in range(n_r)], range(n_x)
                    elif h == 1:  # k reads g at row_f[k // n_r] * n_r + k % n_r
                        mids = _positions(row_f, {c // n_r for c in read})
                        ks = [a * n_r + r for a in mids for r in range(n_r) if row_f[a] * n_r + r in read]
                    elif h == 2:  # k reads f.g at p * n_s + s[j]
                        js = _positions(s, {c % n_s for c in read})
                        ks = [p * n_qr + j for j in js for p in range(n_p) if p * n_s + s[j] in read]
                    else:  # k reads g_i at at_i[j], at the tuples over its entries on the fiber of f.g
                        over = cc.over(fg, h - 3)
                        ks = [p * n_qr + j for j in _positions(at[h - 3], read) for p in range(n_p)]
                        entries = set().union(*map(over.__getitem__, entries))
                    units.setdefault(tuple(sorted(entries)), set()).update(ks)
            failing, involved = set(), set()
            if total is None:  # the instances whose operad level fails
                row_g, row_fg, total = rows.row(g), rows.row(fg), n_p * n_qr
                lhs = (row_g[mid * n_r + r] for mid in row_f for r in range(n_r))
                rhs = (row_fg[p + v] for p in range(0, n_p * n_s, n_s) for v in s)
                failing = set(itertools.compress(itertools.count(), map(ne, lhs, rhs)))
            if failing or not n_x:  # the instances that read an explicit key
                involved = set().union(*units.values())
                units.setdefault(tuple(range(n_x)), set()).update(failing & involved)
            # an instance with no explicit key is swept at the operad level, else at its tuples
            swept = swept or n_x > 0 or len(involved) < total
            assoc_count += n_x * total
            units = {xs: ks for xs, ks in units.items() if xs and ks}
            if not (units or failing):
                continue
            phi_g, phi_f, phi_fg = cc.by_map(g)[1], cc.by_map(f)[1], cc.by_map(fg)[1]
            phi_gis = [(cc.by_map(g_i)[1], n_obj**g_i.source, sub) for g_i, sub in zip(g_is, cc.restrict(fg, n_obj))]
            # each unit's squares over (k, x), x fastest: named[k] holds the x
            # where T_p(g_1, ..., g_n).(f.g) and f.g are defined and differ
            named, n_xm = {}, n_obj**m
            mor_ps = [tensor_mor[n, p] for p in ps]  # the morphism row of T_p by the index of p
            for xs, ks in units.items():
                ks = list(ks)
                js = [k % n_qr for k in ks]
                # the code of T_p's leg tuple by (k, x), MISSING where a leg is
                blocks = [
                    [row[at_i[j] * size + sub[x]] for j in js for x in xs]
                    for (row, size, sub), at_i in zip(phi_gis, at)
                ]
                code = [0] * (len(ks) * len(xs))
                for legs_i in blocks:
                    code = list(map(add, map(mul, code, itertools.repeat(n_mor)), legs_i))
                if any(MISSING in legs_i for legs_i in blocks):
                    lows = map(min, itertools.repeat(0), *blocks)
                    code = [c if low != MISSING else MISSING for c, low in zip(code, lows)]
                for k, j, i in zip(ks, js, range(0, len(code), len(xs))):
                    mor_p = mor_ps[k // n_qr]
                    at_g = (row_f[k // n_r] * n_r + k % n_r) * n_x
                    at_fg = (k // n_qr * n_s + s[j]) * n_x
                    at_f = k // n_r * n_xm
                    for x, t in zip(xs, code[i : i + len(xs)]):
                        first, second, third = phi_g[at_g + x], phi_f[at_f + targets_g[at_g + x]], phi_fg[at_fg + x]
                        if MISSING in (t, first, second, third):
                            continue  # reported in the typing pass
                        lhs, rhs = comp[mor_p[t] * n_mor + third], comp[second * n_mor + first]
                        if lhs != rhs and lhs != MISSING and rhs != MISSING:
                            named.setdefault(k, set()).add(x)
            if not (failing or named):
                continue
            radix = (n_p, *map(len, f_inner), *map(len, g_inner))

            def witness(k):
                at = _mixed_decode(k, radix)
                return (
                    f"square fails at g={g.label()} f={f.label()} p={ps[at[0]]} "
                    f"q=({','.join(c[d] for c, d in zip(f_inner, at[1 : n + 1]))}) "
                    f"r=({','.join(c[d] for c, d in zip(g_inner, at[n + 1 :]))})"
                )

            for k in sorted(failing.union(named)):
                if k in failing and k not in involved:
                    violation(f"{prefix}.assoc", witness(k), where)
                for x in sorted(named.get(k, ())):
                    violation(f"{prefix}.assoc", f"{witness(k)} A=({','.join(_labels(objects, x, ell))})", where)
    if swept:
        count(assoc_instances, assoc_count)
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
    at the image tuple; only components other than the identity an absent
    entry stands for are kept.  One operation at a time on the rows of
    both; a missing component or undefined composite is left to the label
    tables, which raise at it."""
    out = LaxOMonFunctor(dom=L1.dom, cod=L2.cod, functor=functor_compose(L2.functor, L1.functor))
    first = _TableTarget(L1, _Compiled(L1.dom, None), False)
    second = _TableTarget(L2, first.cod_cc if L2.dom is L1.cod else _Compiled(L2.dom, None), False)
    cod = second.cod_cc
    composition, ident = cod.c.base.composition, cod.ident
    on_mor, on_obj = L2.functor.on_mor, out.functor.on_obj
    n_obj = first.cc.n_obj
    for n in range(L1.dom.operad.max_arity + 1):
        images, twice = first.obj_images[n], second.obj_images[n]
        for p in L1.dom.operad.elements(n):
            top, bottom, tensors, src = first.row(n, p), second.row(n, p), first.cc.obj[n, p], cod.obj[n, p]
            for x, (a, i) in enumerate(zip(top, images)):
                b = bottom[i]
                value = None if MISSING in (a, b) else composition.get((on_mor[a], b))
                if value is None:
                    objs = _mixed_decode(x, (n_obj,) * n)
                    value = cod.c.base.compose(
                        on_mor[L1.xi_at(n, p, objs)], L2.xi_at(n, p, tuple(L1.functor.on_obj[o] for o in objs))
                    )
                s = src[twice[i]]
                if s != on_obj[tensors[x]] or value != ident[s]:
                    out.xi[n, p, _mixed_decode(x, (n_obj,) * n)] = value
    return out


class _LaxTarget:
    """What the lax kernel needs of the target of a lax functor out of a
    compiled structure: its operations on values, which are ints that
    number morphisms of the target, or MISSING.

    - ``resolve(n, p)``: the row of default components at p, and a test
      of whether a value is typed at a code;
    - ``entries``: the explicit components, ``{(n, p): {code: value}}``;
    - ``on_mor``: the image of each morphism of the source base;
    - ``across(n, p)``: the row of ``T_p(F(mors))`` over morphism tuples;
    - ``tensors(n, p, blocks, size)``: the row of ``T_p`` of the values
      at one code of each row in ``blocks``, MISSING where one is;
    - ``target_phi(f, p, qs, rho, xs)``: the target's structure
      isomorphism at the image of each object tuple with a code in ``xs``,
      rho being ``op(f, p, qs)``;
    - ``compose(g, f)``: a composite, or MISSING.

    ``at``, ``label_obj``, ``label_mor``, ``label_compose``,
    ``label_tensor`` and ``label_phi`` are the same operations on the
    label tables, with which :meth:`by_labels` evaluates one coherence
    instance that the rows cannot settle.

    ``untouched(f, p, qs)`` tells whether a key whose legs are all
    default components holds at every object tuple without its rows;
    the kernel asks it only while the report has no record.
    ``settles(f, p, qs, rho, phi, targets)`` tries to settle a whole
    coherence key whose legs are all default components at once.
    ``proven(f, p, qs, rho, phi, targets)`` may give, per object tuple,
    whether the square holds when every component is present and typed;
    the kernel asks it only while the report has no record.
    """

    def row(self, n, p) -> list:
        """The components at (n, p) by object-tuple code, untyped: the
        explicit entries over the defaults of ``resolve``."""
        row = self.resolve(n, p)[0]
        for x, value in self.entries.get((n, p), {}).items():
            row[x] = value
        return row

    def untouched(self, f, p, qs):
        return False

    def settles(self, f, p, qs, rho, phi, targets):
        return False

    def proven(self, f, p, qs, rho, phi, targets):
        return None

    def by_labels(self, dom: OMonCategory, f: FinMap, p: str, qs, rho: str, objs) -> bool:
        """Whether the coherence square fails at the instance; raises one
        of ``errors`` at the first component that is missing."""
        at, compose = self.at, self.label_compose
        B = dom.blocks_obj(f, qs, objs)
        lhs = compose(self.label_mor[dom.phi_at(f, p, qs, objs)], at(f.source, rho, objs))
        blocks = tuple(at(len(fib), q, tuple(objs[j - 1] for j in fib)) for fib, q in zip(f.fibers, qs))
        rhs = compose(
            at(f.target, p, B),
            compose(
                self.label_tensor(f.target, p, blocks),
                self.label_phi(f, p, qs, tuple(self.label_obj[a] for a in objs)),
            ),
        )
        return lhs != rhs


def _lax_coherence(report: CheckReport, where: str, cc: _Compiled, t: _LaxTarget) -> CheckReport:
    """The laws of a lax functor out of the compiled structure ``cc``, for
    either target ``t``: the components ``t.comp`` are typed (with the
    identity rule at the unit), natural in the object tuple, and coherent
    with every structure isomorphism, one per composition key over the
    maps of ``cc.rows``; then the components classify it as strict, weak
    or lax.
    """
    dom = cc.c
    operad, base = dom.operad, dom.base
    objects, mor_labels, n_obj = base.objects, base.mor_labels, base.n_objects
    count, violation = report.count, report.violation
    compose, on_mor = t.compose, t.on_mor
    check = f"{t.prefix}.{t.comp}"
    instances, nat_instances = f"{check}_instances", f"{check}_naturality_instances"
    coh_instances = f"{t.prefix}.coherence_instances"
    entries = t.entries
    rows, resolved = {}, set()
    plain = set()  # the (n, p) whose components are all defaults

    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            row, typed = t.resolve(n, p)
            if row:
                count(instances, len(row))
            explicit = entries.get((n, p), {})
            if explicit or MISSING in row:
                for x in range(len(row)):
                    if x in explicit:
                        value = row[x] = explicit[x]
                        if not typed(x, value):
                            violation(f"{check}_typing", t.render(p, _labels(objects, x, n)) + t.mistyped, where)
                            continue
                    elif row[x] == MISSING:
                        violation(f"{check}_missing", t.render(p, _labels(objects, x, n)) + t.missing, where)
                        continue
                    resolved.add(row[x])
                    if n == 1 and p == operad.unit and not t.is_identity(row[x]):
                        violation(f"{check}_unit", t.render(p, _labels(objects, x, n)) + " must be the identity", where)
            else:
                resolved.update(row)  # default components pass the unit rule
                plain.add((n, p))
            rows[n, p] = row
            # naturality in the object tuple
            ends_src, ends_tgt = cc.mor_ends(n)
            if ends_src:
                count(nat_instances, len(ends_src))
            for y, (s, e, across, u) in enumerate(zip(ends_src, ends_tgt, t.across(n, p), cc.mor[n, p])):
                at_src, at_tgt = row[s], row[e]
                if at_src == MISSING or at_tgt == MISSING:
                    continue  # reported by the typing pass
                lhs = compose(at_tgt, across)
                rhs = compose(on_mor[u], at_src)
                if lhs != rhs and lhs != MISSING and rhs != MISSING:
                    violation(
                        f"{check}_naturality",
                        t.render(p, _labels(mor_labels, y, n)) + " breaks naturality",
                        where,
                    )

    def plain_legs(f, p, qs, rho):
        return (
            (f.source, rho) in plain
            and (f.target, p) in plain
            and all((len(fib), q) in plain for fib, q in zip(f.fibers, qs))
        )

    # coherence against every structure isomorphism; with no record so
    # far, every component is present and typed
    clean = report.ok
    for f, p, qs, rho in cc.rows.keys():
        m, n = f.source, f.target
        if clean and t.untouched(f, p, qs) and plain_legs(f, p, qs, rho):
            if n_obj**m:
                count(coh_instances, n_obj**m)
            continue
        targets, phi = cc.key(f, p, qs, rho)
        if not phi:
            continue
        count(coh_instances, len(phi))
        if plain_legs(f, p, qs, rho) and t.settles(f, p, qs, rho, phi, targets):
            continue
        proven = t.proven(f, p, qs, rho, phi, targets) if clean else None
        xs = range(len(phi)) if proven is None else [x for x, done in enumerate(proven) if not done]
        if not xs:
            continue
        subs = cc.restrict(f, n_obj)
        if len(xs) < len(phi):
            subs = [[sub[x] for x in xs] for sub in subs]
        top, bottom = rows[m, rho], rows[n, p]
        blocks = [[rows[len(fib), q][s] for s in sub] for fib, q, sub in zip(f.fibers, qs, subs)]
        for x, d, c in zip(xs, t.tensors(n, p, blocks, len(xs)), t.target_phi(f, p, qs, rho, xs)):
            a, u, b = phi[x], top[x], targets[x]
            v = bottom[b]
            if a != MISSING and u != MISSING and v != MISSING and d != MISSING and c != MISSING:
                lhs = compose(on_mor[a], u)
                rhs = compose(d, c)
                if rhs != MISSING:
                    rhs = compose(v, rhs)
                if lhs != MISSING and rhs != MISSING:
                    if lhs != rhs:
                        violation(
                            f"{t.prefix}.coherence",
                            "coherence square fails at " + phi_key_render(f, p, qs, _labels(objects, x, m)),
                            where,
                        )
                    continue
            # a component is missing or a composite undefined: the label
            # tables name the first failure
            try:
                broken = t.by_labels(dom, f, p, qs, rho, _mixed_decode(x, (n_obj,) * m))
            except t.errors as exc:
                violation(f"{t.prefix}.coherence_missing", str(exc), where)
                continue
            if broken:
                violation(
                    f"{t.prefix}.coherence",
                    "coherence square fails at " + phi_key_render(f, p, qs, _labels(objects, x, m)),
                    where,
                )
    report.info["classification"] = _classify(resolved, t.is_identity, t.is_invertible)
    return report


class _TableTarget(_LaxTarget):
    """The target of a lax functor into a structured category: values are
    morphisms of the codomain base."""

    prefix, comp = "laxfun", "xi"
    missing, mistyped = " has no entry and unequal endpoints", " has wrong endpoints"
    errors = (PhiMissing, KeyError)

    def __init__(self, L: LaxOMonFunctor, cc: _Compiled, clean: bool):
        F, cod = L.functor, L.cod
        self.cc, self.L = cc, L
        # the operads are equal (checked before), so the dom's rows serve
        self.cod_cc = cod_cc = cc if cod is L.dom else _Compiled(cod, cc.rows)
        n_mor = cod_cc.n_mor
        self.obj_images = _Rows(lambda n: cc.image(n, F.on_obj, cod_cc.n_obj))
        self.mor_images = _Rows(lambda n: cc.image(n, F.on_mor, n_mor, True))
        comp = cod_cc.comp
        self.compose = lambda g, f: comp[g * n_mor + f]
        self.on_mor = self.label_mor = F.on_mor
        self.label_obj = F.on_obj
        self.at, self.label_compose, self.label_tensor, self.label_phi = (
            L.xi_at, cod.base.compose, cod.tensor_mor, cod.phi_at,
        )
        self.is_identity = cod.base.is_identity_mor
        self.is_invertible = lambda v: _is_invertible(cod.base, v)
        # whether each identity of the cod is an endomorphism of its object
        # and a unit for composition, which settles relies on
        ident, mor_src, mor_tgt = cod_cc.ident, cod_cc.mor_src, cod_cc.mor_tgt
        self._unital = all(mor_src[i] == a == mor_tgt[i] for a, i in enumerate(ident)) and all(
            comp[v * n_mor + ident[mor_src[v]]] == v == comp[ident[mor_tgt[v]] * n_mor + v] for v in range(n_mor)
        )
        self._untouched = clean and self._unital
        self._neutral = {}
        self.entries = {}
        n_obj = cc.n_obj
        for (n, p, objs), value in L.xi.items():
            if len(objs) == n and all(a in range(n_obj) for a in objs):
                self.entries.setdefault((n, p), {})[_mixed_encode(objs, (n_obj,) * n)] = value

    def render(self, p, labels):
        return xi_key_render(p, labels)

    def resolve(self, n, p):
        cod = self.cod_cc
        src = list(map(cod.obj[n, p].__getitem__, self.obj_images[n]))
        tgt = list(map(self.L.functor.on_obj.__getitem__, self.cc.obj[n, p]))
        ident, mor_src, mor_tgt = cod.ident, cod.mor_src, cod.mor_tgt
        row = [ident[a] if a == b else MISSING for a, b in zip(src, tgt)]
        return row, lambda x, v: mor_src[v] == src[x] and mor_tgt[v] == tgt[x]

    def across(self, n, p):
        table = self.cod_cc.mor[n, p]
        return [table[i] for i in self.mor_images[n]]

    def tensors(self, n, p, blocks, size):
        table, r = self.cod_cc.mor[n, p], self.cod_cc.n_mor
        code = [0] * size
        for row in blocks:
            code = [MISSING if c == MISSING or b == MISSING else c * r + b for c, b in zip(code, row)]
        return [MISSING if c == MISSING else table[c] for c in code]

    def target_phi(self, f, p, qs, rho, xs):
        phi, images = self.cod_cc.key(f, p, qs, rho)[1], self.obj_images[f.source]
        return [phi[images[x]] for x in xs]

    def neutral(self, n, p):
        """Whether the cod's identities are units and its tensor at p sends
        the identities of each n-tuple of F-images to an identity."""
        got = self._neutral.get((n, p))
        if got is None:
            cod = self.cod_cc
            ident, table, obj = cod.ident, cod.mor[n, p], cod.obj[n, p]
            ids = self.cc.image(n, [ident[b] for b in self.label_obj], cod.n_mor)
            got = self._neutral[n, p] = self._unital and all(
                table[i] == ident[obj[j]] for i, j in zip(ids, self.obj_images[n])
            )
        return got

    def untouched(self, f, p, qs):
        """The untouched-key lemma, for a check whose two structures have
        clean reports (``clean``) and whose report is clean after the
        typing and naturality passes: a key where neither structure has an
        explicit entry, not even an empty one, and whose legs are default
        components holds at every object tuple A.  A clean structure has
        no MISSING default, so both structure isomorphisms at the key are
        identities, and its tensors send identities to identities; a
        default leg of a clean report is the identity, with
        ``F(T A) = T(F A)``; and F preserves identities, or the check
        would have stopped before.  So both sides of the square are the
        identity of ``F(T_rho A)`` in a :attr:`_unital` cod."""
        k = (f.target, f.values, p, qs)
        return self._untouched and k not in self.cc.explicit and k not in self.cod_cc.explicit

    def settles(self, f, p, qs, rho, phi, targets):
        """Whether the coherence square holds at every object tuple A of a
        key whose legs at rho, at p and at each q_i are default components,
        which into a structured category are identities.
        Where the cod is :meth:`neutral` at p, the square is then
        ``F(phi_dom(A)) == phi_cod(F A)``, with ``phi_cod(F A)`` running from
        ``F(T_rho A)`` to ``F(T_p B)``.  A default ``phi_cod`` value runs so
        by construction, so only a key with explicit cod entries tests its
        endpoints.  A False leaves the key to the per-instance loop."""
        if MISSING in phi or not self.neutral(f.target, p):
            return False
        cod_phi = self.cod_cc.key(f, p, qs, rho)[1]
        target = [cod_phi[i] for i in self.obj_images[f.source]]
        if [self.on_mor[a] for a in phi] != target:
            return False
        cod = self.cod_cc
        if not cod.explicit.get((f.target, f.values, p, qs)):
            return True
        on_obj, src, tgt = self.label_obj, cod.mor_src, cod.mor_tgt
        top, bottom = self.cc.obj[f.source, rho], self.cc.obj[f.target, p]
        return all(src[c] == on_obj[a] and tgt[c] == on_obj[bottom[b]] for c, a, b in zip(target, top, targets))


def _check_table_lax(L: LaxOMonFunctor, *, memo: dict | None = None) -> CheckReport:
    """The laws of a table lax functor.  Where ``memo`` holds clean
    structure reports of both sides, as in a round trip, untouched keys
    are proved without their rows (:meth:`_TableTarget.untouched`)."""
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
    rows = _compile_gate(report, "laxfun", f"{where}:", dom, cod, memo)
    if rows is None:
        return report
    cc = _Compiled(dom, rows)
    clean = _clean_on(memo, dom) and _clean_on(memo, cod)
    return _lax_coherence(report, where, cc, _TableTarget(L, cc, clean))


# --------------------------------------------------------------------------
# lax functors into the Cartesian structure on finite sets


class StructuralSet:
    """Marker for (Set, x) with the operad structure pulled back from the
    terminal operad: every tensor is the Cartesian product, every
    structure isomorphism the canonical regrouping."""

    def __repr__(self):
        return "StructuralSet"


STRUCTURAL_SET = StructuralSet()


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
    return fn_product(fns)


def _regroup_mapping(f: FinMap, sizes) -> tuple:
    """The mapping of the regrouping along f of sets of these sizes."""
    mapping = [0] * math.prod(sizes)
    for i in range(1, f.target + 1):
        fib = fiber(f, i)
        size = math.prod(sizes[j - 1] for j in fib)
        mapping = [c * size + x for c, x in zip(mapping, _sub_codes(sizes, fib))]
    return tuple(mapping)


def set_regroup(f: FinMap, sets) -> FinFunction:
    """Canonical bijection from a flat product to its fiber regrouping."""
    sets = tuple(sets)
    blocks = [o_set_product(sets[j - 1] for j in fib) for fib in f.fibers]
    return FinFunction(o_set_product(sets), o_set_product(blocks), _regroup_mapping(f, tuple(s.size for s in sets)))


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
        mapping = _nu_default(src == tgt, src.size, tgt.size, n == 1 and p == self.dom.operad.unit)
        if mapping is None:
            raise PhiMissing(nu_key_render(p, [self.dom.base.objects[a] for a in objs]))
        return FinFunction(src, tgt, mapping)


def _nu_default(same: bool, src_size: int, tgt_size: int, unit: bool):
    """The mapping of the function an absent nu entry stands for, or None:
    the identity at the unit operation, elsewhere the only function into
    a point or out of the empty set."""
    if unit:
        return tuple(range(tgt_size)) if same else None
    if tgt_size == 1 or src_size == 0:
        return (0,) * src_size
    return None


class _SetTarget(_LaxTarget):
    """The target of a lax functor into (Set, x), on ids for one check.

    Sets and functions share one numbering, given on first sight: a set
    is numbered by its :class:`FinSet`, so equal ids are exactly equal
    sets, a product whose labels equal another set's included, and a
    function by its triple ``(dom, cod, mapping)`` of ids and codes.
    Each product of sets and of functions, each regrouping and each
    composite is built once per tuple of ids.  A target built with
    ``share`` numbers into the tables of that one, so that the values of
    two lax functors compare and compose."""

    prefix, comp = "laxtoset", "nu"
    missing, mistyped = " has no entry", " has wrong dom/cod"
    errors = (PhiMissing, ValueError)

    def __init__(self, L: "LaxSetFunctor", cc: _Compiled, share: "_SetTarget | None" = None):
        iset = L.iset
        self.cc = cc
        # by_id holds a FinSet, or a function's triple
        if share is None:
            self.by_id, self.ids, self._set_products, self._fn_products, self._composites = [], {}, {}, {}, {}
        else:
            self.by_id, self.ids, self._set_products, self._fn_products, self._composites = (
                share.by_id, share.ids, share._set_products, share._fn_products, share._composites
            )
        self._tuples, self._defaults, self._regroups, self._mappings, self._one, self._empty = {}, {}, {}, {}, {}, {}
        self.atoms = [self.number(v) for v in iset.values]
        self.on_mor = [self.intern(a) for a in iset.actions]
        self.label_obj, self.label_mor = iset.values, iset.actions
        self.at, self.label_compose = L.nu_at, fn_compose
        self.label_tensor = lambda n, p, fns: o_fn_product(fns)
        self.label_phi = lambda f, p, qs, sets: set_regroup(f, sets)
        self.entries = {}
        n_obj, objects = cc.n_obj, frozenset(range(cc.n_obj))
        for (n, p, objs), value in L.nu.items():
            if len(objs) == n and objects.issuperset(objs):
                self.entries.setdefault((n, p), {})[_mixed_encode(objs, (n_obj,) * n)] = self.intern(value)

    def number(self, key) -> int:
        got = self.ids.get(key)
        if got is None:
            got = self.ids[key] = len(self.by_id)
            self.by_id.append(key)
        return got

    def intern(self, fn: FinFunction) -> int:
        return self.number((self.number(fn.dom), self.number(fn.cod), fn.mapping))

    def product(self, ids) -> int:
        """The id of the product of the sets ``ids``; the unary product is
        the set itself, as in :func:`o_set_product`."""
        if len(ids) == 1:
            return ids[0]
        got = self._set_products.get(ids)
        if got is None:
            got = self._set_products[ids] = self.number(set_product(self.by_id[i] for i in ids))
        return got

    def render(self, p, labels):
        return nu_key_render(p, labels)

    def is_identity(self, v):
        dom, cod, mapping = self.by_id[v]
        return dom == cod and mapping == tuple(range(len(mapping)))

    def is_invertible(self, v):
        dom, cod, mapping = self.by_id[v]
        return len(mapping) == self.by_id[cod].size == len(set(mapping))

    def tuples(self, n: int) -> list:
        """The ids of the sets of each n-tuple of objects, by its code."""
        got = self._tuples.get(n)
        if got is None:
            got = self._tuples[n] = list(itertools.product(self.atoms, repeat=n))
        return got

    def resolve(self, n, p):
        """The default of each component at (n, p), which depends on its
        two sets and on whether p is the unit, numbered once per triple."""
        by_id, defaults = self.by_id, self._defaults
        unit = n == 1 and p == self.cc.c.operad.unit
        src, tgt = [self.product(ids) for ids in self.tuples(n)], [self.atoms[a] for a in self.cc.obj[n, p]]
        row = []
        for s, t in zip(src, tgt):
            got = defaults.get((s, t, unit))
            if got is None:
                mapping = _nu_default(s == t, by_id[s].size, by_id[t].size, unit)
                got = defaults[s, t, unit] = MISSING if mapping is None else self.number((s, t, mapping))
            row.append(got)
        return row, lambda x, v: by_id[v][0] == src[x] and by_id[v][1] == tgt[x]

    def across(self, n, p):
        return [self.fn_product(mors) for mors in itertools.product(self.on_mor, repeat=n)]

    def fn_product(self, values) -> int:
        """The id of the product of the functions ``values``; the unary
        product is the function itself."""
        if len(values) == 1:
            return values[0]
        got = self._fn_products.get(values)
        if got is None:
            fns = [self.by_id[v] for v in values]
            dom, cod = self.product(tuple(fn[0] for fn in fns)), self.product(tuple(fn[1] for fn in fns))
            mapping = product_mapping([fn[2] for fn in fns], [self.by_id[fn[1]].size for fn in fns])
            got = self._fn_products[values] = self.number((dom, cod, mapping))
        return got

    def tensors(self, n, p, blocks, size):
        return [MISSING if MISSING in vs else self.fn_product(vs) for vs in (zip(*blocks) if blocks else [()] * size)]

    def compose(self, g, f):
        got = self._composites.get((g, f))
        if got is None:
            (g_dom, g_cod, g_at), (f_dom, f_cod, f_at) = self.by_id[g], self.by_id[f]
            got = MISSING if f_cod != g_dom else self.number((f_dom, g_cod, tuple(g_at[v] for v in f_at)))
            self._composites[g, f] = got
        return got

    def target_phi(self, f, p, qs, rho, xs):
        """The regrouping along f, which p and qs do not enter, at each
        object tuple of ``xs``: built once per tuple of sets, with one
        mapping per tuple of their sizes."""
        built, tuples, row = self._regroups.setdefault((f.target, f.values), {}), self.tuples(f.source), []
        for ids in (tuples[x] for x in xs):
            got = built.get(ids)
            if got is None:
                sizes = tuple(self.by_id[i].size for i in ids)
                mapping = self._mappings.get((f.target, f.values, sizes))
                if mapping is None:
                    mapping = self._mappings[f.target, f.values, sizes] = _regroup_mapping(f, sizes)
                blocks = tuple(self.product(tuple(ids[j - 1] for j in fib)) for fib in f.fibers)
                got = built[ids] = self.number((self.product(ids), self.product(blocks), mapping))
            row.append(got)
        return row

    def proven(self, f, p, qs, rho, phi, targets):
        """Per object tuple A, whether the singleton lemma proves the square
        there when every leg is present and typed.  With B the block
        tensors, both sides then run from the product of the sets of A to
        ``F(T_p B)``, if phi runs from ``T_rho A`` to ``T_p B``: a default
        entry does by construction, an explicit one is tested.  So they are
        equal when ``F(T_p B)`` has one element or the product is empty."""
        cc, by_id = self.cc, self.by_id
        one = self._one.get((f.target, p))
        if one is None:
            one = self._one[f.target, p] = [self.label_obj[a].size == 1 for a in cc.obj[f.target, p]]
        empty = self._empty.get(f.source)
        if empty is None:
            empty = self._empty[f.source] = [any(by_id[i].size == 0 for i in ids) for ids in self.tuples(f.source)]
        row = [a != MISSING and (one[b] or e) for a, b, e in zip(phi, targets, empty)]
        top, bottom = cc.obj[f.source, rho], cc.obj[f.target, p]
        for x, a in cc.explicit.get((f.target, f.values, p, qs), {}).items():
            row[x] = row[x] and cc.mor_src[a] == top[x] and cc.mor_tgt[a] == bottom[targets[x]]
        return row


def _check_set_lax(L: LaxSetFunctor, *, memo: dict | None = None) -> CheckReport:
    report = CheckReport()
    where = L.name or "laxtoset"
    dom = L.dom
    if L.iset.index != dom.base:
        report.structural("laxtoset.frame", "indexed set does not live on the structured base", where)
        return report
    report.merge(validate_indexed_set(L.iset), where=where)
    rows = _compile_gate(report, "laxtoset", f"{where}:", dom, memo=memo)
    if rows is None:
        return report
    cc = _Compiled(dom, rows)
    t = _SetTarget(L, cc)
    # element labels with commas can give two elements of a product one
    # label, and a FinSet has distinct labels
    for n in range(2, dom.operad.max_arity + 1):
        for x, ids in enumerate(t.tuples(n)):
            try:
                t.product(ids)
            except ValueError:
                report.structural(
                    "laxtoset.product",
                    f"the product of the sets at ({','.join(_labels(dom.base.objects, x, n))}) has duplicate element labels",
                    where,
                )
    if report.records:
        return report
    return _lax_coherence(report, where, cc, t)


def check_lax_omon_functor(L, *, memo: dict | None = None) -> CheckReport:
    """Dispatch on the codomain: table-backed target or (Set, x)."""
    if isinstance(L, LaxSetFunctor):
        return _check_set_lax(L, memo=memo)
    if isinstance(L, LaxOMonFunctor):
        return _check_table_lax(L, memo=memo)
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
    view = _comm_view(u)

    def phi_rule(f, p, qs, objs):
        monotone_part, _ = factorize_monotone_perm(fm_compose(fm_from_label(p), f))
        rho = fm_from_label(assoc.compose(f, p, qs))
        return view.phi_at(monotone_part, "*", ("*",) * monotone_part.target, permute_tuple(objs, rho))

    return build_omon(
        assoc,
        u.base,
        lambda n, p, combo: u.tensor_obj(n, permute_tuple(combo, fm_from_label(p))),
        lambda n, p, combo: u.tensor_mor(n, permute_tuple(combo, fm_from_label(p))),
        name=f"assoc[{u.name}]" if u.name else "assoc[unbiased]",
        phi_rule=phi_rule if u.alpha else None,
    )


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
    # each table as a row of carrier indices over the codes of its
    # argument tuples; a key is proved by one row compare, and only a key
    # whose rows differ, or whose composite has no row, is read by labels
    # to name its failing tuples
    size = len(alg.carrier)
    index = {x: k for k, x in enumerate(alg.carrier)}
    tables = {
        (n, p): [index[alg.ops[n, p][xs]] for xs in itertools.product(alg.carrier, repeat=n)]
        for n in range(operad.max_arity + 1)
        for p in operad.elements(n)
    }
    last = None
    for f, p, qs in composition_keys(operad):
        if f is not last:
            # the code of the block values at each argument tuple, by qs
            last, codes, radix = f, {}, (size,) * f.source
            subs = [_sub_codes(radix, fib) for fib in f.fibers]
        rho = operad.compose(f, p, qs)
        if size**f.source:
            report.count("algebra.instances", size**f.source)
        lhs = tables.get((f.source, rho))
        if lhs is not None:
            code = codes.get(qs)
            if code is None:
                code = [0] * len(lhs)
                for q, fib, sub in zip(qs, f.fibers, subs):
                    row = tables[len(fib), q]
                    code = [c * size + row[x] for c, x in zip(code, sub)]
                codes[qs] = code
            row = tables[f.target, p]
            if lhs == [row[c] for c in code]:
                continue
        for xs in itertools.product(alg.carrier, repeat=f.source):
            blocks = tuple(alg.apply(len(fib), q, tuple(xs[j - 1] for j in fib)) for q, fib in zip(qs, f.fibers))
            if alg.apply(f.source, rho, xs) != alg.apply(f.target, p, blocks):
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
            sigma = fm_from_label(p)
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

    def paired(tuples, index, at1, at2):
        """The rule pairing ``at1`` and ``at2`` at the projections of a tuple."""

        def rule(*key_and_combo):
            *key, combo = key_and_combo
            parts = [tuples[x] for x in combo]
            return index[at1(*key, tuple(t[0] for t in parts)), at2(*key, tuple(t[1] for t in parts))]

        return rule

    return build_omon(
        c1.operad,
        prod.cat,
        paired(prod.obj_tuples, prod.obj_index, c1.tensor_obj, c2.tensor_obj),
        paired(prod.mor_tuples, prod.mor_index, c1.tensor_mor, c2.tensor_mor),
        name=name or f"({c1.name}x{c2.name})",
        phi_rule=paired(prod.obj_tuples, prod.mor_index, c1.phi_at, c2.phi_at) if c1.phi or c2.phi else None,
    )


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
    rows = _compile_gate(report, "omoniso", "", c1, c2)
    if rows is None:
        return report
    return _strict_preservation(
        report, "", ("omoniso.instances", "omoniso.tensor", "omoniso.phi", "omoniso.phi"), c1, c2, functor, rows
    )


def _strict_preservation(report: CheckReport, where: str, checks, c1, c2, functor, rows, clean: bool = False) -> CheckReport:
    """That ``functor`` carries every tensor entry and structure
    isomorphism of ``c1`` to the one of ``c2`` at the image tuple, with
    each key's operation read from ``rows``, a form of their operad (the
    two are equal).
    ``checks`` names the instance counter and the records of a tensor
    that is not preserved, of a missing structure isomorphism and of one
    that is not preserved.

    ``clean`` says that both structures have clean reports and that the
    report is clean so far, so the functor preserves identities.  If the
    tensor pass then records nothing, a key where neither structure has
    an explicit entry needs no rows: both structure isomorphisms there
    are identities, of ``T_rho A`` and of ``T_rho(F A) = F(T_rho A)``."""
    counter, tensor_check, missing_check, phi_check = checks
    operad, objects = c1.operad, c1.base.objects
    on_obj, on_mor = functor.on_obj, functor.on_mor
    count, violation = report.count, report.violation
    k1 = _Compiled(c1, rows)
    k2 = k1 if c2 is c1 else _Compiled(c2, rows)
    obj_images = [k1.image(n, on_obj, k2.n_obj) for n in range(operad.max_arity + 1)]
    for n in range(operad.max_arity + 1):
        mor_image = k1.image(n, on_mor, k2.n_mor, True)
        for p in operad.elements(n):
            top, bottom = k1.obj[n, p], k2.obj[n, p]
            if top:
                count(counter, len(top))
            for x, (a, i) in enumerate(zip(top, obj_images[n])):
                if on_obj[a] != bottom[i]:
                    violation(
                        tensor_check,
                        f"tensor[p={p}] not strictly preserved at ({','.join(_labels(objects, x, n))})",
                        where,
                    )
            top, bottom = k1.mor[n, p], k2.mor[n, p]
            if top:
                count(counter, len(top))
            for a, i in zip(top, mor_image):
                if on_mor[a] != bottom[i]:
                    violation(tensor_check, f"tensor[p={p}] morphism entry not strictly preserved", where)
    untouched = clean and report.ok
    for f, p, qs, rho in rows.keys():
        k = (f.target, f.values, p, qs)
        if untouched and k not in k1.explicit and k not in k2.explicit:
            if k1.n_obj**f.source:
                count(counter, k1.n_obj**f.source)
            continue
        top, bottom = k1.key(f, p, qs, rho)[1], k2.key(f, p, qs, rho)[1]
        if top:
            count(counter, len(top))
        for x, (a, i) in enumerate(zip(top, obj_images[f.source])):
            b = bottom[i]
            if a == MISSING or b == MISSING:
                # the label tables name the missing entry
                objs = _mixed_decode(x, (k1.n_obj,) * f.source)
                try:
                    c1.phi_at(f, p, qs, objs)
                    c2.phi_at(f, p, qs, tuple(on_obj[a] for a in objs))
                except (PhiMissing, KeyError) as exc:
                    violation(missing_check, str(exc), where)
                continue
            if on_mor[a] != b:
                violation(
                    phi_check,
                    f"phi[f={f.label()},p={p}] not strictly preserved at ({','.join(_labels(objects, x, f.source))})",
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
    return omon_from_set_algebra(alg.operad, alg, name="DZ2")


def grade_assoc_omon(max_arity: int = 3) -> OMonCategory:
    """The graded three-element monoid as a strict discrete structure."""
    from . import fixtures

    alg = assoc_algebra_from_monoid(
        fixtures.GRADE_ELEMENTS, fixtures.GRADE_MULT, fixtures.GRADE_UNIT, max_arity, name="GRADECAT"
    )
    return omon_from_set_algebra(alg.operad, alg, name="GRADECAT")


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
    """Addition mod 2: the identity-permutation tensors of DZ2."""
    return replace(forget_assoc_to_unbiased(dz2_assoc_omon(max_arity)), name="Z2")


def l2_unbiased(max_arity: int = 3) -> UnbiasedData:
    """Meets in the two-element semilattice: the tensors of L2."""
    c = l2_comm_omon(max_arity)
    return UnbiasedData(
        base=c.base, max_arity=max_arity, tensors={n: c.tensors[(n, "*")] for n in range(max_arity + 1)}, name="L2"
    )


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
