"""The operadic Grothendieck construction: from lax structured functors
into (Set, x) to strict structured projections that are discrete
fibrations, and back.

The total structure is induced by the classical construction: tensors
pair the index tensor with the comparison function, structure
isomorphisms are the unique lifts of the base ones.  Lifts are always
re-verified, never trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .fincore import (
    CatFunctor,
    NatTransform,
    _mixed_decode,
    _mixed_encode,
    all_functors,
    all_nat_transforms,
    identity_functor,
    identity_nat,
)
from .fib2cat import (
    DFib2Cell,
    DFibCell,
    DiscreteFibration,
    FinFunction,
    ISet2Cell,
    ISetCell,
    IndexedSet,
    check_discrete_fibration,
    fn_compose,
    fn_identity,
    identity_fibration,
    iset_from_tables,
    validate_dfib_cell,
    validate_iset_cell,
)
from .groth import (
    _fiber_objects,
    _groth_2cell_top,
    _groth_cell,
    _memo_step,
    _pair_offsets,
    _transpose_cell,
    groth_apply,
    phi_component,
    phi_inverse,
    psi_component,
    psi_inverse,
    transpose_apply,
)
from .omon import (
    MISSING,
    LaxOMonFunctor,
    LaxSetFunctor,
    OMonCategory,
    PhiMissing,
    SetAlgebra,
    _Compiled,
    _SetTarget,
    _TableTarget,
    _check_set_lax,
    _check_table_lax,
    _compose_lax,
    _labels,
    _montrans_square,
    _strict_preservation,
    _normalize_xi,
    _omon_key,
    _pullback_indexed,
    o_fn_product,
    o_set_product,
    assoc_algebra_from_monoid,
    build_omon,
    check_omon_category,
    dz2_assoc_omon,
    l2_comm_omon,
    nu_key_render,
    omon_from_set_algebra,
    product_omon,
    restrict_along_operad_morphism,
    xi_key_render,
)
from .operads import _rows_on, boolean_semiring, build_qconv, identity_operad_morphism, operads_equal, qconv_coords, terminal_morphism
from .report import CheckReport, _memoized

LaxToSet = LaxSetFunctor


def check_laxtoset(x: LaxSetFunctor, *, memo: dict | None = None) -> CheckReport:
    """Validate the index structure, the indexed set, and the lax
    comparison data as one object.  The index structure's report is the
    one its other checks on ``memo`` read; a memo of its own lets its
    structure check and composition gate share operad rows."""
    memo = {} if memo is None else memo
    report = CheckReport()
    report.merge(_checked_omon(memo, x.dom), where=x.dom.name or "index")
    if not report.ok:
        return report
    report.merge(_check_set_lax(x, memo=memo), where=x.name or "laxtoset")
    return report


# --------------------------------------------------------------------------
# objects


@dataclass
class OFibObject:
    fib: DiscreteFibration
    total_omon: OMonCategory
    base_omon: OMonCategory
    name: str = ""


def identity_ofib(c: OMonCategory, name: str = "") -> OFibObject:
    return OFibObject(
        fib=identity_fibration(c.base, name=name or f"id[{c.name}]"),
        total_omon=c,
        base_omon=c,
        name=name or f"id[{c.name}]",
    )


def omons_equal(a: OMonCategory, b: OMonCategory) -> bool:
    return (
        operads_equal(a.operad, b.operad)
        and a.base == b.base
        and {k: (t.obj, t.mor) for k, t in a.tensors.items()}
        == {k: (t.obj, t.mor) for k, t in b.tensors.items()}
        and a.phi == b.phi
    )


# A structured round trip, or a ``check`` command, threads one ``memo``
# dict through its checks and constructions, and drops it when it returns
# (see report._memoized).


def _checked_omon(memo: dict | None, c: OMonCategory) -> CheckReport:
    """check_omon_category(c), run once per structure while ``memo`` lives."""
    return _memoized(memo, _omon_key(c), c, lambda: check_omon_category(c, memo=memo))


def _checked_lax(memo: dict, L: LaxOMonFunctor) -> CheckReport:
    """_check_table_lax(L), run once per lax functor while ``memo`` lives.
    The key is all the check reads: the two structures, the functor's
    frames and tables, the comparison entries and the name."""
    F = L.functor
    key = (
        "lax", id(L.dom), id(L.cod), id(F.dom), id(F.cod),
        tuple(F.on_obj), tuple(F.on_mor), frozenset(L.xi.items()), L.name,
    )
    return _memoized(memo, key, (L.dom, L.cod, F.dom, F.cod), lambda: _check_table_lax(L, memo=memo))


def _nu_reader(memo: dict, x: LaxSetFunctor):
    """``x.nu_at``, read once per key while ``memo`` lives; a missing
    component is not kept, so it raises at every read."""
    nus = _memoized(memo, ("nu", id(x)), x, dict)

    def nu_at(n: int, p: str, objs: tuple) -> FinFunction:
        got = nus.get((n, p, objs))
        if got is None:
            got = nus[n, p, objs] = x.nu_at(n, p, objs)
        return got

    return nu_at


def check_ofib_object(x: OFibObject, *, memo: dict | None = None) -> CheckReport:
    memo = {} if memo is None else memo
    report = CheckReport()
    where = x.name or "ofib"
    if not operads_equal(x.total_omon.operad, x.base_omon.operad):
        report.structural("ofib.operad", "total and base live over different operads", where)
        return report
    if x.fib.total != x.total_omon.base or x.fib.base != x.base_omon.base:
        report.structural("ofib.frame", "projection frame mismatch", where)
        return report
    report.merge(check_discrete_fibration(x.fib), where=where)
    for tag, omon in (("total", x.total_omon), ("base", x.base_omon)):
        report.merge(_checked_omon(memo, omon), where=f"{where}:{tag}")
    if not report.ok:
        return report

    return _strict_preservation(
        report,
        where,
        ("ofib.strictness_instances", "ofib.strict_tensor", "ofib.phi_missing", "ofib.strict_phi"),
        x.total_omon,
        x.base_omon,
        x.fib.proj,
        _rows_on(memo, x.total_omon.operad),
        clean=True,
    )


# --------------------------------------------------------------------------
# 1-cells and 2-cells


@dataclass
class OCell:
    dom: LaxSetFunctor
    cod: LaxSetFunctor
    functor: CatFunctor
    xi: dict = field(default_factory=dict)
    mu: tuple = ()
    name: str = ""

    def index_lax(self) -> LaxOMonFunctor:
        return LaxOMonFunctor(
            dom=self.dom.dom, cod=self.cod.dom, functor=self.functor, xi=self.xi
        )

    def iset_cell(self) -> ISetCell:
        return ISetCell(self.dom.iset, self.cod.iset, self.functor, self.mu)


def identity_ocell(x: LaxSetFunctor) -> OCell:
    return OCell(
        dom=x,
        cod=x,
        functor=identity_functor(x.dom.base),
        xi={},
        mu=tuple(fn_identity(x.iset.values[a]) for a in range(x.dom.base.n_objects)),
    )


def _ocell_key(c: OCell) -> tuple:
    """The key of the report that :func:`enumerate_ocells` leaves on a
    memo for each cell it keeps, with the cell held."""
    return ("ocell", id(c))


def check_ocell(c: OCell, *, memo: dict | None = None) -> CheckReport:
    memo = {} if memo is None else memo
    kept = memo.get(_ocell_key(c))
    if kept is not None:
        return kept[1]
    report = CheckReport()
    where = c.name or "ocell"
    lax = c.index_lax()
    report.merge(_checked_lax(memo, lax), where=f"{where}:index")
    report.merge(validate_iset_cell(c.iset_cell()), where=f"{where}:iset")
    if not report.ok:
        return report
    x, y = c.dom, c.cod
    x_nu, y_nu = _nu_reader(memo, x), _nu_reader(memo, y)
    operad, objects, G = x.dom.operad, x.dom.base.objects, y.iset

    def square(p, labels):
        report.violation("ocell.square", "comparison square fails at " + nu_key_render(p, labels), where)

    def by_labels(n, p, objs):
        try:
            lhs = fn_compose(c.mu[x.dom.tensor_obj(n, p, objs)], x_nu(n, p, objs))
            rhs = fn_compose(
                G.actions[lax.xi_at(n, p, objs)],
                fn_compose(y_nu(n, p, tuple(c.functor.on_obj[a] for a in objs)), o_fn_product(tuple(c.mu[a] for a in objs))),
            )
        except (PhiMissing, ValueError, KeyError) as exc:
            report.violation("ocell.missing", str(exc), where)
            return
        if lhs != rhs:
            square(p, [objects[a] for a in objs])

    # the square mu . nu_x == G(xi) . nu_y . (mu x ... x mu) on the ids of
    # one numbering of both sides' sets and functions; a missing value or an
    # uncomposable pair goes to the label tables, which name it
    xi = _TableTarget(lax, _Compiled(x.dom, _rows_on(memo, operad)), False)
    top = _SetTarget(x, xi.cc)
    bottom = top if y is x else _SetTarget(y, xi.cod_cc, share=top)
    mu = [top.intern(fn) for fn in c.mu]
    compose, actions, n_obj = top.compose, bottom.on_mor, xi.cc.n_obj

    def rows(n, p):
        """The rows at (n, p) of nu_x, xi, nu_y, the tensors and the products
        of mu, or None where a product of sets has duplicate labels."""
        try:
            above = top.row(n, p)
            products = [top.fn_product(vs) for vs in itertools.product(mu, repeat=n)]
            return above, xi.row(n, p), above if bottom is top else bottom.row(n, p), xi.cc.obj[n, p], products
        except ValueError:
            return None

    for n in range(operad.max_arity + 1):
        images, size = xi.obj_images[n], n_obj**n
        for p in operad.elements(n):
            if size:
                report.count("ocell.square_instances", size)
            got = rows(n, p)
            if got is None:
                for code in range(size):
                    by_labels(n, p, _mixed_decode(code, (n_obj,) * n))
                continue
            nu_x, comparisons, nu_y, tensors, products = got
            for code, (a, v, t, product) in enumerate(zip(nu_x, comparisons, tensors, products)):
                b = nu_y[images[code]]
                if MISSING not in (a, v, b):
                    lhs, inner = compose(mu[t], a), compose(b, product)
                    rhs = MISSING if inner == MISSING else compose(actions[v], inner)
                    if MISSING not in (lhs, rhs):
                        if lhs != rhs:
                            square(p, _labels(objects, code, n))
                        continue
                by_labels(n, p, _mixed_decode(code, (n_obj,) * n))
    return report


def ocell_compose(c2: OCell, c1: OCell) -> OCell:
    if c1.cod is not c2.dom and not (
        omons_equal(c1.cod.dom, c2.dom.dom) and c1.cod.iset == c2.dom.iset and c1.cod.nu == c2.dom.nu
    ):
        raise ValueError("cells not composable")
    lax = _compose_lax(c2.index_lax(), c1.index_lax())
    mu = tuple(
        fn_compose(c2.mu[c1.functor.on_obj[a]], c1.mu[a])
        for a in range(c1.dom.dom.base.n_objects)
    )
    return OCell(dom=c1.dom, cod=c2.cod, functor=lax.functor, xi=lax.xi, mu=mu)


@dataclass
class OFibCell:
    dom: OFibObject
    cod: OFibObject
    top: CatFunctor
    bottom: CatFunctor
    xi_top: dict = field(default_factory=dict)
    xi_bottom: dict = field(default_factory=dict)
    name: str = ""

    def top_lax(self) -> LaxOMonFunctor:
        return LaxOMonFunctor(
            dom=self.dom.total_omon, cod=self.cod.total_omon,
            functor=self.top, xi=self.xi_top,
        )

    def bottom_lax(self) -> LaxOMonFunctor:
        return LaxOMonFunctor(
            dom=self.dom.base_omon, cod=self.cod.base_omon,
            functor=self.bottom, xi=self.xi_bottom,
        )

    def dfib_cell(self) -> DFibCell:
        return DFibCell(self.dom.fib, self.cod.fib, self.top, self.bottom)


def identity_ofib_cell(x: OFibObject) -> OFibCell:
    return OFibCell(
        dom=x,
        cod=x,
        top=identity_functor(x.fib.total),
        bottom=identity_functor(x.fib.base),
    )


def check_ofib_cell(c: OFibCell, *, memo: dict | None = None) -> CheckReport:
    memo = {} if memo is None else memo
    report = CheckReport()
    where = c.name or "ofibcell"
    report.merge(validate_dfib_cell(c.dfib_cell()), where=f"{where}:square")
    report.merge(_checked_lax(memo, c.top_lax()), where=f"{where}:top")
    report.merge(_checked_lax(memo, c.bottom_lax()), where=f"{where}:bottom")
    if not report.ok:
        return report
    # the comparison 2-morphisms must strictly commute with the projections:
    # one row compare per operation, and a walk of the rows where they differ;
    # a missing component goes to the label tables, which name it
    top, bottom = c.top_lax(), c.bottom_lax()
    up, down = (_TableTarget(L, _Compiled(L.dom, _rows_on(memo, L.dom.operad)), False) for L in (top, bottom))
    operad, objects, proj = top.dom.operad, c.dom.fib.total.objects, c.cod.fib.proj.on_mor
    n_obj, n_base = up.cc.n_obj, down.cc.n_obj

    def strict_xi(p, labels):
        report.violation("ofibcell.strict_xi", xi_key_render(p, labels) + " does not commute with the projections", where)

    def by_labels(n, p, combo):
        try:
            above = top.xi_at(n, p, combo)
            below = bottom.xi_at(n, p, tuple(c.dom.fib.proj.on_obj[a] for a in combo))
        except (PhiMissing, KeyError) as exc:
            report.violation("ofibcell.missing", str(exc), where)
            return
        if proj[above] != below:
            strict_xi(p, [objects[a] for a in combo])

    for n in range(operad.max_arity + 1):
        images = up.cc.image(n, c.dom.fib.proj.on_obj, n_base)
        for p in operad.elements(n):
            above, below = up.row(n, p), down.row(n, p)
            if above:
                report.count("ofibcell.strict_instances", len(above))
            below = [below[b] for b in images]
            if MISSING in above or MISSING in below or [proj[u] for u in above] != below:
                for code, (u, d) in enumerate(zip(above, below)):
                    if MISSING in (u, d):
                        by_labels(n, p, _mixed_decode(code, (n_obj,) * n))
                    elif proj[u] != d:
                        strict_xi(p, _labels(objects, code, n))
    return report


def ofib_cell_compose(c2: OFibCell, c1: OFibCell) -> OFibCell:
    y, z = c1.cod, c2.dom
    if y is not z and not (
        y.fib == z.fib and omons_equal(y.total_omon, z.total_omon) and omons_equal(y.base_omon, z.base_omon)
    ):
        raise ValueError("cells not composable")
    top = _compose_lax(c2.top_lax(), c1.top_lax())
    bottom = _compose_lax(c2.bottom_lax(), c1.bottom_lax())
    return OFibCell(
        dom=c1.dom,
        cod=c2.cod,
        top=top.functor,
        bottom=bottom.functor,
        xi_top=top.xi,
        xi_bottom=bottom.xi,
    )


@dataclass
class O2Cell:
    dom: OCell
    cod: OCell
    eta: NatTransform
    name: str = ""


def check_o2cell(e: O2Cell) -> CheckReport:
    report = CheckReport()
    where = e.name or "o2cell"
    report.merge(
        validate_iset_cell(ISet2Cell(e.dom.iset_cell(), e.cod.iset_cell(), e.eta)),
        where=f"{where}:iset",
    )
    if not report.ok:
        return report
    # the transformation must respect the comparison structure of both cells
    return _montrans_square(report, where, "o2cell", "", e.dom.index_lax(), e.cod.index_lax(), e.eta)


@dataclass
class OFib2Cell:
    dom: OFibCell
    cod: OFibCell
    top: NatTransform
    bottom: NatTransform
    name: str = ""


def check_ofib_2cell(e: OFib2Cell) -> CheckReport:
    report = CheckReport()
    where = e.name or "ofib2cell"
    report.merge(
        validate_dfib_cell(
            DFib2Cell(e.dom.dfib_cell(), e.cod.dfib_cell(), e.top, e.bottom)
        ),
        where=f"{where}:square",
    )
    if not report.ok:
        return report

    _montrans_square(report, where, "ofib2cell", "top ", e.dom.top_lax(), e.cod.top_lax(), e.top)
    return _montrans_square(
        report, where, "ofib2cell", "bottom ", e.dom.bottom_lax(), e.cod.bottom_lax(), e.bottom
    )


# --------------------------------------------------------------------------
# the construction


@_memo_step("ogroth")
def omon_groth(x, memo: dict) -> "OFibObject | OFibCell | OFib2Cell":
    """Structured Grothendieck construction on objects, 1-cells, 2-cells."""
    for kind, build in ((LaxSetFunctor, _omon_groth_object), (OCell, _omon_groth_cell), (O2Cell, _omon_groth_2cell)):
        if isinstance(x, kind):
            return build(x, memo)
    raise TypeError(f"cannot apply the construction to {type(x).__name__}")


def _omon_groth_object(x: LaxSetFunctor, memo: dict) -> OFibObject:
    nu_at = _nu_reader(memo, x)
    F = x.iset
    fib = groth_apply(F, memo=memo)
    index = x.dom
    obj_off, _, mor_off, _ = _pair_offsets(F)
    sizes = [v.size for v in F.values]
    on_obj, on_mor, mor_src = fib.proj.on_obj, fib.proj.on_mor, fib.total.mor_src
    element = [o - obj_off[a] for o, a in enumerate(on_obj)]

    def lift(n, p, objs):
        """The element that nu at (n, p) gives the elements a tuple of
        total objects stands for."""
        i_vec = tuple(on_obj[o] for o in objs)
        return nu_at(n, p, i_vec).mapping[_mixed_encode([element[o] for o in objs], [sizes[a] for a in i_vec])]

    total = build_omon(
        index.operad,
        fib.total,
        lambda n, p, objs: obj_off[index.tensor_obj(n, p, tuple(on_obj[o] for o in objs))] + lift(n, p, objs),
        lambda n, p, mors: mor_off[index.tensor_mor(n, p, tuple(on_mor[t] for t in mors))]
        + lift(n, p, tuple(mor_src[t] for t in mors)),
        name=f"int[{x.name or F.name}]",
    )
    # an absent base entry lifts to an identity, so only explicit ones are lifted
    for (f, p, qs, i_vec), value in index.phi.items():
        rho = index.op(f, p, qs)
        for xs in itertools.product(*(range(sizes[a]) for a in i_vec)):
            objs = tuple(obj_off[a] + xi for a, xi in zip(i_vec, xs))
            total.phi[(f, p, qs, objs)] = mor_off[value] + lift(f.source, rho, objs)
    return OFibObject(fib=fib, total_omon=total, base_omon=index, name=total.name)


def _omon_groth_cell(c: OCell, memo: dict) -> OFibCell:
    dom_of = omon_groth(c.dom, memo=memo)
    cod_of = omon_groth(c.cod, memo=memo)
    cod_nu = _nu_reader(memo, c.cod)
    square = _groth_cell(c.iset_cell(), memo)
    G = c.cod.iset
    g_obj_off, _, g_mor_off, _ = _pair_offsets(G)
    f_obj_off, _, _, _ = _pair_offsets(c.dom.iset)
    xi_top = {}
    for (n, p, objs), value in c.xi.items():
        # lift the comparison morphism at every total tuple over objs
        dom_sizes = [c.dom.iset.values[a].size for a in objs]
        for xs in itertools.product(*(range(s) for s in dom_sizes)):
            combo = tuple(f_obj_off[a] + xi for a, xi in zip(objs, xs))
            src_combo = tuple(square.top.on_obj[o] for o in combo)
            src_pairs_i = tuple(c.functor.on_obj[a] for a in objs)
            kappa = cod_nu(n, p, src_pairs_i)
            enc = _mixed_encode(
                tuple(o - g_obj_off[i] for o, i in zip(src_combo, src_pairs_i)),
                [G.values[i].size for i in src_pairs_i],
            )
            xi_top[(n, p, combo)] = g_mor_off[value] + kappa.mapping[enc]

    return OFibCell(
        dom=dom_of,
        cod=cod_of,
        top=square.top,
        bottom=square.bottom,
        xi_top=_normalize_xi(
            LaxOMonFunctor(dom=dom_of.total_omon, cod=cod_of.total_omon, functor=square.top, xi=xi_top)
        ),
        xi_bottom=_normalize_xi(
            LaxOMonFunctor(dom=dom_of.base_omon, cod=cod_of.base_omon, functor=c.functor, xi=c.xi)
        ),
    )


def _omon_groth_2cell(e: O2Cell, memo: dict) -> OFib2Cell:
    dom, cod = omon_groth(e.dom, memo=memo), omon_groth(e.cod, memo=memo)
    return OFib2Cell(dom=dom, cod=cod, top=_groth_2cell_top(e.dom.iset_cell(), e.eta, dom.top, cod.top), bottom=e.eta)


@_memo_step("otranspose")
def omon_transpose(y, memo: dict) -> "LaxSetFunctor | OCell | O2Cell":
    """Fiberwise inverse; comparison functions are read off the total
    tensors of fiber elements."""
    for kind, build in (
        (OFibObject, _omon_transpose_object), (OFibCell, _omon_transpose_cell), (OFib2Cell, _omon_transpose_2cell)
    ):
        if isinstance(y, kind):
            return build(y, memo)
    raise TypeError(f"cannot transpose {type(y).__name__}")


def _omon_transpose_object(y: OFibObject, memo: dict) -> LaxSetFunctor:
    F = transpose_apply(y.fib, memo=memo)
    index = y.base_omon
    operad = index.operad
    fibers, position = _fiber_objects(y.fib)
    nu = {}
    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            if n == 1 and p == operad.unit:
                continue
            for i_vec in itertools.product(range(y.fib.base.n_objects), repeat=n):
                src = o_set_product(F.values[a] for a in i_vec)
                tgt = F.values[index.tensor_obj(n, p, i_vec)]
                mapping = tuple(
                    position[y.total_omon.tensor_obj(n, p, objs)]
                    for objs in itertools.product(*(fibers[a] for a in i_vec))
                )
                nu[(n, p, i_vec)] = FinFunction(src, tgt, mapping)
    return LaxSetFunctor(dom=index, iset=F, nu=nu, name=f"T[{y.name}]")


def _omon_transpose_cell(c: OFibCell, memo: dict) -> OCell:
    square = _transpose_cell(c.dfib_cell(), memo)
    return OCell(
        dom=omon_transpose(c.dom, memo=memo),
        cod=omon_transpose(c.cod, memo=memo),
        functor=c.bottom,
        xi=dict(c.xi_bottom),
        mu=square.mu,
    )


def _omon_transpose_2cell(e: OFib2Cell, memo: dict) -> O2Cell:
    return O2Cell(dom=omon_transpose(e.dom, memo=memo), cod=omon_transpose(e.cod, memo=memo), eta=e.bottom)


# --------------------------------------------------------------------------
# products


def product_laxtoset(x1: LaxSetFunctor, x2: LaxSetFunctor, name: str = "") -> LaxSetFunctor:
    from .fib2cat import product_iset

    dom = product_omon(x1.dom, x2.dom, name=name or f"({x1.dom.name}x{x2.dom.name})")
    iset = product_iset([x1.iset, x2.iset], name=name or f"({x1.name}x{x2.name})")
    iset = IndexedSet(index=dom.base, values=iset.values, actions=iset.actions, name=iset.name)
    operad = dom.operad
    n_obj1 = x1.dom.base.n_objects
    sizes1 = [v.size for v in x1.iset.values]
    sizes2 = [v.size for v in x2.iset.values]
    n2 = x2.dom.base.n_objects
    nu = {}
    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            if n == 1 and p == operad.unit:
                continue
            for combo in itertools.product(range(dom.base.n_objects), repeat=n):
                a1 = tuple(c // n2 for c in combo)
                a2 = tuple(c % n2 for c in combo)
                nu1 = x1.nu_at(n, p, a1)
                nu2 = x2.nu_at(n, p, a2)
                src = o_set_product(iset.values[c] for c in combo)
                tgt_obj = dom.tensor_obj(n, p, combo)
                tgt = iset.values[tgt_obj]
                pair_sizes = [(sizes1[i], sizes2[j]) for i, j in zip(a1, a2)]
                flat_sizes = [s1 * s2 for s1, s2 in pair_sizes]
                t1, t2 = tgt_obj // n2, tgt_obj % n2
                mapping = []
                for idx in range(src.size):
                    xs = _mixed_decode(idx, flat_sizes) if flat_sizes else ()
                    xs1 = tuple(v // s2 for v, (_, s2) in zip(xs, pair_sizes))
                    xs2 = tuple(v % s2 for v, (_, s2) in zip(xs, pair_sizes))
                    out1 = nu1.mapping[_mixed_encode(xs1, [s for s, _ in pair_sizes])]
                    out2 = nu2.mapping[_mixed_encode(xs2, [s for _, s in pair_sizes])]
                    mapping.append(out1 * sizes2[t2] + out2)
                nu[(n, p, combo)] = FinFunction(src, tgt, tuple(mapping))
    return LaxSetFunctor(dom=dom, iset=iset, nu=nu, name=name or f"({x1.name}x{x2.name})")


def product_ofib(y1: OFibObject, y2: OFibObject, name: str = "") -> OFibObject:
    from .fib2cat import product_dfib

    fib = product_dfib([y1.fib, y2.fib], name=name)
    total = product_omon(y1.total_omon, y2.total_omon)
    base = product_omon(y1.base_omon, y2.base_omon)
    total = OMonCategory(
        operad=total.operad, base=fib.total, tensors=total.tensors,
        phi=total.phi, name=total.name,
    )
    base = OMonCategory(
        operad=base.operad, base=fib.base, tensors=base.tensors,
        phi=base.phi, name=base.name,
    )
    return OFibObject(fib=fib, total_omon=total, base_omon=base,
                      name=name or f"({y1.name}x{y2.name})")


# --------------------------------------------------------------------------
# shipped fixture families


def _laxtoset_from_rule(index: OMonCategory, iset: IndexedSet, rule, name: str) -> LaxSetFunctor:
    """The lax functor into Set whose comparison at ``(n, p, objs)`` sends
    each tuple of element labels ``xs`` to the element ``rule(n, p, xs)``.
    The unit operation and comparisons into a one-element set keep the
    default that an absent entry stands for."""
    x = LaxSetFunctor(dom=index, iset=iset, name=name)
    operad = index.operad
    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            if n == 1 and p == operad.unit:
                continue
            for objs in itertools.product(range(index.base.n_objects), repeat=n):
                src, tgt = x.nu_sets(n, p, objs)
                if tgt.size != 1:
                    labels = itertools.product(*(iset.values[a].labels for a in objs))
                    x.nu[(n, p, objs)] = FinFunction(src, tgt, tuple(tgt.index(rule(n, p, xs)) for xs in labels))
    return x


def grade_laxtoset(max_arity: int = 3) -> LaxSetFunctor:
    """The graded three-element monoid as a lax comparison structure over
    addition mod 2: the motivating 'pair of monoids' example."""
    from . import fixtures

    index = dz2_assoc_omon(max_arity)
    iset = iset_from_tables(index.base, {"0": ["p", "q"], "1": ["r"]}, {}, name="gradeF")
    grade = assoc_algebra_from_monoid(fixtures.GRADE_ELEMENTS, fixtures.GRADE_MULT, fixtures.GRADE_UNIT, max_arity)
    return _laxtoset_from_rule(index, iset, grade.apply, "GRADE")


def l2_laxtoset(max_arity: int = 3) -> LaxSetFunctor:
    """A two-level family over the meet-semilattice: the top fiber is the
    or-monoid, the bottom is a point."""
    index = l2_comm_omon(max_arity)
    iset = iset_from_tables(index.base, {"0": ["s"], "1": ["a", "b"]}, {"le_0_1": {"s": "b"}}, name="l2F")
    return _laxtoset_from_rule(index, iset, lambda n, p, xs: "b" if "b" in xs else "a", "L2FAM")


def _weighted_or(carrier):
    """The weighted-or rule of a quasi-convex operation on the two labels
    of ``carrier``: the second label exactly when an input of weight 1
    is the second label."""

    def rule(n, p, xs):
        return carrier[any(a == "1" and x == carrier[1] for a, x in zip(qconv_coords(p), xs))]

    return rule


def qconv_or_omon(max_arity: int = 3) -> OMonCategory:
    """The weighted-or algebra on two points over the quasi-convexity
    operad of the Boolean semiring."""
    operad = build_qconv(boolean_semiring(), max_arity)
    carrier = ("0", "1")
    rule = _weighted_or(carrier)
    ops = {
        (n, p): {xs: rule(n, p, xs) for xs in itertools.product(carrier, repeat=n)}
        for n in range(max_arity + 1)
        for p in operad.elements(n)
    }
    alg = SetAlgebra(operad=operad, carrier=carrier, ops=ops, name="QOR")
    return omon_from_set_algebra(operad, alg, name="QOR")


def qconv_proj_laxtoset(max_arity: int = 3) -> LaxSetFunctor:
    """A two-element family over the weighted-or structure whose
    comparison maps are the weighted-or itself: the quasi-convex analogue
    of the graded-monoid example."""
    index = qconv_or_omon(max_arity)
    fiber_set = ("f0", "f1")
    iset = iset_from_tables(index.base, {obj: fiber_set for obj in index.base.objects}, {}, name="qprojF")
    return _laxtoset_from_rule(index, iset, _weighted_or(fiber_set), "QPROJ")


def trivial_laxtoset(index: OMonCategory, name: str = "") -> LaxSetFunctor:
    from .fib2cat import constant_singleton

    return LaxSetFunctor(
        dom=index,
        iset=constant_singleton(index.base, name=f"triv[{index.name}]"),
        nu={},
        name=name or f"TRIV[{index.name}]",
    )


# --------------------------------------------------------------------------
# deterministic cell enumeration for the corpus


def forced_xi(dom_omon: OMonCategory, cod_omon: OMonCategory, functor: CatFunctor):
    """The unique candidate comparison structure, when homs are thin."""
    xi = {}
    operad = dom_omon.operad
    base = cod_omon.base
    for n in range(operad.max_arity + 1):
        for p in operad.elements(n):
            for objs in itertools.product(range(dom_omon.base.n_objects), repeat=n):
                src = cod_omon.tensor_obj(n, p, tuple(functor.on_obj[a] for a in objs))
                tgt = functor.on_obj[dom_omon.tensor_obj(n, p, objs)]
                if src == tgt:
                    continue
                hom = base.hom(src, tgt)
                if len(hom) != 1:
                    return None
                xi[(n, p, objs)] = hom[0]
    return xi


def enumerate_ocells(x: LaxSetFunctor, y: LaxSetFunctor, cap: int = 3, *, memo: dict | None = None):
    """Valid cells x -> y found by exhaustive search (thin-hom bases).
    A caller's ``memo`` first gets the reports of both index structures,
    which a round trip on the same memo checks anyway, so that untouched
    keys of the candidate lax functors are proved without their rows,
    and then the report of each cell kept, which :func:`check_ocell`
    reads there; a rejected candidate leaves none."""
    if not operads_equal(x.dom.operad, y.dom.operad):
        return []
    out = []
    if memo is None:
        memo = {}
    else:
        _checked_omon(memo, x.dom)
        _checked_omon(memo, y.dom)
    for M in all_functors(x.dom.base, y.dom.base):
        xi = forced_xi(x.dom, y.dom, M)
        if xi is None:
            continue
        lax = LaxOMonFunctor(dom=x.dom, cod=y.dom, functor=M, xi=xi)
        if not _checked_lax(memo, lax).ok:
            continue
        per_object = []
        feasible = True
        for a in range(x.dom.base.n_objects):
            dom_set = x.iset.values[a]
            cod_set = y.iset.values[M.on_obj[a]]
            if dom_set.size > 0 and cod_set.size == 0:
                feasible = False
                break
            per_object.append(
                [
                    FinFunction(dom_set, cod_set, mapping)
                    for mapping in itertools.product(
                        range(cod_set.size), repeat=dom_set.size
                    )
                ]
                if dom_set.size
                else [FinFunction(dom_set, cod_set, ())]
            )
        if not feasible:
            continue
        for combo in itertools.product(*per_object):
            cell = OCell(dom=x, cod=y, functor=M, xi=xi, mu=tuple(combo))
            checked = check_ocell(cell, memo=memo)
            if checked.ok:
                # a round trip on the memo checks the cells it keeps again
                memo[_ocell_key(cell)] = (cell, checked)
                out.append(cell)
                if len(out) >= cap:
                    return out
    return out


def enumerate_o2cells(c1: OCell, c2: OCell, cap: int = 2):
    if c1.dom is not c2.dom or c1.cod is not c2.cod:
        return []
    out = []
    for eta in all_nat_transforms(c1.functor, c2.functor):
        e = O2Cell(dom=c1, cod=c2, eta=eta)
        if check_o2cell(e).ok:
            out.append(e)
            if len(out) >= cap:
                break
    return out


@dataclass
class OCorpus:
    laxtosets: list = field(default_factory=list)
    ofibs: list = field(default_factory=list)
    ocells: list = field(default_factory=list)
    ofib_cells: list = field(default_factory=list)
    o2cells: list = field(default_factory=list)
    ofib_2cells: list = field(default_factory=list)
    operad_morphisms: list = field(default_factory=list)
    params: dict = field(default_factory=dict)


def make_o_corpus(max_arity: int = 3) -> OCorpus:
    """The shipped corpus: the graded-monoid family over the permutation
    operad, the semilattice family over the terminal operad, and the
    weighted-or family over the Boolean quasi-convexity operad."""
    grade = grade_laxtoset(max_arity)
    triv_dz2 = trivial_laxtoset(grade.dom, name="TRIVDZ2")
    l2fam = l2_laxtoset(max_arity)
    triv_l2 = trivial_laxtoset(l2fam.dom, name="TRIVL2")
    qproj = qconv_proj_laxtoset(max_arity)
    triv_q = trivial_laxtoset(qproj.dom, name="TRIVQ")
    laxtosets = [grade, triv_dz2, l2fam, triv_l2, qproj, triv_q]

    ofibs = [omon_groth(grade), omon_groth(l2fam), omon_groth(qproj)]
    ofibs.append(identity_ofib(grade.dom, name="idDZ2"))
    ofibs.append(identity_ofib(l2fam.dom, name="idL2"))

    ocells = [identity_ocell(x) for x in laxtosets]
    groups = [(grade, triv_dz2), (l2fam, triv_l2), (qproj, triv_q)]
    for a, b in groups:
        for src, tgt in ((a, b), (b, a), (a, a), (b, b)):
            for cell in enumerate_ocells(src, tgt, cap=2):
                ocells.append(cell)

    o2cells = []
    for c1 in ocells:
        for c2 in ocells:
            if c1 is c2 or c1.dom is not c2.dom or c1.cod is not c2.cod:
                continue
            o2cells.extend(enumerate_o2cells(c1, c2, cap=1))
    for cell in ocells[:4]:
        o2cells.append(O2Cell(dom=cell, cod=cell, eta=identity_nat(cell.functor)))

    ofib_cells = [identity_ofib_cell(y) for y in ofibs]
    for cell in ocells[: len(laxtosets) + 4]:
        ofib_cells.append(omon_groth(cell))
    ofib_2cells = [
        OFib2Cell(
            dom=c, cod=c, top=identity_nat(c.top), bottom=identity_nat(c.bottom)
        )
        for c in ofib_cells[:3]
    ]
    for e in o2cells[:4]:
        ofib_2cells.append(omon_groth(e))

    assoc = grade.dom.operad
    qconv = qproj.dom.operad
    comm = l2fam.dom.operad
    morphisms = [
        identity_operad_morphism(assoc),
        identity_operad_morphism(comm),
        identity_operad_morphism(qconv),
        terminal_morphism(assoc),
        terminal_morphism(qconv),
    ]
    return OCorpus(
        laxtosets=laxtosets,
        ofibs=ofibs,
        ocells=ocells,
        ofib_cells=ofib_cells,
        o2cells=o2cells,
        ofib_2cells=ofib_2cells,
        operad_morphisms=morphisms,
        params={"max_arity": max_arity},
    )


# --------------------------------------------------------------------------
# round trips


def phi_ocell(x: LaxSetFunctor, back: LaxSetFunctor, *, memo: dict | None = None) -> OCell:
    """The canonical invertible cell from the transposed construction of
    x back to x: forget the index coordinate of every pair."""
    base_phi = phi_component(x.iset, memo=memo)
    return OCell(
        dom=back,
        cod=x,
        functor=identity_functor(x.dom.base),
        xi={},
        mu=base_phi.mu,
        name=f"phi[{x.name}]",
    )


def phi_ocell_inverse(x: LaxSetFunctor, back: LaxSetFunctor, *, memo: dict | None = None) -> OCell:
    base_inv = phi_inverse(x.iset, memo=memo)
    return OCell(
        dom=x,
        cod=back,
        functor=identity_functor(x.dom.base),
        xi={},
        mu=base_inv.mu,
        name=f"phi_inv[{x.name}]",
    )


def psi_ofib_cell(y: OFibObject, fwd: OFibObject, *, memo: dict | None = None) -> OFibCell:
    base_psi = psi_component(y.fib, memo=memo)
    return OFibCell(
        dom=fwd,
        cod=y,
        top=base_psi.top,
        bottom=base_psi.bottom,
        name=f"psi[{y.name}]",
    )


def psi_ofib_cell_inverse(y: OFibObject, fwd: OFibObject, *, memo: dict | None = None) -> OFibCell:
    base_inv = psi_inverse(y.fib, memo=memo)
    return OFibCell(
        dom=y,
        cod=fwd,
        top=base_inv.top,
        bottom=base_inv.bottom,
        name=f"psi_inv[{y.name}]",
    )


def ocell_equal(a: OCell, b: OCell) -> bool:
    return (
        a.functor == b.functor
        and a.xi == b.xi
        and a.mu == b.mu
        and a.dom.iset == b.dom.iset
        and a.cod.iset == b.cod.iset
        and omons_equal(a.dom.dom, b.dom.dom)
        and omons_equal(a.cod.dom, b.cod.dom)
    )


def ofib_cell_equal(a: OFibCell, b: OFibCell) -> bool:
    return (
        a.top == b.top
        and a.bottom == b.bottom
        and a.xi_top == b.xi_top
        and a.xi_bottom == b.xi_bottom
        and a.dom.fib == b.dom.fib
        and a.cod.fib == b.cod.fib
        and omons_equal(a.dom.total_omon, b.dom.total_omon)
        and omons_equal(a.cod.total_omon, b.cod.total_omon)
    )


def omon_roundtrip_check(corpus: OCorpus, *, memo: dict | None = None) -> CheckReport:
    """Both round trips up to the explicit structured isomorphisms, plus
    strict functoriality of the construction on corpus cells and the
    fixed-base restriction.  A caller that built the corpus on a memo may
    pass it on."""
    report = CheckReport()
    for k, v in corpus.params.items():
        report.info[f"ocorpus.{k}"] = str(v)
    memo = {} if memo is None else memo
    for x in corpus.laxtosets:
        report.merge(_checked_omon(memo, x.dom), where=x.dom.name or "index")
        report.merge(_check_set_lax(x, memo=memo), where=x.name)
    for y in corpus.ofibs:
        report.merge(check_ofib_object(y, memo=memo), where=y.name)
    if not report.ok:
        return report

    # forward round trip
    for x in corpus.laxtosets:
        y = omon_groth(x, memo=memo)
        report.merge(check_ofib_object(y, memo=memo), where=f"int[{x.name}]")
        report.count("oroundtrip.groth_objects")
        # a second construction, built without the memo, which holds y.fib itself
        if y.fib != groth_apply(x.iset):
            report.violation(
                "oroundtrip.underlying",
                f"underlying fibration of the construction differs at {x.name}",
            )
        back = omon_transpose(y, memo=memo)
        report.merge(_check_set_lax(back, memo=memo), where=f"T[int[{x.name}]]")
        phi = phi_ocell(x, back, memo=memo)
        inv = phi_ocell_inverse(x, back, memo=memo)
        report.merge(check_ocell(phi, memo=memo), where=phi.name)
        report.merge(check_ocell(inv, memo=memo), where=inv.name)
        if not ocell_equal(ocell_compose(phi, inv), identity_ocell(x)):
            report.violation("oroundtrip.phi_invertible", f"phi o phi_inv != id at {x.name}")
        if not ocell_equal(ocell_compose(inv, phi), identity_ocell(back)):
            report.violation("oroundtrip.phi_invertible", f"phi_inv o phi != id at {x.name}")

    # backward round trip
    for y in corpus.ofibs:
        x = omon_transpose(y, memo=memo)
        report.merge(_checked_omon(memo, x.dom), where=f"T[{y.name}]:index")
        report.merge(_check_set_lax(x, memo=memo), where=f"T[{y.name}]")
        fwd = omon_groth(x, memo=memo)
        report.merge(check_ofib_object(fwd, memo=memo), where=f"int[T[{y.name}]]")
        psi = psi_ofib_cell(y, fwd, memo=memo)
        inv = psi_ofib_cell_inverse(y, fwd, memo=memo)
        report.merge(check_ofib_cell(psi, memo=memo), where=psi.name)
        report.merge(check_ofib_cell(inv, memo=memo), where=inv.name)
        if not ofib_cell_equal(ofib_cell_compose(psi, inv), identity_ofib_cell(y)):
            report.violation("oroundtrip.psi_invertible", f"psi o psi_inv != id at {y.name}")
        if not ofib_cell_equal(ofib_cell_compose(inv, psi), identity_ofib_cell(fwd)):
            report.violation("oroundtrip.psi_invertible", f"psi_inv o psi != id at {y.name}")

    # cells and functoriality
    valid = []
    for cell in corpus.ocells:
        checked = check_ocell(cell, memo=memo)
        report.merge(checked, where=cell.name or "ocell")
        if checked.ok:
            valid.append(cell)
        image = omon_groth(cell, memo=memo)
        report.merge(check_ofib_cell(image, memo=memo), where=f"int[{cell.name or 'ocell'}]")
        report.count("oroundtrip.cells")
    for cell in corpus.ofib_cells:
        report.merge(check_ofib_cell(cell, memo=memo), where=cell.name or "ofibcell")
        back = omon_transpose(cell, memo=memo)
        report.merge(check_ocell(back, memo=memo), where=f"T[{cell.name or 'ofibcell'}]")
    for e in corpus.o2cells:
        report.merge(check_o2cell(e), where=e.name or "o2cell")
        report.merge(check_ofib_2cell(omon_groth(e, memo=memo)), where="int[o2cell]")
    for e in corpus.ofib_2cells:
        report.merge(check_ofib_2cell(e), where=e.name or "ofib2cell")

    for x in corpus.laxtosets:
        if not ofib_cell_equal(
            _omon_groth_cell(identity_ocell(x), memo), identity_ofib_cell(omon_groth(x, memo=memo))
        ):
            report.violation("oroundtrip.functorial_id", f"int(id) != id at {x.name}")
    # the construction is a functor on valid cells; an invalid one has
    # its records above, and its composites may lack components.  A
    # composite is used once, so its construction takes no memo entry.
    for c1 in valid:
        for c2 in valid:
            if c1.cod is not c2.dom:
                continue
            report.count("oroundtrip.functoriality_pairs")
            if not ofib_cell_equal(
                _omon_groth_cell(ocell_compose(c2, c1), memo),
                ofib_cell_compose(omon_groth(c2, memo=memo), omon_groth(c1, memo=memo)),
            ):
                report.violation(
                    "oroundtrip.functorial_compose",
                    f"construction breaks a composite through {c1.name or '?'}",
                )

    # fixed-base restriction: cells over one structured index with the
    # identity functor stay over that index on the other side
    for cell in corpus.ocells:
        if cell.dom is not cell.cod:
            continue
        if cell.functor != identity_functor(cell.dom.dom.base) or cell.xi:
            continue
        image = omon_groth(cell, memo=memo)
        report.count("oroundtrip.fixed_base_cells")
        if image.bottom != identity_functor(image.dom.base_omon.base) or image.xi_bottom:
            report.violation(
                "oroundtrip.fixed_base",
                f"fixed-base cell leaves its base at {cell.name or '?'}",
            )
    return report


def restriction_report(corpus: OCorpus) -> CheckReport:
    """Every applicable (corpus cell, corpus operad morphism) pair:
    the restricted cell must re-validate."""
    report = CheckReport()
    for h in corpus.operad_morphisms:
        for x in corpus.laxtosets:
            if not operads_equal(h.cod, x.dom.operad):
                continue
            report.count("restriction.pairs")
            try:
                restricted = restrict_along_operad_morphism(h, x, recheck=False)
            except Exception as exc:  # noqa: BLE001 - report, not crash
                report.violation("restriction.build", f"{x.name} along {h.name}: {exc}")
                continue
            report.merge(check_omon_category(restricted.dom), where=f"{x.name}|{h.name}:index")
            report.merge(_check_set_lax(restricted), where=f"{x.name}|{h.name}")
        for cell in corpus.ocells:
            if not operads_equal(h.cod, cell.dom.dom.operad):
                continue
            report.count("restriction.pairs")
            rx = restrict_along_operad_morphism(h, cell.dom, recheck=False)
            ry = restrict_along_operad_morphism(h, cell.cod, recheck=False)
            rcell = OCell(
                dom=rx,
                cod=ry,
                functor=cell.functor,
                xi=_pullback_indexed(h, cell.xi),
                mu=cell.mu,
                name=f"{cell.name}|{h.name}" if cell.name else "",
            )
            report.merge(check_ocell(rcell), where=f"ocell|{h.name}")
    return report
