"""Builders and comparisons that only the tests use: broken operad
variants, permutations, constant functors, tuple cells, sets as indexed
sets, the graded monoid as a one-object category, and table equality of
parsed documents."""

import itertools

from opgroth.dsl import SpecDocument
from opgroth.fib2cat import ISetCell, IndexedSet, constant_singleton, fn_from_labels
from opgroth.fincore import CatFunctor, FinCat, FinMap, discrete_category, monoid_category, product_category, tuple_label
from opgroth.fixtures import GRADE_ELEMENTS, GRADE_MULT, GRADE_UNIT
from opgroth.ogroth import omons_equal
from opgroth.operads import Operad, operads_equal


def with_overrides(o: Operad, overrides: dict, name: str = "") -> Operad:
    """A copy of ``o`` whose composition is redirected on the given keys,
    to build deliberately broken variants.

    Keys are (f, p, qs) triples.
    """
    frozen = {(f.target, f.values, p, tuple(qs)): r for (f, p, qs), r in overrides.items()}

    def rule(f: FinMap, p: str, qs: tuple[str, ...]) -> str:
        key = (f.target, f.values, p, qs)
        if key in frozen:
            return frozen[key]
        return o.compose(f, p, qs)

    return Operad(
        name=name or f"{o.name}-broken",
        max_arity=o.max_arity,
        carriers=o.carriers,
        unit=o.unit,
        rule=rule,
    )


def all_permutations(n: int):
    for values in itertools.permutations(range(1, n + 1)):
        yield FinMap(n, n, values)


def constant_functor(dom: FinCat, cod: FinCat, obj: int) -> CatFunctor:
    return CatFunctor(
        dom,
        cod,
        (obj,) * dom.n_objects,
        (cod.id_of(obj),) * dom.n_morphisms,
        name=f"const_{cod.objects[obj]}",
    )


def tuple_iset_cell(cells, target: IndexedSet) -> ISetCell:
    """The unique cell into a product with the given component cells."""
    cells = tuple(cells)
    if not cells:
        raise ValueError("empty tuple cell needs an explicit domain")
    dom = cells[0].dom
    for c in cells:
        if c.dom != dom:
            raise ValueError("component cells must share their domain")
    prod = product_category([c.cod.index for c in cells])
    on_obj = tuple(
        prod.obj_index[tuple(c.functor.on_obj[a] for c in cells)]
        for a in range(dom.index.n_objects)
    )
    on_mor = tuple(
        prod.mor_index[tuple(c.functor.on_mor[m] for c in cells)]
        for m in range(dom.index.n_morphisms)
    )
    functor = CatFunctor(dom.index, target.index, on_obj, on_mor)
    mu = []
    for a in range(dom.index.n_objects):
        cod_set = target.values[on_obj[a]]
        assignment = {}
        for x in dom.values[a].labels:
            assignment[x] = tuple_label([c.mu[a](x) for c in cells])
        mu.append(fn_from_labels(dom.values[a], cod_set, assignment))
    return ISetCell(dom, target, functor, tuple(mu))


def embed_set_as_iset(labels, name: str = "") -> IndexedSet:
    """A set X regarded as the constant-singleton indexed set on X."""
    c = discrete_category(name or "set", labels)
    return constant_singleton(c, name=name)


def bgrade() -> FinCat:
    """The graded three-element monoid as a one-object category."""
    return monoid_category("BGRADE", GRADE_ELEMENTS, GRADE_MULT, GRADE_UNIT)


def section_values_equal(kind: str, a, b) -> bool:
    if a is None or b is None:
        return a is b
    if kind == "operad":
        return operads_equal(a, b)
    if kind == "omon":
        return omons_equal(a, b)
    if kind == "laxfun":
        return (
            omons_equal(a.dom, b.dom)
            and omons_equal(a.cod, b.cod)
            and a.functor == b.functor
            and a.xi == b.xi
        )
    if kind == "omontrans":
        return (
            section_values_equal("laxfun", a.dom, b.dom)
            and section_values_equal("laxfun", a.cod, b.cod)
            and a.t.components == b.t.components
        )
    if kind == "ofib":
        return (
            a.fib == b.fib
            and omons_equal(a.total_omon, b.total_omon)
            and omons_equal(a.base_omon, b.base_omon)
        )
    if kind == "laxtoset":
        return omons_equal(a.dom, b.dom) and a.iset == b.iset and a.nu == b.nu
    return a == b


def documents_table_equal(a: SpecDocument, b: SpecDocument) -> bool:
    if len(a.sections) != len(b.sections):
        return False
    b_by_name = {s.name: s for s in b.sections}
    for sa in a.sections:
        sb = b_by_name.get(sa.name)
        if sb is None or sb.kind != sa.kind:
            return False
        if not section_values_equal(sa.kind, sa.value, sb.value):
            return False
    return True
