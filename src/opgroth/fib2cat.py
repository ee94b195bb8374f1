"""The 2-categories of discrete fibrations and of indexed sets at finite
scale: objects, 1-morphisms, 2-morphisms, validity checks, and finite
strict 2-products.

Cell equality is componentwise table equality; isomorphisms are always
witnessed by explicit invertible cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .fincore import (
    CatFunctor,
    FinCat,
    NatTransform,
    _digits,
    discrete_category,
    functor_compose,
    identity_functor,
    nat_vcompose,
    product_category,
    tuple_label,
    validate_functor,
    validate_natural_transformation,
)
from .report import CheckReport

# --------------------------------------------------------------------------
# finite sets and functions


@dataclass(frozen=True)
class FinSet:
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate element labels")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element {label!r}") from None


@dataclass(frozen=True)
class FinFunction:
    dom: FinSet
    cod: FinSet
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.dom.size:
            raise ValueError("mapping length does not match domain")
        for v in self.mapping:
            if not 0 <= v < self.cod.size:
                raise ValueError("mapping value out of range")

    def __call__(self, label: str) -> str:
        return self.cod.labels[self.mapping[self.dom.index(label)]]


def fn_identity(s: FinSet) -> FinFunction:
    return FinFunction(s, s, tuple(range(s.size)))


def fn_compose(g: FinFunction, f: FinFunction) -> FinFunction:
    if f.cod != g.dom:
        raise ValueError("functions not composable")
    return FinFunction(f.dom, g.cod, tuple(g.mapping[v] for v in f.mapping))


def fn_from_labels(dom: FinSet, cod: FinSet, assignment: dict) -> FinFunction:
    return FinFunction(
        dom, cod, tuple(cod.index(assignment[x]) for x in dom.labels)
    )


def set_product(sets) -> FinSet:
    """Cartesian product with tuple labels, lexicographic, slot 1 slowest."""
    sets = tuple(sets)
    return FinSet(
        tuple(
            tuple_label(combo)
            for combo in itertools.product(*(s.labels for s in sets))
        )
    )


def product_mapping(mappings, cod_sizes) -> tuple:
    """The mapping of the product of functions with these mappings into
    sets of these sizes, on the tuple codes of :func:`set_product`."""
    sizes = tuple(len(m) for m in mappings)
    out = [0] * math.prod(sizes)
    for at, size, digit in zip(mappings, cod_sizes, _digits(sizes)):
        out = [c * size + at[x] for c, x in zip(out, digit)]
    return tuple(out)


def fn_product(fns) -> FinFunction:
    fns = tuple(fns)
    mapping = product_mapping([f.mapping for f in fns], [f.cod.size for f in fns])
    return FinFunction(set_product(f.dom for f in fns), set_product(f.cod for f in fns), mapping)


# --------------------------------------------------------------------------
# objects: discrete fibrations and indexed sets


@dataclass(eq=True)
class DiscreteFibration:
    proj: CatFunctor
    name: str = field(default="", compare=False)

    @property
    def total(self) -> FinCat:
        return self.proj.dom

    @property
    def base(self) -> FinCat:
        return self.proj.cod


def identity_fibration(c: FinCat, name: str = "") -> DiscreteFibration:
    return DiscreteFibration(identity_functor(c), name=name or f"id[{c.name}]")


@dataclass(eq=True)
class IndexedSet:
    index: FinCat
    values: tuple[FinSet, ...]
    actions: tuple[FinFunction, ...]
    name: str = field(default="", compare=False)


def constant_singleton(index: FinCat, name: str = "") -> IndexedSet:
    star = FinSet(("*",))
    return IndexedSet(
        index=index,
        values=(star,) * index.n_objects,
        actions=(fn_identity(star),) * index.n_morphisms,
        name=name or f"singleton[{index.name}]",
    )


def iset_from_tables(index: FinCat, sets: dict, maps: dict, name: str = "") -> IndexedSet:
    """Build an indexed set from label tables.

    ``sets`` maps object labels to element-label lists; ``maps`` sends a
    non-identity morphism label to an {element: element} table.
    """
    values = tuple(FinSet(tuple(sets[obj])) for obj in index.objects)
    actions = []
    for m in range(index.n_morphisms):
        dom = values[index.mor_src[m]]
        cod = values[index.mor_tgt[m]]
        label = index.mor_labels[m]
        if label in maps:
            actions.append(fn_from_labels(dom, cod, maps[label]))
        elif index.is_identity_mor(m):
            actions.append(fn_identity(dom))
        else:
            raise KeyError(f"no action table for morphism {label!r}")
    return IndexedSet(index=index, values=values, actions=tuple(actions), name=name)


def validate_indexed_set(F: IndexedSet) -> CheckReport:
    report = CheckReport()
    c = F.index
    if len(F.values) != c.n_objects or len(F.actions) != c.n_morphisms:
        report.structural("iset.tables", "value or action table has wrong length")
        return report
    for m in range(c.n_morphisms):
        fn = F.actions[m]
        if fn.dom != F.values[c.mor_src[m]] or fn.cod != F.values[c.mor_tgt[m]]:
            report.structural(
                "iset.alignment", f"action of {c.mor_labels[m]} has wrong dom/cod"
            )
    if report.records:
        return report
    for a in range(c.n_objects):
        if F.actions[c.id_of(a)] != fn_identity(F.values[a]):
            report.violation("iset.identity", f"identity of {c.objects[a]} not preserved")
    for g, f in c.composable_pairs():
        report.count("iset.composition_instances")
        if F.actions[c.compose(g, f)] != fn_compose(F.actions[g], F.actions[f]):
            report.violation(
                "iset.composition",
                f"functoriality fails at ({c.mor_labels[g]}, {c.mor_labels[f]})",
            )
    return report


# --------------------------------------------------------------------------
# unique lifting


def lift_count_table(p: DiscreteFibration) -> dict:
    """(total object, base morphism) -> list of total morphisms over it."""
    table: dict[tuple[int, int], list[int]] = {}
    total, base = p.total, p.base
    for c in range(total.n_objects):
        pc = p.proj.on_obj[c]
        for f in range(base.n_morphisms):
            if base.mor_src[f] == pc:
                table[(c, f)] = []
    for m in range(total.n_morphisms):
        key = (total.mor_src[m], p.proj.on_mor[m])
        if key in table:
            table[key].append(m)
    return table


def check_discrete_fibration(p: DiscreteFibration) -> CheckReport:
    report = CheckReport()
    report.merge(validate_functor(p.proj), where="proj")
    if not report.ok:
        return report
    total, base = p.total, p.base
    for (c, f), lifts in sorted(lift_count_table(p).items()):
        report.count("dfib.lift_instances")
        if len(lifts) != 1:
            report.violation(
                "dfib.unique_lift",
                f"({total.objects[c]}, {base.mor_labels[f]}): lift-count {len(lifts)}",
            )
    return report


def lift(p: DiscreteFibration, c: int, f: int) -> int:
    """The unique total morphism over f with source c."""
    base = p.base
    if base.mor_src[f] != p.proj.on_obj[c]:
        raise ValueError(
            f"{base.mor_labels[f]} does not start at the projection of "
            f"{p.total.objects[c]}"
        )
    lifts = [
        m
        for m in range(p.total.n_morphisms)
        if p.total.mor_src[m] == c and p.proj.on_mor[m] == f
    ]
    if len(lifts) != 1:
        raise ValueError(
            f"not a discrete fibration: {len(lifts)} lifts at "
            f"({p.total.objects[c]}, {base.mor_labels[f]})"
        )
    return lifts[0]


# --------------------------------------------------------------------------
# 1-cells and 2-cells


@dataclass(eq=True)
class DFibCell:
    dom: DiscreteFibration
    cod: DiscreteFibration
    top: CatFunctor
    bottom: CatFunctor
    name: str = field(default="", compare=False)


@dataclass(eq=True)
class DFib2Cell:
    dom: DFibCell
    cod: DFibCell
    top: NatTransform
    bottom: NatTransform
    name: str = field(default="", compare=False)


@dataclass(eq=True)
class ISetCell:
    dom: IndexedSet
    cod: IndexedSet
    functor: CatFunctor
    mu: tuple[FinFunction, ...]
    name: str = field(default="", compare=False)


@dataclass(eq=True)
class ISet2Cell:
    dom: ISetCell
    cod: ISetCell
    eta: NatTransform
    name: str = field(default="", compare=False)


def identity_dfib_cell(p: DiscreteFibration) -> DFibCell:
    return DFibCell(p, p, identity_functor(p.total), identity_functor(p.base))


def identity_iset_cell(F: IndexedSet) -> ISetCell:
    return ISetCell(
        F,
        F,
        identity_functor(F.index),
        tuple(fn_identity(F.values[a]) for a in range(F.index.n_objects)),
    )


def identity_dfib_2cell(c: DFibCell) -> DFib2Cell:
    from .fincore import identity_nat

    return DFib2Cell(c, c, identity_nat(c.top), identity_nat(c.bottom))


def identity_iset_2cell(c: ISetCell) -> ISet2Cell:
    from .fincore import identity_nat

    return ISet2Cell(c, c, identity_nat(c.functor))


def dfib_cell_compose(c2: DFibCell, c1: DFibCell) -> DFibCell:
    if c1.cod != c2.dom:
        raise ValueError("cells not composable")
    return DFibCell(
        c1.dom,
        c2.cod,
        functor_compose(c2.top, c1.top),
        functor_compose(c2.bottom, c1.bottom),
    )


def iset_cell_compose(c2: ISetCell, c1: ISetCell) -> ISetCell:
    if c1.cod != c2.dom:
        raise ValueError("cells not composable")
    mu = tuple(
        fn_compose(c2.mu[c1.functor.on_obj[a]], c1.mu[a])
        for a in range(c1.dom.index.n_objects)
    )
    return ISetCell(c1.dom, c2.cod, functor_compose(c2.functor, c1.functor), mu)


def dfib_2cell_vcompose(e2: DFib2Cell, e1: DFib2Cell) -> DFib2Cell:
    if e1.cod != e2.dom:
        raise ValueError("2-cells not vertically composable")
    return DFib2Cell(
        e1.dom, e2.cod, nat_vcompose(e2.top, e1.top), nat_vcompose(e2.bottom, e1.bottom)
    )


def iset_2cell_vcompose(e2: ISet2Cell, e1: ISet2Cell) -> ISet2Cell:
    if e1.cod != e2.dom:
        raise ValueError("2-cells not vertically composable")
    return ISet2Cell(e1.dom, e2.cod, nat_vcompose(e2.eta, e1.eta))


def iset_whisker_post(cell: ISetCell, e: ISet2Cell) -> ISet2Cell:
    """cell after e, where cell starts at the cod of e's frames."""
    if e.dom.cod != cell.dom:
        raise ValueError("whiskering frames do not match")
    eta = e.eta
    comp = tuple(
        cell.functor.on_mor[eta.components[a]]
        for a in range(eta.dom.dom.n_objects)
    )
    new_eta = NatTransform(
        functor_compose(cell.functor, e.dom.functor),
        functor_compose(cell.functor, e.cod.functor),
        comp,
    )
    return ISet2Cell(iset_cell_compose(cell, e.dom), iset_cell_compose(cell, e.cod), new_eta)


def iset_whisker_pre(e: ISet2Cell, cell: ISetCell) -> ISet2Cell:
    """e after cell, where cell ends at the dom of e's frames."""
    if cell.cod != e.dom.dom:
        raise ValueError("whiskering frames do not match")
    eta = e.eta
    comp = tuple(
        eta.components[cell.functor.on_obj[a]] for a in range(cell.dom.index.n_objects)
    )
    new_eta = NatTransform(
        functor_compose(e.dom.functor, cell.functor),
        functor_compose(e.cod.functor, cell.functor),
        comp,
    )
    return ISet2Cell(iset_cell_compose(e.dom, cell), iset_cell_compose(e.cod, cell), new_eta)


def dfib_whisker_post(cell: DFibCell, e: DFib2Cell) -> DFib2Cell:
    if e.dom.cod != cell.dom:
        raise ValueError("whiskering frames do not match")

    def whisk(F: CatFunctor, t: NatTransform) -> NatTransform:
        return NatTransform(
            functor_compose(F, t.dom),
            functor_compose(F, t.cod),
            tuple(F.on_mor[m] for m in t.components),
        )

    return DFib2Cell(
        dfib_cell_compose(cell, e.dom),
        dfib_cell_compose(cell, e.cod),
        whisk(cell.top, e.top),
        whisk(cell.bottom, e.bottom),
    )


def dfib_whisker_pre(e: DFib2Cell, cell: DFibCell) -> DFib2Cell:
    if cell.cod != e.dom.dom:
        raise ValueError("whiskering frames do not match")

    def whisk(t: NatTransform, F: CatFunctor) -> NatTransform:
        return NatTransform(
            functor_compose(t.dom, F),
            functor_compose(t.cod, F),
            tuple(t.components[a] for a in F.on_obj),
        )

    return DFib2Cell(
        dfib_cell_compose(e.dom, cell),
        dfib_cell_compose(e.cod, cell),
        whisk(e.top, cell.top),
        whisk(e.bottom, cell.bottom),
    )


# --------------------------------------------------------------------------
# cell validation


def validate_dfib_cell(cell) -> CheckReport:
    """Validates a 1-cell (strict square) or a 2-cell (whiskering equality)."""
    report = CheckReport()
    if isinstance(cell, DFib2Cell):
        if cell.dom.dom != cell.cod.dom or cell.dom.cod != cell.cod.cod:
            report.structural("dfib2.frame", "parallel 1-cells expected")
            return report
        report.merge(validate_natural_transformation(cell.top), where="top")
        report.merge(validate_natural_transformation(cell.bottom), where="bottom")
        if not report.ok:
            return report
        p, q = cell.dom.dom, cell.dom.cod
        for c in range(p.total.n_objects):
            report.count("dfib2.whisker_instances")
            if q.proj.on_mor[cell.top.components[c]] != cell.bottom.components[
                p.proj.on_obj[c]
            ]:
                report.violation(
                    "dfib2.whisker",
                    f"whiskering equality fails at {p.total.objects[c]}",
                )
        return report
    if not isinstance(cell, DFibCell):
        report.structural("dfib.cell", f"not a DFib cell: {type(cell).__name__}")
        return report
    if cell.top.dom != cell.dom.total or cell.top.cod != cell.cod.total:
        report.structural("dfib.frame", "top functor frame mismatch")
    if cell.bottom.dom != cell.dom.base or cell.bottom.cod != cell.cod.base:
        report.structural("dfib.frame", "bottom functor frame mismatch")
    if not report.ok:
        return report
    report.merge(validate_functor(cell.top), where="top")
    report.merge(validate_functor(cell.bottom), where="bottom")
    if not report.ok:
        return report
    p, q = cell.dom, cell.cod
    for c in range(p.total.n_objects):
        report.count("dfib.square_instances")
        if q.proj.on_obj[cell.top.on_obj[c]] != cell.bottom.on_obj[p.proj.on_obj[c]]:
            report.violation(
                "dfib.square", f"square fails at object {p.total.objects[c]}"
            )
    for m in range(p.total.n_morphisms):
        report.count("dfib.square_instances")
        if q.proj.on_mor[cell.top.on_mor[m]] != cell.bottom.on_mor[p.proj.on_mor[m]]:
            report.violation(
                "dfib.square", f"square fails at morphism {p.total.mor_labels[m]}"
            )
    return report


def validate_iset_cell(cell) -> CheckReport:
    report = CheckReport()
    if isinstance(cell, ISet2Cell):
        if cell.dom.dom != cell.cod.dom or cell.dom.cod != cell.cod.cod:
            report.structural("iset2.frame", "parallel 1-cells expected")
            return report
        if cell.eta.dom != cell.dom.functor or cell.eta.cod != cell.cod.functor:
            report.structural("iset2.frame", "transformation frame mismatch")
            return report
        report.merge(validate_natural_transformation(cell.eta), where="eta")
        if not report.ok:
            return report
        F, G = cell.dom.dom, cell.dom.cod
        for a in range(F.index.n_objects):
            report.count("iset2.compat_instances")
            lhs = fn_compose(G.actions[cell.eta.components[a]], cell.dom.mu[a])
            if lhs != cell.cod.mu[a]:
                report.violation(
                    "iset2.compat",
                    f"compatibility fails at {F.index.objects[a]}",
                )
        return report
    if not isinstance(cell, ISetCell):
        report.structural("iset.cell", f"not an ISet cell: {type(cell).__name__}")
        return report
    F, G = cell.dom, cell.cod
    if cell.functor.dom != F.index or cell.functor.cod != G.index:
        report.structural("iset.frame", "functor frame mismatch")
        return report
    report.merge(validate_functor(cell.functor), where="functor")
    if not report.ok:
        return report
    if len(cell.mu) != F.index.n_objects:
        report.structural("iset.tables", "component table has wrong length")
        return report
    for a in range(F.index.n_objects):
        fn = cell.mu[a]
        if fn.dom != F.values[a] or fn.cod != G.values[cell.functor.on_obj[a]]:
            report.structural(
                "iset.alignment",
                f"component at {F.index.objects[a]} has wrong dom/cod",
            )
    if not report.ok:
        return report
    for m in range(F.index.n_morphisms):
        a, b = F.index.mor_src[m], F.index.mor_tgt[m]
        report.count("iset.naturality_instances")
        lhs = fn_compose(G.actions[cell.functor.on_mor[m]], cell.mu[a])
        rhs = fn_compose(cell.mu[b], F.actions[m])
        if lhs != rhs:
            report.violation(
                "iset.naturality",
                f"naturality fails at {F.index.mor_labels[m]}",
            )
    return report


# --------------------------------------------------------------------------
# finite strict 2-products


def product_dfib(factors, name: str = "") -> DiscreteFibration:
    """Product of totals over product of bases; the empty product is the
    identity fibration on the terminal category."""
    factors = tuple(factors)
    totals = product_category([p.total for p in factors])
    bases = product_category([p.base for p in factors])
    on_obj = tuple(
        bases.obj_index[tuple(p.proj.on_obj[a] for p, a in zip(factors, t))]
        for t in totals.obj_tuples
    )
    on_mor = tuple(
        bases.mor_index[tuple(p.proj.on_mor[m] for p, m in zip(factors, t))]
        for t in totals.mor_tuples
    )
    return DiscreteFibration(
        CatFunctor(totals.cat, bases.cat, on_obj, on_mor),
        name=name or tuple_label([p.name or "?" for p in factors]),
    )


def product_iset(factors, name: str = "") -> IndexedSet:
    """Pointwise Cartesian product over the product index category; the
    empty product is the constant singleton on the terminal category."""
    factors = tuple(factors)
    prod = product_category([F.index for F in factors])
    values = tuple(
        set_product(F.values[a] for F, a in zip(factors, t))
        for t in prod.obj_tuples
    )
    actions = tuple(
        fn_product(tuple(F.actions[m] for F, m in zip(factors, t)))
        for t in prod.mor_tuples
    )
    return IndexedSet(
        index=prod.cat,
        values=values,
        actions=actions,
        name=name or tuple_label([F.name or "?" for F in factors]),
    )


def embed_set_as_dfib(labels, name: str = "") -> DiscreteFibration:
    """A set X regarded as the identity fibration on the discrete X."""
    c = discrete_category(name or "set", labels)
    return identity_fibration(c, name=name)
