"""The discrete Grothendieck construction, its transpose, the explicit
natural isomorphisms between the round trips and the identity, and the
corpus-driven verification of the whole 2-equivalence.

Object identity in a total category is the canonical (index, element)
pair with label ``<index>.<element>``; a morphism is determined by a base
morphism plus its source pair.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import fixtures
from .fincore import (
    CatFunctor,
    FinCat,
    NatTransform,
    all_functors,
    all_nat_transforms,
    discrete_category,
    identity_functor,
    product_category,
)
from .fib2cat import (
    DFib2Cell,
    DFibCell,
    DiscreteFibration,
    FinFunction,
    FinSet,
    ISet2Cell,
    ISetCell,
    IndexedSet,
    check_discrete_fibration,
    dfib_2cell_vcompose,
    dfib_cell_compose,
    dfib_whisker_post,
    dfib_whisker_pre,
    embed_set_as_dfib,
    fn_compose,
    identity_dfib_2cell,
    identity_dfib_cell,
    identity_fibration,
    identity_iset_2cell,
    identity_iset_cell,
    iset_2cell_vcompose,
    iset_cell_compose,
    iset_from_tables,
    iset_whisker_post,
    iset_whisker_pre,
    lift_count_table,
    product_dfib,
    product_iset,
    validate_dfib_cell,
    validate_indexed_set,
    validate_iset_cell,
)
from .report import CheckReport, _memoized

# --------------------------------------------------------------------------
# one memo per call (see report._memoized)


def _memo_step(tag: str):
    """Turn ``build(x, memo)`` into the step ``name(x, *, memo=None)``,
    which builds each input once while ``memo`` lives; without a memo it
    builds into a fresh one.  ``tag`` keeps the steps' entries apart."""

    def wrap(build):
        def step(x, *, memo: dict | None = None):
            memo = {} if memo is None else memo
            return _memoized(memo, (tag, id(x)), x, lambda: build(x, memo))

        # the builder's name and module, so tracing and help() find the public
        # name where it is defined, and the step's own signature
        functools.update_wrapper(step, build, ("__module__", "__name__", "__qualname__", "__doc__"))
        del step.__wrapped__
        return step

    return wrap


# --------------------------------------------------------------------------
# pair bookkeeping for a total category


def _pair_offsets(F: IndexedSet):
    obj_offsets = []
    total = 0
    for a in range(F.index.n_objects):
        obj_offsets.append(total)
        total += F.values[a].size
    mor_offsets = []
    count = 0
    for m in range(F.index.n_morphisms):
        mor_offsets.append(count)
        count += F.values[F.index.mor_src[m]].size
    return obj_offsets, total, mor_offsets, count


def _groth_object(F: IndexedSet) -> DiscreteFibration:
    index = F.index
    obj_offsets, n_obj, mor_offsets, n_mor = _pair_offsets(F)
    objects = []
    for a in range(index.n_objects):
        for x in F.values[a].labels:
            objects.append(f"{index.objects[a]}.{x}")
    mor_src = []
    mor_tgt = []
    proj_mor = []
    for m in range(index.n_morphisms):
        a, b = index.mor_src[m], index.mor_tgt[m]
        act = F.actions[m]
        for xi in range(F.values[a].size):
            mor_src.append(obj_offsets[a] + xi)
            mor_tgt.append(obj_offsets[b] + act.mapping[xi])
            proj_mor.append(m)
    identity = tuple(
        mor_offsets[index.id_of(a)] + xi
        for a in range(index.n_objects)
        for xi in range(F.values[a].size)
    )
    identity_set = set(identity)
    mor_labels = tuple(
        f"id_{objects[mor_src[t]]}"
        if t in identity_set
        else f"{index.mor_labels[proj_mor[t]]}@{objects[mor_src[t]]}"
        for t in range(n_mor)
    )
    composition = {}
    for tg in range(n_mor):
        for tf in range(n_mor):
            if mor_src[tg] != mor_tgt[tf]:
                continue
            m = index.compose(proj_mor[tg], proj_mor[tf])
            composition[(tg, tf)] = mor_offsets[m] + (mor_src[tf] - obj_offsets[index.mor_src[proj_mor[tf]]])
    total = FinCat(
        objects=tuple(objects),
        mor_labels=mor_labels,
        mor_src=tuple(mor_src),
        mor_tgt=tuple(mor_tgt),
        identity=identity,
        composition=composition,
        name=f"int[{F.name or index.name}]",
    )
    proj = CatFunctor(
        total,
        index,
        tuple(a for a in range(index.n_objects) for _ in range(F.values[a].size)),
        tuple(proj_mor),
        name="proj",
    )
    return DiscreteFibration(proj, name=f"int[{F.name or index.name}]")


def _groth_cell(cell: ISetCell, memo: dict) -> DFibCell:
    F, G = cell.dom, cell.cod
    dom_fib = groth_apply(F, memo=memo)
    cod_fib = groth_apply(G, memo=memo)
    g_obj_off, _, g_mor_off, _ = _pair_offsets(G)
    on_obj = []
    for a in range(F.index.n_objects):
        for xi in range(F.values[a].size):
            on_obj.append(g_obj_off[cell.functor.on_obj[a]] + cell.mu[a].mapping[xi])
    on_mor = []
    for m in range(F.index.n_morphisms):
        a = F.index.mor_src[m]
        for xi in range(F.values[a].size):
            mm = cell.functor.on_mor[m]
            on_mor.append(g_mor_off[mm] + cell.mu[a].mapping[xi])
    top = CatFunctor(dom_fib.total, cod_fib.total, tuple(on_obj), tuple(on_mor))
    return DFibCell(dom_fib, cod_fib, top, cell.functor)


def _groth_2cell(e: ISet2Cell, memo: dict) -> DFib2Cell:
    c1 = groth_apply(e.dom, memo=memo)
    c2 = groth_apply(e.cod, memo=memo)
    return DFib2Cell(c1, c2, _groth_2cell_top(e.dom, e.eta, c1.top, c2.top), e.eta)


def _groth_2cell_top(cell: ISetCell, eta, top1: CatFunctor, top2: CatFunctor) -> NatTransform:
    """The top of the construction of a 2-cell ``eta`` out of ``cell``,
    from ``top1`` to ``top2``, the tops of its end cells' constructions."""
    F, G = cell.dom, cell.cod
    _, _, g_mor_off, _ = _pair_offsets(G)
    comps = []
    for a in range(F.index.n_objects):
        for xi in range(F.values[a].size):
            comps.append(g_mor_off[eta.components[a]] + cell.mu[a].mapping[xi])
    return NatTransform(top1, top2, tuple(comps))


@_memo_step("groth")
def groth_apply(cell, memo: dict):
    """The Grothendieck construction on an object, 1-cell, or 2-cell."""
    if isinstance(cell, IndexedSet):
        return _groth_object(cell)
    if isinstance(cell, ISetCell):
        return _groth_cell(cell, memo)
    if isinstance(cell, ISet2Cell):
        return _groth_2cell(cell, memo)
    raise TypeError(f"not an indexed-set cell: {type(cell).__name__}")


# --------------------------------------------------------------------------
# transpose


def _fiber_objects(p: DiscreteFibration):
    """The total objects over each base object, in total order, and the
    place of each total object in its fiber."""
    fibers = [[] for _ in range(p.base.n_objects)]
    position = []
    for c in range(p.total.n_objects):
        fiber = fibers[p.proj.on_obj[c]]
        position.append(len(fiber))
        fiber.append(c)
    return fibers, position


def _transpose_object(p: DiscreteFibration) -> IndexedSet:
    base, total = p.base, p.total
    fibers, position = _fiber_objects(p)
    values = tuple(
        FinSet(tuple(total.objects[c] for c in fiber)) for fiber in fibers
    )
    lifts = lift_count_table(p)
    actions = []
    for f in range(base.n_morphisms):
        a, b = base.mor_src[f], base.mor_tgt[f]
        mapping = []
        for c in fibers[a]:
            options = lifts[(c, f)]
            if len(options) != 1:
                raise ValueError(
                    f"not a discrete fibration at ({total.objects[c]}, {base.mor_labels[f]})"
                )
            mapping.append(position[total.mor_tgt[options[0]]])
        actions.append(FinFunction(values[a], values[b], tuple(mapping)))
    return IndexedSet(
        index=base, values=values, actions=tuple(actions), name=f"T[{p.name}]"
    )


def _transpose_cell(d: DFibCell, memo: dict) -> ISetCell:
    Fp = transpose_apply(d.dom, memo=memo)
    Gq = transpose_apply(d.cod, memo=memo)
    p, q = d.dom, d.cod
    fibers_p, _ = _fiber_objects(p)
    _, position_q = _fiber_objects(q)
    mu = []
    for a in range(p.base.n_objects):
        cod_set = Gq.values[d.bottom.on_obj[a]]
        mapping = tuple(position_q[d.top.on_obj[c]] for c in fibers_p[a])
        mu.append(FinFunction(Fp.values[a], cod_set, mapping))
    return ISetCell(Fp, Gq, d.bottom, tuple(mu))


def _transpose_2cell(e: DFib2Cell, memo: dict) -> ISet2Cell:
    return ISet2Cell(transpose_apply(e.dom, memo=memo), transpose_apply(e.cod, memo=memo), e.bottom)


@_memo_step("transpose")
def transpose_apply(cell, memo: dict):
    """Fiberwise inverse of the Grothendieck construction."""
    if isinstance(cell, DiscreteFibration):
        return _transpose_object(cell)
    if isinstance(cell, DFibCell):
        return _transpose_cell(cell, memo)
    if isinstance(cell, DFib2Cell):
        return _transpose_2cell(cell, memo)
    raise TypeError(f"not a discrete-fibration cell: {type(cell).__name__}")


# --------------------------------------------------------------------------
# the two natural isomorphisms


def _by_position(F: IndexedSet, G: IndexedSet) -> tuple:
    """The components that send each element of F(a) to the element at
    its position in G(a), for index objects a."""
    return tuple(
        FinFunction(F.values[a], G.values[a], tuple(range(F.values[a].size)))
        for a in range(F.index.n_objects)
    )


@_memo_step("phi")
def phi_component(F: IndexedSet, memo: dict) -> ISetCell:
    """Invertible cell from the transpose of the construction back to F;
    pointwise it forgets the index coordinate of a pair."""
    TF = transpose_apply(groth_apply(F, memo=memo), memo=memo)
    return ISetCell(TF, F, identity_functor(F.index), _by_position(TF, F), name=f"phi[{F.name}]")


@_memo_step("phi_inv")
def phi_inverse(F: IndexedSet, memo: dict) -> ISetCell:
    TF = transpose_apply(groth_apply(F, memo=memo), memo=memo)
    return ISetCell(F, TF, identity_functor(F.index), _by_position(F, TF), name=f"phi_inv[{F.name}]")


@_memo_step("psi")
def psi_component(p: DiscreteFibration, memo: dict) -> DFibCell:
    """Invertible cell from the construction of the transpose back to p."""
    Tp = transpose_apply(p, memo=memo)
    back = groth_apply(Tp, memo=memo)
    fibers, _ = _fiber_objects(p)
    on_obj = tuple(c for fiber in fibers for c in fiber)
    lifts = lift_count_table(p)
    on_mor = []
    for m in range(Tp.index.n_morphisms):
        a = Tp.index.mor_src[m]
        for c in fibers[a]:
            on_mor.append(lifts[(c, m)][0])
    top = CatFunctor(back.total, p.total, on_obj, tuple(on_mor))
    return DFibCell(back, p, top, identity_functor(p.base), name=f"psi[{p.name}]")


@_memo_step("psi_inv")
def psi_inverse(p: DiscreteFibration, memo: dict) -> DFibCell:
    Tp = transpose_apply(p, memo=memo)
    back = groth_apply(Tp, memo=memo)
    _, position = _fiber_objects(p)
    obj_off, _, mor_off, _ = _pair_offsets(Tp)
    on_obj = tuple(obj_off[p.proj.on_obj[c]] + position[c] for c in range(p.total.n_objects))
    on_mor = tuple(
        mor_off[p.proj.on_mor[m]] + position[p.total.mor_src[m]]
        for m in range(p.total.n_morphisms)
    )
    top = CatFunctor(p.total, back.total, on_obj, on_mor)
    return DFibCell(p, back, top, identity_functor(p.base), name=f"psi_inv[{p.name}]")


# --------------------------------------------------------------------------
# product comparison cells


def groth_product_comparison(F1: IndexedSet, F2: IndexedSet) -> DFibCell:
    """The canonical invertible cell from the construction of a product
    to the product of the constructions."""
    P = product_iset([F1, F2])
    dom = _groth_object(P)
    q1, q2 = _groth_object(F1), _groth_object(F2)
    cod = product_dfib([q1, q2])
    off1, _, moff1, _ = _pair_offsets(F1)
    off2, _, moff2, _ = _pair_offsets(F2)
    prod_idx = product_category([F1.index, F2.index])
    totals = product_category([q1.total, q2.total])
    on_obj = []
    for ai, t in enumerate(prod_idx.obj_tuples):
        a1, a2 = t
        for x1 in range(F1.values[a1].size):
            for x2 in range(F2.values[a2].size):
                on_obj.append(
                    totals.obj_index[(off1[a1] + x1, off2[a2] + x2)]
                )
    on_mor = []
    for mi, t in enumerate(prod_idx.mor_tuples):
        m1, m2 = t
        a1, a2 = F1.index.mor_src[m1], F2.index.mor_src[m2]
        for x1 in range(F1.values[a1].size):
            for x2 in range(F2.values[a2].size):
                on_mor.append(
                    totals.mor_index[(moff1[m1] + x1, moff2[m2] + x2)]
                )
    top = CatFunctor(dom.total, cod.total, tuple(on_obj), tuple(on_mor))
    bottom = identity_functor(dom.base)
    return DFibCell(dom, cod, top, bottom, name="groth-product-comparison")


def transpose_product_comparison(p1: DiscreteFibration, p2: DiscreteFibration) -> ISetCell:
    """Fiber labels agree on the nose, so the canonical comparison is the
    identity-shaped cell."""
    P = product_dfib([p1, p2])
    dom = _transpose_object(P)
    cod = product_iset([_transpose_object(p1), _transpose_object(p2)])
    return ISetCell(dom, cod, identity_functor(dom.index), _by_position(dom, cod))


# --------------------------------------------------------------------------
# corpus


@dataclass
class Corpus:
    isets: list = field(default_factory=list)
    fibrations: list = field(default_factory=list)
    iset_cells: list = field(default_factory=list)
    dfib_cells: list = field(default_factory=list)
    iset_2cells: list = field(default_factory=list)
    dfib_2cells: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def n_objects(self) -> int:
        return len(self.isets) + len(self.fibrations)

    @property
    def n_1cells(self) -> int:
        return len(self.iset_cells) + len(self.dfib_cells)

    @property
    def n_2cells(self) -> int:
        return len(self.iset_2cells) + len(self.dfib_2cells)


DEFAULT_CORPUS_SEED = 20240


def _pool_categories():
    return [
        ("term", product_category([]).cat, {}),
        ("disc2", fixtures.dz2(), {}),
        ("disc3", discrete_category("D3", ["x", "y", "z"]), {}),
        ("l2", fixtures.l2(), {"edges": [("le_0_1", "0", "1")]}),
        (
            "chain3",
            fixtures.chain3(),
            {
                "edges": [("le_0_1", "0", "1"), ("le_1_2", "1", "2")],
                "paths": {"le_0_2": ["le_0_1", "le_1_2"]},
            },
        ),
        ("span", fixtures.span(), {"edges": [("le_x_y", "x", "y"), ("le_x_z", "x", "z")]}),
        ("cospan", fixtures.cospan(), {"edges": [("le_x_z", "x", "z"), ("le_y_z", "y", "z")]}),
        ("par", fixtures.parallel_pair(), {"edges": [("u", "a", "b"), ("v", "a", "b")]}),
        ("bz2", fixtures.bz2(), {"involution": "1"}),
    ]


def _random_iset(name, cat, meta, rng, tag):
    sizes = {}
    has_arrows = bool(meta)
    for obj in cat.objects:
        low = 1 if has_arrows else rng.choice([1, 1, 1, 0])
        sizes[obj] = rng.randint(max(low, 1), 3) if has_arrows else rng.randint(low, 3)
    sets = {obj: [f"e{k}" for k in range(sizes[obj])] for obj in cat.objects}
    maps = {}
    if "involution" in meta:
        elems = list(sets[cat.objects[0]])
        perm = {}
        pool = list(elems)
        rng.shuffle(pool)
        while pool:
            x = pool.pop()
            if pool and rng.random() < 0.5:
                y = pool.pop()
                perm[x], perm[y] = y, x
            else:
                perm[x] = x
        maps[meta["involution"]] = perm
    else:
        for label, s, t in meta.get("edges", []):
            maps[label] = {x: rng.choice(sets[t]) for x in sets[s]}
        for label, path in meta.get("paths", {}).items():
            # composite along the unique path
            src_obj = cat.objects[cat.mor_src[cat.mor_index(path[0])]]
            table = {x: x for x in sets[src_obj]}
            for step in path:
                table = {x: maps[step][y] for x, y in table.items()}
            maps[label] = table
    return iset_from_tables(cat, sets, maps, name=f"{name}_{tag}")


def _valid_mus(F: IndexedSet, G: IndexedSet, M: CatFunctor, cap: int = 4000):
    """Natural families mu_a : F(a) -> G(M(a)), exhaustively up to a cap,
    in the order of the product of the per-object functions.

    A backtracking search assigns the objects in index order and tests the
    square G(M m) o mu_a = mu_b o F(m) of each morphism m : a -> b at the
    deeper of a and b, on mapping tuples computed once per (morphism,
    candidate); cells are built only for the families found."""
    index = F.index
    n = index.n_objects
    candidates = [
        list(itertools.product(range(G.values[M.on_obj[a]].size), repeat=F.values[a].size))
        for a in range(n)
    ]
    # squares[d]: (a, b, left, right) for each morphism a -> b with
    # max(a, b) == d, where left[i] is G(M m) after candidate i at a and
    # right[j] is candidate j at b after F(m)
    squares = [[] for _ in range(n)]
    for m in range(index.n_morphisms):
        a, b = index.mor_src[m], index.mor_tgt[m]
        g, f = G.actions[M.on_mor[m]].mapping, F.actions[m].mapping
        left = [tuple(g[v] for v in mu) for mu in candidates[a]]
        right = [tuple(mu[v] for v in f) for mu in candidates[b]]
        squares[max(a, b)].append((a, b, left, right))
    found = []
    choice = [0] * n

    def extend(d: int) -> bool:
        """Extend the assignment from object d; True once the cap is hit."""
        if d == n:
            found.append(tuple(choice))
            return len(found) >= cap
        for i in range(len(candidates[d])):
            choice[d] = i
            if all(left[choice[a]] == right[choice[b]] for a, b, left, right in squares[d]):
                if extend(d + 1):
                    return True
        return False

    extend(0)
    functions: dict = {}

    def function(a: int, i: int) -> FinFunction:
        fn = functions.get((a, i))
        if fn is None:
            fn = functions[a, i] = FinFunction(F.values[a], G.values[M.on_obj[a]], candidates[a][i])
        return fn

    return [ISetCell(F, G, M, tuple(function(a, i) for a, i in enumerate(combo))) for combo in found]


def generate_cells(isets, fibrations, seed: int, n_iset_cells=14, n_2cells=8):
    """Deterministically build valid cells among the given objects."""
    rng = random.Random(seed)
    iset_cells = [identity_iset_cell(F) for F in isets]
    memo: dict = {}

    def functors_between(C: FinCat, D: FinCat) -> list:
        return _memoized(memo, ("functors", id(C), id(D)), (C, D), lambda: list(all_functors(C, D)))

    attempts = 0
    built = 0
    while isets and built < n_iset_cells and attempts < 500:
        attempts += 1
        F = rng.choice(isets)
        G = rng.choice(isets)
        functors = functors_between(F.index, G.index)
        if not functors:
            continue
        M = rng.choice(functors)
        mus = _valid_mus(F, G, M)
        if not mus:
            continue
        cell = rng.choice(mus)
        iset_cells.append(cell)
        built += 1

    iset_2cells = []
    for cell in iset_cells[: max(6, n_2cells)]:
        iset_2cells.append(identity_iset_2cell(cell))
    built = 0
    attempts = 0
    while iset_cells and built < n_2cells and attempts < 300:
        attempts += 1
        cell = rng.choice(iset_cells)
        F, G = cell.dom, cell.cod
        targets = functors_between(F.index, G.index)
        N = rng.choice(targets) if targets else None
        if N is None:
            continue
        etas = list(all_nat_transforms(cell.functor, N))
        if not etas:
            continue
        eta = rng.choice(etas)
        nu = tuple(
            fn_compose(G.actions[eta.components[a]], cell.mu[a])
            for a in range(F.index.n_objects)
        )
        target_cell = ISetCell(F, G, N, nu)
        iset_cells.append(target_cell)
        iset_2cells.append(ISet2Cell(cell, target_cell, eta))
        built += 1

    dfib_cells = [identity_dfib_cell(p) for p in fibrations]
    for cell in iset_cells[:10]:
        dfib_cells.append(groth_apply(cell, memo=memo))
    # diagonal cells between identity fibrations
    id_fibs = [p for p in fibrations if p.proj.on_obj == tuple(range(p.total.n_objects))
               and p.total == p.base]
    built = 0
    attempts = 0
    while built < 8 and attempts < 200 and len(id_fibs) >= 1:
        attempts += 1
        p = rng.choice(id_fibs)
        q = rng.choice(id_fibs)
        functors = functors_between(p.total, q.total)
        if not functors:
            continue
        Fc = rng.choice(functors)
        dfib_cells.append(DFibCell(p, q, Fc, Fc))
        built += 1

    dfib_2cells = [identity_dfib_2cell(c) for c in dfib_cells[:6]]
    for e in iset_2cells[:6]:
        dfib_2cells.append(groth_apply(e, memo=memo))
    # transformations on diagonal cells
    built = 0
    attempts = 0
    diag = [c for c in dfib_cells if c.top == c.bottom and c.dom in id_fibs]
    while built < 4 and attempts < 100 and diag:
        attempts += 1
        c = rng.choice(diag)
        partners = [d for d in diag if d.dom == c.dom and d.cod == c.cod]
        d = rng.choice(partners)
        etas = list(all_nat_transforms(c.top, d.top))
        if not etas:
            continue
        eta = rng.choice(etas)
        dfib_2cells.append(DFib2Cell(c, d, eta, eta))
        built += 1
    return iset_cells, dfib_cells, iset_2cells, dfib_2cells


def corpus_with_cells(isets, fibrations, seed: int, params: dict, n_iset_cells=14, n_2cells=8) -> Corpus:
    """The corpus of the given objects and the cells that
    :func:`generate_cells` builds among them from ``seed``."""
    return Corpus(isets, fibrations, *generate_cells(isets, fibrations, seed, n_iset_cells, n_2cells), params=params)


def make_corpus(
    seed: int = DEFAULT_CORPUS_SEED,
    n_isets: int = 26,
    n_iset_cells: int = 14,
    n_2cells: int = 8,
) -> Corpus:
    """The shipped pseudorandom corpus; deterministic in the seed."""
    rng = random.Random(seed)
    pool = _pool_categories()
    isets = []
    for k in range(n_isets):
        name, cat, meta = pool[k % len(pool)]
        isets.append(_random_iset(name, cat, meta, rng, f"i{k}"))
    fibrations = []
    for k, F in enumerate(isets):
        if k % 2 == 0 and len(fibrations) < 10:
            fib = _groth_object(F)
            fibrations.append(
                DiscreteFibration(fib.proj, name=f"int_{F.name}")
            )
    for cat in (fixtures.walk(), fixtures.l2(), fixtures.bz2(), fixtures.chain3()):
        fibrations.append(identity_fibration(cat))
    fibrations.append(embed_set_as_dfib(["s1", "s2"], name="twopoint"))
    fibrations.append(
        product_dfib(
            [identity_fibration(fixtures.walk()), embed_set_as_dfib(["t1", "t2"], name="T")],
            name="walk_x_set",
        )
    )
    params = {"seed": seed, "max_objects": 3, "max_morphisms": 6, "max_value_size": 3}
    return corpus_with_cells(isets, fibrations, seed + 1, params, n_iset_cells, n_2cells)


# --------------------------------------------------------------------------
# round-trip verification


class _Side(NamedTuple):
    """One side of the 2-equivalence: its corpus, record names, construction
    to the other side, isomorphisms, checks and cell operations."""

    objects: list
    cells: list
    two_cells: list
    noun: str  # an unnamed object
    kind: str  # an unnamed cell
    construction: str
    iso: str
    apply: Callable
    build_cell: Callable
    build_2cell: Callable
    iso_component: Callable
    iso_inverse: Callable
    check_object: Callable
    validate: Callable
    identity: Callable
    compose: Callable
    vcompose: Callable
    whisker_post: Callable
    whisker_pre: Callable


def roundtrip_report(corpus: Corpus) -> CheckReport:
    """Verify the 2-equivalence on the corpus: invertibility and
    naturality of both isomorphisms, and strict functoriality of the
    construction and its transpose on every composable corpus pair."""
    report = CheckReport()
    for k, v in corpus.params.items():
        report.info[f"corpus.{k}"] = str(v)
    report.count("corpus.objects", corpus.n_objects)
    report.count("corpus.1cells", corpus.n_1cells)
    report.count("corpus.2cells", corpus.n_2cells)

    # Each law runs in both directions (s, t), from side s to side t, the
    # iset side first.  The sides are read from the module's names at every
    # call, so a wrapper rebound on a step (as a tracer installs it) is the
    # one called.
    iset = _Side(
        corpus.isets, corpus.iset_cells, corpus.iset_2cells, "iset", "iset", "int", "phi",
        groth_apply, _groth_cell, _groth_2cell, phi_component, phi_inverse,
        validate_indexed_set, validate_iset_cell, identity_iset_cell, iset_cell_compose,
        iset_2cell_vcompose, iset_whisker_post, iset_whisker_pre,
    )
    dfib = _Side(
        corpus.fibrations, corpus.dfib_cells, corpus.dfib_2cells, "fibration", "dfib", "T", "psi",
        transpose_apply, _transpose_cell, _transpose_2cell, psi_component, psi_inverse,
        check_discrete_fibration, validate_dfib_cell, identity_dfib_cell, dfib_cell_compose,
        dfib_2cell_vcompose, dfib_whisker_post, dfib_whisker_pre,
    )
    directions = ((iset, dfib), (dfib, iset))

    for s, _ in directions:
        for x in s.objects:
            report.merge(s.check_object(x), where=x.name or s.noun)
    if not report.ok:
        return report

    # one memo for the call: each corpus object's and cell's construction,
    # transpose and isomorphism components are built once
    memo: dict = {}

    # invertibility of the pointwise isomorphisms
    for s, t in directions:
        for x in s.objects:
            report.merge(t.check_object(s.apply(x, memo=memo)), where=f"{s.construction}[{x.name}]")
            fwd, inv = s.iso_component(x, memo=memo), s.iso_inverse(x, memo=memo)
            report.merge(s.validate(fwd), where=f"{s.iso}[{x.name}]")
            report.merge(s.validate(inv), where=f"{s.iso}_inv[{x.name}]")
            if s.compose(fwd, inv) != s.identity(x):
                report.violation(f"roundtrip.{s.iso}_invertible", f"{s.iso} o {s.iso}_inv != id at {x.name}")
            if s.compose(inv, fwd) != s.identity(fwd.dom):
                report.violation(f"roundtrip.{s.iso}_invertible", f"{s.iso}_inv o {s.iso} != id at {x.name}")
            report.count(f"roundtrip.{s.iso}_components")

    # each side's cells and 2-cells that validate: the functoriality pass
    # runs on these, since the composites of an invalid one may not exist
    valid = {(s.kind, dim): [] for s, _ in directions for dim in (1, 2)}

    # naturality against every corpus 1-cell
    for s, t in directions:
        for cell in s.cells:
            checked = s.validate(cell)
            report.merge(checked, where=cell.name or f"{s.kind}-cell")
            if checked.ok:
                valid[s.kind, 1].append(cell)
            image = s.apply(cell, memo=memo)
            report.merge(t.validate(image), where=f"{s.construction}[cell]")
            back = t.apply(image, memo=memo)
            lhs = s.compose(s.iso_component(cell.cod, memo=memo), back)
            rhs = s.compose(cell, s.iso_component(cell.dom, memo=memo))
            report.count("roundtrip.naturality_squares")
            if lhs != rhs:
                report.violation(
                    f"roundtrip.{s.iso}_naturality",
                    f"naturality square fails at cell {cell.name or '?'}",
                )

    # naturality against every corpus 2-cell (whiskering equality)
    for s, t in directions:
        for e in s.two_cells:
            checked = s.validate(e)
            report.merge(checked, where=f"{s.kind}-2cell")
            if checked.ok:
                valid[s.kind, 2].append(e)
            image = s.apply(e, memo=memo)
            report.merge(t.validate(image), where=f"{s.construction}[2cell]")
            back = t.apply(image, memo=memo)
            lhs = s.whisker_post(s.iso_component(e.dom.cod, memo=memo), back)
            rhs = s.whisker_pre(e, s.iso_component(e.dom.dom, memo=memo))
            report.count("roundtrip.naturality_squares")
            if lhs != rhs:
                report.violation(f"roundtrip.{s.iso}_naturality_2", "2-cell whiskering differs")

    # strict functoriality: identities and all composable corpus pairs.
    # An identity or composite built here is used once, so its
    # construction calls the per-kind builder and takes no memo entry.
    for s, t in directions:
        for x in s.objects:
            if s.build_cell(s.identity(x), memo) != t.identity(s.apply(x, memo=memo)):
                report.violation("roundtrip.functorial_id", f"{s.construction}(id) != id at {x.name}")
    for s, t in directions:
        for c1 in valid[s.kind, 1]:
            for c2 in valid[s.kind, 1]:
                if c1.cod != c2.dom:
                    continue
                report.count("roundtrip.functoriality_pairs")
                if s.build_cell(s.compose(c2, c1), memo) != t.compose(
                    s.apply(c2, memo=memo), s.apply(c1, memo=memo)
                ):
                    report.violation("roundtrip.functorial_compose", f"{s.construction} breaks a composite")
    for s, t in directions:
        for e1 in valid[s.kind, 2]:
            for e2 in valid[s.kind, 2]:
                if e1.cod != e2.dom:
                    continue
                report.count("roundtrip.functoriality_pairs")
                if s.build_2cell(s.vcompose(e2, e1), memo) != t.vcompose(
                    s.apply(e2, memo=memo), s.apply(e1, memo=memo)
                ):
                    report.violation(
                        "roundtrip.functorial_compose", f"{s.construction} breaks a vertical composite"
                    )
    return report
