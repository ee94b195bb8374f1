"""Finite categories, functors, natural transformations, and the
combinatorics of maps between finite ordinals.

Conventions used throughout the package:

* ``compose(g, f)`` always means "g after f" and is defined exactly when
  ``src(g) == tgt(f)``.
* A map between finite ordinals sends ``{1..m}`` to ``{1..n}``; the value
  tuple is 1-based.
* Fibers are always enumerated in increasing position order.  Every block
  and tuple convention in the package derives from this single rule.
* Identity morphisms are auto-labeled ``id_<object>``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .report import CheckReport

# --------------------------------------------------------------------------
# maps of finite ordinals


@dataclass(frozen=True)
class FinMap:
    """A function {1..source} -> {1..target}, values listed in source order."""

    source: int
    target: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.source < 0 or self.target < 0:
            raise ValueError("negative arity")
        if len(self.values) != self.source:
            raise ValueError(f"expected {self.source} values, got {len(self.values)}")
        for v in self.values:
            if not 1 <= v <= self.target:
                raise ValueError(f"value {v} out of range 1..{self.target}")

    def __call__(self, j: int) -> int:
        if not 1 <= j <= self.source:
            raise IndexError(f"position {j} out of range 1..{self.source}")
        return self.values[j - 1]

    @property
    def is_monotone(self) -> bool:
        return all(a <= b for a, b in zip(self.values, self.values[1:]))

    @property
    def is_permutation(self) -> bool:
        return self.source == self.target and sorted(self.values) == list(
            range(1, self.source + 1)
        )

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and self.values == tuple(
            range(1, self.source + 1)
        )

    def label(self) -> str:
        return "[" + ",".join(str(v) for v in self.values) + "]"

    @cached_property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """``fibers[i-1]`` lists the positions over i in increasing order.

        Computed on first use and kept on the map, which is immutable.
        """
        out = [[] for _ in range(self.target)]
        for j, v in enumerate(self.values, start=1):
            out[v - 1].append(j)
        return tuple(map(tuple, out))

    @cached_property
    def code(self) -> int:
        """The place of the map in the order :func:`all_maps` yields the
        maps of its source and target: the mixed-radix code of its values
        less one, in the radix of the target."""
        code, n = 0, self.target
        for v in self.values:
            code = code * n + v - 1
        return code

    @cached_property
    def _ranks(self) -> tuple[int, ...]:
        """``_ranks[j-1]`` is the position of j inside its fiber, from 1."""
        ranks = [0] * self.source
        for fib in self.fibers:
            for k, j in enumerate(fib, start=1):
                ranks[j - 1] = k
        return tuple(ranks)


def identity_map(n: int) -> FinMap:
    return FinMap(n, n, tuple(range(1, n + 1)))


def terminal_map(n: int) -> FinMap:
    """The unique map {1..n} -> {1}."""
    return FinMap(n, 1, (1,) * n)


def fm_compose(outer: FinMap, inner: FinMap) -> FinMap:
    """outer after inner."""
    if inner.target != outer.source:
        raise ValueError(
            f"cannot compose {outer.label()} after {inner.label()}: arity mismatch"
        )
    return FinMap(inner.source, outer.target, tuple(outer(v) for v in inner.values))


def invert_permutation(p: FinMap) -> FinMap:
    if not p.is_permutation:
        raise ValueError(f"{p.label()} is not a permutation")
    values = [0] * p.source
    for j, v in enumerate(p.values, start=1):
        values[v - 1] = j
    return FinMap(p.source, p.target, tuple(values))


def all_maps(m: int, n: int):
    """All maps {1..m} -> {1..n} in lexicographic order of value tuples,
    which is the order of their codes (:attr:`FinMap.code`)."""
    if m == 0:
        yield FinMap(0, n, ())
        return
    if n == 0:
        return
    for code, values in enumerate(itertools.product(range(1, n + 1), repeat=m)):
        f = FinMap(m, n, values)
        # the cached property, known from the order: set here, not on first
        # use, it keeps the peak resident set of the l2(5) structure checks
        # 0.8-0.9 MB lower (37.8 against 38.7 MB for check_omon_category)
        f.__dict__["code"] = code
        yield f


def fm_from_label(text: str) -> FinMap:
    """Parse "[2,1,1]" back into a map; the target defaults to max(values).

    Use ``FinMap`` directly when the target arity matters and can exceed
    the maximum value.
    """
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"not a map literal: {text!r}")
    inner = body[1:-1].strip()
    values = tuple(int(t) for t in inner.split(",")) if inner else ()
    target = max(values) if values else 0
    return FinMap(len(values), target, values)


# --------------------------------------------------------------------------
# fiber combinatorics


def fiber(f: FinMap, i: int) -> tuple[int, ...]:
    """Positions j with f(j) = i, in increasing order."""
    if not 1 <= i <= f.target:
        raise IndexError(f"fiber index {i} out of range 1..{f.target}")
    return f.fibers[i - 1]


def fiber_sizes(f: FinMap) -> tuple[int, ...]:
    sizes = [0] * f.target
    for v in f.values:
        sizes[v - 1] += 1
    return tuple(sizes)


def induced_fiber_map(f: FinMap, g: FinMap, i: int) -> FinMap:
    """The map (f.g)^-1(i) -> f^-1(i) that g induces between fibers.

    Both fibers are read through their increasing enumerations, so the
    result is again a map of ordinals.
    """
    if g.target != f.source:
        raise ValueError("maps not composable")
    fg = fm_compose(f, g)
    source_fiber = fiber(fg, i)
    target_fiber = fiber(f, i)
    pos = {j: k for k, j in enumerate(target_fiber, start=1)}
    return FinMap(
        len(source_fiber), len(target_fiber), tuple(pos[g(j)] for j in source_fiber)
    )


def _square_codes(f: FinMap, gs):
    """Yields, for each map g: ell -> m of ``gs`` into f.source, from one
    pass over ``g.values``: the :attr:`FinMap.code` of ``f.g`` and, for
    every i, the source and the code of the map ``(f.g)^-1(i) -> f^-1(i)``
    that g induces, as ``(fg_code, sources, codes)``.  No map is built.
    Agrees with :func:`fm_compose` and :func:`induced_fiber_map`, which
    stay as the reference implementation."""
    n, widths = f.target, tuple(map(len, f.fibers))
    # for each value v of g: the fiber of f it lies in, its rank there
    # (both from 0) and the size of that fiber
    steps = [(i - 1, r - 1, widths[i - 1]) for i, r in zip(f.values, f._ranks)]
    for g in gs:
        fg, sources, codes = 0, [0] * n, [0] * n
        for v in g.values:
            i, r, w = steps[v - 1]
            fg = fg * n + i
            sources[i] += 1
            codes[i] = codes[i] * w + r
        yield fg, sources, codes


def block_permutation(f: FinMap, taus) -> FinMap:
    """Assemble per-fiber permutations into one permutation over f.

    ``taus[i-1]`` must be a permutation of ``|f^-1(i)|``; the result acts
    as ``taus[i-1]`` on the i-th fiber read through its increasing
    enumeration, and commutes with f.
    """
    taus = tuple(taus)
    if len(taus) != f.target:
        raise ValueError(f"expected {f.target} fiber permutations, got {len(taus)}")
    values = [0] * f.source
    for i in range(1, f.target + 1):
        fib = fiber(f, i)
        tau = taus[i - 1]
        if not tau.is_permutation or tau.source != len(fib):
            raise ValueError(
                f"fiber {i} of {f.label()} has size {len(fib)}, got {tau.label()}"
            )
        for k, j in enumerate(fib, start=1):
            values[j - 1] = fib[tau(k) - 1]
    return FinMap(f.source, f.source, tuple(values))


def factorize_monotone_perm(f: FinMap) -> tuple[FinMap, FinMap]:
    """The unique pair (g, h) with f = g.h, g weakly monotone and h the
    permutation preserving the relative order inside every fiber of f."""
    sizes = fiber_sizes(f)
    starts = [1]
    for s in sizes[:-1]:
        starts.append(starts[-1] + s)
    h_values = [0] * f.source
    for i in range(1, f.target + 1):
        for k, j in enumerate(fiber(f, i)):
            h_values[j - 1] = starts[i - 1] + k
    g = FinMap(f.source, f.target, tuple(sorted(f.values)))
    h = FinMap(f.source, f.source, tuple(h_values))
    return g, h


def reindex_by_fibers(f: FinMap, t: tuple) -> tuple:
    """Regroup an m-tuple into fiber blocks ((x_j)_{f(j)=i})_{i in 1..n}."""
    if len(t) != f.source:
        raise ValueError(f"tuple length {len(t)} does not match arity {f.source}")
    return tuple(tuple(t[j - 1] for j in fiber(f, i)) for i in range(1, f.target + 1))


def flatten_by_fibers(f: FinMap, grouped: tuple) -> tuple:
    """Inverse of :func:`reindex_by_fibers`."""
    if len(grouped) != f.target:
        raise ValueError(f"expected {f.target} blocks, got {len(grouped)}")
    out = [None] * f.source
    for i in range(1, f.target + 1):
        fib = fiber(f, i)
        block = grouped[i - 1]
        if len(block) != len(fib):
            raise ValueError(f"block {i} has size {len(block)}, fiber has {len(fib)}")
        for j, x in zip(fib, block):
            out[j - 1] = x
    return tuple(out)


# --------------------------------------------------------------------------
# tuple codes
#
# A tuple whose j-th entry lies below sizes[j] is numbered by its
# mixed-radix code, its place in the order ``itertools.product`` yields
# it in (the last entry fastest).  Every table row of the package is
# indexed by such codes.  ``_digits`` and ``_sub_codes`` are pure; a form
# that reads the same rows many times wraps them in ``functools.cache``
# for its own lifetime, so no row outlives the check that reads it.


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


def _sub_codes(sizes: tuple, positions: tuple) -> tuple:
    """Row over the codes x in the radix ``sizes`` of the code of the
    entries of x at ``positions`` (from 1, increasing)."""
    row = [0]
    for j, size in enumerate(sizes, start=1):
        entries = range(size)
        if j in positions:
            row = [a * size + d for a in row for d in entries]
        else:
            row = [a for a in row for _ in entries]
    return tuple(row)


def _digits(sizes: tuple) -> tuple:
    """``_digits(sizes)[j][x]``: entry j of the tuple with code x."""
    return tuple(_sub_codes(sizes, (j,)) for j in range(1, len(sizes) + 1))


# --------------------------------------------------------------------------
# finite categories


@dataclass(eq=True)
class FinCat:
    """A finite category given by a total composition table.

    Objects and morphisms are dense 0-based indices with unique string
    labels.  ``composition[(g, f)]`` is g.f and must be present exactly
    for the composable pairs.  Values are immutable by convention.
    """

    objects: tuple[str, ...]
    mor_labels: tuple[str, ...]
    mor_src: tuple[int, ...]
    mor_tgt: tuple[int, ...]
    identity: tuple[int, ...]
    composition: dict[tuple[int, int], int]
    name: str = field(default="", compare=False)

    # -- basic accessors ----------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.mor_labels)

    def src(self, m: int) -> int:
        return self.mor_src[m]

    def tgt(self, m: int) -> int:
        return self.mor_tgt[m]

    def id_of(self, a: int) -> int:
        return self.identity[a]

    def is_identity_mor(self, m: int) -> bool:
        return self.identity[self.mor_src[m]] == m and self.mor_src[m] == self.mor_tgt[m]

    def compose(self, g: int, f: int) -> int:
        try:
            return self.composition[(g, f)]
        except KeyError:
            raise KeyError(
                f"no composition entry for ({self.mor_labels[g]}, {self.mor_labels[f]})"
            ) from None

    def obj_index(self, label: str) -> int:
        try:
            return self.objects.index(label)
        except ValueError:
            raise KeyError(f"no object {label!r} in category {self.name or '?'}") from None

    def mor_index(self, label: str) -> int:
        try:
            return self.mor_labels.index(label)
        except ValueError:
            raise KeyError(f"no morphism {label!r} in category {self.name or '?'}") from None

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        return tuple(
            m
            for m in range(self.n_morphisms)
            if self.mor_src[m] == a and self.mor_tgt[m] == b
        )

    def composable_pairs(self):
        for g in range(self.n_morphisms):
            for f in range(self.n_morphisms):
                if self.mor_src[g] == self.mor_tgt[f]:
                    yield g, f


def make_category(
    name: str,
    objects,
    arrows=(),
    compose=None,
) -> FinCat:
    """Build a category from object labels, non-identity arrows
    (label, src_label, tgt_label) and a composition table keyed by labels.

    Identities are generated automatically and unit compositions are
    filled in unless the table overrides them (overriding is allowed so
    that deliberately broken fixtures can be expressed).
    """
    objects = tuple(objects)
    mor_labels: list[str] = []
    mor_src: list[int] = []
    mor_tgt: list[int] = []
    identity: list[int] = []
    for a, label in enumerate(objects):
        identity.append(len(mor_labels))
        mor_labels.append(f"id_{label}")
        mor_src.append(a)
        mor_tgt.append(a)
    obj_idx = {label: a for a, label in enumerate(objects)}
    if len(obj_idx) != len(objects):
        raise ValueError("duplicate object labels")
    for label, s, t in arrows:
        mor_labels.append(label)
        mor_src.append(obj_idx[s])
        mor_tgt.append(obj_idx[t])
    mor_idx = {label: m for m, label in enumerate(mor_labels)}
    if len(mor_idx) != len(mor_labels):
        raise ValueError("duplicate morphism labels")

    table: dict[tuple[int, int], int] = {}
    for g in range(len(mor_labels)):
        for f in range(len(mor_labels)):
            if mor_src[g] != mor_tgt[f]:
                continue
            if identity[mor_src[g]] == g:
                table[(g, f)] = f
            elif identity[mor_src[f]] == f:
                table[(g, f)] = g
    if compose:
        for (gl, fl), hl in compose.items():
            table[(mor_idx[gl], mor_idx[fl])] = mor_idx[hl]
    return FinCat(
        objects=objects,
        mor_labels=tuple(mor_labels),
        mor_src=tuple(mor_src),
        mor_tgt=tuple(mor_tgt),
        identity=tuple(identity),
        composition=table,
        name=name,
    )


def discrete_category(name: str, labels) -> FinCat:
    return make_category(name, labels)


def poset_category(name: str, labels, relations) -> FinCat:
    """Category of a finite poset; ``relations`` lists the strict pairs
    (a, b) with a < b (the transitive closure is taken)."""
    labels = tuple(labels)
    below = {(a, a) for a in labels}
    below |= {(a, b) for a, b in relations}
    changed = True
    while changed:
        changed = False
        for a, b in list(below):
            for c, d in list(below):
                if b == c and (a, d) not in below:
                    below.add((a, d))
                    changed = True
    arrows = [
        (f"le_{a}_{b}", a, b) for a in labels for b in labels if (a, b) in below and a != b
    ]
    compose = {}
    arrow_label = {(a, b): f"le_{a}_{b}" for _, a, b in [(None, a, b) for l, a, b in arrows]}
    for _, a, b in arrows:
        for _, c, d in arrows:
            if b == c:
                compose[(arrow_label[(c, d)], arrow_label[(a, b)])] = arrow_label[(a, d)]
    return make_category(name, labels, arrows, compose)


def monoid_category(name: str, elements, mult, unit) -> FinCat:
    """One-object category of a finite monoid; the unit becomes the
    identity morphism, labeled ``id_pt``."""
    arrows = [(e, "pt", "pt") for e in elements if e != unit]
    mlabel = lambda e: "id_pt" if e == unit else e
    compose = {}
    for g in elements:
        for f in elements:
            if g == unit or f == unit:
                continue
            compose[(g, f)] = mlabel(mult[(g, f)])
    return make_category(name, ["pt"], arrows, compose)


# --------------------------------------------------------------------------
# category validation


def validate_category(c: FinCat) -> CheckReport:
    """Every unit and associativity instance, plus table well-formedness."""
    report = CheckReport()
    n_m = c.n_morphisms

    if len(set(c.objects)) != c.n_objects:
        report.structural("category.labels", "duplicate object labels")
    if len(set(c.mor_labels)) != n_m:
        report.structural("category.labels", "duplicate morphism labels")
    for m in range(n_m):
        if not (0 <= c.mor_src[m] < c.n_objects and 0 <= c.mor_tgt[m] < c.n_objects):
            report.structural("category.range", f"morphism {c.mor_labels[m]} endpoints out of range")
            return report
    for a in range(c.n_objects):
        i = c.identity[a]
        if not 0 <= i < n_m:
            report.structural("category.range", f"identity of {c.objects[a]} out of range")
            return report
        if c.mor_src[i] != a or c.mor_tgt[i] != a:
            report.structural(
                "category.identity_endpoints",
                f"id_{c.objects[a]} is not an endomorphism of {c.objects[a]}",
            )

    composable = set(c.composable_pairs())
    for pair in sorted(composable):
        if pair not in c.composition:
            g, f = pair
            report.structural(
                "category.composition_missing",
                f"pair ({c.mor_labels[g]}, {c.mor_labels[f]}) has no entry",
            )
    for (g, f), h in sorted(c.composition.items()):
        if (g, f) not in composable:
            report.structural(
                "category.composition_extra",
                f"entry ({c.mor_labels[g]}, {c.mor_labels[f]}) is not composable",
            )
        elif not 0 <= h < n_m:
            report.structural(
                "category.composition_range",
                f"({c.mor_labels[g]}, {c.mor_labels[f]}) -> {h} out of range",
            )
    if report.records:
        return report

    # endpoint mismatches are law failures on well-formed tables
    for (g, f), h in sorted(c.composition.items()):
        if c.mor_src[h] != c.mor_src[f] or c.mor_tgt[h] != c.mor_tgt[g]:
            report.violation(
                "category.composition_endpoints",
                f"({c.mor_labels[g]}, {c.mor_labels[f]}) = {c.mor_labels[h]} has wrong endpoints",
            )

    for f in range(n_m):
        left = c.compose(c.identity[c.mor_tgt[f]], f)
        if left != f:
            report.violation(
                "category.unit",
                f"unit-law violation at ({c.mor_labels[c.identity[c.mor_tgt[f]]]}, {c.mor_labels[f]})",
            )
        right = c.compose(f, c.identity[c.mor_src[f]])
        if right != f:
            report.violation(
                "category.unit",
                f"unit-law violation at ({c.mor_labels[f]}, {c.mor_labels[c.identity[c.mor_src[f]]]})",
            )
        report.count("category.unit_instances", 2)

    for h in range(n_m):
        for g in range(n_m):
            if c.mor_src[h] != c.mor_tgt[g]:
                continue
            for f in range(n_m):
                if c.mor_src[g] != c.mor_tgt[f]:
                    continue
                report.count("category.assoc_instances")
                left = c.composition.get((h, c.compose(g, f)))
                right = c.composition.get((c.compose(h, g), f))
                # inner composites can be ill-typed when endpoints are broken;
                # that is already reported above
                if left is not None and right is not None and left != right:
                    report.violation(
                        "category.assoc",
                        "associativity fails at "
                        f"({c.mor_labels[h]}, {c.mor_labels[g]}, {c.mor_labels[f]})",
                    )
    return report


# --------------------------------------------------------------------------
# functors and natural transformations


@dataclass(eq=True)
class CatFunctor:
    dom: FinCat
    cod: FinCat
    on_obj: tuple[int, ...]
    on_mor: tuple[int, ...]
    name: str = field(default="", compare=False)


def identity_functor(c: FinCat) -> CatFunctor:
    return CatFunctor(
        c, c, tuple(range(c.n_objects)), tuple(range(c.n_morphisms)), name="id"
    )


def functor_compose(g: CatFunctor, f: CatFunctor) -> CatFunctor:
    if g.dom != f.cod:
        raise ValueError("functors not composable")
    return CatFunctor(
        f.dom,
        g.cod,
        tuple(g.on_obj[a] for a in f.on_obj),
        tuple(g.on_mor[m] for m in f.on_mor),
    )


def functor_from_labels(dom: FinCat, cod: FinCat, obj_map, mor_map, name="") -> CatFunctor:
    on_obj = [0] * dom.n_objects
    for a, b in obj_map.items():
        on_obj[dom.obj_index(a)] = cod.obj_index(b)
    on_mor = [0] * dom.n_morphisms
    seen = set()
    for u, v in mor_map.items():
        m = dom.mor_index(u)
        on_mor[m] = cod.mor_index(v)
        seen.add(m)
    for a in range(dom.n_objects):
        m = dom.id_of(a)
        if m not in seen:
            on_mor[m] = cod.id_of(on_obj[a])
    return CatFunctor(dom, cod, tuple(on_obj), tuple(on_mor), name=name)


def validate_functor(F: CatFunctor) -> CheckReport:
    report = CheckReport()
    c, d = F.dom, F.cod
    if len(F.on_obj) != c.n_objects or len(F.on_mor) != c.n_morphisms:
        report.structural("functor.tables", "object or morphism table has wrong length")
        return report
    if any(not 0 <= b < d.n_objects for b in F.on_obj) or any(
        not 0 <= m < d.n_morphisms for m in F.on_mor
    ):
        report.structural("functor.range", "table entry out of range")
        return report
    for m in range(c.n_morphisms):
        fm = F.on_mor[m]
        if d.mor_src[fm] != F.on_obj[c.mor_src[m]] or d.mor_tgt[fm] != F.on_obj[c.mor_tgt[m]]:
            report.violation(
                "functor.endpoints",
                f"source/target violation at {c.mor_labels[m]}",
            )
    for a in range(c.n_objects):
        if F.on_mor[c.id_of(a)] != d.id_of(F.on_obj[a]):
            report.violation(
                "functor.identity", f"identity of {c.objects[a]} not preserved"
            )
    for g, f in c.composable_pairs():
        report.count("functor.composition_instances")
        image = d.composition.get((F.on_mor[g], F.on_mor[f]))
        if image is None or F.on_mor[c.compose(g, f)] != image:
            report.violation(
                "functor.composition",
                f"composition not preserved at ({c.mor_labels[g]}, {c.mor_labels[f]})",
            )
    return report


@dataclass(eq=True)
class NatTransform:
    dom: CatFunctor
    cod: CatFunctor
    components: tuple[int, ...]
    name: str = field(default="", compare=False)


def identity_nat(F: CatFunctor) -> NatTransform:
    return NatTransform(
        F, F, tuple(F.cod.id_of(F.on_obj[a]) for a in range(F.dom.n_objects))
    )


def validate_natural_transformation(t: NatTransform) -> CheckReport:
    report = CheckReport()
    F, G = t.dom, t.cod
    if F.dom != G.dom or F.cod != G.cod:
        report.structural("nattrans.frame", "mismatched dom/cod references")
        return report
    c, d = F.dom, F.cod
    if len(t.components) != c.n_objects:
        report.structural("nattrans.tables", "component table has wrong length")
        return report
    for a in range(c.n_objects):
        m = t.components[a]
        if not 0 <= m < d.n_morphisms:
            report.structural("nattrans.range", f"component at {c.objects[a]} out of range")
            return report
        if d.mor_src[m] != F.on_obj[a] or d.mor_tgt[m] != G.on_obj[a]:
            report.violation(
                "nattrans.endpoints",
                f"component at {c.objects[a]} has wrong source/target",
            )
    if report.records:
        return report
    for m in range(c.n_morphisms):
        a, b = c.mor_src[m], c.mor_tgt[m]
        report.count("nattrans.naturality_instances")
        if d.compose(G.on_mor[m], t.components[a]) != d.compose(
            t.components[b], F.on_mor[m]
        ):
            report.violation(
                "nattrans.naturality", f"naturality square fails at {c.mor_labels[m]}"
            )
    return report


def nat_vcompose(s: NatTransform, t: NatTransform) -> NatTransform:
    """Vertical composite s after t."""
    if t.cod != s.dom:
        raise ValueError("transformations not vertically composable")
    d = t.dom.cod
    return NatTransform(
        t.dom,
        s.cod,
        tuple(
            d.compose(s.components[a], t.components[a])
            for a in range(t.dom.dom.n_objects)
        ),
    )


# --------------------------------------------------------------------------
# finite products of categories


def tuple_label(labels) -> str:
    return "(" + ",".join(labels) + ")"


@dataclass
class ProductCat:
    """A product category together with its tuple bookkeeping."""

    cat: FinCat
    factors: tuple[FinCat, ...]
    obj_tuples: tuple[tuple[int, ...], ...]
    mor_tuples: tuple[tuple[int, ...], ...]
    obj_index: dict[tuple[int, ...], int]
    mor_index: dict[tuple[int, ...], int]
    projections: tuple[CatFunctor, ...]


def product_category(factors, name: str = "") -> ProductCat:
    """Strict product; position 1 varies slowest.  Zero factors yield the
    terminal category."""
    factors = tuple(factors)
    obj_tuples = tuple(itertools.product(*(range(c.n_objects) for c in factors)))
    mor_tuples = tuple(itertools.product(*(range(c.n_morphisms) for c in factors)))
    obj_index = {t: i for i, t in enumerate(obj_tuples)}
    mor_index = {t: i for i, t in enumerate(mor_tuples)}
    objects = tuple(
        tuple_label([c.objects[a] for c, a in zip(factors, t)]) for t in obj_tuples
    )
    mor_src = tuple(
        obj_index[tuple(c.mor_src[m] for c, m in zip(factors, t))] for t in mor_tuples
    )
    mor_tgt = tuple(
        obj_index[tuple(c.mor_tgt[m] for c, m in zip(factors, t))] for t in mor_tuples
    )
    identity = tuple(
        mor_index[tuple(c.id_of(a) for c, a in zip(factors, t))] for t in obj_tuples
    )
    identity_set = set(identity)
    mor_labels = tuple(
        f"id_{objects[mor_src[i]]}"
        if i in identity_set
        else tuple_label([c.mor_labels[m] for c, m in zip(factors, t)])
        for i, t in enumerate(mor_tuples)
    )
    composition = {}
    for gi, g in enumerate(mor_tuples):
        for fi, f in enumerate(mor_tuples):
            if mor_src[gi] != mor_tgt[fi]:
                continue
            composition[(gi, fi)] = mor_index[
                tuple(c.compose(gm, fm) for c, gm, fm in zip(factors, g, f))
            ]
    cat = FinCat(
        objects=objects,
        mor_labels=mor_labels,
        mor_src=mor_src,
        mor_tgt=mor_tgt,
        identity=identity,
        composition=composition,
        name=name or tuple_label([c.name or "?" for c in factors]),
    )
    projections = tuple(
        CatFunctor(
            cat,
            factor,
            tuple(t[k] for t in obj_tuples),
            tuple(t[k] for t in mor_tuples),
            name=f"pr{k + 1}",
        )
        for k, factor in enumerate(factors)
    )
    return ProductCat(
        cat=cat,
        factors=factors,
        obj_tuples=obj_tuples,
        mor_tuples=mor_tuples,
        obj_index=obj_index,
        mor_index=mor_index,
        projections=projections,
    )


# --------------------------------------------------------------------------
# brute-force enumeration (corpus generation and tests)


def all_functors(dom: FinCat, cod: FinCat):
    """Enumerate every functor dom -> cod; identities are forced, the
    remaining morphisms are searched exhaustively."""
    free = [m for m in range(dom.n_morphisms) if not dom.is_identity_mor(m)]
    for on_obj in itertools.product(range(cod.n_objects), repeat=dom.n_objects):
        candidates = []
        ok = True
        for m in free:
            opts = cod.hom(on_obj[dom.mor_src[m]], on_obj[dom.mor_tgt[m]])
            if not opts:
                ok = False
                break
            candidates.append(opts)
        if not ok:
            continue
        for choice in itertools.product(*candidates):
            on_mor = [0] * dom.n_morphisms
            for a in range(dom.n_objects):
                on_mor[dom.id_of(a)] = cod.id_of(on_obj[a])
            for m, v in zip(free, choice):
                on_mor[m] = v
            F = CatFunctor(dom, cod, tuple(on_obj), tuple(on_mor))
            good = True
            for g, f in dom.composable_pairs():
                if F.on_mor[dom.compose(g, f)] != cod.compose(F.on_mor[g], F.on_mor[f]):
                    good = False
                    break
            if good:
                yield F


def all_nat_transforms(F: CatFunctor, G: CatFunctor):
    c, d = F.dom, F.cod
    choices = [d.hom(F.on_obj[a], G.on_obj[a]) for a in range(c.n_objects)]
    for comps in itertools.product(*choices):
        t = NatTransform(F, G, tuple(comps))
        good = True
        for m in range(c.n_morphisms):
            a, b = c.mor_src[m], c.mor_tgt[m]
            if d.compose(G.on_mor[m], comps[a]) != d.compose(comps[b], F.on_mor[m]):
                good = False
                break
        if good:
            yield t
