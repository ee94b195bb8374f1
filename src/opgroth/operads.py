"""Arity-truncated symmetric operads in Set.

Carrier elements are plain label strings so that builtin and file-defined
operads share one representation.  Composition is indexed by a map of
finite ordinals ``f: {1..m} -> {1..n}``: the outer element lives in O(n),
the i-th inner element in O(|f^-1(i)|), and the result in O(m).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache
from operator import add, mul
from typing import Callable, Optional

from .fincore import (
    FinMap,
    _digits,
    _square_codes,
    _sub_codes,
    all_maps,
    fiber,
    identity_map,
    terminal_map,
)
from .report import CheckReport, _memoized


class CompositionUndefined(Exception):
    """Raised when a composition entry is missing or ill-typed."""


@dataclass
class Operad:
    name: str
    max_arity: int
    carriers: tuple[tuple[str, ...], ...]
    unit: str
    rule: Optional[Callable[[FinMap, str, tuple[str, ...]], str]] = None
    table: Optional[dict] = None
    origin: Optional[tuple] = None
    # results of ``rule`` by key; a table is read at every call, as it may
    # be edited between calls, and a copy starts with an empty cache
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def elements(self, n: int) -> tuple[str, ...]:
        if not 0 <= n <= self.max_arity:
            raise IndexError(f"arity {n} outside truncation 0..{self.max_arity}")
        return self.carriers[n]

    def compose(self, f: FinMap, p: str, qs: tuple[str, ...]) -> str:
        # The key fixes every argument, so a hit is a call that already
        # passed the checks below.  Unhashable arguments are never cached
        # and fail those checks.
        qs = tuple(qs)
        key = (f.target, f.values, p, qs)
        try:
            return self._cache[key]
        except (KeyError, TypeError):
            pass
        if f.source > self.max_arity or f.target > self.max_arity:
            raise CompositionUndefined(
                f"map {f.label()} exceeds truncation {self.max_arity}"
            )
        if p not in self.carriers[f.target]:
            raise CompositionUndefined(f"{p!r} is not an element of arity {f.target}")
        if len(qs) != f.target:
            raise CompositionUndefined(
                f"expected {f.target} inner elements, got {len(qs)}"
            )
        for i, (q, fib) in enumerate(zip(qs, f.fibers), start=1):
            size = len(fib)
            if q not in self.carriers[size]:
                raise CompositionUndefined(
                    f"{q!r} is not an element of arity {size} (fiber {i} of {f.label()})"
                )
        if self.rule is not None:
            result = self._cache[key] = self.rule(f, p, qs)
            return result
        if self.table is None:
            raise CompositionUndefined("operad has neither a rule nor a table")
        try:
            return self.table[key]
        except KeyError:
            raise CompositionUndefined(
                f"no table entry for mu {f.label()} {p} {' '.join(qs)}"
            ) from None


def composition_keys(o: Operad):
    """Every (f, p, qs) the truncation defines, in deterministic order."""
    return _keys(o, all_maps)


def _keys(o: Operad, family):
    """The (f, p, qs) of :func:`composition_keys` with f among the maps
    ``family(m, n)`` yields, in the same order."""
    for n in range(o.max_arity + 1):
        for m in range(o.max_arity + 1):
            for f in family(m, n):
                inner = [o.elements(len(fib)) for fib in f.fibers]
                for p in o.elements(n):
                    for qs in itertools.product(*inner):
                        yield f, p, qs


def operads_equal(a: Operad, b: Operad) -> bool:
    """Table equality over the shared truncation: at every key both
    composites are equal or both are undefined."""
    if a is b:
        return True
    if a.max_arity != b.max_arity or a.carriers != b.carriers or a.unit != b.unit:
        return False

    def outcome(o: Operad, f, p, qs):
        try:
            return o.compose(f, p, qs)
        except CompositionUndefined:
            return None

    return all(outcome(a, f, p, qs) == outcome(b, f, p, qs) for f, p, qs in composition_keys(a))


# --------------------------------------------------------------------------
# builtin operads


def build_comm(max_arity: int) -> Operad:
    """The terminal operad: a single operation in every arity."""
    if max_arity < 1:
        raise ValueError("max_arity must be at least 1")
    carriers = tuple(("*",) for _ in range(max_arity + 1))
    return Operad(
        name=f"Comm({max_arity})",
        max_arity=max_arity,
        carriers=carriers,
        unit="*",
        rule=lambda f, p, qs: "*",
        origin=("comm",),
    )


def perm_label(p: FinMap) -> str:
    return p.label()


def build_assoc(max_arity: int) -> Operad:
    """Permutations of every arity; composition twists the unique
    monotone-times-permutation factorization against the fiber blocks."""
    if max_arity < 1:
        raise ValueError("max_arity must be at least 1")
    perms = [tuple(itertools.permutations(range(1, n + 1))) for n in range(max_arity + 1)]
    labels = [{values: perm_label(FinMap(n, n, values)) for values in perms[n]} for n in range(max_arity + 1)]
    values_of = [{label: values for values, label in labels[n].items()} for n in range(max_arity + 1)]
    carriers = tuple(tuple(labels[n].values()) for n in range(max_arity + 1))

    def rule(f: FinMap, p: str, qs: tuple[str, ...]) -> str:
        # sigma . f factors as a monotone map after the permutation that
        # lays the fibers of f out in the order sigma gives their images,
        # each in increasing order; the result is that permutation after
        # the block permutation of the taus: position j, k-th in its fiber
        # of f, goes to the fiber's offset plus tau(k)
        sigma, fibers = values_of[f.target][p], f.fibers
        offsets, at = [0] * f.target, 0
        for i in sorted(range(f.target), key=sigma.__getitem__):
            offsets[i], at = at, at + len(fibers[i])
        values = [0] * f.source
        for fib, q, offset in zip(fibers, qs, offsets):
            for j, t in zip(fib, values_of[len(fib)][q]):
                values[j - 1] = offset + t
        return labels[f.source][tuple(values)]

    return Operad(
        name=f"Assoc({max_arity})",
        max_arity=max_arity,
        carriers=carriers,
        unit=perm_label(identity_map(1)),
        rule=rule,
        origin=("assoc",),
    )


# --------------------------------------------------------------------------
# semirings and the quasi-convexity operad


@dataclass
class Semiring:
    name: str
    elements: tuple[str, ...]
    add: dict[tuple[str, str], str]
    mul: dict[tuple[str, str], str]
    zero: str
    one: str

    def sum(self, labels) -> str:
        acc = self.zero
        for x in labels:
            acc = self.add[(acc, x)]
        return acc


def boolean_semiring() -> Semiring:
    elems = ("0", "1")
    return Semiring(
        name="Bool",
        elements=elems,
        add={(a, b): ("1" if "1" in (a, b) else "0") for a in elems for b in elems},
        mul={(a, b): ("1" if a == b == "1" else "0") for a in elems for b in elems},
        zero="0",
        one="1",
    )


def check_semiring(r: Semiring) -> CheckReport:
    report = CheckReport()
    elems = r.elements
    if len(set(elems)) != len(elems):
        report.structural("semiring.labels", "duplicate element labels")
    for table, op in ((r.add, "add"), (r.mul, "mul")):
        for a in elems:
            for b in elems:
                v = table.get((a, b))
                if v is None:
                    report.structural(f"semiring.{op}_missing", f"{op}({a}, {b}) has no entry")
                elif v not in elems:
                    report.structural(f"semiring.{op}_range", f"{op}({a}, {b}) = {v!r} not an element")
    if r.zero not in elems or r.one not in elems:
        report.structural("semiring.units", "zero or one is not an element")
    if report.records:
        return report
    for a in elems:
        if r.add[(r.zero, a)] != a or r.add[(a, r.zero)] != a:
            report.violation("semiring.add_unit", f"0 + {a} laws fail")
        if r.mul[(r.one, a)] != a or r.mul[(a, r.one)] != a:
            report.violation("semiring.mul_unit", f"1 * {a} laws fail")
        if r.mul[(r.zero, a)] != r.zero or r.mul[(a, r.zero)] != r.zero:
            report.violation("semiring.absorbing", f"0 * {a} laws fail")
        for b in elems:
            if r.add[(a, b)] != r.add[(b, a)]:
                report.violation("semiring.add_comm", f"{a} + {b} != {b} + {a}")
            for c in elems:
                report.count("semiring.instances")
                if r.add[(r.add[(a, b)], c)] != r.add[(a, r.add[(b, c)])]:
                    report.violation("semiring.add_assoc", f"({a}+{b})+{c}")
                if r.mul[(r.mul[(a, b)], c)] != r.mul[(a, r.mul[(b, c)])]:
                    report.violation("semiring.mul_assoc", f"({a}{b}){c}")
                if r.mul[(a, r.add[(b, c)])] != r.add[(r.mul[(a, b)], r.mul[(a, c)])]:
                    report.violation("semiring.left_dist", f"{a}({b}+{c})")
                if r.mul[(r.add[(a, b)], c)] != r.add[(r.mul[(a, c)], r.mul[(b, c)])]:
                    report.violation("semiring.right_dist", f"({a}+{b}){c}")
    return report


def qconv_label(coords) -> str:
    return "(" + ",".join(coords) + ")"


def qconv_coords(label: str) -> tuple[str, ...]:
    inner = label.strip()[1:-1]
    return tuple(t.strip() for t in inner.split(",")) if inner else ()


def build_qconv(r: Semiring, max_arity: int) -> Operad:
    """Tuples over the semiring summing to one; no nullary operations
    unless the semiring is trivial, so empty-fiber compositions have an
    empty domain."""
    if max_arity < 1:
        raise ValueError("max_arity must be at least 1")
    coords_of = [
        {qconv_label(coords): coords for coords in itertools.product(r.elements, repeat=n) if r.sum(coords) == r.one}
        for n in range(max_arity + 1)
    ]
    carriers = [tuple(level) for level in coords_of]

    def rule(f: FinMap, p: str, qs: tuple[str, ...]) -> str:
        out = [r.zero] * f.source
        for a, q, fib in zip(coords_of[f.target][p], qs, f.fibers):
            for j, b in zip(fib, coords_of[len(fib)][q]):
                out[j - 1] = r.mul[(a, b)]
        return qconv_label(out)

    return Operad(
        name=f"QConv[{r.name}]({max_arity})",
        max_arity=max_arity,
        carriers=tuple(carriers),
        unit=qconv_label((r.one,)),
        rule=rule,
        origin=("qconv", r),
    )


# --------------------------------------------------------------------------
# axiom checking


UNDEFINED = -1  # a composite that is undefined or lies outside its carrier


class OperadRows:
    """The composition of an operad as rows of carrier indices.

    The operations of each arity are numbered by their place in the
    carrier.  ``row(f)`` is indexed by the code of ``(p, qs)`` in the
    mixed radix of the carrier sizes of f.target and of f's fiber slots
    (:meth:`shape`), the order ``itertools.product`` yields them in; each
    entry is the index of ``op(f, p, qs)`` in its carrier, or UNDEFINED.
    A row is filled by one :meth:`Operad.compose` per key on first use,
    and kept in one list per source and target indexed by
    :attr:`FinMap.code`, so that the square kernel of :meth:`sweep` finds
    the rows of f.g and of each g_i from their codes, without building
    the maps.  The form also keeps the verdict of each group of
    associativity squares it proves square by square (see :meth:`sweep`),
    so it serves one family of maps.  An operad's table may be edited
    between calls, so a standalone check builds its own form and drops
    it; a round trip or a ``check`` command keeps one form per operad and
    family on its memo (:func:`_rows_on`).
    """

    def __init__(self, o: Operad):
        self.o = o
        self.sizes = tuple(map(len, o.carriers))
        self.index = [{label: i for i, label in enumerate(c)} for c in o.carriers]
        # _rows[m][n][code]: the row of the map m -> n with that code, or
        # None before it is filled; a list is made on first use
        self._rows = [[None] * len(self.sizes) for _ in self.sizes]
        self._shapes, self._slots, self._verdicts, self._closed = {}, {}, {}, None
        self._gather_f, self._gathers, self._ints = None, {}, ()
        self._digits, self._sub_codes = cache(_digits), cache(_sub_codes)

    def row(self, f: FinMap):
        """The row of f; see the class doc."""
        by_code = self._rows[f.source][f.target]
        if by_code is None:
            by_code = self._rows[f.source][f.target] = [None] * f.target**f.source
        row = by_code[f.code]
        if row is None:
            o, index = self.o, self.index[f.source]
            inner = [o.carriers[len(fib)] for fib in f.fibers]
            row = []
            for p in o.carriers[f.target]:
                for qs in itertools.product(*inner):
                    try:
                        row.append(index.get(o.compose(f, p, qs), UNDEFINED))
                    except CompositionUndefined:
                        row.append(UNDEFINED)
            row = by_code[f.code] = tuple(row)
        return row

    def shape(self, f: FinMap) -> tuple:
        """``(inner, slots, width)`` of f: the carriers of its fiber slots,
        their sizes and the product of those, the number of codes of qs.
        One tuple per tuple of fiber sizes for the form's lifetime, and one
        slot-size tuple per distinct value."""
        fiber_sizes = tuple(map(len, f.fibers))
        got = self._shapes.get(fiber_sizes)
        if got is None:
            inner = tuple(self.o.carriers[k] for k in fiber_sizes)
            slots = tuple(map(len, inner))
            slots = self._slots.setdefault(slots, slots)
            got = self._shapes[fiber_sizes] = (inner, slots, math.prod(slots))
        return got

    def gather(self, f: FinMap, g_slots: tuple):
        """For each fiber i of f, over the codes of (qs, rs) with rs
        fastest, rs having the slot sizes ``g_slots`` of a map g into
        f.source: the code of ``(qs[i], rs|f^-1(i))`` in the row of the
        map g_i that g induces on that fiber.  Kept for the last f only,
        as a sweep takes the pairs of each f in a row, and built of one
        tuple of ints per form: keeping every f's, or ints of their own,
        raised the peak resident set at arity 4."""
        if self._gather_f is not f:
            self._gather_f, self._gathers = f, {}
        got = self._gathers.get(g_slots)
        if got is None:
            got = []
            for fib, digits in zip(f.fibers, self._digits(self.shape(f)[1])):
                n_sub, sub = math.prod(g_slots[j - 1] for j in fib), self._sub_codes(g_slots, fib)
                if len(self._ints) < self.sizes[len(fib)] * n_sub:
                    self._ints = tuple(range(self.sizes[len(fib)] * n_sub))
                ints = self._ints
                got.append(tuple([ints[d * n_sub + x] for d in digits for x in sub]))
            got = self._gathers[g_slots] = tuple(got)
        return got

    def sweep(self, maps: dict, walks=None):
        """Every associativity square over the maps ``maps[m, n]``, in sweep
        order, grouped by f and the source arity ell of g: yields
        ``(f, ps, f_inner, ell, total, pairs)`` for each f: m -> n and
        ell, where ``ps`` are the outer operations, ``f_inner`` the
        carriers of f's fiber slots and ``pairs`` yields
        ``(g, f.g, g_is, g_inner, held)`` for each g: ell -> m, ``g_is``
        being the maps between fibers that g induces, ``g_inner`` the
        carriers of g's fiber slots and ``held`` the square's number of
        instances when every one holds, else None.  A pair with an empty
        carrier has no instances and is skipped.  f.g and each g_i are
        read from ``maps`` by their codes (:func:`_square_codes`), so
        ``maps`` must hold them: all maps, or the monotone ones.

        ``total`` is the group's verdict: its number of instances when
        every square of the group holds, else None.  The singleton lemma
        gives it by arithmetic in each sweep: when every row over the maps
        is total and closed, a square whose result arity ell has one
        operation holds at every instance, both of its sides being that
        operation, so the group is counted without building a square.
        Any other group is proved square by square once per form, which
        keeps the verdict, unless ``walks(n, f.values, ell)`` says that
        the caller walks the group's pairs whatever its verdict: such a
        group without a kept verdict gets None, and its ``pairs`` prove
        each square as they yield it, so that no square is built twice.

        The squares of a group are proved in one loop over its g, on
        codes: one pass over ``g.values`` gives the codes of f.g and of
        each g_i, which index their rows, and no map is built.  The
        ``pairs`` of a group read f.g and each g_i from ``maps`` by code,
        and take ``held`` from the group's verdict when it has one.
        """
        o, sizes, verdicts, rows = self.o, self.sizes, self._verdicts, self._rows
        n_arities = o.max_arity + 1
        if self._closed is None:
            # fills every row of the family, which the kernel reads by code
            self._closed = all([UNDEFINED not in self.row(h) for hs in maps.values() for h in hs])
        closed = self._closed
        # the maps of maps[m, n] whose fiber slots all have operations, and
        # the shape of each (:meth:`shape`)
        live, shapes_of = {}, {}
        for key, hs in maps.items():
            kept, kept_shapes = [], []
            for h in hs:
                shape = self.shape(h)
                if shape[2]:
                    kept.append(h)
                    kept_shapes.append(shape)
            live[key], shapes_of[key] = tuple(kept), tuple(kept_shapes)
        # by_code[m][n][code]: the map of maps[m, n] with that code, or
        # None; made when a group's pairs are first walked
        by_code = []

        def squares(f: FinMap, n_q: int, ell: int, prove: bool):
            """``(g, g_inner, (fg_code, sources, codes), held)`` for each
            g of the group (f, ell), n_q being the number of f's qs and
            ``held`` from the square kernel when ``prove``, else from the
            arithmetic of a group that holds."""
            m, n = f.source, f.target
            gs, n_p = live[ell, m], sizes[n]
            got = _square_codes(f, gs)
            if not prove:
                for g, (g_inner, _, n_r), codes in zip(gs, shapes_of[ell, m], got):
                    yield g, g_inner, codes, n_p * n_q * n_r
                return
            row_f, rows_g, rows_fg = rows[m][n][f.code], rows[ell][m], rows[ell][n]
            if not closed and UNDEFINED in row_f:
                for g, (g_inner, _, _), codes in zip(gs, shapes_of[ell, m], got):
                    yield g, g_inner, codes, None
                return
            # lhs: op(g, op(f, p, qs), rs) over (p, qs, rs), rs fastest, read
            # from the row of g in slices (index lists kept per group held
            # ints of their own: 0.7 MB more at the peak of assoc(4)); rhs:
            # op(fg, p, s), the code of s over (qs, rs) by Horner's rule
            # over the fibers of f from the row of each g_i at its gather,
            # kept per g_slots.  Every entry of those rows is read.  A
            # closed form has no UNDEFINED entry in any row of its family,
            # so it skips each scan for one, and each g_i whose source has
            # one operation: its row is all 0 (without that skip assoc(4)
            # checked in 3.05 s, not 2.51 s)
            widths, gathers = [len(fib) for fib in f.fibers], {}
            for g, (g_inner, g_slots, n_r), codes in zip(gs, shapes_of[ell, m], got):
                row_g, held = rows_g[g.code], None
                if n_r == 1:
                    lhs = list(map(row_g.__getitem__, row_f))
                else:
                    lhs = []
                    for mid in row_f:
                        lhs += row_g[mid * n_r : mid * n_r + n_r]
                if closed or UNDEFINED not in lhs:
                    at = gathers.get(g_slots)
                    if at is None:
                        at = gathers[g_slots] = self.gather(f, g_slots)
                    fg_code, sources, g_codes = codes
                    code = None
                    for source, width, c, at_i in zip(sources, widths, g_codes, at):
                        if closed and sizes[source] == 1:
                            continue
                        row = rows[source][width][c]
                        if not closed and UNDEFINED in row:
                            break
                        s_i = map(row.__getitem__, at_i)
                        code = s_i if code is None else map(add, map(mul, code, itertools.repeat(sizes[source])), s_i)
                    else:
                        if code is None:
                            code = [0] * (n_q * n_r)
                        row_fg = rows_fg[fg_code]
                        code, n_s = list(code), len(row_fg) // n_p
                        rhs = [row_fg[at + c] for at in range(0, len(row_fg), n_s) for c in code]
                        if lhs == rhs:
                            held = len(lhs)
                yield g, g_inner, codes, held

        def pairs(f: FinMap, n_q: int, ell: int, total):
            if not by_code:
                by_code.extend([None] * n_arities for _ in range(n_arities))
                for (a, b), hs in maps.items():
                    by_code[a][b] = table = [None] * b**a
                    for h in hs:
                        table[h.code] = h
            fgs, widths = by_code[ell][f.target], [len(fib) for fib in f.fibers]
            for g, g_inner, (fg_code, sources, codes), held in squares(f, n_q, ell, total is None):
                g_is = tuple(by_code[s][w][c] for s, w, c in zip(sources, widths, codes))
                yield g, fgs[fg_code], g_is, g_inner, held

        weights: dict = {}  # the number of (g, rs) with g: ell -> m, by (ell, m)
        for n in range(n_arities):
            ps = o.elements(n)
            if not ps:
                continue
            for m in range(n_arities):
                for f, (f_inner, _, n_q) in zip(live[m, n], shapes_of[m, n]):
                    for ell in range(n_arities):
                        key = (n, f.values, ell)
                        if closed and sizes[ell] == 1:
                            if (ell, m) not in weights:
                                weights[ell, m] = sum(n_r for _, _, n_r in shapes_of[ell, m])
                            total = len(ps) * n_q * weights[ell, m]
                        elif key in verdicts:
                            total = verdicts[key]
                        elif walks is not None and walks(n, f.values, ell):
                            total = None
                        else:
                            # square by square; the squares are not kept
                            # (keeping them raised the peak resident set)
                            total = 0
                            for *_, held in squares(f, n_q, ell, True):
                                if held is None:
                                    total = None
                                    break
                                total += held
                            verdicts[key] = total
                        yield f, ps, f_inner, ell, total, pairs(f, n_q, ell, total)

    def key_code(self, f: FinMap, p: str, qs):
        """The code of ``(p, qs)``, a composition key, in the row of f."""
        index, sizes = self.index, self.sizes
        code = index[f.target][p]
        for q, fib in zip(qs, f.fibers):
            code = code * sizes[len(fib)] + index[len(fib)][q]
        return code

    def square_keys(self, f: FinMap, g: FinMap, fg: FinMap, g_is):
        """The keys of the square at g: ell -> m and f: m -> n, whose
        composites must all be defined, at each instance in sweep order
        (rs fastest): ``(x_f, x_g, x_gis, x_fg)``, the lists of the codes
        of ``(p, qs)`` in the row of f, of ``(op(f, p, qs), rs)`` in the
        row of g, of ``(qs[i], rs|f^-1(i))`` in the row of each g_i and of
        ``(p, s)`` in the row of fg, ``s[i]`` being ``op(g_i, qs[i],
        rs|f^-1(i))``."""
        row_f, (_, g_slots, n_r) = self.row(f), self.shape(g)
        n_p, n_q, sizes = self.sizes[f.target], self.shape(f)[2], self.sizes
        x_f = [a for a in range(len(row_f)) for _ in range(n_r)]
        x_g = [mid * n_r + r for mid in row_f for r in range(n_r)]
        x_gis, code = [], [0] * (n_q * n_r)
        for g_i, at in zip(g_is, self.gather(f, g_slots)):
            row, radix = self.row(g_i), sizes[g_i.source]
            x_gis.append(list(at) * n_p)
            code = [c * radix + row[k] for c, k in zip(code, at)]
        n_s = self.shape(fg)[2]
        x_fg = [at + c for at in range(0, n_p * n_s, n_s) for c in code]
        return x_f, x_g, x_gis, x_fg


def _rows_on(memo: dict | None, o: Operad, family=all_maps) -> OperadRows:
    """The form of o for the maps ``family`` yields: one per operad and
    family while ``memo`` lives, with the operad held, so that each group
    of squares is proved once; a new form without a memo."""
    return _memoized(memo, ("rows", id(o), family), o, lambda: OperadRows(o))


def check_operad_axioms(o: Operad, *, memo: dict | None = None) -> CheckReport:
    """Exhaustive unit and associativity check over the truncation.

    Instances whose inner element slots are empty (an empty fiber with
    O(0) empty) do not exist and are skipped, mirroring the restriction
    of composition to surjective maps when there are no nullary
    operations.  On a ``memo``, the rows and the verdicts of the square
    groups are shared with the structures over o (:func:`_rows_on`).
    """
    report = CheckReport()
    n_arities = o.max_arity + 1
    if len(o.carriers) != n_arities:
        report.structural("operad.carriers", "carrier list does not match truncation")
        return report
    if n_arities < 2 or o.unit not in o.carriers[1]:
        report.structural("operad.unit", f"unit {o.unit!r} not in arity-1 carrier")
        return report

    def guarded(f, p, qs, context):
        try:
            result = o.compose(f, p, qs)
        except CompositionUndefined as exc:
            report.structural("operad.composition", f"{context}: {exc}")
            return None
        if result not in o.carriers[f.source]:
            report.structural(
                "operad.closure",
                f"{context}: mu {f.label()} {p} {' '.join(qs)} = {result!r} not in carrier",
            )
            return None
        return result

    # unit laws
    for n in range(n_arities):
        for p in o.elements(n):
            report.count("operad.unit_identity_instances")
            got = guarded(identity_map(n), p, (o.unit,) * n, "unit law")
            if got is not None and got != p:
                report.violation(
                    "operad.unit_identity",
                    f"mu {identity_map(n).label()} {p} eta^%d = {got} != {p}" % n,
                )
            report.count("operad.unit_terminal_instances")
            got = guarded(terminal_map(n), o.unit, (p,), "unit law")
            if got is not None and got != p:
                report.violation(
                    "operad.unit_terminal",
                    f"mu {terminal_map(n).label()} eta {p} = {got} != {p}",
                )

    # associativity: one verdict per group of squares, from the rows or by
    # the singleton lemma; in a group that fails, a square whose rows fail
    # runs the loop, which names each failure
    maps = {(a, b): tuple(all_maps(a, b)) for a in range(n_arities) for b in range(n_arities)}
    rows = _rows_on(memo, o)
    instances = 0
    for f, ps, f_inner, ell, total, pairs in rows.sweep(maps):
        if total is not None:
            instances += total
            continue
        n, f_fibers = f.target, f.fibers
        for g, fg, g_is, g_inner, held in pairs:
            if held is not None:
                instances += held
                continue
            for p in ps:
                for qs in itertools.product(*f_inner):
                    for rs in itertools.product(*g_inner):
                        instances += 1
                        mid = guarded(f, p, qs, "associativity")
                        if mid is None:
                            continue
                        lhs = guarded(g, mid, rs, "associativity")
                        nested = []
                        for i in range(n):
                            sub = tuple(rs[j - 1] for j in f_fibers[i])
                            nested.append(guarded(g_is[i], qs[i], sub, "associativity"))
                        if lhs is None or any(x is None for x in nested):
                            continue
                        rhs = guarded(fg, p, tuple(nested), "associativity")
                        if rhs is None:
                            continue
                        if lhs != rhs:
                            report.violation(
                                "operad.assoc",
                                "associativity fails at g="
                                f"{g.label()} f={f.label()} p={p} "
                                f"q=({','.join(qs)}) r=({','.join(rs)})",
                            )
    if instances:
        report.count("operad.assoc_instances", instances)
    return report


# --------------------------------------------------------------------------
# operad morphisms


@dataclass
class OperadMorphism:
    dom: Operad
    cod: Operad
    maps: tuple[dict, ...]
    name: str = ""

    def apply(self, n: int, p: str) -> str:
        return self.maps[n][p]


def identity_operad_morphism(o: Operad) -> OperadMorphism:
    return OperadMorphism(
        dom=o,
        cod=o,
        maps=tuple({p: p for p in o.elements(n)} for n in range(o.max_arity + 1)),
        name=f"id_{o.name}",
    )


def terminal_morphism(o: Operad) -> OperadMorphism:
    """The unique morphism into the terminal operad."""
    comm = build_comm(o.max_arity)
    return OperadMorphism(
        dom=o,
        cod=comm,
        maps=tuple({p: "*" for p in o.elements(n)} for n in range(o.max_arity + 1)),
        name=f"{o.name}->Comm",
    )


def check_operad_morphism(h: OperadMorphism) -> CheckReport:
    report = CheckReport()
    o, p_op = h.dom, h.cod
    if o.max_arity != p_op.max_arity:
        report.structural("opmorphism.truncation", "arity mismatch between dom and cod")
        return report
    for n in range(o.max_arity + 1):
        for x in o.elements(n):
            y = h.maps[n].get(x)
            if y is None:
                report.structural("opmorphism.total", f"no image for {x!r} at arity {n}")
            elif y not in p_op.elements(n):
                report.structural(
                    "opmorphism.range", f"image {y!r} of {x!r} not in arity-{n} carrier"
                )
    if report.records:
        return report
    if h.maps[1][o.unit] != p_op.unit:
        report.violation("opmorphism.unit", f"unit maps to {h.maps[1][o.unit]!r}")
    for f, p, qs in composition_keys(o):
        report.count("opmorphism.instances")
        lhs = h.maps[f.source][o.compose(f, p, qs)]
        rhs = p_op.compose(
            f,
            h.maps[f.target][p],
            tuple(h.maps[len(fiber(f, i))][q] for i, q in enumerate(qs, start=1)),
        )
        if lhs != rhs:
            report.violation(
                "opmorphism.composition",
                f"not preserved at mu {f.label()} {p} ({','.join(qs)})",
            )
    return report
