"""The unified declarative text format.

Line-oriented: ``[kind name]`` section headers, ``key = value`` entries,
arrow declarations ``f : a -> b``, comments from ``#`` to end of line,
LF or CRLF.  Parsing is total: every error becomes a diagnostic with a
1-based line and column, and an error in one section does not stop
collection in the others.

Tokens are words, ``->``, ``=``, ``,`` and ``:``, with optional
whitespace between them.  A word runs up to whitespace, one of ``=,:``, or a ``-`` that
starts ``->``, and may hold bracket groups.  A group opens at ``(`` or
``[`` and closes at the ``)`` or ``]`` that brings the depth back to 0,
whatever its kind (so ``(a]`` is one token), and takes in every
character between, so tuple and map literals may appear anywhere a label
does.  A closing bracket outside any group, or a group that never
closes, is a diagnostic that drops its line.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .fincore import FinMap, _mixed_encode, make_category
from .fib2cat import (
    DiscreteFibration,
    FinFunction,
    IndexedSet,
    iset_from_tables,
)
from .fincore import CatFunctor, NatTransform
from .omon import (
    LaxOMonFunctor,
    LaxSetFunctor,
    OMonCategory,
    OMonTransformation,
    TensorTable,
    o_set_product,
)
from .ogroth import OFibObject
from .operads import (
    Operad,
    Semiring,
    build_assoc,
    build_comm,
    build_qconv,
    check_semiring,
    composition_keys,
)

SECTION_KINDS = (
    "category",
    "functor",
    "nattrans",
    "fibration",
    "iset",
    "operad",
    "semiring",
    "omon",
    "laxfun",
    "omontrans",
    "ofib",
    "laxtoset",
)


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str
    section: str = ""

    def render(self) -> str:
        where = f" in [{self.section}]" if self.section else ""
        return f"{self.line}:{self.col}: {self.message}{where}"


@dataclass
class RawLine:
    line: int
    text: str  # the line up to its comment
    tokens: list  # token texts
    eq: int  # index of the first "=" token, or 0: a key = value line has eq > 0

    def col(self, k: int) -> int:
        """The 1-based column of token k, worked out for a diagnostic:
        tokens are the line's text in order, parted by whitespace only."""
        at = 0
        for t in self.tokens[:k]:
            at = self.text.index(t, at) + len(t)
        return self.text.index(self.tokens[k], at) + 1


@dataclass
class RawSection:
    kind: str
    name: str
    line: int
    entries: list = field(default_factory=list)


@dataclass
class Section:
    kind: str
    name: str
    value: object = None


@dataclass
class SpecDocument:
    sections: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def get(self, name: str):
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(f"no section named {name!r}")

    def by_kind(self, kind: str):
        return [s for s in self.sections if s.kind == kind]


# --------------------------------------------------------------------------
# tokenizer


# One token of the grammar in the module doc, after optional whitespace.
# The pattern takes bracket groups with no group inside; its last, empty
# alternative matches at a bracket it cannot take, a bare one or one
# opening a nested group, and sends the line to _bracket_scan.
_GROUP = r"[(\[][^()\[\]]*[)\]]"
_TOKEN = re.compile(rf"\s*([=,:]|(?:[^\s=,:()\[\]-]+|-(?!>)|{_GROUP})+|->|(?=[()\[\]]))")


def _tokenize_line(code: str, lineno: int, diagnostics: list, section: str):
    """The token texts of ``code``, a line up to its comment, or None
    after a bracket diagnostic."""
    tokens = _TOKEN.findall(code)
    return _bracket_scan(code, lineno, diagnostics, section) if "" in tokens else tokens


def _bracket_scan(code: str, lineno: int, diagnostics: list, section: str):
    """The tokens of a line holding a bracket the pattern cannot take:
    diagnose the first closing bracket outside any group, or a group that
    never closes; else tokenize the line with each group's inside masked."""
    depth = opened = 0
    masked = list(code)
    for i, ch in enumerate(code):
        if ch in "([":
            if not depth:
                opened = i
            depth += 1
        elif ch in ")]":
            if not depth:
                diagnostics.append(Diagnostic(lineno, i + 1, "unmatched closing bracket", section))
                return None
            depth -= 1
            if not depth:
                masked[opened + 1 : i] = "_" * (i - opened - 1)
    if depth:
        diagnostics.append(Diagnostic(lineno, opened + 1, "unbalanced bracket group", section))
        return None
    return [code[m.start(1) : m.end(1)] for m in _TOKEN.finditer("".join(masked))]


def _parse_tuple(text: str):
    """Split a parenthesized literal at top-level commas."""
    inner = text[1:-1]
    parts = []
    depth = 0
    buf = []
    for ch in inner:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail or parts:
        parts.append(tail)
    return tuple(parts)


def _parse_finmap_literal(text: str, target: int) -> FinMap:
    inner = text[1:-1].strip()
    values = tuple(int(t.strip()) for t in inner.split(",")) if inner else ()
    return FinMap(len(values), target, values)


# --------------------------------------------------------------------------
# raw parse


def _parse_raw(text: str, diagnostics: list):
    sections: list[RawSection] = []
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        code = line.partition("#")[0]
        stripped = code.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                diagnostics.append(
                    Diagnostic(lineno, 1, "malformed section header", "")
                )
                current = None
                continue
            parts = stripped[1:-1].split()
            if len(parts) != 2:
                diagnostics.append(
                    Diagnostic(lineno, 1, "section header needs a kind and a name", "")
                )
                current = None
                continue
            kind, name = parts
            if kind not in SECTION_KINDS:
                diagnostics.append(
                    Diagnostic(lineno, 2, f"unknown section kind {kind!r}", name)
                )
                current = None
                continue
            current = RawSection(kind=kind, name=name, line=lineno)
            sections.append(current)
            continue
        if current is None:
            diagnostics.append(
                Diagnostic(lineno, 1, "content before any section header", "")
            )
            continue
        tokens = _tokenize_line(code, lineno, diagnostics, current.name)
        if tokens:
            eq = tokens.index("=") if "=" in tokens else 0
            current.entries.append(RawLine(lineno, code, tokens, eq))
    names = {}
    for s in sections:
        if s.name in names:
            diagnostics.append(
                Diagnostic(s.line, 1, f"duplicate section name {s.name!r}", s.name)
            )
        names[s.name] = s
    return sections


# --------------------------------------------------------------------------
# resolution


class _Resolver:
    def __init__(self, raw_sections, diagnostics, default_max_arity: int = 3):
        self.raw = {s.name: s for s in raw_sections}
        self.order = [s.name for s in raw_sections]
        self.default_max_arity = default_max_arity
        self.diagnostics = diagnostics
        self.values: dict[str, object] = {}
        self.failed: set[str] = set()
        self.in_progress: set[str] = set()

    def diag(self, raw: RawSection, line, col, message):
        self.diagnostics.append(Diagnostic(line, col, message, raw.name))

    def resolve_all(self) -> list:
        out = []
        for name in self.order:
            value = self.resolve(name)
            out.append(Section(kind=self.raw[name].kind, name=name, value=value))
        return out

    def resolve(self, name: str):
        if name in self.values:
            return self.values[name]
        if name in self.failed:
            return None
        if name not in self.raw:
            return None
        if name in self.in_progress:
            raw = self.raw[name]
            self.diag(raw, raw.line, 1, f"circular reference through {name!r}")
            self.failed.add(name)
            return None
        self.in_progress.add(name)
        raw = self.raw[name]
        try:
            value = getattr(self, f"_build_{raw.kind}")(raw)
        except Exception as exc:  # noqa: BLE001 - surface as diagnostic
            self.diag(raw, raw.line, 1, f"internal error: {exc}")
            value = None
        self.in_progress.discard(name)
        if value is None:
            self.failed.add(name)
        else:
            self.values[name] = value
        return value

    def ref(self, raw, entry, name, kinds):
        """Resolve ``name``, the single value of ``entry``, as a section of
        one of ``kinds``."""
        if name not in self.raw:
            self.diag(raw, entry.line, entry.col(entry.eq + 1), f"unresolved reference {name!r}")
            return None
        if self.raw[name].kind not in kinds:
            self.diag(
                raw, entry.line, entry.col(entry.eq + 1),
                f"{name!r} is a {self.raw[name].kind}, expected one of {kinds}",
            )
            return None
        return self.resolve(name)

    # -- helpers -------------------------------------------------------------

    def _entries(self, raw, fields, keys=None, needs=None):
        """Read the ``key = value`` lines of ``raw`` in order.

        ``fields`` maps a one-word key to a section kind (the value is a
        reference, resolved on the spot), to ``list`` (a comma list) or
        to what its single token is.  ``keys`` maps a head word to
        ``(word count, handler)``: a key with that head word and that
        many words (any number for None) goes to the handler as its
        :class:`RawLine`, and a handler returns False to give the section
        up.  Any other line is diagnosed and ends the section.  Returns
        the fields read, or None after a diagnostic, which is the
        ``needs`` message when that is given and a field is missing.
        """
        got = {}
        for entry in raw.entries:
            eq, tokens = entry.eq, entry.tokens
            if not eq:  # no '=', or nothing before it
                self.diag(raw, entry.line, entry.col(0), "unrecognized line")
                return None
            head = tokens[0]
            what = fields.get(head) if eq == 1 else None
            if what is None:
                size, handle = keys.get(head, (0, None)) if keys else (0, None)
                if handle is None or size not in (None, eq):
                    self.diag(raw, entry.line, entry.col(0), f"unknown key {' '.join(tokens[:eq])!r}")
                    return None
                if handle(entry) is False:
                    return None
            elif what is list:
                got[head] = self._list_values(raw, entry)
                if got[head] is None:
                    return None
            elif what in SECTION_KINDS:
                name = self._single(raw, entry, f"{what} name")
                got[head] = self.ref(raw, entry, name, (what,)) if name else None
            else:
                got[head] = self._single(raw, entry, what)
        if needs is not None and any(got.get(k) is None for k in fields):
            self.diag(raw, raw.line, 1, needs)
            return None
        return got

    def _cell(self, raw, table, what):
        """A handler storing a line's value, a single ``what`` token or a
        comma list when ``what`` is ``list``, in ``table`` at the key's
        words after the first (one word, or a tuple of several)."""

        def handle(entry):
            tokens, eq = entry.tokens, entry.eq
            at = tokens[1] if eq == 2 else tuple(tokens[1:eq])
            if what is list:
                values = self._list_values(raw, entry)
                if values is None:
                    return False
                table[at] = values
            else:
                value = self._single(raw, entry, what)
                if value:
                    table[at] = value

        return handle

    def _single(self, raw, entry, what):
        """The one value token of a ``key = value`` line, or None after a
        diagnostic."""
        tokens, eq = entry.tokens, entry.eq
        if len(tokens) != eq + 2:
            col = entry.col(eq + 1) if len(tokens) > eq + 1 else 1
            self.diag(raw, entry.line, col, f"expected a single {what}")
            return None
        return tokens[eq + 1]

    def _list_values(self, raw, entry):
        """The items of a line's comma list value, empty items dropped, or
        None after a diagnostic at the first item holding more than one
        token."""
        value = entry.tokens[entry.eq + 1 :]
        items = value[::2]
        if "," in items or value[1::2].count(",") != len(value) // 2:
            for i in range(1, len(value)):
                if value[i] != "," != value[i - 1]:
                    self.diag(raw, entry.line, entry.col(entry.eq + 1 + i), f"expected a comma before {value[i]!r}")
                    return None
            items = [t for t in value if t != ","]
        return items

    def _natural(self, raw, entry, k, least):
        """The integer token k of ``entry`` names, or None after a
        diagnostic when it names none or one below ``least``."""
        text = entry.tokens[k]
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < least:
            self.diag(raw, entry.line, entry.col(k), f"expected an integer of at least {least}, got {text!r}")
            return None
        return n

    # -- categories ------------------------------------------------------------

    def _build_category(self, raw):
        objects = None
        arrows = []
        compose = {}
        ok = listed = True
        for entry in raw.entries:
            eq, texts = entry.eq, entry.tokens
            if not eq:
                if ":" in texts and "->" in texts:
                    ci, ai = texts.index(":"), texts.index("->")
                    if ci == 1 and ai == 3 and len(texts) == 5:
                        arrows.append((entry, texts[0], texts[2], texts[4]))
                        continue
                self.diag(raw, entry.line, entry.col(0), "unrecognized line")
                ok = False
                continue
            if eq == 1 and texts[0] == "objects":
                objects = []
                labels = self._list_values(raw, entry)
                if labels is None:
                    ok = listed = False
                    continue
                for k, label in enumerate(labels):
                    if label in objects:
                        at = [i for i in range(eq + 1, len(texts)) if texts[i] != ","][k]
                        self.diag(raw, entry.line, entry.col(at), f"duplicate object label {label!r}")
                        ok = False
                    else:
                        objects.append(label)
            elif eq == 3 and texts[0] == "compose":
                target = self._single(raw, entry, "morphism")
                if target is None:
                    ok = False
                    continue
                compose[(texts[1], texts[2])] = target
            else:
                self.diag(raw, entry.line, entry.col(0), f"unknown key {' '.join(texts[:eq])!r}")
                ok = False
        if objects is None:
            self.diag(raw, raw.line, 1, "category needs an 'objects' line")
            return None
        if not listed:
            return None  # the arrow and composition lines name objects the list does not give
        label_pool = set(objects) | {f"id_{a}" for a in objects}
        for entry, label, s, t in arrows:
            if label in label_pool:
                self.diag(raw, entry.line, entry.col(0),
                          f"arrow label {label!r} collides with another label")
                return None
            label_pool.add(label)
            if s not in objects or t not in objects:
                col = entry.col(2 if s not in objects else 4)
                self.diag(raw, entry.line, col, f"arrow {label!r} references unknown objects")
                return None
        try:
            cat = make_category(raw.name, objects, [a[1:] for a in arrows], compose)
        except KeyError as exc:
            self.diag(raw, raw.line, 1, f"bad composition entry: {exc}")
            return None
        return cat if ok else None

    def _build_functor(self, raw):
        obj_map, mor_map = {}, {}
        got = self._entries(
            raw, {"dom": "category", "cod": "category"},
            {"obj": (2, self._cell(raw, obj_map, "object")),
             "mor": (2, self._cell(raw, mor_map, "morphism"))},
            "functor needs dom and cod",
        )
        if got is None:
            return None
        from .fincore import functor_from_labels

        try:
            return functor_from_labels(got["dom"], got["cod"], obj_map, mor_map, name=raw.name)
        except KeyError as exc:
            self.diag(raw, raw.line, 1, str(exc))
            return None

    def _build_nattrans(self, raw):
        at = {}
        got = self._entries(
            raw, {"dom": "functor", "cod": "functor"}, {"at": (2, self._cell(raw, at, "morphism"))},
            "nattrans needs dom and cod",
        )
        if got is None:
            return None
        dom, cod = got["dom"], got["cod"]
        try:
            components = tuple(dom.cod.mor_index(at[obj]) for obj in dom.dom.objects)
        except KeyError as exc:
            self.diag(raw, raw.line, 1, f"bad component: {exc}")
            return None
        return NatTransform(dom, cod, components, name=raw.name)

    def _build_fibration(self, raw):
        got = self._entries(raw, {"proj": "functor"}, needs="fibration needs a proj functor")
        return None if got is None else DiscreteFibration(got["proj"], name=raw.name)

    def _build_iset(self, raw):
        sets, cells, maps = {}, {}, {}
        got = self._entries(
            raw, {"index": "category"},
            {"set": (2, self._cell(raw, sets, list)), "map": (3, self._cell(raw, cells, "element"))},
            "indexed set needs an index category",
        )
        if got is None:
            return None
        for (m, x), y in cells.items():
            maps.setdefault(m, {})[x] = y
        for obj in got["index"].objects:
            sets.setdefault(obj, [])
        try:
            return iset_from_tables(got["index"], sets, maps, name=raw.name)
        except (KeyError, ValueError) as exc:
            self.diag(raw, raw.line, 1, str(exc))
            return None

    def _build_semiring(self, raw):
        add, mul = {}, {}
        got = self._entries(
            raw, {"elements": list, "zero": "element", "one": "element"},
            {"add": (3, self._cell(raw, add, "element")),
             "mul": (3, self._cell(raw, mul, "element"))},
            "semiring needs elements, zero, and one",
        )
        if got is None:
            return None
        return Semiring(name=raw.name, elements=tuple(got["elements"]), add=add, mul=mul,
                        zero=got["zero"], one=got["one"])

    def _build_operad(self, raw):
        arities, mu_lines, max_arity = {}, [], None

        def truncation(entry):
            nonlocal max_arity
            if self._single(raw, entry, "integer"):
                max_arity = self._natural(raw, entry, entry.eq + 1, 1)
                return max_arity is not None

        def arity(entry):
            n = self._natural(raw, entry, 1, 0)
            if n is None:
                return False
            arities[n] = self._list_values(raw, entry)
            if arities[n] is None:
                return False

        got = self._entries(
            raw, {"builtin": "builtin name", "semiring": "semiring", "unit": "element"},
            {"max_arity": (1, truncation), "arity": (2, arity), "mu": (None, mu_lines.append)},
        )
        if got is None:
            return None
        builtin, semiring, unit = got.get("builtin"), got.get("semiring"), got.get("unit")
        if builtin is not None:
            n = max_arity if max_arity is not None else self.default_max_arity
            build = {"comm": build_comm, "assoc": build_assoc, "qconv": build_qconv}.get(builtin)
            if n < 1:
                problem = f"builtin operad needs a truncation of at least 1, got {n}"
            elif build is None:
                problem = f"unknown builtin {builtin!r}"
            elif builtin == "qconv" and semiring is None:
                problem = "qconv needs a semiring reference"
            elif builtin == "qconv" and check_semiring(semiring).has_structural:
                problem = f"qconv needs total semiring tables; {semiring.name!r} has structural errors"
            else:
                op = build(semiring, n) if builtin == "qconv" else build(n)
                op.name = raw.name
                return op
            self.diag(raw, raw.line, 1, problem)
            return None
        if not arities or unit is None:
            self.diag(raw, raw.line, 1, "explicit operad needs arity lines and a unit")
            return None
        top = max(arities)
        carriers = tuple(tuple(arities.get(k, ())) for k in range(top + 1))
        table = {}
        for entry in mu_lines:
            # mu [values] p q1 ... qn = r
            key = entry.tokens[: entry.eq]
            if len(key) < 3 or not key[1].startswith("["):
                self.diag(raw, entry.line, entry.col(0), "malformed mu entry")
                return None
            p = key[2]
            qs = tuple(key[3:])
            try:
                f = _parse_finmap_literal(key[1], len(qs))
            except ValueError as exc:
                self.diag(raw, entry.line, entry.col(1), str(exc))
                return None
            r = self._single(raw, entry, "element")
            if r is None:
                return None
            table[(f.target, f.values, p, qs)] = r
        return Operad(name=raw.name, max_arity=top, carriers=carriers, unit=unit, table=table)

    # -- structured sections ---------------------------------------------------

    def _lookup_tuple(self, raw, entry, cat, literal):
        labels = _parse_tuple(literal)
        for kind, index in (("obj", cat.obj_index), ("mor", cat.mor_index)):
            try:
                return tuple(index(x) for x in labels), kind
            except KeyError:
                pass
        self.diag(raw, entry.line, entry.col(0),
                  f"tuple {literal} is neither all objects nor all morphisms")
        return None, None

    def _build_omon(self, raw):
        tensor_lines, phi_lines = [], []
        got = self._entries(
            raw, {"operad": "operad", "base": "category"},
            {"tensor": (None, tensor_lines.append), "phi": (None, phi_lines.append)},
            "structured category needs operad and base",
        )
        if got is None:
            return None
        operad, base = got["operad"], got["base"]
        tensors: dict = {}
        ok = True
        for entry in tensor_lines:
            key = entry.tokens[: entry.eq]
            if len(key) != 3 or not key[2].startswith("("):
                self.diag(raw, entry.line, entry.col(0), "malformed tensor entry")
                ok = False
                continue
            p = key[1]
            combo, kind = self._lookup_tuple(raw, entry, base, key[2])
            if combo is None:
                ok = False
                continue
            n = len(combo)
            label = self._single(raw, entry, "label")
            if label is None:
                ok = False
                continue
            table = tensors.setdefault((n, p), TensorTable(obj={}, mor={}))
            try:
                if kind == "obj":
                    table.obj[combo] = base.obj_index(label)
                else:
                    table.mor[combo] = base.mor_index(label)
            except KeyError as exc:
                self.diag(raw, entry.line, entry.col(entry.eq + 1), str(exc))
                ok = False
        # identity-tuple morphism entries are forced by functoriality
        for (n, p), table in tensors.items():
            for combo, target in table.obj.items():
                ids = tuple(base.id_of(a) for a in combo)
                table.mor.setdefault(ids, base.id_of(target))
        phi = {}
        for entry in phi_lines:
            # phi [values] p q1 ... qn (A1,...,Am) = mor
            key = entry.tokens[: entry.eq]
            if len(key) < 4 or not key[1].startswith("[") or not key[-1].startswith("("):
                self.diag(raw, entry.line, entry.col(0), "malformed phi entry")
                ok = False
                continue
            p = key[2]
            qs = tuple(key[3:-1])
            try:
                f = _parse_finmap_literal(key[1], len(qs))
            except ValueError as exc:
                self.diag(raw, entry.line, entry.col(1), str(exc))
                ok = False
                continue
            labels = _parse_tuple(key[-1])
            mor = self._single(raw, entry, "morphism")
            if mor is None:
                ok = False
                continue
            try:
                objs = tuple(base.obj_index(x) for x in labels)
                phi[(f, p, qs, objs)] = base.mor_index(mor)
            except KeyError as exc:
                self.diag(raw, entry.line, entry.col(0), str(exc))
                ok = False
        if not ok:
            return None
        return OMonCategory(operad=operad, base=base, tensors=tensors, phi=phi, name=raw.name)

    def _build_laxfun(self, raw):
        xi_lines = []
        got = self._entries(
            raw, {"dom": "omon", "cod": "omon", "functor": "functor"}, {"xi": (None, xi_lines.append)},
            "lax functor needs dom, cod, and functor",
        )
        if got is None:
            return None
        dom, cod = got["dom"], got["cod"]
        xi = {}
        for entry in xi_lines:
            key = entry.tokens[: entry.eq]
            if len(key) != 3 or not key[2].startswith("("):
                self.diag(raw, entry.line, entry.col(0), "malformed xi entry")
                return None
            p = key[1]
            labels = _parse_tuple(key[2])
            mor = self._single(raw, entry, "morphism")
            if mor is None:
                return None
            try:
                objs = tuple(dom.base.obj_index(x) for x in labels)
                xi[(len(objs), p, objs)] = cod.base.mor_index(mor)
            except KeyError as exc:
                self.diag(raw, entry.line, entry.col(0), str(exc))
                return None
        return LaxOMonFunctor(dom=dom, cod=cod, functor=got["functor"], xi=xi, name=raw.name)

    def _build_omontrans(self, raw):
        at = {}
        got = self._entries(
            raw, {"dom": "laxfun", "cod": "laxfun"}, {"at": (2, self._cell(raw, at, "morphism"))},
            "transformation needs dom and cod",
        )
        if got is None:
            return None
        dom, cod = got["dom"], got["cod"]
        try:
            components = tuple(cod.cod.base.mor_index(at[obj]) for obj in dom.dom.base.objects)
        except KeyError as exc:
            self.diag(raw, raw.line, 1, f"bad component: {exc}")
            return None
        t = NatTransform(dom.functor, cod.functor, components, name=raw.name)
        return OMonTransformation(dom=dom, cod=cod, t=t, name=raw.name)

    def _build_ofib(self, raw):
        got = self._entries(
            raw, {"total": "omon", "base": "omon", "proj": "functor"},
            needs="structured fibration needs total, base, proj",
        )
        if got is None:
            return None
        fib = DiscreteFibration(got["proj"], name=raw.name)
        return OFibObject(fib=fib, total_omon=got["total"], base_omon=got["base"], name=raw.name)

    def _build_laxtoset(self, raw):
        nu_lines = []
        got = self._entries(
            raw, {"omon": "omon", "iset": "iset"}, {"nu": (None, nu_lines.append)},
            "laxtoset needs omon and iset",
        )
        if got is None:
            return None
        omon, iset = got["omon"], got["iset"]
        if iset.index != omon.base:
            self.diag(raw, raw.line, 1, "iset is not indexed by the structured base")
            return None
        groups: dict = {}
        ok = True
        for entry in nu_lines:
            # nu p (i1,...,in) (x1,...,xn) = y
            key = entry.tokens[: entry.eq]
            if len(key) != 4 or not key[2].startswith("(") or not key[3].startswith("("):
                self.diag(raw, entry.line, entry.col(0), "malformed nu entry")
                ok = False
                continue
            p = key[1]
            i_labels = _parse_tuple(key[2])
            x_labels = _parse_tuple(key[3])
            y = self._single(raw, entry, "element")
            if y is None:
                ok = False
                continue
            try:
                i_vec = tuple(omon.base.obj_index(x) for x in i_labels)
            except KeyError as exc:
                self.diag(raw, entry.line, entry.col(0), str(exc))
                ok = False
                continue
            groups.setdefault((len(i_vec), p, i_vec), {})[x_labels] = (y, entry)
        nu = {}
        for (n, p, i_vec), table in groups.items():
            src = o_set_product(iset.values[a] for a in i_vec)
            try:
                tgt = iset.values[omon.tensor_obj(n, p, i_vec)]
            except KeyError:
                self.diag(raw, raw.line, 1, f"nu entry references a missing tensor at arity {n}")
                ok = False
                continue
            sizes = [iset.values[a].size for a in i_vec]
            mapping = [None] * src.size
            for x_labels, (y, entry) in table.items():
                try:
                    xs = tuple(
                        iset.values[a].index(x) for a, x in zip(i_vec, x_labels)
                    )
                    if len(x_labels) != n:
                        raise KeyError("tuple arity mismatch")
                    mapping[_mixed_encode(xs, sizes)] = tgt.index(y)
                except KeyError as exc:
                    self.diag(raw, entry.line, entry.col(0), str(exc))
                    ok = False
            if any(v is None for v in mapping):
                self.diag(raw, raw.line, 1,
                          f"incomplete nu table for p={p} at ({','.join(omon.base.objects[a] for a in i_vec)})")
                ok = False
                continue
            nu[(n, p, i_vec)] = FinFunction(src, tgt, tuple(mapping))
        if not ok:
            return None
        return LaxSetFunctor(dom=omon, iset=iset, nu=nu, name=raw.name)


def parse_spec_file(text: str, default_max_arity: int = 3) -> SpecDocument:
    diagnostics: list[Diagnostic] = []
    raw_sections = _parse_raw(text, diagnostics)
    resolver = _Resolver(raw_sections, diagnostics, default_max_arity)
    sections = resolver.resolve_all()
    return SpecDocument(sections=sections, diagnostics=diagnostics)


# --------------------------------------------------------------------------
# serialization


def _sanitize(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_.-" else "_")
    text = "".join(out).strip("_")
    return text or "section"


class DocBuilder:
    """Collects sections with stable, unique names."""

    def __init__(self):
        self.chunks: list[str] = []
        self.names: dict[int, str] = {}
        self.used: set[str] = set()
        self._keep: list = []  # pin objects so ids stay unique

    def claim(self, obj, suggested: str) -> tuple[str, bool]:
        """The section name of ``obj``, and whether this is its first
        claim: the caller emits the section body exactly then."""
        key = id(obj)
        if key in self.names:
            return self.names[key], False
        self._keep.append(obj)
        base = _sanitize(suggested)
        name = base
        k = 2
        while name in self.used:
            name = f"{base}{k}"
            k += 1
        self.used.add(name)
        self.names[key] = name
        return name, True

    def add(self, kind: str, name: str, lines) -> None:
        body = "\n".join(lines)
        self.chunks.append(f"[{kind} {name}]\n{body}\n")

    def text(self) -> str:
        return "\n".join(self.chunks)


def ser_category(b: DocBuilder, cat, suggested: str = "") -> str:
    name, new = b.claim(cat, suggested or cat.name or "C")
    if not new:
        return name
    lines = [f"objects = {', '.join(cat.objects)}"]
    for m in range(cat.n_morphisms):
        if cat.identity[cat.mor_src[m]] == m:
            continue
        lines.append(
            f"{cat.mor_labels[m]} : {cat.objects[cat.mor_src[m]]} -> {cat.objects[cat.mor_tgt[m]]}"
        )
    for (g, f), h in sorted(cat.composition.items()):
        g_id = cat.identity[cat.mor_src[g]] == g
        f_id = cat.identity[cat.mor_src[f]] == f
        if g_id and h == f:
            continue
        if f_id and h == g:
            continue
        lines.append(
            f"compose {cat.mor_labels[g]} {cat.mor_labels[f]} = {cat.mor_labels[h]}"
        )
    b.add("category", name, lines)
    return name


def ser_functor(b: DocBuilder, F, suggested: str = "") -> str:
    name, new = b.claim(F, suggested or F.name or "F")
    if not new:
        return name
    dom_name = ser_category(b, F.dom)
    cod_name = ser_category(b, F.cod)
    lines = [f"dom = {dom_name}", f"cod = {cod_name}"]
    for a in range(F.dom.n_objects):
        lines.append(f"obj {F.dom.objects[a]} = {F.cod.objects[F.on_obj[a]]}")
    for m in range(F.dom.n_morphisms):
        if F.dom.identity[F.dom.mor_src[m]] == m:
            continue
        lines.append(f"mor {F.dom.mor_labels[m]} = {F.cod.mor_labels[F.on_mor[m]]}")
    b.add("functor", name, lines)
    return name


def ser_fibration(b: DocBuilder, p, suggested: str = "") -> str:
    name, new = b.claim(p, suggested or p.name or "fib")
    if not new:
        return name
    proj_name = ser_functor(b, p.proj, suggested=f"{name}_proj")
    b.add("fibration", name, [f"proj = {proj_name}"])
    return name


def ser_iset(b: DocBuilder, F, suggested: str = "") -> str:
    name, new = b.claim(F, suggested or F.name or "F")
    if not new:
        return name
    index_name = ser_category(b, F.index)
    lines = [f"index = {index_name}"]
    for a in range(F.index.n_objects):
        lines.append(f"set {F.index.objects[a]} = {', '.join(F.values[a].labels)}")
    for m in range(F.index.n_morphisms):
        if F.index.identity[F.index.mor_src[m]] == m:
            continue
        fn = F.actions[m]
        for x in fn.dom.labels:
            lines.append(f"map {F.index.mor_labels[m]} {x} = {fn(x)}")
    b.add("iset", name, lines)
    return name


def ser_semiring(b: DocBuilder, r, suggested: str = "") -> str:
    name, new = b.claim(r, suggested or r.name or "R")
    if not new:
        return name
    lines = [
        f"elements = {', '.join(r.elements)}",
        f"zero = {r.zero}",
        f"one = {r.one}",
    ]
    for (a, c), v in sorted(r.add.items()):
        lines.append(f"add {a} {c} = {v}")
    for (a, c), v in sorted(r.mul.items()):
        lines.append(f"mul {a} {c} = {v}")
    b.add("semiring", name, lines)
    return name


def ser_operad(b: DocBuilder, op, suggested: str = "") -> str:
    name, new = b.claim(op, suggested or op.name or "O")
    if not new:
        return name
    origin = op.origin
    if op.rule is not None and origin:
        tag = origin[0]
        lines = [f"builtin = {tag}", f"max_arity = {op.max_arity}"]
        if tag == "qconv":
            if len(origin) < 2:
                raise ValueError("cannot serialize a qconv operad without its semiring")
            lines.insert(1, f"semiring = {ser_semiring(b, origin[1])}")
        b.add("operad", name, lines)
        return name
    lines = []
    for n in range(op.max_arity + 1):
        lines.append(f"arity {n} = {', '.join(op.elements(n))}")
    lines.append(f"unit = {op.unit}")
    for f, p, qs in composition_keys(op):
        r = op.compose(f, p, qs)
        lines.append(f"mu {f.label()} {p} {' '.join(qs)} = {r}")
    b.add("operad", name, lines)
    return name


def ser_omon(b: DocBuilder, c, suggested: str = "") -> str:
    name, new = b.claim(c, suggested or c.name or "M")
    if not new:
        return name
    operad_name = ser_operad(b, c.operad)
    base_name = ser_category(b, c.base)
    base = c.base
    lines = [f"operad = {operad_name}", f"base = {base_name}"]
    for (n, p), table in sorted(c.tensors.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        for combo, target in sorted(table.obj.items()):
            labels = ",".join(base.objects[a] for a in combo)
            lines.append(f"tensor {p} ({labels}) = {base.objects[target]}")
        for combo, target in sorted(table.mor.items()):
            if all(base.identity[base.mor_src[m]] == m for m in combo):
                objs = tuple(base.mor_src[m] for m in combo)
                if objs in table.obj and target == base.id_of(table.obj[objs]):
                    continue  # forced by functoriality
            labels = ",".join(base.mor_labels[m] for m in combo)
            lines.append(f"tensor {p} ({labels}) = {base.mor_labels[target]}")
    for (f, p, qs, objs), value in sorted(
        c.phi.items(), key=lambda kv: (kv[0][0].values, kv[0][1], kv[0][2], kv[0][3])
    ):
        labels = ",".join(base.objects[a] for a in objs)
        lines.append(
            f"phi {f.label()} {p} {' '.join(qs)} ({labels}) = {base.mor_labels[value]}"
        )
    b.add("omon", name, lines)
    return name


def ser_laxfun(b: DocBuilder, L, suggested: str = "") -> str:
    name, new = b.claim(L, suggested or L.name or "L")
    if not new:
        return name
    dom_name = ser_omon(b, L.dom)
    cod_name = ser_omon(b, L.cod)
    functor_name = ser_functor(b, L.functor, suggested=f"{name}_fun")
    lines = [f"dom = {dom_name}", f"cod = {cod_name}", f"functor = {functor_name}"]
    for (n, p, objs), value in sorted(L.xi.items()):
        labels = ",".join(L.dom.base.objects[a] for a in objs)
        lines.append(f"xi {p} ({labels}) = {L.cod.base.mor_labels[value]}")
    b.add("laxfun", name, lines)
    return name


def ser_omontrans(b: DocBuilder, tr, suggested: str = "") -> str:
    name, new = b.claim(tr, suggested or tr.name or "T")
    if not new:
        return name
    dom_name = ser_laxfun(b, tr.dom)
    cod_name = ser_laxfun(b, tr.cod)
    lines = [f"dom = {dom_name}", f"cod = {cod_name}"]
    base = tr.dom.cod.base
    for a in range(tr.dom.dom.base.n_objects):
        lines.append(
            f"at {tr.dom.dom.base.objects[a]} = {base.mor_labels[tr.t.components[a]]}"
        )
    b.add("omontrans", name, lines)
    return name


def ser_ofib(b: DocBuilder, y, suggested: str = "") -> str:
    name, new = b.claim(y, suggested or y.name or "Y")
    if not new:
        return name
    total_name = ser_omon(b, y.total_omon)
    base_name = ser_omon(b, y.base_omon)
    proj_name = ser_functor(b, y.fib.proj, suggested=f"{name}_proj")
    b.add(
        "ofib", name,
        [f"total = {total_name}", f"base = {base_name}", f"proj = {proj_name}"],
    )
    return name


def ser_laxtoset(b: DocBuilder, x, suggested: str = "") -> str:
    name, new = b.claim(x, suggested or x.name or "X")
    if not new:
        return name
    omon_name = ser_omon(b, x.dom)
    iset_name = ser_iset(b, x.iset, suggested=f"{name}_iset")
    lines = [f"omon = {omon_name}", f"iset = {iset_name}"]
    base = x.dom.base
    for (n, p, i_vec), fn in sorted(x.nu.items()):
        i_labels = ",".join(base.objects[a] for a in i_vec)
        value_sets = [x.iset.values[a].labels for a in i_vec]
        for code, combo in enumerate(itertools.product(*value_sets)):
            lines.append(f"nu {p} ({i_labels}) ({','.join(combo)}) = {fn.cod.labels[fn.mapping[code]]}")
    b.add("laxtoset", name, lines)
    return name


_SERIALIZERS = {
    "category": ser_category,
    "functor": ser_functor,
    "fibration": ser_fibration,
    "iset": ser_iset,
    "semiring": ser_semiring,
    "operad": ser_operad,
    "omon": ser_omon,
    "laxfun": ser_laxfun,
    "omontrans": ser_omontrans,
    "ofib": ser_ofib,
    "laxtoset": ser_laxtoset,
}


def pretty_print(doc: SpecDocument) -> str:
    """Regenerate text; reparsing yields a table-equal document."""
    b = DocBuilder()
    for section in doc.sections:
        if section.value is None:
            continue
        _SERIALIZERS[section.kind](b, section.value, suggested=section.name)
    return b.text()
