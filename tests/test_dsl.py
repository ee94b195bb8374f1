import functools
import hashlib
import pathlib

import pytest

from fuzzing import nested_lines, random_lines, reference_tokenize_line, token_mutations
from opgroth import dsl
from opgroth.dsl import (
    DocBuilder,
    parse_spec_file,
    pretty_print,
    ser_category,
    ser_laxtoset,
    ser_omon,
)
from opgroth.fincore import FinMap, validate_category
from opgroth.fib2cat import validate_indexed_set
from testkit import documents_table_equal

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def read(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# --------------------------------------------------------------- parsing


def test_walk_fixture_parses_to_one_category():
    doc = parse_spec_file(read("walk.cat"))
    assert doc.ok
    assert [s.kind for s in doc.sections] == ["category"]
    cat = doc.sections[0].value
    assert cat.n_objects == 2
    assert sum(1 for m in range(cat.n_morphisms) if not cat.is_identity_mor(m)) == 1


def test_broken_unit_fixture_parses_then_fails_semantically():
    doc = parse_spec_file(read("broken_unit.cat"))
    assert doc.ok
    report = validate_category(doc.sections[0].value)
    assert not report.ok
    assert not report.has_structural
    assert any("(u, id_a)" in r.witness for r in report.records)


def test_broken_syntax_fixture_collects_diagnostics():
    doc = parse_spec_file(read("broken_syntax.cat"))
    assert not doc.ok
    assert all(d.line >= 1 and d.col >= 1 for d in doc.diagnostics)


def test_errors_do_not_abort_other_sections():
    text = """
[category GOOD]
objects = a

[functor BADREF]
dom = GOOD
cod = MISSING

[category ALSOGOOD]
objects = b
"""
    doc = parse_spec_file(text)
    assert not doc.ok
    assert doc.get("GOOD").value is not None
    assert doc.get("ALSOGOOD").value is not None
    assert doc.get("BADREF").value is None
    assert any("MISSING" in d.message for d in doc.diagnostics)


def test_mu_line_recovers_finmap():
    text = """
[operad C]
arity 0 = e
arity 1 = e
arity 2 = e
arity 3 = e
unit = e
mu [2,1,1] e e e = e
"""
    doc = parse_spec_file(text)
    assert doc.ok
    op = doc.get("C").value
    key = (2, (2, 1, 1), "e", ("e", "e"))
    assert op.table[key] == "e"
    assert op.compose(FinMap(3, 2, (2, 1, 1)), "e", ("e", "e")) == "e"


def test_duplicate_names_are_diagnosed():
    text = """
[category A]
objects = x

[category A]
objects = y
"""
    doc = parse_spec_file(text)
    assert not doc.ok


def test_unknown_section_kind_is_diagnosed():
    doc = parse_spec_file("[widget W]\nobjects = a\n")
    assert not doc.ok
    assert any("unknown section kind" in d.message for d in doc.diagnostics)


def test_crlf_is_accepted():
    text = "[category C]\r\nobjects = a, b\r\nu : a -> b\r\n"
    doc = parse_spec_file(text)
    assert doc.ok
    assert doc.get("C").value.n_objects == 2


def test_nested_tuple_labels_tokenize():
    # a group closes at the bracket that brings the depth back to 0,
    # whatever its kind, and an arrow line needs no spaces
    text = """
[category P]
objects = (a,b), (a,c), (a], ((((a,b),c),d),e)
m : (a,b) -> (a,c)
u:(a]->((((a,b),c),d),e)
"""
    doc = parse_spec_file(text)
    assert doc.ok
    cat = doc.get("P").value
    assert cat.objects == ("(a,b)", "(a,c)", "(a]", "((((a,b),c),d),e)")
    u = cat.mor_index("u")
    assert (cat.objects[cat.mor_src[u]], cat.objects[cat.mor_tgt[u]]) == ("(a]", "((((a,b),c),d),e)")


def test_iset_section_builds_actions():
    text = """
[category L]
objects = 0, 1
le : 0 -> 1

[iset F]
index = L
set 0 = x1, x2
set 1 = y
map le x1 = y
map le x2 = y
"""
    doc = parse_spec_file(text)
    assert doc.ok
    F = doc.get("F").value
    assert validate_indexed_set(F).ok
    assert F.actions[F.index.mor_index("le")]("x1") == "y"


def test_incomplete_nu_table_is_diagnosed():
    base = read("grade.laxtoset")
    lines = [l for l in base.splitlines() if l != "nu [1,2] (0,0) (q,q) = q"]
    doc = parse_spec_file("\n".join(lines))
    assert not doc.ok
    assert any("incomplete nu table" in d.message for d in doc.diagnostics)


LOCATED = [
    ("operad_empty_key", "[operad O]\n= comm\n", 3, "2:1: unrecognized line in [O]"),
    ("laxtoset_empty_key", "[laxtoset X]\n= L2\n", 3, "2:1: unrecognized line in [X]"),
    ("arity_not_integer", "[operad O]\narity x = e\nunit = e\n", 3,
     "2:7: expected an integer of at least 0, got 'x' in [O]"),
    ("arity_negative", "[operad O]\narity -1 = e\nunit = e\n", 3,
     "2:7: expected an integer of at least 0, got '-1' in [O]"),
    ("max_arity_not_integer", "[operad O]\nbuiltin = comm\nmax_arity = x\n", 3,
     "3:13: expected an integer of at least 1, got 'x' in [O]"),
    ("max_arity_zero", "[operad O]\nbuiltin = comm\nmax_arity = 0\n", 3,
     "3:13: expected an integer of at least 1, got '0' in [O]"),
    ("default_truncation_zero", "[operad O]\nbuiltin = comm\n", 0,
     "1:1: builtin operad needs a truncation of at least 1, got 0 in [O]"),
    ("duplicate_object", "[category C]\nobjects = a, b, a\n", 3,
     "2:17: duplicate object label 'a' in [C]"),
    ("arrow_named_like_identity", "[category C]\nobjects = a, b\nid_a : a -> b\n", 3,
     "3:1: arrow label 'id_a' collides with another label in [C]"),
    ("arrow_unknown_object", "[category C]\nobjects = a, b\nu : a -> c\n", 3,
     "3:10: arrow 'u' references unknown objects in [C]"),
    ("qconv_partial_semiring",
     "[semiring R]\nelements = 0, 1\nzero = 0\none = 1\nadd 0 0 = 0\n\n"
     "[operad Q]\nbuiltin = qconv\nsemiring = R\n", 3,
     "7:1: qconv needs total semiring tables; 'R' has structural errors in [Q]"),
    ("list_group_of_two_objects", "[category C]\nobjects = a b, c\n", 3,
     "2:13: expected a comma before 'b' in [C]"),
    # the category section reports every bad line, the list one included
    ("list_group_then_unknown_key", "[category C]\nobjects = a b, c\nu : a -> c\nfrobnicate = 1\n", 3,
     ("2:13: expected a comma before 'b' in [C]", "4:1: unknown key 'frobnicate' in [C]")),
    ("list_group_of_two_operations", "[operad O]\narity 1 = e f\nunit = e\n", 3,
     "2:13: expected a comma before 'f' in [O]"),
    ("unbalanced_bracket_group", "[category C]\nobjects = a, (b\n", 3,
     ("2:14: unbalanced bracket group in [C]", "1:1: category needs an 'objects' line in [C]")),
    ("unmatched_closing_bracket", "[category C]\nobjects = a, b)\n", 3,
     ("2:15: unmatched closing bracket in [C]", "1:1: category needs an 'objects' line in [C]")),
]


@pytest.mark.parametrize("text,max_arity,rendered", [c[1:] for c in LOCATED], ids=[c[0] for c in LOCATED])
def test_bad_entries_get_located_diagnostics(text, max_arity, rendered):
    doc = parse_spec_file(text, default_max_arity=max_arity)
    expected = list(rendered) if isinstance(rendered, tuple) else [rendered]
    assert [d.render() for d in doc.diagnostics] == expected


FIXTURE_NAMES = sorted(p.name for p in FIXTURES.iterdir())


@functools.lru_cache(maxsize=None)
def _mutated_documents():
    """Seed-1 token mutations of every fixture, 100 each, parsed."""
    return tuple(
        parse_spec_file(text)
        for name in FIXTURE_NAMES
        for text in token_mutations(read(name), seed=1, count=100)
    )


def _parser_tokens(line: str):
    """The parser's ``(text, column)`` tokens of one line, or None, and
    its rendered diagnostics: the raw pass cuts the comment off, and a
    column is worked out from the token texts."""
    diagnostics = []
    code = line.partition("#")[0]
    texts = dsl._tokenize_line(code, 7, diagnostics, "S")
    if texts is not None:
        entry = dsl.RawLine(7, code, texts, 0)
        texts = [(t, entry.col(k)) for k, t in enumerate(texts)]
    return texts, [d.render() for d in diagnostics]


def _reference_tokens(line: str):
    diagnostics = []
    tokens = reference_tokenize_line(line, 7, diagnostics, "S")
    return tokens, [d.render() for d in diagnostics]


def test_tokenizer_matches_the_reference_on_every_swept_line():
    fixture_lines = {line for name in FIXTURE_NAMES for line in read(name).splitlines()}
    mutated_lines = {
        line
        for name in FIXTURE_NAMES
        for text in token_mutations(read(name), seed=1, count=100)
        for line in text.splitlines()
    }
    sweeps = {
        "fixtures": fixture_lines,
        "mutations": mutated_lines - fixture_lines,
        "random": list(random_lines(seed=1, count=50000)),
        "nested": list(nested_lines(6)),
    }
    for sweep, lines in sweeps.items():
        assert lines, sweep
        for line in lines:
            assert _parser_tokens(line) == _reference_tokens(line), (sweep, line)
    # the sweeps reach both diagnostics and bracket groups 6 deep
    rendered = {d for line in sweeps["random"] + sweeps["nested"] for d in _reference_tokens(line)[1]}
    assert {d.split(": ", 1)[1] for d in rendered} == {
        "unbalanced bracket group in [S]",
        "unmatched closing bracket in [S]",
    }
    assert any(t.count("(") + t.count("[") == 6 for t, _ in _reference_tokens(sweeps["nested"][-1])[0])


def test_token_mutations_never_hit_the_internal_error_net():
    rendered = [d.render() for doc in _mutated_documents() for d in doc.diagnostics]
    assert rendered and not [r for r in rendered if "internal error:" in r]


def test_parser_pin_over_token_mutations():
    # rendered diagnostics, per-section built state and the regenerated
    # text of every clean document, over the same mutations as above
    h = hashlib.sha256()
    for doc in _mutated_documents():
        for d in doc.diagnostics:
            h.update(d.render().encode() + b"\n")
        for s in doc.sections:
            h.update(f"{s.kind} {s.name} {s.value is not None}\n".encode())
        if doc.ok:
            h.update(pretty_print(doc).encode())
        h.update(b"\f")
    assert h.hexdigest() == "63ba5217ef527e7aeb59202fd99c5b23f8b99cc22a5a8ed25110b5fb87918e71"


# --------------------------------------------------------------- round trips


@pytest.mark.parametrize(
    "name",
    [
        "walk.cat",
        "broken_unit.cat",
        "grade.laxtoset",
        "l2.laxtoset",
        "qconv.laxtoset",
        "corpus_small.spec",
        "corpus_omon.spec",
    ],
)
def test_pretty_print_round_trip(name):
    doc = parse_spec_file(read(name))
    assert doc.ok, [d.render() for d in doc.diagnostics][:3]
    text2 = pretty_print(doc)
    doc2 = parse_spec_file(text2)
    assert doc2.ok, [d.render() for d in doc2.diagnostics][:3]
    assert documents_table_equal(doc, doc2)


def test_serialized_fixtures_match_builders():
    from opgroth.ogroth import grade_laxtoset, omons_equal

    doc = parse_spec_file(read("grade.laxtoset"))
    parsed = doc.get("GRADE").value
    built = grade_laxtoset(3)
    assert omons_equal(parsed.dom, built.dom)
    assert parsed.iset == built.iset
    assert parsed.nu == built.nu


def test_corpus_small_matches_library_objects():
    from opgroth.groth import make_corpus

    doc = parse_spec_file(read("corpus_small.spec"))
    corpus = make_corpus()
    parsed_isets = [s.value for s in doc.by_kind("iset")]
    assert len(parsed_isets) == len(corpus.isets)
    for a, b in zip(parsed_isets, corpus.isets):
        assert a == b
    parsed_fibs = [s.value for s in doc.by_kind("fibration")]
    assert len(parsed_fibs) == len(corpus.fibrations)
    for a, b in zip(parsed_fibs, corpus.fibrations):
        assert a.proj == b.proj


def test_omon_serialization_round_trip_with_twists():
    from opgroth.omon import extend_unbiased_to_assoc, twisted_bz2_unbiased
    from opgroth.ogroth import omons_equal

    ext = extend_unbiased_to_assoc(twisted_bz2_unbiased(3))
    b = DocBuilder()
    ser_omon(b, ext, suggested="TWIST")
    doc = parse_spec_file(b.text())
    assert doc.ok, [d.render() for d in doc.diagnostics][:3]
    assert omons_equal(doc.get("TWIST").value, ext)
