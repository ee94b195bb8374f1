import collections
import hashlib
import io
import json
import pathlib
import re
import subprocess
import sys

import pytest

import opgroth.ogroth
import opgroth.omon
import opgroth.operads
from fuzzing import token_mutations
from opgroth.cli import run_command
from opgroth.fib2cat import ISetCell

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(argv):
    out = io.StringIO()
    code = run_command(argv, out=out)
    return code, out.getvalue()


def read(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# ------------------------------------------------------------ exit codes


def test_valid_fixture_exits_zero():
    code, text = run(["check", str(FIXTURES / "walk.cat")])
    assert code == 0
    assert "status: ok" in text


def test_semantic_break_exits_one():
    code, text = run(["check", str(FIXTURES / "broken_unit.cat")])
    assert code == 1
    assert "unit-law violation" in text


def test_syntax_break_exits_two():
    code, text = run(["check", str(FIXTURES / "broken_syntax.cat")])
    assert code == 2
    assert "parse" in text


def test_structural_break_exits_two():
    code, text = run(["check", str(FIXTURES / "incomplete.cat")])
    assert code == 2
    assert "composition_missing" in text


def test_missing_file_exits_two():
    code, _ = run(["check", str(FIXTURES / "does_not_exist.cat")])
    assert code == 2


@pytest.mark.parametrize("case", ["input_directory", "input_not_utf8", "output_directory"])
def test_unreadable_input_or_unwritable_output_is_an_error_line(tmp_path, case):
    not_utf8 = tmp_path / "latin1.cat"
    not_utf8.write_bytes("category C\nobjects: \xe9\n".encode("latin-1"))
    argv = {
        "input_directory": ["check", str(tmp_path)],
        "input_not_utf8": ["check", str(not_utf8)],
        "output_directory": ["groth", str(FIXTURES / "grade.laxtoset"), "--iset", "GRADE_iset", "-o", str(tmp_path)],
    }[case]
    code, text = run(argv)
    assert code == 2
    assert len(text.splitlines()) == 1 and text.startswith("error: ")


def test_section_filter():
    code, text = run(["check", str(FIXTURES / "grade.laxtoset"), "--section", "GRADE_iset"])
    assert code == 0
    assert "checked.iset = 1" in text
    code, _ = run(["check", str(FIXTURES / "grade.laxtoset"), "--section", "NOPE"])
    assert code == 2


@pytest.mark.parametrize("text", ["", "# only a comment\n"])
def test_a_file_with_no_sections_is_structural(tmp_path, text):
    target = tmp_path / "empty.spec"
    target.write_text(text, encoding="utf-8")
    code, out = run(["check", str(target)])
    assert code == 2
    assert out == "structural: cli.section: no sections in the file\nstatus: failed\n"
    code, out = run(["--report", "json", "check", str(target)])
    assert code == 2
    assert json.loads(out.splitlines()[0]) == {
        "v": 1, "severity": "structural", "check": "cli.section", "witness": "no sections in the file", "where": "",
    }


def test_a_parse_diagnostic_names_its_section_once(tmp_path):
    target = tmp_path / "a.spec"
    target.write_text("[operad A]\nbuiltin = assoc\n", encoding="utf-8")
    code, out = run(["--max-arity", "0", "check", str(target)])
    assert code == 2
    assert out.splitlines()[0] == (
        "structural: parse: 1:1: builtin operad needs a truncation of at least 1, got 0 [A]"
    )
    code, out = run(["--report", "json", "--max-arity", "0", "check", str(target)])
    assert code == 2
    assert out.splitlines()[0] == (
        '{"check": "parse", "severity": "structural", "v": 1, "where": "A", '
        '"witness": "1:1: builtin operad needs a truncation of at least 1, got 0"}'
    )


# ------------------------------------------------------------ mutation matrix

MUTATIONS = [
    ("walk.cat", "u : a -> b", "u : a -> b\ncompose u id_a = id_b"),
    ("grade.laxtoset", "nu [1,2] (1,1) (r,r) = q", "nu [1,2] (1,1) (r,r) = p"),
    ("grade.laxtoset", "tensor [1,2] (0,1) = 1", "tensor [1,2] (0,1) = 0"),
    ("l2.laxtoset", "map le_0_1 s = b", "map le_0_1 s = a"),
    ("qconv.laxtoset", "nu (1,1) (0,0) (f1,f1) = f1", "nu (1,1) (0,0) (f1,f1) = f0"),
    # a tensor morphism with wrong endpoints, whose composites are undefined
    ("l2.laxtoset", "tensor * (id_1,le_0_1) = le_0_1", "tensor * (id_1,le_0_1) = id_0"),
]


@pytest.mark.parametrize("name,old,new", MUTATIONS, ids=[f"m{i}" for i in range(len(MUTATIONS))])
def test_single_entry_mutations_flip_exit_code(tmp_path, name, old, new):
    baseline = read(name)
    assert old in baseline, f"mutation anchor missing in {name}"
    target = tmp_path / name
    target.write_text(baseline.replace(old, new, 1), encoding="utf-8")
    code, _ = run(["--max-arity", "2", "check", str(FIXTURES / name)])
    assert code == 0
    code, text = run(["--max-arity", "2", "check", str(target)])
    assert code == 1, text


def test_phi_entries_that_index_no_isomorphism_are_structural(tmp_path):
    # the map [1] has one position but the tuple two; nosuchop is no operation
    anchor = "tensor * (le_0_1,le_0_1,le_0_1) = le_0_1\n"
    extra = "phi [1] * * (0,0) = le_0_1\nphi [1,1] nosuchop * (0,0) = le_0_1\n"
    target = tmp_path / "l2.laxtoset"
    target.write_text(read("l2.laxtoset").replace(anchor, anchor + extra, 1), encoding="utf-8")
    code, text = run(["--report", "json", "check", str(target), "--section", "L2"])
    assert code == 2
    records = [json.loads(line) for line in text.splitlines()[:-1]]
    assert [(r["severity"], r["check"], r["witness"]) for r in records] == [
        ("structural", "omon.phi_key", "phi[f=[1],p=*,q=(*),A=(0,0)] indexes no structure isomorphism"),
        ("structural", "omon.phi_key", "phi[f=[1,1],p=nosuchop,q=(*),A=(0,0)] indexes no structure isomorphism"),
    ]


HOLE_SPECS = {
    # a morphism entry of the cod that the functor (onto object 1) never reaches
    "cod": ("tensor * (id_0,le_0_1) = id_0\n", ["tensor[p=*] morphism entry missing or out of range"]),
    # an object entry, and with it the identity entry the parser derives from it
    "dom": ("tensor * (1,0) = 0\n", [
        "tensor[p=*,A=(1,0)] missing or out of range",
        "tensor[p=*] morphism entry missing or out of range",
    ]),
}


@pytest.mark.parametrize("end", sorted(HOLE_SPECS))
def test_lax_functor_over_a_tensor_table_hole_is_structural(tmp_path, end):
    line, witnesses = HOLE_SPECS[end]
    text = read("l2.laxtoset")
    omon = text[text.index("[omon L2]"):text.index("[iset")]
    holed = omon.replace("[omon L2]", "[omon L2H]").replace(line, "", 1)
    dom, cod = ("L2H", "L2") if end == "dom" else ("L2", "L2H")
    target = tmp_path / "hole.spec"
    target.write_text(
        text[:text.index("[iset")] + holed
        + "[functor TO1]\ndom = L22\ncod = L22\nobj 0 = 1\nobj 1 = 1\nmor le_0_1 = id_1\n\n"
        + f"[laxfun C1]\ndom = {dom}\ncod = {cod}\nfunctor = TO1\n",
        encoding="utf-8",
    )
    code, out = run(["--report", "json", "--max-arity", "2", "check", str(target), "--section", "C1"])
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()[:-1]]
    assert [(r["severity"], r["check"], r["witness"], r["where"]) for r in records] == [
        ("structural", "laxfun.tensor_table", w, f"C1:C1:{end}") for w in witnesses
    ]


UNIT_SPECS = {
    # truncation 0: the operad has no arity-1 carrier
    "truncation_zero": ("[operad Z]\narity 0 = e\nunit = e\n", [
        ("structural", "operad.unit", "unit 'e' not in arity-1 carrier", "Z"),
    ]),
    # a structured category over an operad whose unit is no arity-1 operation
    "unit_not_an_operation": (
        "[operad O]\narity 0 = e\narity 1 = e\nunit = x\n\n[category C]\nobjects = a\n\n"
        "[omon M]\noperad = O\nbase = C\ntensor e () = a\ntensor e (a) = a\n", [
            ("structural", "operad.unit", "unit 'x' not in arity-1 carrier", "O"),
            ("structural", "omon.operad_unit", "operad unit 'x' is not an arity-1 operation", "M:M"),
        ]),
}


@pytest.mark.parametrize("name", sorted(UNIT_SPECS))
def test_operad_without_a_unary_unit_is_structural(tmp_path, name):
    text, expected = UNIT_SPECS[name]
    target = tmp_path / "unit.spec"
    target.write_text(text, encoding="utf-8")
    code, out = run(["--report", "json", "check", str(target)])
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()[:-1]]
    assert [(r["severity"], r["check"], r["witness"], r["where"]) for r in records] == expected


def test_structure_over_an_operad_with_a_missing_entry_is_structural(tmp_path):
    # a truncation-1 operad with no mu [1] a a, under a one-object structure
    target = tmp_path / "hole.spec"
    target.write_text(
        "[operad O]\narity 0 = z\narity 1 = a\nunit = a\nmu [] z = z\nmu [] a z = z\n\n"
        "[category C]\nobjects = x\n\n"
        "[omon M]\noperad = O\nbase = C\ntensor z () = x\ntensor a (x) = x\n",
        encoding="utf-8",
    )
    code, out = run(["--report", "json", "check", str(target)])
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()[:-1]]
    assert [(r["check"], r["where"]) for r in records] == [("operad.composition", "O")] * 4 + [
        ("omon.operad_composition", "M:M")
    ]
    assert records[-1]["witness"] == "mu [1] a a is undefined or outside its carrier"


def test_bad_max_arity_variable_is_an_error_line(monkeypatch):
    monkeypatch.setenv("OPGROTH_MAX_ARITY", "x")
    code, text = run(["check", str(FIXTURES / "walk.cat")])
    assert code == 2
    assert text == "error: OPGROTH_MAX_ARITY is not an integer: 'x'\n"


def test_max_arity_flag_truncates_a_builtin_operad_at_five(tmp_path):
    # a builtin operad that pins no max_arity takes the flag's truncation;
    # every square of comm(k) is one composable pair g: l -> m, f: m -> n
    target = tmp_path / "comm.spec"
    target.write_text("[operad C]\nbuiltin = comm\n", encoding="utf-8")
    code, out = run(["--report", "json", "--max-arity", "5", "check", str(target)])
    assert code == 0
    arities = range(6)
    pairs = sum(n**m * m**ell for n in arities for m in arities for ell in arities)
    assert json.loads(out)["stats"]["operad.assoc_instances"] == pairs == 18705846


# ------------------------------------------------------------ fuzzing

def test_token_fuzz_never_raises(tmp_path):
    codes = set()
    for fixture in sorted(FIXTURES.iterdir()):
        target = tmp_path / fixture.name
        for text in token_mutations(read(fixture.name), seed=4, count=15):
            target.write_text(text, encoding="utf-8")
            code, _ = run(["--report", "json", "check", str(target)])
            codes.add(code)
    assert codes <= {0, 1, 2}


# ------------------------------------------------------------ report modes


def test_json_report_is_one_record_per_line():
    code, text = run(["--report", "json", "check", str(FIXTURES / "broken_unit.cat")])
    assert code == 1
    lines = [json.loads(line) for line in text.strip().splitlines()]
    assert all(rec["v"] == 1 for rec in lines)
    assert lines[-1]["summary"] is True
    assert lines[-1]["status"] == "failed"
    assert any(rec.get("check") == "category.unit" for rec in lines[:-1])


# sha256 of the stdout of ``check`` on each fixture by report mode; the
# fixtures pin their truncation, so --max-arity 2 gives the same bytes
CHECK_PINS = {
    ("broken_syntax.cat", "text"): "be1c9dec7739c6b00d7ff8755d1a26d4cd1b7d4ded93ba296b4dbcb4abaafd74",
    ("broken_syntax.cat", "json"): "1627b604ad533e13128fea235aecfded13cae1f5f3a017b2baad82a215e0c02c",
    ("broken_unit.cat", "text"): "4422ac011fa876c25a5912ea2ee0e4312b5af984c913fdfa27b99413734d7188",
    ("broken_unit.cat", "json"): "570caaca7d4c5350d76ea144ce4922888ada29ae7e88dfdcb26c8d4b45c8307f",
    ("corpus_omon.spec", "text"): "bf368981717d9029e35bf877d009ee2af2b3b3569c4221249556a153467f2f94",
    ("corpus_omon.spec", "json"): "89ffa6062a07ddc10bf0f05688782317a7fe4e755f269d725fbf14896d842eb6",
    ("corpus_small.spec", "text"): "522c269bbb08a7cde91d872de5ccbd6acdff13f6f9d943e0e52131e4f0883be8",
    ("corpus_small.spec", "json"): "c568927d828a8171676173be3ec697a4e1403b5d86342eb47c126c2c874bb25b",
    ("grade.laxtoset", "text"): "5988f7582b7ec59223bd4e576f3b362caf70bb02785014e14498f07024a5d7c8",
    ("grade.laxtoset", "json"): "d5842e1c92bcffefd7f9883dfd932bf3ec28a6e200f10724bd127f43fc265d5e",
    ("incomplete.cat", "text"): "91751e9a36b50ea9aeebdd619849bf678ae5d5419ffabd7139c50177dc2fb4ed",
    ("incomplete.cat", "json"): "5370e5e1a87cb4c80f58f30ab13a6172dddd8ecb55deeb2ae857c3230699372a",
    ("l2.laxtoset", "text"): "3b7dca671a6c0add018cef77780207252dff55ac7535bd8e1455559ba10f5e4b",
    ("l2.laxtoset", "json"): "9986f50d47125972f4cc736e23945f7d741608d4b3302d06150b0a4a2745bdf4",
    ("qconv.laxtoset", "text"): "17883ece5cf2ed2bfb4f86eee84e750b54441d401a9666e48c40ca87c2876b45",
    ("qconv.laxtoset", "json"): "3be9b688cbbd6f730b765a830c73b63bbc035fa2822898fd9d3368aa94766916",
    ("walk.cat", "text"): "8f3af4a912da7eb685e29902aaa3f7f98a1dc8d7a77c2268163fa83a46bafe5c",
    ("walk.cat", "json"): "3108848ac7fcbceaac685de3746903c62772bb841072dc015f2487dfd4d302bc",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_check_stdout_is_pinned_on_every_fixture():
    assert {(p.name, mode) for p in FIXTURES.iterdir() for mode in ("text", "json")} == set(CHECK_PINS)
    for (name, mode), digest in sorted(CHECK_PINS.items()):
        for arity in ([], ["--max-arity", "2"]):
            _, text = run([*arity, "--report", mode, "check", str(FIXTURES / name)])
            assert _sha(text) == digest, (name, mode, arity)


# one DZ2 tensor entry flipped: the structure's report is unclean, and every
# section over DZ2 merges that one report under its own name
FLIPPED_DZ2 = ("tensor [1,2,3] (1,1,1) = 1\n", "tensor [1,2,3] (1,1,1) = 0\n")
FLIPPED_PINS = {
    "text": "947ca2b74005c665e6ca090b3a121c07a73547ec9c32ed85b10734a7f46d14ad",
    "json": "b82126a57fc5ed25d6a81af0f47ed574cf2de70aae4ffe93dd76186bae49dd65",
}


def test_check_records_of_an_unclean_structure_are_pinned(tmp_path):
    old, new = FLIPPED_DZ2
    target = tmp_path / "flipped.spec"
    target.write_text(read("corpus_omon.spec").replace(old, new, 1), encoding="utf-8")
    for mode, digest in FLIPPED_PINS.items():
        code, text = run(["--report", mode, "check", str(target)])
        assert code == 1 and _sha(text) == digest, mode
    records = [json.loads(line) for line in text.splitlines()[:-1]]
    assert {r["check"] for r in records} == {"omon.phi_missing"}
    assert collections.Counter(r["where"] for r in records) == {
        "DZ2:DZ2": 50, "GRADE:DZ2:DZ2": 50, "TRIVDZ2:DZ2:DZ2": 50, "INTGRADE:INTGRADE:base:DZ2": 50,
    }
    assert records[0]["witness"] == "phi[f=[1,1,2],p=[1,2],q=([1,2],[1]),A=(1,1,1)] has no entry and unequal endpoints"


def test_check_proves_each_structure_and_operad_once(monkeypatch):
    # corpus_omon.spec has three operads and four structures, which its
    # laxtoset and ofib sections name again
    laws, forms = collections.Counter(), collections.Counter()
    structure_laws, rows_init = opgroth.omon._structure_laws, opgroth.operads.OperadRows.__init__

    def counting_laws(c, *args):
        laws[c.name] += 1
        return structure_laws(c, *args)

    def counting_init(self, o, *args):
        forms[id(o)] += 1
        rows_init(self, o, *args)

    monkeypatch.setattr(opgroth.omon, "_structure_laws", counting_laws)
    monkeypatch.setattr(opgroth.operads.OperadRows, "__init__", counting_init)
    code, _ = run(["check", str(FIXTURES / "corpus_omon.spec")])
    assert code == 0
    assert laws == {"DZ2": 1, "L2": 1, "QOR": 1, "int_GRADE": 1}
    assert sorted(forms.values()) == [1, 1, 1]


def test_oroundtrip_checks_each_cell_the_search_keeps_once(monkeypatch):
    # the search leaves the report of each cell it keeps on the command's
    # memo, so the round trip reads it there instead of checking the cell
    # again; every check_ocell that runs validates its set cell once
    validated = []
    validate = opgroth.ogroth.validate_iset_cell

    def counting(cell):
        validated.append(cell)
        return validate(cell)

    monkeypatch.setattr(opgroth.ogroth, "validate_iset_cell", counting)
    code, _ = run(["oroundtrip", str(FIXTURES / "corpus_omon.spec")])
    assert code == 0
    assert sum(isinstance(c, ISetCell) for c in validated) == 33


def test_jobs_flag_does_not_change_report_bytes():
    argv = ["check", str(FIXTURES / "grade.laxtoset")]
    _, text1 = run(["--jobs", "1"] + argv)
    _, text4 = run(["--jobs", "4"] + argv)
    assert text1 == text4
    argv = ["roundtrip", str(FIXTURES / "corpus_small.spec")]
    _, text1 = run(["--jobs", "1"] + argv)
    _, text4 = run(["--jobs", "4"] + argv)
    assert text1 == text4


# ------------------------------------------------------------ subcommands


def test_factorize_matches_contract():
    code, text = run(["factorize", "3", "2", "2,1,1"])
    assert code == 0
    assert "g = [1,1,2]" in text
    assert "h = [3,1,2]" in text


def test_factorize_rejects_bad_values():
    code, _ = run(["factorize", "3", "2", "2,1,9"])
    assert code == 2


def test_roundtrip_reports_counts():
    code, text = run(["roundtrip", str(FIXTURES / "corpus_small.spec")])
    assert code == 0
    assert "roundtrip.naturality_squares" in text
    assert "status: ok" in text


def test_roundtrip_seed_changes_cells_but_not_status():
    code1, text1 = run(["--seed", "1", "roundtrip", str(FIXTURES / "corpus_small.spec")])
    code2, _ = run(["--seed", "2", "roundtrip", str(FIXTURES / "corpus_small.spec")])
    assert code1 == code2 == 0
    assert "status: ok" in text1


def _corpus_without(kind: str, tmp_path) -> pathlib.Path:
    """corpus_small.spec with every section of one kind deleted."""
    blocks = re.split(r"(?m)^(?=\[)", read("corpus_small.spec"))
    path = tmp_path / f"no_{kind}.spec"
    path.write_text("".join(b for b in blocks if not b.startswith(f"[{kind} ")), encoding="utf-8")
    return path


def test_roundtrip_on_fibrations_alone(tmp_path):
    code, text = run(["--seed", "1", "roundtrip", str(_corpus_without("iset", tmp_path))])
    assert code == 0, text
    assert "status: ok" in text
    assert "count roundtrip.psi_components = 16" in text
    assert "roundtrip.phi_components" not in text


def test_roundtrip_on_isets_alone(tmp_path):
    code, text = run(["--seed", "1", "roundtrip", str(_corpus_without("fibration", tmp_path))])
    assert code == 0, text
    assert "status: ok" in text
    assert "count roundtrip.phi_components = 26" in text
    assert "roundtrip.psi_components" not in text


def test_operad_table_prints_mu_lines():
    code, text = run(["operad-table", str(FIXTURES / "grade.laxtoset"), "--operad", "Assoc_3"])
    assert code == 0
    assert "mu [1,1] [1] [2,1] = [2,1]" in text


def test_construction_pipeline(tmp_path):
    out_fib = tmp_path / "fib.spec"
    code, _ = run(["groth", str(FIXTURES / "grade.laxtoset"), "--iset", "GRADE_iset", "-o", str(out_fib)])
    assert code == 0
    code, text = run(["check", str(out_fib)])
    assert code == 0, text
    out_iset = tmp_path / "back.spec"
    code, _ = run(["transpose", str(out_fib), "--fib", "int_GRADE_iset", "-o", str(out_iset)])
    assert code == 0
    code, _ = run(["check", str(out_iset)])
    assert code == 0


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["ogroth", "corpus_omon.spec", "--laxtoset", "IDL2"], "'IDL2' has kind ofib, expected laxtoset"),
        (["groth", "grade.laxtoset", "--iset", "Assoc_3"], "'Assoc_3' has kind operad, expected iset"),
        (["otranspose", "corpus_omon.spec", "--ofib", "DZ2"], "'DZ2' has kind omon, expected ofib"),
    ],
    ids=["ogroth", "groth", "otranspose"],
)
def test_construction_of_a_section_of_another_kind_is_structural(tmp_path, argv, kind):
    out = tmp_path / "out.spec"
    code, text = run([argv[0], str(FIXTURES / argv[1]), *argv[2:], "-o", str(out)])
    assert (code, text) == (2, f"structural: cli.section: {kind}\nstatus: failed\n")
    assert not out.exists()


def test_structured_pipeline(tmp_path):
    # run at truncation 2 to stay quick: serialize a small grade family
    from opgroth.dsl import DocBuilder, ser_laxtoset
    from opgroth.ogroth import grade_laxtoset

    small = tmp_path / "grade2.laxtoset"
    b = DocBuilder()
    ser_laxtoset(b, grade_laxtoset(2), suggested="GRADE")
    small.write_text(b.text(), encoding="utf-8")

    out_ofib = tmp_path / "ofib.spec"
    code, text = run(["ogroth", str(small), "--laxtoset", "GRADE", "-o", str(out_ofib)])
    assert code == 0, text
    code, text = run(["check", str(out_ofib)])
    assert code == 0, text
    out_back = tmp_path / "back.laxtoset"
    code, _ = run(["otranspose", str(out_ofib), "--ofib", "int_GRADE", "-o", str(out_back)])
    assert code == 0
    code, _ = run(["check", str(out_back)])
    assert code == 0
    code, text = run(["oroundtrip", str(small)])
    assert code == 0, text
    assert "status: ok" in text


def test_env_var_sets_default_truncation(monkeypatch, tmp_path):
    spec = tmp_path / "assoc.spec"
    spec.write_text("[operad A]\nbuiltin = assoc\n", encoding="utf-8")
    monkeypatch.setenv("OPGROTH_MAX_ARITY", "2")
    code, text = run(["operad-table", str(spec), "--operad", "A"])
    assert code == 0
    # no arity-3 operations appear at truncation 2
    assert "[1,2,3]" not in text and "[2,1]" in text


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "opgroth", "factorize", "2", "2", "2,1"],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
        timeout=60,
    )
    assert result.returncode == 0
    assert "g = [1,2]" in result.stdout
