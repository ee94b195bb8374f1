"""Exact report pins for the structured-category checkers.

These fix the bytes the checkers emit today: the JSON report and exit
code of ``check`` on every fixture (by hash), the exact records of one
corruption per ``omon.*`` check, the records and counters of the
shipped single-entry mutations, and the check names that
``validate_unbiased`` reports on corrupted unbiased data.
"""

import collections
import hashlib
import io
import pathlib

import pytest

from opgroth import fixtures
from opgroth.cli import run_command
from opgroth.fincore import FinMap, identity_map, terminal_map
from opgroth.omon import (
    TensorTable,
    UnbiasedData,
    build_omon,
    check_omon_category,
    dz2_assoc_omon,
    grade_assoc_omon,
    l2_comm_omon,
    omon_copy,
    omon_single_entry_mutations,
    twisted_bz2_unbiased,
    validate_unbiased,
    z2_unbiased,
)
from opgroth.operads import build_assoc, build_comm
from testkit import with_overrides

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# (fixture, exit code, sha256 of the stdout of `--report json check`)
CHECK_JSON = [
    ("broken_syntax.cat", 2, "1627b604ad533e13128fea235aecfded13cae1f5f3a017b2baad82a215e0c02c"),
    ("broken_unit.cat", 1, "570caaca7d4c5350d76ea144ce4922888ada29ae7e88dfdcb26c8d4b45c8307f"),
    ("corpus_omon.spec", 0, "89ffa6062a07ddc10bf0f05688782317a7fe4e755f269d725fbf14896d842eb6"),
    ("corpus_small.spec", 0, "c568927d828a8171676173be3ec697a4e1403b5d86342eb47c126c2c874bb25b"),
    ("grade.laxtoset", 0, "d5842e1c92bcffefd7f9883dfd932bf3ec28a6e200f10724bd127f43fc265d5e"),
    ("incomplete.cat", 2, "5370e5e1a87cb4c80f58f30ab13a6172dddd8ecb55deeb2ae857c3230699372a"),
    ("l2.laxtoset", 0, "9986f50d47125972f4cc736e23945f7d741608d4b3302d06150b0a4a2745bdf4"),
    ("qconv.laxtoset", 0, "3be9b688cbbd6f730b765a830c73b63bbc035fa2822898fd9d3368aa94766916"),
    ("walk.cat", 0, "3108848ac7fcbceaac685de3746903c62772bb841072dc015f2487dfd4d302bc"),
]


def test_every_fixture_is_pinned():
    assert sorted(p.name for p in FIXTURES.iterdir()) == [name for name, _, _ in CHECK_JSON]


@pytest.mark.parametrize("name,code,digest", CHECK_JSON, ids=[n for n, _, _ in CHECK_JSON])
def test_check_json_bytes(monkeypatch, name, code, digest):
    monkeypatch.delenv("OPGROTH_MAX_ARITY", raising=False)
    out = io.StringIO()
    got = run_command(["--report", "json", "check", str(FIXTURES / name)], out=out)
    assert (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (code, digest)


# ------------------------------------------------ one corruption per check


def _records(report):
    return [(r.check, r.where, r.witness) for r in report.records]


def _product_rule(base):
    """Tensor of morphisms of a one-object category: their composite."""

    def rule(n, p, combo):
        acc = base.id_of(0)
        for m in combo:
            acc = base.compose(acc, m)
        return acc

    return rule


def _monoid_structure(base, name):
    """The terminal-operad structure of a commutative one-object category."""
    return build_omon(build_comm(2), base, lambda n, p, combo: 0, _product_rule(base), name=name)


def _projection_l2():
    """L2 over the terminal operad with every tensor the first projection:
    functorial, but its permutation isomorphisms have unequal endpoints."""
    base = fixtures.l2()
    return build_omon(
        build_comm(2),
        base,
        lambda n, p, combo: combo[0] if combo else 1,
        lambda n, p, combo: combo[0] if combo else base.id_of(1),
        name="L2P",
    )


SWAP = FinMap(2, 2, (2, 1))


def _corrupt(check: str):
    if check == "tensor_missing":
        c = omon_copy(dz2_assoc_omon(2))
        del c.tensors[(2, "[1,2]")]
    elif check == "tensor_table":
        c = omon_copy(dz2_assoc_omon(2))
        del c.tensors[(2, "[2,1]")].obj[(1, 0)]
    elif check == "unit_tensor":
        c = omon_copy(dz2_assoc_omon(2))
        unit = c.tensors[(1, "[1]")]
        unit.obj[(0,)] = unit.mor[(0,)] = 1
    elif check in ("tensor_identity", "tensor_endpoints"):
        c = omon_single_entry_mutations(dz2_assoc_omon(2))[0][1]
    elif check == "tensor_functoriality":
        c = _monoid_structure(fixtures.bz2(), "BZX")
        c.tensors[(2, "*")].mor[(0, 1)] = 0
    elif check == "phi_missing":
        c = _projection_l2()
    elif check == "phi_typing":
        c = omon_copy(l2_comm_omon(2))
        c.phi[(SWAP, "*", ("*", "*"), (0, 1))] = c.base.mor_index("le_0_1")
    elif check == "phi_invertible":
        c = _projection_l2()
        c.phi[(SWAP, "*", ("*", "*"), (0, 1))] = c.base.mor_index("le_0_1")
    elif check == "identity_axiom":
        c = _monoid_structure(fixtures.bz2(), "BZX")
        c.phi[(identity_map(2), "*", ("*", "*"), (0, 0))] = 1
    elif check == "phi_naturality":
        # the arity-2 tensor becomes the first projection
        c = _monoid_structure(fixtures.bz2(), "BZX")
        c.tensors[(2, "*")].mor[(0, 1)] = 0
        c.tensors[(2, "*")].mor[(1, 1)] = 1
    elif check == "assoc_full":
        c = _monoid_structure(fixtures.bz2(), "BZX")
        c.phi[(FinMap(2, 2, (1, 1)), "*", ("*", "*"), (0, 0))] = 1
    elif check == "assoc_shortcut":
        # no explicit entry, so only the operad composite is compared
        c = omon_copy(dz2_assoc_omon(2))
        c.operad = with_overrides(build_assoc(2), {(SWAP, "[2,1]", ("[1]", "[1]")): "[2,1]"})
    else:
        raise AssertionError(check)
    return c


CORRUPTION_RECORDS = {
    "tensor_missing": [
        ("omon.tensor_missing", "DZ2", "no tensor for arity-2 operation [1,2]"),
    ],
    "tensor_table": [
        ("omon.tensor_table", "DZ2", "tensor[p=[2,1],A=(1,0)] missing or out of range"),
    ],
    "unit_tensor": [
        ("omon.unit_tensor", "DZ2", "unit tensor moves object 0"),
        ("omon.unit_tensor", "DZ2", "unit tensor moves morphism id_0"),
    ],
    "tensor_identity": [
        ("omon.tensor_identity", "DZ2", "tensor[p=[1,2],A=(0,0)] breaks identities"),
        ("omon.tensor_endpoints", "DZ2", "tensor[p=[1,2]] morphism entry has wrong endpoints"),
    ],
    "tensor_functoriality": [
        ("omon.tensor_functoriality", "BZX", "tensor[p=*] breaks a composite of morphisms"),
        ("omon.tensor_functoriality", "BZX", "tensor[p=*] breaks a composite of morphisms"),
        ("omon.tensor_functoriality", "BZX", "tensor[p=*] breaks a composite of morphisms"),
        ("omon.tensor_functoriality", "BZX", "tensor[p=*] breaks a composite of morphisms"),
        ("omon.tensor_functoriality", "BZX", "tensor[p=*] breaks a composite of morphisms"),
        ("omon.tensor_functoriality", "BZX", "tensor[p=*] breaks a composite of morphisms"),
    ],
    "phi_missing": [
        ("omon.phi_missing", "L2P", "phi[f=[2],p=*,q=(*,*),A=(0)] has no entry and unequal endpoints"),
        ("omon.phi_missing", "L2P", "phi[f=[2,1],p=*,q=(*,*),A=(0,1)] has no entry and unequal endpoints"),
        ("omon.phi_missing", "L2P", "phi[f=[2,1],p=*,q=(*,*),A=(1,0)] has no entry and unequal endpoints"),
        ("omon.phi_missing", "L2P", "phi[f=[2,2],p=*,q=(*,*),A=(0,0)] has no entry and unequal endpoints"),
        ("omon.phi_missing", "L2P", "phi[f=[2,2],p=*,q=(*,*),A=(0,1)] has no entry and unequal endpoints"),
    ],
    "phi_typing": [
        ("omon.phi_typing", "L2", "phi[f=[2,1],p=*,q=(*,*),A=(0,1)] has wrong endpoints"),
        ("omon.phi_naturality", "L2", "phi[f=[2,1],p=*,q=(*,*),A=(id_0,le_0_1)] breaks naturality"),
        ("omon.assoc", "L2", "square fails at g=[1] f=[2,1] p=* q=(*,*) r=(*,*) A=(0)"),
        ("omon.assoc", "L2", "square fails at g=[1,1] f=[2,1] p=* q=(*,*) r=(*,*) A=(0,0)"),
        ("omon.assoc", "L2", "square fails at g=[1,1] f=[2,1] p=* q=(*,*) r=(*,*) A=(0,1)"),
        ("omon.assoc", "L2", "square fails at g=[1,1] f=[2,1] p=* q=(*,*) r=(*,*) A=(1,0)"),
        ("omon.assoc", "L2", "square fails at g=[2,1] f=[2,1] p=* q=(*,*) r=(*,*) A=(1,0)"),
    ],
    "phi_invertible": [
        ("omon.phi_missing", "L2P", "phi[f=[2],p=*,q=(*,*),A=(0)] has no entry and unequal endpoints"),
        ("omon.phi_invertible", "L2P", "phi[f=[2,1],p=*,q=(*,*),A=(0,1)] is not invertible"),
        ("omon.phi_missing", "L2P", "phi[f=[2,1],p=*,q=(*,*),A=(1,0)] has no entry and unequal endpoints"),
        ("omon.phi_missing", "L2P", "phi[f=[2,2],p=*,q=(*,*),A=(0,0)] has no entry and unequal endpoints"),
        ("omon.phi_missing", "L2P", "phi[f=[2,2],p=*,q=(*,*),A=(0,1)] has no entry and unequal endpoints"),
    ],
    "identity_axiom": [
        ("omon.identity_axiom", "BZX", "phi[f=[1,2],p=*,q=(*,*),A=(pt,pt)] must be the identity"),
        ("omon.assoc", "BZX", "square fails at g=[] f=[1,2] p=* q=(*,*) r=(*,*) A=()"),
        ("omon.assoc", "BZX", "square fails at g=[1] f=[1,2] p=* q=(*,*) r=(*,*) A=(pt)"),
        ("omon.assoc", "BZX", "square fails at g=[2] f=[1,2] p=* q=(*,*) r=(*,*) A=(pt)"),
        ("omon.assoc", "BZX", "square fails at g=[1,1] f=[1,2] p=* q=(*,*) r=(*,*) A=(pt,pt)"),
        ("omon.assoc", "BZX", "square fails at g=[1,2] f=[1,2] p=* q=(*,*) r=(*,*) A=(pt,pt)"),
        ("omon.assoc", "BZX", "square fails at g=[2,1] f=[1,2] p=* q=(*,*) r=(*,*) A=(pt,pt)"),
        ("omon.assoc", "BZX", "square fails at g=[2,2] f=[1,2] p=* q=(*,*) r=(*,*) A=(pt,pt)"),
        ("omon.assoc", "BZX", "square fails at g=[1,2] f=[2,1] p=* q=(*,*) r=(*,*) A=(pt,pt)"),
        ("omon.assoc", "BZX", "square fails at g=[2,1] f=[2,1] p=* q=(*,*) r=(*,*) A=(pt,pt)"),
    ],
    "phi_naturality": [
        ("omon.phi_naturality", "BZX", "phi[f=[2],p=*,q=(*,*),A=(1)] breaks naturality"),
        ("omon.phi_naturality", "BZX", "phi[f=[2,1],p=*,q=(*,*),A=(id_pt,1)] breaks naturality"),
        ("omon.phi_naturality", "BZX", "phi[f=[2,1],p=*,q=(*,*),A=(1,id_pt)] breaks naturality"),
        ("omon.phi_naturality", "BZX", "phi[f=[2,2],p=*,q=(*,*),A=(1,id_pt)] breaks naturality"),
        ("omon.phi_naturality", "BZX", "phi[f=[2,2],p=*,q=(*,*),A=(1,1)] breaks naturality"),
    ],
    "assoc_full": [
        ("omon.assoc", "BZX", "square fails at g=[1,1] f=[1] p=* q=(*,*) r=(*) A=(pt,pt)"),
        ("omon.assoc", "BZX", "square fails at g=[] f=[1,1] p=* q=(*,*) r=(*,*) A=()"),
        ("omon.assoc", "BZX", "square fails at g=[1] f=[1,1] p=* q=(*,*) r=(*,*) A=(pt)"),
        ("omon.assoc", "BZX", "square fails at g=[2] f=[1,1] p=* q=(*,*) r=(*,*) A=(pt)"),
        ("omon.assoc", "BZX", "square fails at g=[1,1] f=[2,1] p=* q=(*,*) r=(*,*) A=(pt,pt)"),
        ("omon.assoc", "BZX", "square fails at g=[2,2] f=[2,1] p=* q=(*,*) r=(*,*) A=(pt,pt)"),
    ],
    "assoc_shortcut": [
        ("omon.assoc", "DZ2", "square fails at g=[2,1] f=[2,1] p=[1,2] q=([1],[1]) r=([1],[1])"),
    ],
}
CORRUPTION_RECORDS["tensor_endpoints"] = CORRUPTION_RECORDS["tensor_identity"]


@pytest.mark.parametrize("check", sorted(CORRUPTION_RECORDS))
def test_one_corruption_per_omon_check(check):
    report = check_omon_category(_corrupt(check))
    assert _records(report) == CORRUPTION_RECORDS[check]
    name = "omon.assoc" if check.startswith("assoc") else f"omon.{check}"
    assert name in {r.check for r in report.records}


# ------------------------------------------------ shipped mutations


SHIPPED = {
    "dz2_assoc_omon": [
        (
            "tensor entry tensor[p=[1,2],A=(0,0)] redirected",
            [
                ("omon.tensor_identity", "DZ2", "tensor[p=[1,2],A=(0,0)] breaks identities"),
                ("omon.tensor_endpoints", "DZ2", "tensor[p=[1,2]] morphism entry has wrong endpoints"),
            ],
            {"omon.tensor_functoriality_instances": 11},
            {},
        ),
        (
            "phi[f=[1,1],p=[1],q=([1,2]),A=(0,0)] set to a non-identity",
            [
                ("omon.phi_typing", "DZ2", "phi[f=[1,1],p=[1],q=([1,2]),A=(0,0)] has wrong endpoints"),
            ],
            {"omon.tensor_functoriality_instances": 11, "omon.phi_instances": 70, "omon.phi_naturality_instances": 70, "omon.assoc_instances": 465},
            {},
        ),
        (
            "phi[f=[1,2],p=[1,2],q=([1],[1]),A=(0,0)] set to a non-identity",
            [
                ("omon.phi_typing", "DZ2", "phi[f=[1,2],p=[1,2],q=([1],[1]),A=(0,0)] has wrong endpoints"),
            ],
            {"omon.tensor_functoriality_instances": 11, "omon.phi_instances": 70, "omon.phi_naturality_instances": 70, "omon.assoc_instances": 465},
            {},
        ),
    ],
    "l2_comm_omon": [
        (
            "tensor entry tensor[p=*,A=(0,0)] redirected",
            [
                ("omon.tensor_identity", "L2", "tensor[p=*,A=(0,0)] breaks identities"),
                ("omon.tensor_endpoints", "L2", "tensor[p=*] morphism entry has wrong endpoints"),
                ("omon.tensor_endpoints", "L2", "tensor[p=*] morphism entry has wrong endpoints"),
                ("omon.tensor_endpoints", "L2", "tensor[p=*] morphism entry has wrong endpoints"),
                ("omon.tensor_endpoints", "L2", "tensor[p=*] morphism entry has wrong endpoints"),
            ],
            {"omon.tensor_functoriality_instances": 21},
            {},
        ),
        (
            "phi[f=[1,1],p=*,q=(*),A=(0,0)] set to a non-identity",
            [
                ("omon.phi_typing", "L2", "phi[f=[1,1],p=*,q=(*),A=(0,0)] has wrong endpoints"),
            ],
            {"omon.tensor_functoriality_instances": 21, "omon.phi_instances": 29, "omon.phi_naturality_instances": 57, "omon.assoc_instances": 129},
            {},
        ),
        (
            "phi[f=[1,2],p=*,q=(*,*),A=(0,0)] set to a non-identity",
            [
                ("omon.phi_typing", "L2", "phi[f=[1,2],p=*,q=(*,*),A=(0,0)] has wrong endpoints"),
            ],
            {"omon.tensor_functoriality_instances": 21, "omon.phi_instances": 29, "omon.phi_naturality_instances": 57, "omon.assoc_instances": 129},
            {},
        ),
    ],
    "grade_assoc_omon": [
        (
            "tensor entry tensor[p=[1,2],A=(p,p)] redirected",
            [
                ("omon.tensor_identity", "GRADECAT", "tensor[p=[1,2],A=(p,p)] breaks identities"),
                ("omon.tensor_endpoints", "GRADECAT", "tensor[p=[1,2]] morphism entry has wrong endpoints"),
            ],
            {"omon.tensor_functoriality_instances": 22},
            {},
        ),
        (
            "phi[f=[1,1],p=[1],q=([1,2]),A=(p,p)] set to a non-identity",
            [
                ("omon.phi_typing", "GRADECAT", "phi[f=[1,1],p=[1],q=([1,2]),A=(p,p)] has wrong endpoints"),
            ],
            {"omon.tensor_functoriality_instances": 22, "omon.phi_instances": 145, "omon.phi_naturality_instances": 145, "omon.assoc_instances": 968},
            {},
        ),
        (
            "phi[f=[1,2],p=[1,2],q=([1],[1]),A=(p,p)] set to a non-identity",
            [
                ("omon.phi_typing", "GRADECAT", "phi[f=[1,2],p=[1,2],q=([1],[1]),A=(p,p)] has wrong endpoints"),
            ],
            {"omon.tensor_functoriality_instances": 22, "omon.phi_instances": 145, "omon.phi_naturality_instances": 145, "omon.assoc_instances": 968},
            {},
        ),
    ],
}


@pytest.mark.parametrize("make", [dz2_assoc_omon, l2_comm_omon, grade_assoc_omon], ids=["DZ2", "L2", "grade"])
def test_shipped_mutation_records_and_counters(make):
    got = [
        (description, _records(report), report.stats, report.info)
        for description, report in (
            (d, check_omon_category(m)) for d, m, _ in omon_single_entry_mutations(make(2))
        )
    ]
    assert got == SHIPPED[make.__name__]


# ------------------------------------------------ unbiased corruptions


def _unbiased_variant(u, alpha=None):
    return UnbiasedData(
        base=u.base,
        max_arity=u.max_arity,
        tensors={n: TensorTable(obj=dict(t.obj), mor=dict(t.mor)) for n, t in u.tensors.items()},
        alpha=dict(u.alpha if alpha is None else alpha),
        name=u.name,
    )


def _unbiased_corrupt(case: str):
    tw = twisted_bz2_unbiased(3)
    alpha = dict(tw.alpha)
    if case == "delete_first_twist":
        del alpha[next(iter(alpha))]
    elif case == "identity_map_flipped":
        alpha[(identity_map(2), (0, 0))] = 1
    elif case == "terminal_map_flipped":
        alpha[(terminal_map(2), (0, 0))] = 1
    elif case == "fold_unflipped":
        # the twist flips this map; the identity breaks the squares
        alpha[(FinMap(2, 2, (1, 1)), (0, 0))] = 0
    elif case == "tensor_missing":
        u = _unbiased_variant(z2_unbiased(2))
        del u.tensors[2]
        return u
    else:
        raise AssertionError(case)
    return _unbiased_variant(tw, alpha)


UNBIASED_CHECKS = {
    "delete_first_twist": {"unbiased.assoc": 39},
    "identity_map_flipped": {"unbiased.assoc": 33, "unbiased.identity_axiom": 1},
    "terminal_map_flipped": {"unbiased.assoc": 63, "unbiased.identity_axiom": 1},
    "fold_unflipped": {"unbiased.assoc": 35},
    "tensor_missing": {"unbiased.tensor_missing": 1},
}


@pytest.mark.parametrize("case", sorted(UNBIASED_CHECKS))
def test_unbiased_corruption_check_names(case):
    report = validate_unbiased(_unbiased_corrupt(case))
    assert collections.Counter(r.check for r in report.records) == UNBIASED_CHECKS[case]


# ------------------------------------------------ strict projections

OFIB_CHECKS = {"ofib.strict_tensor": 16, "ofib.strict_phi": 23}
OFIB_INSTANCES = 91
OFIB_RECORDS = [
    ("ofib.strict_tensor", "int[L2FAM]", "tensor[p=*] not strictly preserved at ()"),
    ("ofib.strict_tensor", "int[L2FAM]", "tensor[p=*] morphism entry not strictly preserved"),
    ("ofib.strict_phi", "int[L2FAM]", "phi[f=[2,2],p=*] not strictly preserved at (1.b,0.s)"),
]



def test_ofib_strictness_records():
    # the projection of the meet-built total onto L2 with joins preserves
    # neither tensors nor structure isomorphisms
    from opgroth.ogroth import check_ofib_object, l2_laxtoset, omon_groth

    x = omon_groth(l2_laxtoset(2))
    base = x.base_omon.base
    le = base.mor_index("le_0_1")

    def join(n, p, combo):
        return max(combo) if combo else 0

    def join_mor(n, p, combo):
        src = join(n, p, tuple(base.mor_src[m] for m in combo))
        tgt = join(n, p, tuple(base.mor_tgt[m] for m in combo))
        return base.id_of(src) if src == tgt else le

    x.base_omon = build_omon(build_comm(2), base, join, join_mor, name="JOIN")
    report = check_ofib_object(x)
    assert collections.Counter(r.check for r in report.records) == OFIB_CHECKS
    assert report.stats["ofib.strictness_instances"] == OFIB_INSTANCES
    assert _records(report)[:2] + _records(report)[-1:] == OFIB_RECORDS
