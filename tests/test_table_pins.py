"""Pins on the tables of the structures and set-valued families that are
built from rules: every tensor entry (identity entries included), every
structure isomorphism and comparison entry, with the names of the
categories, objects, morphisms and element labels, hashed.  Entries are
sorted, so only the contents are pinned, not the insertion order.
"""

import hashlib

import pytest

from opgroth.ogroth import (
    grade_laxtoset,
    l2_laxtoset,
    omon_groth,
    qconv_or_omon,
    qconv_proj_laxtoset,
)
from opgroth.omon import (
    dz2_assoc_omon,
    extend_unbiased_to_assoc,
    grade_assoc_omon,
    l2_unbiased,
    product_omon,
    twisted_bz2_unbiased,
    z2_unbiased,
)


def _cat(c):
    return (
        c.name,
        c.objects,
        c.mor_labels,
        c.mor_src,
        c.mor_tgt,
        c.identity,
        tuple(sorted(c.composition.items())),
    )


def _tensors(tables, base):
    """``tables`` maps a key to a TensorTable; entries as labels."""
    objs, mors = base.objects, base.mor_labels
    return tuple(
        sorted(
            (key, kind, tuple(names[a] for a in combo), names[value])
            for key, t in tables.items()
            for kind, names, entries in (("obj", objs, t.obj), ("mor", mors, t.mor))
            for combo, value in entries.items()
        )
    )


def _omon(c):
    objs, mors = c.base.objects, c.base.mor_labels
    phi = sorted(
        (f.label(), p, tuple(qs), tuple(objs[a] for a in combo), mors[value])
        for (f, p, qs, combo), value in c.phi.items()
    )
    return (c.name, c.operad.name, _cat(c.base), _tensors(c.tensors, c.base), tuple(phi))


def _unbiased(u):
    objs, mors = u.base.objects, u.base.mor_labels
    alpha = sorted((f.label(), tuple(objs[a] for a in combo), mors[value]) for (f, combo), value in u.alpha.items())
    return (u.name, u.max_arity, _cat(u.base), _tensors(u.tensors, u.base), tuple(alpha))


def _laxtoset(x):
    objs = x.dom.base.objects
    iset = (
        x.iset.name,
        tuple(v.labels for v in x.iset.values),
        tuple((a.dom.labels, a.cod.labels, a.mapping) for a in x.iset.actions),
    )
    nu = sorted(
        (n, p, tuple(objs[a] for a in combo), fn.dom.labels, fn.cod.labels, fn.mapping)
        for (n, p, combo), fn in x.nu.items()
    )
    return (x.name, _omon(x.dom), iset, tuple(nu))


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _twisted_assoc():
    return extend_unbiased_to_assoc(twisted_bz2_unbiased(3))


CASES = {
    **{f"z2_unbiased({k})": (lambda k=k: _unbiased(z2_unbiased(k))) for k in (2, 3, 4)},
    **{f"l2_unbiased({k})": (lambda k=k: _unbiased(l2_unbiased(k))) for k in (2, 3, 4)},
    **{f"assoc[z2_unbiased({k})]": (lambda k=k: _omon(extend_unbiased_to_assoc(z2_unbiased(k)))) for k in (2, 3, 4)},
    **{f"assoc[l2_unbiased({k})]": (lambda k=k: _omon(extend_unbiased_to_assoc(l2_unbiased(k)))) for k in (2, 3, 4)},
    "assoc[twisted(3)]": lambda: _omon(_twisted_assoc()),
    "dz2(3)xgrade(3)": lambda: _omon(product_omon(dz2_assoc_omon(3), grade_assoc_omon(3))),
    "twisted(3)xtwisted(3)": lambda: _omon(product_omon(_twisted_assoc(), _twisted_assoc())),
    **{f"qconv_or_omon({k})": (lambda k=k: _omon(qconv_or_omon(k))) for k in (2, 3, 4)},
    **{
        f"{make.__name__}({k})": (lambda make=make, k=k: _laxtoset(make(k)))
        for make in (grade_laxtoset, l2_laxtoset, qconv_proj_laxtoset)
        for k in (2, 3, 4)
    },
    **{
        f"total[{make.__name__}(3)]": (lambda make=make: _omon(omon_groth(make(3), memo={}).total_omon))
        for make in (grade_laxtoset, l2_laxtoset, qconv_proj_laxtoset)
    },
}

DIGESTS = {
    "assoc[l2_unbiased(2)]": "8c3aa62225a73e48a75631fe0ebd4a02cdedb6b8ad00ec446625d57dd376e586",
    "assoc[l2_unbiased(3)]": "1b7591dca80e5e765aa32b3d0141466de780742cdcb84ffb7e9d9d6d3c1815f4",
    "assoc[l2_unbiased(4)]": "1e262babfedb25acbae95271c81b1de1025b20d9112412fed81d2530010c8d33",
    "assoc[twisted(3)]": "2ab88b610ca626c9a7215208fc471aed2397b7cca85558fa75a29b68fdffe362",
    "assoc[z2_unbiased(2)]": "4f86125d50ed69207410ecb71c57fdaa3b2a5d37f2e216b755715be8c570f7dc",
    "assoc[z2_unbiased(3)]": "40488bc9d5021fedc9b1afc322b7fad804fc133107756fe58f67a38b6caafa2a",
    "assoc[z2_unbiased(4)]": "ff0afc8623ca70d459fe783933a63030e0041dd6a2fd34a0013040dc259887dc",
    "dz2(3)xgrade(3)": "509b5e2728066e01911ba1fa4f8fe5540c91f2a261292fc2681d5e74e79c3445",
    "grade_laxtoset(2)": "fd1781972ee1f0b7174fb384fad6532e6586f97a581178a3698e92b3fc61d51f",
    "grade_laxtoset(3)": "b75fb72ee6ee77783850b5f9fa30bb45fb6cb58b1d8c5903936dbbccd1bb2aa5",
    "grade_laxtoset(4)": "a6bc6d357a0f57e26817b88626ca626910197178af85b9a33c30e1fd77ec2dd1",
    "l2_laxtoset(2)": "f7385b363daf4f468daf6ba7b1e104242c65b4ca942b310eddf0a16a575a7c9e",
    "l2_laxtoset(3)": "cbf0fda8f8e4ace97dab789cc373443b0de68ad2d13a36b2e61c072c13c0245a",
    "l2_laxtoset(4)": "3ac667f1ac35b10d3b64995609615b039abd868aed0559334e5da3d0b7fd30b6",
    "l2_unbiased(2)": "debbe2b1204b373acff6f7f5f9c5920a6988ac04e002c81caf9bf9dd8aa76819",
    "l2_unbiased(3)": "73cbc3dc7edbf2f6a82c32e8924cbd49c2adf069b19184b2cd72ad0b152f5cd5",
    "l2_unbiased(4)": "5dcd18aa3d00f73c64546e566016a32d5db9f5482a925745fb03d3fba99e02f9",
    "qconv_or_omon(2)": "59d4af535bc1b60da5bf249172acf424d1d08c753b8481eed3fab361ceef3690",
    "qconv_or_omon(3)": "ac7d67464c40ff31f0c85d9638dd9763dba93d5e55c9eb62fe86df393a5b84d8",
    "qconv_or_omon(4)": "0e4555e07e01fcf6be4e788bd067dd9d80bce911678369681863c66fbae9e30a",
    "qconv_proj_laxtoset(2)": "294efb5b5360ac3906556cad0900b9fda2ff078ff70fe69ae8be43d35073de06",
    "qconv_proj_laxtoset(3)": "95ba9d0a16d975874e99cf31f46e7990b651826e0667f0631874a850839c62d5",
    "qconv_proj_laxtoset(4)": "9e6431644ad106abf029caa0a9e4b3dae29d0576c25fe0fd227ae67665321f5e",
    "total[grade_laxtoset(3)]": "739eff768c51382ba4a2f721d0edb8fdf1f9e6a240e9bafecad3311e01d45e45",
    "total[l2_laxtoset(3)]": "83637d16f2d149239825a5141baec6046bc58ca46a3380d3f3de63e02b2f04da",
    "total[qconv_proj_laxtoset(3)]": "cd4407c9fa8431fb5422a0ecb45e88b6579e8571f0fc4a017757822b2bfd46a4",
    "twisted(3)xtwisted(3)": "dc593afda07cb13f099f3aee538ad34e7dd9841b2cd5d4310f2f356d0adc731d",
    "z2_unbiased(2)": "dee6912983cbcdd29097a5d24a8d39630465a320f91a751030bce6d2d0c6bd28",
    "z2_unbiased(3)": "712f93c5c49bcdc1bd0d0f94bf445759e3e3233d33d2940d8577d433fa68de58",
    "z2_unbiased(4)": "3f512305424b858630176ea35b5a789a36d1223b526a80297f153f8b5318ebb3",
}


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_built_tables(name):
    assert _digest(CASES[name]()) == DIGESTS[name]
