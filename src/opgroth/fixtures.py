"""Standard fixtures shared across modules and tests.

All builders return fresh values; everything here is small enough to
rebuild on demand.
"""

from __future__ import annotations

from .fincore import (
    FinCat,
    discrete_category,
    make_category,
    monoid_category,
    poset_category,
)

# the graded three-element monoid: unit p, and q,r with r.r = q
GRADE_ELEMENTS = ("p", "q", "r")
GRADE_UNIT = "p"
GRADE_MULT = {
    ("p", "p"): "p", ("p", "q"): "q", ("p", "r"): "r",
    ("q", "p"): "q", ("q", "q"): "q", ("q", "r"): "r",
    ("r", "p"): "r", ("r", "q"): "r", ("r", "r"): "q",
}
GRADE_DEGREE = {"p": "0", "q": "0", "r": "1"}

Z2_ELEMENTS = ("0", "1")
Z2_ADD = {
    ("0", "0"): "0", ("0", "1"): "1",
    ("1", "0"): "1", ("1", "1"): "0",
}


def walk() -> FinCat:
    """Free category on one arrow u: a -> b."""
    return make_category("WALK", ["a", "b"], [("u", "a", "b")])


def dz2() -> FinCat:
    """Discrete category on {0, 1}."""
    return discrete_category("DZ2", ["0", "1"])


def l2() -> FinCat:
    """The poset 0 <= 1 as a category (a meet-semilattice)."""
    return poset_category("L2", ["0", "1"], [("0", "1")])


def chain3() -> FinCat:
    return poset_category("CHAIN3", ["0", "1", "2"], [("0", "1"), ("1", "2")])


def span() -> FinCat:
    """x -> y, x -> z."""
    return poset_category("SPAN", ["x", "y", "z"], [("x", "y"), ("x", "z")])


def cospan() -> FinCat:
    """x -> z <- y."""
    return poset_category("COSPAN", ["x", "y", "z"], [("x", "z"), ("y", "z")])


def parallel_pair() -> FinCat:
    """Two parallel arrows a => b."""
    return make_category("PAR", ["a", "b"], [("u", "a", "b"), ("v", "a", "b")])


def bz2() -> FinCat:
    """The group Z/2 as a one-object category."""
    return monoid_category("BZ2", Z2_ELEMENTS, Z2_ADD, "0")
