"""Known answers for every verdict the benchmark times.

Nothing here is read from the program under test: counts come from a
naive transcription of the operad-axiom formula, carrier sizes from the
closed forms of the builtin operads, and exit codes and witness
fragments are written out by hand.  A verdict whose outcome differs from
its answer here counts as wrong.
"""

from __future__ import annotations

import itertools
import math

# fixture file -> exit code of `opgroth check FILE` at the default arity
CHECK_EXIT = {
    "walk.cat": 0,
    "broken_unit.cat": 1,
    "broken_syntax.cat": 2,
    "incomplete.cat": 2,
    "grade.laxtoset": 0,
    "l2.laxtoset": 0,
    "qconv.laxtoset": 0,
    "corpus_small.spec": 0,
    "corpus_omon.spec": 0,
}

# exit codes of the other cli-mix commands, by command name
COMMAND_EXIT = {
    "groth": 0,
    "transpose": 0,
    "ogroth": 0,
    "otranspose": 0,
    "roundtrip": 0,
    "operad-table": 0,
    "oroundtrip": 0,
    "recheck": 0,
}

# operad sections of the fixtures: (file, section) -> (family, max arity)
FIXTURE_OPERADS = {
    ("grade.laxtoset", "Assoc_3"): ("assoc", 3),
    ("l2.laxtoset", "Comm_3"): ("comm", 3),
    ("qconv.laxtoset", "QConv_Bool__3"): ("qconv", 3),
    ("corpus_omon.spec", "Assoc_3"): ("assoc", 3),
    ("corpus_omon.spec", "Comm_3"): ("comm", 3),
    ("corpus_omon.spec", "QConv_Bool__3"): ("qconv", 3),
}

# witness fragment each shipped single-entry mutation must name, in the
# order `omon_single_entry_mutations` yields them (arity 3)
MUTATION_WITNESSES = {
    "DZ2": (
        "tensor[p=[1,2]",
        "phi[f=[1,1],p=[1],q=([1,2]),A=(0,0)]",
        "phi[f=[1,2],p=[1,2],q=([1],[1]),A=(0,0)]",
    ),
    "L2": (
        "tensor[p=*",
        "phi[f=[1,1],p=*,q=(*),A=(0,0)]",
        "phi[f=[1,2],p=*,q=(*,*),A=(0,0)]",
    ),
    "grade": (
        "tensor[p=[1,2]",
        "phi[f=[1,1],p=[1],q=([1,2]),A=(p,p)]",
        "phi[f=[1,2],p=[1,2],q=([1],[1]),A=(p,p)]",
    ),
}


def carrier_sizes(family: str, max_arity: int) -> list[int]:
    """Number of operations of each arity 0..max_arity.

    assoc has the n! orderings, comm one operation per arity, and qconv
    over the Boolean semiring the 2**n - 1 nonzero coordinate vectors.
    """
    if family == "assoc":
        return [math.factorial(n) for n in range(max_arity + 1)]
    if family == "comm":
        return [1] * (max_arity + 1)
    if family == "qconv":
        return [2**n - 1 for n in range(max_arity + 1)]
    raise ValueError(f"unknown operad family {family!r}")


def _maps(m: int, n: int):
    """All functions {1..m} -> {1..n} as value tuples."""
    return itertools.product(range(1, n + 1), repeat=m)


def _fiber_lengths(values: tuple[int, ...], n: int) -> list[int]:
    return [sum(1 for v in values if v == i) for i in range(1, n + 1)]


def _weight(sizes: list[int], values: tuple[int, ...], n: int) -> int:
    """Number of (p, qs) pairs an ordinal map with these values admits."""
    w = sizes[n]
    for length in _fiber_lengths(values, n):
        w *= sizes[length]
    return w


def composition_key_count(sizes: list[int]) -> int:
    """Number of (f, p, qs) composition keys up to the top arity."""
    top = len(sizes) - 1
    return sum(
        _weight(sizes, values, n)
        for n in range(top + 1)
        for m in range(top + 1)
        for values in _maps(m, n)
    )


def naive_axiom_counts(sizes: list[int]) -> dict[str, int]:
    """Instance counts of an exhaustive operad-axiom check.

    Associativity has one instance per composable pair of ordinal maps
    g: l -> m, f: m -> n and every choice of outer, middle and inner
    operations; each unit law has one instance per operation.
    """
    top = len(sizes) - 1
    assoc = 0
    for n in range(top + 1):
        for m in range(top + 1):
            for f in _maps(m, n):
                wf = _weight(sizes, f, n)
                for ell in range(top + 1):
                    for g in _maps(ell, m):
                        wg = 1
                        for length in _fiber_lengths(g, m):
                            wg *= sizes[length]
                        assoc += wf * wg
    unit = sum(sizes)
    return {
        "operad.assoc_instances": assoc,
        "operad.unit_identity_instances": unit,
        "operad.unit_terminal_instances": unit,
    }
