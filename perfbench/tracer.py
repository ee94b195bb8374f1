"""Trace spans around opgroth's public functions, recorded from outside the package.

`Tracer.install` rebinds every public function of the layer modules, and
the private lax-functor checkers, to a wrapper in every ``opgroth``
module namespace and module-level dict that holds it.  Most wrappers
record a span (name, start, end, parent, run id).  Helpers in `COUNT_ONLY` are called millions of times per pass,
so they only count calls and their time stays in the caller's self time.
Spans stay in memory and are written out once, after the pass.
"""

from __future__ import annotations

import collections
import fnmatch
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("fincore", "operads", "fib2cat", "groth", "omon", "ogroth", "dsl", "cli", "report")

# Public helpers measured at more than 2,000 calls in one pass of some workload.
COUNT_ONLY = frozenset(
    {
        "fincore.fiber",
        "fincore.fiber_sizes",
        "fincore.induced_fiber_map",
        "fincore.fm_compose",
        "fincore.tuple_label",
        "fincore.all_maps",
        "fincore.block_permutation",
        "fincore.factorize_monotone_perm",
        "fib2cat.set_product",
        "fib2cat.fn_compose",
        "omon.o_set_product",
        "omon.o_fn_product",
        "omon.set_regroup",
        "omon.phi_key_render",
        "omon.xi_key_render",
        "omon.nu_key_render",
        "operads.perm_label",
        "operads.qconv_label",
        "operads.qconv_coords",
    }
)

# Private functions that carry a layer's work on their own, traced like public ones.
PRIVATE_SPANS = ("omon._check_table_lax", "omon._check_set_lax")

# Self time (span duration minus the time its child spans cover), summed
# over the spans whose name matches one of the patterns.
SELF_TIME = {
    "cli.self_s": ("cli.*",),
    "dsl.parse_s": ("dsl.parse_spec_file",),
    "dsl.write_s": ("dsl.ser_*", "dsl.pretty_print", "dsl.DocBuilder.text"),
    "fincore.validate_s": ("fincore.validate_*",),
    "operads.check_s": ("operads.check_*",),
    "omon.check_s": ("omon.check_omon_category",),
    "omon.lax_check_s": ("omon.check_lax_omon_functor", "omon._check_*_lax", "omon.check_omon_transformation"),
    "ogroth.check_laxtoset_s": ("ogroth.check_laxtoset",),
    "ogroth.check_ofib_s": ("ogroth.check_ofib_object",),
    "ogroth.cell_check_s": (
        "ogroth.check_ocell",
        "ogroth.check_ofib_cell",
        "ogroth.check_o2cell",
        "ogroth.check_ofib_2cell",
    ),
    "ogroth.construct_s": ("ogroth.omon_groth", "ogroth.omon_transpose"),
    "ogroth.roundtrip_self_s": ("ogroth.omon_roundtrip_check",),
    "groth.construct_s": ("groth.groth_apply", "groth.transpose_apply"),
    "groth.roundtrip_s": ("groth.roundtrip_report",),
    "fib2cat.check_s": (
        "fib2cat.check_discrete_fibration",
        "fib2cat.validate_indexed_set",
        "fib2cat.validate_dfib_cell",
        "fib2cat.validate_iset_cell",
    ),
}

# Number of calls of one traced function or method.
CALLS = {
    "cli.commands": "cli.run_command",
    "report.records": "report.CheckRecord",
    "report.merge_calls": "report.CheckReport.merge",
    "fincore.fiber_calls": "fincore.fiber",
    "fincore.induced_fiber_map_calls": "fincore.induced_fiber_map",
    "operads.compose_calls": "operads.Operad.compose",
    "omon.check_calls": "omon.check_omon_category",
}

# Instances a checker reports, per second of its outermost spans.
RATES = {
    "operads.assoc_instances_per_s": ("operads.assoc_instances", "operads.check_operad_axioms"),
    "omon.assoc_instances_per_s": ("omon.assoc_instances", "omon.check_omon_category"),
}


def _stat(key: str, tally: str):
    def observe(tracer: "Tracer", report) -> None:
        tracer.add(tally, report.stats.get(key, 0))

    return observe


# Values read off the results of traced calls, summed per tally name.
OBSERVERS = {
    "operads.check_operad_axioms": _stat("operad.assoc_instances", "operads.assoc_instances"),
    "omon.check_omon_category": _stat("omon.assoc_instances", "omon.assoc_instances"),
    "dsl.parse_spec_file": lambda tracer, doc: tracer.add("dsl.sections", len(doc.sections)),
    "dsl.DocBuilder.text": lambda tracer, text: tracer.add("dsl.bytes_written", len(text.encode("utf-8"))),
}

TALLIES = ("operads.assoc_instances", "omon.assoc_instances", "dsl.sections", "dsl.bytes_written")


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Tracer:
    """Spans and counters for one traced pass of one workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._counters: dict[str, itertools.count] = {}
        self._tallies = collections.Counter()
        self._lock = threading.Lock()
        self._compose_keys: dict[int, tuple[object, set, int]] = {}
        self._compose_repeats = itertools.count()
        self._verdict = 0
        self._composing_verdicts: set[int] = set()
        self._reusing_verdicts: set[int] = set()

    def begin_verdict(self) -> None:
        """Mark the start of the next verdict of the pass."""
        self._verdict += 1

    def add(self, tally: str, n: int) -> None:
        with self._lock:
            self._tallies[tally] += n

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _span(self, fn, name: str, observe=None):
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs under the main thread's open span
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def _count(self, fn, name: str):
        counter = self._counters.setdefault(name, itertools.count())
        tick = counter.__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _compose(self, fn):
        """Count `Operad.compose` calls and those whose (operad, key) came before.

        Also notes which verdicts compose on an operad that an earlier
        verdict of the pass composed on first.
        """
        tick = self._counters.setdefault("operads.Operad.compose", itertools.count()).__next__
        repeat = self._compose_repeats.__next__
        seen, lock = self._compose_keys, self._lock

        @functools.wraps(fn)
        def wrapper(operad, f, p, qs):
            tick()
            qs = tuple(qs)
            key = (f.target, f.values, p, qs)
            with lock:  # the --jobs 2 verdict calls compose from two threads
                # the entry keeps the operad alive, so its id() is not reused
                entry = seen.get(id(operad))
                if entry is None:
                    entry = seen[id(operad)] = (operad, set(), self._verdict)
                self._composing_verdicts.add(self._verdict)
                if entry[2] != self._verdict:
                    self._reusing_verdicts.add(self._verdict)
                if key in entry[1]:
                    repeat()
                else:
                    entry[1].add(key)
            return fn(operad, f, p, qs)

        return wrapper

    def install(self) -> None:
        """Rebind opgroth's public functions and traced methods to wrappers."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"opgroth.{layer}")
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") and name not in PRIVATE_SPANS:
                    continue
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                if name in COUNT_ONLY:
                    wrappers[value] = self._count(value, name)
                else:
                    wrappers[value] = self._span(value, name, OBSERVERS.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "opgroth" and not modname.startswith("opgroth."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            value[key] = wrappers[item]

        from opgroth.dsl import DocBuilder
        from opgroth.operads import Operad
        from opgroth.report import CheckRecord, CheckReport

        Operad.compose = self._compose(Operad.compose)
        CheckReport.merge = self._count(CheckReport.merge, "report.CheckReport.merge")
        CheckRecord.__init__ = self._count(CheckRecord.__init__, "report.CheckRecord")
        DocBuilder.text = self._span(
            DocBuilder.text, "dsl.DocBuilder.text", OBSERVERS["dsl.DocBuilder.text"]
        )

    def stop(self) -> None:
        """Read the counters once the traced pass is over."""
        calls = collections.Counter(name for _, _, name, _, _ in self.spans)
        for name, counter in self._counters.items():
            calls[name] += next(counter)
        self.calls = dict(calls)
        self.compose_repeats = next(self._compose_repeats)

    def operad_reuse(self) -> tuple[int, int]:
        """(verdicts composing on an operad an earlier verdict used, verdicts composing at all)."""
        return len(self._reusing_verdicts), len(self._composing_verdicts)

    def self_times(self) -> dict[str, float]:
        children = collections.defaultdict(list)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = collections.defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - _covered(children.get(sid, []), start, end)
        return out

    def outer_times(self) -> dict[str, float]:
        """Inclusive time per name, counting only spans with no same-named ancestor."""
        by_id = {sid: (parent, name) for sid, parent, name, _, _ in self.spans}
        out = collections.defaultdict(float)
        for _, parent, name, start, end in self.spans:
            while parent is not None and by_id[parent][1] != name:
                parent = by_id[parent][0]
            if parent is None:
                out[name] += end - start
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, which needs the untraced pass.

        Call after `stop`.
        """
        calls = self.calls
        self_times = self.self_times()
        metrics: dict[str, float] = {}
        for metric, patterns in SELF_TIME.items():
            metrics[metric] = sum(
                t for name, t in self_times.items()
                if any(fnmatch.fnmatchcase(name, pat) for pat in patterns)
            )
        for metric, name in CALLS.items():
            metrics[metric] = calls.get(name, 0)
        for tally in TALLIES:
            metrics[tally] = self._tallies[tally]
        outer = self.outer_times()
        for metric, (tally, name) in RATES.items():
            seconds = outer.get(name, 0.0)
            metrics[metric] = self._tallies[tally] / seconds if seconds > 0 else 0.0
        compose_calls = metrics["operads.compose_calls"]
        metrics["operads.compose_repeat_ratio"] = self.compose_repeats / compose_calls if compose_calls else 0.0
        return metrics

    def write(self, path) -> None:
        """Write the spans as JSON lines, then one line with the call counts."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"run": self.run_id, "id": sid, "parent": parent,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
            handle.write(json.dumps({"run": self.run_id, "calls": self.calls}) + "\n")
