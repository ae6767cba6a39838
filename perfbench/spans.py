"""Span tracing around the package's public functions, installed from outside.

The package's modules import each other's functions by name (``koszul``
calls its own ``tensor``, ``invariants`` its own ``restricted_cohomology``),
so :meth:`Tracer.install` replaces a function in every ``g2cy`` module that
holds it, not only in its home module.  Spans (name, start, end, parent,
item) are kept in memory and written out at the end; a span's self time is
its duration minus the time its child spans cover.  The bookkeeping a span
does after its end timestamp (the tallies of :meth:`Tracer._after_decompose`
and :meth:`Tracer._after_restricted`) is timed too, and counts as covered by
that child, so no layer's self time holds tracer work.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns

#: functions that get a span: their calls and self time are reported
SPANNED = (
    ("reps", "decompose"), ("reps", "tensor"), ("reps", "exterior_power"), ("reps", "dual"),
    ("cohomology", "bundle_cohomology"),
    ("koszul", "e1_page"), ("koszul", "restricted_cohomology"), ("koszul", "hilbert_value"),
    ("invariants", "degree_and_c2"), ("invariants", "hodge_numbers"), ("invariants", "to_record"),
    ("classify", "enumerate_all"), ("classify", "diff_against_paper"),
    ("cli", "main"),
)

#: functions called too often, for too little work each, to carry a span:
#: only their calls are counted
COUNTED = (("cohomology", "bwb_irrep"), ("cohomology", "weyl_dim"))


class Tracer:
    """Records spans while :attr:`active`; wrappers pass straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("q")
        #: time spent in the span's ``after`` bookkeeping, past its end
        self.hook = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        #: ratios' numerators and denominators, summed over calls
        self.tallies: dict[str, int] = {}
        self.active = False
        self.current_item = -1

    def _tally(self, name: str, amount: int) -> None:
        self.tallies[name] = self.tallies.get(name, 0) + amount

    def _after_decompose(self, args, kwargs, result) -> None:
        multiset = args[1] if len(args) > 1 else kwargs["multiset"]
        self._tally("reps.decompose.weights_in", sum(dict(multiset).values()))

    def _after_restricted(self, args, kwargs, result) -> None:
        ranges = list(result.by_degree.values())
        self._tally("koszul.restricted_cohomology.determined", sum(r.determined for r in ranges))
        self._tally("koszul.restricted_cohomology.reported", len(ranges))

    def _spanned(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        after = {"reps.decompose": self._after_decompose,
                 "koszul.restricted_cohomology": self._after_restricted}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.item.append(self.current_item)
            self.end.append(0)
            self.hook.append(0)
            self.stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
                self.hook[idx] = perf_counter_ns() - self.end[idx]
            return result
        return wrapper

    def _counted(self, name: str, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every listed function that is loaded, wherever it is looked up."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "g2cy" or n.startswith("g2cy."))]
        for make, targets in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for mod_name, fn_name in targets:
                home = sys.modules.get("g2cy." + mod_name)
                if home is None:
                    continue
                original = getattr(home, fn_name)
                wrapper = make(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def totals(self) -> dict:
        """Summed calls and self time per span name, plus counts and tallies."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i] + self.hook[i]
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_ns[name] += self.end[i] - self.start[i] - child_ns[i]
        return {"calls": calls, "self_ns": self_ns, "counts": dict(self.counts),
                "tallies": dict(self.tallies)}

    def spans(self) -> dict:
        """The recorded spans, column by column."""
        return {"names": list(self.names),
                "name": self.name_id.tolist(), "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(), "hook_ns": self.hook.tolist(),
                "parent": self.parent.tolist(), "item": self.item.tolist()}


def merge_totals(into: dict, other: dict) -> dict:
    """Add one set of :meth:`Tracer.totals` to another."""
    for section, values in other.items():
        target = into.setdefault(section, {})
        for key, value in values.items():
            target[key] = target.get(key, 0) + value
    return into


def write_spans(path: str, span_sets: list[dict]) -> None:
    """Write span columns from one or more tracers as one JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "hook_ns", "parent", "item"],
                   "sets": span_sets}, fh, separators=(",", ":"))
