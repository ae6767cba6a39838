"""The record path, pinned: every output against a golden file, and its Python call count.

``tests/data/records_golden.json`` holds :func:`snapshot` as it was before the
record path was trimmed to fewer Python calls: the 22 records of the
classified rows (dims 2-5, the extra G/B row included) and, for each of the
486 Koszul pages of :func:`conftest.koszul_sweep_inputs`, its E1 entries in
order, its per-degree limit ranges and its Euler number.  There is no
regeneration switch; a changed output is a failure that names the first key
that differs.
"""

import gc
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from g2cy import (diff_against_paper, e1_page, enumerate_all, g2_parabolic, g2_root_system,
                  restricted_cohomology, to_record, validate_candidate)
from g2cy.cohomology import _bott_table
from g2cy.root_system import weight_str

from conftest import koszul_sweep_inputs

GOLDEN = Path(__file__).parent / "data" / "records_golden.json"
DIMS = (2, 3, 4, 5)


def classified_rows():
    """(label, summands) of every row the enumeration finds in dims 2-5."""
    return [(row.parabolic, row.summands)
            for d in DIMS for row in diff_against_paper(d)["computed"]]


def snapshot() -> dict:
    """Records keyed by row, and pages keyed by their index in the sweep."""
    records = {}
    for label, summands in classified_rows():
        key = f"{label} " + "+".join(map(weight_str, summands))
        records[key] = to_record(validate_candidate(g2_parabolic(label), summands))
    pages = {}
    for i, inp in enumerate(koszul_sweep_inputs()):
        page, rc = e1_page(inp), restricted_cohomology(inp)
        pages[f"{i:03d} {inp.P.label} E = {inp.E} W = {inp.W}"] = {
            "entries": [[k, q, d] for (k, q), d in page.entries.items()],
            "ranges": [[r.lower, r.upper] for r in rc.by_degree.values()],
            "euler": page.euler,
        }
    return {"records": records, "pages": pages}


def dump(data: dict) -> str:
    """The golden file's text: sorted keys, one record or page per line."""
    lines = []
    for section, items in data.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                          for k, v in items.items())
        lines.append(f"{json.dumps(section)}: {{\n{body}\n}}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def first_difference(expected, got, path="") -> str | None:
    """The path of the first key or index where two JSON values differ, else None."""
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in [*expected, *(k for k in got if k not in expected)]:
            if key not in expected or key not in got:
                return f"{path}[{key!r}] (only in {'expected' if key in expected else 'computed'})"
            if (diff := first_difference(expected[key], got[key], f"{path}[{key!r}]")):
                return diff
        return None
    if isinstance(expected, list) and isinstance(got, list):
        for i, (a, b) in enumerate(zip(expected, got)):
            if (diff := first_difference(a, b, f"{path}[{i}]")):
                return diff
        if len(expected) != len(got):
            return f"{path} (lengths {len(expected)}, {len(got)})"
        return None
    if type(expected) is not type(got) or expected != got:
        return f"{path}: expected {expected!r}, computed {got!r}"
    return None


def test_records_and_pages_match_the_golden_file():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(snapshot()))
    assert (len(got["records"]), len(got["pages"])) == (22, 486)
    assert first_difference(expected, got) is None, first_difference(expected, got)


def test_first_difference_names_the_key():
    assert first_difference({"a": [1, {"b": 2}]}, {"a": [1, {"b": 3}]}) == \
        "['a'][1]['b']: expected 2, computed 3"
    assert first_difference({"a": 1}, {"a": 1, "c": 2}) == "['c'] (only in computed)"
    assert first_difference([1], [1, 2]) == " (lengths 1, 2)"
    assert first_difference({"a": 1}, {"a": True}) == "['a']: expected 1, computed True"


def count_calls(fn) -> Counter:
    """Python "call" events (generator resumes included) per function during
    ``fn()``, with the garbage collector off so that no finalizer is counted."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[f"{Path(code.co_filename).name}:{code.co_name}:{code.co_firstlineno}"] += 1

    previous, enabled = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    return calls


# One warm pass on CPython 3.10/3.11, which count a frame per comprehension;
# 3.12 and later inline comprehensions and count fewer.
ITEM_CALLS = 4800
STEP_CALLS = 400


@pytest.mark.parametrize("workload, budget", [("items", ITEM_CALLS), ("steps", STEP_CALLS)])
def test_warm_pass_call_budget(workload, budget):
    rows = [(g2_parabolic(label), summands) for label, summands in classified_rows()]

    def items():
        for P, summands in rows:
            to_record(validate_candidate(P, summands))

    def steps():
        for d in DIMS:
            enumerate_all(d)
            diff_against_paper(d)

    fn = {"items": items, "steps": steps}[workload]
    _bott_table(g2_root_system()).clear()     # a table refilled by this pass, never cleared in it
    fn()
    calls = count_calls(fn)
    total = sum(calls.values())
    assert total <= budget, f"{total} calls: {calls.most_common(15)}"
