"""Output checks against the reference snapshot, and a self-test of the checks.

The snapshot (``reference.json``, with the sweep cases in
``reference-sweep.json``) was generated by ``make_reference.py`` at the commit
that introduced this benchmark.  The rules are the ones the
package's correctness promise needs:

* a value determined in the snapshot keeps that value and stays determined;
* a value only bounded in the snapshot may narrow, or become determined, but
  must stay inside its snapshot range;
* Euler characteristics match exactly.  Values are compared by value, so an
  ``int`` and an integral ``float`` (``E1Page.euler`` can return ``220.0``)
  compare equal.

``chi_omega1`` is left out of every comparison: the package documents it as
chi(Omega^1_X) but computes its negative, and the planned sign fix must not
read as a wrong answer.

Every check returns a list of problems; an empty list means the output passed.
This module imports nothing from the package, so it also runs where the
package is missing or broken.
"""

from __future__ import annotations

import copy
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: the sweep's cases, apart, so the other workloads need not hold them
SWEEP_REFERENCE_PATH = os.path.join(HERE, "reference-sweep.json")

#: commands whose whole standard output is compared with the snapshot: none of
#: them prints a bounded value or ``chi_omega1``
EXACT_OUTPUT = ("roots", "parabolic", "bundle", "cohomology", "table")

#: keys of an invariant record compared against the snapshot
_RECORD_KEYS = ("parabolic", "summands", "rank", "dim_X", "det", "h0q", "h11", "h12",
                "euler", "deg", "c2H", "chi_samples", "statuses")


def load_reference(sweep: bool = True) -> dict:
    """The snapshot; without the sweep's cases unless ``sweep``."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    if sweep:
        with open(SWEEP_REFERENCE_PATH, encoding="utf-8") as fh:
            ref["sweep"] = json.load(fh)
    return ref


def row_key(parabolic: str, summands) -> str:
    """Stable text key of a classification row, e.g. ``B (1,0)+(1,2)``."""
    return parabolic + " " + "+".join(f"({a},{b})" for a, b in summands)


def parse_key(key: str) -> tuple[str, tuple[tuple[int, int], ...]]:
    """Inverse of :func:`row_key`."""
    label, summands = key.split(" ")
    return label, tuple(tuple(int(x) for x in w.strip("()").split(","))
                        for w in summands.split("+"))


def invariants_key(args: list[str]) -> str:
    """Row key of the bundle in ``invariants <P> <summands> ...``."""
    return row_key(*parse_key(f"{args[1]} {args[2]}"))


def as_range(value) -> tuple[int, int] | None:
    """A reported dimension as (lower, upper).

    Accepts an integer, a ``{"lower", "upper"}`` dict as the package's JSON
    writes bounds, or a (lower, upper) pair.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)) and value == int(value):
        return int(value), int(value)
    if isinstance(value, dict) and set(value) == {"lower", "upper"}:
        return value["lower"], value["upper"]
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return value[0], value[1]
    return None


def check_range(where: str, new, ref) -> list[str]:
    """A dimension against its snapshot: determined stays, bounded only narrows."""
    got, want = as_range(new), as_range(ref)
    if want is None:
        raise ValueError(f"{where}: malformed reference value {ref!r}")
    if got is None:
        return [f"{where}: {new!r} is not a dimension"]
    lo, hi = got
    ref_lo, ref_hi = want
    if ref_lo == ref_hi:
        if got != want:
            return [f"{where}: determined value {ref_lo} became {_show(got)}"]
        return []
    if not ref_lo <= lo <= hi <= ref_hi:
        return [f"{where}: {_show(got)} is not inside the snapshot range {_show(want)}"]
    return []


def _show(r: tuple[int, int]) -> str:
    return str(r[0]) if r[0] == r[1] else f"[{r[0]}..{r[1]}]"


def _is_determined(value) -> bool:
    r = as_range(value)
    return r is not None and r[0] == r[1]


def check_record(new: dict, ref: dict) -> list[str]:
    """An invariant record (``to_record`` or ``invariants --format json``)."""
    where = ref["parabolic"] + " " + json.dumps(ref["summands"])
    problems = []
    missing = [k for k in _RECORD_KEYS if k in ref and k not in new]
    if missing:
        return [f"{where}: record lacks {missing}"]
    for key in ("parabolic", "summands", "rank", "dim_X", "det", "chi_samples"):
        if key in ref and new[key] != ref[key]:
            problems.append(f"{where}: {key} = {new[key]!r}, snapshot {ref[key]!r}")
    if not isinstance(new["h0q"], list) or len(new["h0q"]) != len(ref["h0q"]):
        problems.append(f"{where}: h0q = {new['h0q']!r}, snapshot {ref['h0q']!r}")
    else:
        for q, (a, b) in enumerate(zip(new["h0q"], ref["h0q"])):
            problems += check_range(f"{where}: h0{q}", a, b)
    for key in ("h11", "h12"):
        if ref[key] is None:
            if new[key] is not None:
                problems.append(f"{where}: {key} = {new[key]!r} where the snapshot has none")
        else:
            problems += check_range(f"{where}: {key}", new[key], ref[key])
    problems += _check_euler(where, new, ref)
    for key in ("deg", "c2H"):
        # a value the snapshot lacks (G/B has Picard rank two) is a new
        # computed extension with no snapshot to hold it to
        if ref[key] is not None and new[key] != ref[key]:
            problems.append(f"{where}: {key} = {new[key]!r}, snapshot {ref[key]!r}")
    problems += _check_statuses(where, new)
    return problems


def _check_euler(where: str, new: dict, ref: dict) -> list[str]:
    euler = new["euler"]
    if ref["euler"] is not None:
        return [] if euler == ref["euler"] else [
            f"{where}: euler = {euler!r}, snapshot {ref['euler']!r}"]
    if euler is None:
        return []
    if ref["h11"] is None:
        return [f"{where}: euler = {euler!r} where the snapshot has none"]
    lo11, hi11 = as_range(ref["h11"])
    lo12, hi12 = as_range(ref["h12"])
    if not 2 * (lo11 - hi12) <= euler <= 2 * (hi11 - lo12):
        return [f"{where}: euler = {euler!r} outside the snapshot bounds "
                f"[{2 * (lo11 - hi12)}..{2 * (hi11 - lo12)}]"]
    if _is_determined(new["h11"]) and _is_determined(new["h12"]):
        if euler != 2 * (as_range(new["h11"])[0] - as_range(new["h12"])[0]):
            return [f"{where}: euler = {euler!r} differs from 2(h11 - h12)"]
    return []


def _check_statuses(where: str, new: dict) -> list[str]:
    """Each status must say what its value shows: a single number or bounds."""
    statuses = new["statuses"]
    problems = []
    pairs = [(f"h0{q}", v, s) for q, (v, s) in
             enumerate(zip(new["h0q"], statuses.get("h0q", [])))]
    pairs += [(k, new[k], statuses.get(k)) for k in ("h11", "h12", "euler", "deg", "c2H")]
    for name, value, status in pairs:
        if value is None:
            ok = status in ("not_applicable", "undetermined")
        elif status == "determined":
            ok = _is_determined(value)
        else:
            ok = status == "bounded" and as_range(value) is not None and not _is_determined(value)
        if not ok:
            problems.append(f"{where}: status {status!r} does not match {name} = {value!r}")
    return problems


def count_undetermined(record: dict) -> tuple[int, int]:
    """(undetermined, reported) over the statuses of one record."""
    statuses = []
    for value in record["statuses"].values():
        statuses += value if isinstance(value, list) else [value]
    reported = [s for s in statuses if s != "not_applicable"]
    return sum(s != "determined" for s in reported), len(reported)


def check_published(key: str, record: dict, published: dict | None, ref: dict) -> list[str]:
    """Comparison with the published values of the two indecomposable rows."""
    want = ref["published"].get(key)
    if want is None:
        return []
    if published != want["published"]:
        return [f"{key}: published values {published!r}, snapshot {want['published']!r}"]
    mismatched = sorted(k for k, v in published.items() if record.get(k) != v)
    if mismatched != want["discrepancies"]:
        return [f"{key}: discrepancies {mismatched}, expected {want['discrepancies']}"]
    return []


def check_diff(dim: int, rows: list[str], diff: dict, ref: dict) -> list[str]:
    """``enumerate_all`` and ``diff_against_paper`` for one fibre dimension."""
    want = ref["diff"][str(dim)]
    problems = []
    if sorted(rows) != sorted(want["rows"]):
        problems.append(f"dim {dim}: enumeration {sorted(rows)} differs from {sorted(want['rows'])}")
    if diff["missing"]:
        problems.append(f"dim {dim}: reference rows missing: {diff['missing']}")
    if len(diff["matched"]) != want["matched"]:
        problems.append(f"dim {dim}: {len(diff['matched'])} rows matched, expected {want['matched']}")
    if sorted(diff["extra"]) != want["extra"]:
        problems.append(f"dim {dim}: extra rows {sorted(diff['extra'])}, expected {want['extra']}")
    return problems


def check_sweep_case(key: str, h: dict[int, tuple[int, int]], euler, e1_euler,
                     direct_euler, ref: dict) -> list[str]:
    """One restricted-cohomology case of the Koszul sweep.

    ``h`` maps each reported total degree to (lower, upper).  A degree absent
    on either side reads as a determined zero.
    """
    want = ref["sweep"][key]
    ref_h = {int(n): r for n, r in want["h"].items()}
    problems = []
    for n in sorted(set(h) | set(ref_h)):
        problems += check_range(f"{key}: h^{n}", h.get(n, (0, 0)), ref_h.get(n, (0, 0)))
    if not euler == e1_euler == direct_euler == want["euler"]:
        problems.append(f"{key}: euler restricted {euler!r}, E1 {e1_euler!r}, "
                        f"Koszul sum {direct_euler!r}, snapshot {want['euler']!r}")
    return problems


def sweep_undetermined(key: str, h: dict[int, tuple[int, int]], ref: dict) -> int:
    """Snapshot degrees of one case that are still only bounded."""
    return sum(not _is_determined(h.get(int(n), (0, 0))) for n in ref["sweep"][key]["h"])


def check_cli_call(args: list[str], returncode: int, stdout: str, ref: dict) -> list[str]:
    """One ``g2cy`` call: its exit code, its output where the snapshot holds it
    whole, and the values of ``invariants`` JSON."""
    want = next((c for c in ref["cli"] if c["args"] == args), None)
    if want is None:
        raise ValueError(f"no snapshot for g2cy {args}")
    name = "g2cy " + " ".join(args)
    problems = []
    if returncode != want["exit"]:
        problems.append(f"{name}: exit code {returncode}, expected {want['exit']}")
    if not stdout.strip():
        problems.append(f"{name}: no output")
    if "stdout" in want and stdout != want["stdout"]:
        problems.append(f"{name}: output differs from the snapshot's")
    if args[0] == "invariants":
        try:
            record = json.loads(stdout)
        except ValueError as exc:
            return problems + [f"{name}: output is not JSON ({exc})"]
        key = invariants_key(args)
        problems += check_record(record, ref["records"][key])
        published = {k: v for k, v in record.get("published", {}).items() if k != "matches"}
        problems += check_published(key, record, published or None, ref)
        # each discrepancy the values show must also be reported as one
        if len(record.get("discrepancies", [])) != len(ref["published"][key]["discrepancies"]):
            problems.append(f"{name}: reports discrepancies {record.get('discrepancies')!r}")
    return problems


#: values the snapshot must hold: the paper's, and the documented deviations
KNOWN_VALUES = {
    "P1 (1,1)": {"deg": 42, "c2H": 84, "h11": 1, "h12": 50},
    "P2 (1,1)": {"deg": 14, "c2H": 56, "h11": 1, "h12": 50},
}
#: P2 (1,1): the published c2H = 50 fails integrality of chi(O_X(1)); 56 is kept
KNOWN_DISCREPANCIES = {"P1 (1,1)": [], "P2 (1,1)": ["c2H"]}
#: rows per reference table, by fibre dimension, and the one documented extra row
KNOWN_MATCHED = {"2": 7, "3": 8, "4": 5, "5": 1}
KNOWN_EXTRA = {"2": [], "3": [], "4": ["B (1,2)+(1,0)"], "5": []}
SWEEP_CASES = 486


def check_snapshot(ref: dict) -> list[str]:
    """Hold a snapshot to the documented facts before anything is compared with it."""
    problems = []
    for key, values in KNOWN_VALUES.items():
        got = {k: ref["records"].get(key, {}).get(k) for k in values}
        if got != values:
            problems.append(f"snapshot {key}: {got}, expected {values}")
        if ref["published"].get(key, {}).get("discrepancies") != KNOWN_DISCREPANCIES[key]:
            problems.append(f"snapshot {key}: discrepancies {ref['published'].get(key)}")
    if ref["published"].get("P2 (1,1)", {}).get("published", {}).get("c2H") != 50:
        problems.append("snapshot P2 (1,1): published c2H is not 50")
    for dim, matched in KNOWN_MATCHED.items():
        diff = ref["diff"].get(dim, {})
        if diff.get("matched") != matched or diff.get("extra") != KNOWN_EXTRA[dim]:
            problems.append(f"snapshot dim {dim}: {diff.get('matched')} matched, "
                            f"extra {diff.get('extra')}")
    if len(ref["records"]) != sum(KNOWN_MATCHED.values()) + 1:
        problems.append(f"snapshot has {len(ref['records'])} records, expected 22")
    if len(ref["sweep"]) != SWEEP_CASES:
        problems.append(f"snapshot has {len(ref['sweep'])} sweep cases, expected {SWEEP_CASES}")
    exits = {" ".join(c["args"]): c["exit"] for c in ref["cli"]}
    if {a: e for a, e in exits.items() if e} != {"classify --dim 4 --check-paper": 2}:
        problems.append(f"snapshot exit codes {exits}: only classify --dim 4 "
                        "--check-paper should exit nonzero, with 2")
    whole = sorted(" ".join(c["args"]) for c in ref["cli"] if c.get("stdout"))
    if whole != sorted(" ".join(c["args"]) for c in ref["cli"] if c["args"][0] in EXACT_OUTPUT):
        problems.append(f"snapshot holds the output of {whole}, expected those of {EXACT_OUTPUT}")
    return problems


def self_test(ref: dict) -> list[str]:
    """Feed the checks corrupted results; return the corruptions they let through.

    Each corruption is one a faster but wrong program could produce: a
    determined value off by one, a range wider than the snapshot's, a float
    Euler characteristic that is off, a wrong exit code, or changed output.  Each accepted
    variant must pass, so the checks are not merely rejecting everything.
    """
    escaped = []

    def expect(name: str, problems: list[str], rejected: bool) -> None:
        if bool(problems) != rejected:
            escaped.append(f"{name}: {'accepted' if rejected else 'rejected'} {problems}")

    p1 = ref["records"]["P1 (1,1)"]
    expect("P1 (1,1) as in the snapshot", check_record(copy.deepcopy(p1), p1), False)
    for key in ("h12", "deg", "c2H", "euler"):
        bad = copy.deepcopy(p1)
        bad[key] += 1
        expect(f"P1 (1,1) {key} off by one", check_record(bad, p1), True)
    bad = copy.deepcopy(p1)
    bad["h0q"][0] = {"lower": 1, "upper": 2}
    expect("P1 (1,1) determined h00 turned into a bound", check_record(bad, p1), True)
    bad = copy.deepcopy(p1)
    bad["chi_omega1"] = 49     # -49 at the snapshot's commit
    expect("P1 (1,1) chi_omega1 sign flipped", check_record(bad, p1), False)

    gb = ref["records"]["B (2,0)+(0,1)+(0,1)"]
    lo, hi = as_range(gb["h12"])
    for new, rejected in (({"lower": lo, "upper": hi + 1}, True),
                          ({"lower": lo + 1, "upper": hi - 1}, False),
                          (hi + 1, True), (58, False)):
        bad = copy.deepcopy(gb)
        bad["h12"] = new
        bad["statuses"]["h12"] = "determined" if isinstance(new, int) else "bounded"
        expect(f"G/B h12 {new!r} against {_show((lo, hi))}", check_record(bad, gb), rejected)

    key = next(k for k, v in ref["sweep"].items()
               if any(lo == hi > 0 for lo, hi in v["h"].values()))
    case = ref["sweep"][key]
    h = {int(n): tuple(r) for n, r in case["h"].items()}
    e = case["euler"]
    expect("sweep case as in the snapshot", check_sweep_case(key, h, e, float(e), e, ref), False)
    n = next(n for n, (lo, hi) in h.items() if lo == hi > 0)
    off = dict(h)
    off[n] = (h[n][0] + 1, h[n][0] + 1)
    expect("sweep determined degree off by one", check_sweep_case(key, off, e, e, e, ref), True)
    expect("sweep E1 Euler off by one", check_sweep_case(key, h, e, e + 1.0, e, ref), True)
    capped = next(k for k, v in ref["sweep"].items()
                  if any(lo < hi for lo, hi in v["h"].values()))
    hc = {int(n): tuple(r) for n, r in ref["sweep"][capped]["h"].items()}
    n = next(n for n, (lo, hi) in hc.items() if lo < hi)
    wide = dict(hc)
    wide[n] = (hc[n][0], hc[n][1] + 1)
    ec = ref["sweep"][capped]["euler"]
    expect("sweep range wider than the snapshot", check_sweep_case(capped, wide, ec, ec, ec, ref), True)

    inv = ["invariants", "P1", "(1,1)", "--format", "json"]
    published = ref["published"]["P1 (1,1)"]["published"]
    shown = dict(p1, chi_omega1=-49, discrepancies=[],
                 published=dict(published, matches={k: True for k in published}))
    expect("invariants JSON as in the snapshot", check_cli_call(inv, 0, json.dumps(shown), ref),
           False)
    expect("invariants JSON h12 off by one",
           check_cli_call(inv, 0, json.dumps(dict(shown, h12=51)), ref), True)

    dim4 = ["classify", "--dim", "4", "--check-paper"]
    expect("dim-4 --check-paper exit 2", check_cli_call(dim4, 2, "x", ref), False)
    expect("dim-4 --check-paper exit 0", check_cli_call(dim4, 0, "x", ref), True)
    roots = next(c["stdout"] for c in ref["cli"] if c["args"] == ["roots"])
    expect("roots as in the snapshot", check_cli_call(["roots"], 0, roots, ref), False)
    expect("roots exit 1", check_cli_call(["roots"], 1, roots, ref), True)
    expect("roots with a changed count",
           check_cli_call(["roots"], 0, roots.replace("count: 6", "count: 7"), ref), True)
    return escaped


if __name__ == "__main__":
    import sys
    failures = self_test(load_reference())
    for line in failures:
        print("SELF-TEST FAILED:", line)
    print("checker self-test:", "failed" if failures else "passed")
    sys.exit(1 if failures else 0)
