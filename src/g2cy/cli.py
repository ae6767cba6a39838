"""Command-line front end.

Commands
--------
roots                         root data of G2
parabolic <P>                 dim G/P, tangent representation, anticanonical
bundle <P> <summands>         rank, determinant and weights of a bundle
cohomology <P> <summands>     cohomology table of the bundle
classify --dim D [...]        enumerate candidate rows, optionally diffed
invariants <P> <summands>     full invariant record of a candidate
table <1..4>                  print a reference table verbatim

Summands are written "(a,b)" and joined with "+", e.g. "(1,0)+(2,0)".
Parabolics are named P1, P2 or B.  Exit codes: 0 success, 1 error or missing
reference row, 2 reserved for `classify --check-paper` finding extra rows
(the documented audit signal).
"""

from __future__ import annotations

import argparse
import re
import sys

from . import classify, invariants
from .cohomology import bundle_cohomology
from .errors import G2CYError
from .parabolic import g2_parabolic, g2_root_system
from .reps import RepSum, irrep_dim
from .root_system import weight_str

_WEIGHT_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for the
    # classify --check-paper discrepancy signal, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_summands(text: str) -> list[tuple[int, int]]:
    chunks = [c.strip() for c in text.split("+")]
    weights = []
    for chunk in chunks:
        m = _WEIGHT_RE.fullmatch(chunk)
        if not m:
            raise G2CYError(f"cannot parse summand {chunk!r}; expected \"(a,b)\"")
        weights.append((int(m.group(1)), int(m.group(2))))
    return weights


def _bundle(name: str, summands: str) -> RepSum:
    P = g2_parabolic(name)
    terms: dict = {}
    for w in parse_summands(summands):
        terms[w] = terms.get(w, 0) + 1
    return RepSum(P, terms)


def _display_summands(P, weights) -> str:
    ordered = sorted(weights, key=lambda w: (-irrep_dim(P, w), w))
    parts = []
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j] == ordered[i]:
            j += 1
        mult = j - i
        parts.append(weight_str(ordered[i]) + (f"^⊕{mult}" if mult > 1 else ""))
        i = j
    return " ⊕ ".join(parts)


def _emit(payload: dict, text_lines: list[str], md_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        import json  # only json output needs it; keeps it off the import path
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "md":
        print("\n".join(md_lines))
    else:
        print("\n".join(text_lines))


def _cmd_roots(args) -> int:
    rs = g2_root_system()
    payload = {
        "cartan": [list(row) for row in rs.cartan.entries],
        "symmetrizer": list(rs.symmetrizer),
        "positive_roots": [{
            "weight": list(r.weight),
            "simple_coords": list(r.simple_coords),
            "coroot_coords": list(r.coroot_coords),
            "long": r.long,
        } for r in rs.positive_roots],
        "count": len(rs.positive_roots),
        "weyl_order": rs.weyl_order(),
        "rho": list(rs.weyl_vector),
    }
    text = [f"Cartan matrix: {payload['cartan']}, symmetrizer {tuple(rs.symmetrizer)}",
            "positive roots (weight | simple coords | length):"]
    for r in rs.positive_roots:
        text.append(f"  {weight_str(r.weight):>9} | {r.simple_coords} | "
                    f"{'long' if r.long else 'short'}")
    text += [f"count: {payload['count']}",
             f"Weyl group order: {payload['weyl_order']}",
             f"rho: {weight_str(rs.weyl_vector)}"]
    md = ["| root | simple coords | length |", "| --- | --- | --- |"]
    md += [f"| {weight_str(r.weight)} | {r.simple_coords} | "
           f"{'long' if r.long else 'short'} |" for r in rs.positive_roots]
    md += ["", f"{payload['count']} positive roots, Weyl order "
           f"{payload['weyl_order']}, rho = {weight_str(rs.weyl_vector)}"]
    _emit(payload, text, md, args.format)
    return 0


def _cmd_parabolic(args) -> int:
    P = g2_parabolic(args.parabolic)
    payload = {
        "name": P.label,
        "crossed": sorted(P.crossed),
        "levi_rank": P.levi_rank,
        "dim": P.dim,
        "tangent": [{"highest": list(w), "mult": m, "dim": irrep_dim(P, w)}
                    for w, m in P.tangent.sorted_terms()],
        "anticanonical": list(P.anticanonical),
    }
    text = [f"{P.label}: crossed nodes {sorted(P.crossed)}, dim G/P = {P.dim}",
            f"tangent representation g/p = {P.tangent}",
            f"anticanonical det(g/p) = {weight_str(P.anticanonical)}"]
    md = [f"**{P.label}**: dim G/P = {P.dim}, g/p = {P.tangent}, "
          f"det(g/p) = {weight_str(P.anticanonical)}"]
    _emit(payload, text, md, args.format)
    return 0


def _cmd_bundle(args) -> int:
    r = _bundle(args.parabolic, args.summands)
    P = r.parabolic
    weights = r.weights()
    payload = {
        "parabolic": P.label,
        "summands": [list(w) for w, m in sorted(r.terms.items()) for _ in range(m)],
        "rank": r.rank,
        "det": list(r.det),
        "weights": [[list(w), c] for w, c in sorted(weights.items())],
    }
    text = [f"bundle {r} on G/{P.label}",
            f"rank {r.rank}, det {weight_str(r.det)}",
            "weights: " + ", ".join(f"{weight_str(w)}×{c}" if c > 1 else weight_str(w)
                                    for w, c in sorted(weights.items()))]
    md = [f"E = {r} on G/{P.label}: rank {r.rank}, det {weight_str(r.det)}"]
    _emit(payload, text, md, args.format)
    return 0


def _cmd_cohomology(args) -> int:
    r = _bundle(args.parabolic, args.summands)
    table = bundle_cohomology(r.parabolic, r)
    payload = table.to_json()
    payload["bundle"] = str(r)
    text = [f"H^*(G/{r.parabolic.label}, {r}):", table.render()]
    md = [f"cohomology of {r} on G/{r.parabolic.label}:", "```", table.render(), "```"]
    _emit(payload, text, md, args.format)
    return 0


def _cmd_classify(args) -> int:
    dim = args.dim
    if args.parabolic:
        rows = classify.enumerate_candidates(g2_parabolic(args.parabolic), dim)
    else:
        rows = classify.enumerate_all(dim)
    numbered = [(n, row, _display_summands(g2_parabolic(row.parabolic), row.summands))
                for n, row in enumerate(rows, start=1)]
    payload = {
        "dim_X": dim,
        "rows": [{"no": n, "parabolic": row.parabolic,
                  "summands": [list(w) for w in row.summands],
                  "split": row.split}
                 for n, row, _ in numbered],
    }
    text = [f"candidates with dim X = {dim}:"]
    md = ["| No. | P | E |", "| --- | --- | --- |"]
    for n, row, shown in numbered:
        text.append(f"  {n:>2}. {row.parabolic:<3} {shown}")
        md.append(f"| {n} | {row.parabolic} | {shown} |")

    code = 0
    if args.check_paper:
        if args.parabolic:
            raise G2CYError("--check-paper compares whole tables; drop --parabolic")
        diff = classify.diff_against_paper(dim)
        payload["check"] = {
            "matched": len(diff["matched"]),
            "missing": len(diff["missing"]),
            "extra": [{"parabolic": row.parabolic,
                       "summands": [list(w) for w in row.summands]}
                      for row in diff["extra"]],
        }
        summary = (f"reference check: {len(diff['matched'])} matched, "
                   f"{len(diff['missing'])} missing, {len(diff['extra'])} extra")
        text.append(summary)
        md += ["", summary]
        for row in diff["extra"]:
            P = g2_parabolic(row.parabolic)
            line = (f"EXTRA row not in the reference table: {row.parabolic} "
                    f"{_display_summands(P, row.summands)}")
            text.append(line)
            md.append(line)
        if diff["extra"]:
            code = 2
    _emit(payload, text, md, args.format)
    return code


def _cmd_invariants(args) -> int:
    r = _bundle(args.parabolic, args.summands)
    summand_list = [w for w, m in r.terms.items() for _ in range(m)]
    cand = invariants.validate_candidate(r.parabolic, summand_list)
    record = invariants.to_record(cand)
    published = classify.published_invariants(cand.P.label,
                                              [tuple(w) for w in cand.summands])
    if published:
        matches = {}
        for key in ("deg", "c2H", "h11", "h12"):
            matches[key] = record.get(key) == published[key]
        record["published"] = dict(published)
        record["published"]["matches"] = matches
        record["discrepancies"] = [
            f"computed {key} = {record.get(key)} differs from published {published[key]}"
            for key, ok in matches.items() if not ok]
    text = [f"invariants of {cand}:"]
    for key in ("rank", "dim_X", "det", "h0q", "h11", "h12", "chi_omega1",
                "deg", "c2H", "euler"):
        text.append(f"  {key}: {record[key]}")
    for line in record.get("discrepancies", []):
        text.append("  DISCREPANCY: " + line)
    md = list(text)
    _emit(record, text, md, args.format)
    return 0


def _cmd_table(args) -> int:
    rows = classify.reference_tables()[args.number]
    dim = {v: k for k, v in classify.DIM_TO_TABLE.items()}[args.number]
    payload = {
        "table": args.number,
        "dim_X": dim,
        "rows": [{"no": n, "parabolic": row.parabolic,
                  "summands": [list(w) for w in row.summands]}
                 for n, row in enumerate(rows, start=1)],
    }
    text = [f"reference table {args.number} (dim X = {dim}):"]
    md = ["| No. | P | E |", "| --- | --- | --- |"]
    for n, row in enumerate(rows, start=1):
        P = g2_parabolic(row.parabolic)
        shown = _display_summands(P, row.summands)
        text.append(f"  {n:>2}. {row.parabolic:<3} {shown}")
        md.append(f"| {n} | {row.parabolic} | {shown} |")
    _emit(payload, text, md, args.format)
    return 0


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "md", "json"), default="text")
    common.add_argument("--seed", type=int, default=None,
                        help="accepted for harness compatibility; ignored "
                             "(all computation is deterministic)")
    parser = _Parser(prog="g2cy", description=__doc__, parents=[common],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("roots", help="root data of G2", parents=[common])

    p = sub.add_parser("parabolic", help="data of one parabolic", parents=[common])
    p.add_argument("parabolic", choices=("P1", "P2", "B"))

    for name, fn_help in (("bundle", "rank/det/weights of a bundle"),
                          ("cohomology", "cohomology table of a bundle"),
                          ("invariants", "invariant record of a candidate")):
        p = sub.add_parser(name, help=fn_help, parents=[common])
        p.add_argument("parabolic", choices=("P1", "P2", "B"))
        p.add_argument("summands", help='e.g. "(1,0)+(2,0)"')

    p = sub.add_parser("classify", help="enumerate candidate rows", parents=[common])
    p.add_argument("--dim", type=int, required=True, choices=(2, 3, 4, 5))
    p.add_argument("--parabolic", choices=("P1", "P2", "B"))
    p.add_argument("--check-paper", action="store_true",
                   help="diff against the reference table; exit 2 on extra rows")

    p = sub.add_parser("table", help="print a reference table", parents=[common])
    p.add_argument("number", type=int, choices=(1, 2, 3, 4))

    return parser


_DISPATCH = {
    "roots": _cmd_roots,
    "parabolic": _cmd_parabolic,
    "bundle": _cmd_bundle,
    "cohomology": _cmd_cohomology,
    "classify": _cmd_classify,
    "invariants": _cmd_invariants,
    "table": _cmd_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except G2CYError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
