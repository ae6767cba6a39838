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
Parabolics are named P1, P2 or B.  --format and --seed (ignored: output is
deterministic) go before or after the command, the later winning; options are
spelt in full, as --opt value or --opt=value, and <command> -h shows its usage.
Exit codes: 0 success, 1 error or missing reference row, 2 reserved for
`classify --check-paper` finding extra rows (the documented audit signal).

Layout (the text above is the top-level ``--help``): ``_COMMANDS`` holds each
command's handler, arguments and one-line help; ``parse_args`` reads argv against
it in one pass.  Each ``_cmd_*`` returns ``(payload, text_lines, md_lines)``;
``main`` alone prints, and exits 2 exactly when ``payload["check"]["extra"]`` is
non-empty.  A closed stdout exits 1.  Each handler imports ``classify``,
``cohomology`` or ``invariants`` itself.
"""

from __future__ import annotations

import os
import re
import sys
from collections import Counter
from types import SimpleNamespace

from .errors import G2CYError
from .parabolic import G2_PARABOLIC_NAMES, g2_parabolic, g2_root_system
from .reps import RepSum
from .root_system import weight_str

_WEIGHT_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


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
    return RepSum(g2_parabolic(name), Counter(parse_summands(summands)))


def _display_summands(row) -> str:
    """The summands of a table row by descending rank, repeats as ``^⊕m``."""
    P = g2_parabolic(row.parabolic)
    counts = sorted(Counter(row.summands).items(),
                    key=lambda wm: (-P.string_length(wm[0]), wm[0]))
    return " ⊕ ".join(weight_str(w) + (f"^⊕{m}" if m > 1 else "") for w, m in counts)


def _numbered(header: str, rows, split: bool = False):
    """Payload rows, ``  n. P  E`` text lines and ``| n | P | E |`` md lines."""
    items, text, md = [], [header], ["| No. | P | E |", "| --- | --- | --- |"]
    for n, row in enumerate(rows, start=1):
        item = {"no": n, "parabolic": row.parabolic,
                "summands": [list(w) for w in row.summands]}
        if split:
            item["split"] = row.split
        items.append(item)
        shown = _display_summands(row)
        text.append(f"  {n:>2}. {row.parabolic:<3} {shown}")
        md.append(f"| {n} | {row.parabolic} | {shown} |")
    return items, text, md


def _cmd_roots(args):
    rs = g2_root_system()
    payload = {
        "cartan": [list(row) for row in rs.cartan.entries],
        "symmetrizer": list(rs.symmetrizer),
        "positive_roots": [{"weight": list(r.weight), "simple_coords": list(r.simple_coords),
                            "coroot_coords": list(r.coroot_coords), "long": r.long}
                           for r in rs.positive_roots],
        "count": len(rs.positive_roots),
        "weyl_order": rs.weyl_order(),
        "rho": list(rs.weyl_vector),
    }
    rho = weight_str(rs.weyl_vector)
    text = [f"Cartan matrix: {payload['cartan']}, symmetrizer {tuple(rs.symmetrizer)}",
            "positive roots (weight | simple coords | length):"]
    md = ["| root | simple coords | length |", "| --- | --- | --- |"]
    for r in rs.positive_roots:
        length = "long" if r.long else "short"
        text.append(f"  {weight_str(r.weight):>9} | {r.simple_coords} | {length}")
        md.append(f"| {weight_str(r.weight)} | {r.simple_coords} | {length} |")
    text += [f"count: {payload['count']}", f"Weyl group order: {payload['weyl_order']}",
             f"rho: {rho}"]
    md += ["", f"{payload['count']} positive roots, Weyl order "
           f"{payload['weyl_order']}, rho = {rho}"]
    return payload, text, md


def _cmd_parabolic(args):
    P = g2_parabolic(args.parabolic)
    payload = {"name": P.label, "crossed": sorted(P.crossed), "levi_rank": P.levi_rank,
               "dim": P.dim, "anticanonical": list(P.anticanonical),
               "tangent": [{"highest": list(w), "mult": m, "dim": P.string_length(w)}
                           for w, m in P.tangent.sorted_terms()]}
    det = weight_str(P.anticanonical)
    text = [f"{P.label}: crossed nodes {sorted(P.crossed)}, dim G/P = {P.dim}",
            f"tangent representation g/p = {P.tangent}",
            f"anticanonical det(g/p) = {det}"]
    md = [f"**{P.label}**: dim G/P = {P.dim}, g/p = {P.tangent}, det(g/p) = {det}"]
    return payload, text, md


def _cmd_bundle(args):
    r = _bundle(args.parabolic, args.summands)
    P = r.parabolic
    weights = sorted(r.weights().items())
    payload = {"parabolic": P.label, "rank": r.rank, "det": list(r.det),
               "summands": [list(w) for w, m in sorted(r.terms.items()) for _ in range(m)],
               "weights": [[list(w), c] for w, c in weights]}
    text = [f"bundle {r} on G/{P.label}",
            f"rank {r.rank}, det {weight_str(r.det)}",
            "weights: " + ", ".join(f"{weight_str(w)}×{c}" if c > 1 else weight_str(w)
                                    for w, c in weights)]
    md = [f"E = {r} on G/{P.label}: rank {r.rank}, det {weight_str(r.det)}"]
    return payload, text, md


def _cmd_cohomology(args):
    from .cohomology import bundle_cohomology, euler_char, weyl_dim
    r = _bundle(args.parabolic, args.summands)
    P = r.parabolic
    groups = {}
    for q, group in bundle_cohomology(P, r).items():
        irreps = [{"weight": list(mu), "mult": m, "dim": weyl_dim(P.rs, mu)}
                  for mu, m in group.items()]
        groups[str(q)] = {"dim": sum(i["mult"] * i["dim"] for i in irreps), "irreps": irreps}
    payload = {"parabolic": P.label, "bundle": str(r), "groups": groups, "euler": euler_char(P, r)}
    shown = []
    for q, g in groups.items():
        terms = " + ".join((f"{i['mult']}·" if i["mult"] > 1 else "")
                           + "V" + weight_str(i["weight"]) for i in g["irreps"])
        shown.append(f"H^{q} = {terms}, dim {g['dim']}")
    shown = shown or ["all cohomology vanishes"]
    return (payload, [f"H^*(G/{P.label}, {r}):", *shown],
            [f"cohomology of {r} on G/{P.label}:", "```", *shown, "```"])


def _cmd_classify(args):
    from . import classify
    dim = args.dim
    if args.check_paper and args.parabolic:
        raise G2CYError("--check-paper compares whole tables; drop --parabolic")
    if args.parabolic:
        rows = classify.enumerate_candidates(g2_parabolic(args.parabolic), dim)
    elif args.check_paper:
        diff = classify.diff_against_paper(dim)
        rows = diff["computed"]
    else:
        rows = classify.enumerate_all(dim)
    items, text, md = _numbered(f"candidates with dim X = {dim}:", rows, split=True)
    payload = {"dim_X": dim, "rows": items}
    if args.check_paper:
        extra = diff["extra"]
        payload["check"] = {"matched": len(diff["matched"]), "missing": len(diff["missing"]),
                            "extra": [{"parabolic": row.parabolic,
                                       "summands": [list(w) for w in row.summands]}
                                      for row in extra]}
        lines = [f"reference check: {len(diff['matched'])} matched, "
                 f"{len(diff['missing'])} missing, {len(extra)} extra"]
        lines += [f"EXTRA row not in the reference table: {row.parabolic} "
                  f"{_display_summands(row)}" for row in extra]
        text += lines
        md += ["", *lines]
    return payload, text, md


def _cmd_invariants(args):
    from . import classify, invariants
    cand = invariants.validate_candidate(g2_parabolic(args.parabolic),
                                         parse_summands(args.summands))
    record = invariants.to_record(cand)
    published = classify.published_invariants(cand.P.label, cand.summands)
    if published:
        matches = {key: record.get(key) == published[key]
                   for key in ("deg", "c2H", "h11", "h12")}
        record["published"] = dict(published, matches=matches)
        record["discrepancies"] = [
            f"computed {key} = {record.get(key)} differs from published {published[key]}"
            for key, ok in matches.items() if not ok]
    text = [f"invariants of {cand}:"]
    text += [f"  {key}: {record[key]}" for key in ("rank", "dim_X", "det", "h0q", "h1q",
                                                   "h11", "h12", "chi_omega1", "deg", "c2H",
                                                   "euler")]
    text += ["  DISCREPANCY: " + line for line in record.get("discrepancies", [])]
    return record, text, text


def _cmd_table(args):
    from . import classify
    dim = {v: k for k, v in classify.DIM_TO_TABLE.items()}[args.number]
    items, text, md = _numbered(f"reference table {args.number} (dim X = {dim}):",
                                classify.reference_tables()[args.number])
    return {"table": args.number, "dim_X": dim, "rows": items}, text, md


#: what an argument accepts: a tuple of choices (read by ``int`` first when
#: they are ints), ``int`` or ``str`` for any such value, or ``bool`` for a flag
_COMMON = {"--format": ("text", "md", "json"), "--seed": int}
_P, _E = ("parabolic", G2_PARABOLIC_NAMES), ("summands", str)

#: command: (handler, positionals, options, required options, one-line help)
_COMMANDS = {
    "roots": (_cmd_roots, (), {}, (), "root data of G2"),
    "parabolic": (_cmd_parabolic, (_P,), {}, (), "dim G/P, tangent representation, anticanonical"),
    "bundle": (_cmd_bundle, (_P, _E), {}, (), "rank, determinant and weights of a bundle"),
    "cohomology": (_cmd_cohomology, (_P, _E), {}, (), "cohomology table of the bundle"),
    "classify": (_cmd_classify, (), {"--dim": (2, 3, 4, 5), "--parabolic": G2_PARABOLIC_NAMES,
                                     "--check-paper": bool}, ("--dim",),
                 "enumerate candidate rows; --check-paper diffs them against the paper"),
    "invariants": (_cmd_invariants, (_P, _E), {}, (), "full invariant record of a candidate"),
    "table": (_cmd_table, (("number", (1, 2, 3, 4)),), {}, (), "print a reference table verbatim"),
}
#: ``g2cy`` before its command, whose help is the module docstring up to "Layout"
_TOP = (None, (("command", tuple(_COMMANDS)),), {}, (), (__doc__ or "").partition("\n\nLayout")[0])


def _usage(command) -> str:
    _, positionals, options, required, _ = _COMMANDS.get(command, _TOP)
    words = ["usage: g2cy", *filter(None, [command]), "[-h]"]
    for name, kind in [*_COMMON.items(), *options.items(), *positionals]:
        value = ("{" + ",".join(map(str, kind)) + "}" if isinstance(kind, tuple)
                 else name.lstrip("-").upper())
        word = name if kind is bool else f"{name} {value}" if name[0] == "-" else value
        words.append(word if name in required or name[0] != "-" else f"[{word}]")
    return " ".join(words) + (" ..." if command is None else "")


def parse_args(argv) -> SimpleNamespace:
    """The namespace the ``_cmd_*`` handlers read, from one pass over ``argv``: help
    exits 0 on stdout, a usage error 1 with the usage line and the error on stderr."""
    args = SimpleNamespace(command=None, run=None, format="text", seed=None, parabolic=None,
                           summands=None, number=None, dim=None, check_paper=False)
    positionals, required, options = _TOP[1], (), _COMMON

    def fail(message):
        print(f"{_usage(args.command)}\ng2cy: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def value(name, kind, text):
        try:
            v = int(text) if kind is int or kind is not str and type(kind[0]) is int else text
        except ValueError:
            fail(f"argument {name}: invalid int value: {text!r}")
        if isinstance(kind, tuple) and v not in kind:
            fail(f"argument {name}: invalid choice: {text!r} "
                 f"(choose from {', '.join(map(str, kind))})")
        return v

    tokens = iter(argv)
    for token in tokens:
        name, eq, text = token.partition("=")
        kind = options.get(token if options.get(name) is bool else name)  # no flag=value
        if token in ("-h", "--help"):
            print(f"{_usage(args.command)}\n\n{_COMMANDS.get(args.command, _TOP)[-1]}")
            raise SystemExit(0)
        if not token.startswith("-") and positionals:
            (name, kind), *positionals = positionals
            setattr(args, name, value(name, kind, token))
            if name == "command":
                args.run, positionals, more, required, _ = _COMMANDS[token]
                options = {**_COMMON, **more}
        elif kind is None:
            fail(f"unrecognized argument: {token}")
        elif kind is bool:
            setattr(args, name[2:].replace("-", "_"), True)
        elif eq or (text := next(tokens, None)) is not None:
            setattr(args, name[2:], value(name, kind, text))
        else:
            fail(f"argument {name}: expected one argument")
    missing = [n for n, _ in positionals] + [n for n in required if getattr(args, n[2:]) is None]
    if missing:
        fail("the following arguments are required: " + ", ".join(missing))
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        payload, text, md = args.run(args)
    except G2CYError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        import json  # only json output needs it; keeps it off the import path
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(md if args.format == "md" else text))
    return 2 if payload.get("check", {}).get("extra") else 0


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so the flush at
        # interpreter exit cannot raise again (the recipe in the `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
