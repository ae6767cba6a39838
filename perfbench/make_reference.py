"""Write the reference snapshot that the benchmark checks outputs against.

Usage: python3 perfbench/make_reference.py

Run from a checkout whose outputs are trusted; the snapshot in this
directory was made at the commit that introduced the benchmark.  Before
writing, the snapshot is held to the facts the paper and the package
document (``check.check_snapshot``), so a wrong program cannot become the
reference silently.
"""

import json
import os
import subprocess
import sys

import check
import worker


def _ranges(rc) -> dict:
    return {str(n): [r.lower, r.upper] for n, r in sorted(rc.by_degree.items())}


def make() -> dict:
    worker.import_package()
    from g2cy import classify, g2_parabolic, invariants, koszul
    ref = {"records": {}, "diff": {}, "published": {}, "sweep": {}, "cli": []}
    for dim in (2, 3, 4, 5):
        rows = classify.enumerate_all(dim)
        diff = classify.diff_against_paper(dim)
        ref["diff"][str(dim)] = {
            "rows": [check.row_key(r.parabolic, r.summands) for r in rows],
            "matched": len(diff["matched"]),
            "extra": sorted(check.row_key(r.parabolic, r.summands) for r in diff["extra"]),
        }
        for row in rows:
            key = check.row_key(row.parabolic, row.summands)
            record = invariants.to_record(
                invariants.validate_candidate(g2_parabolic(row.parabolic), row.summands))
            del record["chi_omega1"]      # see check.py: its sign is due to change
            ref["records"][key] = record
            published = classify.published_invariants(row)
            if published is not None:
                ref["published"][key] = {
                    "published": dict(published),
                    "discrepancies": sorted(k for k, v in published.items() if record[k] != v)}
    rows = [key for d in sorted(ref["diff"]) for key in ref["diff"][d]["rows"]]
    for key, P, E, W in worker.sweep_cases(rows):
        rc = koszul.restricted_cohomology(koszul.KoszulInput(P, E, W))
        if rc.euler != int(rc.euler):
            raise ValueError(f"{key}: Euler characteristic {rc.euler!r} is not an integer")
        ref["sweep"][key] = {"h": _ranges(rc), "euler": int(rc.euler)}
    env = dict(os.environ, PYTHONPATH=worker.SRC)
    for args in worker.CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "g2cy.cli", *args], cwd=worker.ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        call = {"args": args, "exit": proc.returncode}
        if args[0] in check.EXACT_OUTPUT:
            call["stdout"] = proc.stdout
        ref["cli"].append(call)
    return ref


if __name__ == "__main__":
    snapshot = make()
    problems = check.check_snapshot(snapshot)
    if problems:
        sys.exit("refusing to write the snapshot:\n" + "\n".join(problems))
    sweep = snapshot.pop("sweep")
    for path, part in ((check.REFERENCE_PATH, snapshot), (check.SWEEP_REFERENCE_PATH, sweep)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(part, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote {check.REFERENCE_PATH}: {len(snapshot['records'])} records, "
          f"{len(snapshot['cli'])} commands; {check.SWEEP_REFERENCE_PATH}: "
          f"{len(sweep)} sweep cases")
