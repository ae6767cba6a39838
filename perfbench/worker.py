"""Run one workload in this fresh process and print its raw results as JSON.

Usage: python3 perfbench/worker.py --workload records|sweep|cli --seed N
       --seconds S --trace 0|1

``run.py`` starts one of these per workload phase, so peak memory and warm
caches never leak from one workload into another.  The seed only orders the
inputs; the classification fixes the inputs themselves.  Every output is
checked against the snapshot outside the timed region.

Times are CPU times: of this process for ``records`` and ``sweep``, of each
child interpreter for ``cli``.  The work is single-threaded and runs in a
closed loop with one client, so on an idle machine they equal the wall-clock
latency; on a shared one they leave out the time spent waiting for a CPU.

Every workload also times a fixed control between its items, in the same
way as the items: :func:`control_loop` in this process, or a bare
interpreter start (:data:`CONTROL_ARGV`) for ``cli``.  A shared host's speed
drifts by up to a third over minutes, the same for the control as for the
package; ``run.py`` scales the timings by the control to cancel that drift.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
from array import array
from time import process_time_ns

import check
from spans import Tracer, merge_totals, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: span files of traced runs
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")

#: the README commands; ``classify --dim 4 --check-paper`` exits 2 (extra row)
CLI_COMMANDS = (
    ["roots"],
    ["parabolic", "P1"],
    ["bundle", "P2", "(0,1)+(0,4)"],
    ["cohomology", "P1", "(-3,0)"],
    ["classify", "--dim", "3", "--check-paper", "--format", "md"],
    ["invariants", "P1", "(1,1)", "--format", "json"],
    ["table", "2"],
    ["classify", "--dim", "4", "--check-paper"],
)

#: the control of ``cli``, timed after each pass
CONTROL_ARGV = (sys.executable, "-c", "pass")
#: the sweep times :func:`control_loop` after this many cases
SWEEP_CONTROL_EVERY = 22

#: coefficient weights of the sweep are the p-dominant ones in this box
SWEEP_BOX = 2


def import_package():
    """Import ``g2cy`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import g2cy
    if not os.path.abspath(g2cy.__file__).startswith(SRC + os.sep):
        raise ImportError(f"g2cy imported from {g2cy.__file__}, not from {SRC}")
    return g2cy


def sweep_cases(row_keys) -> list[tuple]:
    """(key, P, E, W) for every (row, coefficient) pair of the Koszul sweep.

    Coefficients: O, E*, Omega_F and every p-dominant irreducible with both
    coordinates in [-SWEEP_BOX, SWEEP_BOX].
    """
    from g2cy import g2_parabolic, invariants, reps
    cases = []
    for key in row_keys:
        label, summands = check.parse_key(key)
        P = g2_parabolic(label)
        E = invariants.validate_candidate(P, summands).rep
        coefficients = [("O", reps.trivial(P)), ("E*", reps.dual(P, E)),
                        ("Omega_F", reps.dual(P, P.tangent))]
        box = range(-SWEEP_BOX, SWEEP_BOX + 1)
        coefficients += [(f"({a},{b})", reps.irrep(P, (a, b)))
                         for a in box for b in box if P.is_p_dominant((a, b))]
        cases += [(f"{key} | {name}", P, E, W) for name, W in coefficients]
    return cases


class Results:
    """What one worker measured and found."""

    def __init__(self):
        #: ms of every timed run of each input, and of each timed step that is
        #: not an item; 8 bytes a run, so memory barely grows with the run time
        self.items: dict[str, array] = {}
        self.steps: dict[str, array] = {}
        self.failed = 0
        self.errors: list[str] = []
        self.timed_ns = 0
        self.passes = 0
        self.undetermined = 0
        self.reported = 0
        self.extra: dict = {}
        #: ms of each run of the workload's control
        self.control = array("d")

    def item(self, key: str, ns: int, problems: list[str]) -> None:
        self.step(key, ns, self.items)
        if problems:
            self.failed += 1
            self.errors += problems[: max(0, 5 - len(self.errors))]

    def step(self, key: str, ns: int, section: dict | None = None) -> None:
        section = self.steps if section is None else section
        section.setdefault(key, array("d")).append(ns / 1e6)
        self.timed_ns += ns

    def to_json(self, rss_mb: float) -> dict:
        return {"items": {k: v.tolist() for k, v in self.items.items()},
                "steps": {k: v.tolist() for k, v in self.steps.items()},
                "control_ms": self.control.tolist(), "failed": self.failed,
                "errors": self.errors, "timed_s": self.timed_ns / 1e9, "passes": self.passes,
                "undetermined": self.undetermined, "reported": self.reported,
                "rss_mb": rss_mb, **self.extra}


def control_loop() -> int:
    """CPU ns of a fixed pure-Python load like the weight algebra's: dict
    updates keyed by small tuples.  It calls nothing in the package."""
    t0 = process_time_ns()
    counts: dict = {}
    for i in range(20_000):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
    return process_time_ns() - t0


def _failure(exc: Exception) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"]


def _checked(check_fn, *args) -> list[str]:
    """Problems found by a check; a check that raises is a failure too."""
    try:
        return check_fn(*args)
    except Exception as exc:  # malformed output must fail the item, not the run
        return _failure(exc)


def run_records(seed: int, seconds: float, ref: dict, tracer: Tracer) -> Results:
    """Passes of the full classification and invariant job, repeated in one process."""
    from g2cy import classify, g2_parabolic, invariants
    rng = random.Random(seed)
    res = Results()
    dims = sorted(int(d) for d in ref["diff"])
    rows = [(d, key) for d in dims for key in ref["diff"][str(d)]["rows"]]
    res.reported = sum(check.count_undetermined(ref["records"][k])[1] for _, k in rows)
    item_id = 0
    while res.passes == 0 or res.timed_ns < seconds * 1e9:
        rng.shuffle(dims)
        rng.shuffle(rows)
        dim_problems = {}
        tracer.current_item = -1
        for d in dims:
            tracer.active = True
            t0 = process_time_ns()
            try:
                found = classify.enumerate_all(d)
                diff = classify.diff_against_paper(d)
            except Exception as exc:  # a failing call fails the items it feeds
                found, dim_problems[d] = None, _failure(exc)
            dt = process_time_ns() - t0
            tracer.active = False
            res.step(f"enumerate and diff, dim {d}", dt)
            if found is None:
                continue
            dim_problems[d] = _checked(_check_dim, d, found, diff, ref)
        undetermined = 0
        for d, key in rows:
            label, summands = check.parse_key(key)
            P = g2_parabolic(label)
            tracer.current_item = item_id
            item_id += 1
            tracer.active = True
            t0 = process_time_ns()
            try:
                record = invariants.to_record(invariants.validate_candidate(P, summands))
            except Exception as exc:
                record, problems = None, _failure(exc)
            dt = process_time_ns() - t0
            tracer.active = False
            if record is not None:
                problems = _checked(_check_row, key, record, ref)
            if problems:    # a failed row counts all its values as undetermined
                undetermined += check.count_undetermined(ref["records"][key])[1]
            else:
                undetermined += check.count_undetermined(record)[0]
            res.item(key, dt, dim_problems[d] + problems)
        res.control.append(control_loop() / 1e6)
        res.undetermined = max(res.undetermined, undetermined)
        res.passes += 1
    return res


def run_sweep(seed: int, ref: dict, tracer: Tracer) -> Results:
    """One pass of restricted cohomology over every (row, coefficient) pair."""
    from g2cy import koszul
    rows = [key for d in sorted(ref["diff"]) for key in ref["diff"][d]["rows"]]
    cases = sweep_cases(rows)
    if sorted(c[0] for c in cases) != sorted(ref["sweep"]):
        raise RuntimeError("sweep cases differ from the snapshot's")
    random.Random(seed).shuffle(cases)
    res = Results()
    res.reported = sum(len(v["h"]) for v in ref["sweep"].values())
    for item_id, (key, P, E, W) in enumerate(cases):
        tracer.current_item = item_id
        tracer.active = True
        t0 = process_time_ns()
        try:
            inp = koszul.KoszulInput(P, E, W)
            rc = koszul.restricted_cohomology(inp)
        except Exception as exc:
            rc, problems = None, _failure(exc)
        dt = process_time_ns() - t0
        tracer.active = False
        if rc is not None:
            problems = _checked(_check_case, key, inp, rc, ref)
        if problems:
            res.undetermined += len(ref["sweep"][key]["h"])
        else:
            h = {n: (r.lower, r.upper) for n, r in rc.by_degree.items()}
            res.undetermined += check.sweep_undetermined(key, h, ref)
        res.item(key, dt, problems)
        if item_id % SWEEP_CONTROL_EVERY == 0:
            res.control.append(control_loop() / 1e6)
    res.passes = 1
    return res


def _check_dim(d: int, found, diff: dict, ref: dict) -> list[str]:
    keys = {name: sorted(check.row_key(r.parabolic, r.summands) for r in diff[name])
            for name in ("matched", "missing", "extra")}
    return check.check_diff(d, [check.row_key(r.parabolic, r.summands) for r in found],
                            keys, ref)


def _check_row(key: str, record: dict, ref: dict) -> list[str]:
    from g2cy import classify
    label, summands = check.parse_key(key)
    return check.check_record(record, ref["records"][key]) + check.check_published(
        key, record, classify.published_invariants(label, summands), ref)


def _check_case(key: str, inp, rc, ref: dict) -> list[str]:
    """Snapshot ranges, and E1 Euler = restricted Euler = the Koszul alternating sum."""
    from g2cy import cohomology, koszul
    h = {n: (r.lower, r.upper) for n, r in rc.by_degree.items()}
    direct = sum((-1) ** k * cohomology.euler_char(inp.P, term)
                 for k, term in enumerate(koszul.koszul_terms(inp)))
    return check.check_sweep_case(key, h, rc.euler, koszul.e1_page(inp).euler, direct, ref)


def children_cpu_ns() -> int:
    """CPU time of every child process that has ended and been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


def run_cli(seed: int, seconds: float, ref: dict, traced: bool) -> Results:
    """Fresh ``g2cy`` interpreters, one at a time: a closed loop with one client.

    Each call is timed by the CPU time of its interpreter, and so is the
    control after each pass.
    """
    rng = random.Random(seed)
    env = dict(os.environ, PYTHONPATH=SRC)
    res = Results()
    res.reported = sum(check.count_undetermined(ref["records"][check.invariants_key(a)])[1]
                       for a in CLI_COMMANDS if a[0] == "invariants")
    commands = list(CLI_COMMANDS)
    totals: dict = {}
    span_sets = []
    import_ns = 0
    child_out = os.path.join(SPANS_DIR, "cli-call.json")
    item_id = 0
    while res.passes == 0 or res.timed_ns < seconds * 1e9:
        rng.shuffle(commands)
        undetermined = 0
        for args in commands:
            if traced:
                argv = [sys.executable, os.path.join(HERE, "cli_child.py"), child_out, *args]
            else:
                argv = [sys.executable, "-m", "g2cy.cli", *args]
            t0 = children_cpu_ns()
            try:
                proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                      text=True, timeout=120)
            except subprocess.TimeoutExpired as exc:
                proc, problems = None, _failure(exc)
            dt = children_cpu_ns() - t0
            if proc is not None:
                problems = _checked(check.check_cli_call, args, proc.returncode,
                                    proc.stdout, ref)
                if args[0] == "invariants" and not problems:
                    undetermined += check.count_undetermined(json.loads(proc.stdout))[0]
                if traced and proc.returncode in (0, 2):
                    with open(child_out, encoding="utf-8") as fh:
                        child = json.load(fh)
                    merge_totals(totals, child["totals"])
                    import_ns += child["import_ns"]
                    span_sets.append(dict(child["spans"], item=[item_id] * len(
                        child["spans"]["name"])))
            res.item(" ".join(args), dt, problems)
            item_id += 1
        t0 = children_cpu_ns()
        subprocess.run(CONTROL_ARGV, cwd=ROOT, env=env, capture_output=True, timeout=120,
                       check=True)
        res.control.append((children_cpu_ns() - t0) / 1e6)
        res.undetermined = max(res.undetermined, undetermined)
        res.passes += 1
    if traced:
        res.extra = {"totals": totals, "import_ns": import_ns}
        write_spans(os.path.join(SPANS_DIR, "spans-cli.json"), span_sets)
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("records", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ref = check.load_reference(sweep=args.workload == "sweep")
    os.makedirs(SPANS_DIR, exist_ok=True)
    if args.workload == "cli":
        res = run_cli(args.seed, args.seconds, ref, bool(args.trace))
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        import_package()
        import g2cy.classify, g2cy.invariants, g2cy.koszul  # noqa: F401  (load before patching)
        tracer = Tracer()
        if args.trace:
            tracer.install()
        if args.workload == "records":
            res = run_records(args.seed, args.seconds, ref, tracer)
        else:
            res = run_sweep(args.seed, ref, tracer)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            res.extra["totals"] = tracer.totals()
            write_spans(os.path.join(SPANS_DIR, f"spans-{args.workload}.json"),
                        [tracer.spans()])
    print(json.dumps(res.to_json(rss)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
