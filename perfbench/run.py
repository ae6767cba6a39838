"""The g2cy benchmark: run one workload, check its outputs, print its metrics.

Usage:
    python3 perfbench/run.py --workload records|sweep|cli|all --seed N
                             --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Every workload phase runs in fresh worker processes
(``worker.py``), one at a time with one thread, so memory and warm caches
never leak between workloads.  Every time is CPU time of the process that
does the work, scaled by a control timed in the same run (see ``worker.py``).  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` a run without and a run with span tracing give
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Any failure to run exits 1 without that line.  See README.md
for the workloads, the metrics and what each layer is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from collections import defaultdict

import check
from spans import COUNTED, SPANNED, merge_totals
from worker import CONTROL_ARGV, children_cpu_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("records", "sweep", "cli")
#: fresh processes timed for ``setup_s``, after one untimed warm-up; half run
#: before the workload and half after, so one burst of outside load cannot
#: cover them all
SETUP_PROBES = 12
#: the sweep runs each case once per process; its best times need several
MIN_PASSES = {"records": 1, "sweep": 3, "cli": 1}
#: workloads whose inputs run once per process: the tail is taken over each
#: input's best time, not over single runs
ONE_RUN_PER_PROCESS = ("sweep",)
#: the tail is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170
#: CPU ms of each workload's control (``worker.control_loop`` in process, the
#: bare interpreter start ``worker.CONTROL_ARGV`` for ``cli`` and set-up) on
#: the machine the baseline was measured on.  Timings are scaled by this over
#: the control's best time in the same run, so they read as on that machine;
#: ``setup_s``, a median, is scaled by the median of its controls.
CONTROL_NOMINAL_MS = {"records": 5.0, "sweep": 5.0, "cli": 50.0, "setup": 50.0}

SETUP_CODE = """
import time
t0 = time.process_time()
import g2cy
g2cy.g2_root_system()
for name in ("P1", "P2", "B"):
    g2cy.g2_parabolic(name)
elapsed = time.process_time() - t0
print(g2cy.__file__)
print(repr(elapsed))
"""

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
                    "item_tail_ms": "ms", "peak_rss_mb": "MB", "determined_frac": "frac"}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, with its unit, in report order."""
    units = {}
    for mod, fn in SPANNED:
        units[f"{mod}.{fn}.calls"] = "calls/item"
        units[f"{mod}.{fn}.self_s"] = "s/item"
        if (mod, fn) == ("reps", "decompose"):
            units["reps.decompose.weights_in"] = "weights/item"
        if (mod, fn) == ("koszul", "restricted_cohomology"):
            units["koszul.restricted_cohomology.determined_frac"] = "frac"
    for mod, fn in COUNTED:
        units[f"{mod}.{fn}.calls"] = "calls/item"
    units["cli.import_s"] = "s/item"
    units["trace.overhead_frac"] = "frac"
    return units


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def measure_setup(probes: int, warm_up: bool) -> tuple[list[float], list[float]]:
    """CPU times to import g2cy and build G2 and its parabolics, each in a fresh
    process, and of the control run after each."""
    times, control = [], []
    for probe in range(probes + warm_up):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr.strip()}")
        path, elapsed = proc.stdout.split()
        if not os.path.abspath(path).startswith(SRC + os.sep):
            raise BenchmarkError(f"g2cy imported from {path}, not from {SRC}")
        t0 = children_cpu_ns()
        subprocess.run(CONTROL_ARGV, cwd=ROOT, env=_env(), capture_output=True,
                       timeout=WORKER_TIMEOUT_S, check=True)
        if probe or not warm_up:    # a warm-up also writes the bytecode caches
            times.append(float(elapsed) * 1e3)
            control.append((children_cpu_ns() - t0) / 1e6)
    return times, control


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    # its own process group, so a timeout also ends the g2cy calls it started
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchmarkError(f"{workload} worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not out.strip():
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}:\n{err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def run_phase(workload: str, seed: int, seconds: float, trace: int,
              min_passes: int) -> list[dict]:
    """Fresh workers until ``seconds`` are measured and ``min_passes`` passes run."""
    results = []
    measured = 0.0
    while not results or measured < seconds or \
            sum(r["passes"] for r in results) < min_passes:
        results.append(run_worker(workload, seed * 1000 + len(results),
                                  max(seconds - measured, 0.0), trace))
        measured += results[-1]["timed_s"]
    return results


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    k = len(ordered) - 1 - beyond
    return ordered[k], 100.0 * (k + 1) / len(ordered), beyond


def best_times(results: list[dict], section: str = "items") -> dict[str, float]:
    """Each input's (or other timed step's) best time in ms over all passes.

    Load from outside the benchmark only ever adds time, and on a shared
    machine it comes in bursts, so the best time is the steadiest estimate
    of the program's own cost.
    """
    times = defaultdict(list)
    for r in results:
        for key, runs in r[section].items():
            times[key] += runs
    return {key: min(v) for key, v in times.items()}


def items_per_s(results: list[dict]) -> float:
    """Items of one pass over the pass time: the best times of its inputs and steps."""
    items = best_times(results)
    pass_ms = sum(items.values()) + sum(best_times(results, "steps").values())
    return len(items) / (pass_ms / 1e3)


def control_scale(workload: str, results: list[dict]) -> float:
    """Nominal control time over the control's best time in ``results``."""
    return CONTROL_NOMINAL_MS[workload] / min(ms for r in results for ms in r["control_ms"])


def tally(results: list[dict]) -> dict:
    attempted = sum(len(runs) for r in results for runs in r["items"].values())
    failed = sum(r["failed"] for r in results)
    return {"attempted": attempted, "failed": failed,
            "errors": [e for r in results for e in r["errors"]][:10]}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    setup, setup_control = measure_setup(SETUP_PROBES // 2, warm_up=True)
    results = run_phase(workload, seed, seconds, 0, MIN_PASSES[workload])
    more, more_control = measure_setup(SETUP_PROBES - len(setup), warm_up=False)
    setup += more
    setup_control += more_control
    best = list(best_times(results).values())
    samples = best if workload in ONE_RUN_PER_PROCESS else \
        [ms for r in results for runs in r["items"].values() for ms in runs]
    tail_ms, pct, beyond = tail(samples)
    scale = control_scale(workload, results)
    setup_scale = CONTROL_NOMINAL_MS["setup"] / statistics.median(setup_control)
    undetermined = max(r["undetermined"] for r in results)
    reported = results[0]["reported"]
    counts = tally(results)
    values = {
        "setup_s": statistics.median(setup) * setup_scale / 1e3,
        "items_per_s": items_per_s(results) / scale,
        "item_p50_ms": statistics.median(best) * scale,
        "item_tail_ms": tail_ms * scale,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        "determined_frac": 1 - undetermined / reported,
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes",
        "items_per_s": f"{counts['attempted']} items in {sum(r['passes'] for r in results)} "
                       f"passes, {len(results)} process(es)",
        "item_p50_ms": f"over the best times of {len(best)} inputs",
        "item_tail_ms": f"p{pct:.2f}; {beyond} of {len(samples)} "
                        f"{'best times' if workload in ONE_RUN_PER_PROCESS else 'item runs'} beyond",
        "peak_rss_mb": ("largest child process" if workload == "cli" else
                        f"median over {len(results)} worker process(es)"),
        "determined_frac": f"undetermined {undetermined} of {reported} reported values",
    }
    for name, factor in (("setup_s", setup_scale), ("items_per_s", 1 / scale),
                         ("item_p50_ms", scale), ("item_tail_ms", scale)):
        notes[name] += f"; unscaled {values[name] / factor:.6g}"
    nominal = CONTROL_NOMINAL_MS[workload]
    notes["items_per_s"] += f"; control best {nominal / scale:.4g} ms, nominal {nominal:g} ms"
    notes["setup_s"] += (f"; control median {CONTROL_NOMINAL_MS['setup'] / setup_scale:.4g} ms, "
                         f"nominal {CONTROL_NOMINAL_MS['setup']:g} ms")
    lines = [f"{name:<16} {value:>14.6g} {END_TO_END_UNITS[name]:<5} {notes.get(name, '')}"
             for name, value in values.items()]
    rate = counts["failed"] / counts["attempted"]
    lines.append(f"{'error_rate':<16} {rate:>14.6g} {'frac':<5} "
                 f"{counts['failed']} of {counts['attempted']} items failed")
    lines.append(f"{'undetermined':<16} {undetermined:>14d} {'count':<5} bounded, not determined")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    return metrics, lines, counts


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    plain = run_phase(workload, seed, seconds / 2, 0, 1)
    traced = run_phase(workload, seed, seconds / 2, 1, 1)
    totals: dict = {}
    for r in traced:
        merge_totals(totals, r["totals"])
    items = tally(traced)["attempted"]
    calls, self_ns = totals.get("calls", {}), totals.get("self_ns", {})
    counts, tallies = totals.get("counts", {}), totals.get("tallies", {})
    values = {}
    for name, unit in per_layer_units().items():
        layer, stat = name.rsplit(".", 1)
        if stat == "calls":
            value = calls.get(layer, counts.get(layer, 0)) / items
        elif stat == "self_s":
            value = self_ns.get(layer, 0) / 1e9 / items
        elif name == "reps.decompose.weights_in":
            value = tallies.get(name, 0) / items
        elif name == "koszul.restricted_cohomology.determined_frac":
            reported = tallies.get("koszul.restricted_cohomology.reported", 0)
            value = tallies.get("koszul.restricted_cohomology.determined", 0) / reported \
                if reported else 0.0
        elif name == "cli.import_s":
            value = sum(r.get("import_ns", 0) for r in traced) / 1e9 / items
        else:
            value = (items_per_s(plain) / control_scale(workload, plain)) / \
                (items_per_s(traced) / control_scale(workload, traced)) - 1
        values[name] = (value, unit)
    lines = [f"{name:<48} {value:>14.6g} {unit}" for name, (value, unit) in values.items()]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return metrics, lines, tally(plain + traced)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    measure = per_layer if trace else end_to_end
    metrics, lines, counts = measure(workload, seed, seconds)
    print(f"== {workload}  seed {seed}  {seconds:g} s  trace {trace}")
    for line in lines:
        print("  " + line)
    for error in counts["errors"]:
        print("  CHECK FAILED: " + error)
    return {"correct": counts["failed"] == 0, "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "g2cy", "__init__.py")):
            raise BenchmarkError(f"no g2cy package under {SRC}")
        ref = check.load_reference()
        problems = check.check_snapshot(ref) + check.self_test(ref)
        if problems:
            raise BenchmarkError("checker self-test failed:\n" + "\n".join(problems))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{name}": m for w, r in results.items()
                              for name, m in r["metrics"].items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
