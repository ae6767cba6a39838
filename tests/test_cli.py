"""Command-line interface: formats, exit codes, round trips, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from g2cy import classify, enumerate_all, invariants
from g2cy.cli import build_parser, main, parse_summands
from g2cy.errors import G2CYError

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: stdout, stderr and exit code of 153 calls: every command in all three
#: formats, `invariants` on the 22 enumerated rows and three failing calls.
#: Output is part of the interface, so any difference here must be deliberate.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json")
                    .read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(capsys, case):
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


class TestParsing:
    def test_single(self):
        assert parse_summands("(1,1)") == [(1, 1)]

    def test_sum_with_spaces(self):
        assert parse_summands("(1,0) + (-2, 3)") == [(1, 0), (-2, 3)]

    def test_rejects_garbage(self):
        with pytest.raises(G2CYError):
            parse_summands("1,0")


class TestRoots:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "roots")
        assert code == 0
        assert "count: 6" in out
        assert "Weyl group order: 12" in out
        assert "rho: (1,1)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "roots", "--format", "json")
        data = json.loads(out)
        assert data["count"] == 6 and data["weyl_order"] == 12
        assert data["rho"] == [1, 1]
        assert len(data["positive_roots"]) == 6


class TestParabolicAndBundle:
    def test_parabolic_json(self, capsys):
        code, out, _ = run(capsys, "parabolic", "P2", "--format", "json")
        data = json.loads(out)
        assert data["dim"] == 5 and data["anticanonical"] == [0, 5]

    def test_bundle(self, capsys):
        code, out, _ = run(capsys, "bundle", "P1", "(1,0)+(2,0)", "--format", "json")
        data = json.loads(out)
        assert data["rank"] == 2 and data["det"] == [3, 0]

    def test_cohomology(self, capsys):
        code, out, _ = run(capsys, "cohomology", "P1", "(-3,0)")
        assert code == 0
        assert "H^5" in out and "dim 1" in out


class TestClassify:
    def test_threefolds_markdown(self, capsys):
        code, out, _ = run(capsys, "classify", "--dim", "3", "--check-paper",
                           "--format", "md")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("| ") and
                "No." not in line and "---" not in line]
        assert len(rows) == 8
        assert "8 matched, 0 missing, 0 extra" in out

    def test_fourfolds_exit_two(self, capsys):
        code, out, _ = run(capsys, "classify", "--dim", "4", "--check-paper")
        assert code == 2
        assert "EXTRA" in out and "(1,0)" in out and "(1,2)" in out

    @pytest.mark.parametrize("dim,expected", [(5, 0), (3, 0), (2, 0)])
    def test_clean_dimensions_exit_zero(self, capsys, dim, expected):
        code, _, _ = run(capsys, "classify", "--dim", str(dim), "--check-paper")
        assert code == expected

    def test_without_check_flag_exit_zero(self, capsys):
        code, _, _ = run(capsys, "classify", "--dim", "4")
        assert code == 0

    def test_check_paper_with_parabolic_rejected_before_enumerating(self, capsys,
                                                                    monkeypatch):
        def enumerate_nothing(*args):
            raise AssertionError("enumeration ran")
        monkeypatch.setattr(classify, "enumerate_candidates", enumerate_nothing)
        code, out, err = run(capsys, "classify", "--dim", "3", "--parabolic", "P1",
                             "--check-paper")
        assert (code, out) == (1, "")
        assert "drop --parabolic" in err

    def test_check_paper_enumerates_each_table_once(self, capsys, monkeypatch):
        calls = []
        enumerate_candidates = classify.enumerate_candidates

        def counted(*args):
            calls.append(args)
            return enumerate_candidates(*args)
        monkeypatch.setattr(classify, "enumerate_candidates", counted)
        code, out, _ = run(capsys, "classify", "--dim", "3", "--check-paper")
        assert code == 0 and "8 matched, 0 missing, 0 extra" in out
        assert len(calls) == 3

    def test_parabolic_filter(self, capsys):
        code, out, _ = run(capsys, "classify", "--dim", "3", "--parabolic", "P2",
                           "--format", "json")
        data = json.loads(out)
        assert [row["parabolic"] for row in data["rows"]] == ["P2"] * 3

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "classify", "--dim", "3", "--format", "json")
        data = json.loads(out)
        expected = [{"parabolic": r.parabolic,
                     "summands": [list(w) for w in r.summands],
                     "split": r.split}
                    for r in enumerate_all(3)]
        stripped = [{k: row[k] for k in ("parabolic", "summands", "split")}
                    for row in data["rows"]]
        assert stripped == expected


class TestInvariants:
    def test_first_threefold_json(self, capsys):
        code, out, _ = run(capsys, "invariants", "P1", "(1,1)", "--format", "json")
        data = json.loads(out)
        assert data["deg"] == 42 and data["c2H"] == 84
        assert data["h11"] == 1 and data["h12"] == 50
        assert data["euler"] == -98
        assert "discrepancies" not in data or data["discrepancies"] == []

    def test_third_threefold_flags_c2(self, capsys):
        code, out, _ = run(capsys, "invariants", "P2", "(1,1)", "--format", "json")
        data = json.loads(out)
        assert data["deg"] == 14
        assert data["published"]["c2H"] == 50
        assert data["published"]["matches"]["c2H"] is False
        assert data["published"]["matches"]["deg"] is True
        assert any("c2H" in line for line in data["discrepancies"])

    def test_invalid_candidate_exits_one(self, capsys):
        code, _, err = run(capsys, "invariants", "P2", "(1,0)")
        assert code == 1
        assert "anticanonical" in err

    def test_inconsistent_long_exact_sequence_exits_one(self, capsys, monkeypatch):
        # no admissible input reaches this; force it by removing every solution
        monkeypatch.setattr(invariants, "_les_ranges", lambda *args: None)
        code, _, err = run(capsys, "invariants", "P1", "(1,1)")
        assert code == 1
        assert err.startswith("error: ") and "long exact sequence" in err


class TestTable:
    @pytest.mark.parametrize("number,rows", [(1, 1), (2, 5), (3, 8), (4, 7)])
    def test_row_counts(self, capsys, number, rows):
        code, out, _ = run(capsys, "table", str(number), "--format", "json")
        data = json.loads(out)
        assert len(data["rows"]) == rows


class TestHarness:
    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["parabolic", "P9"])
        assert err.value.code == 1

    def test_seed_is_accepted(self, capsys):
        code, out, _ = run(capsys, "roots", "--seed", "7")
        assert code == 0 and "count: 6" in out

    @pytest.mark.parametrize("argv,first", [
        (["--format", "json", "roots"], '{"cartan"'),
        (["--format", "md", "table", "1"], "| No. | P | E |"),
        (["--format", "md", "roots", "--format", "json"], '{"cartan"'),
    ])
    def test_format_before_command(self, capsys, argv, first):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith(first)

    @pytest.mark.parametrize("argv,fmt,seed", [
        (["roots"], "text", None),
        (["--seed", "3", "--format", "md", "roots"], "md", 3),
        (["roots", "--seed", "4", "--format", "json"], "json", 4),
        (["--seed", "3", "--format", "md", "roots", "--seed", "4", "--format", "json"],
         "json", 4),
    ])
    def test_option_placement(self, argv, fmt, seed):
        args = build_parser().parse_args(argv)
        assert (args.format, args.seed) == (fmt, seed)

    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_one_quietly(self, flags):
        code = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
                "from g2cy.cli import console_main; console_main()")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, *flags, "-c", code, SRC, "roots"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  text=True, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "BrokenPipe" not in proc.stderr

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "classify", "--dim", "3", "--format", "json")
        _, second, _ = run(capsys, "classify", "--dim", "3", "--format", "json")
        assert first == second
        _, first, _ = run(capsys, "invariants", "P1", "(1,1)", "--format", "json")
        _, second, _ = run(capsys, "invariants", "P1", "(1,1)", "--format", "json")
        assert first == second


class TestImportWeight:
    # stdlib modules the package does not need on its import path; -S keeps
    # site's .pth files from preloading any of them
    HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "typing", "json")

    def test_cli_import_leaves_heavy_stdlib_unloaded(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import g2cy.cli; "
                "print(' '.join(m for m in sys.argv[2:] if m in sys.modules)); "
                "sys.exit(g2cy.cli.main(['roots', '--format', 'json']))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, SRC, *self.HEAVY],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded, _, out = proc.stdout.partition("\n")
        assert loaded == ""
        assert json.loads(out)["count"] == 6


def _child(code, *args):
    """Run ``code`` in a fresh ``python -S`` with ``src`` first on the path."""
    proc = subprocess.run([sys.executable, "-S", "-c",
                           "import sys; sys.path.insert(0, sys.argv[1]); " + code, SRC, *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportOnDemand:
    #: every public name of the package, by the module that defines it
    API = {
        "errors": "G2CYError",
        "root_system": "G2_CARTAN CartanMatrix Root RootSystem Weight WeylElement "
                       "build_root_system g2_root_system",
        "parabolic": "ParabolicData g2_parabolic is_g_dominant",
        "reps": "RepSum decompose dual exterior_power irrep tensor trivial",
        "cohomology": "bundle_cohomology bwb_irrep euler_char weyl_dim",
        "koszul": "DimRange E1Page KoszulInput RestrictedCohomology e1_page hilbert_value "
                  "koszul_terms restricted_cohomology",
        "invariants": "Candidate HodgeRecord degree_and_c2 hodge_numbers to_record "
                      "validate_candidate",
        "classify": "TableRow diff_against_paper enumerate_all enumerate_candidates "
                    "published_invariants reference_tables verify_theorem",
    }
    #: the layers each command must leave unloaded
    UNLOADED = {
        "roots": "classify cohomology invariants koszul",
        "parabolic P1": "classify cohomology invariants koszul",
        "bundle P2 (0,1)+(0,4)": "classify cohomology invariants koszul",
        "table 2": "cohomology invariants koszul",
        "cohomology P1 (-3,0)": "classify invariants koszul",
    }
    LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('g2cy.'))))"

    def test_package_import_loads_no_module(self):
        assert _child("import g2cy; " + self.LOADED) == "\n"

    @pytest.mark.parametrize("command", UNLOADED)
    def test_command_loads_only_its_layers(self, command):
        # the command's own output comes first; the loaded modules are the
        # last line
        out = _child("import g2cy.cli; code = g2cy.cli.main(sys.argv[2:]); "
                     + self.LOADED + "; sys.exit(code)", *command.split())
        loaded = set(out.splitlines()[-1].split())
        assert {"g2cy.cli", "g2cy.errors", "g2cy.parabolic", "g2cy.reps",
                "g2cy.root_system"} <= loaded
        assert not loaded & {f"g2cy.{m}" for m in self.UNLOADED[command].split()}

    def test_every_public_name_is_its_home_modules_object(self):
        out = _child("import importlib, json, g2cy; api = {n: m for m, names in "
                     "json.loads(sys.argv[2]).items() for n in names.split()}; "
                     "print(sorted(g2cy.__all__) == sorted(api)); "
                     "print(all(getattr(g2cy, n) is getattr(importlib.import_module('g2cy.' + m), n)"
                     " for n, m in api.items()))", json.dumps(self.API))
        assert out.split() == ["True", "True"]

    def test_dir_and_star_import_cover_all(self):
        out = _child("import g2cy; ns = {}; exec('from g2cy import *', ns); "
                     "print(set(g2cy.__all__) <= set(dir(g2cy))); "
                     "print(sorted(set(ns) - {'__builtins__'}) == sorted(g2cy.__all__))")
        assert out.split() == ["True", "True"]

    def test_modules_resolve_by_name(self):
        out = _child("import g2cy; print(g2cy.koszul.e1_page is g2cy.e1_page); " + self.LOADED)
        assert out.split() == ["True", "g2cy.cohomology", "g2cy.errors", "g2cy.koszul",
                               "g2cy.parabolic", "g2cy.reps", "g2cy.root_system"]

    def test_unknown_name_raises_attribute_error(self):
        out = _child("import g2cy\n"
                     "try:\n    g2cy.nope\nexcept AttributeError as exc:\n    print(exc)\n"
                     "print(hasattr(g2cy, 'nope'))")
        assert out.splitlines() == ["module 'g2cy' has no attribute 'nope'", "False"]
