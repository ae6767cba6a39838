"""Koszul terms, E1 pages, restricted cohomology, Hilbert values."""

import copy
import json
import pickle
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from itertools import combinations
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from g2cy import (CartanMatrix, DimRange, KoszulInput, ParabolicData, RepSum,
                  build_root_system, bundle_cohomology, decompose, dual, e1_page,
                  enumerate_all, euler_char, g2_parabolic, hilbert_value, irrep, koszul,
                  koszul_terms, restricted_cohomology, tensor, trivial, validate_candidate,
                  weyl_dim)
from g2cy.errors import InconsistentSpectralSequence, NotGloballyGenerated, TrivialSummand
from g2cy.invariants import to_record
from g2cy.koszul import _bit_graph, _koszul_layers, _limit_ranges
from g2cy.reps import _exterior_layers, _straightened
from g2cy.root_system import wneg, wzero

from conftest import koszul_sweep_inputs, p_dominant_box, rep_sums
from test_reps import oracle_decompose, oracle_tensor

SRC = str(Path(__file__).resolve().parents[1] / "src")


def bundle(P, *summands):
    terms = {}
    for w in summands:
        terms[w] = terms.get(w, 0) + 1
    return RepSum(P, terms)


class _NumberingTable(dict):
    """A stand-in Bott table: the j-th distinct weight it meets reads degree j
    and dimension 1."""

    def __missing__(self, lam):
        res = self[lam] = (len(self), lam, 1)
        return res


def net_columns(inp, layers=None):
    """Net signed Levi terms of each E1 column, as :func:`e1_page` makes them.

    A stand-in Bott table sends the j-th distinct weight it meets to degree j
    with dimension 1, and the degree guard is lifted, so entry (k, j) of the
    page is the net multiplicity of that weight in column k.  ``layers``, if
    given, stands in for the Λ^k E* weight layers.
    """
    table = _NumberingTable()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(koszul, "_bott_table", lambda rs: table)
        mp.setattr(inp.P, "dim", 10 ** 6)
        if layers is not None:
            mp.setattr(koszul, "_koszul_layers", lambda P, E: layers)
        entries = e1_page(inp).entries
    weights = list(table)
    columns = [{} for _ in (layers or _koszul_layers(inp.P, inp.E))]
    for (k, j), m in entries.items():
        columns[k][weights[j]] = m
    return columns


class TestKoszulTerms:
    def test_main_threefold_terms(self, P1):
        inp = KoszulInput(P1, irrep(P1, (1, 1)), trivial(P1))
        terms = koszul_terms(inp)
        assert terms == [trivial(P1), irrep(P1, (-2, 1)), irrep(P1, (-3, 0))]

    def test_zeroth_term_is_w(self, P2):
        w = irrep(P2, (0, 2)) + irrep(P2, (1, 0))
        inp = KoszulInput(P2, irrep(P2, (1, 1)), w)
        assert koszul_terms(inp)[0] == w

    def test_line_bundle_duals_add(self, P1):
        inp = KoszulInput(P1, bundle(P1, (1, 0), (2, 0)), trivial(P1))
        terms = koszul_terms(inp)
        assert terms == [trivial(P1),
                         irrep(P1, (-1, 0)) + irrep(P1, (-2, 0)),
                         irrep(P1, (-3, 0))]

    def test_rejects_trivial_summand(self, P1):
        with pytest.raises(TrivialSummand):
            KoszulInput(P1, irrep(P1, (1, 1)) + trivial(P1), trivial(P1))

    def test_rejects_non_generated_summand(self, P1):
        with pytest.raises(NotGloballyGenerated):
            KoszulInput(P1, irrep(P1, (-1, 3)), trivial(P1))

    @pytest.mark.parametrize("lam,error", [((0, 0), TrivialSummand),
                                           ((-1, 3), NotGloballyGenerated)])
    def test_cut_errors_match_validate_candidate(self, P1, lam, error):
        # both entries run koszul._check_cut: same error type, same message
        with pytest.raises(error) as from_input:
            KoszulInput(P1, irrep(P1, lam), trivial(P1))
        with pytest.raises(error) as from_candidate:
            validate_candidate(P1, [lam])
        assert type(from_input.value) is type(from_candidate.value) is error
        assert str(from_input.value) == str(from_candidate.value)


class TestE1Page:
    def test_main_threefolds_have_two_corner_entries(self, P1, P2):
        for P in (P1, P2):
            inp = KoszulInput(P, irrep(P, (1, 1)), trivial(P))
            page = e1_page(inp)
            assert page.entries == {(0, 0): 1, (inp.E.rank, P.dim): 1}

    def test_dominant_w_concentrates_in_column_zero_row_zero(self, P2):
        inp = KoszulInput(P2, irrep(P2, (1, 1)), irrep(P2, (0, 2)))
        page = e1_page(inp)
        col0 = {q: d for (k, q), d in page.entries.items() if k == 0}
        assert list(col0) == [0]

    def test_euler_matches_term_sums(self, parabolics):
        # two summation orders of the same alternating sum must agree
        cases = 0
        for P in parabolics:
            if P.label == "B":
                e = bundle(P, (0, 1), (0, 1), (2, 0))
            else:
                e = irrep(P, (1, 1))
            for w_weight in p_dominant_box(P, 2):
                inp = KoszulInput(P, e, irrep(P, w_weight))
                page = e1_page(inp)
                direct = sum((-1) ** k * euler_char(P, term)
                             for k, term in enumerate(koszul_terms(inp)))
                assert page.euler == direct
                rc = restricted_cohomology(inp)
                assert rc.euler == direct
                cases += 1
        assert cases >= 3 * 15


class TestRestrictedCohomology:
    def test_main_threefold_structure_sheaf(self, P1):
        rc = restricted_cohomology(KoszulInput(P1, irrep(P1, (1, 1)), trivial(P1)))
        assert [rc.by_degree[n].value for n in range(4)] == [1, 0, 0, 1]
        assert all(r.determined for r in rc.by_degree.values())
        assert rc.euler == 0

    def test_k3_structure_sheaf(self, P1):
        rc = restricted_cohomology(
            KoszulInput(P1, bundle(P1, (1, 0), (1, 0), (1, 0)), trivial(P1)))
        assert [rc.by_degree[n].value for n in range(3)] == [1, 0, 1]
        assert rc.euler == 2

    def test_forced_cancellation_on_conormal(self, P1):
        # W = E* on the main threefold: the page has entries of dimensions
        # 1 (total degree 4) and 64 (total degree 3); degree 4 must vanish on
        # a threefold, which forces one rank out of the 64
        e = irrep(P1, (1, 1))
        inp = KoszulInput(P1, e, dual(P1, e))
        page = e1_page(inp)
        assert page.entries == {(1, 5): 1, (2, 5): 64}
        rc = restricted_cohomology(inp)
        assert rc.by_degree[3].value == 63
        assert rc.by_degree.get(4, DimRange(0, 0)).value == 0

    def test_vanishing_toggle_only_adds_information(self, P1, P2):
        # the public result against the solve that lets every degree live
        for P in (P1, P2):
            e = irrep(P, (1, 1))
            for w in (trivial(P), dual(P, e), dual(P, P.tangent)):
                inp = KoszulInput(P, e, w)
                strict = restricted_cohomology(inp)
                loose = _limit_ranges(e1_page(inp).entries, lambda n: True)
                for n, (lo, hi) in loose.items():
                    got = strict.by_degree.get(n, DimRange(0, 0))
                    if lo == hi:
                        assert got == (lo, hi)
                    else:
                        assert lo <= got.lower and got.upper <= hi

    def test_audit_mode_leaves_forced_degree_open(self, P1):
        # without vanishing nothing forces the differential out of degree 4
        e = irrep(P1, (1, 1))
        inp = KoszulInput(P1, e, dual(P1, e))
        lo, hi = _limit_ranges(e1_page(inp).entries, lambda n: True)[4]
        assert lo < hi

    def test_pages_live_on_degrees_zero_to_dim_x(self):
        # the conormal long exact sequence relies on this to stop at dim X
        for inp in koszul_sweep_inputs():
            assert list(restricted_cohomology(inp).by_degree) == list(range(inp.dim_x + 1))


class TestHilbertValue:
    def test_twist_zero_vanishes_on_threefolds(self, P1, P2):
        for P, rows in ((P1, [((1, 1),), ((1, 0), (2, 0))]),
                        (P2, [((1, 1),), ((0, 1), (0, 4)), ((0, 2), (0, 3))])):
            for summands in rows:
                assert hilbert_value(P, bundle(P, *summands), 0) == 0

    def test_main_threefold_values(self, P1, P2):
        # chi(O_X(i)) = 42/6 i^3 + 84/12 i on the first threefold
        e1 = irrep(P1, (1, 1))
        for i in range(-4, 5):
            assert hilbert_value(P1, e1, i) == 7 * i ** 3 + 7 * i
        assert hilbert_value(P2, irrep(P2, (1, 1)), 1) == 7

    def test_odd_symmetry(self, P1, P2):
        for P in (P1, P2):
            e = irrep(P, (1, 1))
            for i in range(1, 5):
                assert hilbert_value(P, e, -i) == -hilbert_value(P, e, i)

    def test_polynomial_degree_via_finite_differences(self, P1):
        # chi is a polynomial of degree dim X, so differences of order
        # dim X + 1 vanish
        e = irrep(P1, (1, 1))
        values = {i: hilbert_value(P1, e, i) for i in range(-1, 9)}
        for i in range(0, 4):
            diff4 = sum((-1) ** j * [1, 4, 6, 4, 1][j] * values[i + 4 - j]
                        for j in range(5))
            assert diff4 == 0

    def test_borel_twists_by_rho(self, B):
        # on G/B, O_X(1) is L_rho, rho = (1,1) the sum of both fundamental
        # weights: 12 chi = 2 H^3 i^3 + c2.H i with H^3 = 148 and c2.H = 136,
        # the intersection numbers of the two-variable fit in test_invariants
        e = bundle(B, (0, 1), (0, 1), (2, 0))
        for i in range(-4, 5):
            assert 12 * hilbert_value(B, e, i) == 2 * 148 * i ** 3 + 136 * i

    def test_boundary_errors_in_order(self, P1, P2, B):
        # an E over another parabolic is rejected before the twist is looked at
        for P, E in ((B, irrep(P1, (1, 1))), (P2, irrep(P1, (1, 1))), (P1, irrep(B, (1, 1)))):
            with pytest.raises(ValueError, match="parabolic"):
                hilbert_value(P, E, 1.0)

    @pytest.mark.parametrize("twist", [True, False, 1.0, "1", None])
    def test_twist_must_be_an_int(self, P1, twist):
        with pytest.raises(ValueError, match="twist"):
            hilbert_value(P1, irrep(P1, (1, 1)), twist)

    def test_projective_plane(self):
        # A2 with node 1 crossed is P^2 with L = O(1); the weight (3,0) has
        # string length 1, so it is the line bundle O(3)
        P = ParabolicData(build_root_system(CartanMatrix([[2, -1], [-1, 2]])),
                          (1,))
        assert P.dim == 2
        cubic, empty = irrep(P, (3, 0)), RepSum(P)
        assert cubic.rank == 1
        for i in range(-6, 7):
            assert hilbert_value(P, cubic, i) == 3 * i             # a plane cubic
            assert hilbert_value(P, empty, i) == (i + 1) * (i + 2) // 2

    def test_projective_line(self):
        # two points on P^1: χ(O_X(i)) = 2 for every i
        P = ParabolicData(build_root_system(CartanMatrix([[2]])), (1,))
        for i in range(-6, 7):
            assert hilbert_value(P, irrep(P, (2,)), i) == 2


class TestTensorDims:
    """E1 columns from weights against ``koszul_terms`` + ``bundle_cohomology``."""

    def test_sweep_pairs(self):
        inputs = koszul_sweep_inputs()
        assert len(inputs) == 486
        # among them every (Λ^k E*, W) of the 22 rows, W ∈ {O, E*, Ω_F}
        assert all(inp in inputs for inp in koszul_sweep_inputs(records_only=True))
        for inp in inputs:
            P = inp.P
            terms = koszul_terms(inp)
            page = e1_page(inp)
            assert page.entries == {
                (k, q): sum(m * weyl_dim(P.rs, mu) for mu, m in group.items())
                for k, term in enumerate(terms)
                for q, group in bundle_cohomology(P, term).items()}
            assert page.euler == sum((-1) ** k * euler_char(P, term)
                                     for k, term in enumerate(terms))

    def test_hilbert_twists(self):
        # hilbert_value against the Koszul terms Λ^k E* ⊗ L_{iH}, each taken
        # through tensor and euler_char, on every row: H is the sum of the
        # crossed fundamental weights, ω1, ω2 and rho = ω1 + ω2 on G/B
        H = {"P1": (1, 0), "P2": (0, 1), "B": (1, 1)}
        rows = [validate_candidate(g2_parabolic(row.parabolic), row.summands)
                for dim_x in (2, 3, 4, 5) for row in enumerate_all(dim_x)]
        assert len(rows) == 22 and {c.P.label for c in rows} == set(H)
        for c in rows:
            P = c.P
            for i in range(-6, 7):
                line = irrep(P, tuple(i * h for h in H[P.label]))
                assert hilbert_value(P, c.rep, i) == sum(
                    (-1) ** k * euler_char(P, term)
                    for k, term in enumerate(koszul_terms(KoszulInput(P, c.rep, line))))

    def test_every_term_goes_through_bwb(self):
        # the signed Brauer–Klimyk terms that each column sends to the Bott
        # kernel net to the Levi terms of Λ^k E* ⊗ W, taken by the peeling and
        # Clebsch–Gordan oracles, which share no code with the straightening
        for inp in koszul_sweep_inputs():
            P = inp.P
            layers = _exterior_layers(P, map(wneg, inp.E.weights().elements()))
            assert net_columns(inp) == [
                oracle_tensor(P, oracle_decompose(P, layer), inp.W).terms for layer in layers]

    def test_wrong_column_rank_raises(self, P1, monkeypatch):
        # a column that loses its top Levi term, here the only one of Λ^1 E*
        # that Brauer–Klimyk keeps, fails the column's rank check
        inp = KoszulInput(P1, irrep(P1, (1, 1)), trivial(P1))
        layers = _koszul_layers(P1, inp.E)
        top = max(layers[1], key=lambda pair: pair[0][P1._levi_node - 1])
        lossy = tuple(tuple(pair for pair in layer if pair is not top) for layer in layers)
        monkeypatch.setattr(koszul, "_koszul_layers", lambda P, E: lossy)
        with pytest.raises(AssertionError, match="wrong rank"):
            e1_page(inp)

    def test_negative_entry_raises(self, P1, monkeypatch):
        # a column of the right rank, V(0, 4) minus the reflection V(-2, 3) of
        # (2, -5), whose negative term has no positive one in its degree
        layers = ((((0, 4), 1), ((2, -5), 1)),)
        monkeypatch.setattr(koszul, "_koszul_layers", lambda P, E: layers)
        with pytest.raises(AssertionError, match=r"entry \(0, 1\) is negative"):
            e1_page(KoszulInput(P1, irrep(P1, (1, 1)), trivial(P1)))

    def test_sweep_reaches_every_straightening_branch(self):
        # sums mu + nu that Brauer–Klimyk keeps (a >= 0), drops (a = -1) and
        # reflects (a <= -2), a the Levi coordinate, over the Λ^k E* weights
        # and W's highest weights of each page
        def branches(inputs):
            counts = dict.fromkeys(("kept", "dropped", "reflected"), 0)
            for inp in inputs:
                if inp.P._levi_node is None:
                    continue
                i = inp.P._levi_node - 1
                for layer in _koszul_layers(inp.P, inp.E):
                    for mu, _ in layer:
                        for nu in inp.W.terms:
                            a = mu[i] + nu[i]
                            counts["kept" if a >= 0 else "dropped" if a == -1 else "reflected"] += 1
            return counts

        assert branches(koszul_sweep_inputs(records_only=True)) == {
            "kept": 310, "dropped": 16, "reflected": 4}
        assert all(branches(koszul_sweep_inputs()).values())

    def test_degree_past_dim_g_p_raises(self, P1, monkeypatch):
        # a Bott degree above dim G/P fails the page's degree guard
        original = koszul._bott_table(P1.rs)

        class TooHigh(dict):
            def __missing__(self, lam):
                res = original[lam]
                return None if res is None else (P1.dim + 1, *res[1:])

        monkeypatch.setattr(koszul, "_bott_table", lambda rs: TooHigh())
        with pytest.raises(AssertionError, match="exceeded dim G/P"):
            e1_page(KoszulInput(P1, irrep(P1, (1, 1)), trivial(P1)))

    def test_bott_table_is_taken_once_per_call(self, monkeypatch):
        # e1_page and hilbert_value take the root system's Bott table once
        # per call, never once per term, and index it for every term: each
        # straightened term of a page, each weight of a Hilbert sample
        inputs = koszul_sweep_inputs(records_only=True)
        pages = [e1_page(inp) for inp in inputs]
        samples = [hilbert_value(inp.P, inp.E, i) for inp in inputs for i in (-1, 2)]
        taken, looked_up = [], []
        original = koszul._bott_table

        class Counting(dict):
            def __init__(self, table):
                super().__init__()
                self.table = table

            def __missing__(self, lam):
                looked_up.append(lam)
                return self.table[lam]

        def take(rs):
            taken.append(rs)
            return Counting(original(rs))

        monkeypatch.setattr(koszul, "_bott_table", take)
        for inp, page in zip(inputs, pages):
            del taken[:], looked_up[:]
            assert e1_page(inp) == page
            terms = sum(len(list(_straightened(inp.P, layer, inp.W.terms.items())))
                        for layer in _koszul_layers(inp.P, inp.E))
            assert taken == [inp.P.rs] and len(looked_up) == terms > 1
        for (inp, i), value in zip([(inp, i) for inp in inputs for i in (-1, 2)], samples):
            del taken[:], looked_up[:]
            assert hilbert_value(inp.P, inp.E, i) == value
            weights = sum(map(len, _koszul_layers(inp.P, inp.E)))
            assert taken == [inp.P.rs] and len(looked_up) == weights > 1


class TestKoszulLayers:
    """Each bundle's Λ^k E* layers are built once, kept on it, and read-only."""

    def test_built_once_per_record(self, monkeypatch):
        calls = []
        build = koszul._exterior_layers
        monkeypatch.setattr(koszul, "_exterior_layers",
                            lambda P, weights: calls.append(P) or build(P, weights))
        rows = [row for dim_x in (2, 3, 4, 5) for row in enumerate_all(dim_x)]
        assert len(rows) == 22
        for n, row in enumerate(rows, 1):
            to_record(validate_candidate(g2_parabolic(row.parabolic), row.summands))
            assert len(calls) == n

    def test_alternating_bundles_match_a_fresh_interpreter(self, P2):
        # the record pages and Hilbert samples of two threefolds over one
        # parabolic, interleaved call by call, against one child per bundle
        bundles = [((1, 1),), ((0, 1), (0, 4))]
        code = textwrap.dedent("""
            import json, sys
            sys.path.insert(0, sys.argv[1])
            from g2cy import (KoszulInput, dual, e1_page, g2_parabolic, hilbert_value,
                              trivial, validate_candidate)
            P2 = g2_parabolic("P2")
            rep = validate_candidate(P2, json.loads(sys.argv[2])).rep
            pages = [sorted(e1_page(KoszulInput(P2, rep, w)).entries.items())
                     for w in (trivial(P2), dual(P2, rep), P2.cotangent)]
            print(json.dumps([pages, [hilbert_value(P2, rep, i) for i in range(-4, 5)]]))
        """)
        fresh = [json.loads(subprocess.run(
            [sys.executable, "-c", code, SRC, json.dumps(summands)],
            capture_output=True, text=True, timeout=60, check=True).stdout)
            for summands in bundles]
        assert fresh[0] != fresh[1]
        reps = [validate_candidate(P2, summands).rep for summands in bundles]
        got = [[[], []] for _ in bundles]
        for j in range(3):
            for b, rep in enumerate(reps):
                w = (trivial(P2), dual(P2, rep), P2.cotangent)[j]
                page = sorted(e1_page(KoszulInput(P2, rep, w)).entries.items())
                got[b][0].append([[list(k), d] for k, d in page])
                got[1 - b][1] += [hilbert_value(P2, reps[1 - b], i)
                                  for i in range(3 * j - 4, 3 * j - 1)]
        assert got == fresh

    def test_layers_are_read_only(self, P1):
        # and a sum that keeps them still copies and pickles
        E = bundle(P1, (1, 1), (0, 1))
        layers = _koszul_layers(P1, E)
        assert _koszul_layers(P1, E) is layers
        with pytest.raises(TypeError):
            layers[1][0] = ((0, 0), 2)
        with pytest.raises(TypeError):
            layers[0] = ()
        with pytest.raises(AttributeError):
            layers.append(())
        assert [dict(layer) for layer in layers] == _exterior_layers(
            P1, map(wneg, E.weights().elements()))
        assert pickle.loads(pickle.dumps(E)) == copy.deepcopy(E) == E


@given(rep_sums(count=2))
def test_levi_terms_of_weight_products_match_tensor(case):
    # ``tensor``, and ``decompose`` of the full weight product, against the
    # Clebsch–Gordan rule
    P, a, b = case
    product = Counter()
    for mu, c in a.weights().items():
        for nu, d in b.weights().items():
            product[tuple(map(add, mu, nu))] += c * d
    assert tensor(P, a, b) == decompose(P, product) == oracle_tensor(P, a, b)


@given(rep_sums(count=2))
def test_straightened_weight_products_match_tensor(case):
    # Brauer–Klimyk as e1_page runs it, on the torus too: column 1 of a page
    # whose Λ^1 layer is a's weight multiset straightens a's weights against
    # b's highest weights, and nets to the Clebsch–Gordan terms of a ⊗ b
    P, a, b = case
    inp = tuple.__new__(KoszulInput, (P, a, b))      # a need not be a cut bundle
    layers = (((wzero(P.rs.rank), 1),), tuple(a.weights().items()))
    assert net_columns(inp, layers) == [b.terms, oracle_tensor(P, a, b).terms]


# Reference solver: the exhaustive page-by-page rank search that the closed
# form replaced, kept verbatim with its own step budget.

_BRANCH_CAP = 500_000


class _TooManyBranches(Exception):
    pass


def _component_outcomes(dims: dict, positions: tuple, max_page: int,
                        budget: int = _BRANCH_CAP) -> set[tuple]:
    """Reachable limit dimension tables for one differential component.

    Explores every consistent rank assignment page by page; a page-r
    differential removes equal rank from source and target, and the ranks
    leaving and entering one position fit inside it (the incoming image lies
    in the outgoing kernel).  Returns tuples aligned with ``positions``.
    """
    order = {p: i for i, p in enumerate(positions)}
    memo: set = set()
    results: set[tuple] = set()
    steps = [budget]

    def spend() -> None:
        steps[0] -= 1
        if steps[0] < 0:
            raise _TooManyBranches

    def explore(r: int, cur: tuple) -> None:
        if (r, cur) in memo:
            return
        memo.add((r, cur))
        spend()
        if r > max_page:
            results.add(cur)
            return
        diffs = []
        for p in positions:
            tgt = (p[0] - r, p[1] - r + 1)
            if cur[order[p]] > 0 and tgt in order and cur[order[tgt]] > 0:
                diffs.append((order[p], order[tgt]))
        if not diffs:
            explore(r + 1, cur)
            return

        def assign(idx: int, drops: list[int]) -> None:
            if idx == len(diffs):
                explore(r + 1, tuple(c - d for c, d in zip(cur, drops)))
                return
            s, t = diffs[idx]
            top = min(cur[s] - drops[s], cur[t] - drops[t])
            for rank in range(top + 1):
                spend()
                drops[s] += rank
                drops[t] += rank
                assign(idx + 1, drops)
                drops[s] -= rank
                drops[t] -= rank

        assign(0, [0] * len(positions))

    explore(1, tuple(dims[p] for p in positions))
    return results


def oracle_ranges(dims, positions, max_page, allowed, budget=_BRANCH_CAP):
    """Per-degree (lower, upper) of one component from the exhaustive search.

    Keeps the tables whose forbidden degrees vanish; raises
    InconsistentSpectralSequence when none does, and _TooManyBranches when
    the search exceeds ``budget``.
    """
    outcomes = _component_outcomes(dims, positions, max_page, budget)
    degrees = [q - k for k, q in positions]

    def degree_sum(table, n):
        return sum(d for m, d in zip(degrees, table) if m == n)

    outcomes = {t for t in outcomes
                if all(allowed(n) or degree_sum(t, n) == 0 for n in degrees)}
    if not outcomes:
        raise InconsistentSpectralSequence("no consistent table")
    return {n: (min(degree_sum(t, n) for t in outcomes),
                max(degree_sum(t, n) for t in outcomes))
            for n in sorted(set(degrees))}


# Reference closed form: the set-based solver that the bitmask one replaced,
# kept verbatim apart from its name.  It also splits pages into components
# for compare_components.

def _adjacency(positions, max_page: int) -> dict[tuple, set]:
    """Positions joined by a possible differential on some page 1..max_page."""
    def linked(s, t) -> bool:
        r = s[0] - t[0]
        return 1 <= r <= max_page and s[1] - t[1] == r - 1

    return {p: {t for t in positions if linked(p, t) or linked(t, p)}
            for p in positions}


def _differential_components(adjacency: dict[tuple, set]) -> list[tuple]:
    """Connected components of the differential graph, as sorted tuples."""
    components = []
    unseen = set(adjacency)
    while unseen:
        stack = [min(unseen)]
        unseen.discard(stack[0])
        comp = {stack[0]}
        while stack:
            for nbr in adjacency[stack.pop()]:
                if nbr in unseen:
                    unseen.discard(nbr)
                    comp.add(nbr)
                    stack.append(nbr)
        components.append(tuple(sorted(comp)))
    return components


def _set_limit_ranges(dims: dict[tuple[int, int], int], max_page: int,
                      allowed) -> dict[int, tuple[int, int]]:
    """Per-degree (lower, upper) limit dimensions over all differential ranks.

    ``dims`` maps E1 positions (k, q) to their dimensions; limit entries in
    total degrees n with ``allowed(n)`` false must vanish.  Each component is
    solved in closed form, as described in the module docstring; raises
    :class:`InconsistentSpectralSequence` when the vanishing cannot hold.
    """
    adjacency = _adjacency(sorted(dims), max_page)

    def D(ps) -> int:
        return sum(dims[p] for p in ps)

    def nu(X: set, Z: set) -> int:
        # capacitated König–Ore: ν(X→Z) = min over Y ⊆ X of D(X∖Y) + D(N(Y) ∩ Z)
        return min(D(X.difference(Y)) + D(set().union(*(adjacency[y] for y in Y)) & Z)
                   for size in range(len(X) + 1) for Y in combinations(X, size))

    ranges: dict[int, tuple[int, int]] = {}
    for comp in _differential_components(adjacency):
        sides = ({p for p in comp if (p[1] - p[0]) % 2 == 0},
                 {p for p in comp if (p[1] - p[0]) % 2 == 1})
        forbidden = {p for p in comp if not allowed(p[1] - p[0])}
        # Mendelsohn–Dulmage: saturating S∩A and S∩B separately suffices
        for A, B in (sides, sides[::-1]):
            if nu(A & forbidden, B) != D(A & forbidden):
                raise InconsistentSpectralSequence(
                    "no differential ranks satisfy the vanishing constraints; the "
                    "input does not define a complete intersection of expected dimension")
        for n in sorted({q - k for k, q in comp}):
            A, B = sides[n % 2], sides[1 - n % 2]
            layer = {p for p in A if p[1] - p[0] == n}
            SA, SB = A & forbidden, B & forbidden
            if not allowed(n):
                lo = hi = 0
            else:
                lo = D(layer) - nu(SA | layer, B) + D(SA)
                hi = D(layer) - D(SB) + nu(SB, A - layer)
            old_lo, old_hi = ranges.get(n, (0, 0))
            ranges[n] = (old_lo + lo, old_hi + hi)
    return ranges


def solver_neighbours(dims) -> dict[tuple, set]:
    """The adjacency rows the bitmask solver builds, as sets of positions."""
    positions, _, adjacency, _ = _bit_graph(dims)
    assert positions == sorted(dims) and list(adjacency) == [1 << i for i in range(len(dims))]
    return {positions[b.bit_length() - 1]: {p for i, p in enumerate(positions) if row >> i & 1}
            for b, row in adjacency.items()}


def assert_same_ranges(dims, max_page, allowed):
    """The bitmask solver returns the set-based one's dict, or both raise."""
    try:
        expected = _set_limit_ranges(dims, max_page, allowed)
    except InconsistentSpectralSequence:
        with pytest.raises(InconsistentSpectralSequence):
            _limit_ranges(dims, allowed)
    else:
        assert list(_limit_ranges(dims, allowed).items()) == list(expected.items())


def closed_form_ranges(dims, positions, allowed):
    return _limit_ranges({p: dims[p] for p in positions}, allowed)


def compare_components(dims, max_page, allowed, budget=_BRANCH_CAP):
    """Check every component the oracle finishes; return (finished, total)."""
    components = _differential_components(_adjacency(sorted(dims), max_page))
    finished = 0
    for positions in components:
        try:
            expected = oracle_ranges(dims, positions, max_page, allowed, budget)
        except _TooManyBranches:
            continue
        except InconsistentSpectralSequence:
            with pytest.raises(InconsistentSpectralSequence):
                closed_form_ranges(dims, positions, allowed)
        else:
            assert closed_form_ranges(dims, positions, allowed) == expected
        finished += 1
    return finished, len(components)


def vanishing(dim_x, enforce):
    return (lambda n: 0 <= n <= dim_x) if enforce else (lambda n: True)


def compare_inputs(inputs, enforce):
    """compare_components over the E1 pages of Koszul inputs, counts summed."""
    counts = [compare_components(e1_page(inp).entries, inp.E.rank,
                                 vanishing(inp.dim_x, enforce)) for inp in inputs]
    return sum(f for f, _ in counts), sum(t for _, t in counts)


class TestClosedFormAgainstSearch:
    def test_sweep_components_with_vanishing(self):
        # the search exceeds its budget on 5 components; they are pinned below
        assert compare_inputs(koszul_sweep_inputs(), True) == (624, 629)

    @pytest.mark.parametrize("enforce", [True, False])
    def test_records_components(self, enforce):
        inputs = koszul_sweep_inputs(records_only=True)
        assert compare_inputs(inputs, enforce) == (138, 138)

    @pytest.mark.parametrize("name,summands,twist,degree,value", [
        ("P1", ((0, 1), (2, 0)), (2, 2), 0, 164),
        ("P2", ((1, 0), (0, 2)), (2, 2), 0, 420),
        ("P2", ((0, 3), (0, 1), (0, 1)), (2, 2), 0, 213),
        ("B", ((1, 0), (1, 0), (0, 1), (0, 1)), (2, 2), 0, 98),
        ("B", ((1, 0), (1, 0), (0, 1), (0, 1)), (-2, -2), 2, 98),
    ])
    def test_formerly_capped_components_are_determined(
            self, name, summands, twist, degree, value, P1, P2, B):
        # the search exceeded its budget on these; vanishing leaves a single
        # allowed degree per component, so the Euler characteristic forces it
        P = {"P1": P1, "P2": P2, "B": B}[name]
        rc = restricted_cohomology(KoszulInput(P, bundle(P, *summands), irrep(P, twist)))
        assert all(r.determined for r in rc.by_degree.values())
        assert rc.by_degree[degree].value == value
        assert rc.euler == value and type(rc.euler) is int


@st.composite
def e1_grids(draw):
    """Random E1 page: rank 1-4, q <= 5, entries 1-4, random sparsity, dim X."""
    rank = draw(st.integers(1, 4))
    cells = [(k, q) for k in range(rank + 1) for q in range(6)]
    density = draw(st.floats(0.05, 1.0))
    dims = {}
    for cell in cells:
        if draw(st.floats(0, 1)) < density:
            dims[cell] = draw(st.integers(1, 4))
    return dims, rank, draw(st.integers(-1, 4))


@settings(max_examples=300)
@given(e1_grids(), st.booleans())
def test_closed_form_matches_search_on_random_grids(grid, enforce):
    # a small search budget keeps this fast; components the search cannot
    # finish within it are skipped, infeasible ones must raise on both sides.
    # The set-based closed form has no budget and checks the whole page, and
    # the solver's degree-layer rule joins exactly the positions that some
    # page 1..rank joins.
    dims, rank, dim_x = grid
    assert solver_neighbours(dims) == _adjacency(sorted(dims), rank)
    compare_components(dims, rank, vanishing(dim_x, enforce), budget=5_000)
    assert_same_ranges(dims, rank, vanishing(dim_x, enforce))


@pytest.fixture(scope="module")
def sweep_pages():
    return [(inp, e1_page(inp)) for inp in koszul_sweep_inputs()]


class TestIsolatedPositions:
    """A component of one position reads [D, D], or 0 when forbidden, straight off."""

    #: (0, 2), (1, 4) and (2, 0) have no neighbour on any page up to 2, in
    #: total degrees 2, 3 and -2; (1, 1) in degree 0 can only hit (0, 1)
    ISOLATED = {(0, 2): 3, (1, 4): 4, (2, 0): 2}
    JOINED = {(1, 1): 1, (0, 1): 2}

    def test_allowed_degrees_give_their_dimension(self):
        assert _limit_ranges(self.ISOLATED, lambda n: True) == {2: (3, 3), 3: (4, 4), -2: (2, 2)}
        assert_same_ranges(self.ISOLATED, 2, lambda n: True)

    def test_forbidden_nonzero_position_raises(self):
        with pytest.raises(InconsistentSpectralSequence):
            _limit_ranges(self.ISOLATED, lambda n: n != -2)
        assert_same_ranges(self.ISOLATED, 2, lambda n: n != -2)

    def test_components_without_forbidden_positions_match_sets(self):
        # degree 0 is forbidden, so only the joined component has a forbidden
        # position; the isolated ones keep their dimensions
        dims = {**self.ISOLATED, **self.JOINED}
        assert len(_differential_components(_adjacency(sorted(dims), 2))) == 4
        for allowed in (lambda n: True, lambda n: n != 0):
            assert_same_ranges(dims, 2, allowed)
            ranges = _limit_ranges(dims, allowed)
            assert [ranges[n] for n in (2, 3, -2)] == [(3, 3), (4, 4), (2, 2)]
        assert _limit_ranges(dims, lambda n: n != 0)[0] == (0, 0)


class TestBitmaskAgainstSets:
    def test_sweep_neighbours_are_the_oracle_adjacency(self, sweep_pages):
        joined = 0
        for inp, page in sweep_pages:
            neighbours = solver_neighbours(page.entries)
            assert neighbours == _adjacency(sorted(page.entries), inp.E.rank)
            joined += sum(map(len, neighbours.values()))
        assert joined > 0

    @pytest.mark.parametrize("enforce", [True, False])
    def test_sweep_pages(self, sweep_pages, enforce):
        for inp, page in sweep_pages:
            assert_same_ranges(page.entries, inp.E.rank, vanishing(inp.dim_x, enforce))
            rc = restricted_cohomology(inp)
            assert type(page.euler) is int and type(rc.euler) is int
            assert rc.euler == page.euler
        assert len(sweep_pages) == 486

    @pytest.mark.parametrize("dim_x", [-1, 0, 1, 2, 3, 4, None])
    def test_full_rank_four_grid(self, dim_x):
        # every cell of a rank-4, q <= 5 grid: one component of 30 positions,
        # 15 per side.  ν tabulates the subsets of its source set only; a
        # table over the subsets of the component or of a side would not fit
        # in the memory bound.
        dims = {(k, q): 1 + (7 * k + 3 * q) % 4 for k in range(5) for q in range(6)}
        assert len(_differential_components(_adjacency(sorted(dims), 4))) == 1
        allowed = vanishing(dim_x, dim_x is not None)
        tracemalloc.start()
        try:
            try:
                _limit_ranges(dims, allowed)
            except InconsistentSpectralSequence:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert_same_ranges(dims, 4, allowed)
