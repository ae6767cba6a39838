"""Candidate validation, Hodge numbers, degree and c2, Euler numbers."""

import argparse
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from g2cy import (KoszulInput, ParabolicData, bundle_cohomology, degree_and_c2, dual,
                  enumerate_all, euler_char, exterior_power, g2_parabolic,
                  g2_root_system, hodge_numbers, koszul_terms,
                  published_invariants, restricted_cohomology, tensor, to_record,
                  validate_candidate, weyl_dim)
from g2cy import cli, invariants, koszul, reps
from g2cy.errors import (FitInconsistent, InconsistentLongExactSequence,
                         NotGloballyGenerated, RankTooLarge, TrivialSummand,
                         WrongDeterminant)
from g2cy.root_system import weight_str

from conftest import koszul_sweep_inputs
from test_reps import oracle_decompose, oracle_dual, oracle_tensor


def candidate(P, *summands):
    return validate_candidate(P, summands)


def count_calls(monkeypatch, module, names, through=None):
    """Patch ``names`` in ``module`` to count their calls into the returned Counter.

    A call goes on to ``through[name]`` if given, else to the original.
    """
    calls = Counter()

    def counted(name):
        inner = (through or {}).get(name, getattr(module, name))

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def oracle_les_c_values(A, B, fixed, dim_x):
    """The former rank search, kept verbatim as the oracle of ``_les_ranges``.

    Dimensions of the C-terms in 0 -> A0 -> B0 -> C0 -> A1 -> ...: enumerates
    the ranks of the maps A^q -> B^q subject to left exactness (the first map
    is injective), non-negativity of every term, C^q = 0 for q > dim_x, and
    any values of C^q pinned by ``fixed``.
    """
    Q = len(A)
    if A[0] > B[0]:
        return []
    ranges = [range(min(A[q], B[q]) + 1) for q in range(Q)]
    ranges[0] = range(A[0], A[0] + 1)
    solutions = []
    for ranks in product(*ranges):
        c = [B[q] - ranks[q] + (A[q + 1] - ranks[q + 1] if q + 1 < Q else 0)
             for q in range(Q)]
        if any(x < 0 for x in c):
            continue
        if any(c[q] != 0 for q in range(dim_x + 1, Q)):
            continue
        if any(c[q] != v for q, v in fixed.items()):
            continue
        solutions.append(tuple(c[: dim_x + 1]))
    return solutions


def oracle_ranges(A, B, fixed, dim_x):
    """Per-q (min, max) over the oracle's solutions, or None if there are none."""
    sols = oracle_les_c_values(A, B, fixed, dim_x)
    if not sols:
        return None
    return [(min(s[q] for s in sols), max(s[q] for s in sols)) for q in range(len(sols[0]))]


def all_rows():
    rows = [row for dim in (2, 3, 4, 5) for row in enumerate_all(dim)]
    assert len(rows) == 22
    return [validate_candidate(g2_parabolic(row.parabolic), row.summands) for row in rows]


class TestValidate:
    def test_main_threefold(self, P1):
        c = candidate(P1, (1, 1))
        assert c.rank == 2 and c.dim_x == 3 and c.det == (3, 0)

    def test_trivial_summand(self, P1):
        with pytest.raises(TrivialSummand):
            candidate(P1, (1, 1), (0, 0))

    def test_wrong_determinant(self, P2):
        with pytest.raises(WrongDeterminant) as err:
            candidate(P2, (1, 0))
        assert "(0,3)" in str(err.value)

    def test_not_globally_generated(self, P1):
        with pytest.raises(NotGloballyGenerated):
            candidate(P1, (-1, 3), (1, 0))

    def test_rank_too_large(self, P1):
        with pytest.raises(RankTooLarge):
            candidate(P1, (1, 0), (1, 0), (1, 0), (1, 0))

    def test_bool_summands_are_rejected(self, P1):
        # True == 1, so (True, True) would pass for (1, 1) and reach the JSON
        # record as [true, true]
        with pytest.raises(ValueError, match="coordinate True"):
            candidate(P1, (True, True))

    @pytest.mark.parametrize("lam,error", [
        (("a", 1), ValueError), ((None, 1), ValueError), ((0, 0.0), ValueError),
        ((1.0, 1), ValueError), ((1,), ValueError),
        ((0, 0), TrivialSummand), ((-1, 0), NotGloballyGenerated)])
    def test_raw_weights_are_checked_first(self, P1, lam, error):
        # every malformed weight gets check_weight's ValueError before the cut
        # rules compare its coordinates; well-formed ones reach the cut rules
        with pytest.raises(error) as err:
            candidate(P1, lam)
        assert type(err.value) is error

    def test_summands_are_canonically_sorted(self, B):
        c = candidate(B, (0, 2), (1, 0), (1, 0))
        assert c.summands == ((1, 0), (1, 0), (0, 2))


class TestHodgeNumbers:
    @pytest.mark.parametrize("name,summands", [("P1", ((1, 1),)),
                                               ("P2", ((1, 1),))])
    def test_main_threefolds(self, name, summands, P1, P2):
        P = {"P1": P1, "P2": P2}[name]
        hr = hodge_numbers(candidate(P, *summands))
        assert [r.value for r in hr.h0q] == [1, 0, 0, 1]
        assert [r.value for r in hr.h1q] == [0, 1, 50, 0]
        assert hr.chi_omega1 == 49

    def test_structure_sheaf_row_on_all_maximal_threefolds(self, P1, P2):
        rows = [(P1, ((1, 1),)), (P1, ((1, 0), (2, 0))),
                (P2, ((1, 1),)), (P2, ((0, 1), (0, 4))), (P2, ((0, 2), (0, 3)))]
        for P, summands in rows:
            hr = hodge_numbers(candidate(P, *summands))
            assert [r.value for r in hr.h0q] == [1, 0, 0, 1]

    def test_split_threefold_chi_via_double_euler_oracle(self, P1):
        # chi(Omega^1_X) independently as a difference of two alternating
        # Koszul sums, each evaluated term by term
        c = candidate(P1, (1, 0), (2, 0))
        e = c.rep

        def koszul_euler(w):
            total = 0
            e_dual = dual(P1, e)
            for k in range(e.rank + 1):
                term = tensor(P1, exterior_power(P1, e_dual, k), w)
                total += (-1) ** k * euler_char(P1, term)
            return total

        chi_conormal = koszul_euler(dual(P1, e))
        chi_cotangent = koszul_euler(dual(P1, P1.tangent))
        assert chi_conormal - chi_cotangent == -60

        hr = hodge_numbers(c)
        assert hr.chi_omega1 == 60
        assert hr.h11.value == 1
        assert hr.h12.value == hr.h11.value + hr.chi_omega1 == 61

    def test_non_threefolds_report_every_h1q(self, P1, B):
        hr = hodge_numbers(candidate(P1, (3, 0)))
        assert [r.value for r in hr.h0q] == [1, 0, 0, 0, 1]
        assert [r.value for r in hr.h1q] == [0, 1, 0, 258, 0]
        hr = hodge_numbers(candidate(B, (2, 2)))
        assert [r.value for r in hr.h0q] == [1, 0, 0, 0, 0, 1]
        assert [r.value for r in hr.h1q] == [0, 2, 0, 0, 714, 0]

    def test_k3_rows_have_h11_twenty(self):
        # every K3 surface has h^{1,1} = 20: a check from outside the package
        rows = [c for c in all_rows() if c.dim_x == 2]
        assert len(rows) == 7
        for c in rows:
            assert [r.value for r in hodge_numbers(c).h1q] == [0, 20, 0], c

    @pytest.mark.parametrize("summands,h11,h12,euler", [
        (((2, 0), (0, 1), (0, 1)), 2, 58, -112),
        (((1, 1), (1, 0), (0, 1)), 2, 48, -92),
        (((1, 0), (1, 0), (0, 2)), 2, 38, -72)])
    def test_borel_threefolds(self, B, summands, h11, h12, euler):
        record = to_record(candidate(B, *summands))
        assert (record["h11"], record["h12"], record["euler"]) == (h11, h12, euler)
        assert record["h1q"] == [0, h11, h12, 0]

    @pytest.mark.parametrize("name,summands,h11,h13", [
        ("P1", ((3, 0),), 1, 258), ("P2", ((0, 5),), 1, 356),
        ("B", ((2, 1), (0, 1)), 2, 200), ("B", ((2, 0), (0, 2)), 2, 102),
        ("B", ((1, 2), (1, 0)), 2, 160), ("B", ((1, 1), (1, 1)), 2, 110)])
    def test_fourfolds(self, name, summands, h11, h13):
        hr = hodge_numbers(candidate(g2_parabolic(name), *summands))
        assert [r.value for r in hr.h1q] == [0, h11, 0, h13, 0]

    def test_alternating_sum_is_chi_omega1(self):
        for c in all_rows():
            hr = hodge_numbers(c)
            assert all(r.determined for r in hr.h1q), c
            assert sum((-1) ** q * r.value for q, r in enumerate(hr.h1q)) == hr.chi_omega1, c

    def test_borel_rows_keep_exact_euler(self, B):
        c = candidate(B, (0, 1), (0, 1), (2, 0))
        hr = hodge_numbers(c)
        assert [r.value for r in hr.h0q] == [1, 0, 0, 1]
        assert hr.h12.value - hr.h11.value == hr.chi_omega1 == 56

    @pytest.mark.parametrize("name,summands", [("P1", ((1, 1),)),
                                               ("P2", ((0, 1), (0, 4))),
                                               ("B", ((0, 1), (0, 1), (2, 0)))])
    def test_three_pages_through_e1_page(self, name, summands, monkeypatch):
        # W = O, E* and Ω_F = (g/p)* each get one page through the public
        # e1_page, whose columns come from weights: no Λ^k E* as a RepSum;
        # E* is the one dual built per record, Ω_F is kept on the parabolic
        P = g2_parabolic(name)
        c = candidate(P, *summands)
        pages = count_calls(monkeypatch, koszul, ("e1_page",))
        weights = count_calls(monkeypatch, reps, ("exterior_power", "decompose"))
        calls_here = count_calls(monkeypatch, invariants, ("dual",))
        hodge_numbers(c)
        assert pages == {"e1_page": 3}
        assert not weights
        assert calls_here == {"dual": 1}
        assert P.cotangent is P.cotangent
        assert P.cotangent == dual(P, P.tangent)

    def test_pages_take_the_candidate_rep_itself(self, P2, monkeypatch):
        # E is the RepSum that validation built, not a rebuild per access
        c = candidate(P2, (0, 1), (0, 4))
        inputs = []
        solve = invariants.restricted_cohomology
        monkeypatch.setattr(invariants, "restricted_cohomology",
                            lambda inp: inputs.append(inp) or solve(inp))
        hodge_numbers(c)
        assert len(inputs) == 3
        assert all(inp.E is c.rep for inp in inputs)


@st.composite
def les_inputs(draw):
    """Random outer terms A, B of a long exact sequence on degrees 0..dim X, and pins on C.

    The pins are read off one choice of ranks, some off by one, so that
    solvable and unsolvable cases both occur often.
    """
    length = draw(st.integers(2, 7))
    terms = st.lists(st.integers(0, 6), min_size=length, max_size=length)
    A, B = draw(terms), draw(terms)
    ranks = [min(A[0], B[0])] + [draw(st.integers(0, min(a, b))) for a, b in zip(A[1:], B[1:])]
    C = [B[q] - ranks[q] + (A[q + 1] - ranks[q + 1] if q + 1 < length else 0)
         for q in range(length)]
    # a run of consecutive pins chains ranks across several degrees
    first = draw(st.integers(0, length - 1))
    pinned = set(range(first, draw(st.integers(first, length))))
    pinned |= draw(st.sets(st.integers(0, length - 1), max_size=2))
    pins = {q: max(0, C[q] + draw(st.sampled_from((0, 0, 0, -1, 1)))) for q in sorted(pinned)}
    return A, B, pins


def oracle_on_degrees(A, B, pins):
    """The rank search on degrees 0..dim X, dim X = len(A) - 1."""
    return oracle_ranges(A, B, pins, len(A) - 1)


class TestLongExactSequence:
    @settings(max_examples=300)
    @given(les_inputs())
    def test_closed_form_matches_rank_search(self, case):
        assert invariants._les_ranges(*case) == oracle_on_degrees(*case)

    @pytest.mark.parametrize("case", [
        ([3, 0], [2, 5], {}),               # A^0 does not inject into B^0
        ([0, 0, 4], [0, 1, 1], {1: 0}),     # ker(A^2 -> B^2) is too large for C^1 = 0
        ([1, 2, 0], [1, 2, 1], {0: 3})])    # a pin that no rank reaches
    def test_no_solution_matches_rank_search(self, case):
        assert oracle_on_degrees(*case) is None
        assert invariants._les_ranges(*case) is None

    def test_no_solving_pair_raises(self, P1, monkeypatch):
        # every (A, B) pair of page vectors fails, as no ranks fit any of them
        monkeypatch.setattr(invariants, "_les_ranges", lambda A, B, pins: None)
        with pytest.raises(InconsistentLongExactSequence):
            hodge_numbers(validate_candidate(P1, [(1, 1)]))

    @pytest.mark.parametrize("case", [
        ([0, 3, 3, 0], [0, 3, 3, 0], {1: 3, 2: 1}),
        ([0, 3, 3, 3, 3, 3, 0], [0, 3, 3, 3, 3, 3, 0], {1: 3, 2: 3, 3: 3, 4: 3, 5: 2})])
    def test_pins_narrow_ranks_along_the_whole_chain(self, case):
        # the last pin fixes the last free rank, and the chain of pins then
        # fixes every rank down to r_1, so the unpinned C^0 = 3 - r_1 is exact
        # only once the last pin has reached r_1
        assert oracle_on_degrees(*case)[0] == (2, 2)
        assert invariants._les_ranges(*case) == oracle_on_degrees(*case)

    def test_closed_form_matches_rank_search_on_every_row(self):
        # the page vectors and pins hodge_numbers feeds the solver, on all 22 rows
        for c in all_rows():
            hr = hodge_numbers(c)
            pages = [restricted_cohomology(KoszulInput(c.P, c.rep, W))
                     for W in (dual(c.P, c.rep), dual(c.P, c.P.tangent))]
            pins = {0: hr.h0q[1].value, c.dim_x: hr.h0q[c.dim_x - 1].value}
            vectors = [invariants._page_vectors(rc) for rc in pages]
            assert 1 <= len(vectors[0]) * len(vectors[1]) <= 6
            for A, B in product(*vectors):
                got = invariants._les_ranges(A, B, pins)
                assert got == oracle_on_degrees(A, B, pins), c
                assert got == [(r.value, r.value) for r in hr.h1q], c

    def test_pins_only_narrow_on_every_row(self):
        # the Serre/Hodge pins can only shrink the ranges the sequence allows
        for c in all_rows():
            h0q = hodge_numbers(c).h0q
            pins = {0: h0q[1].value, c.dim_x: h0q[c.dim_x - 1].value}
            pages = [restricted_cohomology(KoszulInput(c.P, c.rep, W))
                     for W in (dual(c.P, c.rep), dual(c.P, c.P.tangent))]
            for A, B in product(*map(invariants._page_vectors, pages)):
                pinned = invariants._les_ranges(A, B, pins)
                free = invariants._les_ranges(A, B, {})
                assert free is not None, c
                if pinned is not None:
                    assert len(pinned) == len(free) == c.dim_x + 1, c
                    for (lo, hi), (free_lo, free_hi) in zip(pinned, free):
                        assert free_lo <= lo <= hi <= free_hi, c


class TestDegreeAndC2:
    def test_first_threefold(self, P1):
        deg, c2h, samples = degree_and_c2(candidate(P1, (1, 1)))
        assert (deg, c2h) == (42, 84)
        assert ( -1, -14) in samples and (1, 14) in samples

    def test_third_threefold_flags_published_c2(self, P2):
        c = candidate(P2, (1, 1))
        deg, c2h, samples = degree_and_c2(c)
        assert deg == 14
        # integrality of chi(O_X(1)) = 14/6 + c2/12 forces c2 = 8 (mod 12)
        assert c2h % 12 == 8
        published = published_invariants("P2", c.summands)
        assert published["c2H"] == 50
        assert c2h != published["c2H"]
        # every sample is an exact integer on the fitted cubic
        for i, value in samples:
            assert 2 * deg * i ** 3 + c2h * i == 12 * value

    def test_split_threefold_fit(self, P1):
        deg, c2h, samples = degree_and_c2(candidate(P1, (1, 0), (2, 0)))
        assert deg > 0 and c2h > 0
        assert (deg, c2h) == (36, 84)  # frozen from the Hilbert samples
        for i, value in samples:
            assert 2 * deg * i ** 3 + c2h * i == 12 * value

    def test_all_maximal_threefold_rows_are_positive(self, P1, P2):
        rows = [(P1, ((1, 1),)), (P1, ((1, 0), (2, 0))),
                (P2, ((1, 1),)), (P2, ((0, 1), (0, 4))), (P2, ((0, 2), (0, 3)))]
        for P, summands in rows:
            deg, c2h, _ = degree_and_c2(candidate(P, *summands))
            assert deg > 0 and c2h > 0

    def test_split_rows_factor_through_ambient_degree(self, P1, P2, rs):
        # oracle: the ambient degree is the 5th finite difference of the
        # section counts i -> h^0(O(i)), and a complete intersection of line
        # bundles multiplies it by the twist degrees
        from math import comb
        from g2cy import weyl_dim

        def ambient_degree(P):
            node = next(iter(P.crossed))
            omega = tuple(int(j == node - 1) for j in range(2))
            f = [weyl_dim(rs, tuple(i * x for x in omega)) for i in range(6)]
            return sum((-1) ** j * comb(5, j) * f[5 - j] for j in range(6))

        assert ambient_degree(P1) == 18   # the adjoint 5-fold
        assert ambient_degree(P2) == 2    # the quadric 5-fold
        for P, summands, twists in [(P1, ((1, 0), (2, 0)), (1, 2)),
                                    (P2, ((0, 1), (0, 4)), (1, 4)),
                                    (P2, ((0, 2), (0, 3)), (2, 3))]:
            deg, _, _ = degree_and_c2(candidate(P, *summands))
            expected = ambient_degree(P)
            for t in twists:
                expected *= t
            assert deg == expected

    def test_rejects_non_threefold(self, P1):
        with pytest.raises(FitInconsistent):
            degree_and_c2(candidate(P1, (3, 0)))

    def test_hilbert_samples_build_no_koszul_powers(self, P2, monkeypatch):
        # the samples need only the weights of E: no Λ^k E*, no E1 column
        calls = count_calls(monkeypatch, koszul, ("dual", "exterior_power", "e1_page"))
        hilbert = count_calls(monkeypatch, invariants, ("hilbert_value",))
        _, _, samples = degree_and_c2(candidate(P2, (0, 1), (0, 4)))
        assert len(samples) == 9
        assert not calls
        assert hilbert == {"hilbert_value": 9}

    def test_samples_take_the_candidate_rep_itself(self, P2, monkeypatch):
        c = candidate(P2, (0, 1), (0, 4))
        bundles = []
        sample = invariants.hilbert_value
        monkeypatch.setattr(invariants, "hilbert_value",
                            lambda P, E, i: bundles.append(E) or sample(P, E, i))
        degree_and_c2(c)
        assert len(bundles) == 9
        assert all(E is c.rep for E in bundles)


class TestEulerNumber:
    def test_main_threefolds(self, P1, P2):
        assert to_record(candidate(P1, (1, 1)))["euler"] == -98
        assert to_record(candidate(P2, (1, 1)))["euler"] == -98

    def test_needs_threefold(self, P1):
        record = to_record(candidate(P1, (3, 0)))
        assert record["euler"] is None
        assert record["statuses"]["euler"] == "not_applicable"


class TestRecord:
    def test_schema(self, P1):
        record = to_record(candidate(P1, (1, 1)))
        for key in ("parabolic", "summands", "rank", "dim_X", "det", "h0q", "h1q",
                    "h11", "h12", "chi_omega1", "deg", "c2H", "euler", "statuses"):
            assert key in record
        assert record["h1q"] == [0, 1, 50, 0]
        assert record["statuses"]["h1q"] == ["determined"] * 4
        assert record["deg"] == 42 and record["c2H"] == 84
        assert record["h11"] == 1 and record["h12"] == 50
        assert record["euler"] == -98

    def test_every_number_is_an_int(self, P1):
        # exact arithmetic by type: no float or Fraction in any record or table
        def numbers(obj):
            if isinstance(obj, dict):
                for v in obj.values():
                    yield from numbers(v)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    yield from numbers(v)
            elif obj is not None and not isinstance(obj, str):
                yield obj

        for c in all_rows():
            payloads = [to_record(c)]
            bundles = koszul_terms(KoszulInput(c.P, c.rep, dual(c.P, c.rep)))
            bundles.append(dual(c.P, c.P.tangent))
            for r in bundles:
                # the {q: {mu: m}} map, keys included, and the JSON payload
                # of the cohomology command
                groups = bundle_cohomology(c.P, r)
                payloads.append([[q, list(mu), m] for q, group in groups.items()
                                 for mu, m in group.items()])
                summands = "+".join(weight_str(lam) for lam, m in r.terms.items()
                                    for _ in range(m))
                payloads.append(cli._cmd_cohomology(argparse.Namespace(
                    parabolic=c.P.label, summands=summands))[0])
            for payload in payloads:
                for x in numbers(payload):
                    assert type(x) is int, (c, x)

    def test_borel_record_has_no_polarised_invariants(self, B):
        record = to_record(candidate(B, (0, 1), (0, 1), (2, 0)))
        assert record["deg"] is None and record["c2H"] is None
        assert record["statuses"]["deg"] == "not_applicable"

    def test_multiset_dual_and_tensor_give_identical_records(self, monkeypatch):
        # the closed-form dual and the Brauer–Klimyk columns against multiset
        # oracles, patched wherever koszul and invariants look them up: E1
        # pages come from Λ^k E* ⊗ W by peeling whole Levi strings and by
        # Clebsch–Gordan, and the duals negate and re-decompose weight multisets
        def oracle_page(inp):
            P = inp.P
            e_dual, entries = oracle_dual(P, inp.E), {}
            for k in range(inp.E.rank + 1):
                term = oracle_tensor(P, exterior_power(P, e_dual, k), inp.W)
                for q, group in bundle_cohomology(P, term).items():
                    entries[k, q] = sum(m * weyl_dim(P.rs, mu) for mu, m in group.items())
            return koszul.E1Page(entries, sum((-1) ** (q - k) * d for (k, q), d in entries.items()))

        closed_form = [to_record(c) for c in all_rows()]
        monkeypatch.setattr(reps, "decompose", oracle_decompose)
        oracles = {"dual": oracle_dual, "e1_page": oracle_page}
        in_koszul = count_calls(monkeypatch, koszul, ("e1_page",), oracles)
        in_invariants = count_calls(monkeypatch, invariants, ("dual",), oracles)
        assert [to_record(c) for c in all_rows()] == closed_form
        assert in_koszul["e1_page"] and in_invariants["dual"]


class TestDerivedAtConstruction:
    """Rank, weight pairs, cotangent and trivial bundle are built once, with their owners."""

    def test_rank_is_the_weight_count(self):
        rows = all_rows()
        bundles = [c.rep for c in rows] + [inp.W for inp in koszul_sweep_inputs()]
        bundles += [b for P in {c.P for c in rows} for b in (P.tangent, P.cotangent)]
        for r in bundles:
            P = r.parabolic
            strings = sum(m * P.string_length(lam) for lam, m in r.terms.items())
            assert r.rank == sum(r.weights().values()) == strings, r

    @pytest.mark.parametrize("name,crossed,summands", [("P1", (1,), ((1, 1),)),
                                                       ("P2", (2,), ((0, 1), (0, 4))),
                                                       ("B", (1, 2), ((0, 1), (0, 1), (2, 0)))])
    def test_fresh_parabolic_has_its_cotangent(self, name, crossed, summands, monkeypatch):
        # the cotangent and O_F are built with the parabolic, so a record over
        # a fresh one still makes one dual call, for E*
        P = ParabolicData(g2_root_system(), crossed)
        assert P is not g2_parabolic(name) and P == g2_parabolic(name)
        assert "cotangent" in vars(P) and "trivial" in vars(P)    # set by __init__
        assert P.cotangent == dual(P, P.tangent)
        assert P.trivial == reps.trivial(P)
        c = validate_candidate(P, summands)
        counters = [count_calls(monkeypatch, module, ("dual",))
                    for module in (invariants, koszul, reps)]
        record = to_record(c)
        assert sum(counters, Counter()) == {"dual": 1}
        assert record == to_record(candidate(g2_parabolic(name), *summands))
