"""Candidate validation, Hodge numbers, degree and c2, Euler numbers."""

from collections import Counter

import pytest

from g2cy import (KoszulInput, bundle_cohomology, degree_and_c2, dual,
                  enumerate_all, euler_char, euler_number, exterior_power,
                  g2_parabolic, hodge_numbers, koszul_terms,
                  published_invariants, tensor, to_record, validate_candidate)
from g2cy import invariants, koszul
from g2cy.errors import (FitInconsistent, NotGloballyGenerated, RankTooLarge,
                         TrivialSummand, UndeterminedHodge, WrongDeterminant)

from test_reps import oracle_dual, oracle_tensor


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
        if hr.h12.determined:
            assert hr.h12.value == hr.h11.value + hr.chi_omega1

    def test_non_threefolds_report_h0q_only(self, P1, B):
        hr = hodge_numbers(candidate(P1, (3, 0)))
        assert [r.value for r in hr.h0q] == [1, 0, 0, 0, 1]
        assert hr.h1q is None
        hr = hodge_numbers(candidate(B, (2, 2)))
        assert [r.value for r in hr.h0q] == [1, 0, 0, 0, 0, 1]

    def test_audit_mode_never_contradicts(self, P1, P2):
        for P in (P1, P2):
            c = candidate(P, (1, 1))
            strict = hodge_numbers(c, enforce_vanishing=True)
            loose = hodge_numbers(c, enforce_vanishing=False)
            for on, off in zip(strict.h1q, loose.h1q):
                assert off.lower <= on.lower and on.upper <= off.upper
                if off.determined:
                    assert on == off

    def test_borel_rows_keep_exact_euler(self, B):
        c = candidate(B, (0, 1), (0, 1), (2, 0))
        hr = hodge_numbers(c)
        assert [r.value for r in hr.h0q] == [1, 0, 0, 1]
        # undetermined entries are reported as bounds, never guessed
        if hr.h11.determined and hr.h12.determined:
            assert hr.h12.value - hr.h11.value == hr.chi_omega1

    @pytest.mark.parametrize("name,summands", [("P1", ((1, 1),)),
                                               ("P2", ((0, 1), (0, 4))),
                                               ("B", ((0, 1), (0, 1), (2, 0)))])
    def test_koszul_powers_shared_by_the_three_pages(self, name, summands, monkeypatch):
        # W = O, E* and Ω_F share one Λ^k E* per k; E* itself is Λ^1 E*, and
        # the one other dual is Ω_F = (g/p)*
        c = candidate(g2_parabolic(name), *summands)
        calls = count_calls(monkeypatch, koszul, ("dual", "exterior_power"))
        calls_here = count_calls(monkeypatch, invariants, ("dual",))
        hodge_numbers(c)
        assert calls == {"dual": 1, "exterior_power": c.rank + 1}
        assert calls_here == {"dual": 1}


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

    def test_koszul_powers_built_once_for_all_twists(self, P2, monkeypatch):
        calls = count_calls(monkeypatch, koszul, ("dual", "exterior_power"))
        c = candidate(P2, (0, 1), (0, 4))
        _, _, samples = degree_and_c2(c)
        assert len(samples) == 9
        assert calls == {"dual": 1, "exterior_power": c.rank + 1}


class TestEulerNumber:
    def test_main_threefolds(self, P1, P2):
        assert euler_number(candidate(P1, (1, 1))) == -98
        assert euler_number(candidate(P2, (1, 1))) == -98

    def test_needs_threefold(self, P1):
        with pytest.raises(UndeterminedHodge):
            euler_number(candidate(P1, (3, 0)))


class TestRecord:
    def test_schema(self, P1):
        record = to_record(candidate(P1, (1, 1)))
        for key in ("parabolic", "summands", "rank", "dim_X", "det", "h0q",
                    "h11", "h12", "chi_omega1", "deg", "c2H", "euler", "statuses"):
            assert key in record
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
            payloads += [bundle_cohomology(c.P, term).to_json()
                         for term in koszul_terms(KoszulInput(c.P, c.rep, dual(c.P, c.rep)))]
            payloads.append(bundle_cohomology(c.P, dual(c.P, c.P.tangent)).to_json())
            for payload in payloads:
                for x in numbers(payload):
                    assert type(x) is int, (c, x)

    def test_borel_record_has_no_polarised_invariants(self, B):
        record = to_record(candidate(B, (0, 1), (0, 1), (2, 0)))
        assert record["deg"] is None and record["c2H"] is None
        assert record["statuses"]["deg"] == "not_applicable"

    def test_multiset_dual_and_tensor_give_identical_records(self, monkeypatch):
        # the closed-form dual and tensor against the former multiset ones,
        # patched wherever koszul and invariants look them up; koszul takes
        # products only inside its Clebsch–Gordan–BWB kernel, so the oracle
        # tensor stands in there, its cohomology read off bundle_cohomology
        def oracle_tensor_dims(P, a, b):
            return bundle_cohomology(P, oracle_tensor(P, a, b)).total_dims()

        closed_form = [to_record(c) for c in all_rows()]
        oracles = {"dual": oracle_dual, "_tensor_dims": oracle_tensor_dims}
        in_koszul = count_calls(monkeypatch, koszul, ("dual", "_tensor_dims"), oracles)
        in_invariants = count_calls(monkeypatch, invariants, ("dual",), oracles)
        assert [to_record(c) for c in all_rows()] == closed_form
        assert in_koszul["dual"] and in_koszul["_tensor_dims"] and in_invariants["dual"]
