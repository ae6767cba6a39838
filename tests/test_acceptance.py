"""Acceptance suite: one test per criterion, every assertion exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  All arithmetic is integer arithmetic; the stated tolerance of
every check is zero.
"""

from math import comb

from g2cy import (diff_against_paper, decompose, dual, e1_page, enumerate_all,
                  enumerate_candidates, euler_char, exterior_power,
                  g2_parabolic, g2_root_system, hilbert_value, hodge_numbers,
                  irrep, koszul_terms, published_invariants, restricted_cohomology,
                  to_record, validate_candidate, verify_theorem, weyl_dim, bwb_irrep,
                  bundle_cohomology, degree_and_c2)
from g2cy.cli import main
from g2cy.root_system import wadd, wneg

from conftest import koszul_sweep_inputs, oracle_enumerate, p_dominant_box


def _pass(n, message):
    print(f"ACCEPTANCE {n}: PASS: {message}")


def maximal_rows():
    """All rows on the two Grassmannians, as validated candidates."""
    rows = []
    for dim in (2, 3, 4):
        for row in enumerate_all(dim):
            if row.parabolic in ("P1", "P2"):
                P = g2_parabolic(row.parabolic)
                rows.append(validate_candidate(P, row.summands))
    return rows


def test_criterion_1_root_data():
    rs = g2_root_system()
    assert len(rs.positive_roots) == 6
    assert rs.weyl_order() == 12
    assert rs.weyl_vector == (1, 1)
    dims = {name: g2_parabolic(name).dim for name in ("P1", "P2", "B")}
    assert dims == {"P1": 5, "P2": 5, "B": 6}
    antik = {name: g2_parabolic(name).anticanonical for name in ("P1", "P2", "B")}
    assert antik == {"P1": (3, 0), "P2": (0, 5), "B": (2, 2)}
    _pass(1, "6 positive roots, |W| = 12, rho = (1,1), dims (5,5,6), "
             "anticanonical (3,0)/(0,5)/(2,2)")


def test_criterion_2_closed_forms():
    cases = 0
    for name in ("P1", "P2", "B"):
        P = g2_parabolic(name)
        for a in range(-6, 7):
            for b in range(-6, 7):
                if not P.is_p_dominant((a, b)):
                    continue
                string = irrep(P, (a, b)).weights()
                if name == "P1":
                    expected = {(a + j, b - 2 * j) for j in range(b + 1)}
                    dim, det = b + 1, (a * (b + 1) + b * (b + 1) // 2, 0)
                elif name == "P2":
                    expected = {(a - 2 * j, b + 3 * j) for j in range(a + 1)}
                    dim, det = a + 1, (0, (a + 1) * b + 3 * a * (a + 1) // 2)
                else:
                    expected = {(a, b)}
                    dim, det = 1, (a, b)
                assert set(string) == expected and all(c == 1 for c in string.values())
                assert irrep(P, (a, b)).rank == dim
                assert irrep(P, (a, b)).det == det
                cases += 1
    assert cases >= 3 * 13 * 7
    _pass(2, f"strings, dims and dets match the closed forms on {cases} weights")


def test_criterion_3_weyl_dims():
    rs = g2_root_system()
    assert weyl_dim(rs, (0, 0)) == 1
    assert weyl_dim(rs, (0, 1)) == 7
    assert weyl_dim(rs, (1, 0)) == 14
    # cross-check 14 against chi(O_X(1)) = 42/6 + 84/12 on the first threefold
    P1 = g2_parabolic("P1")
    assert hilbert_value(P1, irrep(P1, (1, 1)), 1) == 42 // 6 + 84 // 12 == 14
    # cross-check 7 against the hyperplane sections of the quadric 5-fold
    P2 = g2_parabolic("P2")
    assert euler_char(P2, irrep(P2, (0, 1))) == 7
    _pass(3, "weyl_dim = 1/7/14 with both cross-checks")


def test_criterion_4_tables(capsys):
    matched_counts = []
    for dim in (5, 4, 3, 2):
        diff = diff_against_paper(dim)
        assert diff["missing"] == []
        matched_counts.append(len(diff["matched"]))
        if dim == 4:
            extra = [(r.parabolic, tuple(sorted(r.summands))) for r in diff["extra"]]
            assert extra == [("B", ((1, 0), (1, 2)))]
        else:
            assert diff["extra"] == []
    assert matched_counts == [1, 5, 8, 7]
    codes = {}
    for dim in (5, 4, 3, 2):
        codes[dim] = main(["classify", "--dim", str(dim), "--check-paper"])
    capsys.readouterr()
    assert codes == {5: 0, 4: 2, 3: 0, 2: 0}
    _pass(4, "counts (1,5,8,7) matched, zero missing; the extra fourfold row "
             "{(1,0),(1,2)} on B is reported with exit code 2")


def test_criterion_5_theorem():
    witnesses = verify_theorem()
    assert set(witnesses) == {"P1", "P2"}
    for name, row in witnesses.items():
        assert row.summands == ((1, 1),)
        assert not row.split
    _pass(5, "exactly one non-split threefold bundle on each Grassmannian, "
             "both with highest weight (1,1)")


def test_criterion_6_invariants_no1():
    c = validate_candidate(g2_parabolic("P1"), [(1, 1)])
    deg, c2h, _ = degree_and_c2(c)
    assert (deg, c2h) == (42, 84)
    hr = hodge_numbers(c)
    assert [r.value for r in hr.h0q] == [1, 0, 0, 1]
    assert hr.h1q[1].value == 1 and hr.h1q[2].value == 50
    assert to_record(c)["euler"] == -98
    _pass(6, "deg 42, c2 84, h^{0,1} = h^{0,2} = 0, h11 1, h12 50, Euler -98")


def test_criterion_7_invariants_no3():
    c = validate_candidate(g2_parabolic("P2"), [(1, 1)])
    deg, c2h, samples = degree_and_c2(c)
    assert deg == 14
    hr = hodge_numbers(c)
    assert hr.h1q[1].value == 1 and hr.h1q[2].value == 50
    # integrality audit of chi(O_X(i)) = deg/6 i^3 + c2/12 i for i = -4..4
    for i in range(-4, 5):
        numerator = 2 * deg * i ** 3 + c2h * i
        assert numerator % 12 == 0
        assert numerator // 12 == dict(samples)[i]
    published = published_invariants("P2", c.summands)
    assert published["c2H"] == 50
    assert c2h != published["c2H"], "mismatch with the published c2 must be visible"
    record = to_record(c)
    _pass(7, f"deg 14, h11 1, h12 50; computed c2 = {c2h} is chi-integral for "
             f"i = -4..4 and flagged against the published 50")


def test_criterion_8a_bwb_exclusivity_and_degree_bound():
    cases = 0
    for name in ("P1", "P2", "B"):
        P = g2_parabolic(name)
        for lam in p_dominant_box(P, 6):
            res = bwb_irrep(P, lam)
            if res is not None:
                degree, mu = res
                assert 0 <= degree <= P.dim
                assert all(c >= 0 for c in mu)
            # the irreducible's cohomology is all in the one degree bwb_irrep names
            groups = bundle_cohomology(P, irrep(P, lam))
            assert groups == ({} if res is None else {res[0]: {res[1]: 1}})
            cases += 1
    assert cases >= 200
    _pass("8a", f"BWB exclusivity and degree bound on {cases} cases")


def test_criterion_8b_serre_euler_symmetry():
    cases = 0
    for name in ("P1", "P2", "B"):
        P = g2_parabolic(name)
        canonical = wneg(P.anticanonical)
        sign = (-1) ** P.dim
        for lam in p_dominant_box(P, 6):
            r = irrep(P, lam)
            (dual_highest, _), = dual(P, r).terms.items()
            lam_star = wadd(dual_highest, canonical)
            assert euler_char(P, r) == sign * euler_char(P, irrep(P, lam_star))
            cases += 1
    assert cases >= 200
    _pass("8b", f"Serre-duality Euler symmetry on {cases} cases")


def test_criterion_8c_dual_involution():
    cases = 0
    for name in ("P1", "P2", "B"):
        P = g2_parabolic(name)
        for lam in p_dominant_box(P, 6):
            r = irrep(P, lam)
            assert dual(P, dual(P, r)) == r
            cases += 1
    assert cases >= 200
    _pass("8c", f"dual involution on {cases} cases")


def test_criterion_8d_decompose_round_trip():
    cases = 0
    for name in ("P1", "P2", "B"):
        P = g2_parabolic(name)
        for lam in p_dominant_box(P, 6):
            assert decompose(P, irrep(P, lam).weights()) == irrep(P, lam)
            cases += 1
    assert cases >= 200
    _pass("8d", f"decompose∘weights round trip on {cases} cases")


def test_criterion_8e_exterior_rank():
    cases = 0
    for name, bound in (("P1", 3), ("P2", 3), ("B", 2)):
        P = g2_parabolic(name)
        for lam in p_dominant_box(P, bound):
            r = irrep(P, lam)
            for k in range(r.rank + 1):
                assert exterior_power(P, r, k).rank == comb(r.rank, k)
                cases += 1
    assert cases >= 200
    _pass("8e", f"exterior-power ranks C(n,k) on {cases} cases")


def test_criterion_8f_koszul_euler_double_sum():
    cases = 0
    for inp in koszul_sweep_inputs():
        P = inp.P
        direct = sum((-1) ** k * euler_char(P, term)
                     for k, term in enumerate(koszul_terms(inp)))
        page_euler = e1_page(inp).euler
        rc = restricted_cohomology(inp)
        assert page_euler == direct and rc.euler == direct
        assert type(page_euler) is int and type(rc.euler) is int
        assert all(type(r.lower) is int and type(r.upper) is int
                   for r in rc.by_degree.values())
        cases += 1
    assert cases >= 200
    _pass("8f", f"Koszul double-summation Euler agreement on {cases} cases")


def test_criterion_8g_hilbert_finite_differences():
    cases = 0
    for c in maximal_rows():
        order = c.dim_x + 1
        values = {i: hilbert_value(c.P, c.rep, i) for i in range(-10, 11)}
        for i in range(-10, 11 - order):
            diff = sum((-1) ** j * comb(order, j) * values[i + order - j]
                       for j in range(order + 1))
            assert diff == 0
            cases += 1
    assert cases >= 200
    _pass("8g", f"finite differences of order dim X + 1 vanish on {cases} windows")


def test_criterion_8h_hilbert_twist_symmetry():
    cases = 0
    cy3 = 0
    for c in maximal_rows():
        sign = (-1) ** c.dim_x
        for i in range(1, 18):
            assert hilbert_value(c.P, c.rep, -i) == sign * hilbert_value(c.P, c.rep, i)
            cases += 1
            if c.dim_x == 3 and i <= 4:
                cy3 += 1
    assert cases >= 200
    assert cy3 == 5 * 4  # the odd symmetry on every maximal threefold row, i = 1..4
    _pass("8h", f"twist symmetry chi(-i) = (-1)^dim chi(i) on {cases} cases")


def test_criterion_9_brute_force_equivalence():
    checked = 0
    for name in ("P1", "P2", "B"):
        P = g2_parabolic(name)
        for dim in (2, 3, 4, 5):
            if not 2 <= dim <= P.dim - 1:
                continue
            rows = {tuple(sorted(r.summands)) for r in enumerate_candidates(P, dim)}
            assert rows == oracle_enumerate(name, dim)
            checked += 1
    assert checked == 10
    _pass(9, f"bounded enumeration equals the naive multiset oracle on "
             f"{checked} (parabolic, dimension) pairs")
