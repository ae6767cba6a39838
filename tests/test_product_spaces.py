"""Known answers from outside the paper: complete intersections in products of
projective spaces.

A product of P^1's and at most one P^2 is G/P for a block-diagonal Cartan
matrix: each A1 block is a P^1 with its node crossed, an A2 block is a P^2
with node 1 crossed, and O(d) on it is the weight (d, 0).  Every Levi has
semisimple rank at most one, so these spaces run through the same code as the
G2 rows.  The Calabi–Yau threefolds below are in the CICY list (Candelas,
Dale, Lütken and Schimmrigk, Nucl. Phys. B 298 (1988) 493; Green, Hübsch and
Lütken, Class. Quantum Grav. 6 (1989) 105); the K3 surfaces, fourfolds and
products follow from them by Lefschetz and Künneth.

Each Euler number is checked on its own in the Chern ring
Π Z[H_i]/(H_i^{n_i+1}): χ_top = ∫ c_top(T_X) c_top(E), with
c(T_X) = c(T_F) / c(E).
"""

from operator import add

import pytest

from g2cy import (CartanMatrix, ParabolicData, build_root_system, irrep, to_record,
                  validate_candidate)

# a summand T_{P^2} ⊗ O(d): the P^2 factor's tangent bundle twisted by O(d)
TWISTED_TANGENT = "T"

# id, projective factor dimensions, summands (degrees per factor, or
# (TWISTED_TANGENT, degrees)), expected record fields, χ_top
ROWS = [
    ("P1^4 O(2,2,2,2)", (1, 1, 1, 1), [(2, 2, 2, 2)],
     {"h11": 4, "h12": 68, "euler": -128}, -128),
    ("P1xP1xP2 O(2,2,3)", (1, 1, 2), [(2, 2, 3)],
     {"h11": 3, "h12": 75, "euler": -144}, -144),
    ("P1^5 O(1,1,1,1,1)^2", (1, 1, 1, 1, 1), [(1, 1, 1, 1, 1)] * 2,
     {"h11": 5, "h12": 45, "euler": -80}, -80),
    ("P1^3xP2 O(2,2,2,1)+O(0,0,0,2)", (1, 1, 1, 2), [(2, 2, 2, 1), (0, 0, 0, 2)],
     {"h11": 4, "h12": 68, "euler": -128}, -128),
    # a linear section of the first row; its cotangent page is only bounded
    ("P1^5 O(0,0,0,0,1)+O(2,2,2,2,1)", (1, 1, 1, 1, 1), [(0, 0, 0, 0, 1), (2, 2, 2, 2, 1)],
     {"h11": 4, "h12": 68, "euler": -128}, -128),
    # a linear section of the second row
    ("P2xP1^3 O(0;0,0,1)+O(3;2,2,1)", (2, 1, 1, 1), [(0, 0, 0, 1), (3, 2, 2, 1)],
     {"h11": 3, "h12": 75, "euler": -144}, -144),
    # two disjoint copies of the first row
    ("P1^5 O(0,0,0,0,2)+O(2,2,2,2,0)", (1, 1, 1, 1, 1), [(0, 0, 0, 0, 2), (2, 2, 2, 2, 0)],
     {"h0q": [2, 0, 0, 2], "h1q": [0, 8, 136, 0], "euler": -256}, -256),
    ("fourfold P1^5 O(2,2,2,2,2)", (1, 1, 1, 1, 1), [(2, 2, 2, 2, 2)],
     {"h0q": [1, 0, 0, 0, 1], "h1q": [0, 5, 0, 227, 0]}, 1440),
    ("fourfold P1^3xP2 O(2,2,2,3)", (1, 1, 1, 2), [(2, 2, 2, 3)],
     {"h0q": [1, 0, 0, 0, 1], "h1q": [0, 4, 0, 252, 0]}, 1584),
    ("K3 P1^3 O(2,2,2)", (1, 1, 1), [(2, 2, 2)],
     {"h0q": [1, 0, 1], "h1q": [0, 20, 0]}, 24),
    # a rank-2 summand that is not a sum of line bundles
    ("K3 P1xP1xP2 T(1,1,0)", (1, 1, 2), [(TWISTED_TANGENT, (1, 1, 0))],
     {"h0q": [1, 0, 1], "h1q": [0, 20, 0], "chi_omega1": -20}, 24),
    # an elliptic curve times a K3 surface
    ("E x K3 P1^5 O(0,0,2,2,2)+O(2,2,0,0,0)", (1, 1, 1, 1, 1),
     [(0, 0, 2, 2, 2), (2, 2, 0, 0, 0)], {"h0q": [1, 1, 1, 1]}, 0),
]
IDS = [row[0] for row in ROWS]


def ambient(factors) -> ParabolicData:
    """The product of P^m over ``factors`` as G/P of a block-diagonal Cartan matrix."""
    n = sum(factors)
    rows = [[2 * (i == j) for j in range(n)] for i in range(n)]
    crossed, start = [], 0
    for m in factors:
        for i in range(start + 1, start + m):
            rows[i][i - 1] = rows[i - 1][i] = -1
        crossed.append(start + 1)
        start += m
    return ParabolicData(build_root_system(CartanMatrix(rows)), crossed)


def weight(factors, summand) -> tuple[int, ...]:
    """Highest weight of O(d): (d,) on a P^1 and (d, 0) on a P^2, where
    T_{P^2} ⊗ O(d) has (d + 1, 1)."""
    tangent = summand[0] == TWISTED_TANGENT
    degrees = summand[1] if tangent else summand
    out = ()
    for m, d in zip(factors, degrees):
        out += (d,) if m == 1 else (d + 1, 1) if tangent else (d, 0)
    return out


def record(factors, summands) -> dict:
    P = ambient(factors)
    return to_record(validate_candidate(P, [weight(factors, s) for s in summands]))


# Integer polynomials in H_1..H_k as {exponents: coefficient}, truncated at
# H_i^{n_i + 1} = 0.

def mul(p, q, top):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            e = tuple(map(add, a, b))
            if all(u <= t for u, t in zip(e, top)):
                out[e] = out.get(e, 0) + x * y
    return out


def linear(coefficients):
    """1 + Σ c_i H_i, the total Chern class of O(c)."""
    k = len(coefficients)
    p = {(0,) * k: 1}
    for i, c in enumerate(coefficients):
        p[tuple(int(j == i) for j in range(k))] = c
    return p


def part(p, degree):
    return {e: c for e, c in p.items() if sum(e) == degree}


def inverse(p, top):
    """1 / p for p = 1 + x with x nilpotent: Σ_j (-x)^j, which ends at the top degree."""
    one = (0,) * len(top)
    minus_x = {e: -c for e, c in p.items() if e != one}
    out, term = {one: 1}, {one: 1}
    for _ in range(sum(top)):
        term = mul(term, minus_x, top)
        for e, c in term.items():
            out[e] = out.get(e, 0) + c
    return out


def chern_classes(factors, summands):
    """(top exponents, c(T_X) = c(T_F) / c(E), c(E), rank E) in the Chern ring of F."""
    top = tuple(factors)
    k = len(top)
    hyperplane = [tuple(int(j == i) for j in range(k)) for i in range(k)]
    c_tf = {(0,) * k: 1}
    for i, m in enumerate(top):               # Euler sequence: c(T_{P^m}) = (1 + H)^{m+1}
        for _ in range(m + 1):
            c_tf = mul(c_tf, linear(hyperplane[i]), top)
    c_e, rank = {(0,) * k: 1}, 0
    for s in summands:
        if s[0] == TWISTED_TANGENT:
            # 0 -> O(d) -> O(d)(1)^3 -> T ⊗ O(d) -> 0 on the P^2 factor
            d = s[1]
            up = [a + (m == 2) for a, m in zip(d, top)]
            c = inverse(linear(d), top)
            for _ in range(3):
                c = mul(c, linear(up), top)
            c_e, rank = mul(c_e, c, top), rank + 2
        else:
            c_e, rank = mul(c_e, linear(s), top), rank + 1
    return top, mul(c_tf, inverse(c_e, top), top), c_e, rank


def chern_euler(factors, summands) -> int:
    """χ_top(X) = ∫_F c_{dim X}(T_F / E) · c_{rank E}(E)."""
    top, c_tx, c_e, rank = chern_classes(factors, summands)
    return mul(part(c_tx, sum(top) - rank), part(c_e, rank), top).get(top, 0)


def chern_deg_c2h(factors, summands) -> tuple[int, int]:
    """(H^3, c_2(T_X)·H) on a threefold X, with H = Σ H_i the sum of the
    crossed fundamental weights: ∫_F H^3 c_top(E) and ∫_F c_2(T_X) H c_top(E)."""
    top, c_tx, c_e, rank = chern_classes(factors, summands)
    h = part(linear([1] * len(top)), 1)
    volume = mul(h, part(c_e, rank), top)
    return (mul(mul(h, h, top), volume, top).get(top, 0),
            mul(part(c_tx, 2), volume, top).get(top, 0))


def alternating(row) -> int:
    return sum((-1) ** q * h for q, h in enumerate(row))


def hodge_euler(rec) -> int:
    """χ_top from the h^{0,q} and h^{1,q} rows, by Serre duality and Hodge symmetry."""
    h0, h1 = rec["h0q"], rec["h1q"]
    n = rec["dim_X"]
    if n == 2:
        return 2 * alternating(h0) - alternating(h1)
    if n == 3:
        return 2 * alternating(h0) - 2 * alternating(h1)
    assert n == 4 and h0 == [1, 0, 0, 0, 1]
    return 6 * (8 + h1[1] + h1[3] - h1[2])


class TestHelpers:
    @pytest.mark.parametrize("factors", [(1,), (2,), (1, 1, 2), (1, 1, 1, 1)])
    def test_ambient_euler_number(self, factors):
        expected = 1
        for m in factors:
            expected *= m + 1
        assert chern_euler(factors, []) == expected

    def test_p2_tangent_is_the_levi_irrep(self):
        P = ambient((2,))
        assert P.tangent == irrep(P, weight((2,), (TWISTED_TANGENT, (0,))))


@pytest.mark.parametrize("name, factors, summands, expected, chi", ROWS, ids=IDS)
class TestKnownAnswers:
    def test_record_matches_table(self, name, factors, summands, expected, chi):
        rec = record(factors, summands)
        assert {key: rec[key] for key in expected} == expected

    def test_chern_ring_gives_the_euler_number(self, name, factors, summands, expected, chi):
        assert chern_euler(factors, summands) == chi

    def test_hodge_numbers_give_the_euler_number(self, name, factors, summands, expected, chi):
        rec = record(factors, summands)
        if all(rec["statuses"]["h1q"][q] == "determined" for q in range(rec["dim_X"] + 1)):
            assert hodge_euler(rec) == chi
        # χ(Ω^1_X) is exact on every row: χ_top = 2 χ(O_X) - 2 χ(Ω^1_X) on threefolds,
        # and the record's euler is that number even where h^{1,1} and h^{1,2} are bounded
        if rec["dim_X"] == 3:
            assert 2 * alternating(rec["h0q"]) - 2 * rec["chi_omega1"] == chi
            assert rec["euler"] == chi
            assert rec["statuses"]["euler"] == "determined"

    def test_chern_ring_gives_degree_and_c2(self, name, factors, summands, expected, chi):
        # O_X(1) is L_H with H = Σ H_i, one crossed node per factor, so the
        # Hilbert fit of every threefold is H^3 and c_2·H in the Chern ring
        rec = record(factors, summands)
        if rec["dim_X"] != 3:
            assert rec["deg"] is rec["c2H"] is None
            return
        assert rec["statuses"]["deg"] == rec["statuses"]["c2H"] == "determined"
        assert (rec["deg"], rec["c2H"]) == chern_deg_c2h(factors, summands)


# every summand a line bundle that is ample, and dim X >= 3
AMPLE = [row for row in ROWS if sum(row[1]) - len(row[2]) >= 3
         and all(s[0] != TWISTED_TANGENT and min(s) > 0 for s in row[2])]


@pytest.mark.parametrize("name, factors, summands", [row[:3] for row in AMPLE],
                         ids=[row[0] for row in AMPLE])
def test_lefschetz_h11_counts_factors(name, factors, summands):
    # Lefschetz: H^2(X) = H^2(F), one class per factor
    assert record(factors, summands)["h1q"][1] == len(factors)


def test_elliptic_times_k3_bounds_contain_kunneth():
    # Künneth on E × K3 gives h^{1,q} = (1, 21, 21, 1); the bounds are sound, not tight
    name, factors, summands, _, _ = ROWS[-1]
    rec = record(factors, summands)
    for h, exact in zip(rec["h1q"], (1, 21, 21, 1)):
        lower, upper = (h, h) if isinstance(h, int) else (h["lower"], h["upper"])
        assert lower <= exact <= upper
