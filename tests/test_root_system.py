"""Root system construction, reflections, pairings, dominant conjugates."""

import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from g2cy import G2_CARTAN, CartanMatrix, WeylElement, build_root_system
from g2cy.errors import InvalidCartan, NonFiniteType
from g2cy.root_system import Weight, check_weight, wscale, wsub

SRC = str(Path(__file__).resolve().parents[1] / "src")


def a_series(r):
    rows = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r)]
            for i in range(r)]
    return CartanMatrix.from_rows(rows)


def e_series(r):
    """E_r in Bourbaki numbering: the chain 1-3-4-...-r with node 2 on node 4."""
    rows = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j in [(1, 3), (2, 4)] + [(k, k + 1) for k in range(3, r)]:
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = -1
    return CartanMatrix.from_rows(rows)


# The former Weyl walk, kept verbatim (less its cache) as the oracle: a
# breadth-first search over the images of the n basis vectors, under a cap on
# the number of elements.

def oracle_weyl_elements(self, bound: int = 1_000_000) -> tuple[WeylElement, ...]:
    """Enumerate the whole Weyl group as reduced words (breadth first)."""
    n = self.rank
    identity = tuple(tuple(int(k == j) for k in range(n)) for j in range(n))
    seen: dict[tuple[Weight, ...], tuple[int, ...]] = {identity: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for cols in frontier:
            word = seen[cols]
            for i in range(1, n + 1):
                ncols = tuple(self.reflect(i, c) for c in cols)
                if ncols not in seen:
                    seen[ncols] = (i,) + word
                    nxt.append(ncols)
                    if len(seen) > bound:
                        raise NonFiniteType("Weyl group enumeration exceeded bound")
        frontier = nxt
    return tuple(WeylElement(w) for w in
                 sorted(seen.values(), key=lambda w: (len(w), w)))


class TestBuild:
    def test_a1(self):
        rs = build_root_system(CartanMatrix.from_rows([[2]]))
        assert len(rs.positive_roots) == 1
        assert rs.weyl_order() == 2

    def test_a1_x_a1(self):
        rs = build_root_system(CartanMatrix.from_rows([[2, 0], [0, 2]]))
        assert len(rs.positive_roots) == 2
        assert rs.weyl_order() == 4

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_a_series_counts(self, r):
        rs = build_root_system(a_series(r))
        assert len(rs.positive_roots) == r * (r + 1) // 2
        import math
        assert rs.weyl_order() == math.factorial(r + 1)

    def test_g2_counts(self, rs):
        assert len(rs.positive_roots) == 6
        assert rs.weyl_order() == 12
        assert rs.weyl_vector == (1, 1)

    def test_g2_symmetrizer(self, rs):
        assert rs.symmetrizer == (3, 1)

    @pytest.mark.parametrize("rows, expected", [
        ([[2, -2], [-1, 2]], (2, 1)),
        ([[2, -1], [-2, 2]], (1, 2)),
        ([[2, -1], [-3, 2]], (1, 3)),
        ([[2, -1, 0], [-2, 2, -1], [0, -1, 2]], (1, 2, 2)),
    ])
    def test_symmetrizer(self, rows, expected):
        rs = build_root_system(CartanMatrix.from_rows(rows))
        assert rs.symmetrizer == expected
        C = rs.cartan.entries
        assert all(C[i][j] * expected[j] == C[j][i] * expected[i]
                   for i in range(rs.rank) for j in range(rs.rank))

    def test_non_symmetrizable_cycle(self):
        # the ratios d2/d1 = 2, d3/d2 = 1 and d1/d3 = 1 around the cycle disagree
        cycle = CartanMatrix.from_rows([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])
        with pytest.raises(InvalidCartan, match="not symmetrizable"):
            build_root_system(cycle)

    def test_g2_positive_root_weights(self, rs):
        # reflection-closure by hand: alpha1, alpha2, and the four sums
        # alpha1+alpha2, alpha1+2alpha2, alpha1+3alpha2, 2alpha1+3alpha2
        expected = {(2, -3), (-1, 2), (1, -1), (0, 1), (-1, 3), (1, 0)}
        assert {r.weight for r in rs.positive_roots} == expected

    def test_g2_length_classes(self, rs):
        long_roots = {r.weight for r in rs.positive_roots if r.long}
        assert long_roots == {(2, -3), (-1, 3), (1, 0)}

    def test_simple_roots_are_cartan_rows(self, rs):
        assert rs.simple_root(1).weight == (2, -3)
        assert rs.simple_root(2).weight == (-1, 2)

    def test_non_finite_type(self):
        # in a child interpreter with a timeout: a finiteness test that lets
        # an infinite root system through makes the reflection closure loop
        # forever, which must fail here instead of hanging the suite
        code = textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[1])
            from g2cy import CartanMatrix, build_root_system
            from g2cy.errors import NonFiniteType
            for rows in ([[2, -2], [-2, 2]],                        # affine A1
                         [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],   # affine A2
                         [[2, -3], [-3, 2]]):                       # hyperbolic
                try:
                    build_root_system(CartanMatrix.from_rows(rows))
                except NonFiniteType:
                    print("NonFiniteType")
        """)
        proc = subprocess.run([sys.executable, "-c", code, SRC],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["NonFiniteType"] * 3

    def test_large_finite_type_builds(self):
        # A32 has 528 positive roots; finiteness is decided by the form, not a count
        rs = build_root_system(a_series(32))
        assert len(rs.positive_roots) == 32 * 33 // 2

    @pytest.mark.parametrize("rows", [a_series(r).entries for r in (1, 2, 3, 4)]
                             + [[[2, -2], [-1, 2]], G2_CARTAN.entries],
                             ids=["A1", "A2", "A3", "A4", "B2", "G2"])
    def test_weyl_order_counts_the_group(self, rows):
        rs = build_root_system(CartanMatrix.from_rows(rows))
        assert rs.weyl_order() == len(rs.weyl_elements())

    @pytest.mark.parametrize("r, order", [(6, 51_840), (8, 696_729_600)])
    def test_weyl_order_of_e_series(self, r, order):
        assert build_root_system(e_series(r)).weyl_order() == order

    @pytest.mark.parametrize("rows", [
        [[1]],                      # bad diagonal
        [[2, 1], [-1, 2]],          # positive off-diagonal
        [[2, 0], [-1, 2]],          # asymmetric zero pattern
        [[2, -1]],                  # not square
        [[2, -1.9], [-1, 2]],       # a float entry, not truncated to -1
        [[2, "-3"], [-1, 2]],       # a string entry, not parsed
        [[2, False], [False, 2]],   # bool entries, not read as 0
    ])
    def test_invalid_cartan(self, rows):
        with pytest.raises(InvalidCartan):
            CartanMatrix.from_rows(rows)


class TestReflect:
    def test_highest_root(self, rs):
        # s_1 sends the highest root to another positive root
        image = rs.reflect(1, (1, 0))
        assert image == (-1, 3)
        assert image in {r.weight for r in rs.positive_roots}

    def test_short_fundamental(self, rs):
        assert rs.reflect(2, (0, 1)) == (1, -1)

    def test_fixes_other_fundamental_weights(self, rs):
        assert rs.reflect(1, (0, 1)) == (0, 1)
        assert rs.reflect(2, (1, 0)) == (1, 0)

    def test_involution(self, rs):
        for lam in product(range(-4, 5), repeat=2):
            for i in (1, 2):
                assert rs.reflect(i, rs.reflect(i, lam)) == lam


class TestPairing:
    def test_fundamental_vs_simple_coroots(self, rs):
        for i in (1, 2):
            for j in (1, 2):
                omega = tuple(int(k == j - 1) for k in range(2))
                assert rs.pairing(omega, rs.simple_root(i)) == int(i == j)

    def test_simple_normalisation(self, rs):
        for i in (1, 2):
            alpha = rs.simple_root(i)
            assert rs.pairing(alpha.weight, alpha) == 2

    def test_rho_against_highest_root(self, rs):
        highest = next(r for r in rs.positive_roots if r.weight == (1, 0))
        assert rs.pairing((1, 1), highest) == 3

    def test_coroot_expansion_oracle(self, rs):
        # independent computation of <lam, alpha^vee> = 2(lam, alpha)/(alpha, alpha)
        # through the symmetrized bilinear form, in exact rationals
        d = rs.symmetrizer
        C = rs.cartan.entries
        n = rs.rank
        bil = [[C[i][j] * d[j] for j in range(n)] for i in range(n)]
        for alpha in rs.positive_roots:
            sc = alpha.simple_coords
            norm = sum(sc[i] * sc[j] * bil[i][j] for i in range(n) for j in range(n))
            for lam in product(range(-3, 4), repeat=2):
                # (lam, alpha_i) = d_i * lam_i since coordinates are coroot pairings
                inner = sum(sc[i] * d[i] * lam[i] for i in range(n))
                assert rs.pairing(lam, alpha) == Fraction(2 * inner, norm)

    def test_reflection_antisymmetry(self, rs):
        cases = 0
        for alpha in rs.positive_roots:
            for lam in product(range(-4, 5), repeat=2):
                reflected = wsub(lam, wscale(rs.pairing(lam, alpha), alpha.weight))
                assert rs.pairing(reflected, alpha) == -rs.pairing(lam, alpha)
                cases += 1
        assert cases == 6 * 81


class TestDominantConjugate:
    def test_strictly_dominant_is_fixed(self, rs):
        for mu in [(1, 1), (2, 5), (1, 3)]:
            assert rs.dominant_conjugate(mu) == (0, mu)

    def test_minus_rho(self, rs):
        assert rs.dominant_conjugate((-1, -1)) == (6, (1, 1))

    def test_length_five_example(self, rs):
        assert rs.dominant_conjugate((-2, 1)) == (5, (1, 1))

    def test_singular_example(self, rs):
        assert rs.dominant_conjugate((-1, 2)) is None

    def test_exhaustive_weyl_oracle(self, rs):
        # oracle: scan all 12 group elements for a strictly dominant image
        elements = rs.weyl_elements()
        for mu in product(range(-6, 7), repeat=2):
            hits = [(w.length, rs.act(w.word, mu)) for w in elements
                    if all(c > 0 for c in rs.act(w.word, mu))]
            got = rs.dominant_conjugate(mu)
            if not hits:
                assert got is None
            else:
                assert len(hits) == 1
                assert got == hits[0]

    def test_weyl_invariance_and_length_step(self, rs):
        for mu in product(range(-5, 6), repeat=2):
            res = rs.dominant_conjugate(mu)
            for i in (1, 2):
                res_i = rs.dominant_conjugate(rs.reflect(i, mu))
                if res is None:
                    assert res_i is None
                else:
                    assert res_i is not None
                    assert res_i[1] == res[1]
                    if mu[i - 1] != 0:
                        assert abs(res_i[0] - res[0]) == 1

    def test_regular_bounds(self, rs):
        for mu in product(range(-6, 7), repeat=2):
            res = rs.dominant_conjugate(mu)
            if res is not None:
                length, dom = res
                assert 0 <= length <= len(rs.positive_roots)
                assert all(c >= 1 for c in dom)


class TestWeylElements:
    @pytest.mark.parametrize("rows", [
        a_series(1).entries, a_series(2).entries, a_series(3).entries, a_series(4).entries,
        [[2, -2], [-1, 2]],
        [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
        [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
        G2_CARTAN.entries,
        [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        [[2, 0], [0, 2]],
    ], ids=["A1", "A2", "A3", "A4", "B2", "C3", "D4", "G2", "F4", "A1xA1"])
    def test_orbit_walk_matches_matrix_walk(self, rows):
        rs = build_root_system(CartanMatrix.from_rows(rows))
        assert rs.weyl_elements() == oracle_weyl_elements(rs)

    def test_large_groups_refused_from_their_order(self):
        # in a child interpreter with a timeout and a memory cap: a walk that
        # starts on E7 (2,903,040 elements) must fail here, not exhaust the host
        code = textwrap.dedent("""
            import ast, resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
            sys.path.insert(0, sys.argv[1])
            from g2cy import CartanMatrix, build_root_system
            from g2cy.errors import OutOfRange
            for rows in ast.literal_eval(sys.argv[2]):
                try:
                    build_root_system(CartanMatrix(rows)).weyl_elements()
                except OutOfRange as exc:
                    print(exc)
        """)
        cartans = repr([e_series(7).entries, e_series(8).entries])
        proc = subprocess.run([sys.executable, "-c", code, SRC, cartans],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        e7, e8 = proc.stdout.splitlines()
        assert "2903040 elements" in e7
        assert "696729600 elements" in e8

    def test_words_are_reduced(self, rs):
        lengths = sorted(w.length for w in rs.weyl_elements())
        # dihedral of order 12: one element per length except two in 1..5
        assert lengths == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]

    def test_longest_length_is_root_count(self, rs):
        assert max(w.length for w in rs.weyl_elements()) == len(rs.positive_roots)

    def test_word_then_inverse_is_identity(self, rs):
        for w in rs.weyl_elements():
            inverse = tuple(reversed(w.word))
            for mu in [(1, 1), (2, 3), (5, 1)]:
                assert rs.act(w.word, rs.act(inverse, mu)) == mu

    def test_distinct_actions(self, rs):
        images = {rs.act(w.word, (1, 1)) for w in rs.weyl_elements()}
        assert len(images) == 12

    def test_length_counts_inverted_roots(self, rs):
        positive = {r.weight for r in rs.positive_roots}
        for w in rs.weyl_elements():
            inverted = sum(1 for r in rs.positive_roots
                           if rs.act(w.word, r.weight) not in positive)
            assert inverted == w.length


class TestCheckWeight:
    def test_returns_a_tuple(self):
        assert check_weight([1, -2], 2) == (1, -2)
        assert check_weight(iter((0, 0, 3)), 3) == (0, 0, 3)

    @pytest.mark.parametrize("lam", [(1,), (1, 0, 0), (), [1, 2, 3]])
    def test_rejects_a_wrong_length(self, lam):
        with pytest.raises(ValueError, match="does not have length 2"):
            check_weight(lam, 2)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "1", None])
    def test_rejects_a_coordinate_not_of_type_int(self, bad):
        # bool is a subclass of int and 1.0 == 1: neither may pass as a weight
        for lam in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match=re.escape(f"coordinate {bad!r} is not")):
                check_weight(lam, 2)
