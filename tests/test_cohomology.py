"""Single-degree cohomology, Weyl dimensions, Euler characteristics."""

import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from g2cy import (G2_CARTAN, CartanMatrix, ParabolicData, RepSum, build_root_system,
                  bundle_cohomology, bwb_irrep, dual, euler_char, g2_root_system,
                  hilbert_value, irrep, trivial, weyl_dim)
from g2cy.cohomology import _BottTable, _bott_table
from g2cy.errors import NotGDominant, NotPDominant
from g2cy.root_system import wadd, wneg, wscale, wsub

from conftest import p_dominant_box
from test_kernels import root_system

SRC = str(Path(__file__).resolve().parents[1] / "src")


def weyl_dim_oracle(rs, mu):
    """Independent product formula straight from the bilinear form."""
    d = rs.symmetrizer
    C = rs.cartan.entries
    n = rs.rank
    bil = [[C[i][j] * d[j] for j in range(n)] for i in range(n)]
    rho = (1,) * n
    value = Fraction(1)
    for alpha in rs.positive_roots:
        sc = alpha.simple_coords
        norm = sum(sc[i] * sc[j] * bil[i][j] for i in range(n) for j in range(n))

        def pair(lam):
            return Fraction(2 * sum(sc[i] * d[i] * lam[i] for i in range(n)), norm)

        value *= pair(wadd(mu, rho)) / pair(rho)
    assert value.denominator == 1
    return int(value)


class TestWeylDim:
    @pytest.mark.parametrize("mu,expected", [
        ((0, 0), 1),
        ((0, 1), 7),     # the 7-dimensional fundamental representation
        ((1, 0), 14),    # the adjoint representation
        ((1, 1), 64),
        ((2, 0), 77),
        ((0, 2), 27),
    ])
    def test_known_dimensions(self, rs, mu, expected):
        assert weyl_dim(rs, mu) == expected

    def test_against_product_oracle(self, rs):
        for a in range(5):
            for b in range(5):
                assert weyl_dim(rs, (a, b)) == weyl_dim_oracle(rs, (a, b))

    def test_rejects_non_dominant(self, rs):
        with pytest.raises(NotGDominant):
            weyl_dim(rs, (-1, 3))

    @pytest.mark.parametrize("mu", [(True, 0), (0, False), (1,), (1, 0, 0)])
    def test_rejects_bools_and_wrong_lengths(self, rs, mu):
        with pytest.raises(ValueError):
            weyl_dim(rs, mu)

    @pytest.mark.parametrize("cartan", [G2_CARTAN, CartanMatrix([[2, -1], [-1, 2]])],
                             ids=["G2", "A2"])
    def test_product_on_any_weight(self, cartan):
        # Weyl's product, evaluated at any weight mu, is (-1)^l dim V(w(mu + rho)
        # - rho), or 0 when mu + rho is singular: the identity hilbert_value
        # and euler_char sum over, read off the Bott kernel
        rs = build_root_system(cartan)
        table = _bott_table(rs)
        for mu in product(range(-8, 9), repeat=2):
            res = table[mu]
            signed = 0 if res is None else (-1) ** res[0] * res[2]
            assert signed == weyl_dim_oracle(rs, mu)

    def test_cache_is_bounded(self, P1, monkeypatch):
        # each Hilbert twist feeds the root system's Bott table new
        # non-dominant weights: it computes more entries than its bound, never
        # holds more keys than the bound, stays the one table of the root
        # system, and reads the same values after emptying itself
        computed = []
        compute = _BottTable.__missing__
        monkeypatch.setattr(_BottTable, "__missing__",
                            lambda table, lam: computed.append(lam) or compute(table, lam))
        E = irrep(P1, (1, 1))
        table = _bott_table(P1.rs)
        values = {}
        for i in range(-2500, 2500):
            values[i] = hilbert_value(P1, E, i)
            assert len(table) <= 4096
        assert len(computed) > 4096
        assert _bott_table(P1.rs) is table and type(table) is _BottTable
        assert all(hilbert_value(P1, E, i) == values[i] for i in range(-2500, 2500, 97))

    def test_float_weights_cannot_poison_the_cache(self):
        # in a child interpreter, so that a float key left in the Bott
        # table cannot reach the rest of the session: 1.0 == 1 and both hash
        # alike, so one stored float result would be served to every integer
        # caller; every public entry rejects the float before the table,
        # which holds only the key (1, 0) of the one integer weyl_dim call
        code = textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[1])
            from g2cy import (KoszulInput, RepSum, bwb_irrep, e1_page, g2_parabolic,
                              hilbert_value, irrep, validate_candidate, weyl_dim)
            from g2cy.cohomology import _bott_table
            from g2cy.invariants import to_record
            P1 = g2_parabolic("P1")
            for call in (lambda: weyl_dim(P1.rs, (0.0, 1)),
                         lambda: (weyl_dim(P1.rs, (1, 0)), weyl_dim(P1.rs, (1.0, 0))),
                         lambda: hilbert_value(P1, irrep(P1, (1, 1)), 1.0),
                         lambda: bwb_irrep(P1, (-3.0, 0)),
                         lambda: e1_page(KoszulInput(P1, irrep(P1, (1, 1)),
                                                     RepSum(P1, {(1.0, 0): 1})))):
                try:
                    print("returned", call())
                except ValueError:
                    print("ValueError")
            print("cached", list(_bott_table(P1.rs)))

            def numbers(x):
                if isinstance(x, dict):
                    x = list(x.values())
                if isinstance(x, list):
                    return [n for item in x for n in numbers(item)]
                return [x] if isinstance(x, (int, float)) else []

            record = to_record(validate_candidate(P1, [(1, 1)]))
            print(sorted({type(n).__name__ for n in numbers(record)}), record["deg"])
        """)
        proc = subprocess.run([sys.executable, "-c", code, SRC],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["ValueError"] * 5 + ["cached [(1, 0)]", "['int'] 42"]


class TestBott:
    """The memoised kernel against the checked public entries."""

    def test_matches_bwb_irrep_and_weyl_dim(self, parabolics):
        # the checked entries read the kernel, which matches the independent
        # dominant conjugate and product oracle
        for P in parabolics:
            rho = P.rs.weyl_vector
            for lam in p_dominant_box(P, 8):
                conj = P.rs.dominant_conjugate(wadd(lam, rho))
                res = _bott_table(P.rs)[lam]
                if conj is None:
                    assert res is None and bwb_irrep(P, lam) is None
                    continue
                mu = wsub(conj[1], rho)
                assert res == (conj[0], mu, weyl_dim_oracle(P.rs, mu))
                assert bwb_irrep(P, lam) == res[:2] and weyl_dim(P.rs, mu) == res[2]

    @pytest.mark.parametrize("cartan", [G2_CARTAN, CartanMatrix([[2, -1], [-1, 2]])],
                             ids=["G2", "A2"])
    def test_signed_dimension_is_weyl_product(self, cartan):
        # on any weight, the degree and label are the dominant conjugate's and
        # the dimension is the product oracle's at the label
        rs = build_root_system(cartan)
        rho, table = rs.weyl_vector, _bott_table(rs)
        for mu in product(range(-8, 9), repeat=2):
            conj = rs.dominant_conjugate(wadd(mu, rho))
            if conj is None:
                assert table[mu] is None
            else:
                dom = wsub(conj[1], rho)
                assert table[mu] == (conj[0], dom, weyl_dim_oracle(rs, dom))

    def test_levi_reflection_is_a_degree_shift(self):
        # Demazure's step in Bott's theorem, which e1_page reads for the
        # Brauer–Klimyk reflection: with a = lam_i < 0 at the Levi node i,
        # a = -1 is singular, and a <= -2 gives the entry of
        # s_i.lam = lam - (a + 1) alpha_i one degree higher, same label and
        # dimension.  Every rank-one-Levi parabolic of four root systems,
        # every lam in [-7, 7]^rank; s_i.lam is p-dominant, so the checked
        # bwb_irrep and weyl_dim read it
        checked = 0
        for name in ("G2", "A2", "B2", "A3"):
            rs = root_system(name)
            table, nodes = _bott_table(rs), range(1, rs.rank + 1)
            for i in nodes:
                P = ParabolicData(rs, [j for j in nodes if j != i])
                for lam in product(range(-7, 8), repeat=rs.rank):
                    a = lam[i - 1]
                    if a >= 0:
                        continue
                    checked += 1
                    res = bwb_irrep(P, wsub(lam, wscale(a + 1, P.levi_root))) if a < -1 else None
                    assert table[lam] == (
                        None if res is None else (res[0] + 1, res[1], weyl_dim(rs, res[1])))
        assert checked == 5355


class TestBwbIrrep:
    def test_dominant_lands_in_degree_zero(self, parabolics):
        for P in parabolics:
            for lam in p_dominant_box(P, 6):
                if all(c >= 0 for c in lam):
                    assert bwb_irrep(P, lam) == (0, lam)

    def test_singular_example(self, P1):
        assert bwb_irrep(P1, (-2, 1)) is None

    def test_canonical_bundle_top_degree(self, P1):
        # the canonical bundle of the 5-fold has one-dimensional H^5
        assert bwb_irrep(P1, (-3, 0)) == (5, (0, 0))

    def test_p2_dual_of_main_bundle_vanishes(self, P2):
        e_dual = dual(P2, irrep(P2, (1, 1)))
        (lam, mult), = e_dual.terms.items()
        assert mult == 1
        assert bwb_irrep(P2, lam) is None

    def test_rejects_non_p_dominant(self, P1):
        with pytest.raises(NotPDominant):
            bwb_irrep(P1, (0, -1))

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", None, True, False])
    def test_rejects_non_integer_coordinate(self, P1, bad):
        # a float weight would come back as a fake Borel-Weil-Bott result
        for lam in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match=re.escape(f"coordinate {bad!r}")):
                bwb_irrep(P1, lam)

    @pytest.mark.parametrize("lam", [(1,), (1, 0, 0), ()])
    def test_rejects_a_weight_of_the_wrong_length(self, parabolics, lam):
        for P in parabolics:
            with pytest.raises(ValueError, match="does not have length 2"):
                bwb_irrep(P, lam)

    def test_degree_bound(self, parabolics):
        for P in parabolics:
            for lam in p_dominant_box(P, 6):
                res = bwb_irrep(P, lam)
                if res is not None:
                    assert 0 <= res[0] <= P.dim


def total_dims(groups):
    """{q: dim H^q} of a ``bundle_cohomology`` map."""
    rs = g2_root_system()
    return {q: sum(m * weyl_dim(rs, mu) for mu, m in group.items())
            for q, group in groups.items()}


class TestBundleCohomology:
    def test_trivial_bundle(self, parabolics):
        for P in parabolics:
            assert bundle_cohomology(P, trivial(P)) == {0: {(0, 0): 1}}

    def test_adjoint_sections(self, P1):
        groups = bundle_cohomology(P1, irrep(P1, (1, 0)))
        assert total_dims(groups) == {0: 14}

    def test_cotangent_has_one_h1(self, P1, P2):
        # h^{1,1} = 1 for both 5-folds: Picard rank one
        for P in (P1, P2):
            omega = dual(P, P.tangent)
            assert bundle_cohomology(P, omega) == {1: {(0, 0): 1}}

    def test_cotangent_of_full_flag(self, B):
        # Picard rank two for G/B
        groups = bundle_cohomology(B, dual(B, B.tangent))
        assert groups == {1: {(0, 0): 2}}
        assert total_dims(groups) == {1: 2}

    def test_sections_count_matches_weyl_dim(self, parabolics, rs):
        for P in parabolics:
            for lam in p_dominant_box(P, 5):
                if all(c >= 0 for c in lam):
                    groups = bundle_cohomology(P, irrep(P, lam))
                    assert total_dims(groups)[0] == weyl_dim(rs, lam)

    def test_exclusivity_per_summand(self, parabolics):
        # each irreducible summand contributes to at most one degree, and
        # the summands' maps add up to the bundle's
        for P in parabolics:
            r = RepSum(P, {lam: 1 + i % 3 for i, lam in enumerate(p_dominant_box(P, 3))})
            added: dict = {}
            for lam, mult in r.terms.items():
                own = bundle_cohomology(P, RepSum(P, {lam: mult}))
                assert len(own) <= 1
                for q, group in own.items():
                    for mu, m in group.items():
                        added.setdefault(q, {})
                        added[q][mu] = added[q].get(mu, 0) + m
            groups = bundle_cohomology(P, r)
            assert len(groups) > 1
            assert groups == added
            assert list(groups) == sorted(groups)
            assert all(list(group) == sorted(group) for group in groups.values())


class TestEulerChar:
    def test_trivial(self, parabolics):
        for P in parabolics:
            assert euler_char(P, trivial(P)) == 1

    def test_canonical_bundle(self, P1):
        assert euler_char(P1, irrep(P1, (-3, 0))) == -1

    def test_seven_sections_on_quadric(self, P2):
        assert euler_char(P2, irrep(P2, (0, 1))) == 7

    def test_serre_duality_symmetry(self, parabolics):
        # chi(E_lam) = (-1)^{dim G/P} chi(E_lam*),
        # lam* the highest weight of dual(V_lam) tensored with the canonical character
        for P in parabolics:
            canonical = wneg(P.anticanonical)
            sign = (-1) ** P.dim
            for lam in p_dominant_box(P, 6):
                r = irrep(P, lam)
                (dual_highest, _), = dual(P, r).terms.items()
                lam_star = wadd(dual_highest, canonical)
                assert euler_char(P, r) == sign * euler_char(P, irrep(P, lam_star))
