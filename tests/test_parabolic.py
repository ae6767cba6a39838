"""Crossed diagrams, dim G/P, tangent representations, dominance tests."""

import pytest

from g2cy import CartanMatrix, ParabolicData, build_root_system, g2_parabolic, is_g_dominant
from g2cy.errors import UnsupportedLevi
from g2cy.reps import RepSum

from conftest import p_dominant_box


class TestMakeParabolic:
    def test_dimensions(self, P1, P2, B):
        assert (P1.dim, P2.dim, B.dim) == (5, 5, 6)

    def test_anticanonical_weights(self, P1, P2, B):
        assert P1.anticanonical == (3, 0)
        assert P2.anticanonical == (0, 5)
        assert B.anticanonical == (2, 2)

    def test_levi_ranks(self, P1, P2, B):
        assert (P1.levi_rank, P2.levi_rank, B.levi_rank) == (1, 1, 0)

    def test_levi_roots(self, rs, P1, P2, B):
        # the uncrossed simple root, as a row of the Cartan matrix; zero on B
        assert P1.levi_root == rs.cartan.row(2) == (-1, 2)
        assert P2.levi_root == rs.cartan.row(1) == (2, -3)
        assert B.levi_root == (0, 0)

    def test_string_lengths(self, P1, P2, B):
        assert (P1.string_length((5, 3)), P2.string_length((5, 3))) == (4, 6)
        assert B.string_length((5, 3)) == B.string_length((-2, -9)) == 1

    def test_tangent_p1(self, P1):
        assert P1.tangent == RepSum(P1, {(-1, 3): 1, (1, 0): 1})

    def test_tangent_p2(self, P2):
        assert P2.tangent == RepSum(P2, {(1, -1): 1, (1, 0): 1, (0, 1): 1})

    def test_tangent_b(self, B):
        expected = {(2, -3): 1, (1, 0): 1, (1, -1): 1, (0, 1): 1,
                    (-1, 3): 1, (-1, 2): 1}
        assert B.tangent == RepSum(B, expected)

    def test_tangent_rank_is_dim(self, parabolics):
        for P in parabolics:
            assert P.tangent.rank == P.dim
            assert sum(P.tangent.weights().values()) == P.dim

    def test_tangent_det_is_anticanonical(self, parabolics):
        for P in parabolics:
            assert P.tangent.det == P.anticanonical

    def test_tangent_weights_are_positive_roots_outside_levi(self, parabolics, rs):
        for P in parabolics:
            levi = {r.weight for r in rs.positive_roots
                    if all(c == 0 or (i + 1) in P.uncrossed
                           for i, c in enumerate(r.simple_coords))}
            outside = {r.weight for r in rs.positive_roots} - levi
            assert set(P.tangent.weights()) == outside

    def test_dim_monotone_in_crossing(self, P1, P2, B):
        # more crossed nodes, bigger quotient
        assert P1.crossed <= B.crossed and P1.dim <= B.dim
        assert P2.crossed <= B.crossed and P2.dim <= B.dim

    def test_spec_roundtrip(self, rs, P1):
        assert ParabolicData(rs, P1.crossed) == P1
        assert ParabolicData(rs, [1]) == P1

    def test_equality_and_hash_beyond_identity(self, P1, P2, B):
        # the cached G2 parabolics compare by identity first; separately built
        # ones, even over a separately built root system, must still agree
        rs = build_root_system(CartanMatrix([[2, -3], [-1, 2]]))
        for P in (P1, P2, B):
            twin = ParabolicData(rs, P.crossed)
            assert twin is not P and twin.rs is not P.rs
            assert twin == P and P == twin and hash(twin) == hash(P)
            assert twin == ParabolicData(rs, P.crossed)
        assert P1 != P2 and P1 != B and ParabolicData(rs, [1]) != ParabolicData(rs, [2])
        assert hash(P1) != hash(P2) and P1 != "P1"

    def test_labels(self, P1, P2, B):
        assert (P1.label, P2.label, B.label) == ("P1", "P2", "B")

    @pytest.mark.parametrize("name", ["P3", "", 1, None, [1], {}])
    def test_g2_parabolic_rejects_unknown_names(self, name):
        with pytest.raises(ValueError, match="unknown parabolic"):
            g2_parabolic(name)

    def test_rejects_empty_crossing(self, rs):
        with pytest.raises(ValueError):
            ParabolicData(rs, ())

    def test_rejects_bad_node(self, rs):
        with pytest.raises(ValueError):
            ParabolicData(rs, (3,))

    @pytest.mark.parametrize("node", [1.7, 1.0, True, "1", None])
    def test_rejects_a_crossed_node_not_of_type_int(self, rs, node):
        with pytest.raises(ValueError, match="crossed node"):
            ParabolicData(rs, [node])

    def test_rejects_levi_of_semisimple_rank_two(self):
        a3 = build_root_system(CartanMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))
        with pytest.raises(UnsupportedLevi):
            ParabolicData(a3, [1])
        assert ParabolicData(a3, [1, 3]).levi_rank == 1


class TestDominance:
    def test_borel_accepts_everything(self, B):
        for lam in [(5, -7), (-1, -1), (0, 0), (-6, 6)]:
            assert B.is_p_dominant(lam)

    def test_p1_examples(self, P1):
        assert P1.is_p_dominant((-1, 3))
        assert not P1.is_p_dominant((0, -1))

    def test_p2_examples(self, P2):
        assert P2.is_p_dominant((1, -4))
        assert not P2.is_p_dominant((-1, 0))

    def test_g_dominance(self):
        assert is_g_dominant((1, 1))
        assert is_g_dominant((0, 0))
        assert not is_g_dominant((-1, 3))

    def test_g_dominant_implies_p_dominant(self, parabolics):
        for P in parabolics:
            for lam in p_dominant_box(P, 4):
                if is_g_dominant(lam):
                    assert P.is_p_dominant(lam)
