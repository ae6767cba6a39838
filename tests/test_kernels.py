"""The integer weight kernels against their former generic versions.

``dominant_conjugate``, ``wadd``, ``wsub``, ``RepSum.det`` and
``ParabolicData.is_p_dominant`` were rewritten to build one tuple per step.
The former versions are kept below verbatim as oracles (methods turned into
functions of their instance), and every kernel must agree with its oracle on
whole boxes of weights, over G2 and the other rank-two root systems.  The
simple reflection lives only here, as ``oracle_reflect``, which the Weyl-walk
oracles of ``test_root_system`` use: the package applies it only inline, in
``dominant_conjugate`` and the root closure.
``tensor`` and ``exterior_power`` are checked the same way on every parabolic
below, against the Clebsch–Gordan oracle of ``test_reps`` and brute-force
subset sums.
"""

import re
from collections import Counter
from itertools import combinations, product

import pytest

from g2cy import decompose, exterior_power, irrep, tensor
from g2cy.errors import NotARepresentation, NotPDominant
from g2cy.parabolic import ParabolicData
from g2cy.reps import RepSum
from g2cy.root_system import CartanMatrix, build_root_system, wadd, wscale, wsub, wzero

from test_reps import oracle_tensor


def oracle_wadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def oracle_wsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def oracle_reflect(rs, i, lam):
    """Simple reflection s_i(lam) = lam - <lam, alpha_i^vee> alpha_i."""
    c = lam[i - 1]
    if c == 0:
        return lam
    return oracle_wsub(lam, wscale(c, rs.cartan.row(i)))


def oracle_dominant_conjugate(rs, mu):
    cur = mu
    length = 0
    limit = len(rs.positive_roots)
    while True:
        neg = next((i for i, c in enumerate(cur) if c < 0), None)
        if neg is None:
            break
        if length >= limit:
            raise AssertionError("dominant_conjugate failed to terminate")
        cur = oracle_reflect(rs, neg + 1, cur)
        length += 1
    if any(c == 0 for c in cur):
        return None
    return length, cur


def oracle_det(r):
    """Each V(lam) adds n*lam - n(n-1)/2 * levi_root, n its string length."""
    P = r.parabolic
    total = wzero(P.rs.rank)
    for lam, m in r.terms.items():
        n = P.string_length(lam)
        string_sum = oracle_wsub(wscale(n, lam), wscale(n * (n - 1) // 2, P.levi_root))
        total = oracle_wadd(total, wscale(m, string_sum))
    return total


def oracle_is_p_dominant(P, lam):
    """True iff lam is dominant for the Levi (non-negative on uncrossed nodes)."""
    return all(lam[i - 1] >= 0 for i in P.uncrossed)


CARTANS = {
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "C2": [[2, -1], [-2, 2]],
    "G2": [[2, -3], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
}


def root_system(name):
    return build_root_system(CartanMatrix(CARTANS[name]))


def box(rank, bound):
    return list(product(range(-bound, bound + 1), repeat=rank))


# G2 and the other rank-two types on [-6, 6]^2; A3 checks a rank above two.
SYSTEMS = [("A2", 6), ("B2", 6), ("C2", 6), ("G2", 6), ("A3", 3)]


@pytest.mark.parametrize("name, bound", SYSTEMS)
def test_reflect_matches_oracle(name, bound):
    # the package keeps no reflection of its own: the oracle that the walk and
    # dominant-conjugate oracles step with must be lam - <lam, alpha_i^vee> alpha_i
    # through the built root data
    rs = root_system(name)
    simple = {sum(i * c for i, c in enumerate(r.simple_coords, 1)): r
              for r in rs.positive_roots if r.height == 1}
    assert sorted(simple) == list(range(1, rs.rank + 1))
    for lam in box(rs.rank, bound):
        for i, alpha in simple.items():
            assert oracle_reflect(rs, i, lam) == wsub(
                lam, wscale(rs.pairing(lam, alpha), alpha.weight))


@pytest.mark.parametrize("name, bound", SYSTEMS)
def test_dominant_conjugate_matches_oracle(name, bound):
    rs = root_system(name)
    singular = 0
    for mu in box(rs.rank, bound):
        got = rs.dominant_conjugate(mu)
        assert got == oracle_dominant_conjugate(rs, mu)
        singular += got is None
    assert 0 < singular < len(box(rs.rank, bound))


@pytest.mark.parametrize("name, bound", SYSTEMS)
def test_wadd_wsub_match_oracles(name, bound):
    rs = root_system(name)
    weights = box(rs.rank, bound)
    for u in weights:
        for v in weights:
            assert wadd(u, v) == oracle_wadd(u, v)
            assert wsub(u, v) == oracle_wsub(u, v)


@pytest.mark.parametrize("op", [wadd, wsub])
@pytest.mark.parametrize("u, v", [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (0,))])
def test_wadd_wsub_reject_a_length_mismatch(op, u, v):
    with pytest.raises(ValueError):
        op(u, v)


def parabolics():
    """The three G2 parabolics, and A2 with node 1 crossed (a rank-one Levi)."""
    g2 = root_system("G2")
    return [ParabolicData(g2, crossed) for crossed in ((1,), (2,), (1, 2))] + [
        ParabolicData(root_system("A2"), (1,))]


@pytest.mark.parametrize("P", parabolics(), ids=lambda P: f"{P.label}-rank{P.rs.rank}")
def test_is_p_dominant_and_det_match_oracles(P):
    weights = box(P.rs.rank, 6)
    dominant = []
    for lam in weights:
        assert P.is_p_dominant(lam) == oracle_is_p_dominant(P, lam)
        if P.is_p_dominant(lam):
            dominant.append(lam)
    assert len(dominant) == (len(weights) if P.levi_rank == 0 else 13 * 7)
    for lam in dominant:
        r = irrep(P, lam)
        assert r.det == oracle_det(r)
    # sums with multiplicities, several summands of different string lengths
    for k in range(0, len(dominant) - 3, 7):
        r = RepSum(P, {dominant[k]: 1, dominant[k + 1]: 2, dominant[k + 3]: 5})
        assert r.det == oracle_det(r)
    assert RepSum(P).det == oracle_det(RepSum(P)) == wzero(P.rs.rank)


def sample_sums(P):
    """Irreducibles with coordinates in [-2, 2], and sums of two of them."""
    dominant = [lam for lam in box(P.rs.rank, 2) if P.is_p_dominant(lam)]
    return [irrep(P, lam) for lam in dominant] + [
        RepSum(P, {dominant[k]: 1, dominant[k + 4]: 2}) for k in range(0, len(dominant) - 4, 5)]


@pytest.mark.parametrize("P", parabolics(), ids=lambda P: f"{P.label}-rank{P.rs.rank}")
def test_tensor_matches_clebsch_gordan(P):
    sums = sample_sums(P)
    for a in sums:
        for b in sums:
            assert tensor(P, a, b) == oracle_tensor(P, a, b)


@pytest.mark.parametrize("P", parabolics(), ids=lambda P: f"{P.label}-rank{P.rs.rank}")
def test_exterior_power_matches_subset_sums(P):
    for r in sample_sums(P):
        elements = sorted(r.weights().elements())
        for k in range(len(elements) + 1):
            expected = Counter()
            for subset in combinations(elements, k):
                total = wzero(P.rs.rank)
                for w in subset:
                    total = oracle_wadd(total, w)
                expected[total] += 1
            assert exterior_power(P, r, k).weights() == expected


class TestRepSumInput:
    """``RepSum`` and ``decompose`` are where weights enter the package."""

    def test_repeated_pairs_add_up(self, P1):
        assert RepSum(P1, [((1, 0), 1), ((1, 0), 2)]).terms == {(1, 0): 3}
        assert RepSum(P1, [((1, 0), 1), ((0, 1), 0), ([1, 0], 1)]).terms == {(1, 0): 2}

    @pytest.mark.parametrize("mult", [1.5, 1.0, "1", None])
    def test_non_integer_multiplicity(self, P1, mult):
        with pytest.raises(NotARepresentation):
            RepSum(P1, {(1, 0): mult})

    def test_negative_multiplicity_in_a_repeated_pair(self, P1):
        with pytest.raises(NotARepresentation):
            RepSum(P1, [((1, 0), 2), ((1, 0), -1)])

    @pytest.mark.parametrize("lam", [(1, 0, 0), (1,), ()])
    def test_weight_of_the_wrong_length(self, P1, lam):
        with pytest.raises(ValueError):
            RepSum(P1, {lam: 1})
        with pytest.raises(ValueError):
            irrep(P1, lam)

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", None, True, False])
    def test_non_integer_coordinate(self, P1, bad):
        # 1.0 == 1 and both hash alike, so a float weight would share cache
        # keys with its integer twin; the message shows the coordinate's repr
        for lam in ((bad, 0), (0, bad)):
            for build in (lambda: RepSum(P1, {lam: 1}), lambda: irrep(P1, lam),
                          lambda: decompose(P1, {lam: 1})):
                with pytest.raises(ValueError, match=re.escape(f"coordinate {bad!r}")):
                    build()

    def test_p_dominance_is_still_checked(self, P1):
        with pytest.raises(NotPDominant):
            RepSum(P1, [((1, 0), 1), ((1, -1), 1)])

    def test_decompose_adds_repeated_pairs(self, P1):
        string = [((1, 1), 1), ((2, -1), 1)]
        assert decompose(P1, string + string) == RepSum(P1, {(1, 1): 2})
        assert decompose(P1, Counter(dict(string)) + Counter(dict(string))) == \
            decompose(P1, string + string)

    def test_decompose_rejects_malformed_pairs(self, P1, B):
        for P in (P1, B):
            with pytest.raises(ValueError):
                decompose(P, {(1, 1, 0): 1})
            with pytest.raises(NotARepresentation):
                decompose(P, {(1, 1): 0.5})
