"""Weight strings, dims, dets, duals, tensors, exterior powers, decomposition."""

import copy
import pickle
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from g2cy import (KoszulInput, bundle_cohomology, decompose, dual, e1_page, euler_char,
                  exterior_power, g2_parabolic, hilbert_value, irrep, tensor, trivial)
from g2cy import reps
from g2cy.errors import NotARepresentation, NotPDominant, OutOfRange
from g2cy.reps import RepSum
from g2cy.root_system import Weight, wadd, wneg, wscale, wsub, weight_str

from conftest import p_dominant_box, rep_sums


def closed_string(name, a, b):
    """The weight strings of the irreducibles, written out coordinatewise."""
    if name == "P1":
        return Counter({(a + j, b - 2 * j): 1 for j in range(b + 1)})
    if name == "P2":
        return Counter({(a - 2 * j, b + 3 * j): 1 for j in range(a + 1)})
    return Counter({(a, b): 1})


def closed_dim_det(name, a, b):
    if name == "P1":
        return b + 1, (a * (b + 1) + b * (b + 1) // 2, 0)
    if name == "P2":
        return a + 1, (0, (a + 1) * b + 3 * a * (a + 1) // 2)
    return 1, (a, b)


class TestIrrepWeights:
    def test_examples(self, P1, P2, B):
        assert irrep(P1, (1, 1)).weights() == Counter({(1, 1): 1, (2, -1): 1})
        assert irrep(P2, (1, 1)).weights() == Counter({(1, 1): 1, (-1, 4): 1})
        assert irrep(B, (4, -7)).weights() == Counter({(4, -7): 1})

    def test_matches_closed_forms(self, parabolics):
        for P in parabolics:
            for (a, b) in p_dominant_box(P, 6):
                assert irrep(P, (a, b)).weights() == closed_string(P.label, a, b)

    def test_dims_and_dets_match_closed_forms(self, parabolics):
        for P in parabolics:
            for (a, b) in p_dominant_box(P, 6):
                dim, det = closed_dim_det(P.label, a, b)
                assert irrep(P, (a, b)).rank == dim
                assert irrep(P, (a, b)).det == det

    def test_str(self, P1):
        assert str(RepSum(P1)) == "0"
        assert str(irrep(P1, (1, 1)) + irrep(P1, (1, 1))) == "(1,1)^⊕2"

    def test_det_examples(self, P1, P2):
        assert irrep(P1, (1, 1)).det == (3, 0)
        assert irrep(P2, (1, 1)).det == (0, 5)
        assert irrep(P1, (0, 2)).rank == 3

    def test_not_p_dominant(self, P1, P2):
        with pytest.raises(NotPDominant):
            irrep(P1, (0, -1)).weights()
        with pytest.raises(NotPDominant):
            irrep(P2, (-1, 0)).rank


class TestForeignParabolic:
    """A RepSum's terms are trusted only over the parabolic that validated them."""

    def test_dual_of_a_borel_sum_over_p1(self, P1, B):
        with pytest.raises(ValueError):
            dual(P1, irrep(B, (1, 0)))

    def test_dual_of_a_p2_sum_over_p1(self, P1, P2):
        with pytest.raises(ValueError):
            dual(P1, irrep(P2, (1, 0)))

    @pytest.mark.parametrize("call", [
        lambda P1, P2, B: dual(P1, irrep(P2, (0, 1))),
        lambda P1, P2, B: tensor(P1, irrep(B, (1, 0)), irrep(P1, (1, 0))),
        lambda P1, P2, B: tensor(P1, irrep(P1, (1, 0)), irrep(B, (1, 0))),
        lambda P1, P2, B: exterior_power(P1, irrep(B, (1, 0)), 1),
        lambda P1, P2, B: irrep(P1, (1, 0)) + irrep(B, (1, 0)),
        lambda P1, P2, B: bundle_cohomology(P1, irrep(P2, (0, 1))),
        lambda P1, P2, B: euler_char(P1, irrep(P2, (0, 1))),
        lambda P1, P2, B: KoszulInput(P1, irrep(P2, (1, 1)), trivial(P1)),
        lambda P1, P2, B: KoszulInput(P1, irrep(P1, (1, 1)), irrep(B, (2, 0))),
        lambda P1, P2, B: hilbert_value(P2, irrep(P1, (1, 1)), 1),
    ], ids=["dual", "tensor_first", "tensor_second", "exterior_power", "add",
            "bundle_cohomology", "euler_char", "koszul_input_e", "koszul_input_w",
            "hilbert_value"])
    def test_one_message_for_a_foreign_parabolic(self, P1, P2, B, call):
        # every entry that takes a parabolic and sums runs reps._check_parabolic
        with pytest.raises(ValueError) as caught:
            call(P1, P2, B)
        assert type(caught.value) is ValueError
        assert str(caught.value) == "every representation must live over the given parabolic"

    def test_sum_with_a_non_repsum_is_a_type_error(self, P1):
        # RepSum.__add__ returns NotImplemented, so Python raises TypeError,
        # on either side of the +
        with pytest.raises(TypeError):
            irrep(P1, (1, 0)) + 1
        with pytest.raises(TypeError):
            1 + irrep(P1, (1, 0))
        with pytest.raises(TypeError):
            irrep(P1, (1, 0)) + Counter({(1, 0): 1})


class TestDual:
    def test_character_inversion(self, B):
        for lam in [(2, 2), (-1, 3), (0, -5)]:
            assert dual(B, irrep(B, lam)) == irrep(B, wneg(lam))

    def test_p1_example(self, P1):
        assert dual(P1, irrep(P1, (1, 1))) == irrep(P1, (-2, 1))

    def test_p2_example(self, P2):
        # negated string of (1,1) is {(-1,-1), (1,-4)}; its p-dominant
        # highest weight is (1,-4)
        d = dual(P2, irrep(P2, (1, 1)))
        assert d == irrep(P2, (1, -4))
        assert d.weights() == Counter({(-1, -1): 1, (1, -4): 1})

    def test_weights_are_negated(self, parabolics):
        for P in parabolics:
            for lam in p_dominant_box(P, 4):
                r = irrep(P, lam)
                negated = Counter({wneg(w): c for w, c in r.weights().items()})
                assert dual(P, r).weights() == negated

    def test_involution(self, parabolics):
        for P in parabolics:
            for lam in p_dominant_box(P, 4):
                r = irrep(P, lam)
                assert dual(P, dual(P, r)) == r


class TestTensor:
    def test_unit(self, parabolics):
        for P in parabolics:
            for lam in p_dominant_box(P, 3):
                r = irrep(P, lam)
                assert tensor(P, r, trivial(P)) == r

    def test_p1_square(self, P1):
        sq = tensor(P1, irrep(P1, (1, 1)), irrep(P1, (1, 1)))
        assert sq == irrep(P1, (2, 2)) + irrep(P1, (3, 0))

    def test_characters_add(self, B):
        for u in [(1, 2), (-3, 0)]:
            for v in [(0, 1), (2, -2)]:
                assert tensor(B, irrep(B, u), irrep(B, v)) == irrep(B, wadd(u, v))

    def test_rank_multiplicative_det_additive(self, parabolics):
        for P in parabolics:
            for u in p_dominant_box(P, 2):
                for v in p_dominant_box(P, 2):
                    a, b = irrep(P, u), irrep(P, v)
                    t = tensor(P, a, b)
                    assert t.rank == a.rank * b.rank
                    expected_det = wadd(
                        tuple(b.rank * x for x in a.det),
                        tuple(a.rank * x for x in b.det))
                    assert t.det == expected_det

    def test_straightening_without_reflections_fails_the_check(self, P1, monkeypatch):
        # V(0,2) ⊗ V(0) needs the reflected term -V(1,0) of its weight (2,-2);
        # a copy of reps._net that drops the reflected branch gives rank 4, not 3
        def kept_terms_only(P, pairs, terms):
            i, net = P._levi_node, {}
            for mu, c in pairs:
                for nu, m in terms:
                    lam = wadd(mu, nu)
                    if i is None or lam[i - 1] >= 0:
                        net[lam] = net.get(lam, 0) + c * m
            return RepSum(P, net)

        monkeypatch.setattr(reps, "_net", kept_terms_only)
        with pytest.raises(AssertionError, match="wrong rank or determinant"):
            tensor(P1, irrep(P1, (0, 2)), trivial(P1))


class TestWeightPairs:
    """A sum holds its terms and no weight; ``weights()`` builds the weight pairs
    afresh on each read."""

    @staticmethod
    def bundles(P):
        return irrep(P, (1, 1)) + irrep(P, (0, 1)), irrep(P, (0, 2)) + irrep(P, (-1, 1))

    @staticmethod
    def results(P, E, W):
        return (E.weights(), W.weights(), tensor(P, E, W), exterior_power(P, E, 2),
                e1_page(KoszulInput(P, E, W)))

    def test_mutating_weights_changes_nothing(self, P1):
        fresh = self.results(P1, *self.bundles(P1))
        E, W = self.bundles(P1)
        for r in (E, W):
            got = r.weights()
            assert got == r.weights() and got is not r.weights()
            got[(9, 9)] += 1
            del got[next(iter(r.terms))]
        assert self.results(P1, E, W) == fresh

    def test_weights_are_built_on_read_and_copy(self, P1):
        # the sum keeps no weight, so every read builds the strings of its terms
        # again, in term order, and a copy reads the same weights
        r = self.bundles(P1)[0]
        assert not hasattr(r, "__dict__")
        assert {name: getattr(r, name) for name in RepSum.__slots__} == {
            "parabolic": P1, "terms": {(1, 1): 1, (0, 1): 1}, "rank": 4, "det": (4, 0),
            "_dual_layers": None}
        # levi_root α2 = (-1,2), strings of length 2
        assert list(r.weights().items()) == [((1, 1), 1), ((2, -1), 1), ((0, 1), 1), ((1, -1), 1)]
        for other in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
            assert other == r and hash(other) == hash(r)
            assert list(other.weights().items()) == list(r.weights().items())


class TestExteriorPower:
    def test_zeroth_is_trivial(self, parabolics):
        for P in parabolics:
            r = irrep(P, (1, 1)) if P.label != "B" else irrep(P, (1, -1))
            assert exterior_power(P, r, 0) == trivial(P)

    def test_top_is_det_line(self, parabolics):
        for P in parabolics:
            for lam in p_dominant_box(P, 3):
                r = irrep(P, lam)
                top = exterior_power(P, r, r.rank)
                assert top.rank == 1
                assert top.det == r.det

    def test_p1_square_example(self, P1):
        assert exterior_power(P1, irrep(P1, (1, 1)), 2) == irrep(P1, (3, 0))

    def test_p2_mixed_example(self, P2):
        r = irrep(P2, (1, 0)) + irrep(P2, (0, 2))
        got = exterior_power(P2, r, 2)
        assert got == irrep(P2, (0, 3)) + irrep(P2, (1, 2))

    def test_subset_sum_oracle(self, parabolics):
        # oracle: brute-force k-subsets of the expanded weight list
        for P in parabolics:
            for lam in p_dominant_box(P, 3):
                r = irrep(P, lam)
                elements = sorted(r.weights().elements())
                for k in range(len(elements) + 1):
                    expected = Counter()
                    for combo in combinations(range(len(elements)), k):
                        total = (0, 0)
                        for i in combo:
                            total = wadd(total, elements[i])
                        expected[total] += 1
                    assert exterior_power(P, r, k).weights() == expected

    def test_rank_is_binomial(self, parabolics):
        from math import comb
        for P in parabolics:
            for lam in p_dominant_box(P, 4):
                r = irrep(P, lam)
                for k in range(r.rank + 1):
                    assert exterior_power(P, r, k).rank == comb(r.rank, k)

    def test_total_weight_identity(self, parabolics):
        # each element lies in comb(n-1, k-1) of the k-subsets, so the full
        # weight sum of the k-th power is comb(n-1, k-1) times the determinant
        from math import comb
        for P in parabolics:
            for lam in p_dominant_box(P, 3):
                r = irrep(P, lam)
                n = r.rank
                for k in range(1, n + 1):
                    power = exterior_power(P, r, k)
                    total = (0, 0)
                    for w, c in power.weights().items():
                        total = wadd(total, tuple(c * x for x in w))
                    assert total == tuple(comb(n - 1, k - 1) * x for x in r.det)

    @pytest.mark.parametrize("k", [1.0, True, False, "1", None])
    def test_power_must_be_an_int(self, P1, k):
        # k indexes the list of layers, and True == 1 would pass as the first power
        with pytest.raises(ValueError, match="not an integer"):
            exterior_power(P1, irrep(P1, (1, 1)), k)

    def test_out_of_range(self, P1):
        with pytest.raises(OutOfRange):
            exterior_power(P1, irrep(P1, (1, 1)), 3)
        with pytest.raises(OutOfRange):
            exterior_power(P1, irrep(P1, (1, 1)), -1)


class TestDecompose:
    def test_round_trip(self, parabolics):
        for P in parabolics:
            for lam in p_dominant_box(P, 6):
                assert decompose(P, irrep(P, lam).weights()) == irrep(P, lam)

    def test_doubled_multiset(self, P1):
        m = Counter({(1, 1): 2, (2, -1): 2})
        assert decompose(P1, m) == RepSum(P1, {(1, 1): 2})

    def test_convolution_example(self, P1):
        m = Counter()
        for u in irrep(P1, (1, 1)).weights().elements():
            for v in irrep(P1, (1, 1)).weights().elements():
                m[wadd(u, v)] += 1
        assert decompose(P1, m) == RepSum(P1, {(2, 2): 1, (3, 0): 1})

    def test_rejects_non_dominant_maximal(self, P1):
        with pytest.raises(NotARepresentation):
            decompose(P1, Counter({(0, -1): 1}))

    def test_rejects_incomplete_string(self, P1):
        with pytest.raises(NotARepresentation):
            decompose(P1, Counter({(1, 1): 1}))
        with pytest.raises(NotARepresentation):
            decompose(P1, Counter({(1, 1): 1, (2, -1): 2}))

    def test_rank_additive_over_sum(self, P2):
        a, b = irrep(P2, (2, 1)), irrep(P2, (0, 3))
        assert (a + b).rank == a.rank + b.rank
        assert (a + b).det == wadd(a.det, b.det)

    def test_hash_follows_equality(self, P1, P2):
        a = RepSum(P2, [((2, 1), 1), ((0, 3), 2)])
        b = irrep(P2, (0, 3)) + irrep(P2, (2, 1)) + irrep(P2, (0, 3))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, irrep(P2, (2, 1)), irrep(P1, (2, 1))}) == 3


# The former peeling implementation of ``decompose``, kept verbatim as the
# oracle: repeatedly extract a maximal weight in the Levi dominance order and
# subtract its string.  Quadratic per extraction, but obviously correct.

def _levi_height(P: "ParabolicData", u: Weight, v: Weight) -> int | None:
    """t >= 0 with u - v = t * alpha_uncrossed, or None if incomparable."""
    diff = wsub(u, v)
    i = min(P.uncrossed, default=None)
    if i is None:
        return 0 if not any(diff) else None
    alpha = P.rs.cartan.row(i)
    j = next(k for k, a in enumerate(alpha) if a != 0)
    t = Fraction(diff[j], alpha[j])
    if t.denominator != 1 or t < 0:
        return None
    t = int(t)
    return t if diff == wscale(t, alpha) else None


def oracle_decompose(P: "ParabolicData", multiset: Mapping[Weight, int]) -> RepSum:
    """Invert :meth:`RepSum.weights` on a weight multiset.

    Repeatedly extracts the maximal weight in the Levi dominance order (ties
    broken lexicographically), subtracts its string and recurses.  Raises
    :class:`NotARepresentation` when extraction hits a non-dominant maximal
    weight or a subtraction would go negative.
    """
    work = Counter()
    for w, c in dict(multiset).items():
        if c < 0:
            raise NotARepresentation("negative multiplicity in weight multiset")
        if c:
            work[tuple(w)] = c
    terms: Counter = Counter()
    while work:
        maximal = [u for u in work
                   if not any(v != u and _levi_height(P, v, u) for v in work)]
        top = max(maximal)
        if not P.is_p_dominant(top):
            raise NotARepresentation(
                f"maximal weight {weight_str(top)} is not p-dominant for {P.label}")
        for w, c in irrep(P, top).weights().items():
            if work[w] < c:
                raise NotARepresentation(
                    f"string of {weight_str(top)} is not contained in the multiset")
            work[w] -= c
            if not work[w]:
                del work[w]
        terms[top] += 1
    return RepSum(P, terms)


def outcome(decomposer, P, multiset):
    """The decomposition, or the marker of a rejected multiset."""
    try:
        return decomposer(P, multiset)
    except NotARepresentation:
        return NotARepresentation


# Oracles for the two ways ``reps`` builds representations.  ``oracle_dual`` is
# the former multiset implementation of the closed-form ``dual``, verbatim
# except that ``decompose`` is looked up in its module, so that patching it
# there reaches it too.  ``oracle_tensor`` is the former closed-form
# Clebsch–Gordan ``tensor``, verbatim, now that ``tensor`` is ``decompose`` of
# the weight product; it calls no ``decompose``.

def oracle_dual(P: "ParabolicData", r: RepSum) -> RepSum:
    """Dual representation: the weight multiset is negated, then re-decomposed."""
    return reps.decompose(P, Counter({wneg(w): c for w, c in r.weights().items()}))


def oracle_tensor(P: "ParabolicData", a: RepSum, b: RepSum) -> RepSum:
    """Tensor product by Clebsch–Gordan on the Levi, summand by summand:
    V(lam) ⊗ V(mu) = ⊕ V(lam + mu - j levi_root), j = 0..min(n_lam, n_mu) - 1
    for string lengths n (V(lam + mu) alone on a torus).  The rank is checked
    to be multiplicative.
    """
    if a.parabolic != P or b.parabolic != P:
        raise ValueError("tensor factors must live over the given parabolic")
    terms: dict[Weight, int] = {}
    for lam, m in a.terms.items():
        for mu, n in b.terms.items():
            top = wadd(lam, mu)
            for _ in range(min(P.string_length(lam), P.string_length(mu))):
                terms[top] = terms.get(top, 0) + m * n
                top = wsub(top, P.levi_root)
    result = RepSum(P, terms)
    if result.rank != a.rank * b.rank:
        raise AssertionError("tensor product has the wrong rank")
    return result


def test_dual_tensor_exterior_power_match_peeling(parabolics, monkeypatch):
    # exterior_power and oracle_dual look ``decompose`` up in its module, so
    # patching it there gives their peeling-based versions; the weight-product
    # tensor, computed before the patch, meets the Clebsch–Gordan oracle
    def everything(dual, tensor):
        out = []
        for P in parabolics:
            box = [irrep(P, lam) for lam in p_dominant_box(P, 2)]
            box.append(box[0] + box[-1] + box[-1])
            for r in box:
                out.append(dual(P, r))
                out += [exterior_power(P, r, k) for k in range(r.rank + 1)]
                out += [tensor(P, r, s) for s in box]
        return out

    closed_form = everything(reps.dual, reps.tensor)
    monkeypatch.setattr(reps, "decompose", oracle_decompose)
    assert closed_form == everything(oracle_dual, oracle_tensor)


@settings(max_examples=300)
@given(rep_sums(count=2, bound=4))
def test_closed_form_dual_and_tensor_match_multiset_oracles(case):
    P, a, b = case
    assert dual(P, a) == oracle_dual(P, a)
    assert tensor(P, a, b) == oracle_tensor(P, a, b)


@st.composite
def string_sums(draw):
    """A parabolic and a non-negative sum of Levi strings, maybe perturbed.

    The perturbation drops one weight, adds one weight, or negates one
    weight, which usually (not always) leaves the set of characters.
    """
    P = g2_parabolic(draw(st.sampled_from(("P1", "P2", "B"))))
    coordinate = st.integers(-4, 4)
    multiset: Counter = Counter()
    for _ in range(draw(st.integers(0, 5))):
        lam = (draw(coordinate), draw(coordinate))
        if not P.is_p_dominant(lam):
            lam = tuple(abs(x) if i + 1 in P.uncrossed else x for i, x in enumerate(lam))
        mult = draw(st.integers(1, 3))
        for w, c in irrep(P, lam).weights().items():
            multiset[w] += mult * c
    change = draw(st.sampled_from(("none", "drop", "add", "negate")))
    present = sorted(multiset)
    if change == "add":
        multiset[(draw(coordinate), draw(coordinate))] += 1
    elif change != "none" and present:
        w = draw(st.sampled_from(present))
        multiset[w] -= 1
        if change == "negate":
            multiset[wneg(w)] += 1
    return P, +multiset


@settings(max_examples=500)
@given(string_sums())
def test_closed_form_matches_peeling_on_random_string_sums(case):
    P, multiset = case
    assert outcome(decompose, P, multiset) == outcome(oracle_decompose, P, multiset)
