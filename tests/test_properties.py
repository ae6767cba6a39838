"""Property tests over random p-dominant weights and random representations.

The fixed-box versions of these checks stay in ``test_acceptance.py``; here
``hypothesis`` draws the weights (derandomized, see ``conftest.py``).
"""

from math import comb

from hypothesis import given, settings, strategies as st

from g2cy import (bwb_irrep, dual, enumerate_all, euler_char, exterior_power,
                  g2_parabolic, hilbert_value, irrep, tensor, validate_candidate)
from g2cy.root_system import wadd, wneg, wscale

from conftest import p_dominant_weights, rep_sums


def cy_threefolds_on_grassmannians():
    """The five Calabi–Yau threefold rows on G/P1 and G/P2."""
    rows = [row for row in enumerate_all(3) if row.parabolic in ("P1", "P2")]
    return [validate_candidate(g2_parabolic(row.parabolic), row.summands) for row in rows]


@settings(max_examples=200)
@given(rep_sums(bound=6))
def test_dual_is_an_involution(case):
    P, r = case
    assert dual(P, dual(P, r)) == r


@settings(max_examples=100)
@given(rep_sums(bound=2, max_summands=2, max_mult=2), st.data())
def test_exterior_power_rank_is_binomial(case, data):
    P, r = case
    k = data.draw(st.integers(0, r.rank), label="k")
    assert exterior_power(P, r, k).rank == comb(r.rank, k)


@settings(max_examples=200)
@given(rep_sums(count=2, bound=4))
def test_tensor_rank_and_det(case):
    P, a, b = case
    t = tensor(P, a, b)
    assert t.rank == a.rank * b.rank
    assert t.det == wadd(wscale(b.rank, a.det), wscale(a.rank, b.det))


@settings(max_examples=300)
@given(st.sampled_from(("P1", "P2", "B")).map(g2_parabolic).flatmap(
    lambda P: st.tuples(st.just(P), p_dominant_weights(P, 20))))
def test_cohomology_degree_at_most_dim(case):
    P, lam = case
    res = bwb_irrep(P, lam)
    if res is not None:
        degree, mu = res
        assert 0 <= degree <= P.dim
        assert all(c >= 0 for c in mu)


@settings(max_examples=200)
@given(rep_sums(bound=6))
def test_euler_characteristic_has_serre_symmetry(case):
    # χ(E) = (-1)^dim χ(E* ⊗ K), with K the canonical line bundle
    P, r = case
    twisted = tensor(P, dual(P, r), irrep(P, wneg(P.anticanonical)))
    assert euler_char(P, r) == (-1) ** P.dim * euler_char(P, twisted)


@settings(max_examples=60)
@given(st.sampled_from(cy_threefolds_on_grassmannians()), st.integers(0, 40))
def test_hilbert_function_is_odd_on_cy_threefolds(c, i):
    assert hilbert_value(c.P, c.rep, -i) == -hilbert_value(c.P, c.rep, i)
