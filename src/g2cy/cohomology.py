"""Cohomology of equivariant bundles on G/P and exact Weyl dimensions.

For a p-dominant weight lam, the cohomology of E_lam on G/P is concentrated
in a single degree: with the affine action w.lam = w(lam + rho) - rho, either
lam + rho is singular and all cohomology vanishes, or there is a unique Weyl
element w with w.lam dominant and

    H^{l(w)}(G/P, E_lam)  ~  dual of the G-irreducible with highest weight w.lam.

:func:`bundle_cohomology` labels each group by that dominant highest weight;
the dualisation is dropped because only dimensions and irreducible labels
feed later computations (dim V = dim V*).  The element w is searched in the
full Weyl group; since lam + rho is strictly dominant on the Levi walls, w is
automatically a minimal coset representative, so l(w) <= dim G/P.  The one
memoised kernel, :func:`_bott`, checks nothing and serves only weights the
package built; the public entries check their weights and are not cached.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotGDominant, NotPDominant
from .parabolic import ParabolicData
from .reps import RepSum
from .root_system import RootSystem, Weight, check_weight, wadd, wsub, weight_str


def weyl_dim(rs: RootSystem, mu: Weight) -> int:
    """Dimension of the G-irreducible with dominant highest weight mu.

    Product over positive roots of <mu+rho, a^vee>/<rho, a^vee>, evaluated as
    one exact integer division at the end.  A weight that
    :func:`~g2cy.root_system.check_weight` rejects raises ``ValueError``.
    """
    mu = check_weight(mu, rs.rank)
    if min(mu) < 0:
        raise NotGDominant(f"{weight_str(mu)} is not dominant")
    return _weyl_dim(rs, mu)


def _weyl_dim(rs: RootSystem, mu: Weight) -> int:
    """Weyl's product for any weight mu: (-1)^l(w) times the dimension of the
    irreducible with highest weight w(mu + rho) - rho when w(mu + rho) is
    strictly dominant, and 0 when mu + rho is singular; this is χ(G/B, L_mu)
    by Borel–Weil–Bott."""
    rho = rs.weyl_vector
    shifted = wadd(mu, rho)
    num = den = 1
    for alpha in rs.positive_roots:
        num *= rs.pairing(shifted, alpha)
        den *= rs.pairing(rho, alpha)
    if num % den:
        raise AssertionError("Weyl dimension product is not integral")
    return num // den


@lru_cache(maxsize=4096)    # a pass over the 22 rows touches about 80 keys
def _bott(rs: RootSystem, lam: Weight) -> tuple[int, int] | None:
    """Borel–Weil–Bott for an unchecked integer weight: ``None`` when lam + rho
    is singular, else ``(l(w), dim V(w.lam))`` with w.lam = w(lam + rho) - rho
    dominant, so (-1)^l(w) dim is Weyl's product :func:`_weyl_dim` of lam."""
    rho = rs.weyl_vector
    res = rs.dominant_conjugate(wadd(lam, rho))
    if res is None:
        return None
    length, dom = res
    return length, _weyl_dim(rs, wsub(dom, rho))


def bwb_irrep(P: ParabolicData, lam: Weight) -> tuple[int, Weight] | None:
    """Single-degree cohomology of E_lam on G/P.

    Returns ``None`` when lam + rho is singular (all cohomology vanishes),
    else ``(degree, mu)`` with mu the dominant conjugate shifted back by rho.
    A weight that :func:`~g2cy.root_system.check_weight` rejects raises
    ``ValueError``, as in :func:`weyl_dim`.
    """
    lam = check_weight(lam, P.rs.rank)
    if not P.is_p_dominant(lam):
        raise NotPDominant(f"{weight_str(lam)} is not p-dominant for {P.label}")
    rho = P.rs.weyl_vector
    res = P.rs.dominant_conjugate(wadd(lam, rho))
    if res is None:
        return None
    length, dom = res
    if length > P.dim:
        raise AssertionError("cohomological degree exceeded dim G/P")
    return length, wsub(dom, rho)


def bundle_cohomology(P: ParabolicData, r: RepSum) -> dict[int, dict[Weight, int]]:
    """Cohomology of the bundle ``r`` as ``{q: {mu: m}}``, summand by summand.

    H^q is the sum of m copies of the G-irreducible with dominant highest
    weight mu; degrees ascend, the weights of each degree are sorted, and a
    degree with no group is absent, so ``{}`` means all cohomology vanishes.
    A bundle over another parabolic than ``P`` raises ``ValueError``.
    """
    if r.parabolic != P:
        raise ValueError("the bundle must live over the given parabolic")
    groups: dict[int, dict[Weight, int]] = {}
    for lam, mult in r.terms.items():
        res = bwb_irrep(P, lam)
        if res is not None:
            q, mu = res
            group = groups.setdefault(q, {})
            group[mu] = group.get(mu, 0) + mult
    return {q: dict(sorted(groups[q].items())) for q in sorted(groups)}


def euler_char(P: ParabolicData, r: RepSum) -> int:
    """Euler characteristic of the bundle, an exact integer: the alternating
    sum of the dimensions in :func:`bundle_cohomology`."""
    return sum((-1) ** q * m * weyl_dim(P.rs, mu)
               for q, group in bundle_cohomology(P, r).items() for mu, m in group.items())
