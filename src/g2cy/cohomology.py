"""Cohomology of equivariant bundles on G/P and exact Weyl dimensions.

For a p-dominant weight lam, the cohomology of E_lam on G/P is concentrated
in a single degree: with the affine action w.lam = w(lam + rho) - rho, either
lam + rho is singular and all cohomology vanishes, or there is a unique Weyl
element w with w.lam dominant and

    H^{l(w)}(G/P, E_lam)  ~  dual of the G-irreducible with highest weight w.lam.

:func:`bundle_cohomology` labels each group by that dominant highest weight;
the dualisation is dropped because only dimensions and irreducible labels
feed later computations (dim V = dim V*).  Simple reflections reach w
(``RootSystem.dominant_conjugate``); as lam + rho is strictly dominant on the
Levi walls, w is a minimal coset representative, so l(w) <= dim G/P.  E1
columns also read weights with <lam + rho, alpha_i^vee> < 0 at the Levi node
i, whose entry is that of s_i.lam one degree up (Demazure's step in Bott's
theorem).  Each root system keeps one table, :func:`_bott_table`, of the degree, the label
and Weyl's dimension product by weight; it checks nothing: every weight is
checked (or comes from a ``RepSum``, which checked it) before it can become
a key, and every caller indexes it directly.
"""

from __future__ import annotations

from .errors import NotGDominant, NotPDominant
from .parabolic import ParabolicData
from .reps import RepSum, _check_parabolic
from .root_system import RootSystem, Weight, check_weight, wadd, wsub, weight_str


def weyl_dim(rs: RootSystem, mu: Weight) -> int:
    """Dimension of the G-irreducible with dominant highest weight mu, Weyl's
    product as :func:`_bott_table` evaluates it.  A weight that
    :func:`~g2cy.root_system.check_weight` rejects raises ``ValueError``.
    """
    mu = check_weight(mu, rs.rank)
    if min(mu) < 0:
        raise NotGDominant(f"{weight_str(mu)} is not dominant")
    return _bott_table(rs)[mu][2]


class _BottTable(dict):
    """Borel–Weil–Bott of one root system by checked integer weight: ``None``
    when lam + rho is singular, else ``(l(w), mu, dim V(mu))`` with mu =
    w(lam + rho) - rho dominant, p-dominant or not.  A hit is a plain dict
    index; a miss computes the entry, after emptying the table once it holds
    4096 keys (a pass over the 22 rows makes 1107 lookups of 104 keys)."""

    __slots__ = ("rs",)

    def __init__(self, rs: RootSystem):
        super().__init__()
        self.rs = rs

    def __missing__(self, lam: Weight) -> tuple[int, Weight, int] | None:
        # dim V(mu) is Weyl's product over the positive roots a of
        # <mu + rho, a^vee>/<rho, a^vee>, one exact integer division at the
        # end, so (-1)^l(w) dim is χ(G/B, L_lam)
        if len(self) >= 4096:
            self.clear()
        rs = self.rs
        rho = rs.weyl_vector
        res = rs.dominant_conjugate(wadd(lam, rho))
        if res is not None:
            length, dom = res
            num = den = 1
            for alpha in rs.positive_roots:
                num *= rs.pairing(dom, alpha)
                den *= rs.pairing(rho, alpha)
            if num % den:
                raise AssertionError("Weyl dimension product is not integral")
            res = length, wsub(dom, rho), num // den
        self[lam] = res
        return res


def _bott_table(rs: RootSystem) -> _BottTable:
    """The Bott table of ``rs``, made on first use and kept on it."""
    if rs._bott_table is None:
        rs._bott_table = _BottTable(rs)
    return rs._bott_table


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
    res = _bott_table(P.rs)[lam]
    if res is not None and res[0] > P.dim:
        raise AssertionError("cohomological degree exceeded dim G/P")
    return None if res is None else res[:2]


def bundle_cohomology(P: ParabolicData, r: RepSum) -> dict[int, dict[Weight, int]]:
    """Cohomology of the bundle ``r`` as ``{q: {mu: m}}``, summand by summand.

    H^q is the sum of m copies of the G-irreducible with dominant highest
    weight mu; degrees ascend, the weights of each degree are sorted, and a
    degree with no group is absent, so ``{}`` means all cohomology vanishes.
    A bundle over another parabolic than ``P`` raises ``ValueError``.
    """
    _check_parabolic(P, r)
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
    sum (-1)^l m dim over its terms, each read off :func:`_bott_table`.  A
    bundle over another parabolic than ``P`` raises ``ValueError``."""
    _check_parabolic(P, r)
    table = _bott_table(P.rs)
    return sum((-1) ** res[0] * m * res[2] for lam, m in r.terms.items()
               if (res := table[lam]) is not None)
