"""Cohomology of equivariant bundles on G/P and exact Weyl dimensions.

For a p-dominant weight lam, the cohomology of E_lam on G/P is concentrated
in a single degree: with the affine action w.lam = w(lam + rho) - rho, either
lam + rho is singular and all cohomology vanishes, or there is a unique Weyl
element w with w.lam dominant and

    H^{l(w)}(G/P, E_lam)  ~  dual of the G-irreducible with highest weight w.lam.

Tables below label groups by that dominant highest weight; the dualisation is
dropped because only dimensions and irreducible labels feed later
computations (dim V = dim V*).  The element w is searched in the full Weyl
group; since lam + rho is strictly dominant on the Levi walls, w is
automatically a minimal coset representative, so l(w) <= dim G/P.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .errors import NotGDominant, NotPDominant
from .parabolic import ParabolicData
from .reps import RepSum
from .root_system import RootSystem, Weight, wadd, wsub, weight_str


def weyl_dim(rs: RootSystem, mu: Weight) -> int:
    """Dimension of the G-irreducible with dominant highest weight mu.

    Product over positive roots of <mu+rho, a^vee>/<rho, a^vee>, evaluated as
    one exact integer division at the end.  A non-``int`` coordinate raises
    ``ValueError`` before the cache sees it, since ``1.0 == 1``.
    """
    mu = tuple(mu)
    for c in mu:
        if not isinstance(c, int):
            raise ValueError(f"weight coordinate {c!r} is not an integer")
        if c < 0:
            raise NotGDominant(f"{weight_str(mu)} is not dominant")
    return _weyl_dim(rs, mu)


@lru_cache(maxsize=4096)    # a pass over the 22 rows touches about 60 keys
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


def bwb_irrep(P: ParabolicData, lam: Weight) -> tuple[int, Weight] | None:
    """Single-degree cohomology of E_lam on G/P.

    Returns ``None`` when lam + rho is singular (all cohomology vanishes),
    else ``(degree, mu)`` with mu the dominant conjugate shifted back by rho.
    A non-``int`` coordinate raises ``ValueError``, as in :func:`weyl_dim`.
    """
    lam = tuple(lam)
    for c in lam:
        if not isinstance(c, int):
            raise ValueError(f"weight coordinate {c!r} is not an integer")
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


class CohomologyTable:
    """Cohomology groups of a bundle, degree by degree.

    Each irreducible summand of the bundle contributes to at most one degree,
    so the table records, per summand, where it landed; helpers aggregate the
    usual per-degree data.
    """

    def __init__(self, P: ParabolicData):
        self.parabolic = P
        self.contributions: list[tuple[Weight, int, int, Weight]] = []
        self.vanished: list[tuple[Weight, int]] = []

    def add(self, source: Weight, mult: int, degree: int, mu: Weight) -> None:
        self.contributions.append((source, mult, degree, mu))

    def add_vanished(self, source: Weight, mult: int) -> None:
        self.vanished.append((source, mult))

    def irreps(self, q: int) -> Counter:
        out: Counter = Counter()
        for _, mult, degree, mu in self.contributions:
            if degree == q:
                out[mu] += mult
        return out

    def dim(self, q: int) -> int:
        rs = self.parabolic.rs
        return sum(m * weyl_dim(rs, mu) for mu, m in self.irreps(q).items())

    def degrees(self) -> list[int]:
        return sorted({degree for _, _, degree, _ in self.contributions})

    def total_dims(self) -> dict[int, int]:
        return {q: self.dim(q) for q in self.degrees()}

    @property
    def euler(self) -> int:
        rs = self.parabolic.rs
        return sum((-1) ** degree * mult * weyl_dim(rs, mu)
                   for _, mult, degree, mu in self.contributions)

    def render(self) -> str:
        if not self.contributions:
            return "all cohomology vanishes"
        lines = []
        for q in self.degrees():
            terms = " + ".join(
                (f"{m}·" if m > 1 else "") + f"V{weight_str(mu)}"
                for mu, m in sorted(self.irreps(q).items()))
            lines.append(f"H^{q} = {terms}, dim {self.dim(q)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        rs = self.parabolic.rs
        groups = {}
        for q in self.degrees():
            groups[str(q)] = {
                "dim": self.dim(q),
                "irreps": [{"weight": list(mu), "mult": m, "dim": weyl_dim(rs, mu)}
                           for mu, m in sorted(self.irreps(q).items())],
            }
        return {"parabolic": self.parabolic.label, "groups": groups, "euler": self.euler}


def bundle_cohomology(P: ParabolicData, r: RepSum) -> CohomologyTable:
    """Apply the single-degree computation summand by summand."""
    table = CohomologyTable(P)
    for lam, mult in r.terms.items():
        res = bwb_irrep(P, lam)
        if res is None:
            table.add_vanished(lam, mult)
        else:
            table.add(lam, mult, *res)
    return table


def euler_char(P: ParabolicData, r: RepSum) -> int:
    """Euler characteristic of the bundle, an exact integer."""
    return bundle_cohomology(P, r).euler
