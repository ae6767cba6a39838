"""Parabolic subgroups via crossed Dynkin diagrams, and the geometry of G/P.

A parabolic is specified by its crossed node set (the simple roots removed
from the Levi).  From that the module derives dim G/P, the tangent
representation g/p, and the anticanonical weight det(g/p).

Sign convention: the tangent weights are taken to be the positive roots whose
support leaves the Levi span.  With the long root on node 1 this reproduces
the explicit decompositions

    g/p1 = V(-1,3) + V(1,0)            det = (3,0)
    g/p2 = V(1,-1) + V(1,0) + V(0,1)   det = (0,5)
    g/b  = the six positive-root characters,  det = (2,2)

and makes the determinant the anticanonical (rather than canonical) weight,
as the positivity of (3,0), (0,5), (2,2) requires.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from functools import lru_cache

from . import reps
from .root_system import RootSystem, Weight, g2_root_system, wadd, wzero

G2_PARABOLIC_NAMES = ("P1", "P2", "B")


class ParabolicData:
    """A parabolic subgroup P together with derived data for G/P.

    Attributes
    ----------
    crossed, uncrossed : frozenset[int]
        Crossed nodes and their complement (the Levi simple roots).
    dim : int
        dim G/P, the number of positive roots outside the Levi span.
    tangent : RepSum
        The tangent representation g/p, decomposed into Levi irreducibles.
    anticanonical : Weight
        det(g/p), the sum of the tangent weight multiset.
    levi_rank : int
        Semisimple rank of the Levi.
    """

    def __init__(self, rs: RootSystem, crossed: Iterable[int]):
        crossed = frozenset(int(i) for i in crossed)
        nodes = frozenset(range(1, rs.rank + 1))
        if not crossed:
            raise ValueError("a proper parabolic needs at least one crossed node")
        if not crossed <= nodes:
            raise ValueError(f"crossed nodes {sorted(crossed)} outside 1..{rs.rank}")
        self.rs = rs
        self.crossed = crossed
        self.uncrossed = nodes - crossed
        self.levi_rank = len(self.uncrossed)

        outside = [r for r in rs.positive_roots if not self._levi_supported(r)]
        self.dim = len(outside)
        tangent_weights = Counter(r.weight for r in outside)
        anka = wzero(rs.rank)
        for w, c in tangent_weights.items():
            for _ in range(c):
                anka = wadd(anka, w)
        self.anticanonical: Weight = anka
        self.tangent = reps.decompose(self, tangent_weights)
        if self.tangent.rank != self.dim or self.tangent.det != anka:
            raise AssertionError("tangent representation lost weights in decomposition")

    def _levi_supported(self, root) -> bool:
        return all(c == 0 or (i + 1) in self.uncrossed
                   for i, c in enumerate(root.simple_coords))

    @property
    def label(self) -> str:
        if not self.uncrossed:
            return "B"
        return "P" + "".join(str(i) for i in sorted(self.crossed))

    def is_p_dominant(self, lam: Weight) -> bool:
        """True iff lam is dominant for the Levi (non-negative on uncrossed nodes)."""
        return all(lam[i - 1] >= 0 for i in self.uncrossed)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ParabolicData) and self.rs == other.rs
                and self.crossed == other.crossed)

    def __hash__(self) -> int:
        return hash((self.rs, self.crossed))

    def __repr__(self) -> str:
        return f"<ParabolicData {self.label}: dim G/P = {self.dim}>"


def is_g_dominant(lam: Weight) -> bool:
    """True iff every coordinate is non-negative (global generation of E_lam)."""
    return all(c >= 0 for c in lam)


@lru_cache(maxsize=None)
def _g2_parabolic(name: str) -> ParabolicData:
    crossed = {"P1": (1,), "P2": (2,), "B": (1, 2)}.get(name)
    if crossed is None:
        raise ValueError(f"unknown parabolic {name!r}; expected one of P1, P2, B")
    return ParabolicData(g2_root_system(), crossed)


def g2_parabolic(name: str) -> ParabolicData:
    """One of the three G2 parabolics by name: P1, P2 or B."""
    return _g2_parabolic(name.upper())
