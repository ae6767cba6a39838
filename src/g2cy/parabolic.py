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
from itertools import islice, product
from operator import sub

from . import reps
from .errors import UnsupportedLevi
from .root_system import RootSystem, Weight, g2_root_system, wzero

G2_PARABOLIC_NAMES = ("P1", "P2", "B")


class ParabolicData:
    """A parabolic subgroup P together with derived data for G/P.

    Every attribute is derived once, at construction, and never changes.

    Attributes
    ----------
    crossed, uncrossed : frozenset[int]
        Crossed nodes and their complement (the Levi simple roots); a crossed
        node not of type exactly ``int`` raises ``ValueError``.
    label : str
        "B" for the Borel, else "P" and the crossed nodes in order.
    dim : int
        dim G/P, the number of positive roots outside the Levi span.
    tangent : RepSum
        The tangent representation g/p, decomposed into Levi irreducibles.
    cotangent, trivial : RepSum
        Ω_F = ``dual(P, tangent)``, the graded dual (g/p)*, and O_F = ``trivial(P)``.
    anticanonical : Weight
        det(g/p), the sum of the tangent weight multiset.
    levi_rank : int
        Semisimple rank of the Levi, 0 (a torus) or 1; a Levi of higher rank
        raises :class:`UnsupportedLevi`.
    levi_root : Weight
        The uncrossed simple root, or the zero weight on a torus: V(lam) has
        the weights lam - j * levi_root for j < ``string_length(lam)``.
    summand_pool : tuple[tuple[int, Weight, Weight], ...]
        (string length, lam, det V(lam)) for every nonzero dominant lam that
        can be a summand of a classified bundle (see :mod:`~g2cy.classify`):
        det V(lam) <= ``anticanonical`` in each coordinate and string length
        <= dim G/P - 2.  Sorted by descending (string length, lam), the
        canonical summand order; empty when dim G/P <= 2.
    """

    def __init__(self, rs: RootSystem, crossed: Iterable[int]):
        crossed = tuple(crossed)
        for i in crossed:
            if type(i) is not int:
                raise ValueError(f"crossed node {i!r} is not an integer")
        crossed = frozenset(crossed)
        nodes = frozenset(range(1, rs.rank + 1))
        if not crossed:
            raise ValueError("a proper parabolic needs at least one crossed node")
        if not crossed <= nodes:
            raise ValueError(f"crossed nodes {sorted(crossed)} outside 1..{rs.rank}")
        self.rs = rs
        self.crossed = crossed
        self.uncrossed = nodes - crossed
        self.label = "P" + "".join(map(str, sorted(crossed))) if self.uncrossed else "B"
        self.levi_rank = len(self.uncrossed)
        if self.levi_rank > 1:
            raise UnsupportedLevi(f"Levi of {self.label} has semisimple rank "
                                  f"{self.levi_rank}; only rank <= 1 is supported")
        self._levi_node = min(self.uncrossed, default=None)
        self.levi_root: Weight = (wzero(rs.rank) if self._levi_node is None
                                  else rs.cartan.row(self._levi_node))

        outside = [r for r in rs.positive_roots if not self._levi_supported(r)]
        self.dim = len(outside)
        self.anticanonical: Weight = tuple(map(sum, zip(*(r.weight for r in outside))))
        self.tangent = reps.decompose(self, Counter(r.weight for r in outside))
        if self.tangent.rank != self.dim or self.tangent.det != self.anticanonical:
            raise AssertionError("tangent representation lost weights in decomposition")
        self.cotangent = reps.dual(self, self.tangent)
        self.trivial = reps.trivial(self)

        # det_c >= lam_c bounds a crossed coordinate c, the string length an uncrossed one
        longest = self.dim - 2
        box = product(*(range(a + 1) if node in crossed else range(longest)
                        for node, a in enumerate(self.anticanonical, 1)))
        pool = []
        for lam in islice(box, 1, None):    # skips (0, ..., 0)
            n = self.string_length(lam)
            det = reps._irrep_det(self, lam, n)
            if n <= longest and min(map(sub, self.anticanonical, det)) >= 0:
                pool.append((n, lam, det))
        self.summand_pool = tuple(sorted(pool, reverse=True))

    def _levi_supported(self, root) -> bool:
        return all(c == 0 or (i + 1) in self.uncrossed
                   for i, c in enumerate(root.simple_coords))

    def is_p_dominant(self, lam: Weight) -> bool:
        """True iff lam is dominant for the Levi (non-negative on the uncrossed node, if any)."""
        return self._levi_node is None or lam[self._levi_node - 1] >= 0

    def string_length(self, lam: Weight) -> int:
        """dim V(lam) = lam_i + 1 for the uncrossed node i, or 1 on a torus Levi."""
        return 1 if self._levi_node is None else lam[self._levi_node - 1] + 1

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, ParabolicData) and self.rs == other.rs
                                 and self.crossed == other.crossed)

    def __hash__(self) -> int:
        return hash((self.rs, self.crossed))

    def __repr__(self) -> str:
        return f"<ParabolicData {self.label}: dim G/P = {self.dim}>"


def is_g_dominant(lam: Weight) -> bool:
    """True iff every coordinate is non-negative (global generation of E_lam)."""
    return min(lam) >= 0


@lru_cache(maxsize=None)
def _g2_parabolic(crossed: tuple[int, ...]) -> ParabolicData:
    return ParabolicData(g2_root_system(), crossed)


def g2_parabolic(name: str) -> ParabolicData:
    """One of the three G2 parabolics by name: P1, P2 or B."""
    key = name.upper() if isinstance(name, str) else None
    crossed = {"P1": (1,), "P2": (2,), "B": (1, 2)}.get(key)
    if crossed is None:
        raise ValueError(f"unknown parabolic {name!r}; "
                         f"expected one of {', '.join(G2_PARABOLIC_NAMES)}")
    return _g2_parabolic(crossed)
