"""Koszul-resolution computations: E1 pages, restricted cohomology, twists.

A regular section of a globally generated bundle E on F = G/P cuts out X of
dimension dim F - rank E, and the structure sheaf of X is resolved by

    0 -> Λ^r E* -> ... -> E* -> O_F -> O_X -> 0,   r = rank E.

Tensoring the resolution with a bundle W and taking cohomology termwise gives
the first page E1(k, q) = H^q(F, Λ^k E* ⊗ W) of a spectral sequence
converging to H^{q-k}(X, W|_X).

The differentials depend on the chosen section (they are contractions with
it), so they are not equivariant maps and cannot be dismissed by comparing
irreducible supports.  What the computation does know exactly:

* dimension bookkeeping: a page-r differential between two entries removes
  the same rank from both, and the ranks leaving and entering one entry fit
  inside it;
* Grothendieck vanishing: coherent cohomology of X vanishes outside
  0..dim X, so every limit entry in a forbidden total degree must die.

A page-r differential maps (k, q) to (k - r, q - r + 1), raising the total
degree q - k by one, and two positions are joined on at most one page.  The
page rule "rank in + rank out <= current dimension" therefore adds up to
"total rank through a position <= its E1 dimension D_p": the reachable limit
tables are exactly D - inc(f) over the b-matchings f of the bipartite graph
whose sides are the positions of even and of odd total degree.
``restricted_cohomology`` solves each connected component in closed form.
Let ν(X→Z) = min over Y ⊆ X of D(X∖Y) + D(N(Y) ∩ Z) be the largest
b-matching from X into Z (capacitated König–Ore), and S the positions in
forbidden degrees (none when vanishing is not enforced).  The component is
consistent iff ν(S∩A → B) = D(S∩A) for both choices of sides A, B
(Mendelsohn–Dulmage), and a degree n whose layer L lies on side A then
ranges over

    [0, 0]                                                 if L ⊆ S,
    [D(L) - ν((S∩A) ∪ L → B) + D(S∩A),  D(L) - D(S∩B) + ν(S∩B → A∖L)]
                                                           otherwise,

and component ranges add up.  A degree is determined when the two bounds
meet.  The Euler characteristic is differential-independent and always
exact.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import combinations

from .cohomology import CohomologyTable, bundle_cohomology, euler_char
from .errors import (InconsistentSpectralSequence, NotGloballyGenerated,
                     NotMaximalParabolic, TrivialSummand)
from .parabolic import ParabolicData, is_g_dominant
from .reps import RepSum, dual, exterior_power, irrep, tensor, trivial
from .root_system import weight_str, wzero


class KoszulInput(namedtuple("KoszulInput", "P E W")):
    """The data of a complete intersection: ambient parabolic ``P``, ``E`` and ``W``.

    ``E`` (the bundle cut by a section) and ``W`` (the bundle restricted to
    X) are :class:`RepSum` over ``P``.  Construction rejects an ``E`` with a
    trivial or a not globally generated summand.
    """

    __slots__ = ()

    def __new__(cls, P, E, W):
        zero = wzero(P.rs.rank)
        for lam in E.terms:
            if lam == zero:
                raise TrivialSummand("E contains the trivial bundle as a summand")
            if not is_g_dominant(lam):
                raise NotGloballyGenerated(
                    f"summand {weight_str(lam)} of E is not globally generated")
        return super().__new__(cls, P, E, W)

    @property
    def dim_x(self) -> int:
        return self.P.dim - self.E.rank


def koszul_terms(inp: KoszulInput) -> list[RepSum]:
    """Terms Λ^k E* ⊗ W of the twisted resolution, k = 0..rank E."""
    e_dual = dual(inp.P, inp.E)
    return [tensor(inp.P, exterior_power(inp.P, e_dual, k), inp.W)
            for k in range(inp.E.rank + 1)]


class E1Page:
    """First page of the Koszul spectral sequence: a (k, q) grid of groups."""

    def __init__(self, inp: KoszulInput, columns: list[CohomologyTable]):
        self.input = inp
        self.columns = columns

    def dim(self, k: int, q: int) -> int:
        return self.columns[k].dim(q)

    def entries(self) -> dict[tuple[int, int], int]:
        """Nonzero entries as {(k, q): dim}."""
        out = {}
        for k, col in enumerate(self.columns):
            for q in col.degrees():
                d = col.dim(q)
                if d:
                    out[(k, q)] = d
        return out

    @property
    def euler(self) -> int:
        """Alternating sum over the whole page; independent of differentials."""
        return sum((-1) ** ((q - k) % 2) * d for (k, q), d in self.entries().items())

    def render(self) -> str:
        entries = self.entries()
        if not entries:
            return "E1 page is zero"
        kmax = len(self.columns) - 1
        qmax = max(q for _, q in entries)
        header = "q\\k " + " ".join(f"{k:>6}" for k in range(kmax + 1))
        lines = [header]
        for q in range(qmax, -1, -1):
            row = " ".join(f"{entries.get((k, q), 0):>6}" for k in range(kmax + 1))
            lines.append(f"{q:>3} " + row)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "parabolic": self.input.P.label,
            "entries": [{"k": k, "q": q, "dim": d,
                         "irreps": [{"weight": list(mu), "mult": m}
                                    for mu, m in sorted(self.columns[k].irreps(q).items())]}
                        for (k, q), d in sorted(self.entries().items())],
        }


def e1_page(inp: KoszulInput) -> E1Page:
    return E1Page(inp, [bundle_cohomology(inp.P, term) for term in koszul_terms(inp)])


class DimRange(namedtuple("DimRange", "lower upper")):
    """A cohomology dimension, possibly only known up to bounds ``lower..upper``."""

    __slots__ = ()

    @property
    def determined(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.determined:
            raise ValueError(f"dimension only bounded: [{self.lower}, {self.upper}]")
        return self.lower

    def __str__(self) -> str:
        return str(self.lower) if self.determined else f"[{self.lower}..{self.upper}]"

    def to_json(self):
        if self.determined:
            return self.lower
        return {"lower": self.lower, "upper": self.upper}


def _adjacency(positions, max_page: int) -> dict[tuple, set]:
    """Positions joined by a possible differential on some page 1..max_page."""
    def linked(s, t) -> bool:
        r = s[0] - t[0]
        return 1 <= r <= max_page and s[1] - t[1] == r - 1

    return {p: {t for t in positions if linked(p, t) or linked(t, p)}
            for p in positions}


def _differential_components(adjacency: dict[tuple, set]) -> list[tuple]:
    """Connected components of the differential graph, as sorted tuples."""
    components = []
    unseen = set(adjacency)
    while unseen:
        stack = [min(unseen)]
        unseen.discard(stack[0])
        comp = {stack[0]}
        while stack:
            for nbr in adjacency[stack.pop()]:
                if nbr in unseen:
                    unseen.discard(nbr)
                    comp.add(nbr)
                    stack.append(nbr)
        components.append(tuple(sorted(comp)))
    return components


def _limit_ranges(dims: dict[tuple[int, int], int], max_page: int,
                  allowed) -> dict[int, tuple[int, int]]:
    """Per-degree (lower, upper) limit dimensions over all differential ranks.

    ``dims`` maps E1 positions (k, q) to their dimensions; limit entries in
    total degrees n with ``allowed(n)`` false must vanish.  Each component is
    solved in closed form, as described in the module docstring; raises
    :class:`InconsistentSpectralSequence` when the vanishing cannot hold.
    """
    adjacency = _adjacency(sorted(dims), max_page)

    def D(ps) -> int:
        return sum(dims[p] for p in ps)

    def nu(X: set, Z: set) -> int:
        # capacitated König–Ore: ν(X→Z) = min over Y ⊆ X of D(X∖Y) + D(N(Y) ∩ Z)
        return min(D(X.difference(Y)) + D(set().union(*(adjacency[y] for y in Y)) & Z)
                   for size in range(len(X) + 1) for Y in combinations(X, size))

    ranges: dict[int, tuple[int, int]] = {}
    for comp in _differential_components(adjacency):
        sides = ({p for p in comp if (p[1] - p[0]) % 2 == 0},
                 {p for p in comp if (p[1] - p[0]) % 2 == 1})
        forbidden = {p for p in comp if not allowed(p[1] - p[0])}
        # Mendelsohn–Dulmage: saturating S∩A and S∩B separately suffices
        for A, B in (sides, sides[::-1]):
            if nu(A & forbidden, B) != D(A & forbidden):
                raise InconsistentSpectralSequence(
                    "no differential ranks satisfy the vanishing constraints; the "
                    "input does not define a complete intersection of expected dimension")
        for n in sorted({q - k for k, q in comp}):
            A, B = sides[n % 2], sides[1 - n % 2]
            layer = {p for p in A if p[1] - p[0] == n}
            SA, SB = A & forbidden, B & forbidden
            if not allowed(n):
                lo = hi = 0
            else:
                lo = D(layer) - nu(SA | layer, B) + D(SA)
                hi = D(layer) - D(SB) + nu(SB, A - layer)
            old_lo, old_hi = ranges.get(n, (0, 0))
            ranges[n] = (old_lo + lo, old_hi + hi)
    return ranges


class RestrictedCohomology:
    """Cohomology of W restricted to the zero locus X, degree by degree.

    ``h(n)`` gives a :class:`DimRange` per total degree; ``euler`` is always
    the exact alternating sum.
    """

    def __init__(self, inp: KoszulInput, page: E1Page,
                 by_degree: dict[int, DimRange], euler: int):
        self.input = inp
        self.page = page
        self.by_degree = by_degree
        self.euler = euler
        self.dim_x = inp.dim_x

    def h(self, n: int) -> DimRange:
        return self.by_degree.get(n, DimRange(0, 0))

    @property
    def determined(self) -> bool:
        return all(r.determined for r in self.by_degree.values())

    def hodge_vector(self) -> tuple[DimRange, ...]:
        return tuple(self.h(n) for n in range(self.dim_x + 1))

    def to_json(self) -> dict:
        return {
            "parabolic": self.input.P.label,
            "dim_X": self.dim_x,
            "h": {str(n): self.by_degree[n].to_json() for n in sorted(self.by_degree)},
            "euler": self.euler,
        }


def restricted_cohomology(inp: KoszulInput, enforce_vanishing: bool = True) -> RestrictedCohomology:
    """Resolve the Koszul spectral sequence as far as dimensions force it.

    With ``enforce_vanishing`` (the default), limit entries in total degrees
    outside 0..dim X are required to vanish; disabling it gives the purely
    formal analysis, which can only be less determined (useful as an audit).
    """
    page = e1_page(inp)
    dim_x = inp.dim_x

    def allowed(n: int) -> bool:
        return 0 <= n <= dim_x

    ranges = _limit_ranges(page.entries(), inp.E.rank,
                           allowed if enforce_vanishing else lambda n: True)
    by_degree = {n: DimRange(lo, hi) for n, (lo, hi) in ranges.items()
                 if hi > 0 or allowed(n)}
    for n in range(0, max(dim_x, -1) + 1):
        by_degree.setdefault(n, DimRange(0, 0))
    return RestrictedCohomology(inp, page, by_degree, page.euler)


def hilbert_value(P: ParabolicData, E: RepSum, i: int) -> int:
    """Exact Euler characteristic of the i-th twist of O_X.

    Needs a maximal parabolic so that Pic F is generated by one line bundle
    L = E_omega, with omega the fundamental weight of the crossed node;
    negative twists are allowed.  Computed as the alternating sum of Euler
    characteristics of the twisted Koszul terms Λ^k E* ⊗ L^i, with no
    spectral sequence involved.  Sampling several twists goes through
    ``_hilbert_samples``, which builds E* and each Λ^k E* once for all of them.
    """
    return _hilbert_samples(P, E, (i,))[0]


def _hilbert_samples(P: ParabolicData, E: RepSum, twists: Iterable[int]) -> list[int]:
    """``hilbert_value`` at each twist, sharing E* and every Λ^k E*."""
    if len(P.crossed) != 1:
        raise NotMaximalParabolic(
            f"{P.label} has Picard rank {len(P.crossed)}; a single twist is undefined")
    node = next(iter(P.crossed))
    e_dual = dual(P, E)
    powers = [exterior_power(P, e_dual, k) for k in range(E.rank + 1)]
    values = []
    for i in twists:
        line = irrep(P, tuple(i if j == node - 1 else 0 for j in range(P.rs.rank)))
        values.append(sum((-1) ** k * euler_char(P, tensor(P, power, line))
                          for k, power in enumerate(powers)))
    return values


def structure_sheaf_cohomology(P: ParabolicData, E: RepSum,
                               enforce_vanishing: bool = True) -> RestrictedCohomology:
    """Restricted cohomology of the trivial bundle: the h^{0,q} of X."""
    return restricted_cohomology(KoszulInput(P, E, trivial(P)), enforce_vanishing)
