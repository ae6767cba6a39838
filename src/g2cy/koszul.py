"""Koszul-resolution computations: E1 pages, restricted cohomology, twists.

A regular section of a globally generated bundle E on F = G/P cuts out X of
dimension dim F - rank E, and the structure sheaf of X is resolved by

    0 -> Λ^r E* -> ... -> E* -> O_F -> O_X -> 0,   r = rank E.

Tensoring the resolution with a bundle W and taking cohomology termwise gives
the first page E1(k, q) = H^q(F, Λ^k E* ⊗ W) of a spectral sequence
converging to H^{q-k}(X, W|_X).  The weight multisets of Λ^k E*
(``_koszul_layers``, built once per bundle) feed both E1 columns, each of
which :func:`~g2cy.reps._straightened` splits into one list of signed Levi
irreducibles against the terms of W, and Hilbert samples χ(O_X(i)), with
O_X(1) = L_H|_X and H the sum of the crossed fundamental weights on every
parabolic; both take the root system's Borel–Weil–Bott table,
:func:`~g2cy.cohomology._bott_table`, once per call and index it unchecked.

The differentials depend on the chosen section (they are contractions with
it), so they are not equivariant maps and cannot be dismissed by comparing
irreducible supports.  What the computation does know exactly:

* dimension bookkeeping: a page-r differential between two entries removes
  the same rank from both, and the ranks leaving and entering one entry fit
  inside it;
* Grothendieck vanishing: coherent cohomology of X vanishes outside
  0..dim X, so every limit entry in a forbidden total degree must die.

A page-r differential maps (k, q) to (k - r, q - r + 1), raising the total
degree q - k by one, so two positions are joined, on one page only, exactly
when their total degrees differ by one and the one in the higher degree has
the lower column.  The page rule "rank in + rank out <= current dimension"
therefore adds up to "total rank through a position <= its E1 dimension
D_p": the reachable limit tables are exactly D - inc(f) over the
b-matchings f of the bipartite graph whose sides are the positions of even
and of odd total degree.
``restricted_cohomology`` solves each connected component in closed form.
Let ν(X→Z) = min over Y ⊆ X of D(X∖Y) + D(N(Y) ∩ Z) be the largest
b-matching from X into Z (capacitated König–Ore), and S the positions in
forbidden degrees.  The component is consistent iff ν(S∩A → B) = D(S∩A)
for both choices of sides A, B (Mendelsohn–Dulmage), and a degree n whose
layer L lies on side A then ranges over

    [0, 0]                                                 if L ⊆ S,
    [D(L) - ν((S∩A) ∪ L → B) + D(S∩A),  D(L) - D(S∩B) + ν(S∩B → A∖L)]
                                                           otherwise,

and component ranges add up.  A degree is determined when the two bounds
meet.  The Euler characteristic is differential-independent and always
exact.

The solver works on bitmasks: each position is one bit of an ``int``, as
are adjacency rows, components, sides, forbidden sets and degree layers.
With the bits in sorted (k, q) order, a bit's adjacency row is the lower
bits of the next degree's layer and the higher bits of the previous one's.
ν(X→Z) tabulates D(Y) and N(Y) over the subsets Y of X only: 2^|X| work,
never 2 to the size of a component or of a side.

Both results, :class:`E1Page` and :class:`RestrictedCohomology`, are named
tuples of plain data; each holds a dict, so neither hashes.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb
from operator import add

from .cohomology import _bott_table
from .errors import InconsistentSpectralSequence, NotGloballyGenerated, TrivialSummand
from .parabolic import ParabolicData, is_g_dominant
from .reps import (RepSum, _check_parabolic, _exterior_layers, _straightened, dual,
                   exterior_power, tensor)
from .root_system import Weight, weight_str, wneg


def _check_cut(P: ParabolicData, summands) -> None:
    """Raise unless a section can cut a bundle with these highest weights."""
    for lam in summands:
        if not any(lam):
            raise TrivialSummand("the trivial line bundle is excluded as a summand")
        if not is_g_dominant(lam):
            raise NotGloballyGenerated(
                f"summand {weight_str(lam)} is not dominant, so E is not globally generated")


class KoszulInput(namedtuple("KoszulInput", "P E W")):
    """The data of a complete intersection: ambient parabolic ``P``, ``E`` and ``W``.

    ``E`` (the bundle cut by a section) and ``W`` (the bundle restricted to
    X) are :class:`RepSum` over ``P``, checked by :func:`~g2cy.reps._check_parabolic`;
    :func:`_check_cut` rejects an ``E`` that no section can cut.
    """

    __slots__ = ()

    def __new__(cls, P, E, W):
        _check_parabolic(P, E, W)
        _check_cut(P, E.terms)
        return tuple.__new__(cls, (P, E, W))

    @property
    def dim_x(self) -> int:
        return self.P.dim - self.E.rank


def _koszul_layers(P: ParabolicData, E: RepSum) -> tuple[tuple[tuple[Weight, int], ...], ...]:
    """Weight multisets of Λ^k E* for k = 0..rank E as read-only (weight, count)
    pairs, built once from :meth:`~g2cy.reps.RepSum.weights` and kept on ``E``
    for all its pages and Hilbert samples."""
    if E._dual_layers is None:
        negated = map(wneg, E.weights().elements())
        E._dual_layers = tuple(map(tuple, map(dict.items, _exterior_layers(P, negated))))
    return E._dual_layers


def koszul_terms(inp: KoszulInput) -> list[RepSum]:
    """Terms Λ^k E* ⊗ W of the twisted resolution, k = 0..rank E, through the
    public ``dual``, ``exterior_power`` and ``tensor``: the path through public
    representations to the characters that :func:`e1_page` builds from weights."""
    P, E = inp.P, inp.E
    e_dual = dual(P, E)
    return [tensor(P, exterior_power(P, e_dual, k), inp.W) for k in range(E.rank + 1)]


class E1Page(namedtuple("E1Page", "entries euler")):
    """First page of the Koszul spectral sequence: ``entries`` maps (k, q) to
    the nonzero dim H^q(F, Λ^k E* ⊗ W), and ``euler`` is the alternating sum
    over the whole page, which no differential changes."""

    __slots__ = ()


def e1_page(inp: KoszulInput) -> E1Page:
    """Column k is :func:`~g2cy.reps._straightened` of layer k of
    :func:`_koszul_layers` against the terms of W: each signed term m V(lam)
    is looked up in the Bott table, :func:`~g2cy.cohomology._bott_table`,
    taken once per page; its degree and dimension add to its entry, and it
    counts the column's rank C(rank E, k) · rank W down by m times the string
    length of lam.  Entries that cancel to 0 are dropped, a negative one
    raises ``AssertionError``, and each kept entry adds to the alternating
    sum, the Euler number, as it is written."""
    P, E, W = inp
    table, dim = _bott_table(P.rs), P.dim
    terms = W.terms.items()
    dims, euler = {}, 0                 # {(k, q): entry}, the alternating sum
    for k, layer in enumerate(_koszul_layers(P, E)):
        rank = comb(E.rank, k) * W.rank
        column: dict[int, int] = {}
        for lam, m, n in _straightened(P, layer, terms):
            rank -= m * n
            if (res := table[lam]) is not None:
                q = res[0]
                column[q] = column.get(q, 0) + m * res[2]
        if rank:
            raise AssertionError(f"Koszul column {k} has the wrong rank")
        for q, d in column.items():
            if q > dim:
                raise AssertionError("cohomological degree exceeded dim G/P")
            if d < 0:
                raise AssertionError(f"E1 entry ({k}, {q}) is negative")
            if d:
                dims[k, q] = d
                euler += -d if (q - k) % 2 else d
    return E1Page(dims, euler)


class DimRange(namedtuple("DimRange", "lower upper")):
    """A cohomology dimension, possibly only known up to bounds ``lower..upper``."""

    __slots__ = ()

    @property
    def determined(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if self.lower != self.upper:
            raise ValueError(f"dimension only bounded: [{self.lower}, {self.upper}]")
        return self.lower

    def to_json(self):
        if self.lower == self.upper:
            return self.lower
        return {"lower": self.lower, "upper": self.upper}


_INCONSISTENT = ("no differential ranks satisfy the vanishing constraints; the "
                 "input does not define a complete intersection of expected dimension")


def _bit_graph(dims: dict[tuple[int, int], int]):
    """The sorted positions of ``dims``, the i-th as bit 1 << i, with the
    dimension and adjacency row of each bit and the layer of each total
    degree, as bitmasks; see the module docstring."""
    positions = sorted(dims)
    dim: dict[int, int] = {}
    layers: dict[int, int] = {}          # positions by total degree
    for i, (k, q) in enumerate(positions):
        dim[1 << i] = dims[k, q]
        layers[q - k] = layers.get(q - k, 0) | 1 << i
    adjacency = {b: (layers.get(q - k + 1, 0) & (b - 1))
                 | (layers.get(q - k - 1, 0) & -(b << 1))
                 for b, (k, q) in zip(dim, positions)}
    return positions, dim, adjacency, layers


def _limit_ranges(dims: dict[tuple[int, int], int], allowed) -> dict[int, tuple[int, int]]:
    """Per-degree (lower, upper) limit dimensions over all differential ranks.

    ``dims`` maps E1 positions (k, q), k >= 0, to their dimensions, joined
    as :func:`_bit_graph` joins them.  Limit entries in total degrees n with
    ``allowed(n)`` false must vanish.
    Each component is checked for consistency, then solved in closed form, as
    in the module docstring; raises :class:`InconsistentSpectralSequence`
    when the vanishing cannot hold.  ν from the empty set is 0 without a
    call.  A position with no neighbour is settled where the component walk
    would start from it: it reads [D, D], and a forbidden one with D > 0
    cannot die.  Ranges come out in walk order, component by component.
    """
    positions, dim, adjacency, layers = _bit_graph(dims)
    degrees = sorted(layers)
    sides = [0, 0]                       # positions of even and of odd total degree
    forbidden = 0
    for n in degrees:
        sides[n % 2] |= layers[n]
        if not allowed(n):
            forbidden |= layers[n]

    def D(mask: int) -> int:
        total = 0
        while mask:
            b = mask & -mask
            total += dim[b]
            mask ^= b
        return total

    def nu(X: int, Z: int) -> int:
        # capacitated König–Ore: ν(X→Z) = D(X) + min over Y ⊆ X of D(N(Y) ∩ Z) - D(Y),
        # with D(Y) and N(Y) tabulated over the subsets of X only, Y = X last
        best, d_sub, n_sub = 0, [0], [0]     # Y = ∅
        while X:
            b = X & -X
            X ^= b
            for i in range(len(d_sub)):
                d, m = d_sub[i] + dim[b], n_sub[i] | adjacency[b]
                d_sub.append(d)
                n_sub.append(m)
                d, m = -d, m & Z
                while m:                     # d += D(m), inline in the 2^|X| loop
                    b_m = m & -m
                    d += dim[b_m]
                    m ^= b_m
                best = d if d < best else best
        return d_sub[-1] + best

    ranges: dict[int, tuple[int, int]] = {}     # component ranges add up
    unseen = (1 << len(dim)) - 1
    while unseen:
        comp = todo = unseen & -unseen
        if not adjacency[comp]:
            # no neighbour, so ν(L → B) = 0 and the closed form reads [D, D]
            if comp & forbidden and dim[comp]:
                raise InconsistentSpectralSequence(_INCONSISTENT)
            k, q = positions[comp.bit_length() - 1]
            lo, hi = ranges.get(q - k, (0, 0))
            ranges[q - k] = (lo + dim[comp], hi + dim[comp])
            unseen ^= comp
            continue
        while todo:
            b = todo & -todo
            new = adjacency[b] & ~comp
            comp |= new
            todo ^= b | new
        unseen &= ~comp
        # neighbours of positions in the component stay inside it, so only
        # the sets ν starts from need masking by the component
        S = forbidden & comp
        d_s = [D(S & sides[0]), D(S & sides[1])]     # D(S∩A) by the parity of side A
        # Mendelsohn–Dulmage: saturating S∩A and S∩B separately suffices;
        # ν(∅ → ·) = 0 = D(∅), so only a nonempty S∩A needs the check
        for j in (0, 1):
            if S & sides[j] and nu(S & sides[j], sides[1 - j]) != d_s[j]:
                raise InconsistentSpectralSequence(_INCONSISTENT)
        for n in degrees:
            layer = layers[n] & comp
            if not layer:
                continue
            lo, hi = ranges.get(n, (0, 0))
            if (layer & S) != layer:    # L ⊆ S adds [0, 0]
                A, B = sides[n % 2], sides[1 - n % 2]
                SB, d_l = B & S, D(layer)
                lo += d_l - nu((A & S) | layer, B) + d_s[n % 2]
                hi += (d_l - d_s[1 - n % 2] + nu(SB, A & ~layer)) if SB else d_l
            ranges[n] = (lo, hi)
    return ranges


_ZERO = DimRange(0, 0)    # every degree without an E1 entry shares it


class RestrictedCohomology(namedtuple("RestrictedCohomology", "by_degree euler")):
    """Cohomology of W restricted to the zero locus X: ``by_degree`` maps each
    degree 0..dim X, in order, to a :class:`DimRange`; ``euler`` is the exact
    alternating sum."""

    __slots__ = ()


def restricted_cohomology(inp: KoszulInput) -> RestrictedCohomology:
    """Resolve the Koszul spectral sequence as far as dimensions force it.

    Limit entries in total degrees outside 0..dim X must vanish, so
    ``by_degree`` holds exactly the degrees 0..dim X; a degree with no E1
    entry is a determined zero.  ``euler`` is the page's.
    """
    page, degrees = e1_page(inp), range(inp.dim_x + 1)
    ranges = _limit_ranges(page.entries, degrees.__contains__)
    by_degree = {n: DimRange(*ranges[n]) if n in ranges else _ZERO for n in degrees}
    return RestrictedCohomology(by_degree, page.euler)


def hilbert_value(P: ParabolicData, E: RepSum, i: int) -> int:
    """Exact Euler characteristic of the i-th twist of O_X, on any parabolic.

    O_X(1) = L_H|_X, H the sum of the fundamental weights of the crossed nodes,
    which span the nef cone: so H is ample, the generator of Pic on a maximal
    parabolic and rho on G/B; negative twists are allowed.  χ is additive and
    χ(F, E_mu) is Weyl's product W(mu): (-1)^l dim for (l, _, dim) the entry
    of mu in :func:`~g2cy.cohomology._bott_table`, taken once per sample, so
    the Koszul resolution gives χ(O_X(i)) = Σ_S (-1)^|S| W(iH - ε_S), S
    running over the sub-multisets of the weights ε of E: the layers of
    :func:`_koszul_layers` with sign (-1)^k, as in the E1 columns, and no
    spectral sequence involved.  An ``E`` over another parabolic or a twist
    not of type ``int`` raises ``ValueError``.
    """
    _check_parabolic(P, E)
    if type(i) is not int:
        raise ValueError(f"twist {i!r} is not an integer")
    line = tuple([i if j in P.crossed else 0 for j in range(1, P.rs.rank + 1)])
    table, total = _bott_table(P.rs), 0
    for k, layer in enumerate(_koszul_layers(P, E)):
        for mu, c in layer:
            if (res := table[tuple(map(add, mu, line))]) is not None:
                total += (-c if (k + res[0]) % 2 else c) * res[2]
    return total
