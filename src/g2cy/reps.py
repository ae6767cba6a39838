"""Representations of the parabolic subgroups: weights, duals, tensors, powers.

Irreducible representations of a parabolic P are irreducibles of its Levi,
labelled by p-dominant highest weights.  All three G2 parabolics have a Levi
of semisimple rank at most one, so the full weight multiset of an irreducible
is a single alpha-string through the highest weight; everything here reduces
to exact multiset arithmetic on integer weight tuples.  Duals, tensor
products and exterior powers are computed on weight multisets and then
decomposed in one pass by the sl2 highest-weight rule: the irreducible with
highest weight lam occurs m(lam) - m(lam + alpha) times.  The result is
expanded again and compared with the input, so a multiset that is not a
character is rejected rather than misread.

A :class:`RepSum` is a formal non-negative combination of irreducibles over a
fixed parabolic.  It models every bundle in the package: bundles on G/P
correspond to P-representations, with rank, determinant and weight multiset
matching the representation-theoretic ones.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from math import comb

from .errors import NotARepresentation, NotPDominant, OutOfRange, UnsupportedLevi
from .root_system import Weight, wadd, wneg, wscale, wsub, wzero, weight_str


class RepSum:
    """Formal sum of irreducible P-representations, keyed by highest weight."""

    __slots__ = ("parabolic", "terms")

    def __init__(self, parabolic: "ParabolicData", terms: Mapping[Weight, int] | Iterable = ()):
        clean: dict[Weight, int] = {}
        for lam, mult in dict(terms).items():
            if mult < 0:
                raise NotARepresentation(f"negative multiplicity for {weight_str(lam)}")
            if mult == 0:
                continue
            if not parabolic.is_p_dominant(lam):
                raise NotPDominant(f"{weight_str(lam)} is not p-dominant for {parabolic.label}")
            clean[tuple(lam)] = mult
        self.parabolic = parabolic
        self.terms = clean

    def sorted_terms(self) -> list[tuple[Weight, int]]:
        """Terms ordered by descending (irreducible rank, highest weight)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (irrep_dim(self.parabolic, kv[0]), kv[0]),
                      reverse=True)

    @property
    def rank(self) -> int:
        return sum(m * irrep_dim(self.parabolic, lam) for lam, m in self.terms.items())

    @property
    def det(self) -> Weight:
        total = wzero(self.parabolic.rs.rank)
        for lam, m in self.terms.items():
            total = wadd(total, wscale(m, irrep_det(self.parabolic, lam)))
        return total

    def weights(self) -> Counter:
        """Full weight multiset; its cardinality equals the rank."""
        out: Counter = Counter()
        for lam, m in self.terms.items():
            for w, c in irrep_weights(self.parabolic, lam).items():
                out[w] += m * c
        return out

    def __add__(self, other: "RepSum") -> "RepSum":
        if self.parabolic != other.parabolic:
            raise ValueError("direct sum requires the same parabolic")
        merged = Counter(self.terms)
        merged.update(other.terms)
        return RepSum(self.parabolic, merged)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RepSum) and self.parabolic == other.parabolic
                and self.terms == other.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for lam, m in self.sorted_terms():
            parts.append(weight_str(lam) + (f"^⊕{m}" if m > 1 else ""))
        return " ⊕ ".join(parts)

    def __repr__(self) -> str:
        return f"<RepSum {self.parabolic.label}: {self}>"


def irrep(P: "ParabolicData", lam: Weight) -> RepSum:
    """The irreducible P-representation with highest weight ``lam``."""
    return RepSum(P, {tuple(lam): 1})


def trivial(P: "ParabolicData") -> RepSum:
    return irrep(P, wzero(P.rs.rank))


def _string_node(P: "ParabolicData") -> int | None:
    """The single uncrossed node, or None when the Levi is a torus."""
    nodes = sorted(P.uncrossed)
    if not nodes:
        return None
    if len(nodes) == 1:
        return nodes[0]
    raise UnsupportedLevi(
        f"Levi of {P.label} has semisimple rank {len(nodes)}; only rank <= 1 is supported")


def irrep_weights(P: "ParabolicData", lam: Weight) -> Counter:
    """Weight multiset of the irreducible with highest weight ``lam``.

    For a torus Levi this is the single character; for a rank-one Levi it is
    the alpha-string ``lam, lam - alpha, ..., lam - <lam, alpha^vee> alpha``
    through the uncrossed simple root.
    """
    lam = tuple(lam)
    if not P.is_p_dominant(lam):
        raise NotPDominant(f"{weight_str(lam)} is not p-dominant for {P.label}")
    i = _string_node(P)
    if i is None:
        return Counter({lam: 1})
    alpha = P.rs.cartan.row(i)
    return Counter({wsub(lam, wscale(j, alpha)): 1 for j in range(lam[i - 1] + 1)})


def irrep_dim(P: "ParabolicData", lam: Weight) -> int:
    if not P.is_p_dominant(lam):
        raise NotPDominant(f"{weight_str(lam)} is not p-dominant for {P.label}")
    i = _string_node(P)
    return 1 if i is None else lam[i - 1] + 1


def irrep_det(P: "ParabolicData", lam: Weight) -> Weight:
    """Sum of the weight string: n*lam - n(n-1)/2 * alpha for string length n."""
    lam = tuple(lam)
    n = irrep_dim(P, lam)
    i = _string_node(P)
    det = wscale(n, lam)
    if i is not None:
        det = wsub(det, wscale(n * (n - 1) // 2, P.rs.cartan.row(i)))
    return det


def decompose(P: "ParabolicData", multiset: Mapping[Weight, int]) -> RepSum:
    """Invert :func:`irrep_weights` on a weight multiset.

    A torus Levi keeps every weight as its own summand.  On a rank-one Levi
    with uncrossed node i and simple root alpha, each alpha-string is an sl2
    character, so the irreducible with highest weight lam (lam_i >= 0) occurs
    m(lam) - m(lam + alpha) times, m being the multiplicity in the multiset.
    A negative count raises :class:`NotARepresentation`, and so does a result
    whose weights do not rebuild the input exactly; sl2 characters are
    linearly independent, so that rejects every multiset that is not a
    character.
    """
    work: dict[Weight, int] = {}
    for w, c in dict(multiset).items():
        if c < 0:
            raise NotARepresentation("negative multiplicity in weight multiset")
        if c:
            work[tuple(w)] = c
    i = _string_node(P)
    if i is None:
        return RepSum(P, work)
    alpha = P.rs.cartan.row(i)
    terms: dict[Weight, int] = {}
    for lam, c in work.items():
        if lam[i - 1] >= 0:
            n = c - work.get(wadd(lam, alpha), 0)
            if n < 0:
                raise NotARepresentation(
                    f"{weight_str(lam)} occurs less often than the weight above it")
            if n:
                terms[lam] = n
    result = RepSum(P, terms)
    if result.weights() != work:
        raise NotARepresentation(
            f"weight multiset is not a sum of {P.label} weight strings")
    return result


def dual(P: "ParabolicData", r: RepSum) -> RepSum:
    """Dual representation: the weight multiset is negated, then re-decomposed."""
    return decompose(P, Counter({wneg(w): c for w, c in r.weights().items()}))


def tensor(P: "ParabolicData", a: RepSum, b: RepSum) -> RepSum:
    """Tensor product via convolution of weight multisets."""
    if a.parabolic != P or b.parabolic != P:
        raise ValueError("tensor factors must live over the given parabolic")
    conv: Counter = Counter()
    for u, cu in a.weights().items():
        for v, cv in b.weights().items():
            conv[wadd(u, v)] += cu * cv
    return decompose(P, conv)


def exterior_power(P: "ParabolicData", r: RepSum, k: int) -> RepSum:
    """k-th exterior power: all k-element sub-multiset sums of the weights.

    Computed by the elementary-symmetric recurrence over the weight list, not
    by enumerating subsets.
    """
    n = r.rank
    if not 0 <= k <= n:
        raise OutOfRange(f"exterior power {k} outside 0..{n}")
    elements = sorted(r.weights().elements())
    zero = wzero(P.rs.rank)
    layers: list[Counter] = [Counter({zero: 1})] + [Counter() for _ in range(k)]
    for x in elements:
        for j in range(k, 0, -1):
            for w, c in layers[j - 1].items():
                layers[j][wadd(w, x)] += c
    total = sum(layers[k].values())
    if total != comb(n, k):
        raise AssertionError("exterior power has wrong cardinality")
    return decompose(P, layers[k])
