"""Representations of the parabolic subgroups: weights, duals, tensors, powers.

Irreducible representations of a parabolic P are irreducibles of its Levi,
labelled by p-dominant highest weights.  :class:`ParabolicData` accepts only
Levis of semisimple rank at most one and holds their one model: the weights
of V(lam) are the string lam - j levi_root, j < n = ``P.string_length(lam)``,
where levi_root is the uncrossed simple root, or zero on a torus (n = 1).
Weights, determinants and duals are closed forms in that model: det V(lam) =
n lam - n(n-1)/2 levi_root (:func:`_irrep_det`) and V(lam)* =
V((n-1) levi_root - lam).  Tensor products and exterior powers are weight
multisets built by the two kernels :func:`_product` and
:func:`_exterior_layers` and split by the sl2 rule of :func:`_levi_terms`,
the irreducible with highest weight lam occurring m(lam) - m(lam + levi_root)
times (the torus, with no root, apart).  The Koszul pages take their
Λ^k E* weights from :func:`_exterior_layers` too, but straighten them against
the highest weights of W (Brauer–Klimyk, in :func:`~g2cy.koszul.e1_page`)
instead of splitting a weight product.  :func:`decompose` expands the result
again and compares it with the input, so a multiset that is not a character
is rejected.  The kernels only see weights the package built and checked, so
they add them with a bare ``tuple(map(add, ...))``, not the length-checking
:func:`~g2cy.root_system.wadd`.

A :class:`RepSum` is a formal non-negative combination of irreducibles over a
fixed parabolic.  It models every bundle in the package: bundles on G/P
correspond to P-representations, with rank, determinant and weight multiset
matching the representation-theoretic ones.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from math import comb
from operator import add, sub

from .errors import NotARepresentation, NotPDominant, OutOfRange
from .root_system import Weight, check_weight, wneg, wscale, wsub, wzero, weight_str


def _collect(P: "ParabolicData", pairs: Mapping[Weight, int] | Iterable) -> dict[Weight, int]:
    """Add up (weight, multiplicity) pairs, from a mapping or an iterable of pairs.

    Zero multiplicities are dropped.  A multiplicity that is negative or not
    an ``int`` raises :class:`NotARepresentation`; a weight that
    :func:`~g2cy.root_system.check_weight` rejects raises ``ValueError``.
    Every weight past this point is a rank-length tuple of ints, which the
    weight kernels and the caches keyed by weights rely on.
    """
    rank = P.rs.rank
    out: dict[Weight, int] = {}
    for lam, mult in (pairs.items() if isinstance(pairs, Mapping) else pairs):
        lam = check_weight(lam, rank)
        if not isinstance(mult, int):
            raise NotARepresentation(f"multiplicity {mult!r} of {weight_str(lam)} "
                                     "is not an integer")
        if mult < 0:
            raise NotARepresentation(f"negative multiplicity for {weight_str(lam)}")
        if mult:
            out[lam] = out.get(lam, 0) + mult
    return out


class RepSum:
    """Formal sum of irreducible P-representations, keyed by highest weight.

    Built from a mapping or an iterable of (highest weight, multiplicity)
    pairs, repeated weights adding up; see :func:`_collect` for the checks.
    ``terms`` never changes, so construction derives, in one pass: ``rank``,
    ``det`` (by :func:`_irrep_det`) and ``_pairs``, the weight multiset as
    read-only (weight, multiplicity) pairs, each term's string lam,
    lam - levi_root, ....  Only the weights of its Λ^k duals, which cut
    bundles alone need, are built later, by :mod:`~g2cy.koszul`.
    """

    __slots__ = ("parabolic", "terms", "rank", "det", "_pairs", "_dual_layers")

    def __init__(self, parabolic: "ParabolicData", terms: Mapping[Weight, int] | Iterable = ()):
        clean = _collect(parabolic, terms)
        pairs: dict[Weight, int] = {}
        rank, det = 0, [0] * parabolic.rs.rank
        for lam, m in clean.items():
            if not parabolic.is_p_dominant(lam):
                raise NotPDominant(f"{weight_str(lam)} is not p-dominant for {parabolic.label}")
            n = parabolic.string_length(lam)
            rank += m * n
            for k, x in enumerate(_irrep_det(parabolic, lam)):
                det[k] += m * x
            mu = lam
            for _ in range(n):
                pairs[mu] = pairs.get(mu, 0) + m
                mu = tuple(map(sub, mu, parabolic.levi_root))
        self.parabolic = parabolic
        self.terms = clean
        self.rank = rank
        self.det: Weight = tuple(det)
        self._pairs = tuple(pairs.items())
        self._dual_layers = None

    def sorted_terms(self) -> list[tuple[Weight, int]]:
        """Terms ordered by descending (irreducible rank, highest weight)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (self.parabolic.string_length(kv[0]), kv[0]),
                      reverse=True)

    def weights(self) -> Counter:
        """Full weight multiset, a fresh ``Counter``; its cardinality equals the rank."""
        return Counter(dict(self._pairs))

    def __add__(self, other: "RepSum") -> "RepSum":
        _check_parabolic(self.parabolic, other)
        merged = Counter(self.terms)
        merged.update(other.terms)
        return RepSum(self.parabolic, merged)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RepSum) and self.parabolic == other.parabolic
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.parabolic, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for lam, m in self.sorted_terms():
            parts.append(weight_str(lam) + (f"^⊕{m}" if m > 1 else ""))
        return " ⊕ ".join(parts)

    def __repr__(self) -> str:
        return f"<RepSum {self.parabolic.label}: {self}>"


def _check_parabolic(P: "ParabolicData", *sums: RepSum) -> None:
    """Raise ``ValueError`` unless every sum lives over ``P``.  A record runs it
    4 times, 13 with Hilbert samples: a plain loop, ``is`` (shared parabolics) before ``!=``."""
    for r in sums:
        if r.parabolic is not P and r.parabolic != P:
            raise ValueError("every representation must live over the given parabolic")


def irrep(P: "ParabolicData", lam: Weight) -> RepSum:
    """The irreducible P-representation with highest weight ``lam``."""
    return RepSum(P, {tuple(lam): 1})


def trivial(P: "ParabolicData") -> RepSum:
    return irrep(P, wzero(P.rs.rank))


def _irrep_det(P: "ParabolicData", lam: Weight) -> Weight:
    """det V(lam) = n lam - n(n-1)/2 levi_root, n the string length of lam."""
    n = P.string_length(lam)
    drop = n * (n - 1) // 2
    return tuple([n * x - drop * a for x, a in zip(lam, P.levi_root)])


def _levi_terms(P: "ParabolicData", work: Mapping[Weight, int]) -> dict[Weight, int]:
    """Levi irreducibles of a character from its weight multiset, by the sl2 rule.

    On a rank-one Levi with simple root alpha each alpha-string is an sl2
    character, so the irreducible with p-dominant highest weight lam occurs
    m(lam) - m(lam + alpha) times, m being the multiplicity in ``work``; a
    negative count raises :class:`NotARepresentation`.  On a torus (alpha = 0)
    every weight is a summand.  Callers check the result against the input.
    """
    if not P.levi_rank:
        return dict(work)
    alpha, i = P.levi_root, P._levi_node - 1
    terms: dict[Weight, int] = {}
    for lam, c in work.items():
        if lam[i] >= 0:                  # p-dominant
            n = c - work.get(tuple(map(add, lam, alpha)), 0)
            if n < 0:
                raise NotARepresentation(
                    f"{weight_str(lam)} occurs less often than the weight above it")
            if n:
                terms[lam] = n
    return terms


def decompose(P: "ParabolicData", multiset: Mapping[Weight, int] | Iterable) -> RepSum:
    """Invert :meth:`RepSum.weights` on a weight multiset by :func:`_levi_terms`.

    A result whose weights do not rebuild the input exactly raises
    :class:`NotARepresentation`: sl2 characters are linearly independent, so
    that rejects every multiset that is not a character.  The multiset may be
    an iterable of (weight, multiplicity) pairs, repeated weights adding up.
    """
    work = _collect(P, multiset)
    result = RepSum(P, _levi_terms(P, work))
    if dict(result._pairs) != work:
        raise NotARepresentation(
            f"weight multiset is not a sum of {P.label} weight strings")
    return result


def dual(P: "ParabolicData", r: RepSum) -> RepSum:
    """Dual summand by summand, V(lam)* = V((n - 1) levi_root - lam) for string
    length n, which is V(-lam) on a torus; the rank is checked to be kept and
    the determinant to be negated."""
    _check_parabolic(P, r)
    result = RepSum(P, [(wsub(wscale(P.string_length(lam) - 1, P.levi_root), lam), m)
                        for lam, m in r.terms.items()])
    if result.rank != r.rank or result.det != wneg(r.det):
        raise AssertionError("dual changed the rank or did not negate the determinant")
    return result


def _product(u: Iterable[tuple[Weight, int]], v: Iterable[tuple[Weight, int]]) -> dict[Weight, int]:
    """Weight multiset of a tensor product from the (weight, multiplicity) pairs
    of its factors, ``v`` re-iterable: every sum of a weight of ``u`` and one of
    ``v``, multiplicities multiplied and equal sums merged in first-seen order."""
    out: dict[Weight, int] = {}
    for mu, c in u:
        for nu, d in v:
            lam = tuple(map(add, mu, nu))
            out[lam] = out.get(lam, 0) + c * d
    return out


def _exterior_layers(P: "ParabolicData", weights: Iterable[Weight]) -> list[dict[Weight, int]]:
    """Weight multisets of Λ^k, k = 0..len(weights): the k-element sub-multiset
    sums, equal sums merged, by the elementary-symmetric recurrence in one pass."""
    layers: list[dict[Weight, int]] = [{wzero(P.rs.rank): 1}]
    for eps in weights:
        layers.append({})
        for k in range(len(layers) - 1, 0, -1):
            layer = layers[k]
            for mu, c in layers[k - 1].items():
                nu = tuple(map(add, mu, eps))
                layer[nu] = layer.get(nu, 0) + c
    return layers


def tensor(P: "ParabolicData", a: RepSum, b: RepSum) -> RepSum:
    """Tensor product: :func:`decompose` of the weight product of the factors."""
    _check_parabolic(P, a, b)
    return decompose(P, _product(a._pairs, b._pairs))


def exterior_power(P: "ParabolicData", r: RepSum, k: int) -> RepSum:
    """k-th exterior power: :func:`decompose` of layer k of
    :func:`_exterior_layers`, the k-element sub-multiset sums of the weights;
    a ``k`` not of type ``int`` raises ``ValueError``."""
    _check_parabolic(P, r)
    if type(k) is not int:
        raise ValueError(f"exterior power {k!r} is not an integer")
    n = r.rank
    if not 0 <= k <= n:
        raise OutOfRange(f"exterior power {k} outside 0..{n}")
    layer = _exterior_layers(P, (mu for mu, m in r._pairs for _ in range(m)))[k]
    if sum(layer.values()) != comb(n, k):
        raise AssertionError("exterior power has wrong cardinality")
    return decompose(P, layer)
