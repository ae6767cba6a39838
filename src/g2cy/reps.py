"""Representations of the parabolic subgroups: weights, duals, tensors, powers.

Irreducible representations of a parabolic P are irreducibles of its Levi,
labelled by p-dominant highest weights.  :class:`ParabolicData` accepts only
Levis of semisimple rank at most one and holds their one model: the weights
of V(lam) are the string lam - j levi_root, j < n = ``P.string_length(lam)``,
where levi_root is the uncrossed simple root, or zero on a torus (n = 1).
Weights, determinants and duals are closed forms in that model: det V(lam) =
n lam - n(n-1)/2 levi_root (:func:`_irrep_det`, given n) and V(lam)* =
V((n-1) levi_root - lam).  Products go through one sl2 rule, Brauer–Klimyk
straightening in :func:`_net`, which reads the Levi index ``P._levi_node``
per term for speed: :func:`tensor` straightens one factor's weights against
the other's highest weights, and :func:`decompose` a weight multiset
against V(0); :func:`decompose` expands its result again and compares it
with the input, so a multiset that is not a character is rejected.  E1
columns need no straightening: :func:`~g2cy.koszul.e1_page` reads each
weight sum in the Bott table and turns the reflection into a degree
shift.  The kernels only see weights the package built and checked, so
they add them with a bare ``tuple(map(add, ...))``, not the
length-checking :func:`~g2cy.root_system.wadd`.

A :class:`RepSum` is a formal non-negative combination of irreducibles over a
fixed parabolic.  It models every bundle in the package: bundles on G/P
correspond to P-representations, with rank, determinant and weight multiset
matching the representation-theoretic ones.  It holds its terms, and its
weights are built only when :meth:`RepSum.weights` is read, so what reads
highest weights alone costs the size of the terms, not of the rank.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from math import comb
from operator import add, sub

from .errors import NotARepresentation, NotPDominant, OutOfRange
from .root_system import Weight, check_weight, wadd, wneg, wscale, wsub, wzero, weight_str


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
    items = getattr(pairs, "items", None)     # isinstance(pairs, Mapping) runs Python code
    for lam, mult in (items() if items else pairs):
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
    A sum holds its terms and no weight: ``terms`` never changes, so
    construction derives ``rank`` and ``det`` (by :func:`_irrep_det`) from
    the highest weights alone, and :meth:`weights` builds the weight multiset
    when it is read.  The weights of its Λ^k duals, which cut bundles alone
    need, are built once, by :mod:`~g2cy.koszul`, and kept.
    """

    __slots__ = ("parabolic", "terms", "rank", "det", "_dual_layers")

    def __init__(self, parabolic: "ParabolicData", terms: Mapping[Weight, int] | Iterable = ()):
        clean = _collect(parabolic, terms)
        rank, det = 0, [0] * parabolic.rs.rank
        for lam, m in clean.items():
            n = parabolic.string_length(lam)    # n >= 1 iff p-dominant
            if n < 1:
                raise NotPDominant(f"{weight_str(lam)} is not p-dominant for {parabolic.label}")
            rank += m * n
            for k, x in enumerate(_irrep_det(parabolic, lam, n)):
                det[k] += m * x
        self.parabolic = parabolic
        self.terms = clean
        self.rank = rank
        self.det: Weight = tuple(det)
        self._dual_layers = None

    def sorted_terms(self) -> list[tuple[Weight, int]]:
        """Terms ordered by descending (irreducible rank, highest weight)."""
        return sorted(self.terms.items(),
                      key=lambda kv: (self.parabolic.string_length(kv[0]), kv[0]),
                      reverse=True)

    def weights(self) -> Counter:
        """Full weight multiset, a fresh ``Counter`` built from the terms: each
        term's string lam, lam - levi_root, ...; its cardinality equals the rank."""
        P, out = self.parabolic, Counter()
        for lam, m in self.terms.items():
            mu = lam
            for _ in range(P.string_length(lam)):
                out[mu] = out.get(mu, 0) + m
                mu = tuple(map(sub, mu, P.levi_root))
        return out

    def __add__(self, other: "RepSum") -> "RepSum":
        if not isinstance(other, RepSum):
            return NotImplemented
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
    """Raise ``ValueError`` unless every sum lives over ``P``.  A record runs it 4
    times (``dual``, three ``KoszulInput``), 13 on a threefold (nine Hilbert samples):
    a plain loop, ``is`` (shared parabolics) before ``!=``."""
    for r in sums:
        if r.parabolic is not P and r.parabolic != P:
            raise ValueError("every representation must live over the given parabolic")


def irrep(P: "ParabolicData", lam: Weight) -> RepSum:
    """The irreducible P-representation with highest weight ``lam``."""
    return RepSum(P, {tuple(lam): 1})


def trivial(P: "ParabolicData") -> RepSum:
    return irrep(P, wzero(P.rs.rank))


def _irrep_det(P: "ParabolicData", lam: Weight, n: int) -> Weight:
    """det V(lam) = n lam - n(n-1)/2 levi_root, n the string length of lam."""
    drop = n * (n - 1) // 2
    return tuple([n * x - drop * a for x, a in zip(lam, P.levi_root)])


def _net(P: "ParabolicData", pairs: Iterable[tuple[Weight, int]],
         terms: Iterable[tuple[Weight, int]]) -> RepSum:
    """Brauer–Klimyk: a weight multiset tensored with a sum of irreducibles,
    netted into a sum; a negative net multiplicity raises
    :class:`NotARepresentation`.

    Each weight mu of ``pairs`` (count c) and highest weight nu of ``terms``
    (multiplicity m, re-iterable) give lam = mu + nu and a = lam_i, i the
    Levi coordinate: a >= 0 gives +c·m V(lam); a = -1 gives nothing; a <= -2
    gives -c·m V(lam - (a + 1) levi_root), the sl2 reflection of lam + rho.
    On a torus every lam is kept.
    """
    net: dict[Weight, int] = {}
    i, alpha = P._levi_node, P.levi_root
    for mu, c in pairs:
        for nu, m in terms:
            lam = tuple(map(add, mu, nu))
            a = 0 if i is None else lam[i - 1]
            if a >= 0:
                net[lam] = net.get(lam, 0) + c * m
            elif a < -1:
                lam = tuple([x - (a + 1) * y for x, y in zip(lam, alpha)])
                net[lam] = net.get(lam, 0) - c * m
    return RepSum(P, net)


def decompose(P: "ParabolicData", multiset: Mapping[Weight, int] | Iterable) -> RepSum:
    """Invert :meth:`RepSum.weights` on a weight multiset: :func:`_net` of the
    multiset against the trivial term V(0).

    A result whose weights do not rebuild the input exactly raises
    :class:`NotARepresentation`: sl2 characters are linearly independent, so
    that rejects every multiset that is not a character.  The multiset may be
    an iterable of (weight, multiplicity) pairs, repeated weights adding up.
    """
    work = _collect(P, multiset)
    result = _net(P, work.items(), ((wzero(P.rs.rank), 1),))
    if result.weights() != work:
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


def _exterior_layers(P: "ParabolicData", weights: Iterable[Weight]) -> list[dict[Weight, int]]:
    """Weight multisets of Λ^k, k = 0..n, n the number of weights read: the k-element
    sub-multiset sums, equal sums merged, by the elementary-symmetric recurrence in one pass."""
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
    """Tensor product: :func:`_net` of the weights of ``a`` against the terms of
    ``b``; the rank is checked to be multiplicative and the determinant to be
    rank b · det a + rank a · det b."""
    _check_parabolic(P, a, b)
    result = _net(P, a.weights().items(), b.terms.items())
    if (result.rank != a.rank * b.rank
            or result.det != wadd(wscale(b.rank, a.det), wscale(a.rank, b.det))):
        raise AssertionError("tensor product has the wrong rank or determinant")
    return result


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
    layer = _exterior_layers(P, r.weights().elements())[k]
    if sum(layer.values()) != comb(n, k):
        raise AssertionError("exterior power has wrong cardinality")
    return decompose(P, layer)
