"""Finite root systems from Cartan matrices, with exact integer arithmetic.

Weights are integer tuples in the basis of fundamental weights, so coordinate
i of a weight ``lam`` equals the pairing ``<lam, alpha_i^vee>`` with the i-th
simple coroot.  Simple roots are then the rows of the Cartan matrix read in
these coordinates.  Coroot expansions are carried through the reflection
closure using the symmetrizer, which keeps every pairing an exact integer;
Python integers never overflow, so no checked arithmetic is needed.

Node indices are 1-based throughout the public interface, matching the usual
Dynkin-diagram numbering.

The weight helpers (``wadd``, ``wsub``, ...) and the Weyl kernels
(``reflect``, ``dominant_conjugate``) take integer tuples of length ``rank``
and build one tuple per call or step.  :func:`check_weight` checks weights
where they enter the package (``RepSum``, ``weyl_dim``, ``bwb_irrep``), and
``wadd`` and ``wsub`` raise ``ValueError`` on operands of unequal length.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

from .errors import InvalidCartan, NonFiniteType, OutOfRange

Weight = tuple[int, ...]

#: Largest Weyl group that :meth:`RootSystem.weyl_elements` enumerates.
_WEYL_WALK_LIMIT = 1_000_000


def wadd(u: Weight, v: Weight) -> Weight:
    if len(u) != len(v):
        raise ValueError(f"weights of lengths {len(u)} and {len(v)} cannot be added")
    return tuple(map(add, u, v))


def wsub(u: Weight, v: Weight) -> Weight:
    if len(u) != len(v):
        raise ValueError(f"weights of lengths {len(u)} and {len(v)} cannot be subtracted")
    return tuple(map(sub, u, v))


def wneg(u: Weight) -> Weight:
    return tuple(-a for a in u)


def wscale(c: int, u: Weight) -> Weight:
    return tuple(c * a for a in u)


def wzero(rank: int) -> Weight:
    return (0,) * rank


def weight_str(u: Weight) -> str:
    return "(" + ",".join(str(a) for a in u) + ")"


def check_weight(lam, rank: int) -> Weight:
    """``lam`` as a tuple, which must have ``rank`` coordinates of type exactly
    ``int`` or raise ``ValueError``: ``1.0 == True == 1`` hash alike too."""
    lam = tuple(lam)
    if len(lam) != rank:
        raise ValueError(f"weight {weight_str(lam)} does not have length {rank}")
    for c in lam:
        if type(c) is not int:
            raise ValueError(f"weight coordinate {c!r} is not an integer")
    return lam


class CartanMatrix(namedtuple("CartanMatrix", "entries")):
    """Integer Cartan matrix; entry (i, j) is ``<alpha_i, alpha_j^vee>``.

    ``entries`` is the tuple of rows.  Construction checks that the matrix is
    square and non-empty, with entries of type exactly ``int``, 2 on the
    diagonal, no positive entry off it and a symmetric zero pattern.
    """

    __slots__ = ()

    def __new__(cls, entries):
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise InvalidCartan("Cartan matrix must be square and non-empty")
        for i, row in enumerate(entries):
            for j, c in enumerate(row):
                if type(c) is not int:
                    raise InvalidCartan("Cartan entries must be integers")
                if i == j and c != 2:
                    raise InvalidCartan("diagonal Cartan entries must equal 2")
                if i != j and c > 0:
                    raise InvalidCartan("off-diagonal Cartan entries must be <= 0")
                if i != j and (c == 0) != (entries[j][i] == 0):
                    raise InvalidCartan("zero pattern must be symmetric")
        return super().__new__(cls, entries)

    @classmethod
    def from_rows(cls, rows) -> "CartanMatrix":
        return cls(tuple(map(tuple, rows)))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> Weight:
        """Simple root alpha_i in fundamental-weight coordinates (i is 1-based)."""
        return self.entries[i - 1]


#: The G2 Cartan matrix; node 1 carries the long simple root, so the
#: triple edge reads <alpha_1, alpha_2^vee> = -3, <alpha_2, alpha_1^vee> = -1.
G2_CARTAN = CartanMatrix.from_rows([[2, -3], [-1, 2]])


class Root(namedtuple("Root", "weight simple_coords coroot_coords long")):
    """A root, stored in every coordinate system the package needs.

    ``weight`` is the root in fundamental-weight coordinates, ``simple_coords``
    its expansion over the simple roots, and ``coroot_coords`` the expansion of
    the coroot ``2*alpha/(alpha,alpha)`` over simple coroots; ``long`` marks
    roots of maximal length.
    """

    __slots__ = ()

    @property
    def height(self) -> int:
        return sum(self.simple_coords)


class WeylElement(namedtuple("WeylElement", "word")):
    """A Weyl group element as ``word``, a reduced word of simple reflection indices."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.word)


def _symmetrizer(cartan: CartanMatrix) -> tuple[int, ...]:
    """Positive integers d with C[i][j]*d[j] symmetric, normalised coprime.

    Each d[i] is carried as an exact ratio (numerator, denominator), reduced
    by gcd, along a spanning forest of the Dynkin diagram; the final check
    covers every edge, so an edge closing an inconsistent cycle is rejected.
    """
    n = cartan.rank
    C = cartan.entries
    vals: list[tuple[int, int] | None] = [None] * n
    for start in range(n):
        if vals[start] is not None:
            continue
        vals[start] = (1, 1)
        stack = [start]
        while stack:
            i = stack.pop()
            num, den = vals[i]
            for j in range(n):
                if i == j or C[i][j] == 0 or vals[j] is not None:
                    continue
                # C[i][j]*d[j] = C[j][i]*d[i] fixes the ratio along each edge;
                # both entries are negative.
                num_j, den_j = num * -C[j][i], den * -C[i][j]
                g = gcd(num_j, den_j)
                vals[j] = (num_j // g, den_j // g)
                stack.append(j)
    denom = lcm(*(den for _, den in vals))
    ints = [num * (denom // den) for num, den in vals]
    g = gcd(*ints)
    d = tuple(x // g for x in ints)
    for i in range(n):
        for j in range(n):
            if C[i][j] * d[j] != C[j][i] * d[i]:
                raise InvalidCartan("Cartan matrix is not symmetrizable")
    return d


class RootSystem:
    """A finite root system with its Weyl combinatorics.

    Immutable after construction: no method caches or changes state, and all
    operations are pure functions of their arguments, so instances can be
    shared freely across threads.
    """

    def __init__(self, cartan: CartanMatrix, symmetrizer: tuple[int, ...],
                 positive_roots: tuple[Root, ...]):
        self.cartan = cartan
        self.symmetrizer = symmetrizer
        self.positive_roots = positive_roots
        self.rank = cartan.rank          # a plain attribute: weight checks read it per call
        self.weyl_vector: Weight = (1,) * cartan.rank
        self._simple = {i: next(r for r in positive_roots
                                if r.simple_coords == tuple(int(k == i - 1)
                                                            for k in range(cartan.rank)))
                        for i in range(1, cartan.rank + 1)}

    def __eq__(self, other) -> bool:
        return isinstance(other, RootSystem) and self.cartan == other.cartan

    def __hash__(self) -> int:
        return hash(self.cartan)

    def __repr__(self) -> str:
        return f"RootSystem(rank={self.rank}, positive_roots={len(self.positive_roots)})"

    def simple_root(self, i: int) -> Root:
        return self._simple[i]

    def reflect(self, i: int, lam: Weight) -> Weight:
        """Simple reflection s_i(lam) = lam - <lam, alpha_i^vee> alpha_i."""
        c = lam[i - 1]
        if c == 0:
            return lam
        return tuple([x - c * a for x, a in zip(lam, self.cartan.entries[i - 1])])

    def act(self, word: tuple[int, ...], lam: Weight) -> Weight:
        """Apply a word of simple reflections, rightmost letter first."""
        for i in reversed(word):
            lam = self.reflect(i, lam)
        return lam

    def pairing(self, lam: Weight, alpha: Root) -> int:
        """Exact integer pairing ``<lam, alpha^vee>``."""
        return sum(c * x for c, x in zip(alpha.coroot_coords, lam, strict=True))

    def dominant_conjugate(self, mu: Weight) -> tuple[int, Weight] | None:
        """Bring mu into the dominant chamber by simple reflections.

        Returns ``None`` when mu is singular (its orbit meets a wall),
        otherwise ``(length, dom)`` where ``dom`` is the unique strictly
        dominant conjugate and ``length`` the length of the unique Weyl
        element achieving it.  Each step reflects at the first negative
        coordinate, which strictly shrinks the set of positive roots pairing
        negatively, so at most ``len(positive_roots)`` steps occur.
        """
        rows = self.cartan.entries
        cur = mu
        length = 0
        limit = len(self.positive_roots)
        while True:
            for i, c in enumerate(cur):
                if c < 0:
                    break
            else:
                break
            if length >= limit:
                raise AssertionError("dominant_conjugate failed to terminate")
            # s_i(cur) = cur - c * alpha_i, alpha_i being row i of the Cartan matrix
            cur = tuple([x - c * a for x, a in zip(cur, rows[i])])
            length += 1
        if 0 in cur:
            return None
        return length, cur

    def weyl_elements(self) -> tuple[WeylElement, ...]:
        """The whole Weyl group as reduced words, ordered by (length, word).

        w -> w(rho) is a bijection from W onto the orbit of rho, and s_i w is
        longer than w exactly when w(rho) has a positive i-th coordinate.  So
        a breadth-first walk over that orbit, one weight per element, reaches
        each element first along a reduced word ``(i,) + word``.  A group of
        more than a million elements is refused with :class:`OutOfRange`
        before any walk, from its exact :meth:`weyl_order`.
        """
        order = self.weyl_order()
        if order > _WEYL_WALK_LIMIT:
            raise OutOfRange(f"the Weyl group has {order} elements; at most "
                             f"{_WEYL_WALK_LIMIT} are enumerated")
        words: dict[Weight, tuple[int, ...]] = {self.weyl_vector: ()}
        frontier = [self.weyl_vector]
        while frontier:
            nxt = []
            for mu in frontier:
                for i, c in enumerate(mu, 1):
                    if c > 0 and (nu := self.reflect(i, mu)) not in words:
                        words[nu] = (i,) + words[mu]
                        nxt.append(nu)
            frontier = nxt
        return tuple(WeylElement(w) for w in sorted(words.values(), key=lambda w: (len(w), w)))

    def weyl_order(self) -> int:
        """|W| = Π (ht a + 1) / Π ht a over the positive roots a, exactly."""
        num = den = 1
        for alpha in self.positive_roots:
            num *= alpha.height + 1
            den *= alpha.height
        if num % den:
            raise AssertionError("Weyl group order is not integral")
        return num // den


def _positive_definite(form: list[list[int]]) -> bool:
    """Sylvester's criterion: every leading principal minor is positive.

    Fraction-free (Bareiss) elimination without pivoting leaves the k-th
    leading minor on the k-th diagonal entry, each an exact integer.
    """
    m = [row[:] for row in form]
    n, prev = len(m), 1
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return True


def build_root_system(cartan: CartanMatrix) -> RootSystem:
    """Close the simple roots under reflection and assemble the root system.

    Raises :class:`NonFiniteType` unless the symmetrised form is positive
    definite, which is how non-finite Cartan matrices (affine or indefinite)
    are rejected before any closure runs.
    """
    d = _symmetrizer(cartan)
    n = cartan.rank
    C = cartan.entries

    # (alpha_i, alpha_j) in the normalisation where short roots have norm 2.
    bilinear = [[C[i][j] * d[j] for j in range(n)] for i in range(n)]
    if not _positive_definite(bilinear):
        raise NonFiniteType("Cartan matrix is not of finite type: its symmetrised "
                            "form is not positive definite")

    def unit(i: int) -> tuple[int, ...]:
        return tuple(int(k == i) for k in range(n))

    known: dict[tuple[int, ...], Weight] = {unit(i): cartan.row(i + 1) for i in range(n)}
    frontier = list(known)
    while frontier:
        nxt = []
        for sc in frontier:
            w = known[sc]
            for i in range(n):
                c = w[i]
                if c == 0:
                    continue
                nsc = tuple(sc[k] - (c if k == i else 0) for k in range(n))
                if any(x < 0 for x in nsc):
                    continue  # reflection left the positive cone
                if nsc not in known:
                    # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i
                    known[nsc] = tuple([x - c * a for x, a in zip(w, C[i])])
                    nxt.append(nsc)
        frontier = nxt

    roots = []
    norms = {}
    for sc, w in known.items():
        q = sum(sc[i] * sc[j] * bilinear[i][j] for i in range(n) for j in range(n))
        if q <= 0 or q % 2:
            raise InvalidCartan("root closure produced a vector of invalid norm")
        norms[sc] = q // 2
    max_norm = max(norms.values())
    for sc, w in known.items():
        nh = norms[sc]
        cv = []
        for i in range(n):
            num = sc[i] * d[i]
            if num % nh:
                raise InvalidCartan("coroot expansion is not integral")
            cv.append(num // nh)
        roots.append(Root(weight=w, simple_coords=sc, coroot_coords=tuple(cv),
                          long=(nh == max_norm)))
    roots.sort(key=lambda r: (r.height, r.simple_coords))

    rs = RootSystem(cartan, d, tuple(roots))
    two_rho = tuple(sum(r.weight[j] for r in roots) for j in range(n))
    if two_rho != wscale(2, rs.weyl_vector):
        raise AssertionError("half-sum of positive roots is not the Weyl vector")
    return rs


@lru_cache(maxsize=None)
def g2_root_system() -> RootSystem:
    """The shipped G2 instance: 6 positive roots, Weyl group of order 12."""
    return build_root_system(G2_CARTAN)
