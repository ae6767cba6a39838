"""Per-candidate geometric invariants of the complete intersection X.

Hodge numbers come from the conormal sequence

    0 -> E*|_X -> Ω^1_F|_X -> Ω^1_X -> 0

whose outer terms are computed by the Koszul machinery, in any dimension
n = dim X.  Their pages vanish outside degrees 0..n, so the sequence is
solved on q = 0..n, and the vanishing of H^q(Ω^1_X) for q > n holds by
itself.  Where a page is only bounded, its exact Euler characteristic ties
the bounded degrees together, leaving few per-degree vectors A (conormal)
and B (cotangent).  Each pair is solved in closed form over the
connecting-map ranks, subject to

* exactness and left exactness at the first term,
* with trivial canonical bundle, Serre duality and Hodge symmetry:
  h^{1,0} = h^{0,1} and h^{1,n} = h^{n-1,0} = h^{0,n-1}.

An h^{1,q} is reported as determined only when every pair and every
consistent choice of ranks gives the same value; χ(Ω^1_X) is
differential-independent and always exact.  So is the Euler number of a
threefold: with K_X trivial, Serre duality gives χ(O_X) = 0 and
χ(Ω^2_X) = -χ(Ω^1_X), so χ_top = Σ_p (-1)^p χ(Ω^p_X) = -2 χ(Ω^1_X).  A
record's statuses follow from its values alone.

Degree H^3 and c_2·H come from exact Hilbert samples χ(O_X(i)) on every
parabolic, O_X(1) = L_H|_X as in :func:`~g2cy.koszul.hilbert_value`: by
Riemann–Roch with c_1 = 0 they lie on the two-term cubic
H^3/6 · i^3 + c_2·H/12 · i, fitted exactly and re-verified on every sample.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product, repeat
from operator import add, gt

from .errors import FitInconsistent, InconsistentLongExactSequence, RankTooLarge, WrongDeterminant
from .koszul import (DimRange, KoszulInput, RestrictedCohomology, _check_cut, hilbert_value,
                     restricted_cohomology)
from .parabolic import ParabolicData
from .reps import RepSum, dual
from .root_system import check_weight, weight_str


class Candidate(namedtuple("Candidate", "P summands rank dim_x det rep")):
    """A validated bundle: parabolic ``P`` plus dominant highest weights.

    ``summands`` holds the weights in canonical order (descending irreducible
    rank, then weight); ``rank`` and ``det`` are those of the bundle, ``dim_x``
    is dim G/P - rank, and ``rep`` is the bundle as the :class:`RepSum` that
    validation built.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.P.label}: {self.rep}"


def validate_candidate(P: ParabolicData, summands) -> Candidate:
    """Check the classification conditions and build a Candidate.

    Conditions, in order: each raw weight passes ``check_weight``, then the :class:`KoszulInput`
    guard :func:`~g2cy.koszul._check_cut`; total rank at most dim G/P - 2, read off the
    :class:`RepSum`, which builds no weight; determinant equal to the anticanonical weight.
    """
    weights = [check_weight(w, P.rs.rank) for w in summands]
    _check_cut(P, weights)
    rep = RepSum(P, zip(weights, repeat(1)))
    rank, det = rep.rank, rep.det
    if rank > P.dim - 2:
        raise RankTooLarge(f"rank {rank} exceeds dim G/P - 2 = {P.dim - 2}")
    if det != P.anticanonical:
        raise WrongDeterminant(
            f"det E = {weight_str(det)} differs from the anticanonical "
            f"{weight_str(P.anticanonical)}")
    ordered = tuple([w for w, m in rep.sorted_terms() for _ in range(m)])
    return Candidate(P, ordered, rank, P.dim - rank, det, rep)


class HodgeRecord(namedtuple("HodgeRecord", "h0q h1q chi_omega1")):
    """Hodge data of X: the h^{0,q} and h^{1,q} rows, q = 0..dim X.

    ``h0q`` and ``h1q`` are tuples of :class:`DimRange` indexed by q;
    ``chi_omega1`` is the exact χ(Ω¹_X).
    """

    __slots__ = ()


def _page_vectors(rc: RestrictedCohomology) -> list[tuple[int, ...]]:
    """Vectors over degrees 0..dim X inside ``rc``'s ranges with its exact Euler characteristic."""
    ranges = [range(r.lower, r.upper + 1) for r in rc.by_degree.values()]
    return [v for v in product(*ranges) if sum(v[0::2]) - sum(v[1::2]) == rc.euler]


def _les_ranges(A, B, pins: dict[int, int]) -> list[tuple[int, int]] | None:
    """Per-q (min, max) of C^q in 0 -> A^0 -> B^0 -> C^0 -> A^1 -> ..., q < Q = len(A).

    With r_q the rank of A^q -> B^q, C^q = B^q + A^{q+1} - r_q - r_{q+1},
    where r_q lies in [0, min(A^q, B^q)], r_0 = A^0 (left exactness) and
    r_Q = 0 past the end, where the pages vanish.  A pinned C^q (from
    ``pins``) fixes r_q + r_{q+1}, so the pins chain ranks along a path: one
    sweep down and one up narrow every r_q to its exact interval.  An unpinned
    C^q is the sum of two independent ranks.  None if no ranks fit.
    """
    Q = len(A)
    A = (*A, 0)
    lo, hi = [A[0]] + [0] * Q, [*map(min, A, B), 0]
    total = [*map(add, B, A[1:])]
    pinned = sorted(pins.items())
    for q, v in pinned:                 # down: the pins below r_{q+1}
        s = total[q] - v                # r_q + r_{q+1}
        if s - hi[q] > lo[q + 1]:
            lo[q + 1] = s - hi[q]
        if s - lo[q] < hi[q + 1]:
            hi[q + 1] = s - lo[q]
    for q, v in reversed(pinned):       # up: the pins above r_q
        s = total[q] - v
        if s - hi[q + 1] > lo[q]:
            lo[q] = s - hi[q + 1]
        if s - lo[q + 1] < hi[q]:
            hi[q] = s - lo[q + 1]
    if any(map(gt, lo, hi)):
        return None
    return [(pins[q],) * 2 if q in pins else (t - hi[q] - hi[q + 1], t - lo[q] - lo[q + 1])
            for q, t in enumerate(total)]


def hodge_numbers(c: Candidate) -> HodgeRecord:
    """Hodge numbers of X via the conormal sequence and Koszul pages.

    ``h0q`` comes from the structure sheaf and ``h1q`` from the long exact
    sequence on q = 0..dim X with its Serre/Hodge pins, as documented in the
    module docstring.  Undetermined entries keep their bounds; nothing is
    guessed.
    """
    P, E = c.P, c.rep
    # the pages of W = O, the conormal E* and Ω_F = (g/p)*
    rc0, rc_conormal, rc_cotangent = [
        restricted_cohomology(KoszulInput(P, E, W))
        for W in (P.trivial, dual(P, E), P.cotangent)]
    h0q = tuple(rc0.by_degree.values())
    # additivity of χ on 0 -> E*|_X -> Ω^1_F|_X -> Ω^1_X -> 0
    chi_omega1 = rc_cotangent.euler - rc_conormal.euler

    n = c.dim_x
    # h^{1,0} = h^{0,1} and h^{1,n} = h^{n-1,0} = h^{0,n-1}
    pins = {q: h.value for q, h in ((0, h0q[1]), (n, h0q[n - 1])) if h.determined}
    solved = [s for A, B in product(_page_vectors(rc_conormal), _page_vectors(rc_cotangent))
              if (s := _les_ranges(A, B, pins)) is not None]
    if not solved:
        raise InconsistentLongExactSequence(
            "no connecting-map ranks make the conormal long exact sequence "
            "consistent; invalid input")
    h1q = tuple([DimRange(min(lows), max(highs))    # over every solution, per q
                 for lows, highs in [zip(*column) for column in zip(*solved)]])
    return HodgeRecord(h0q, h1q, chi_omega1)


def degree_and_c2(c: Candidate) -> tuple[int, int, list[tuple[int, int]]]:
    """Degree H^3 and c_2·H of the threefold polarised by L_H from exact Hilbert samples.

    Samples χ(O_X(i)) for i = -4..4, solves the two-term cubic from i = 1, 2
    and verifies every sample in integers as 12 χ = 2 deg i^3 + c2H i
    (including χ(O_X) = 0 and the odd symmetry); any failure raises
    :class:`FitInconsistent`.
    """
    if c.dim_x != 3:
        raise FitInconsistent(f"dim X = {c.dim_x}; the two-term cubic needs a threefold")
    P, E = c.P, c.rep
    samples = [(i, hilbert_value(P, E, i)) for i in range(-4, 5)]
    chi = dict(samples)
    if chi[0] != 0:
        raise FitInconsistent(f"χ(O_X) = {chi[0]} must vanish for a threefold "
                              "with trivial canonical class")
    deg = chi[2] - 2 * chi[1]
    c2h = 12 * chi[1] - 2 * deg
    for i, value in samples:
        if 12 * value != 2 * deg * i ** 3 + c2h * i:
            raise FitInconsistent(
                f"sample χ(O_X({i})) = {value} is off the fitted cubic "
                f"({deg}/6 · i^3 + {c2h}/12 · i)")
    return deg, c2h, samples


def _status(value) -> str:
    """The status a record value shows: None, an int or ``{lower, upper}``."""
    if value is None:
        return "not_applicable"
    return "determined" if isinstance(value, int) else "bounded"


def to_record(c: Candidate) -> dict:
    """JSON-able invariant record for one candidate; on every threefold ``euler`` is
    -2 χ(Ω^1_X) and :func:`degree_and_c2` gives ``deg``, ``c2H`` and ``chi_samples``."""
    hr = hodge_numbers(c)
    three = c.dim_x == 3
    record: dict = {
        "parabolic": c.P.label,
        "summands": [*map(list, c.summands)],
        "rank": c.rank,
        "dim_X": c.dim_x,
        "det": list(c.det),
        "h0q": [*map(DimRange.to_json, hr.h0q)],
        "h1q": [*map(DimRange.to_json, hr.h1q)],
        "chi_omega1": hr.chi_omega1,
        "h11": hr.h1q[1].to_json() if three else None,
        "h12": hr.h1q[2].to_json() if three else None,
        "euler": -2 * hr.chi_omega1 if three else None,
        "deg": None,
        "c2H": None,
    }
    if three:
        record["deg"], record["c2H"], samples = degree_and_c2(c)
        record["chi_samples"] = [[i, v] for i, v in samples]
    record["statuses"] = {
        key: [*map(_status, v)] if isinstance(v := record[key], list) else _status(v)
        for key in ("h0q", "h1q", "h11", "h12", "euler", "deg", "c2H")}
    return record
