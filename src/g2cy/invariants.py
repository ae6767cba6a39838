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
differential-independent and always exact.

Degree and c_2 are extracted from exact Hilbert samples χ(O_X(i)): for a
threefold with χ(O_X) = 0 and odd Serre symmetry these lie on the two-term
cubic  deg/6 · i^3 + c2/12 · i, which is fitted exactly and re-verified on
every sample.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import product

from .errors import (FitInconsistent, InconsistentLongExactSequence,
                     NotGloballyGenerated, RankTooLarge, TrivialSummand,
                     WrongDeterminant)
from .koszul import (DimRange, KoszulInput, RestrictedCohomology, hilbert_value,
                     restricted_cohomology)
from .parabolic import ParabolicData, is_g_dominant
from .reps import RepSum, dual, trivial
from .root_system import wzero, weight_str


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

    Conditions: every summand nonzero (no trivial factor) and dominant
    (global generation), total rank at most dim G/P - 2, and determinant
    equal to the anticanonical weight of G/P.
    """
    weights = [tuple(w) for w in summands]
    zero = wzero(P.rs.rank)
    for w in weights:
        if w == zero:
            raise TrivialSummand("the trivial line bundle is excluded as a summand")
        if not is_g_dominant(w):
            raise NotGloballyGenerated(
                f"summand {weight_str(w)} is not dominant, so E is not globally generated")
    rep = RepSum(P, Counter(weights))
    rank = rep.rank
    if rank > P.dim - 2:
        raise RankTooLarge(f"rank {rank} exceeds dim G/P - 2 = {P.dim - 2}")
    det = rep.det
    if det != P.anticanonical:
        raise WrongDeterminant(
            f"det E = {weight_str(det)} differs from the anticanonical "
            f"{weight_str(P.anticanonical)}")
    ordered = tuple(w for w, m in rep.sorted_terms() for _ in range(m))
    return Candidate(P=P, summands=ordered, rank=rank, dim_x=P.dim - rank, det=det, rep=rep)


class HodgeRecord(namedtuple("HodgeRecord", "h0q h1q chi_omega1")):
    """Hodge data of X: the h^{0,q} and h^{1,q} rows, q = 0..dim X.

    ``h0q`` and ``h1q`` are tuples of :class:`DimRange` indexed by q;
    ``chi_omega1`` is the exact χ(Ω¹_X).
    """

    __slots__ = ()

    @property
    def h11(self) -> DimRange:
        return self.h1q[1]

    @property
    def h12(self) -> DimRange:
        return self.h1q[2]


def _page_vectors(rc: RestrictedCohomology) -> list[tuple[int, ...]]:
    """Vectors over degrees 0..dim X inside ``rc``'s ranges with its exact Euler characteristic."""
    return [v for v in product(*(range(r.lower, r.upper + 1) for r in rc.by_degree.values()))
            if sum(v[0::2]) - sum(v[1::2]) == rc.euler]


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
    A = [*A, 0]
    lo, hi = [A[0]] + [0] * Q, [min(a, b) for a, b in zip(A, B)] + [0]
    total = [B[q] + A[q + 1] for q in range(Q)]
    fixed = {q: total[q] - v for q, v in pins.items()}    # r_q + r_{q+1}
    for q, s in sorted(fixed.items()):                 # down: the pins below r_{q+1}
        lo[q + 1], hi[q + 1] = max(lo[q + 1], s - hi[q]), min(hi[q + 1], s - lo[q])
    for q, s in sorted(fixed.items(), reverse=True):   # up: the pins above r_q
        lo[q], hi[q] = max(lo[q], s - hi[q + 1]), min(hi[q], s - lo[q + 1])
    if any(l > h for l, h in zip(lo, hi)):
        return None
    return [(total[q] - fixed[q],) * 2 if q in fixed else
            (total[q] - hi[q] - hi[q + 1], total[q] - lo[q] - lo[q + 1])
            for q in range(Q)]


def hodge_numbers(c: Candidate) -> HodgeRecord:
    """Hodge numbers of X via the conormal sequence and Koszul pages.

    ``h0q`` comes from the structure sheaf and ``h1q`` from the long exact
    sequence on q = 0..dim X with its Serre/Hodge pins, as documented in the
    module docstring.  Undetermined entries keep their bounds; nothing is
    guessed.
    """
    P, E = c.P, c.rep
    # the pages of W = O, the conormal E* and Ω_F = (g/p)*
    rc0, rc_conormal, rc_cotangent = (
        restricted_cohomology(KoszulInput(P, E, W))
        for W in (trivial(P), dual(P, E), dual(P, P.tangent)))
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
    h1q = tuple(DimRange(min(s[q][0] for s in solved), max(s[q][1] for s in solved))
                for q in range(n + 1))
    return HodgeRecord(h0q=h0q, h1q=h1q, chi_omega1=chi_omega1)


def degree_and_c2(c: Candidate) -> tuple[int, int, list[tuple[int, int]]]:
    """Degree and c_2·H of the polarised threefold from exact Hilbert samples.

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


def _status(r: DimRange) -> str:
    return "determined" if r.determined else "bounded"


def to_record(c: Candidate) -> dict:
    """JSON-able invariant record for one candidate."""
    record: dict = {
        "parabolic": c.P.label,
        "summands": [list(w) for w in c.summands],
        "rank": c.rank,
        "dim_X": c.dim_x,
        "det": list(c.det),
    }
    statuses: dict = {}
    hr = hodge_numbers(c)
    for key, row in (("h0q", hr.h0q), ("h1q", hr.h1q)):
        record[key] = [r.to_json() for r in row]
        statuses[key] = [_status(r) for r in row]
    record["chi_omega1"] = hr.chi_omega1
    if c.dim_x == 3:
        h11, h12 = hr.h11, hr.h12
        record["h11"], record["h12"] = h11.to_json(), h12.to_json()
        statuses["h11"], statuses["h12"] = _status(h11), _status(h12)
        exact = h11.determined and h12.determined
        record["euler"] = 2 * (h11.value - h12.value) if exact else None
        statuses["euler"] = "determined" if exact else "undetermined"
    else:
        record["h11"] = record["h12"] = record["euler"] = None
        statuses["h11"] = statuses["h12"] = statuses["euler"] = "not_applicable"
    if c.dim_x == 3 and len(c.P.crossed) == 1:
        deg, c2h, samples = degree_and_c2(c)
        record["deg"] = deg
        record["c2H"] = c2h
        record["chi_samples"] = [[i, v] for i, v in samples]
        statuses["deg"] = statuses["c2H"] = "determined"
    else:
        record["deg"] = record["c2H"] = None
        statuses["deg"] = statuses["c2H"] = "not_applicable"
    record["statuses"] = statuses
    return record
