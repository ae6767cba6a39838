"""Per-candidate geometric invariants of the complete intersection X.

Hodge numbers come from the conormal sequence

    0 -> E*|_X -> Ω^1_F|_X -> Ω^1_X -> 0

whose outer terms are computed by the Koszul machinery.  The long exact
sequence is resolved by enumerating all connecting-map ranks consistent with

* exactness and left exactness at the first term,
* vanishing of coherent cohomology outside 0..dim X,
* on a threefold with trivial canonical bundle, Serre duality and Hodge
  symmetry: h^{1,0} = h^{0,1} and h^{1,3} = h^{2,0} = h^{0,2}.

A Hodge number is reported as determined only when every consistent choice
gives the same value; χ(Ω^1_X) is differential-independent and always exact.

Degree and c_2 are extracted from exact Hilbert samples χ(O_X(i)): for a
threefold with χ(O_X) = 0 and odd Serre symmetry these lie on the two-term
cubic  deg/6 · i^3 + c2/12 · i, which is fitted exactly and re-verified on
every sample.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .errors import (FitInconsistent, InconsistentLongExactSequence,
                     NotGloballyGenerated, RankTooLarge, TrivialSummand,
                     UndeterminedHodge, WrongDeterminant)
from .koszul import DimRange, KoszulInput, _hilbert_samples, restricted_cohomology
from .parabolic import ParabolicData, is_g_dominant
from .reps import RepSum, dual, irrep_det, irrep_dim, trivial
from .root_system import Weight, wadd, wzero, weight_str


class Candidate(namedtuple("Candidate", "P summands rank dim_x det")):
    """A validated bundle: parabolic ``P`` plus dominant highest weights.

    ``summands`` holds the weights in canonical order (descending irreducible
    rank, then weight); ``rank`` and ``det`` are those of the bundle, and
    ``dim_x`` is dim G/P - rank.
    """

    __slots__ = ()

    @property
    def rep(self) -> RepSum:
        terms: dict[Weight, int] = {}
        for w in self.summands:
            terms[w] = terms.get(w, 0) + 1
        return RepSum(self.P, terms)

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
    rank = sum(irrep_dim(P, w) for w in weights)
    if rank > P.dim - 2:
        raise RankTooLarge(f"rank {rank} exceeds dim G/P - 2 = {P.dim - 2}")
    det = zero
    for w in weights:
        det = wadd(det, irrep_det(P, w))
    if det != P.anticanonical:
        raise WrongDeterminant(
            f"det E = {weight_str(det)} differs from the anticanonical "
            f"{weight_str(P.anticanonical)}")
    ordered = tuple(sorted(weights, key=lambda w: (irrep_dim(P, w), w), reverse=True))
    return Candidate(P=P, summands=ordered, rank=rank, dim_x=P.dim - rank, det=det)


class HodgeRecord(namedtuple("HodgeRecord", "h0q h1q chi_omega1")):
    """Hodge data of X: the h^{0,q} row always, h^{1,q} on threefolds.

    ``h0q`` and ``h1q`` are tuples of :class:`DimRange` indexed by q, with
    ``h1q`` None unless X is a threefold; ``chi_omega1`` is the exact χ(Ω¹_X).
    """

    __slots__ = ()

    @property
    def h11(self) -> DimRange | None:
        return self.h1q[1] if self.h1q is not None else None

    @property
    def h12(self) -> DimRange | None:
        return self.h1q[2] if self.h1q is not None else None


def _les_c_values(A: list[int], B: list[int], fixed: dict[int, int],
                  dim_x: int) -> list[tuple[int, ...]]:
    """Dimensions of the C-terms in 0 -> A0 -> B0 -> C0 -> A1 -> ...

    Enumerates the ranks of the maps A^q -> B^q subject to left exactness
    (the first map is injective), non-negativity of every term, C^q = 0 for
    q > dim_x, and any values of C^q pinned by ``fixed``.
    """
    Q = len(A)
    if A[0] > B[0]:
        return []
    ranges = [range(min(A[q], B[q]) + 1) for q in range(Q)]
    ranges[0] = range(A[0], A[0] + 1)
    solutions = []
    for ranks in product(*ranges):
        c = [B[q] - ranks[q] + (A[q + 1] - ranks[q + 1] if q + 1 < Q else 0)
             for q in range(Q)]
        if any(x < 0 for x in c):
            continue
        if any(c[q] != 0 for q in range(dim_x + 1, Q)):
            continue
        if any(c[q] != v for q, v in fixed.items()):
            continue
        solutions.append(tuple(c[: dim_x + 1]))
    return solutions


def hodge_numbers(c: Candidate, enforce_vanishing: bool = True) -> HodgeRecord:
    """Hodge numbers of X via the conormal sequence and Koszul pages.

    ``h0q`` comes from the structure sheaf; on threefolds ``h1q`` is resolved
    from the long exact sequence as documented in the module docstring.
    Undetermined entries keep their bounds; nothing is guessed.
    """
    P, E = c.P, c.rep
    rc0 = restricted_cohomology(KoszulInput(P, E, trivial(P)), enforce_vanishing)
    h0q = rc0.hodge_vector()
    rc_conormal = restricted_cohomology(KoszulInput(P, E, dual(P, E)), enforce_vanishing)
    rc_cotangent = restricted_cohomology(KoszulInput(P, E, dual(P, P.tangent)),
                                         enforce_vanishing)
    # additivity of χ on 0 -> E*|_X -> Ω^1_F|_X -> Ω^1_X -> 0
    chi_omega1 = rc_cotangent.euler - rc_conormal.euler

    if c.dim_x != 3:
        return HodgeRecord(h0q=h0q, h1q=None, chi_omega1=chi_omega1)

    span = range(0, P.dim + 2)
    a_ranges = [rc_conormal.h(q) for q in span]
    b_ranges = [rc_cotangent.h(q) for q in span]
    if all(r.determined for r in a_ranges + b_ranges):
        A = [r.value for r in a_ranges]
        B = [r.value for r in b_ranges]
        fixed: dict[int, int] = {}
        if enforce_vanishing:
            if h0q[1].determined:
                fixed[0] = h0q[1].value    # h^{1,0} = h^{0,1}
            if h0q[2].determined:
                fixed[3] = h0q[2].value    # h^{1,3} = h^{2,0} = h^{0,2}
        sols = _les_c_values(A, B, fixed, c.dim_x)
        if not sols:
            raise InconsistentLongExactSequence(
                "no connecting-map ranks make the conormal long exact sequence "
                "consistent; invalid input")
        h1q = tuple(DimRange(min(s[q] for s in sols), max(s[q] for s in sols))
                    for q in range(c.dim_x + 1))
    else:
        # conservative: coker(f^q) + ker(f^{q+1}) bounded by B^q + A^{q+1}
        h1q = tuple(DimRange(0, b_ranges[q].upper + a_ranges[q + 1].upper)
                    for q in range(c.dim_x + 1))
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
    twists = range(-4, 5)
    samples = list(zip(twists, _hilbert_samples(c.P, c.rep, twists)))
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


def euler_number(c: Candidate) -> int:
    """Topological Euler number 2(h^{1,1} - h^{1,2}) of a threefold."""
    hr = hodge_numbers(c)
    if hr.h1q is None:
        raise UndeterminedHodge(f"Euler number needs a threefold, got dim X = {c.dim_x}")
    if not (hr.h11.determined and hr.h12.determined):
        raise UndeterminedHodge("h^{1,1} or h^{1,2} is not determined")
    return 2 * (hr.h11.value - hr.h12.value)


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
    record["h0q"] = [r.to_json() for r in hr.h0q]
    statuses["h0q"] = ["determined" if r.determined else "bounded" for r in hr.h0q]
    record["chi_omega1"] = hr.chi_omega1
    if hr.h1q is not None:
        record["h11"] = hr.h11.to_json()
        record["h12"] = hr.h12.to_json()
        statuses["h11"] = "determined" if hr.h11.determined else "bounded"
        statuses["h12"] = "determined" if hr.h12.determined else "bounded"
        if hr.h11.determined and hr.h12.determined:
            record["euler"] = 2 * (hr.h11.value - hr.h12.value)
            statuses["euler"] = "determined"
        else:
            record["euler"] = None
            statuses["euler"] = "undetermined"
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
