import pytest
from hypothesis import settings, strategies as st

from g2cy import (KoszulInput, RepSum, TableRow, dual, enumerate_all, g2_parabolic,
                  g2_root_system, irrep, trivial, validate_candidate)

# fixed example sequence and no per-example time limit, so runs are repeatable
settings.register_profile("g2cy", derandomize=True, deadline=None, database=None)
settings.load_profile("g2cy")


@pytest.fixture(scope="session")
def rs():
    return g2_root_system()


@pytest.fixture(scope="session")
def P1():
    return g2_parabolic("P1")


@pytest.fixture(scope="session")
def P2():
    return g2_parabolic("P2")


@pytest.fixture(scope="session")
def B():
    return g2_parabolic("B")


@pytest.fixture(scope="session")
def parabolics(P1, P2, B):
    return (P1, P2, B)


def p_dominant_box(P, bound=6):
    """All p-dominant weights with coordinates in [-bound, bound]."""
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if P.is_p_dominant((a, b)):
                out.append((a, b))
    return out


def p_dominant_weights(P, bound):
    """Strategy: p-dominant weights of P with coordinates in [-bound, bound]."""
    return st.tuples(*(st.integers(0 if node in P.uncrossed else -bound, bound)
                       for node in range(1, P.rs.rank + 1)))


def rep_sums(count=1, bound=3, max_summands=4, max_mult=3):
    """Strategy: a G2 parabolic P and ``count`` random RepSums over it.

    Each sum has 1..max_summands distinct p-dominant irreducibles with
    coordinates in [-bound, bound], each with multiplicity 1..max_mult.
    """
    def over(name):
        P = g2_parabolic(name)
        terms = st.dictionaries(p_dominant_weights(P, bound), st.integers(1, max_mult),
                                min_size=1, max_size=max_summands)
        return st.tuples(st.just(P), *[terms.map(lambda t: RepSum(P, t))] * count)

    return st.sampled_from(("P1", "P2", "B")).flatmap(over)


def koszul_sweep_inputs(records_only=False):
    """Koszul inputs for every classified row (dims 2-5) and coefficient W.

    W runs over O, E* and Ω_F, the bundles the invariant records use, then,
    unless ``records_only``, every p-dominant irreducible with coordinates in
    [-2, 2].
    """
    inputs = []
    for dim in (2, 3, 4, 5):
        for row in enumerate_all(dim):
            P = g2_parabolic(row.parabolic)
            e = validate_candidate(P, row.summands).rep
            coefficients = [trivial(P), dual(P, e), dual(P, P.tangent)]
            if not records_only:
                coefficients += [irrep(P, lam) for lam in p_dominant_box(P, 2)]
            inputs += [KoszulInput(P, e, w) for w in coefficients]
    return inputs


def oracle_dim_det(name, w):
    """Closed-form rank and determinant, independent of the reps machinery."""
    a, b = w
    if name == "P1":
        return b + 1, (a * (b + 1) + b * (b + 1) // 2, 0)
    if name == "P2":
        return a + 1, (0, (a + 1) * b + 3 * a * (a + 1) // 2)
    return 1, (a, b)


def oracle_enumerate(name, dim_x):
    """Naive bounded multiset enumeration over dominant weights <= (5,5).

    Scans multisets of up to six summands; partial sums only ever grow, so a
    branch whose determinant already exceeds the target is dead.
    """
    P = g2_parabolic(name)
    target_rank = P.dim - dim_x
    target_det = P.anticanonical
    pool = [(a, b) for a in range(6) for b in range(6) if (a, b) != (0, 0)]
    found = set()

    def extend(start, acc, rank, det):
        if rank == target_rank and det == target_det:
            found.add(tuple(sorted(acc)))
        if len(acc) == 6 or rank >= target_rank:
            return
        for idx in range(start, len(pool)):
            w = pool[idx]
            d, dt = oracle_dim_det(name, w)
            ndet = tuple(x + y for x, y in zip(det, dt))
            if rank + d > target_rank or any(x > y for x, y in zip(ndet, target_det)):
                continue
            acc.append(w)
            extend(idx, acc, rank + d, ndet)
            acc.pop()

    extend(0, [], 0, (0, 0))
    return found


def oracle_canonical_row(P, weights):
    """The row of dominant weights in canonical order, descending (irreducible
    rank, weight) as :meth:`RepSum.sorted_terms` sorts terms, with ranks read
    off :func:`irrep`; split if the first summand has rank 1."""
    ordered = sorted(((irrep(P, w).rank, tuple(w)) for w in weights), reverse=True)
    return TableRow(P.label, tuple(w for _, w in ordered), ordered[0][0] == 1)
