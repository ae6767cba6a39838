"""Known answers from outside G2: every G/P of A2, B2 and C2 and the full flag
varieties of A3, B3 and C3.

Each space is built from a Cartan matrix written here, with entry (i, j) equal
to <alpha_i, alpha_j^vee> as in :class:`~g2cy.root_system.CartanMatrix`.  Every
Levi has semisimple rank at most one, so these spaces run through the same
enumeration and records as the G2 rows, and their Levi roots are not G2's.
The checks need no table: a Calabi–Yau has h^{0,q} = (1, 0, ..., 0, 1), a K3
has h^{1,1} = 20, Lefschetz pins the h^{1,q} of a space cut by ample line
bundles below the middle degree, and B2 and C2 are one root system with the
nodes swapped.
"""

from functools import lru_cache

import pytest

from g2cy import (CartanMatrix, ParabolicData, build_root_system, enumerate_candidates,
                  to_record, validate_candidate)


def a_series(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


# name, Cartan matrix, crossed node sets, number of long positive roots
SPACES = {
    "A2": (a_series(2), [(1,), (2,), (1, 2)], 3),
    "B2": ([[2, -2], [-1, 2]], [(1,), (2,), (1, 2)], 2),       # node 1 long
    "C2": ([[2, -1], [-2, 2]], [(1,), (2,), (1, 2)], 2),       # node 2 long
    "A3": (a_series(3), [(1, 2, 3)], 6),
    "B3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], [(1, 2, 3)], 6),   # node 3 short
    "C3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [(1, 2, 3)], 3),   # node 3 long
}
ROW_COUNTS = {"A2": 1, "B2": 7, "C2": 7, "A3": 59, "B3": 66, "C3": 66}


@lru_cache(maxsize=None)
def parabolics(name):
    cartan, crossed_sets, _ = SPACES[name]
    rs = build_root_system(CartanMatrix(cartan))
    return [ParabolicData(rs, crossed) for crossed in crossed_sets]


@lru_cache(maxsize=None)
def rows(name):
    """(parabolic, summands, record) for every candidate of every fibre dimension."""
    return [(P, row.summands, to_record(validate_candidate(P, row.summands)))
            for P in parabolics(name) for dim_x in range(2, P.dim)
            for row in enumerate_candidates(P, dim_x)]


def every_row():
    return [row for name in SPACES for row in rows(name)]


@pytest.mark.parametrize("name", list(SPACES))
def test_cartan_matrices_name_their_root_systems(name):
    # the long positive roots tell B from C
    rs = parabolics(name)[0].rs
    assert sum(root.long for root in rs.positive_roots) == SPACES[name][2]


@pytest.mark.parametrize("name", list(SPACES))
def test_row_counts(name):
    assert len(rows(name)) == ROW_COUNTS[name]


def test_every_row_is_calabi_yau():
    records = [rec for _, _, rec in every_row()]
    assert len(records) == 206
    for rec in records:
        assert rec["h0q"] == [1] + [0] * (rec["dim_X"] - 1) + [1]


def test_every_k3_has_h11_20():
    k3s = [rec for _, _, rec in every_row() if rec["dim_X"] == 2]
    assert len(k3s) == 32
    assert all(rec["h1q"] == [0, 20, 0] for rec in k3s)


def test_threefold_euler_is_minus_twice_chi_omega1():
    # χ(O_X) = 0 and χ(Ω^2_X) = -χ(Ω^1_X) by Serre duality, so χ_top = -2 χ(Ω^1_X)
    threefolds = [rec for _, _, rec in every_row() if rec["dim_X"] == 3]
    both = 0
    for rec in threefolds:
        assert rec["euler"] == -2 * rec["chi_omega1"]
        assert rec["statuses"]["euler"] == "determined"
        if rec["statuses"]["h11"] == rec["statuses"]["h12"] == "determined":
            both += 1
            assert rec["euler"] == 2 * (rec["h11"] - rec["h12"])
    assert len(threefolds) > both > 0


def test_every_threefold_has_degree_and_c2():
    # O_X(1) is L_H, H the sum of the crossed fundamental weights, on every
    # parabolic: H is ample, so H^3 > 0, and c_2·H >= 0 (Miyaoka)
    threefolds = [rec for _, _, rec in every_row() if rec["dim_X"] == 3]
    assert len(threefolds) == 30
    for rec in threefolds:
        assert rec["statuses"]["deg"] == rec["statuses"]["c2H"] == "determined"
        assert rec["deg"] > 0 and rec["c2H"] >= 0
        assert [i for i, _ in rec["chi_samples"]] == list(range(-4, 5))


def test_lefschetz_on_ample_line_bundle_cuts():
    # H^{1,q}(X) = H^{1,q}(G/P) for 1 + q < dim X: the Picard rank at q = 1, else 0
    pinned = 0
    for P, summands, rec in every_row():
        crossed = [i - 1 for i in P.crossed]
        if not all(P.string_length(w) == 1 and min(w[i] for i in crossed) > 0
                   for w in summands):
            continue
        pinned += 1
        below = rec["dim_X"] - 1
        assert rec["h1q"][:below] == [len(crossed) if q == 1 else 0 for q in range(below)]
    assert pinned == 15


def test_b2_and_c2_agree_under_the_node_swap():
    swap = {"P1": "P2", "P2": "P1", "B": "B"}

    c2 = {(P.label, tuple(sorted(summands))): rec for P, summands, rec in rows("C2")}
    for P, summands, rec in rows("B2"):
        swapped = c2.pop((swap[P.label], tuple(sorted(w[::-1] for w in summands))))
        assert swapped["det"] == rec["det"][::-1]
        same = {k: v for k, v in rec.items() if k not in ("parabolic", "summands", "det")}
        assert {k: swapped[k] for k in same} == same
    assert not c2
