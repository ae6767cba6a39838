"""Candidate enumeration, theorem verification, reference-table diffs."""

from itertools import product
from operator import sub

import pytest

from g2cy import (CartanMatrix, ParabolicData, build_root_system, diff_against_paper,
                  enumerate_all, enumerate_candidates, g2_parabolic, published_invariants,
                  reference_tables, validate_candidate, verify_theorem)
from g2cy import classify
from g2cy.classify import TableRow
from g2cy.errors import MissingPaperRow, OutOfRange, TheoremViolated
from g2cy.reps import irrep

from conftest import oracle_canonical_row, oracle_enumerate
from test_outside_corpus import SPACES, a_series, parabolics
from test_product_spaces import ROWS, ambient


#: G2's parabolics, those outside the corpus and the products of projective spaces
POOL_SPACES = {name: g2_parabolic(name) for name in ("P1", "P2", "B")}
POOL_SPACES |= {f"{name}/{P.label}": P for name in SPACES for P in parabolics(name)}
POOL_SPACES |= {"x".join(f"P{m}" for m in factors): ambient(factors)
                for factors in sorted({row[1] for row in ROWS})}

#: A1 x A3 with the three A3 nodes crossed: (1,0,0,0), (2,0,0,0) and (3,0,0,0)
#: are summands with determinant 0, so a summand can take nothing from it
P234 = ParabolicData(build_root_system(CartanMatrix(
    [[2, 0, 0, 0]] + [[0, *row] for row in a_series(3)])), (2, 3, 4))


def summand_sets(rows):
    return {(row.parabolic, tuple(sorted(row.summands))) for row in rows}


class TestEnumerate:
    def test_p1_threefolds(self, P1):
        rows = enumerate_candidates(P1, 3)
        assert summand_sets(rows) == {("P1", ((1, 1),)),
                                      ("P1", ((1, 0), (2, 0)))}

    def test_borel_fivefold(self, B):
        rows = enumerate_candidates(B, 5)
        assert summand_sets(rows) == {("B", ((2, 2),))}

    def test_p2_surfaces(self, P2):
        rows = enumerate_candidates(P2, 2)
        assert summand_sets(rows) == {
            ("P2", ((0, 2), (1, 0))),
            ("P2", ((0, 1), (0, 1), (0, 3))),
            ("P2", ((0, 1), (0, 2), (0, 2))),
        }

    def test_row_counts_per_dimension(self):
        assert [len(enumerate_all(d)) for d in (5, 4, 3, 2)] == [1, 6, 8, 7]

    def test_every_row_validates(self):
        for dim in (2, 3, 4, 5):
            for row in enumerate_all(dim):
                c = validate_candidate(g2_parabolic(row.parabolic), row.summands)
                assert c.dim_x == dim

    def test_split_flag(self):
        for dim in (2, 3, 4, 5):
            for row in enumerate_all(dim):
                P = g2_parabolic(row.parabolic)
                assert row.split == all(irrep(P, w).rank == 1 for w in row.summands)

    def test_summand_order_is_the_repsum_order(self):
        # found rows come in the pool's order, reference rows are literal and
        # candidates are sorted by RepSum.sorted_terms; all must give the order
        # of the key below, and every reference row must validate as a candidate
        rows = [row for dim in (2, 3, 4, 5) for row in enumerate_all(dim)]
        rows += [row for table in reference_tables().values() for row in table]
        for row in rows:
            P = g2_parabolic(row.parabolic)
            assert validate_candidate(P, row.summands).summands == row.summands
            assert list(row.summands) == sorted(
                row.summands, key=lambda w: (irrep(P, w).rank, w), reverse=True)

    def test_deterministic(self):
        for dim in (2, 3, 4, 5):
            assert enumerate_all(dim) == enumerate_all(dim)

    def test_out_of_range(self, P1, B):
        with pytest.raises(OutOfRange):
            enumerate_candidates(P1, 5)
        with pytest.raises(OutOfRange):
            enumerate_candidates(B, 1)

    @pytest.mark.parametrize("dim_x", [3.0, True, "3", None])
    def test_dim_x_must_be_an_int(self, P1, dim_x):
        # 3.0 compares equal to 3 and True to 1: unchecked, the float would
        # reach range() and True would read as fibres no parabolic has
        for call in (enumerate_all, lambda d: enumerate_candidates(P1, d)):
            with pytest.raises(ValueError, match="not an integer"):
                call(dim_x)

    @pytest.mark.parametrize("dim_x", [3.0, True])
    def test_diff_dim_x_must_be_an_int(self, dim_x):
        with pytest.raises(ValueError, match="not an integer"):
            diff_against_paper(dim_x)

    @pytest.mark.parametrize("name", ["P1", "P2", "B"])
    def test_pool_dets_are_irrep_dets(self, name):
        # the pool's closed-form det and string length against RepSum.det,
        # RepSum.rank and the sum of the irreducible's weights
        P = g2_parabolic(name)
        assert P.summand_pool
        for n, w, det in P.summand_pool:
            weights = irrep(P, w).weights()
            assert n == irrep(P, w).rank
            assert det == irrep(P, w).det == tuple(
                sum(c * mu[i] for mu, c in weights.items()) for i in range(P.rs.rank))

    @pytest.mark.parametrize("name", ["P1", "P2", "B"])
    def test_pool_dets_bound_crossed_coordinates(self, name):
        # the enumeration bound: det_c >= lambda_c at every crossed node c;
        # det_c can be 0, as for (0, 1) on G/B
        P = g2_parabolic(name)
        for _, w, det in P.summand_pool:
            assert all(det[c - 1] >= w[c - 1] >= 0 for c in P.crossed), (w, det)
        if name == "B":
            assert {w: det for _, w, det in P.summand_pool}[(0, 1)] == (0, 1)

    @pytest.mark.parametrize("P", POOL_SPACES.values(), ids=POOL_SPACES)
    def test_pool_is_a_brute_force_scan(self, P):
        # every nonzero dominant weight of a box wider than the pool's bounds,
        # with rank and det summed over its weights, in descending (rank,
        # weight) order
        bound = max(*P.anticanonical, P.dim) + 1
        expected = []
        for w in product(range(bound + 1), repeat=P.rs.rank):
            weights = irrep(P, w).weights()
            rank = sum(weights.values())
            det = tuple(sum(c * mu[i] for mu, c in weights.items()) for i in range(P.rs.rank))
            if any(w) and rank <= P.dim - 2 and all(d <= a for d, a in zip(det, P.anticanonical)):
                expected.append((rank, w, det))
        expected.sort(reverse=True)
        pool = P.summand_pool
        assert type(pool) is tuple and all(type(entry) is tuple for entry in pool)
        assert all(a[:2] > b[:2] for a, b in zip(pool, pool[1:]))
        assert pool == tuple(expected)

    @pytest.mark.parametrize("P", [*POOL_SPACES.values(), P234],
                             ids=[*POOL_SPACES, "A1xA3/P234"])
    def test_search_is_the_unbounded_search(self, P):
        # the determinant bound on the summands still to come prunes only
        # branches that find no row: the search without it, row for row
        def unbounded(dim_x):
            pool, zero, rows = P.summand_pool, (0,) * P.rs.rank, []

            def extend(start, rank_left, det_left, acc):
                for idx in range(start, len(pool)):
                    n, w, det = pool[idx]
                    if n > rank_left:
                        continue
                    rest = tuple(map(sub, det_left, det))
                    if min(rest) < 0:
                        continue
                    if n < rank_left:
                        extend(idx, rank_left - n, rest, (*acc, w))
                    elif rest == zero:
                        summands = (*acc, w)
                        rows.append(TableRow(P.label, summands,
                                             P.string_length(summands[0]) == 1))

            extend(0, P.dim - dim_x, P.anticanonical, ())
            return sorted(rows, key=TableRow.sort_key)

        for dim_x in range(2, P.dim):
            assert enumerate_candidates(P, dim_x) == unbounded(dim_x)

    def test_summands_with_determinant_zero(self):
        # the least determinant coordinate sum in the pool is 0 here, so the
        # bound must not assume 1: (1,1,1,1) + (1,0,0,0) is a surface whose
        # last summand takes nothing from the determinant
        assert sorted(w for _, w, det in P234.summand_pool if not any(det)) == [
            (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)]
        assert [len(enumerate_candidates(P234, d)) for d in range(2, P234.dim)] == [52, 33, 14, 1]
        surfaces = {row.summands for row in enumerate_candidates(P234, 2)}
        assert ((1, 1, 1, 1), (1, 0, 0, 0)) in surfaces

    @pytest.mark.parametrize("factors", [(1,), (2,), (1, 1)])
    def test_pool_is_empty_without_room_for_a_fibre(self, factors):
        # P^1, P^2 and P^1 x P^1 have dim G/P <= 2, so no fibre of dimension
        # >= 2 is cut out; on a torus Levi every string length is 1, which only
        # the pool's string-length filter keeps out
        P = ambient(factors)
        assert P.dim <= 2 and P.summand_pool == ()

    @pytest.mark.parametrize("name", ["P1", "P2", "B"])
    @pytest.mark.parametrize("dim_x", [2, 3, 4, 5])
    def test_brute_force_equivalence(self, name, dim_x):
        P = g2_parabolic(name)
        if not 2 <= dim_x <= P.dim - 1:
            return
        rows = enumerate_candidates(P, dim_x)
        assert {tuple(sorted(r.summands)) for r in rows} == oracle_enumerate(name, dim_x)

    @pytest.mark.parametrize("name", ["P1", "P2", "B"])
    def test_rows_are_the_oracle_rows(self, name):
        # row for row, summand order and split flag included, in sort_key order
        P = g2_parabolic(name)
        for dim_x in range(2, P.dim):
            expected = [oracle_canonical_row(P, summands)
                        for summands in oracle_enumerate(name, dim_x)]
            assert enumerate_candidates(P, dim_x) == sorted(expected, key=TableRow.sort_key)

    def test_reference_rows_are_the_oracle_rows(self):
        for table in reference_tables().values():
            for row in table:
                P = g2_parabolic(row.parabolic)
                assert type(row) is TableRow
                assert oracle_canonical_row(P, reversed(row.summands)) == row


class TestTheorem:
    def test_unique_non_split_candidates(self):
        witnesses = verify_theorem()
        assert witnesses["P1"].summands == ((1, 1),)
        assert witnesses["P2"].summands == ((1, 1),)

    def test_violation_is_detected(self, monkeypatch):
        real = classify.enumerate_candidates

        def doctored(P, dim_x):
            rows = real(P, dim_x)
            if P.label == "P1":
                rows = [r for r in rows if r.split]
            return rows

        monkeypatch.setattr(classify, "enumerate_candidates", doctored)
        with pytest.raises(TheoremViolated):
            classify.verify_theorem()


class TestDiff:
    @pytest.mark.parametrize("dim_x,matched", [(5, 1), (3, 8), (2, 7)])
    def test_clean_dimensions(self, dim_x, matched):
        diff = diff_against_paper(dim_x)
        assert len(diff["matched"]) == matched
        assert diff["missing"] == [] and diff["extra"] == []

    def test_fourfold_extra_row(self):
        diff = diff_against_paper(4)
        assert len(diff["matched"]) == 5
        assert diff["missing"] == []
        extra = [(r.parabolic, tuple(sorted(r.summands))) for r in diff["extra"]]
        assert extra == [("B", ((1, 0), (1, 2)))]

    def test_missing_row_is_hard_failure(self, monkeypatch):
        real = reference_tables()
        doctored = dict(real)
        doctored[3] = real[3] + (TableRow("B", ((1, 1), (1, 1)), True),)
        monkeypatch.setattr(classify, "_REFERENCE_ROWS", doctored)
        with pytest.raises(MissingPaperRow):
            classify.diff_against_paper(3)

    @pytest.mark.parametrize("dim_x", [1, 6])
    def test_no_reference_table(self, dim_x):
        with pytest.raises(OutOfRange, match=f"no reference table for dim X = {dim_x}"):
            diff_against_paper(dim_x)

    def test_reference_row_counts(self):
        tables = reference_tables()
        assert [len(tables[n]) for n in (1, 2, 3, 4)] == [1, 5, 8, 7]


def test_published_invariants_take_a_row_or_a_label_and_summands():
    rows = enumerate_all(3)
    published = [row for row in rows if row.summands == ((1, 1),)]
    assert [row.parabolic for row in published] == ["P1", "P2"]
    for row in published:
        assert published_invariants(row) == published_invariants(row.parabolic, row.summands)
        assert published_invariants(row) is not None
    assert published_invariants(next(row for row in rows if row not in published)) is None
