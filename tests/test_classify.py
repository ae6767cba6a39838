"""Candidate enumeration, theorem verification, reference-table diffs."""

import pytest

from g2cy import (diff_against_paper, enumerate_all, enumerate_candidates,
                  g2_parabolic, reference_tables, validate_candidate,
                  verify_theorem)
from g2cy import classify
from g2cy.classify import TableRow
from g2cy.errors import MissingPaperRow, OutOfRange, TheoremViolated
from g2cy.reps import irrep

from conftest import oracle_enumerate


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
        # found and reference rows are sorted by _canonical_row, candidates by
        # RepSum.sorted_terms; both must give the order of the key below, and
        # every reference row must validate as a candidate
        rows = [row for dim in (2, 3, 4, 5) for row in enumerate_all(dim)]
        rows += [row for table in reference_tables().values() for row in table]
        for row in rows:
            P = g2_parabolic(row.parabolic)
            assert validate_candidate(P, row.summands).summands == row.summands
            assert list(row.summands) == sorted(
                row.summands, key=lambda w: (irrep(P, w).rank, w), reverse=True)
            assert classify._canonical_row(P, tuple(reversed(row.summands))) == row

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
        # the pool's closed-form det against RepSum.det and against the sum of
        # the irreducible's weights, on every rank budget the enumeration uses
        P = g2_parabolic(name)
        for dim_x in range(2, P.dim):
            pool = classify._candidate_pool(P, P.dim - dim_x)
            assert pool
            assert list(pool) == sorted(pool)
            for w, det in pool.items():
                weights = irrep(P, w).weights()
                assert det == irrep(P, w).det == tuple(
                    sum(c * mu[i] for mu, c in weights.items()) for i in range(P.rs.rank))

    @pytest.mark.parametrize("name", ["P1", "P2", "B"])
    def test_pool_dets_bound_crossed_coordinates(self, name):
        # the enumeration bound: det_c >= lambda_c at every crossed node c, on
        # every rank budget; det_c can be 0, as for (0, 1) on G/B
        P = g2_parabolic(name)
        for dim_x in range(2, P.dim):
            for w, det in classify._candidate_pool(P, P.dim - dim_x).items():
                assert all(det[c - 1] >= w[c - 1] >= 0 for c in P.crossed), (w, det)
        if name == "B":
            assert classify._candidate_pool(P, P.dim - 2)[(0, 1)] == (0, 1)

    @pytest.mark.parametrize("name", ["P1", "P2", "B"])
    @pytest.mark.parametrize("dim_x", [2, 3, 4, 5])
    def test_brute_force_equivalence(self, name, dim_x):
        P = g2_parabolic(name)
        if not 2 <= dim_x <= P.dim - 1:
            return
        rows = enumerate_candidates(P, dim_x)
        assert {tuple(sorted(r.summands)) for r in rows} == oracle_enumerate(name, dim_x)


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
        monkeypatch.setattr(classify, "_reference_table", doctored.__getitem__)
        with pytest.raises(MissingPaperRow):
            classify.diff_against_paper(3)

    def test_reference_row_counts(self):
        tables = reference_tables()
        assert [len(tables[n]) for n in (1, 2, 3, 4)] == [1, 5, 8, 7]
