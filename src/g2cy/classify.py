"""Enumeration of Calabi-Yau candidates and comparison with reference tables.

A candidate on G/P in target dimension d is a multiset of nonzero dominant
highest weights whose total representation rank is dim G/P - d and whose
total determinant is the anticanonical weight.  The search is exhaustive
inside provable bounds:

* every dominant summand contributes det_c >= lambda_c >= 0 to each crossed
  determinant coordinate c (for a rank-<=1 Levi the string correction
  -n(n-1)/2 * alpha has non-negative crossed coordinates), so crossed
  coordinates of a summand are bounded by the anticanonical; det_c may be 0,
  as for (0, 1) on G/B, whose det is (0, 1);
* an uncrossed coordinate u forces rank lambda_u + 1, bounded by the rank
  budget;
* the search takes summands in descending string length, so after a summand
  of length n with rank R left, at least ceil(R / n) more follow, and each
  takes at least d_min, the least coordinate sum of a determinant in the
  pool, from the coordinate sum of the determinant left.  d_min is read off
  the pool, never assumed: it is 0 when a summand has determinant 0, as
  (1, 0, 0, 0) does on A1 x A3 with nodes 2-4 crossed.

Every d >= 2 has a rank budget of at most dim G/P - 2, so one pool per
parabolic, :attr:`~g2cy.parabolic.ParabolicData.summand_pool`, holds every
summand of every d, in the canonical summand order.

The shipped reference data covers the three G2 homogeneous spaces: the known
classification tables for fibre dimensions 5, 4, 3, 2, as literal canonical
rows, and the published degree/c2/Hodge values for the two threefolds cut
out by indecomposable bundles.  ``diff_against_paper`` never drops a
computed row: rows absent from the reference are reported as extra, and a
reference row the enumeration misses is a hard failure.
"""

from __future__ import annotations

from collections import namedtuple
from operator import sub

from .errors import MissingPaperRow, OutOfRange, TheoremViolated
from .parabolic import G2_PARABOLIC_NAMES, ParabolicData, g2_parabolic
from .root_system import Weight

_PARABOLIC_ORDER = {name: i for i, name in enumerate(G2_PARABOLIC_NAMES)}


class TableRow(namedtuple("TableRow", "parabolic summands split")):
    """One classification row: parabolic label plus canonical summand tuple.

    ``split`` is true when every summand is a line bundle.
    """

    __slots__ = ()

    def sort_key(self):
        return (_PARABOLIC_ORDER.get(self.parabolic, len(_PARABOLIC_ORDER)), len(self.summands),
                tuple(sorted(self.summands)))


def _fits(P: ParabolicData, dim_x: int) -> bool:
    """Whether G/P has fibres of dimension ``dim_x`` to enumerate, 2..dim G/P - 1;
    a ``dim_x`` not of type ``int`` raises ``ValueError``."""
    if type(dim_x) is not int:
        raise ValueError(f"dim X = {dim_x!r} is not an integer")
    return 2 <= dim_x <= P.dim - 1


def enumerate_candidates(P: ParabolicData, dim_x: int) -> list[TableRow]:
    """All candidate rows on G/P with fibres of dimension ``dim_x``.

    Exhaustive within the bounds above, by a search of
    :attr:`~g2cy.parabolic.ParabolicData.summand_pool` that never moves back
    in the pool: each multiset is found once, its summands already in the
    canonical order, descending (string length, weight), and it becomes a row
    as it is, split if it has as many summands as its rank, that is if every
    string length is 1.  The rows are sorted by :meth:`TableRow.sort_key`.
    """
    if not _fits(P, dim_x):
        raise OutOfRange(f"dim X = {dim_x} outside 2..{P.dim - 1} on {P.label}")
    pool, rank = P.summand_pool, P.dim - dim_x
    d_min = min([sum(det) for _, _, det in pool], default=0)
    rows: list[TableRow] = []

    def extend(start: int, rank_left: int, det_left: Weight, acc: tuple[Weight, ...]) -> None:
        for idx in range(start, len(pool)):
            n, w, det = pool[idx]
            if n > rank_left:
                continue
            rest = tuple(map(sub, det_left, det))
            if min(rest) < 0:
                continue
            if n < rank_left:
                # the ceil((rank_left - n) / n) or more summands still to come
                # each take at least d_min from the coordinate sum of rest
                if sum(rest) >= d_min * -((n - rank_left) // n):
                    extend(idx, rank_left - n, rest, (*acc, w))
            elif not any(rest):         # the rank budget is spent
                summands = (*acc, w)
                rows.append(TableRow(P.label, summands, len(summands) == rank))

    extend(0, rank, P.anticanonical, ())
    rows.sort(key=TableRow.sort_key)
    return rows


def enumerate_all(dim_x: int) -> list[TableRow]:
    """Candidates over all three G2 parabolics, skipping those :func:`_fits` rejects."""
    rows: list[TableRow] = []
    for name in G2_PARABOLIC_NAMES:
        P = g2_parabolic(name)
        if _fits(P, dim_x):
            rows.extend(enumerate_candidates(P, dim_x))
    return rows


def verify_theorem() -> dict[str, TableRow]:
    """Check uniqueness of the non-split threefold bundle on each Grassmannian.

    Only the two maximal parabolics are in scope.  Raises
    :class:`TheoremViolated` with the full candidate list if the non-split
    count differs from one.
    """
    witnesses = {}
    for name in ("P1", "P2"):
        rows = [row for row in enumerate_candidates(g2_parabolic(name), 3)
                if not row.split]
        if len(rows) != 1:
            raise TheoremViolated(
                f"{name}: expected exactly one non-split candidate, found "
                f"{[tuple(r.summands) for r in rows]}")
        witnesses[name] = rows[0]
    return witnesses


#: The published tables 1-4 as canonical rows, in the published order, unchecked:
#: :func:`diff_against_paper` fails on any that the enumeration of valid rows misses.
_REFERENCE_ROWS = {
    1: (
        TableRow("B", ((2, 2),), True),
    ),
    2: (
        TableRow("P1", ((3, 0),), True),
        TableRow("P2", ((0, 5),), True),
        TableRow("B", ((2, 1), (0, 1)), True),
        TableRow("B", ((1, 1), (1, 1)), True),
        TableRow("B", ((2, 0), (0, 2)), True),
    ),
    3: (
        TableRow("P1", ((1, 1),), False),
        TableRow("P1", ((2, 0), (1, 0)), True),
        TableRow("P2", ((1, 1),), False),
        TableRow("P2", ((0, 4), (0, 1)), True),
        TableRow("P2", ((0, 3), (0, 2)), True),
        TableRow("B", ((2, 0), (0, 1), (0, 1)), True),
        TableRow("B", ((1, 1), (1, 0), (0, 1)), True),
        TableRow("B", ((1, 0), (1, 0), (0, 2)), True),
    ),
    4: (
        TableRow("P1", ((0, 2),), False),
        TableRow("P1", ((0, 1), (2, 0)), False),
        TableRow("P1", ((1, 0), (1, 0), (1, 0)), True),
        TableRow("P2", ((1, 0), (0, 2)), False),
        TableRow("P2", ((0, 3), (0, 1), (0, 1)), True),
        TableRow("P2", ((0, 2), (0, 2), (0, 1)), True),
        TableRow("B", ((1, 0), (1, 0), (0, 1), (0, 1)), True),
    ),
}


def reference_tables() -> dict[int, tuple[TableRow, ...]]:
    """The published classification tables, keyed by table number 1..4.

    Tables 1-4 list the fibre dimensions 5, 4, 3, 2 respectively; rows keep
    the published order.
    """
    return dict(_REFERENCE_ROWS)


DIM_TO_TABLE = {5: 1, 4: 2, 3: 3, 2: 4}

#: Published invariants for the two indecomposable threefolds, used only for
#: comparison; computed values are never replaced by these.
PUBLISHED_INVARIANTS = {
    ("P1", ((1, 1),)): {"deg": 42, "c2H": 84, "h11": 1, "h12": 50},
    ("P2", ((1, 1),)): {"deg": 14, "c2H": 50, "h11": 1, "h12": 50},
}


def published_invariants(row_or_label, summands=None) -> dict | None:
    """Published degree/c2/Hodge values for a candidate, if any."""
    if summands is None:
        label, summands = row_or_label.parabolic, row_or_label.summands
    else:
        label = row_or_label
    return PUBLISHED_INVARIANTS.get((label, tuple(tuple(w) for w in summands)))


def diff_against_paper(dim_x: int) -> dict[str, list[TableRow]]:
    """Set-difference of the enumeration against the reference table.

    Missing reference rows are a hard failure (:class:`MissingPaperRow`);
    extra computed rows are returned for audit, never suppressed.  The whole
    enumeration it compared comes back as ``computed``.
    """
    computed = enumerate_all(dim_x)     # first, so that it checks the type of dim_x
    table_no = DIM_TO_TABLE.get(dim_x)
    if table_no is None:
        raise OutOfRange(f"no reference table for dim X = {dim_x}")
    reference = _REFERENCE_ROWS[table_no]
    ref_set = set(reference)
    comp_set = set(computed)
    missing = [row for row in reference if row not in comp_set]
    if missing:
        raise MissingPaperRow(
            f"enumeration for dim X = {dim_x} missed reference rows: "
            f"{[(r.parabolic, r.summands) for r in missing]}")
    return {
        "computed": computed,
        "matched": [row for row in computed if row in ref_set],
        "missing": [],
        "extra": [row for row in computed if row not in ref_set],
    }
