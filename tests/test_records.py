"""Record types: immutable values that validate on construction."""

import pytest

from g2cy import (CartanMatrix, DimRange, E1Page, KoszulInput, RestrictedCohomology, TableRow,
                  WeylElement, e1_page, hodge_numbers, irrep, restricted_cohomology, trivial,
                  validate_candidate)
from g2cy.errors import InvalidCartan, NotGloballyGenerated, TrivialSummand


def pairs(rs, P1):
    """Two equal, separately built instances of every record type; the last
    ``UNHASHABLE`` hold a dict each, so they do not hash."""
    e = irrep(P1, (1, 1))
    cand = validate_candidate(P1, [(1, 1)])
    inp = KoszulInput(P1, e, trivial(P1))
    return [
        (CartanMatrix.from_rows([[2, -3], [-1, 2]]), CartanMatrix(((2, -3), (-1, 2)))),
        (rs.positive_roots[0], rs.positive_roots[0]._replace()),
        (WeylElement((1, 2)), WeylElement(word=(1, 2))),
        (KoszulInput(P1, e, trivial(P1)), KoszulInput(P=P1, E=irrep(P1, (1, 1)), W=trivial(P1))),
        (DimRange(0, 3), DimRange(lower=0, upper=3)),
        (cand, validate_candidate(P1, [(1, 1)])),
        (hodge_numbers(cand), hodge_numbers(cand)),
        (TableRow("P1", ((1, 1),), False), TableRow(parabolic="P1", summands=((1, 1),), split=False)),
        (e1_page(inp), E1Page(entries={(0, 0): 1, (2, 5): 1}, euler=0)),
        (restricted_cohomology(inp), RestrictedCohomology(
            by_degree={0: DimRange(1, 1), 1: DimRange(0, 0), 2: DimRange(0, 0),
                       3: DimRange(1, 1)}, euler=0)),
    ]


UNHASHABLE = 2


def test_equal_fields_give_equal_values(rs, P1):
    for a, b in pairs(rs, P1):
        assert a is not b and a == b
    for a, b in pairs(rs, P1)[:-UNHASHABLE]:
        assert hash(a) == hash(b)
    for a, _ in pairs(rs, P1)[-UNHASHABLE:]:
        with pytest.raises(TypeError):
            hash(a)


def test_assignment_raises(rs, P1):
    for a, _ in pairs(rs, P1):
        with pytest.raises(AttributeError):
            setattr(a, a._fields[0], None)
        with pytest.raises(AttributeError):
            a.note = "extra"


def test_keyword_construction_validates(P1):
    # positional construction is checked in test_root_system and test_koszul
    with pytest.raises(InvalidCartan):
        CartanMatrix(entries=((2, 1), (-1, 2)))
    with pytest.raises(TrivialSummand):
        KoszulInput(P=P1, E=irrep(P1, (1, 1)) + trivial(P1), W=trivial(P1))
    with pytest.raises(NotGloballyGenerated):
        KoszulInput(P=P1, E=irrep(P1, (-1, 3)), W=trivial(P1))
