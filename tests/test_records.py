"""Record types: immutable values that validate on construction."""

import pytest

from g2cy import (CartanMatrix, DimRange, GIrrep, KoszulInput, TableRow,
                  WeylElement, g_irrep, hodge_numbers, irrep, trivial,
                  validate_candidate)
from g2cy.errors import InvalidCartan, NotGloballyGenerated, TrivialSummand


def pairs(rs, P1):
    """Two equal, separately built instances of every record type."""
    e = irrep(P1, (1, 1))
    cand = validate_candidate(P1, [(1, 1)])
    return [
        (CartanMatrix.from_rows([[2, -3], [-1, 2]]), CartanMatrix(((2, -3), (-1, 2)))),
        (rs.positive_roots[0], rs.positive_roots[0]._replace()),
        (WeylElement((1, 2)), WeylElement(word=(1, 2))),
        (g_irrep(rs, (0, 1)), GIrrep((0, 1), 7)),
        (KoszulInput(P1, e, trivial(P1)), KoszulInput(P=P1, E=irrep(P1, (1, 1)), W=trivial(P1))),
        (DimRange(0, 3), DimRange(lower=0, upper=3)),
        (cand, validate_candidate(P1, [(1, 1)])),
        (hodge_numbers(cand), hodge_numbers(cand)),
        (TableRow("P1", ((1, 1),), False), TableRow(parabolic="P1", summands=((1, 1),), split=False)),
    ]


def test_equal_fields_give_equal_values(rs, P1):
    for a, b in pairs(rs, P1):
        assert a is not b and a == b
        if not isinstance(a, KoszulInput):     # E and W are RepSums, which are unhashable
            assert hash(a) == hash(b)


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
