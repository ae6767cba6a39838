"""Exception taxonomy shared by all modules."""


class G2CYError(Exception):
    """Base class for every error raised by this package."""


class InvalidCartan(G2CYError):
    """Cartan matrix is malformed or not symmetrizable."""


class NonFiniteType(G2CYError):
    """Cartan matrix not of finite type: its symmetrised form is not positive
    definite."""


class NotPDominant(G2CYError):
    """Weight is not dominant for the Levi of the parabolic."""


class NotGDominant(G2CYError):
    """Weight has a negative fundamental-weight coordinate."""


class NotARepresentation(G2CYError):
    """Weight multiset is not a non-negative combination of irreducibles."""


class OutOfRange(G2CYError):
    """Numerical argument outside its admissible range."""


class UnsupportedLevi(G2CYError):
    """Levi has semisimple rank > 1; weight strings are not implemented."""


class TrivialSummand(G2CYError):
    """Bundle contains the trivial line bundle as a direct summand."""


class NotGloballyGenerated(G2CYError):
    """Bundle has a summand whose highest weight is not dominant."""


class WrongDeterminant(G2CYError):
    """Bundle determinant differs from the anticanonical weight."""


class RankTooLarge(G2CYError):
    """Bundle rank exceeds dim G/P - 2."""


class FitInconsistent(G2CYError):
    """Hilbert samples do not lie on a two-term odd cubic."""


class TheoremViolated(G2CYError):
    """Uniqueness of the non-split threefold candidate failed."""


class MissingPaperRow(G2CYError):
    """Enumeration missed a row of the reference tables."""


class InconsistentSpectralSequence(G2CYError):
    """No differential ranks are compatible with the vanishing constraints."""


class InconsistentLongExactSequence(G2CYError):
    """No connecting-map ranks make the conormal long exact sequence exact."""
