"""Exception types shared across the package.

The CLI maps these to exit codes: usage problems exit 2 (argparse's own
convention), computational ceilings exit 3, everything else is a bug.
"""


class NfkError(Exception):
    """Base class for all package errors."""


class FieldConstructionError(NfkError):
    """Defining polynomial rejected (reducible, non-monic, non-monogenic, ...)."""


class MissingRootOfUnityError(FieldConstructionError):
    """zeta_ell is not in the field, so no degree-ell Kummer theory over it."""


class CeilingError(NfkError):
    """An exhaustive search or census exceeded its configured ceiling.

    Carries the ceiling that was hit so callers can report how to raise it.
    """

    def __init__(self, message: str, ceiling: int):
        super().__init__(f"{message} (ceiling {ceiling}; raise via NFK_CEILING or --ceiling)")
        self.ceiling = ceiling


class NotPrincipalError(NfkError):
    """A generator was requested for an ideal that has none."""


class NotASquareError(NfkError):
    """FactoredIdeal.sqrt applied to a fractional ideal with an odd exponent."""


class DegenerateExtensionError(NfkError):
    """gamma is an ell-th power, so K(gamma^(1/ell)) would not have degree ell."""


class UnrealizableEllPartError(NfkError):
    """An ell-part of a discriminant was requested that is not in R.

    The exponent at some wild prime is not 0, not (ell-1)(B-s+1) for a
    congruence depth 1 <= s < B, and not the odd-valuation value
    (ell-1) + ell*nu(ell).
    """


class RankError(NfkError):
    """Unit rank outside the supported desk-scale range (rank <= 2)."""
