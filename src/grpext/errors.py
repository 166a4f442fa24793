"""Exception types shared across the package."""


class GrpextError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(GrpextError):
    """Unknown element code, bad group/matrix file, or invalid matrix data."""


class NotAbelianError(GrpextError):
    """A generating set expected to be abelian contains non-commuting elements."""


class MembershipError(GrpextError):
    """An element is not in the span of the given basis."""


class NotInClassError(GrpextError):
    """No candidate cyclic order admits a decomposition, or no decomposition covers the group."""


class DecompositionFailed(GrpextError):
    """FIND-style decomposition returned its error result for this m."""

    def __init__(self, m: int, reason: str):
        super().__init__(f"no decomposition found for m={m}: {reason}")
        self.m = m
        self.reason = reason


class Condition3Error(GrpextError):
    """Conjugacy input matrix order is not coprime with p (or exceeds the cap)."""


class InvariantBreachError(GrpextError):
    """An internal guarantee failed; indicates a bug or corrupted input."""


class MemoryBudgetError(GrpextError):
    """A baby-step table would exceed the configured memory cap."""
