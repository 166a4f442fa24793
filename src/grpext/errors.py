"""Exception types shared across the package."""


class GrpextError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(GrpextError):
    """Unknown element code, bad group/matrix file, or invalid matrix data."""


class NotInClassError(GrpextError):
    """No candidate cyclic order admits a decomposition, or no decomposition covers the group."""


class Condition3Error(GrpextError):
    """Conjugacy input matrix order is not coprime with p (or exceeds the cap)."""


class InvariantBreachError(GrpextError):
    """An internal guarantee failed; indicates a bug or corrupted input."""


class MemoryBudgetError(GrpextError):
    """A baby-step table would exceed the configured memory cap."""
