"""Exception hierarchy for trenq."""


class TrenqError(Exception):
    """Base class for all trenq errors."""


class InputError(TrenqError):
    """Invalid input: bad potential file, flags or schema, or an unusable well or level."""


class PotentialConditionError(InputError):
    """The potential violates the short-range decay conditions r^2 U -> 0."""


class DegenerateWellError(InputError):
    """The transformed well is numerically zero; nothing to compute."""


class NoSuchLevelError(InputError):
    """The requested level does not exist for this well depth."""


class ConvergenceError(TrenqError):
    """A quadrature, root bracket or finite-difference limit failed to converge."""
