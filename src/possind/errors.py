"""Exception types shared across the package."""


class PossindError(Exception):
    """Base class for every error raised by possind."""


class DuplicateVariable(PossindError):
    """A variable name occurs more than once in a space."""


class DuplicateValue(PossindError, ValueError):
    """A frame lists the same value, or a table the same assignment, more than once."""


class EmptyFrame(PossindError):
    """A variable was declared with no admissible values."""


class OutOfRange(PossindError):
    """A possibility degree or operand lies outside [0, 1]."""


class ScopeMismatch(PossindError):
    """Variable sets do not nest or match as the operation requires."""


class SpaceMismatch(PossindError):
    """Two distributions do not live on the same space."""


class NotNormalised(PossindError):
    """The operation needs a distribution whose maximum degree is 1."""


class BadTriplet(PossindError):
    """Triplet parts overlap, are empty where forbidden, or name unknown variables."""


class TooSmall(PossindError):
    """The space has too few variables for the requested enumeration."""


class TooLarge(PossindError):
    """The requested enumeration exceeds the safety guard."""


class FormatError(PossindError):
    """A distribution or reproducer document is structurally invalid."""
