"""Exception types shared across the package."""


class AutmapError(Exception):
    """Base class for all errors raised by this package."""


class FieldDomainError(AutmapError):
    """Field operation outside its domain (e.g. inverting zero)."""


class GroupBuildError(AutmapError):
    """Invalid parameters for a group constructor (non prime power, degree out of range, ...)."""


class CapExceededError(AutmapError):
    """A configured size/budget cap would be exceeded."""

    def __init__(self, message: str, predicted: int | None = None):
        super().__init__(message)
        self.predicted = predicted


class ParseError(AutmapError):
    """Syntax error in a group expression; ``offset`` is the 1-based position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class StrategyError(AutmapError):
    """Automorphism-group strategy precondition violated."""


class AutomorphismError(AutmapError):
    """An image map that is not a multiplicative bijection fixing 1."""


class InvarianceError(AutmapError):
    """Subgroup is not invariant under the automorphism being transported."""


class TheoremViolationError(AutmapError):
    """A scan whose success is guaranteed by a proved theorem came up empty.

    This never fires on correct inputs; if it does, it signals a bug in this
    package, not new mathematics.
    """
