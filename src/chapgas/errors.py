"""Exception types shared across the package."""


class ChapgasError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ChapgasError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class UnsupportedModelError(ChapgasError, ValueError):
    """The operation is not defined for the given model tag."""


class NumericalLimitError(ChapgasError):
    """A solve ran against the representable-density floor or overflow."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class NoDeltaShockError(ChapgasError, LookupError):
    """The solution contains no delta shock."""


class ScheduleError(ChapgasError, ValueError):
    """A parameter schedule is malformed or visits the wrong wave region."""


class DomainTooSmallError(ChapgasError, ValueError):
    """Waves would reach the grid boundary before ``t_end``."""


class PositivityError(ChapgasError):
    """A cell density became negative during a finite-volume update."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class UnsupportedComparisonError(ChapgasError, ValueError):
    """An error norm is undefined for the given solution (delta shock present)."""
