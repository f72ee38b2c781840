"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """A sample plan, grid, or config is structurally invalid."""


class NumericError(RuntimeError):
    """A computation produced non-finite or near-singular values.

    Carries a ``witness`` describing where the blow-up occurred.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnsupportedError(ValueError):
    """The requested operation is outside the implemented family."""
