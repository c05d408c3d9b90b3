"""Exception types shared across the package."""


class NgfError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(NgfError):
    """An input violates a structural invariant (symmetry, realness, range)."""


class DimensionError(ValidationError):
    """An input has an incompatible or odd dimension."""


class ParityError(ValidationError):
    """An operator string has odd length."""


class SingularUpdateError(NgfError):
    """A rank-1 inverse update hit a vanishing denominator."""

    def __init__(self, step: int, denominator: complex):
        self.step = step
        self.denominator = denominator
        super().__init__(
            f"rank-1 update {step} has near-zero denominator {denominator:.3e}"
        )


class SingularContractionError(NgfError):
    """The phased contraction matrix is numerically singular for this phase vector.

    ``index`` is the position of that phase vector when a stack of them was
    evaluated at once.
    """

    def __init__(self, message: str, alpha=None, index: int | None = None):
        self.alpha = alpha
        self.index = index
        super().__init__(message)


class StagnationError(NgfError):
    """The optimizer cannot decrease the energy even at the minimum step size."""


class ResourceLimitError(NgfError):
    """A dense Fock-space request exceeds the configured mode caps."""


class NumericsError(NgfError):
    """A quantity violated a numerical sanity bound (e.g. imaginary residue)."""


class ConfigError(NgfError):
    """A run configuration is malformed or contains unknown keys."""


class FormatError(NgfError):
    """A data file is malformed; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
