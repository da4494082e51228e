"""Exception types shared across the package."""


class SteercertError(Exception):
    """Base class for all steercert errors."""


class SizeError(SteercertError, ValueError):
    """Operand shapes are inconsistent."""


class DomainError(SteercertError, ValueError):
    """Numeric input lies outside the documented domain."""


class ContractError(SteercertError, ValueError):
    """A structural precondition (hermiticity, projectivity, ...) is violated."""


class InvalidObservableError(SteercertError, ValueError):
    """Fourier coefficients do not assemble into a valid POVM."""


class NotExtremalError(SteercertError, ValueError):
    """POVM fails the extremality rank test, or the validity test a
    certified figure needs; carries the achieved Gram rank."""

    def __init__(self, message: str, rank: int, expected: int):
        super().__init__(message)
        self.rank = rank
        self.expected = expected


class UsageError(SteercertError):
    """A command-line argument or input file is malformed or out of range."""
