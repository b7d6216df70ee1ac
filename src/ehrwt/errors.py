"""Exception types shared across the package."""

__all__ = [
    "EhrwtError",
    "ConsistencyError",
    "EnumerationLimitError",
    "WeightParseError",
    "PolytopeFormatError",
    "UndeterminedFitError",
]


class EhrwtError(Exception):
    """Base class for errors raised by this package."""


class ConsistencyError(EhrwtError):
    """An internal cross-check failed.

    Raised when two independent computation routes disagree (for example
    an interpolated counting polynomial failing at a validation point).
    This signals a bug or a violated degree bound, not bad user input.
    """


class EnumerationLimitError(EhrwtError):
    """A stage exceeded a work cap: lattice-point enumeration or the facet computation."""


class WeightParseError(EhrwtError, ValueError):
    """A weight expression failed to parse.

    ``position`` is the 0-based character offset of the offending token
    in the original input string.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class PolytopeFormatError(EhrwtError, ValueError):
    """A polytope input file failed to parse.

    ``line`` is the 1-based line number of the offending content.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UndeterminedFitError(EhrwtError):
    """No stable polynomial fit was found within the search cap.

    ``samples`` maps each sampled argument to the exact value observed,
    so a caller can diagnose or retry with a larger cap.
    """

    def __init__(self, message: str, samples=None):
        super().__init__(message)
        self.samples = dict(samples) if samples else {}
