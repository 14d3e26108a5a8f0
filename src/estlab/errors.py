"""Exception hierarchy for estlab.

Every error raised by the library derives from :class:`EstlabError`, so
callers can catch one type at the boundary.  Validation-style errors also
derive from :class:`ValueError` to behave well with generic handling.
"""

__all__ = [
    "DegeneratePopulationError",
    "DegenerateSampleError",
    "EstlabError",
    "InvalidMomentsError",
    "InvalidSampleSizeError",
    "InvalidSyntheticSpecError",
    "MissingPopulationSizeError",
    "PopulationParseError",
    "SampleTooSmallError",
    "TooManySamplesError",
    "UndefinedConstantError",
    "UndefinedEstimateError",
    "UndefinedPreError",
]


class EstlabError(Exception):
    """Base class for all estlab errors."""


class PopulationParseError(EstlabError, ValueError):
    """A population CSV stream is malformed; the message names the line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DegeneratePopulationError(EstlabError, ValueError):
    """The population carries no usable signal (constant y or constant attribute)."""


class InvalidMomentsError(EstlabError, ValueError):
    """Summary moments are out of range or mutually inconsistent."""


class InvalidSampleSizeError(EstlabError, ValueError):
    """Requested sample size n is outside the valid range for the population."""


class MissingPopulationSizeError(EstlabError, ValueError):
    """The operation needs N, but the parameters were built without one."""


class SampleTooSmallError(EstlabError, ValueError):
    """Sample statistics need at least two units."""


class UndefinedEstimateError(EstlabError, ArithmeticError):
    """The estimator is undefined on this sample (zero denominator)."""


class DegenerateSampleError(EstlabError, ValueError):
    """A sample on which the requested estimator cannot be evaluated.

    Raised by the simulation engine under the ``error`` policy; carries the
    index of the offending replicate when known.
    """

    def __init__(self, message: str, replicate: int | None = None):
        if replicate is not None:
            message = f"{message} (replicate {replicate})"
        super().__init__(message)
        self.replicate = replicate


class UndefinedConstantError(EstlabError, ArithmeticError):
    """A ratio constant has a zero denominator for these parameters."""


class UndefinedPreError(EstlabError, ArithmeticError):
    """Relative efficiency is undefined (zero mean squared error)."""


class TooManySamplesError(EstlabError, ValueError):
    """Exhaustive enumeration would exceed the subset-count guard."""


class InvalidSyntheticSpecError(EstlabError, ValueError):
    """A synthetic-population recipe violates its invariants."""
