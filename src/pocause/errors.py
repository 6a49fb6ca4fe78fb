"""Exception hierarchy shared across the package.

Everything raised deliberately by this library derives from PocError so
callers (and the CLI exit-code mapping) can tell our failures apart from
bugs. The leaf classes are coarse on purpose: the message carries the
specifics, the class carries the kind of failure.
"""

import operator


class PocError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PocError):
    """Malformed configuration: query files, order specs, SCM specs, CLI args."""


class SchemaError(PocError):
    """A variable schema is invalid or the data file does not match it."""


class DataError(PocError):
    """A cell-level problem in a data file, located by row and column."""


class MissingValueError(DataError):
    """An empty or NA cell where a value is required."""


class NotIdentifiedError(PocError):
    """A point formula's precondition fails (e.g. a zero denominator)."""


class NoSupportError(PocError):
    """No observations (or no probability mass) in a required stratum."""


class SeparationError(PocError):
    """Logistic labels are degenerate or perfectly separated."""


class SingularError(PocError):
    """A linear system inside an estimator is singular."""


class DegenerateError(PocError):
    """Every bootstrap replicate failed; no distribution to summarize."""


def as_index(value, what: str, error: type[PocError] = ConfigError) -> int:
    """value as an int if it is an integer other than a bool; 2.0 is not."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{what} must be an integer, got {value!r}")


def as_float(value) -> float:
    """float(value), except that a string raises TypeError: a number
    written as a string was not written as a number."""
    if isinstance(value, str):
        raise TypeError(f"{value!r} is a string")
    return float(value)
