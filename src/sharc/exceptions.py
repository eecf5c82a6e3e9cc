"""Error types raised across the pipeline, and the checked dataclass field
that declares a config key."""

import math
from dataclasses import field


class SharcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(SharcError, ValueError):
    """Input value violates a precondition (non-finite entries, zero vector, ...)."""


class DimMismatch(SharcError, ValueError):
    """Operands have incompatible dimensions."""


class InvalidBinning(SharcError, ValueError):
    """Strip pooling bin count does not divide the grid height."""


class EmptyInput(SharcError, ValueError):
    """An operation that needs at least one element received none."""


class InvalidFrameCount(SharcError, ValueError):
    """Pyramid aggregation received a group whose size is not the required one."""


class InvalidGamma(SharcError, ValueError):
    """Flattening exponent outside [0, 1]."""


class CorruptFile(SharcError, IOError):
    """A binary artifact has a bad magic number or is truncated."""


class CorruptIndex(CorruptFile):
    """The gallery index file is unreadable."""


class IndexMismatch(SharcError, ValueError):
    """A gallery index was enrolled under another model than the one querying it."""


class AlignmentError(SharcError, ValueError):
    """Two score matrices do not share identical query/gallery id orderings."""


class UnmatchableQuery(SharcError, ValueError):
    """A query has no correct gallery entry, so its metrics are undefined."""


class ProtocolError(SharcError, ValueError):
    """Gallery/query split cannot satisfy the protocol constraints."""


class TrainingDiverged(SharcError, RuntimeError):
    """Toy training produced a non-finite loss."""


class GradientCheckFailed(SharcError, RuntimeError):
    """Analytic gradient disagrees with the finite-difference estimate."""


class ConfigError(SharcError, ValueError):
    """A run-config field is missing or out of range."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _no_check(value) -> None:
    return None


def setting(default, check=_no_check):
    """A dataclass field declaring one config key.

    `default` gives the key's type and its value when a config leaves it out.
    `check` maps a value to what is wrong with it, worded to follow the key's
    name ("must be >= 1"), or to None when the value is fine.
    """
    return field(default=default, metadata={"check": check})


def at_least(low):
    return lambda v: None if v >= low else f"must be >= {low!r}"


def within(low, high, why=""):
    return lambda v: None if low <= v <= high else f"must be in [{low!r}, {high!r}]{why}"


def finite_nonneg(v) -> str | None:
    return None if math.isfinite(v) and v >= 0 else "must be finite and >= 0"
