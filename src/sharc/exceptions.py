"""Error types raised across the pipeline."""


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
