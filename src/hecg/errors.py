"""Exception types raised across the package.

Everything derives from HecgError so callers can catch the whole family
with one clause; the subclasses exist because different failure kinds
need different handling (a degenerate chaotic orbit must abort key
derivation, while a malformed CSV row is a per-file ingestion problem).
"""


class HecgError(Exception):
    """Base class for all errors raised by this package."""


class ParameterDomainError(HecgError):
    """Chaotic parameters outside the open intervals (3.6, 4.0) x (0.1, 0.9)."""


class DegenerateOrbitError(HecgError):
    """A logistic iterate reached exactly 0.0 or 1.0 and the orbit collapsed."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"logistic orbit degenerate at iterate index {index}")


class InvalidStatisticsError(HecgError):
    """Segment statistics are non-finite."""


class InvalidSignalError(HecgError):
    """Segment samples are non-finite, too few, or otherwise unusable."""


class CorruptRecordError(HecgError):
    """Encrypted record bytes do not parse or are internally inconsistent."""


class DatasetError(HecgError):
    """Training dataset is malformed (length mismatch, too few segments)."""


class TrainingDivergedError(HecgError):
    """Training loss became non-finite."""


class ShapeError(HecgError):
    """Input length does not match what the operation expects."""


class EmptyInputError(HecgError):
    """Statistic requested on an empty sequence."""


class InsufficientDataError(HecgError):
    """Statistic requested on a sequence shorter than its validity floor."""


class UndefinedStatisticError(HecgError):
    """Statistic undefined for this input (constant series, all-zero signal)."""


class IngestionError(HecgError):
    """A CSV row could not be parsed."""

    def __init__(self, message: str, line_number: int):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class StoreError(HecgError):
    """Record or key lookup failed in the encrypted store."""
