"""Exception hierarchy shared by all sisbox modules."""

from __future__ import annotations


class SisboxError(Exception):
    """Base class for all sisbox errors.  ``kind`` and ``exit_code`` are how
    the command line reports one; a verdict against the input exits with 2.
    ``line``, where given, is the 1-based line of the input file at fault."""

    kind, exit_code = "error", 1

    def __init__(self, message: str = "", line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class BandwidthOverflowError(SisboxError):
    """Spectrum support exceeds the frequency grid."""

    def __init__(self, required_k: int, actual_k: int, line: int | None = None):
        self.required_k = required_k
        self.actual_k = actual_k
        super().__init__(
            f"spectrum support needs half-bandwidth K >= {required_k}, "
            f"grid has K = {actual_k}", line
        )


class GridMismatchError(SisboxError):
    """Operands live on different frequency grids."""


class NotAGrammianError(SisboxError):
    """A spectrum claimed to be a Grammian has significantly negative entries."""


class DegenerateSpaceError(SisboxError):
    """The generator has (numerically) empty spectral support."""

    kind, exit_code = "failed", 2


class NotASamplingSpaceError(SisboxError):
    """The candidate fails a sampling-space certificate, carried as ``report``."""

    kind, exit_code = "refused", 2

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class NotInSpaceError(SisboxError):
    """A function presented as a member fails the projection test."""

    kind, exit_code = "failed", 2

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        super().__init__(message)


class PartitionError(SisboxError):
    """A family of masks is not a valid partition of the support set."""

    kind, exit_code = "failed", 2

    def __init__(self, message: str, measure: float | None = None):
        self.measure = measure
        super().__init__(message)


class TruncationError(SisboxError):
    """A requested truncation size exceeds what the discretization supports."""


class PreconditionError(SisboxError):
    """An operation was invoked outside its stated precondition."""


class ConstructionRefusedError(SisboxError):
    """Kernel construction refused because the membership report failed."""

    kind, exit_code = "refused", 2

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class CatalogError(SisboxError):
    """Unknown catalog signal name."""

    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = known
        super().__init__(f"unknown signal {name!r}; catalog has: {', '.join(known)}")


class FileFormatError(SisboxError):
    """Malformed input file; carries the 1-based offending line number."""
