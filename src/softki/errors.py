"""Exception and warning types shared across the package."""


class SoftKIError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(SoftKIError):
    """Operands have incompatible shapes, or a point array is not a 1-D or
    (n, d) array of numbers."""


class NotPositiveDefinite(SoftKIError):
    """Cholesky failed for every jitter value in the schedule."""


class RankDeficient(SoftKIError):
    """Triangular factor has a diagonal entry below the rank tolerance."""


class SingularTriangular(SoftKIError):
    """Triangular solve hit an exactly-zero diagonal entry."""


class TooFewPoints(SoftKIError):
    """Fewer data points than requested centroids."""


class TooLarge(SoftKIError):
    """Input exceeds the dense-path size guardrail."""


class InvalidConfig(SoftKIError):
    """A configuration field or a record's number is not a number, or lies
    outside its allowed values (``data.integer`` and ``data.real``); the
    message names it."""


class NonFiniteInput(SoftKIError):
    """A Dataset, k-means x, query points or z hold nan or inf (``data.points``),
    z or a distance's operands hold a row whose scaled squared distances can
    overflow (``kernel.far_rows``; ``row`` is the 0-based index of a
    distance's x row), a temperature's inverse square overflows float64, or
    the variance of a training column or of the targets does
    (``data.standardize``); the message names the first bad row, entry or
    column. A nan or inf number of a record is an InvalidConfig
    (``data.real``)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ParseError(SoftKIError):
    """A CSV cell is not a finite number. Carries 1-based row and column."""

    def __init__(self, row: int, col: int, text: str):
        self.row = row
        self.col = col
        self.text = text
        super().__init__(f"row {row}, col {col}: cannot parse {text!r} as a finite number")


class EmptyFile(SoftKIError):
    """CSV file contains no data rows."""


class EmptySplit(SoftKIError):
    """The selected side of a train/test split holds no points."""


class NonFiniteResult(SoftKIError):
    """A computed metric is nan or inf; the message names it."""


class ChecksumOrVersionMismatch(SoftKIError):
    """A checkpoint failed its checksum, has an unsupported version or a bad field."""


class CGNotConvergedWarning(UserWarning):
    """Conjugate gradients stopped with a true residual above tolerance."""


class DegenerateColumnWarning(UserWarning):
    """A training column had zero variance; its std was forced to 1."""
