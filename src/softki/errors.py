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


class NonPositiveTemperature(SoftKIError):
    """Interpolation temperatures must be strictly positive."""


class TooFewPoints(SoftKIError):
    """Fewer data points than requested centroids."""


class TooLarge(SoftKIError):
    """Input exceeds the dense-path size guardrail."""


class InvalidConfig(SoftKIError):
    """A configuration field is outside its allowed values; the message names it."""


class NonFiniteInput(SoftKIError):
    """A Dataset, k-means x, query points or z hold nan, inf or a row whose squares overflow
    float64, or a temperature's inverse square overflows it; the message names
    the first bad row or entry."""


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
