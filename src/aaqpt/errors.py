"""Exception taxonomy shared by every module in the package."""


class AaqptError(Exception):
    """Base class for all errors raised by this package."""


class NotSquareError(AaqptError):
    """A matrix that must be square is not."""


class NotHermitianError(AaqptError):
    """Hermiticity check failed; carries the maximum entrywise deviation."""

    def __init__(self, deviation: float):
        self.deviation = float(deviation)
        super().__init__(f"matrix is not Hermitian: max|m - m^dag| = {deviation:.3e}")


class NotUnitTraceError(AaqptError):
    """Trace-one check failed."""

    def __init__(self, trace: complex):
        self.trace = complex(trace)
        super().__init__(f"matrix does not have unit trace: tr = {trace:.6g}")


class NotPositiveError(AaqptError):
    """Positive-semidefiniteness check failed; carries the minimum eigenvalue."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(f"matrix is not positive semidefinite: min eigenvalue = {min_eigenvalue:.3e}")


class DimensionMismatchError(AaqptError):
    """Operands have incompatible dimensions."""


class UnequalDimensionsError(AaqptError):
    """An operation defined only for equal subsystem dimensions got unequal ones."""


class SvdFailureError(AaqptError):
    """The singular value decomposition did not converge.

    LAPACK does not expose an iteration count, so the backend diagnostic
    message is carried instead.
    """


class NotTracePreservingError(AaqptError):
    """A trace-preservation check failed; carries the deviation it measured,
    which the message names: max|sum K^dag K - I| for a Kraus set (the
    default), |tr C - d| or max|Tr_out C - I| for a Choi matrix."""

    def __init__(self, deviation: float, subject: str = "Kraus set",
                 measured: str = "max|sum K^dag K - I|"):
        self.deviation = float(deviation)
        super().__init__(f"{subject} is not trace preserving: {measured} = {deviation:.3e}")


class MixedDimensionsError(AaqptError):
    """Kraus operators are not all square matrices of one common dimension."""


class NotFaithfulError(AaqptError):
    """Strict extraction was asked to invert a rank-deficient realigned matrix."""

    def __init__(self, kernel_dimension: int, message: str | None = None):
        self.kernel_dimension = int(kernel_dimension)
        super().__init__(
            message
            or f"input state is not faithful: realigned matrix has a {kernel_dimension}-dimensional kernel"
        )


class NotPhysicalError(AaqptError):
    """A predicted output fails the density-matrix checks beyond the relaxed tolerance."""


class ParameterOutOfRangeError(AaqptError):
    """A state-family parameter lies outside its admissible range."""


class UnsupportedDimensionError(AaqptError):
    """The requested dimension has no implementation (probe frames exist for d = 2, 3)."""


class MissingBasisError(AaqptError):
    """Tomographic reconstruction needs counts for all nine two-qubit Pauli settings."""


class FileFormatError(AaqptError):
    """A JSON document does not follow one of the shared wire formats."""
