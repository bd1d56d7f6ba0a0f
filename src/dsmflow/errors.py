"""Exception types shared across the solver stack."""


class DsmError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(DsmError):
    """Vector or operator dimensions are incompatible."""


class SingularOperator(DsmError):
    """A linear solve was refused because the operator is (numerically) singular."""

    def __init__(self, message, condition_estimate=None):
        if condition_estimate is not None:
            message = f"{message} (condition estimate {condition_estimate:.3e})"
        super().__init__(message)
        self.condition_estimate = condition_estimate


class NotSymmetric(DsmError):
    """An operation requiring the self-adjoint flag found it missing or violated."""


class SingularLinearization(DsmError):
    """The linearized operator at some point is numerically singular."""


class NonPsdOperator(DsmError):
    """The operator failed the self-adjoint positive-semidefinite check."""


class MonotonicityFailed(DsmError):
    """The monotonicity certificate for the nonlinearity failed."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class FlowFailed(DsmError):
    """The flow integration terminated without reaching the residual target."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class InnerSolveFailed(DsmError):
    """An inner solve of the continuation failed; partial records are attached."""

    def __init__(self, index, records, message):
        super().__init__(f"continuation step {index} failed: {message}")
        self.index = index
        self.records = records


class MaxIterations(DsmError):
    """An iterative oracle exhausted its iteration or line-search budget."""


class InconsistentSystem(DsmError):
    """The right-hand side is not in the range of the operator."""


class TMaxReachedError(DsmError):
    """The requested residual level was never met within the time horizon."""


class ParseError(DsmError):
    """A problem file, or a builtin map's parameters, could not be parsed."""


class CertificateMismatch(DsmError):
    """A problem's tagged hypotheses failed verification."""
